//! Property: the round core is **delivery-order independent**.
//!
//! Within a round, a substrate may hand frames to
//! [`RoundEngine::ingest`] in any order — threads race, a lockstep
//! loop drains in sender order, the simulator iterates a matrix. The engine's observable
//! end-of-round state (algorithm state, controller decisions, kept
//! sets, reconstructed `HO`/`SHO`) must not depend on how frames from
//! *different senders* interleave; with retransmission copies the
//! invariant is scoped to per-sender FIFO delivery (see the round-core
//! module docs), which every in-tree transport provides. This is the
//! property that lets three differently-scheduled substrates be
//! compared bit for bit, so it gets its own proptest: run a full
//! adaptive system over a noisy trace twice — once with frames
//! delivered in canonical order, once with a random per-sender-FIFO-
//! preserving interleaving per (receiver, round) — and require
//! identical everything.

use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeBook, CodeSpec, NoiseTrace};
use heardof_core::{Ate, AteParams};
use heardof_engine::{Framing, RoundEngine, SubstrateOutcome};
use heardof_model::{ProcessId, RoundSets};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

const N: usize = 5;
const ROUNDS: u64 = 8;

/// Everything observable about one run, normalized for comparison
/// (kept pairs as sets — the engine logs them in arrival order, which
/// is exactly the thing allowed to differ).
#[derive(Debug, PartialEq)]
struct Observed {
    codes: Vec<Vec<CodeSpec>>,
    kept: Vec<Vec<BTreeSet<(u32, u8)>>>,
    decisions: Vec<Option<u64>>,
    decision_rounds: Vec<Option<u64>>,
    states: Vec<String>,
    sets: Vec<RoundSets>,
}

/// Randomly interleaves per-sender FIFO queues: cross-sender order is
/// arbitrary, each sender's own frames keep their relative order —
/// exactly what an asynchronous network of FIFO links can produce.
fn fifo_preserving_interleave(frames: Vec<(u32, Vec<u8>)>, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut queues: Vec<(u32, VecDeque<Vec<u8>>)> = Vec::new();
    for (sender, bytes) in frames {
        match queues.iter_mut().find(|(s, _)| *s == sender) {
            Some((_, q)) => q.push_back(bytes),
            None => queues.push((sender, VecDeque::from([bytes]))),
        }
    }
    let mut merged = Vec::new();
    while !queues.is_empty() {
        let pick = rng.gen_range(0..queues.len());
        let (_, q) = &mut queues[pick];
        merged.push(q.pop_front().expect("non-empty queue"));
        if q.is_empty() {
            queues.swap_remove(pick);
        }
    }
    merged
}

/// Runs the full n-process adaptive system over `trace` in lockstep
/// with `copies` retransmissions, delivering each receiver's frames in
/// canonical order, or in a random FIFO-preserving interleaving when
/// `shuffle_seed` is set.
fn run_system(trace_seed: u64, copies: u8, shuffle_seed: Option<u64>) -> Observed {
    let cfg = AdaptiveConfig::standard(N, 1);
    let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
    let trace = NoiseTrace::oscillating(trace_seed);
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
    let mut engines: Vec<RoundEngine<Ate<u64>>> = (0..N)
        .map(|p| {
            RoundEngine::new(
                algo.clone(),
                ProcessId::new(p as u32),
                N,
                (p % 2) as u64,
                Framing::adaptive(Arc::clone(&book), AdaptiveController::new(cfg.clone())),
                copies,
                ROUNDS,
            )
        })
        .collect();
    let mut shuffler = shuffle_seed.map(StdRng::seed_from_u64);
    // Ground truth for SHO: (round, sender, receiver, copy) of every
    // undetected value fault — corruption is a pure trace function, so
    // both orderings see the same oracle.
    let mut faults: HashSet<(u64, u32, u32, u8)> = HashSet::new();

    for r in 1..=ROUNDS {
        let mut inboxes: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); N];
        for (p, engine) in engines.iter_mut().enumerate() {
            engine.begin_round_with(|dest, copy, clean| {
                let mut wire = clean.to_vec();
                trace.corrupt_frame(r, p as u32, dest, copy, &mut wire);
                // Classify for the oracle, exactly as a FaultyLink
                // would: decodes-but-differs is an undetected fault.
                if wire != clean {
                    if let (Ok(before), Ok(after)) =
                        (book.decode_tagged(clean).0, book.decode_tagged(&wire).0)
                    {
                        if before.body != after.body {
                            faults.insert((r, p as u32, dest, copy));
                        }
                    }
                }
                inboxes[dest as usize].push((p as u32, wire));
            });
        }
        for (p, engine) in engines.iter_mut().enumerate() {
            let arrived = std::mem::take(&mut inboxes[p]);
            let frames = match shuffler.as_mut() {
                Some(rng) => fifo_preserving_interleave(arrived, rng),
                None => arrived.into_iter().map(|(_, bytes)| bytes).collect(),
            };
            for bytes in &frames {
                let _ = engine.ingest(bytes);
            }
            engine.finish_round();
        }
    }

    let states = engines
        .iter()
        .map(|e| format!("{:?}", e.core().state()))
        .collect();
    let decisions = engines.iter().map(|e| e.decision().copied()).collect();
    let decision_rounds = engines.iter().map(|e| e.decision_round()).collect();
    let reports: Vec<_> = engines.into_iter().map(|e| e.into_report()).collect();
    let kept = reports
        .iter()
        .map(|rep| {
            rep.kept
                .iter()
                .map(|round| round.iter().copied().collect())
                .collect()
        })
        .collect();
    let codes = reports.iter().map(|rep| rep.codes.clone()).collect();
    let outcome =
        SubstrateOutcome::assemble(reports, vec![None::<u64>; N], faults.len(), |r, s, p, c| {
            faults.contains(&(r, s, p, c))
        });
    Observed {
        codes,
        kept,
        decisions,
        decision_rounds,
        states,
        sets: outcome.history.iter().map(|(_, s)| s.clone()).collect(),
    }
}

proptest! {
    #[test]
    fn permuting_cross_sender_delivery_changes_nothing(
        trace_seed in any::<u64>(),
        copies in 1u8..=2,
        shuffle_seed in any::<u64>(),
    ) {
        let canonical = run_system(trace_seed, copies, None);
        let shuffled = run_system(trace_seed, copies, Some(shuffle_seed));
        prop_assert_eq!(&canonical.codes, &shuffled.codes,
            "controller decisions must not depend on delivery order");
        prop_assert_eq!(&canonical.states, &shuffled.states,
            "process state must be bit-identical");
        prop_assert_eq!(&canonical.sets, &shuffled.sets,
            "HO/SHO reconstructions must match");
        prop_assert_eq!(canonical, shuffled);
    }

    #[test]
    fn two_different_interleavings_agree_with_each_other(
        trace_seed in any::<u64>(),
        copies in 1u8..=2,
        shuffle_a in any::<u64>(),
        shuffle_b in any::<u64>(),
    ) {
        prop_assert_eq!(
            run_system(trace_seed, copies, Some(shuffle_a)),
            run_system(trace_seed, copies, Some(shuffle_b))
        );
    }
}
