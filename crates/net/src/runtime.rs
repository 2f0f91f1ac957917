//! The threaded driver of a run (see `crate::run`): HO algorithms
//! deployed on OS threads over faulty links.
//!
//! Each process runs a round engine on its own OS thread, exchanging
//! the engine's coded frames over `std::sync::mpsc` channels through
//! the same byte-corrupting link fault models the lockstep stepper
//! drives. The thread contributes exactly what the engine cannot know:
//! byte transport and a round synchronizer implementing
//! communication-closed rounds on top of the asynchronous transport.
//!
//! A round crosses the channel as one unit per peer. A process's links
//! append what reaches each peer in round `r` into one outbox arena per
//! peer, and after its sends the process posts every arena, tagged
//! `r`, into its peer's inbox: one channel message per peer and round,
//! whatever the copy count, carrying the round's frames and ending that
//! peer's round at once. The round closes once it holds a round-`r`
//! batch from every peer (lockstep or not). A batch of a later round is
//! stashed whole and drained when that round opens, so even an
//! undecodable early frame is tallied in its own round; a batch of an
//! earlier round is drained at once, and the engine tallies its frames
//! as late. `HO(p, r)` is therefore a function of the link faults alone,
//! as on the lockstep stepper. A drained arena becomes an outbox of the
//! next round, so a warm round allocates nothing per frame.
//!
//! The batch's round tag, like the halt below, is the emulation's
//! control plane, outside the fault model: no link can produce, drop or
//! corrupt it. A real network has no such tag for a lost frame and
//! would close a round on a timeout alone. Here `round_timeout` is paid
//! only for a crashed or unspawned peer. Round 1 opens once every
//! process is up, so a peer still being spawned is never mistaken for a
//! dead one. The end of a run is an event too: the last process to
//! announce that it has decided posts a halt naming the round it just
//! closed into every peer's inbox. A peer still in that round closes it
//! on its batches as usual, every one of them already posted or being
//! posted; a peer already blocked in the next round closes it with what
//! it has and leaves. Lockstep runs never halt.
//!
//! The runtime reconstructs the exact `HO`/`SHO` collections afterwards
//! by joining every engine's kept-frame log with the fault injector's
//! undetected-corruption log (`SubstrateOutcome::assemble`), so the
//! same predicate checkers used on simulator traces apply to threaded
//! runs.

use crate::fabric::RunFabric;
use crate::link::LinkModel;
use crate::lockstep::Arena;
use crate::run::NetConfig;
use heardof_engine::{link_index, RoundMachine, WireLayout, WireMessage};
use heardof_model::HoAlgorithm;
use std::borrow::Cow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Barrier;
use std::time::Instant;

/// What a process finds in its inbox: one peer's round, or the
/// runtime's own end-of-run wake-up. `Round(r, frames)` holds every
/// frame one peer's links delivered here in round `r`, each with the
/// link's sender attribution, and ends that peer's round `r`.
/// `Halt(r)`: the last process to decide has closed round `r`, so every
/// peer has posted its round-`r` batches (or is posting them) and no
/// later round need be waited for. The round tag and `Halt` are the
/// runtime's, not bytes a link carries, so nothing a link can deliver —
/// however hostile the bytes — can close a round or end a run.
pub(crate) enum Inbound {
    Round(u64, Arena),
    Halt(u64),
}

/// One inbox per process: the sending ends, then the receiving ends.
pub(crate) type Inboxes = (Vec<Sender<Inbound>>, Vec<Receiver<Inbound>>);

pub(crate) fn inboxes(n: usize) -> Inboxes {
    (0..n).map(|_| mpsc::channel()).unzip()
}

/// What the processes of one run share.
struct Run {
    /// The board: how many processes have yet to announce that
    /// everything they run has decided. Zero means the run is over.
    undecided: AtomicUsize,
    /// Opens round 1 on every process at once, see [`process_main`].
    barrier: Barrier,
}

/// Runs one thread per engine over `inboxes` until every process has
/// left its round loop; hands the engines back in process order.
pub(crate) fn drive<A, L>(
    config: &NetConfig,
    fabric: &RunFabric,
    engines: Vec<RoundMachine<A, L>>,
    (txs, rxs): Inboxes,
) -> Vec<RoundMachine<A, L>>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
    L: WireLayout,
{
    let n = engines.len();
    let run = &Run {
        undecided: AtomicUsize::new(n),
        barrier: Barrier::new(n),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (engines.into_iter().zip(rxs).enumerate())
            .map(|(p, (engine, inbox))| {
                let links = fabric.link_models(p, n);
                // Each process owns its batch and halt senders, and
                // never one to itself, so an inbox still disconnects —
                // closing its owner's open round at once — when every
                // peer has left.
                let peers: Vec<_> = (0..n).filter(|&q| q != p).map(|q| txs[q].clone()).collect();
                scope
                    .spawn(move || process_main(engine, p as u32, inbox, links, peers, run, config))
            })
            .collect();
        drop(txs);
        handles
            .into_iter()
            // A process thread panics only on a bug, never on wire
            // bytes: hand its panic to the caller unchanged.
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

/// One process's round loop. `links` and `peers` are both in
/// `link_index` order: `links[i]` delivers into the outbox posted to
/// `peers[i]`.
fn process_main<A, L>(
    mut engine: RoundMachine<A, L>,
    pid: u32,
    inbox: Receiver<Inbound>,
    mut links: Vec<LinkModel>,
    peers: Vec<Sender<Inbound>>,
    run: &Run,
    config: &NetConfig,
) -> RoundMachine<A, L>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
    L: WireLayout,
{
    let fresh = || Arena::with_capacity(usize::from(config.copies));
    // One outbox per peer, in `link_index` order: the arenas drained
    // last round, topped up with fresh ones when fewer came back. Never
    // more than one round's worth is kept.
    let mut outboxes = Vec::with_capacity(peers.len());
    // Batches of later rounds, in arrival order, drained when their
    // round opens: at most one per peer while every peer is alive. Two
    // buffers swapped each round, so the stash keeps its capacity.
    let mut early = Vec::with_capacity(peers.len());
    let mut stashed = Vec::with_capacity(peers.len());
    // Round 1's clock starts once every process is up: a peer that has
    // not been spawned yet has lost nothing, so nobody times out on it.
    run.barrier.wait();
    let mut announced = false;
    for r in 1..=config.max_rounds {
        // Never reached in lockstep: those runs take exactly `max_rounds`.
        if run.undecided.load(Ordering::SeqCst) == 0 {
            break;
        }

        // --- Send phase: the engine emits, the links corrupt into the
        // outboxes, then each outbox goes to its peer as one message. ---
        outboxes.resize_with(peers.len(), fresh);
        engine.begin_round_with(|dest, copy, bytes| {
            let i = link_index(dest, pid);
            let outbox = &mut outboxes[i];
            links[i].send(r, copy, Cow::Borrowed(bytes), |frame| {
                outbox.push(pid, &frame)
            });
        });
        for (peer, outbox) in peers.iter().zip(outboxes.drain(..)) {
            // A peer that already left needs no frames.
            let _ = peer.send(Inbound::Round(r, outbox));
        }

        // --- Collect phase: drain what arrived early, then read the
        // inbox until every peer's round-`r` batch is in, a peer has
        // been silent for `round_timeout` (or every peer has left), or
        // the run is over. Past the deadline `recv_timeout` still hands
        // over what is already queued — it did arrive in time, it is
        // this thread that ran late. ---
        let mut open = peers.len();
        std::mem::swap(&mut early, &mut stashed);
        let mut replay = stashed.drain(..);
        let deadline = Instant::now() + config.round_timeout;
        while let Some(message) = replay.next().or_else(|| {
            let wait = deadline.saturating_duration_since(Instant::now());
            (open > 0).then(|| inbox.recv_timeout(wait).ok()).flatten()
        }) {
            match message {
                m @ Inbound::Round(round, _) if round > r => early.push(m),
                // This round's batch, or a stale one whose round
                // already closed on the timeout: its frames are
                // ingested now, and the engine tallies a stale one's as
                // late.
                Inbound::Round(round, mut batch) => {
                    batch.drain(|sender, bytes| {
                        let _ = engine.ingest_from(sender, bytes);
                    });
                    if round == r {
                        open -= 1;
                    }
                    if outboxes.len() < peers.len() {
                        outboxes.push(batch);
                    }
                }
                // Everyone has decided by round `done`. Its batches are
                // all on their way, so round `done` still closes on
                // them; a later round closes with what arrived — a
                // legitimate heard-of set. Either way the process leaves
                // at the top of the loop.
                Inbound::Halt(done) if done >= r => {}
                Inbound::Halt(_) => break,
            }
        }

        // --- Transition + renegotiation. ---
        engine.finish_round();

        // --- Termination: announce once; whoever announces last ends
        // the run. Its peers may already have opened the next round
        // and be waiting for batches that will never be sent, so the
        // board alone is not enough: a halt in every inbox wakes them
        // now instead of one `round_timeout` later.
        if !config.lockstep && !announced && engine.all_decided() {
            announced = true;
            if run.undecided.fetch_sub(1, Ordering::SeqCst) == 1 {
                for peer in &peers {
                    // A peer that already left has nobody to wake.
                    let _ = peer.send(Inbound::Halt(r));
                }
            }
        }
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkFaults;
    use crate::run::{fabric_for, run_threaded};
    use heardof_coding::{AdaptiveConfig, CodeSpec, NoiseTrace};
    use heardof_core::{Ate, AteParams, Ute, UteParams};
    use heardof_engine::OutcomeView;
    use heardof_predicates::{CommPredicate, PAlpha, PBenign};
    use heardof_telemetry::{EventKind, Telemetry};
    use std::time::Duration;

    #[test]
    fn perfect_network_reaches_consensus_fast() {
        let n = 5;
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let outcome = run_threaded(algo, n, vec![3, 1, 3, 1, 3], NetConfig::default());
        assert!(outcome.all_decided());
        assert!(outcome.agreement_ok());
        assert!(outcome.last_decision_round().unwrap() <= 3);
        assert!(PBenign.holds(&outcome.history));
        assert_eq!(outcome.undetected_corruptions, 0);
    }

    #[test]
    fn ute_runs_over_the_network() {
        let n = 5;
        let algo = Ute::new(UteParams::tightest(n, 0).unwrap(), 0u64);
        let outcome = run_threaded(algo, n, vec![2, 2, 2, 2, 2], NetConfig::default());
        assert!(outcome.all_decided());
        assert!(outcome.agreement_ok());
        assert_eq!(
            outcome.decisions.iter().flatten().next(),
            Some(&2),
            "unanimous input decides its value"
        );
    }

    #[test]
    fn undetected_corruption_shows_in_history_and_stays_safe() {
        let n = 9;
        let alpha = 2;
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, alpha).unwrap());
        let config = NetConfig {
            faults: LinkFaults {
                corrupt_prob: 0.08,
                undetected_prob: 0.5,
                ..LinkFaults::NONE
            },
            round_timeout: Duration::from_millis(40),
            max_rounds: 80,
            copies: 1,
            seed: 5,
            ..NetConfig::default()
        };
        let outcome = run_threaded(algo, n, (0..n as u64).map(|i| i % 2).collect(), config);
        assert!(outcome.agreement_ok(), "{:?}", outcome.decisions);
        // Expected |AHO| per round ≈ 9·0.08·0.5 = 0.36. P_α(2) holds in
        // the typical run but a Poisson(0.36) draw reaches 3 in a few
        // percent of process-rounds over a whole run, so assert the
        // statistically robust bound: P(X ≥ 5) ≈ 4·10⁻⁶ per
        // process-round.
        assert!(
            PAlpha::new(alpha + 2).holds(&outcome.history) || outcome.undetected_corruptions == 0,
            "observed corruption exceeded even the padded α budget"
        );
    }

    #[test]
    fn history_len_matches_shortest_process() {
        let n = 3;
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let outcome = run_threaded(algo, n, vec![7, 7, 7], NetConfig::default());
        let min = *outcome.rounds_completed.iter().min().unwrap() as usize;
        use heardof_model::History as _;
        assert_eq!(outcome.history.num_rounds(), min);
    }

    #[test]
    #[should_panic(expected = "one initial value per process")]
    fn wrong_arity_panics() {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(3, 0).unwrap());
        let _ = run_threaded(algo, 3, vec![1], NetConfig::default());
    }

    #[test]
    fn hamming_code_decides_under_noise_that_breaks_no_code() {
        // Identical channel noise; only the code differs. Behind SECDED
        // the corruption is almost always repaired, so the run looks
        // like a clean network.
        let n = 5;
        let mk = |code| NetConfig {
            faults: LinkFaults {
                corrupt_prob: 0.25,
                ..LinkFaults::NONE
            },
            round_timeout: Duration::from_millis(40),
            max_rounds: 80,
            seed: 3,
            code,
            ..NetConfig::default()
        };
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1).unwrap());
        let coded = run_threaded(
            algo.clone(),
            n,
            vec![1, 2, 1, 2, 1],
            mk(heardof_coding::CodeSpec::Hamming74),
        );
        assert!(coded.all_decided(), "SECDED repairs the channel");
        assert!(coded.agreement_ok());

        let uncoded = run_threaded(
            algo,
            n,
            vec![1, 2, 1, 2, 1],
            mk(heardof_coding::CodeSpec::None),
        );
        assert!(
            uncoded.undetected_corruptions > coded.undetected_corruptions,
            "uncoded links leak more value faults ({} vs {})",
            uncoded.undetected_corruptions,
            coded.undetected_corruptions
        );
    }

    #[test]
    fn static_runs_report_a_constant_code_schedule() {
        let n = 3;
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let outcome = run_threaded(algo, n, vec![4, 4, 4], NetConfig::default());
        for (p, codes) in outcome.code_schedule.iter().enumerate() {
            assert_eq!(codes.len(), outcome.rounds_completed[p] as usize);
            assert!(codes.iter().all(|c| *c == CodeSpec::DEFAULT), "process {p}");
        }
    }

    #[test]
    fn adaptive_runtime_escalates_under_a_noisy_trace_and_still_decides() {
        let n = 5;
        let alpha = 1;
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, alpha).unwrap());
        // Noise with sporadic quiet windows — the paper's liveness
        // shape (`P^{A,live}` needs good rounds): the burst phases
        // force every controller off rung 0, and the quiet windows let
        // `A_{T,E}` decide at its near-unanimous threshold (at n = 5,
        // E = 4.75 demands hearing everyone, which a rate-1/2 rung
        // under sustained bursts cannot guarantee in any fixed horizon).
        let trace = NoiseTrace::new(
            7,
            vec![
                heardof_coding::NoisePhase {
                    rounds: 6,
                    channel: heardof_coding::GilbertElliott::bursty(),
                },
                heardof_coding::NoisePhase {
                    rounds: 4,
                    channel: heardof_coding::GilbertElliott::clean(),
                },
            ],
        );
        let config = NetConfig {
            adaptive: Some(AdaptiveConfig::standard(n, alpha)),
            trace: Some(trace),
            round_timeout: Duration::from_millis(60),
            max_rounds: 40,
            ..NetConfig::default()
        };
        let outcome = run_threaded(algo, n, vec![1, 2, 1, 2, 1], config);
        assert!(outcome.agreement_ok(), "{:?}", outcome.decisions);
        assert!(outcome.all_decided(), "correcting rungs restore liveness");
        for (p, codes) in outcome.code_schedule.iter().enumerate() {
            assert_eq!(
                codes[0],
                CodeSpec::Checksum { width: 4 },
                "every ladder starts at the cheap rung"
            );
            assert!(
                codes.iter().any(|c| *c != CodeSpec::Checksum { width: 4 }),
                "process {p} never escalated: {codes:?}"
            );
        }
    }

    #[test]
    fn repetition_code_runs_end_to_end() {
        let n = 4;
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let config = NetConfig {
            code: heardof_coding::CodeSpec::Repetition { k: 3 },
            ..NetConfig::default()
        };
        let outcome = run_threaded(algo, n, vec![8, 8, 8, 8], config);
        assert!(outcome.all_decided());
        assert!(outcome.agreement_ok());
        assert_eq!(outcome.decisions.iter().flatten().next(), Some(&8));
    }

    /// A peer that never starts sends no batch: each survivor closes
    /// every round on `round_timeout`, without the missing peer in its
    /// heard-of set, and the run still ends.
    #[test]
    fn a_missing_peer_costs_each_round_one_timeout() {
        let (n, missing) = (4, 3);
        let config = NetConfig {
            round_timeout: Duration::from_millis(20),
            max_rounds: 3,
            lockstep: true,
            ..NetConfig::default()
        };
        let fabric = fabric_for(&config);
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let (txs, mut rxs) = inboxes(n);
        rxs.truncate(missing);
        let run = &Run {
            undecided: AtomicUsize::new(n - 1),
            barrier: Barrier::new(n - 1),
        };
        let started = Instant::now();
        let engines: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (rxs.into_iter().enumerate())
                .map(|(p, inbox)| {
                    let engine = fabric.engine_for(algo.clone(), p, n, 1);
                    let links = fabric.link_models(p, n);
                    let peers = (0..n).filter(|&q| q != p).map(|q| txs[q].clone()).collect();
                    let config = &config;
                    scope.spawn(move || {
                        process_main(engine, p as u32, inbox, links, peers, run, config)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let took = started.elapsed();

        assert!(
            took >= config.round_timeout * config.max_rounds as u32,
            "a round closed without the missing peer's batch: {took:?}"
        );
        for (p, engine) in engines.into_iter().enumerate() {
            assert_eq!(engine.decision(), Some(&1), "process {p}");
            let report = engine.into_report();
            assert_eq!(report.rounds_completed, config.max_rounds, "process {p}");
            for (r, kept) in report.kept.iter().enumerate() {
                let mut heard: Vec<u32> = kept.iter().map(|&(sender, _)| sender).collect();
                heard.sort_unstable();
                assert_eq!(heard, [0, 1, 2], "process {p}, round {}", r + 1);
            }
        }
    }

    /// Hostile bytes in a live inbox: an intruder holding a sender's
    /// view of every inbox pours in round-0 batches — always stale —
    /// of frames attributed to sender `u32::MAX` and zero-length frames
    /// while a lossless run is under way. They are bytes like any other
    /// — rejected and counted — and can close neither a round nor the
    /// run: under a timeout far beyond the test, every process hears
    /// everyone in every round up to its decision (only after that may
    /// a halt cut a round short).
    #[test]
    fn hostile_frames_end_neither_a_round_nor_the_run() {
        let n = 4;
        let config = NetConfig {
            round_timeout: Duration::from_secs(30),
            max_rounds: 20,
            telemetry: Telemetry::counters(),
            ..NetConfig::default()
        };
        let fabric = fabric_for(&config);
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let engines: Vec<_> = (0..n)
            .map(|p| fabric.engine_for(algo.clone(), p, n, p as u64 % 2))
            .collect();
        let (txs, rxs) = inboxes(n);
        let taps = txs.clone();
        let pour = move || {
            for tap in &taps {
                let mut junk = Arena::with_capacity(3);
                junk.push(u32::MAX, &[0xFF; 24]);
                junk.push(u32::MAX, &[]);
                junk.push(0, &[]);
                let _ = tap.send(Inbound::Round(0, junk));
            }
        };
        // The first burst is queued before any process starts, so every
        // process meets it inside round 1; the rest race the run.
        pour();
        let intruder = std::thread::spawn(move || {
            for _ in 0..200 {
                pour();
                std::thread::yield_now();
            }
        });
        let engines = drive(&config, &fabric, engines, (txs, rxs));
        intruder.join().unwrap();

        let decision = engines[0].decision().cloned();
        for (p, engine) in engines.into_iter().enumerate() {
            assert_eq!(engine.decision().cloned(), decision, "process {p}");
            let report = engine.into_report();
            let decided = report.decision_round.expect("the run was not ended early");
            for (r, kept) in report.kept[..decided as usize].iter().enumerate() {
                assert_eq!(kept.len(), n, "process {p} closed round {} early", r + 1);
            }
        }
        assert!(
            config.telemetry.total(EventKind::FrameRejected) >= 3 * n as u64,
            "the hostile frames went through the engine like any other bytes"
        );
    }
}
