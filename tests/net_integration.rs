//! Full-stack integration: the paper's algorithms over the threaded
//! message-passing substrate, with predicate checking on reconstructed
//! histories.

use heardof::net::{run_async, run_threaded, LinkFaults, NetConfig};
use heardof::prelude::*;
use std::time::{Duration, Instant};

fn config(faults: LinkFaults, copies: u8, seed: u64) -> NetConfig {
    NetConfig {
        faults,
        seed,
        round_timeout: Duration::from_millis(40),
        copies,
        max_rounds: 100,
        ..NetConfig::default()
    }
}

#[test]
fn ate_and_ute_agree_over_clean_network() {
    let n = 7;
    let initial: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();

    let ate = run_threaded(
        Ate::<u64>::new(AteParams::balanced(n, 0).unwrap()),
        n,
        initial.clone(),
        config(LinkFaults::NONE, 1, 1),
    );
    assert!(ate.all_decided());
    assert!(ate.agreement_ok());

    let ute = run_threaded(
        Ute::new(UteParams::tightest(n, 0).unwrap(), 0u64),
        n,
        initial,
        config(LinkFaults::NONE, 1, 1),
    );
    assert!(ute.all_decided());
    assert!(ute.agreement_ok());
}

#[test]
fn detected_corruption_degrades_to_omission() {
    // 100% detectable corruption on 10% of frames: the CRC turns every
    // one of them into an omission; the history must be benign.
    let n = 6;
    let faults = LinkFaults {
        drop_prob: 0.0,
        corrupt_prob: 0.1,
        undetected_prob: 0.0,
    };
    let outcome = run_threaded(
        Ate::<u64>::new(AteParams::balanced(n, 0).unwrap()),
        n,
        (0..n as u64).map(|i| i % 2).collect(),
        config(faults, 2, 7),
    );
    assert!(outcome.agreement_ok());
    assert_eq!(outcome.undetected_corruptions, 0);
    assert!(PBenign.holds(&outcome.history));
}

#[test]
fn undetected_corruption_appears_in_sho_not_ho() {
    let n = 8;
    let faults = LinkFaults {
        drop_prob: 0.0,
        corrupt_prob: 0.15,
        undetected_prob: 1.0, // every corruption defeats the CRC
    };
    let outcome = run_threaded(
        Ate::<u64>::new(AteParams::balanced(n, 1).unwrap()),
        n,
        (0..n as u64).map(|i| i % 2).collect(),
        config(faults, 1, 5),
    );
    assert!(outcome.agreement_ok());
    assert!(
        outcome.undetected_corruptions > 0,
        "15% corruption over dozens of frames must hit at least once"
    );
    // The reconstructed history shows the corruption as AHO ≠ ∅
    // somewhere, never as missing HO entries for delivered frames.
    use heardof::model::History as _;
    let any_aho = (1..=outcome.history.num_rounds() as u64).any(|r| {
        outcome
            .history
            .round_sets(heardof::model::Round::new(r))
            .total_corruptions()
            > 0
    });
    assert!(any_aho);
}

#[test]
fn retransmission_raises_decision_rate_under_drops() {
    // The [10]-style knob: same drop rate, more copies ⇒ more runs
    // decide within the horizon.
    let n = 5;
    let faults = LinkFaults {
        drop_prob: 0.35,
        corrupt_prob: 0.0,
        undetected_prob: 0.0,
    };
    let mut decided_with = [0usize; 2];
    for seed in 0..8u64 {
        for (i, copies) in [1u8, 4].into_iter().enumerate() {
            let mut cfg = config(faults, copies, seed);
            cfg.round_timeout = Duration::from_millis(15);
            cfg.max_rounds = 40;
            let outcome = run_threaded(
                Ate::<u64>::new(AteParams::balanced(n, 0).unwrap()),
                n,
                (0..n as u64).map(|i| i % 2).collect(),
                cfg,
            );
            assert!(outcome.agreement_ok(), "safety holds regardless");
            if outcome.all_decided() {
                decided_with[i] += 1;
            }
        }
    }
    assert!(
        decided_with[1] >= decided_with[0],
        "4 copies ({}) must decide at least as often as 1 copy ({})",
        decided_with[1],
        decided_with[0]
    );
    assert!(decided_with[1] >= 6, "4 copies almost always decide");
}

#[test]
fn non_default_code_runs_end_to_end_and_suppresses_value_faults() {
    // The same noisy channel, framed by SECDED instead of the default
    // CRC-32 checksum: corruption that the checksum can only *drop* is
    // now *repaired*, and the uncoded leak disappears from the fault
    // log entirely — the value-fault ⇄ omission trade made live.
    use heardof::coding::CodeSpec;
    let n = 6;
    let faults = LinkFaults {
        drop_prob: 0.0,
        corrupt_prob: 0.2,
        undetected_prob: 0.0,
    };
    let mut cfg = config(faults, 1, 9);
    cfg.code = CodeSpec::Hamming74;
    let coded = run_threaded(
        Ate::<u64>::new(AteParams::balanced(n, 1).unwrap()),
        n,
        (0..n as u64).map(|i| i % 2).collect(),
        cfg,
    );
    assert!(coded.all_decided(), "SECDED repairs the channel in flight");
    assert!(coded.agreement_ok());

    let mut uncoded_cfg = config(faults, 1, 9);
    uncoded_cfg.code = CodeSpec::None;
    let uncoded = run_threaded(
        Ate::<u64>::new(AteParams::balanced(n, 1).unwrap()),
        n,
        (0..n as u64).map(|i| i % 2).collect(),
        uncoded_cfg,
    );
    assert!(
        uncoded.undetected_corruptions > coded.undetected_corruptions,
        "no code leaks value faults ({}) that SECDED suppresses ({})",
        uncoded.undetected_corruptions,
        coded.undetected_corruptions
    );
}

#[test]
fn sim_and_net_agree_on_fault_free_outcome() {
    // The same algorithm and inputs through both substrates reach the
    // same decision value.
    let n = 6;
    let initial: Vec<u64> = vec![4, 9, 4, 9, 4, 4];
    let algo = Ate::<u64>::new(AteParams::balanced(n, 0).unwrap());

    let sim = Simulator::new(algo.clone(), n)
        .initial_values(initial.clone())
        .run_until_decided(20)
        .unwrap();
    let net = run_threaded(algo, n, initial, config(LinkFaults::NONE, 1, 0));

    assert!(sim.consensus_ok());
    assert!(net.all_decided() && net.agreement_ok());
    let net_value = net.decisions[0].unwrap();
    assert_eq!(sim.decided_value(), Some(&net_value));
    assert_eq!(net_value, 4, "majority value wins in both worlds");
}

/// Rounds close on peers' round batches, not on a clock, so the
/// threaded driver is exact without the lockstep flag: on links that
/// drop and corrupt frames it replays the lockstep stepper's run round
/// for round, and no lost frame costs it the (long) round timeout. The
/// same holds with two copies of every frame (several frames in a
/// batch), and under a seeded bursty trace (a sender's links share one
/// pattern block), run in lockstep through the trace's noisy phase
/// from round 31 on.
#[test]
fn threaded_runs_replay_the_lockstep_stepper_on_lossy_links() {
    let n = 5;
    let lossy = LinkFaults {
        drop_prob: 0.15,
        corrupt_prob: 0.1,
        undetected_prob: 0.2,
    };
    let algo = Ate::<u64>::new(AteParams::balanced(n, 1).unwrap());
    for seed in [1, 2, 3] {
        let cases = [
            (lossy, 1, None),
            (lossy, 2, None),
            (LinkFaults::NONE, 1, Some(NoiseTrace::bursty(seed))),
        ];
        for (faults, copies, trace) in cases {
            let what = format!("seed {seed}, copies {copies}, traced {}", trace.is_some());
            // A traced run goes on to round 40, past the quiet phase.
            let lockstep = trace.is_some();
            let max_rounds = if lockstep { 40 } else { 100 };
            let initial: Vec<u64> = (0..n as u64).map(|i| (i + seed) % 2).collect();
            let config = NetConfig {
                round_timeout: Duration::from_secs(2),
                max_rounds,
                trace,
                lockstep,
                ..config(faults, copies, seed)
            };
            let started = Instant::now();
            let threaded = run_threaded(algo.clone(), n, initial.clone(), config.clone());
            let took = started.elapsed();
            let stepped = run_async(algo.clone(), n, initial, config);

            assert!(
                took < Duration::from_millis(500),
                "{what}: a lost frame cost a timeout ({took:?})"
            );
            assert_eq!(threaded.decisions, stepped.decisions, "{what}");
            assert_eq!(threaded.decision_rounds, stepped.decision_rounds, "{what}");
            let last = match lockstep {
                true => max_rounds as usize,
                false => stepped
                    .last_decision_round()
                    .expect("the stepped run decides") as usize,
            };
            let sets = |outcome: &SubstrateOutcome<u64>| -> Vec<RoundSets> {
                outcome
                    .history
                    .iter()
                    .take(last)
                    .map(|(_, sets)| sets.clone())
                    .collect()
            };
            assert_eq!(sets(&threaded), sets(&stepped), "{what}");
            assert_eq!(sets(&stepped).len(), last, "{what}");
        }
    }
}
