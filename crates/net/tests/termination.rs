//! How a threaded run ends: on an event, never on a clock.
//!
//! `round_timeout` bounds the wait for a *crashed* peer. While every
//! peer is alive it must never be paid — not by a round (the last
//! peer's batch of the round's frames closes it, lost frames or not)
//! and not by
//! the end of the run (the last decider wakes its peers). The tests use
//! a 2 s timeout and demand a return inside 500 ms: a single paid
//! timeout fails them, and the 4× gap keeps a loaded host from doing
//! the same. Lockstep only takes away the early exit: exactly
//! `max_rounds` rounds, none of them waited out.

use heardof_core::{Ate, AteParams};
use heardof_model::History as _;
use heardof_net::{run_threaded, run_threaded_mux, LinkFaults, NetConfig, OutcomeView};
use heardof_predicates::{CommPredicate, PBenign};
use std::time::{Duration, Instant};

const N: usize = 4;
const LONG_TIMEOUT: Duration = Duration::from_secs(2);
const PROMPT: Duration = Duration::from_millis(500);

fn ate(n: usize) -> Ate<u64> {
    Ate::new(AteParams::balanced(n, 0).unwrap())
}

fn clean() -> NetConfig {
    NetConfig {
        round_timeout: LONG_TIMEOUT,
        max_rounds: 20,
        ..NetConfig::default()
    }
}

#[test]
fn a_clean_run_returns_without_paying_a_timeout() {
    let started = Instant::now();
    let outcome = run_threaded(ate(N), N, vec![1, 2, 1, 2], clean());
    let took = started.elapsed();

    assert!(outcome.all_decided());
    assert!(outcome.agreement_ok());
    assert!(took < PROMPT, "a lossless run waited on a clock: {took:?}");
    // Nobody runs on after the run is over: at most the one round a
    // process had already opened when the last decision landed.
    let last = outcome.last_decision_round().unwrap();
    for (p, rounds) in outcome.rounds_completed.iter().enumerate() {
        assert!(
            *rounds <= last + 1,
            "process {p} completed {rounds} rounds, last decision in round {last}"
        );
    }
}

#[test]
fn a_clean_mux_run_returns_without_paying_a_timeout() {
    let initials: Vec<Vec<u64>> = (0..N as u64)
        .map(|p| (0..8).map(|slot| (p + slot) % 3).collect())
        .collect();
    let started = Instant::now();
    let reports = run_threaded_mux(ate(N), N, initials, clean());
    let took = started.elapsed();

    assert!(took < PROMPT, "a lossless run waited on a clock: {took:?}");
    let last = reports
        .iter()
        .flat_map(|r| &r.decision_rounds)
        .map(|round| round.expect("every instance decided on every process"))
        .max()
        .unwrap();
    for (p, report) in reports.iter().enumerate() {
        assert_eq!(
            report.decisions, reports[0].decisions,
            "process {p} disagrees"
        );
        assert!(
            report.rounds_completed <= last + 1,
            "process {p} completed {} rounds, last decision in round {last}",
            report.rounds_completed
        );
    }
}

#[test]
fn drops_with_retransmission_still_decide() {
    // Real losses: batches still close every round, and the halt must
    // not cost a run its decisions.
    let n = 5;
    let config = NetConfig {
        faults: LinkFaults {
            drop_prob: 0.3,
            ..LinkFaults::NONE
        },
        copies: 4, // P(all copies dropped) = 0.3⁴ ≈ 0.8%
        round_timeout: Duration::from_millis(30),
        max_rounds: 60,
        seed: 11,
        ..NetConfig::default()
    };
    let outcome = run_threaded(ate(n), n, vec![1, 2, 1, 2, 1], config);
    assert!(outcome.agreement_ok());
    assert!(outcome.all_decided(), "retransmission defeats drops");
    assert!(PBenign.holds(&outcome.history), "drops are benign");
}

#[test]
fn lockstep_runs_exactly_max_rounds_without_waiting_out_a_window() {
    let n = 3;
    let config = NetConfig {
        lockstep: true,
        max_rounds: 4,
        round_timeout: LONG_TIMEOUT,
        ..NetConfig::default()
    };
    let started = Instant::now();
    let outcome = run_threaded(ate(n), n, vec![6, 6, 6], config);
    let took = started.elapsed();

    assert_eq!(outcome.rounds_completed, vec![4, 4, 4]);
    assert_eq!(outcome.history.num_rounds(), 4);
    assert!(
        outcome.all_decided(),
        "decisions still happen, just not early exit"
    );
    assert!(took < PROMPT, "lockstep waited out a window: {took:?}");
}
