//! Threaded runs execute on standing workers: the threads that carry
//! one run's processes carry the next run's too, and a run only spawns
//! the workers it is missing.
//!
//! A probe algorithm records the `ThreadId` each `send` runs on. The
//! pool is process-global, so the whole file is ONE `#[test]`: a
//! concurrent test would take workers out of the pool and put new ones
//! in while the counts below are read.

use heardof_core::{Ate, AteParams};
use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round, RoundSets};
use heardof_net::{run_async, run_threaded, LinkFaults, NetConfig, OutcomeView};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// `A_{T,E}` with a probe on it: every `send` records its thread, the
/// first `send` on a new thread may wait at `gate`, and `fail` names a
/// process whose `transition` panics in the given round.
#[derive(Clone, Debug)]
struct Probe {
    inner: Ate<u64>,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
    gate: Option<Arc<Barrier>>,
    fail: Option<(ProcessId, Round)>,
}

const FAILURE: &str = "process 1 fails in round 2";

impl Probe {
    fn new(n: usize, alpha: u32) -> Probe {
        Probe {
            inner: Ate::new(AteParams::balanced(n, alpha).unwrap()),
            threads: Arc::default(),
            gate: None,
            fail: None,
        }
    }

    fn threads(&self) -> usize {
        self.threads.lock().unwrap().len()
    }
}

impl HoAlgorithm for Probe {
    type Value = u64;
    type Msg = <Ate<u64> as HoAlgorithm>::Msg;
    type State = <Ate<u64> as HoAlgorithm>::State;

    fn name(&self) -> &'static str {
        "probe"
    }

    fn init(&self, p: ProcessId, n: usize, initial: u64) -> Self::State {
        self.inner.init(p, n, initial)
    }

    fn send(&self, round: Round, p: ProcessId, state: &Self::State, dest: ProcessId) -> Self::Msg {
        let fresh = self.threads.lock().unwrap().insert(thread::current().id());
        if let (true, Some(gate)) = (fresh, &self.gate) {
            gate.wait();
        }
        self.inner.send(round, p, state, dest)
    }

    fn transition(
        &self,
        round: Round,
        p: ProcessId,
        state: &mut Self::State,
        received: &ReceptionVector<Self::Msg>,
    ) {
        if self.fail == Some((p, round)) {
            panic!("{FAILURE}");
        }
        self.inner.transition(round, p, state, received)
    }

    fn decision(&self, state: &Self::State) -> Option<u64> {
        self.inner.decision(state)
    }
}

fn clean(max_rounds: u64) -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(2),
        max_rounds,
        ..NetConfig::default()
    }
}

fn decides(probe: &Probe, n: usize, config: NetConfig) {
    let initial = (0..n as u64).map(|i| i % 2).collect();
    let outcome = run_threaded(probe.clone(), n, initial, config);
    assert!(
        outcome.all_decided() && outcome.agreement_ok(),
        "{:?}",
        outcome.decisions
    );
}

#[test]
fn threaded_runs_reuse_standing_workers() {
    // Warm-up: the pool spawns the four workers it lacks.
    let probe = Probe::new(4, 0);
    decides(&probe, 4, clean(20));

    // Twenty more runs of four processes, on those same four threads
    // (one spawn per process and run would show 84).
    for _ in 0..20 {
        decides(&probe, 4, clean(20));
    }
    assert_eq!(probe.threads(), 4, "sequential runs of 4 spawned threads");

    // Six processes take the four idle workers and spawn two more.
    decides(&probe, 6, clean(20));
    assert_eq!(probe.threads(), 6, "a run of 6 after runs of 4");

    // A process that panics: the run re-raises its payload, and the
    // pool lost no worker to it — the next runs decide on the same six
    // threads.
    let failing = Probe {
        fail: Some((ProcessId::new(1), Round::new(2))),
        ..probe.clone()
    };
    let config = NetConfig {
        round_timeout: Duration::from_millis(20),
        lockstep: true,
        ..clean(3)
    };
    let panic = catch_unwind(AssertUnwindSafe(|| decides(&failing, 4, config)))
        .expect_err("a process panicked, so the run must");
    assert_eq!(
        panic.downcast_ref::<String>().map(String::as_str),
        Some(FAILURE)
    );
    decides(&probe, 4, clean(20));
    decides(&probe, 6, clean(20));
    assert_eq!(probe.threads(), 6, "a panicking process cost its worker");

    concurrent_runs_share_no_worker();
}

/// Four callers run at once, each five processes on its own lossy
/// seed. Every process waits at one gate on its first `send` until all
/// twenty have arrived, so the runs are live together and need twenty
/// distinct threads. Each run still replays the lockstep stepper.
fn concurrent_runs_share_no_worker() {
    let (n, callers) = (5, 4);
    let gate = Arc::new(Barrier::new(n * callers));
    let faults = LinkFaults {
        drop_prob: 0.15,
        corrupt_prob: 0.1,
        undetected_prob: 0.2,
    };
    let runs: Vec<_> = (11..11 + callers as u64)
        .map(|seed| {
            let probe = Probe {
                gate: Some(Arc::clone(&gate)),
                ..Probe::new(n, 1)
            };
            let config = NetConfig {
                faults,
                seed,
                ..clean(100)
            };
            let initial: Vec<u64> = (0..n as u64).map(|i| (i + seed) % 2).collect();
            let caller = {
                let (probe, config, initial) = (probe.clone(), config.clone(), initial.clone());
                thread::spawn(move || run_threaded(probe, n, initial, config))
            };
            (probe, config, initial, caller)
        })
        .collect();

    let mut seen = HashSet::new();
    for (probe, config, initial, caller) in runs {
        let what = format!("seed {}", config.seed);
        let threaded = caller.join().unwrap();
        let stepped = run_async(probe.inner.clone(), n, initial, config);
        assert_eq!(threaded.decisions, stepped.decisions, "{what}");
        assert_eq!(threaded.decision_rounds, stepped.decision_rounds, "{what}");
        let last = stepped
            .last_decision_round()
            .expect("the stepped run decides") as usize;
        let sets = |outcome: &heardof_net::NetOutcome<u64>| -> Vec<RoundSets> {
            outcome
                .history
                .iter()
                .take(last)
                .map(|(_, sets)| sets.clone())
                .collect()
        };
        assert_eq!(sets(&threaded), sets(&stepped), "{what}");
        assert_eq!(sets(&stepped).len(), last, "{what}");

        let threads = probe.threads.lock().unwrap();
        assert_eq!(threads.len(), n, "{what}: one thread per process");
        assert!(
            threads.iter().all(|id| seen.insert(*id)),
            "{what} shared a worker"
        );
    }
}
