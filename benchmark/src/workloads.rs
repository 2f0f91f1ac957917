//! The five workloads: their generated inputs, the production entry
//! point each one calls, and the per-op correctness check.
//!
//! Load shape, all workloads: closed loop, one client, one op in flight
//! — the next consensus call starts when the previous one returns. The
//! generator is one thread; `threaded-clean` is the only workload where
//! the *program* spawns threads (n = 4, mostly asleep in timeouts).
//! A run repeats one fixed batch of ops — op `i` of the batch has seed
//! `S + i`, every 4th op has unanimous inputs — for as long as it is
//! told to measure, so count metrics repeat exactly whatever the
//! machine's speed and timings are medians over identical batches.

use heardof_adversary::{Budgeted, GoodRounds, RandomCorruption, WithSchedule};
use heardof_async::{run_async, run_async_mux, AsyncConfig};
use heardof_coding::{AdaptiveConfig, CodeSpec, GilbertElliott, NoisePhase, NoiseTrace};
use heardof_core::{Ate, AteParams};
use heardof_engine::{MuxReport, OutcomeView, SubstrateOutcome};
use heardof_model::TraceLevel;
use heardof_net::{run_threaded, LinkFaults, NetConfig};
use heardof_sim::{RunOutcome, Simulator};
use heardof_telemetry::{EventKind, Telemetry};
use std::time::Duration;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run_async`, n = 16, fixed CRC-32, no faults.
    CleanSingle,
    /// `run_async_mux`, 64 slots, n = 5, fixed fountain8, drops + corruption.
    LossyMuxFountain,
    /// `run_async`, n = 8, adaptive ladder with gossip, bursty noise trace.
    BurstyAdaptive,
    /// `run_threaded`, n = 4, fixed CRC-32, no faults, 5 ms round timeout.
    ThreadedClean,
    /// `Simulator`, n = 16, budgeted random corruption with good rounds.
    SimAdversary,
}

/// One workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Which one.
    pub kind: Kind,
    /// Its name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Processes.
    pub n: usize,
    /// The algorithm's corruption budget α.
    pub alpha: u32,
    /// Consensus instances per op (64 on the mux workload, else 1).
    pub slots: usize,
    /// The round cap handed to the entry point.
    pub max_rounds: u64,
    /// Ops per batch — sized so a batch takes roughly a second here.
    pub batch_ops: usize,
    /// Untimed warm-up ops before the first batch (part of set-up).
    pub warmup_ops: usize,
    /// How much harder than the reference kernel this workload is hit
    /// when the host slows: the slope of log batch throughput on log
    /// kernel rate, fitted over ≈ 300 batches from 30 runs spanning the
    /// host's calm and loaded spells (README, "Why timings are
    /// normalised"). It only matters while the host is off its
    /// reference speed; at reference speed every exponent gives 1.
    pub speed_exponent: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::CleanSingle,
        name: "clean-single",
        n: 16,
        alpha: 3,
        slots: 1,
        max_rounds: 50,
        batch_ops: 4000,
        warmup_ops: 2000,
        speed_exponent: 1.05,
    },
    Workload {
        kind: Kind::LossyMuxFountain,
        name: "lossy-mux-fountain",
        n: 5,
        alpha: 1,
        slots: 64,
        max_rounds: 60,
        batch_ops: 200,
        warmup_ops: 100,
        speed_exponent: 1.16,
    },
    Workload {
        kind: Kind::BurstyAdaptive,
        name: "bursty-adaptive",
        n: 8,
        alpha: 1,
        slots: 1,
        max_rounds: 100,
        batch_ops: 800,
        warmup_ops: 400,
        speed_exponent: 1.48,
    },
    Workload {
        kind: Kind::ThreadedClean,
        name: "threaded-clean",
        n: 4,
        alpha: 0,
        slots: 1,
        max_rounds: 50,
        batch_ops: 200,
        warmup_ops: 100,
        speed_exponent: 1.0,
    },
    Workload {
        kind: Kind::SimAdversary,
        name: "sim-adversary",
        n: 16,
        alpha: 3,
        slots: 1,
        max_rounds: 100,
        batch_ops: 6000,
        warmup_ops: 3000,
        speed_exponent: 1.06,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated consensus call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Seeds the initial values and every fault stream of the call.
    pub seed: u64,
    /// All processes start from the same value — the paper's one-round
    /// fast path, and an integrity check (the decision must be that
    /// value).
    pub unanimous: bool,
}

/// Op `i` of the batch generated from `--seed base`.
pub fn op(base: u64, i: usize) -> Op {
    Op {
        seed: base.wrapping_add(i as u64),
        unanimous: i % 4 == 3,
    }
}

/// The value process `p` proposes for instance `slot` of `op`.
fn proposal(op: Op, p: usize, slot: usize) -> u64 {
    let p = if op.unanimous { 0 } else { p as u64 };
    (p + slot as u64 + op.seed % 3) % 3
}

/// What a run of one op returned, by entry point.
pub enum Outcome {
    /// `run_async` / `run_threaded` (and the single-instance driver).
    Single(SubstrateOutcome<u64>),
    /// `run_async_mux` (and the mux driver): one report per process.
    Mux(Vec<MuxReport<u64>>),
    /// `Simulator::run_until_decided`.
    Sim(Box<RunOutcome<Ate<u64>>>),
}

/// The checked facts of one op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Instances decided by every process.
    pub decided: u64,
    /// The last decision round (the round cap when something never
    /// decided) — what a deployment pays once a round costs an RTT.
    pub last_round: u64,
    /// Rounds the slowest process ran past the last decision.
    pub rounds_after_decision: u64,
    /// Everything decided in time, no two deciders disagree, and a
    /// unanimous op decided its input.
    pub ok: bool,
}

impl Workload {
    /// The algorithm every workload runs: `A_{T,E}` at the balanced
    /// thresholds for this `(n, α)`.
    pub fn algorithm(&self) -> Ate<u64> {
        Ate::new(AteParams::balanced(self.n, self.alpha).expect("workload (n, α) is feasible"))
    }

    /// One initial value per process.
    pub fn initial_values(&self, op: Op) -> Vec<u64> {
        (0..self.n).map(|p| proposal(op, p, 0)).collect()
    }

    /// One initial-value list (one entry per slot) per process.
    pub fn mux_initials(&self, op: Op) -> Vec<Vec<u64>> {
        (0..self.n)
            .map(|p| (0..self.slots).map(|j| proposal(op, p, j)).collect())
            .collect()
    }

    /// The byte-level configuration of `op`, in the async runtime's
    /// terms. `threaded-clean` uses the same fields through
    /// [`Workload::net_config`]; the traced driver takes this one for
    /// all four byte-level workloads.
    ///
    /// # Panics
    ///
    /// Panics on `sim-adversary`, which has no wire.
    pub fn async_config(&self, op: Op, telemetry: Telemetry) -> AsyncConfig {
        let base = AsyncConfig {
            seed: op.seed,
            max_rounds: self.max_rounds,
            telemetry,
            ..AsyncConfig::default()
        };
        match self.kind {
            Kind::CleanSingle | Kind::ThreadedClean => AsyncConfig {
                code: CodeSpec::Checksum { width: 4 },
                ..base
            },
            Kind::LossyMuxFountain => AsyncConfig {
                code: CodeSpec::Fountain { repair: 8 },
                faults: LinkFaults {
                    drop_prob: 0.02,
                    corrupt_prob: 0.05,
                    undetected_prob: 0.0,
                },
                ..base
            },
            Kind::BurstyAdaptive => AsyncConfig {
                adaptive: Some(AdaptiveConfig::standard(self.n, self.alpha).with_gossip()),
                trace: Some(NoiseTrace::new(
                    op.seed,
                    vec![
                        NoisePhase {
                            rounds: 6,
                            channel: GilbertElliott::bursty(),
                        },
                        NoisePhase {
                            rounds: 4,
                            channel: GilbertElliott::clean(),
                        },
                    ],
                )),
                ..base
            },
            Kind::SimAdversary => panic!("sim-adversary has no byte-level configuration"),
        }
    }

    /// `threaded-clean`'s configuration: [`Workload::async_config`]
    /// plus the wall-clock round timeout.
    pub fn net_config(&self, op: Op, telemetry: Telemetry) -> NetConfig {
        let a = self.async_config(op, telemetry);
        NetConfig {
            faults: a.faults,
            seed: a.seed,
            round_timeout: Duration::from_millis(5),
            copies: a.copies,
            max_rounds: a.max_rounds,
            code: a.code,
            adaptive: a.adaptive,
            trace: a.trace,
            lockstep: a.lockstep,
            telemetry: a.telemetry,
        }
    }

    /// `sim-adversary`'s environment: at most α = 3 corruptions per
    /// receiver per round, with every 4th round fault-free.
    pub fn sim_adversary(&self) -> WithSchedule<Budgeted<RandomCorruption>> {
        WithSchedule::new(
            Budgeted::new(RandomCorruption::new(self.alpha, 1.0), self.alpha),
            GoodRounds::every(4),
        )
    }

    /// Runs `op` through the workload's production entry point.
    pub fn run(&self, op: Op, telemetry: Telemetry) -> Outcome {
        match self.kind {
            Kind::CleanSingle | Kind::BurstyAdaptive => Outcome::Single(run_async(
                self.algorithm(),
                self.n,
                self.initial_values(op),
                self.async_config(op, telemetry),
            )),
            Kind::LossyMuxFountain => Outcome::Mux(run_async_mux(
                self.algorithm(),
                self.n,
                self.mux_initials(op),
                self.async_config(op, telemetry),
            )),
            Kind::ThreadedClean => Outcome::Single(run_threaded(
                self.algorithm(),
                self.n,
                self.initial_values(op),
                self.net_config(op, telemetry),
            )),
            Kind::SimAdversary => Outcome::Sim(Box::new(
                Simulator::new(self.algorithm(), self.n)
                    .initial_values(self.initial_values(op))
                    .adversary(self.sim_adversary())
                    .seed(op.seed)
                    .trace_level(TraceLevel::SetsOnly)
                    .run_until_decided(self.max_rounds as usize)
                    .expect("one initial value per process"),
            )),
        }
    }

    /// Checks one op's outcome against its inputs.
    pub fn check(&self, op: Op, outcome: &Outcome) -> OpStats {
        match outcome {
            Outcome::Single(o) => {
                let decided = o.all_decided();
                let last = o.last_decision_round();
                let integrity =
                    !op.unanimous || o.decisions.iter().all(|d| *d == Some(proposal(op, 0, 0)));
                OpStats {
                    decided: u64::from(decided),
                    last_round: last.unwrap_or(self.max_rounds),
                    rounds_after_decision: last
                        .map_or(0, |l| o.rounds_completed.iter().max().map_or(0, |m| m - l)),
                    ok: decided && o.agreement_ok() && integrity,
                }
            }
            Outcome::Mux(reports) => {
                let mut decided = 0;
                let mut ok = true;
                let mut last = 0;
                for j in 0..self.slots {
                    let first = reports[0].decisions[j];
                    let all = reports.iter().all(|r| r.decisions[j].is_some());
                    let agree = reports.iter().all(|r| r.decisions[j] == first);
                    let integrity = !op.unanimous || first == Some(proposal(op, 0, j));
                    decided += u64::from(all);
                    ok &= all && agree && integrity;
                    for r in reports {
                        last = last.max(r.decision_rounds[j].unwrap_or(self.max_rounds));
                    }
                }
                let ran = reports
                    .iter()
                    .map(|r| r.rounds_completed)
                    .max()
                    .unwrap_or(0);
                OpStats {
                    decided,
                    last_round: last,
                    rounds_after_decision: ran.saturating_sub(last),
                    ok,
                }
            }
            Outcome::Sim(o) => {
                let last = OutcomeView::last_decision_round(&**o);
                let integrity = !op.unanimous || o.decided_value() == Some(&proposal(op, 0, 0));
                OpStats {
                    decided: u64::from(o.all_decided()),
                    last_round: last.unwrap_or(self.max_rounds),
                    rounds_after_decision: last.map_or(0, |l| o.rounds_executed as u64 - l),
                    ok: o.consensus_ok() && integrity,
                }
            }
        }
    }

    /// Bytes the op put on the wire: every byte handed to
    /// `FaultyLink::send` (all copies, before faults), read off the
    /// telemetry plane's link events. `sim-adversary` has no wire; its
    /// figure is the model-level payload — one 8-byte value per ordered
    /// pair of distinct processes per round — so the metric exists on
    /// every workload and moves with `rounds_to_decide_mean` there.
    pub fn wire_bytes(&self, outcome: &Outcome, telemetry: &Telemetry) -> u64 {
        match outcome {
            Outcome::Sim(o) => (o.rounds_executed * self.n * (self.n - 1) * 8) as u64,
            _ => LINK_KINDS.iter().map(|k| telemetry.value_total(*k)).sum(),
        }
    }
}

/// The five verdicts a `FaultyLink::send` can report; each event's
/// value is the frame's wire length.
pub const LINK_KINDS: [EventKind; 5] = [
    EventKind::LinkDelivered,
    EventKind::LinkDropped,
    EventKind::LinkCorrected,
    EventKind::LinkDetected,
    EventKind::LinkUndetected,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fourth_op_is_unanimous_and_seeds_count_up() {
        let ops: Vec<Op> = (0..8).map(|i| op(10, i)).collect();
        assert_eq!(
            ops.iter().map(|o| o.seed).collect::<Vec<_>>(),
            (10..18).collect::<Vec<_>>()
        );
        assert_eq!(
            ops.iter().map(|o| o.unanimous).collect::<Vec<_>>(),
            [false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let w = by_name("lossy-mux-fountain").unwrap();
        assert_eq!(w.mux_initials(op(7, 2)), w.mux_initials(op(7, 2)));
        assert_ne!(w.mux_initials(op(7, 2)), w.mux_initials(op(8, 2)));
        let mixed = w.initial_values(op(1, 0));
        assert!(mixed.iter().any(|v| *v != mixed[0]), "{mixed:?}");
        let same = w.initial_values(op(1, 3));
        assert!(same.iter().all(|v| *v == same[0]), "{same:?}");
    }

    #[test]
    fn each_workload_decides_and_checks_clean_on_a_few_ops() {
        for w in &WORKLOADS {
            for i in 0..4 {
                let o = op(1, i);
                let telemetry = Telemetry::counters();
                let outcome = w.run(o, telemetry.clone());
                let stats = w.check(o, &outcome);
                assert!(stats.ok, "{} op {i}: {stats:?}", w.name);
                assert_eq!(stats.decided, w.slots as u64);
                assert!(w.wire_bytes(&outcome, &telemetry) > 0, "{}", w.name);
            }
        }
    }

    #[test]
    fn a_wrong_unanimous_decision_fails_the_check() {
        let w = by_name("clean-single").unwrap();
        let o = op(1, 3);
        let Outcome::Single(mut outcome) = w.run(o, Telemetry::null()) else {
            panic!("clean-single is a single-instance workload");
        };
        assert!(w.check(o, &Outcome::Single(outcome.clone())).ok);
        let wrong = outcome.decisions[0].map(|v| v + 1);
        outcome.decisions.iter_mut().for_each(|d| *d = wrong);
        assert!(!w.check(o, &Outcome::Single(outcome)).ok);
    }
}
