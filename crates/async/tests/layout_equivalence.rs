//! The two wire layouts drive one machine: on clean links a
//! single-instance run and a one-slot multiplexed run of the same inputs
//! differ in their wire bytes and in nothing observable.

use heardof_async::{run_async, run_async_mux, AsyncConfig};
use heardof_coding::{AdaptiveConfig, CodeSpec};
use heardof_core::{Ate, AteParams};
use heardof_engine::{EngineReport, SubstrateOutcome};

#[test]
fn a_one_slot_mux_run_equals_the_single_instance_run_on_clean_links() {
    for n in [5, 16] {
        let ladder = AdaptiveConfig::standard(n, 1);
        for adaptive in [None, Some(ladder)] {
            let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1).unwrap());
            let inputs: Vec<u64> = (0..n as u64).map(|p| p % 3).collect();
            let config = AsyncConfig {
                code: CodeSpec::DEFAULT,
                adaptive,
                max_rounds: 12,
                ..AsyncConfig::default()
            };

            let single = run_async(algo.clone(), n, inputs.clone(), config.clone());
            let slots = inputs.iter().map(|v| vec![*v]).collect();
            let mux = run_async_mux(algo, n, slots, config);

            assert!(single.decisions.iter().all(Option::is_some), "n = {n}");
            let decisions: Vec<_> = mux.iter().map(|m| m.decisions[0]).collect();
            assert_eq!(single.decisions, decisions, "n = {n}");
            // The mux reports, read as single-instance reports, assemble
            // into the same outcome: decision rounds, rounds completed,
            // code schedules and — through the heard-of history — the
            // kept sender sets of every process and round.
            assert!(mux
                .iter()
                .all(|m| m.kept.iter().flatten().all(|(_, copy)| *copy == 0)));
            let reports = mux
                .into_iter()
                .map(|m| EngineReport {
                    decision_round: m.decision_rounds[0],
                    rounds_completed: m.rounds_completed,
                    kept: m.kept,
                    codes: m.codes,
                })
                .collect();
            let mux = SubstrateOutcome::assemble(reports, decisions, 0, |_, _, _, _| false);
            assert_eq!(single.decision_rounds, mux.decision_rounds, "n = {n}");
            assert_eq!(single.rounds_completed, mux.rounds_completed, "n = {n}");
            assert_eq!(single.code_schedule, mux.code_schedule, "n = {n}");
            assert_eq!(single.history, mux.history, "n = {n}");
        }
    }
}
