//! Outcome accessors shared by every substrate.
//!
//! Each substrate used to reimplement `all_decided` / agreement /
//! `last_decision_round` on its own outcome type. [`OutcomeView`] hoists
//! them next to the round core: an outcome only has to say who decided
//! what and when, and the consensus-shaped questions come for free.
//! [`SubstrateOutcome`] is the concrete outcome the byte-level
//! substrates (threaded, async) share; the simulator's richer
//! `RunOutcome` implements the trait over its verdict.

use crate::round::EngineReport;
use heardof_coding::CodeSpec;
use heardof_model::{CommHistory, ProcessId, ProcessSet, RoundSets};

/// The consensus-shaped view of any run outcome: who decided what,
/// when. Implementors provide the three accessors; the derived
/// questions (`all_decided`, agreement, last decision round) are
/// answered here, once.
pub trait OutcomeView {
    /// The consensus value domain.
    type Value: PartialEq;

    /// Number of processes in the run.
    fn num_processes(&self) -> usize;

    /// The value process `p` decided, if it decided.
    fn decision_of(&self, p: usize) -> Option<&Self::Value>;

    /// The round at which process `p` first decided, if it decided.
    fn decision_round_of(&self, p: usize) -> Option<u64>;

    /// `true` iff every process decided.
    fn all_decided(&self) -> bool {
        (0..self.num_processes()).all(|p| self.decision_of(p).is_some())
    }

    /// `true` iff no two deciders disagree.
    fn agreement_ok(&self) -> bool {
        let mut deciders = (0..self.num_processes()).filter_map(|p| self.decision_of(p));
        match deciders.next() {
            None => true,
            Some(first) => deciders.all(|v| v == first),
        }
    }

    /// The latest decision round among deciders, if all decided.
    fn last_decision_round(&self) -> Option<u64> {
        if !self.all_decided() {
            return None;
        }
        (0..self.num_processes())
            .filter_map(|p| self.decision_round_of(p))
            .max()
    }
}

/// The observable result of a byte-level substrate run (threaded or
/// async): decisions, per-process logs, the reconstructed heard-of
/// collections and the per-round code schedule.
#[derive(Clone, Debug)]
pub struct SubstrateOutcome<V> {
    /// Final decision per process.
    pub decisions: Vec<Option<V>>,
    /// Round at which each process first decided.
    pub decision_rounds: Vec<Option<u64>>,
    /// Rounds each process completed before exiting.
    pub rounds_completed: Vec<u64>,
    /// Reconstructed heard-of collections (up to the shortest process
    /// log, so every round has data for all receivers).
    pub history: CommHistory,
    /// Frames the links judged delivered with a wrong body: every
    /// decode that differed from what was sent, counted at the link,
    /// including images the receiver then dropped (a body that does not
    /// parse, or a miscorrected header naming no process or another
    /// round). An upper bound on
    /// the receptions that were valid and wrong; the `α` demand is
    /// `Σ_{p,r} |AHO(p, r)|` over [`SubstrateOutcome::history`]
    /// ([`RoundSets::total_corruptions`] per round).
    pub undetected_corruptions: usize,
    /// The code each process used for its sends, per completed round
    /// (`code_schedule[p][r-1]`). Constant for static runs; the
    /// controller's decisions for adaptive ones.
    pub code_schedule: Vec<Vec<CodeSpec>>,
}

impl<V: PartialEq> OutcomeView for SubstrateOutcome<V> {
    type Value = V;

    fn num_processes(&self) -> usize {
        self.decisions.len()
    }

    fn decision_of(&self, p: usize) -> Option<&V> {
        self.decisions[p].as_ref()
    }

    fn decision_round_of(&self, p: usize) -> Option<u64> {
        self.decision_rounds[p]
    }
}

impl<V> SubstrateOutcome<V> {
    /// Assembles the outcome from per-process engine reports plus the
    /// substrate's ground truth: final decisions and the fault oracle
    /// (`was_corrupted(round, sender, receiver, copy)`) that separates
    /// `SHO` from `HO`. The history is reconstructed up to the shortest
    /// completed log by joining every receiver's kept-frame log with
    /// the oracle — processes themselves can never know `SHO` (§2.1).
    pub fn assemble(
        reports: Vec<EngineReport>,
        decisions: Vec<Option<V>>,
        undetected_corruptions: usize,
        was_corrupted: impl Fn(u64, u32, u32, u8) -> bool,
    ) -> Self {
        let n = reports.len();
        let min_rounds = reports
            .iter()
            .map(|r| r.rounds_completed)
            .min()
            .unwrap_or(0);
        let mut history = CommHistory::new(n);
        for r in 1..=min_rounds {
            let mut ho = Vec::with_capacity(n);
            let mut sho = Vec::with_capacity(n);
            for (p, report) in reports.iter().enumerate() {
                let mut ho_p = ProcessSet::empty(n);
                let mut sho_p = ProcessSet::empty(n);
                for &(sender, copy) in &report.kept[(r - 1) as usize] {
                    ho_p.insert(ProcessId::new(sender));
                    if !was_corrupted(r, sender, p as u32, copy) {
                        sho_p.insert(ProcessId::new(sender));
                    }
                }
                ho.push(ho_p);
                sho.push(sho_p);
            }
            history.push(RoundSets::from_sets(ho, sho));
        }
        SubstrateOutcome {
            decisions,
            decision_rounds: reports.iter().map(|r| r.decision_round).collect(),
            rounds_completed: reports.iter().map(|r| r.rounds_completed).collect(),
            history,
            undetected_corruptions,
            code_schedule: reports.into_iter().map(|r| r.codes).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_model::History;

    fn report(decided: Option<u64>, kept: Vec<Vec<(u32, u8)>>) -> EngineReport {
        EngineReport {
            decision_round: decided,
            rounds_completed: kept.len() as u64,
            kept,
            codes: vec![CodeSpec::DEFAULT; 1],
        }
    }

    #[test]
    fn derived_accessors_answer_the_consensus_questions() {
        let outcome = SubstrateOutcome {
            decisions: vec![Some(3u64), Some(3), None],
            decision_rounds: vec![Some(2), Some(4), None],
            rounds_completed: vec![5, 5, 5],
            history: CommHistory::new(3),
            undetected_corruptions: 0,
            code_schedule: vec![Vec::new(); 3],
        };
        assert!(!outcome.all_decided());
        assert!(outcome.agreement_ok());
        assert_eq!(outcome.last_decision_round(), None, "one holdout");

        let full = SubstrateOutcome {
            decisions: vec![Some(3u64), Some(3), Some(3)],
            decision_rounds: vec![Some(2), Some(4), Some(3)],
            ..outcome
        };
        assert!(full.all_decided());
        assert_eq!(full.last_decision_round(), Some(4));

        let split = SubstrateOutcome {
            decisions: vec![Some(1u64), Some(2), None],
            decision_rounds: vec![Some(1), Some(1), None],
            rounds_completed: vec![1, 1, 1],
            history: CommHistory::new(3),
            undetected_corruptions: 0,
            code_schedule: vec![Vec::new(); 3],
        };
        assert!(!split.agreement_ok(), "deciders disagree");
    }

    #[test]
    fn assemble_joins_kept_logs_with_the_fault_oracle() {
        // 2 processes, 1 round: each heard the other; p1's reception
        // from p0 was silently corrupted.
        let reports = vec![
            report(Some(1), vec![vec![(0, 0), (1, 0)]]),
            report(None, vec![vec![(0, 0), (1, 0)]]),
        ];
        let outcome =
            SubstrateOutcome::assemble(reports, vec![Some(9u64), None], 1, |r, s, p, c| {
                (r, s, p, c) == (1, 0, 1, 0)
            });
        assert_eq!(outcome.history.num_rounds(), 1);
        let sets = &outcome.history.iter().next().unwrap().1;
        assert_eq!(sets.ho(ProcessId::new(1)).len(), 2);
        assert_eq!(sets.sho(ProcessId::new(1)).len(), 1, "corruption left SHO");
        assert!(sets.sho(ProcessId::new(1)).contains(ProcessId::new(1)));
        assert_eq!(sets.sho(ProcessId::new(0)).len(), 2);
        assert_eq!(outcome.undetected_corruptions, 1);
    }
}
