//! Algorithm-aware worst-case strategies.
//!
//! These adversaries aim at the exact slack in the paper's proofs: they
//! try to push *different* values over the decision threshold at
//! different receivers (Lemma 3's counting argument) using only their
//! per-receiver budget. With valid `(T, E)` they must fail; with
//! weakened parameters they are the quickest way to produce an
//! agreement violation.

use crate::traits::Adversary;
use heardof_model::{MessageMatrix, ProcessId, Round};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::hash::Hash;

/// Splits receivers into two halves and, within a per-receiver budget of
/// `alpha` corruptions, replaces messages so the lower half sees extra
/// copies of one popular value and the upper half extra copies of
/// another.
///
/// Corrupted contents are always *borrowed* from other senders' intended
/// messages, so they remain protocol-plausible.
///
/// # Examples
///
/// ```
/// use heardof_adversary::{Adversary, SplitBrain};
/// use heardof_model::{MessageMatrix, ProcessId, Round, RoundSets};
/// use rand::SeedableRng;
///
/// // Half the processes propose 0, half propose 1 — maximal tension.
/// let intended = MessageMatrix::from_fn(6, |s, _| Some((s.index() % 2) as u64));
/// let mut adv = SplitBrain::new(1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let delivered = adv.deliver(Round::FIRST, &intended, &mut rng);
/// let sets = RoundSets::from_matrices(&intended, &delivered);
/// assert!(sets.max_aho() <= 1); // budget respected
/// // Receiver 0 (lower half) now counts 4 copies of 0 instead of 3.
/// assert_eq!(delivered.column(ProcessId::new(0)).count_eq(&0), 4);
/// ```
#[derive(Clone, Debug)]
pub struct SplitBrain {
    alpha: u32,
}

impl SplitBrain {
    /// A split-brain attacker with per-receiver budget `alpha`.
    pub fn new(alpha: u32) -> Self {
        SplitBrain { alpha }
    }

    /// The per-receiver budget `α`.
    pub fn alpha(&self) -> u32 {
        self.alpha
    }

    /// The two most frequent distinct intended messages, most frequent
    /// first (ties broken by sender order of first appearance).
    fn top_two<M: Clone + Eq + Hash>(intended: &MessageMatrix<M>) -> Option<(M, M)> {
        let n = intended.universe();
        let probe = ProcessId::new(0);
        let mut counts: HashMap<&M, (usize, usize)> = HashMap::new(); // msg -> (count, first_seen)
        for s in 0..n {
            if let Some(m) = intended.get(ProcessId::new(s as u32), probe) {
                let entry = counts.entry(m).or_insert((0, s));
                entry.0 += 1;
            }
        }
        let mut ranked: Vec<(&M, usize, usize)> =
            counts.into_iter().map(|(m, (c, fs))| (m, c, fs)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
        match ranked.len() {
            0 | 1 => None,
            _ => Some((ranked[0].0.clone(), ranked[1].0.clone())),
        }
    }
}

impl<M: Clone + Eq + Hash + Send> Adversary<M> for SplitBrain {
    fn name(&self) -> String {
        format!("split-brain(α={})", self.alpha)
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        _rng: &mut StdRng,
    ) {
        let n = intended.universe();
        let Some((va, vb)) = Self::top_two(intended) else {
            return; // unanimity (or silence): nothing to split
        };
        for r in 0..n {
            let receiver = ProcessId::new(r as u32);
            let target = if r < n / 2 { &va } else { &vb };
            let mut used = 0;
            for s in 0..n {
                if used >= self.alpha {
                    break;
                }
                let sender = ProcessId::new(s as u32);
                if let Some(m) = intended.get(sender, receiver) {
                    if m != target {
                        out.set(sender, receiver, target.clone());
                        used += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_model::RoundSets;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn split_brain_biases_halves() {
        // 4 × value 0, 4 × value 1.
        let intended = MessageMatrix::from_fn(8, |s, _| Some((s.index() % 2) as u64));
        let mut adv = SplitBrain::new(2);
        let d = adv.deliver(Round::FIRST, &intended, &mut rng());
        let sets = RoundSets::from_matrices(&intended, &d);
        assert!(sets.max_aho() <= 2);
        // Lower-half receivers see 4 + 2 copies of 0.
        assert_eq!(d.column(ProcessId::new(0)).count_eq(&0), 6);
        // Upper-half receivers see 4 + 2 copies of 1.
        assert_eq!(d.column(ProcessId::new(7)).count_eq(&1), 6);
    }

    #[test]
    fn split_brain_needs_two_values() {
        let intended = MessageMatrix::from_fn(5, |_, _| Some(3u64));
        let mut adv = SplitBrain::new(3);
        let d = adv.deliver(Round::FIRST, &intended, &mut rng());
        assert_eq!(d, intended, "unanimity leaves nothing to split");
    }

    #[test]
    fn split_brain_respects_budget_every_round() {
        let intended = MessageMatrix::from_fn(9, |s, _| Some((s.index() % 3) as u64));
        let mut adv = SplitBrain::new(1);
        for round in 1..5u64 {
            let d = adv.deliver(Round::new(round), &intended, &mut rng());
            let sets = RoundSets::from_matrices(&intended, &d);
            assert!(sets.max_aho() <= 1, "round {round}");
        }
    }

    #[test]
    fn top_two_ranks_by_frequency() {
        // 3 × 7, 2 × 9, 1 × 1.
        let vals = [7u64, 7, 7, 9, 9, 1];
        let intended = MessageMatrix::from_fn(6, |s, _| Some(vals[s.index()]));
        let (a, b) = SplitBrain::top_two(&intended).unwrap();
        assert_eq!((a, b), (7, 9));
    }

    #[test]
    fn empty_matrix_is_left_alone() {
        let intended: MessageMatrix<u64> = MessageMatrix::empty(4);
        let mut adv = SplitBrain::new(2);
        let d = adv.deliver(Round::FIRST, &intended, &mut rng());
        assert_eq!(d.message_count(), 0);
    }
}
