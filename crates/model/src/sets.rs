//! Heard-of sets, safe heard-of sets, kernels and altered spans.
//!
//! For each process `p` and round `r` the model defines (§2.1):
//!
//! * `HO(p, r)` — processes whose round-`r` message `p` received,
//! * `SHO(p, r) ⊆ HO(p, r)` — those received *uncorrupted*
//!   (`~µ_p^r[q] = S_q^r(s_q, p)`),
//! * `AHO(p, r) = HO(p, r) \ SHO(p, r)` — the altered heard-of set.
//!
//! Per round: kernel `K(r) = ∩_p HO(p, r)`, safe kernel
//! `SK(r) = ∩_p SHO(p, r)`, altered span `AS(r) = ∪_p AHO(p, r)`.
//! Whole-run versions `K`, `SK`, `AS` intersect/union over all rounds.
//!
//! A process can observe `HO(p, r)` (the support of its reception
//! vector) but **not** `SHO(p, r)` — only the trace recorder, which sees
//! both the intended and the delivered matrix, can compute it.

use crate::ids::{ProcessId, Round};
use crate::matrix::MessageMatrix;
use crate::set::ProcessSet;

/// The heard-of and safe heard-of sets of every process for one round.
///
/// # Examples
///
/// ```
/// use heardof_model::{MessageMatrix, ProcessId, RoundSets};
///
/// let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
/// let mut delivered = intended.clone();
/// delivered.mutate_cell(ProcessId::new(0), ProcessId::new(1), |_| 9); // corrupt
/// delivered.clear(ProcessId::new(2), ProcessId::new(1));              // drop
///
/// let sets = RoundSets::from_matrices(&intended, &delivered);
/// let p1 = ProcessId::new(1);
/// assert_eq!(sets.ho(p1).len(), 2);   // heard p0 (corrupted) and p1
/// assert_eq!(sets.sho(p1).len(), 1);  // only p1's own message was safe
/// assert_eq!(sets.aho(p1).len(), 1);  // p0's message was altered
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoundSets {
    n: usize,
    ho: Vec<ProcessSet>,
    sho: Vec<ProcessSet>,
}

impl RoundSets {
    /// Derives the sets of a round by comparing what the sending functions
    /// prescribed (`intended`) with what arrived (`delivered`).
    ///
    /// `HO(p, r)` is the support of `delivered`'s column `p`;
    /// `SHO(p, r)` keeps only senders whose delivered message equals the
    /// intended one.
    ///
    /// Both matrices are walked once in their sender-major memory order:
    /// each cell ORs its sender's bit into a plain `HO` and `SHO` word of
    /// its receiver, without a branch on the cell — on the stack while
    /// `n ≤ 64` — and the `2n` sets are built from those words at the
    /// end.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different universes.
    pub fn from_matrices<M: Eq>(intended: &MessageMatrix<M>, delivered: &MessageMatrix<M>) -> Self {
        assert_eq!(
            intended.universe(),
            delivered.universe(),
            "intended and delivered matrices must share a universe"
        );
        let n = intended.universe();
        // Word w of receiver r's `HO` at `w·n + r`, so the cells of one
        // sender meet one contiguous run of words; `SHO`'s words follow.
        let per = n.div_ceil(64);
        let mut inline = [0u64; 2 * 64];
        let mut spill = Vec::new();
        let words: &mut [u64] = if n <= 64 {
            &mut inline[..2 * n]
        } else {
            spill.resize(2 * per * n, 0);
            &mut spill
        };
        let (ho_words, sho_words) = words.split_at_mut(per * n);
        for s in 0..n {
            let (w, b) = (s / 64, s % 64);
            let sender = ProcessId::new(s as u32);
            let (got_row, want_row) = (delivered.row_cells(sender), intended.row_cells(sender));
            let cells = got_row.iter().zip(want_row);
            let ho = &mut ho_words[w * n..(w + 1) * n];
            let sho = &mut sho_words[w * n..(w + 1) * n];
            for ((got, want), (ho_p, sho_p)) in cells.zip(ho.iter_mut().zip(sho)) {
                let heard = got.is_some();
                *ho_p |= u64::from(heard) << b;
                *sho_p |= u64::from(heard & (got == want)) << b;
            }
        }
        let sets = |words: &[u64]| -> Vec<ProcessSet> {
            let word = |r: usize| words.iter().skip(r).step_by(n).copied();
            (0..n).map(|r| ProcessSet::from_words(n, word(r))).collect()
        };
        RoundSets {
            n,
            ho: sets(ho_words),
            sho: sets(sho_words),
        }
    }

    /// Builds sets directly (mainly for tests and synthetic histories).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any `SHO(p) ⊄ HO(p)`.
    pub fn from_sets(ho: Vec<ProcessSet>, sho: Vec<ProcessSet>) -> Self {
        assert_eq!(ho.len(), sho.len(), "HO and SHO collections must align");
        let n = ho.len();
        for p in 0..n {
            assert_eq!(ho[p].universe(), n, "HO universe mismatch");
            assert_eq!(sho[p].universe(), n, "SHO universe mismatch");
            assert!(
                sho[p].is_subset(&ho[p]),
                "SHO(p{p}) must be a subset of HO(p{p})"
            );
        }
        RoundSets { n, ho, sho }
    }

    /// The system size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// `HO(p, r)`: senders heard by `p` this round.
    pub fn ho(&self, p: ProcessId) -> &ProcessSet {
        &self.ho[p.index()]
    }

    /// `SHO(p, r)`: senders heard *safely* (uncorrupted) by `p`.
    pub fn sho(&self, p: ProcessId) -> &ProcessSet {
        &self.sho[p.index()]
    }

    /// `AHO(p, r) = HO(p, r) \ SHO(p, r)`: senders whose messages reached
    /// `p` corrupted.
    pub fn aho(&self, p: ProcessId) -> ProcessSet {
        self.ho[p.index()].difference(&self.sho[p.index()])
    }

    /// `|AHO(p, r)|` without allocating.
    pub fn aho_len(&self, p: ProcessId) -> usize {
        self.ho[p.index()].len() - self.sho[p.index()].len()
    }

    /// The largest `|AHO(p, r)|` over all `p` — the round's demand on the
    /// `P_α` budget.
    pub fn max_aho(&self) -> usize {
        (0..self.n)
            .map(|p| self.aho_len(ProcessId::new(p as u32)))
            .max()
            .unwrap_or(0)
    }

    /// The kernel `K(r) = ∩_p HO(p, r)`: processes heard by everyone.
    pub fn kernel(&self) -> ProcessSet {
        let mut k = ProcessSet::full(self.n);
        for s in &self.ho {
            k.intersect_with(s);
        }
        k
    }

    /// The safe kernel `SK(r) = ∩_p SHO(p, r)`: processes heard *safely*
    /// by everyone.
    pub fn safe_kernel(&self) -> ProcessSet {
        let mut k = ProcessSet::full(self.n);
        for s in &self.sho {
            k.intersect_with(s);
        }
        k
    }

    /// The altered span `AS(r) = ∪_p AHO(p, r)`: processes from which at
    /// least one receiver got a corrupted message.
    pub fn altered_span(&self) -> ProcessSet {
        let mut a = ProcessSet::empty(self.n);
        for p in 0..self.n {
            a.union_with(&self.aho(ProcessId::new(p as u32)));
        }
        a
    }

    /// Total number of corrupted receptions this round (`Σ_p |AHO(p, r)|`),
    /// the quantity Santoro/Widmayer's lower bound counts.
    pub fn total_corruptions(&self) -> usize {
        (0..self.n)
            .map(|p| self.aho_len(ProcessId::new(p as u32)))
            .sum()
    }

    /// `true` if no message was corrupted this round (`SHO = HO` for all).
    pub fn is_benign(&self) -> bool {
        self.ho.iter().zip(&self.sho).all(|(h, s)| h == s)
    }
}

/// The full heard-of collections `(HO(p, r), SHO(p, r))` of a (finite
/// prefix of a) run — the object communication predicates range over.
///
/// # Examples
///
/// ```
/// use heardof_model::{CommHistory, History, MessageMatrix, ProcessId, Round, RoundSets};
///
/// let intended = MessageMatrix::from_fn(2, |_, _| Some(0u64));
/// let sets = RoundSets::from_matrices(&intended, &intended);
/// let mut h = CommHistory::new(2);
/// h.push(sets);
/// assert_eq!(h.num_rounds(), 1);
/// assert!(h.round_sets(Round::FIRST).is_benign());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommHistory {
    n: usize,
    rounds: Vec<RoundSets>,
}

impl CommHistory {
    /// An empty history for `n` processes.
    pub fn new(n: usize) -> Self {
        CommHistory {
            n,
            rounds: Vec::new(),
        }
    }

    /// Appends the sets of the next round.
    ///
    /// # Panics
    ///
    /// Panics if the round's universe differs from the history's.
    pub fn push(&mut self, sets: RoundSets) {
        assert_eq!(sets.universe(), self.n, "round universe mismatch");
        self.rounds.push(sets);
    }

    /// Iterates over `(round, sets)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Round, &RoundSets)> {
        self.rounds
            .iter()
            .enumerate()
            .map(|(i, s)| (Round::new(i as u64 + 1), s))
    }

    /// The whole-run kernel `K = ∩_r K(r)`.
    pub fn kernel(&self) -> ProcessSet {
        let mut k = ProcessSet::full(self.n);
        for r in &self.rounds {
            k.intersect_with(&r.kernel());
        }
        k
    }

    /// The whole-run safe kernel `SK = ∩_r SK(r)`.
    pub fn safe_kernel(&self) -> ProcessSet {
        let mut k = ProcessSet::full(self.n);
        for r in &self.rounds {
            k.intersect_with(&r.safe_kernel());
        }
        k
    }

    /// The whole-run altered span `AS = ∪_r AS(r)`.
    pub fn altered_span(&self) -> ProcessSet {
        let mut a = ProcessSet::empty(self.n);
        for r in &self.rounds {
            a.union_with(&r.altered_span());
        }
        a
    }
}

/// Read access to the heard-of collections of a run prefix.
///
/// Implemented by [`CommHistory`] and by full run traces, so predicates
/// can be evaluated on either without copying.
pub trait History {
    /// The system size `n`.
    fn n(&self) -> usize;

    /// Number of recorded rounds.
    fn num_rounds(&self) -> usize;

    /// The sets of round `r` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the recorded prefix.
    fn round_sets(&self, r: Round) -> &RoundSets;
}

impl History for CommHistory {
    fn n(&self) -> usize {
        self.n
    }

    fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    fn round_sets(&self, r: Round) -> &RoundSets {
        &self.rounds[r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// `RoundSets::from_matrices` as it stood before the sender-major
    /// walk — two `insert`s per cell, column by column — verbatim but
    /// for the name: the oracle for every set.
    fn oracle_from_matrices<M: Eq>(
        intended: &MessageMatrix<M>,
        delivered: &MessageMatrix<M>,
    ) -> RoundSets {
        assert_eq!(
            intended.universe(),
            delivered.universe(),
            "intended and delivered matrices must share a universe"
        );
        let n = intended.universe();
        let mut ho = Vec::with_capacity(n);
        let mut sho = Vec::with_capacity(n);
        for r in 0..n {
            let receiver = ProcessId::new(r as u32);
            let mut ho_p = ProcessSet::empty(n);
            let mut sho_p = ProcessSet::empty(n);
            for s in 0..n {
                let sender = ProcessId::new(s as u32);
                if let Some(got) = delivered.get(sender, receiver) {
                    ho_p.insert(sender);
                    if intended.get(sender, receiver) == Some(got) {
                        sho_p.insert(sender);
                    }
                }
            }
            ho.push(ho_p);
            sho.push(sho_p);
        }
        RoundSets { n, ho, sho }
    }

    /// A partial intended matrix and a delivered one that keeps, drops,
    /// corrupts or — where nothing was sent — invents each cell.
    fn random_round(n: usize, rng: &mut StdRng) -> (MessageMatrix<u64>, MessageMatrix<u64>) {
        let intended = MessageMatrix::from_fn(n, |s, r| {
            (rng.gen_range(0..8u32) != 0).then_some((s.index() * 131 + r.index()) as u64)
        });
        let delivered = MessageMatrix::from_fn(n, |s, r| {
            match (rng.gen_range(0..4u32), intended.get(s, r)) {
                (0, sent) => sent.copied(),
                (1, _) => None,
                (2, Some(v)) => Some(v ^ 1),
                (_, sent) => Some(sent.map_or(7, |v| *v)),
            }
        });
        (intended, delivered)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Every set, for system sizes on both sides of the inline word.
        #[test]
        fn word_parallel_sets_equal_the_oracle(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for n in [1usize, 2, 16, 63, 64, 65, 130] {
                let (intended, delivered) = random_round(n, &mut rng);
                prop_assert_eq!(
                    RoundSets::from_matrices(&intended, &delivered),
                    oracle_from_matrices(&intended, &delivered),
                    "n = {}", n
                );
            }
        }
    }

    #[test]
    fn empty_system_has_no_sets() {
        let m: MessageMatrix<u64> = MessageMatrix::empty(0);
        assert_eq!(
            RoundSets::from_matrices(&m, &m),
            oracle_from_matrices(&m, &m)
        );
    }

    fn uniform_matrix(n: usize, v: u64) -> MessageMatrix<u64> {
        MessageMatrix::from_fn(n, |_, _| Some(v))
    }

    #[test]
    fn benign_round_sets() {
        let m = uniform_matrix(3, 1);
        let sets = RoundSets::from_matrices(&m, &m);
        assert!(sets.is_benign());
        for p in 0..3 {
            assert!(sets.ho(pid(p)).is_full());
            assert!(sets.sho(pid(p)).is_full());
            assert_eq!(sets.aho_len(pid(p)), 0);
        }
        assert!(sets.kernel().is_full());
        assert!(sets.safe_kernel().is_full());
        assert!(sets.altered_span().is_empty());
        assert_eq!(sets.total_corruptions(), 0);
        assert_eq!(sets.max_aho(), 0);
    }

    #[test]
    fn corruption_and_drop_derivation() {
        let intended = uniform_matrix(3, 1);
        let mut delivered = intended.clone();
        delivered.mutate_cell(pid(0), pid(1), |_| 9);
        delivered.clear(pid(2), pid(1));
        let sets = RoundSets::from_matrices(&intended, &delivered);

        assert_eq!(sets.ho(pid(1)), &ProcessSet::from_indices(3, [0, 1]));
        assert_eq!(sets.sho(pid(1)), &ProcessSet::from_indices(3, [1]));
        assert_eq!(sets.aho(pid(1)), ProcessSet::from_indices(3, [0]));
        assert_eq!(sets.aho_len(pid(1)), 1);
        // p0 and p2 are unaffected.
        assert!(sets.ho(pid(0)).is_full());
        assert_eq!(sets.aho_len(pid(0)), 0);
        assert_eq!(sets.max_aho(), 1);
        assert_eq!(sets.total_corruptions(), 1);
        assert!(!sets.is_benign());
    }

    #[test]
    fn kernel_excludes_unheard_senders() {
        let intended = uniform_matrix(3, 1);
        let mut delivered = intended.clone();
        delivered.clear(pid(0), pid(2)); // p2 does not hear p0
        let sets = RoundSets::from_matrices(&intended, &delivered);
        assert_eq!(sets.kernel(), ProcessSet::from_indices(3, [1, 2]));
        assert_eq!(sets.safe_kernel(), ProcessSet::from_indices(3, [1, 2]));
    }

    #[test]
    fn altered_span_unions_over_receivers() {
        let intended = uniform_matrix(4, 1);
        let mut delivered = intended.clone();
        delivered.mutate_cell(pid(0), pid(1), |_| 7);
        delivered.mutate_cell(pid(3), pid(2), |_| 7);
        let sets = RoundSets::from_matrices(&intended, &delivered);
        assert_eq!(sets.altered_span(), ProcessSet::from_indices(4, [0, 3]));
    }

    #[test]
    fn sho_always_subset_of_ho() {
        let intended = uniform_matrix(4, 2);
        let mut delivered = intended.clone();
        delivered.mutate_cell(pid(1), pid(0), |_| 5);
        delivered.clear(pid(2), pid(0));
        let sets = RoundSets::from_matrices(&intended, &delivered);
        for p in 0..4 {
            assert!(sets.sho(pid(p)).is_subset(sets.ho(pid(p))));
        }
    }

    #[test]
    fn from_sets_validates_subset() {
        let ho = vec![ProcessSet::from_indices(2, [0, 1]), ProcessSet::full(2)];
        let sho = vec![ProcessSet::from_indices(2, [0]), ProcessSet::full(2)];
        let sets = RoundSets::from_sets(ho, sho);
        assert_eq!(sets.aho_len(pid(0)), 1);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn from_sets_rejects_non_subset() {
        let ho = vec![ProcessSet::empty(1)];
        let sho = vec![ProcessSet::full(1)];
        let _ = RoundSets::from_sets(ho, sho);
    }

    #[test]
    fn history_cumulative_sets() {
        let n = 3;
        let intended = uniform_matrix(n, 1);
        // Round 1: p1's message to p0 corrupted.
        let mut d1 = intended.clone();
        d1.mutate_cell(pid(1), pid(0), |_| 9);
        // Round 2: p2 unheard by p1.
        let mut d2 = intended.clone();
        d2.clear(pid(2), pid(1));

        let mut h = CommHistory::new(n);
        h.push(RoundSets::from_matrices(&intended, &d1));
        h.push(RoundSets::from_matrices(&intended, &d2));

        assert_eq!(h.num_rounds(), 2);
        // K: everyone heard everyone except p2 missing in round 2.
        assert_eq!(h.kernel(), ProcessSet::from_indices(n, [0, 1]));
        // SK additionally excludes p1 (corrupted in round 1).
        assert_eq!(h.safe_kernel(), ProcessSet::from_indices(n, [0]));
        assert_eq!(h.altered_span(), ProcessSet::from_indices(n, [1]));
    }

    #[test]
    fn history_round_access() {
        let m = uniform_matrix(2, 1);
        let mut h = CommHistory::new(2);
        h.push(RoundSets::from_matrices(&m, &m));
        let sets = h.round_sets(Round::FIRST);
        assert!(sets.is_benign());
        let rounds: Vec<_> = h.iter().map(|(r, _)| r.get()).collect();
        assert_eq!(rounds, vec![1]);
    }
}
