//! Structural enforcement of the safety predicate `P_α`.
//!
//! `P_α :: ∀r > 0, ∀p ∈ Π : |AHO(p, r)| ≤ α` — at most `α` corrupted
//! receptions per process per round. [`Budgeted`] wraps any adversary
//! and *clamps* its output to the budget, so experiments can assert the
//! predicate holds by construction rather than by luck. Omissions are
//! never clamped: `P_α` says nothing about message loss.

use crate::traits::Adversary;
use heardof_model::{MessageMatrix, ProcessId, Round};
use rand::rngs::StdRng;

/// Restores over-budget corruptions in `delivered` back to their
/// intended contents, keeping at most `alpha` corrupted receptions per
/// receiver (earlier sender ids win).
///
/// A first walk reads the matrices' row slices in their sender-major
/// memory order and counts each receiver's corruptions without a branch
/// on the cells; a round within budget ends there. Otherwise a second
/// walk over the same slices restores in place, sender-major again with
/// one counter per receiver, so each receiver still meets its senders in
/// id order and the cells restored are the ones a receiver-by-receiver
/// walk restores.
///
/// Returns the number of cells restored.
pub fn clamp_to_alpha<M: Clone + Eq>(
    intended: &MessageMatrix<M>,
    delivered: &mut MessageMatrix<M>,
    alpha: u32,
) -> usize {
    let n = intended.universe();
    let mut inline = [0u32; 64];
    let mut spill = Vec::new();
    let corrupted: &mut [u32] = if n <= inline.len() {
        &mut inline[..n]
    } else {
        spill.resize(n, 0);
        &mut spill
    };
    // Corrupted: a value fault, or a message materializing out of
    // nowhere (it certainly was not sent safely).
    let corrupt = |got: &Option<M>, want: &Option<M>| got.is_some() & (got != want);
    for s in 0..n {
        let sender = ProcessId::new(s as u32);
        let (got_row, want_row) = (delivered.row_cells(sender), intended.row_cells(sender));
        for ((got, want), count) in got_row.iter().zip(want_row).zip(corrupted.iter_mut()) {
            *count += u32::from(corrupt(got, want));
        }
    }
    if corrupted.iter().all(|&count| count <= alpha) {
        return 0;
    }
    corrupted.fill(0);
    let mut restored = 0;
    for s in 0..n {
        let sender = ProcessId::new(s as u32);
        let (got_row, want_row) = (delivered.row_cells_mut(sender), intended.row_cells(sender));
        for ((got, want), count) in got_row.iter_mut().zip(want_row).zip(corrupted.iter_mut()) {
            if corrupt(got, want) {
                *count += 1;
                if *count > alpha {
                    got.clone_from(want);
                    restored += 1;
                }
            }
        }
    }
    restored
}

/// Wraps an adversary so its output always satisfies `P_α`.
///
/// # Examples
///
/// ```
/// use heardof_adversary::{Adversary, Budgeted, SantoroWidmayerBlock};
/// use heardof_model::{MessageMatrix, Round, RoundSets};
/// use rand::SeedableRng;
///
/// // The block adversary corrupts a whole sender "block"; budgeted at
/// // α = 1 it is still allowed to (block faults hit each receiver once).
/// let mut adv = Budgeted::new(SantoroWidmayerBlock::all_receivers(), 1);
/// let intended = MessageMatrix::from_fn(4, |_, _| Some(5u64));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let delivered = adv.deliver(Round::FIRST, &intended, &mut rng);
/// let sets = RoundSets::from_matrices(&intended, &delivered);
/// assert!(sets.max_aho() <= 1);
/// ```
#[derive(Clone, Debug)]
pub struct Budgeted<A> {
    inner: A,
    alpha: u32,
}

impl<A> Budgeted<A> {
    /// Budgets `inner` at `alpha` corruptions per receiver per round.
    pub fn new(inner: A, alpha: u32) -> Self {
        Budgeted { inner, alpha }
    }

    /// The enforced budget `α`.
    pub fn alpha(&self) -> u32 {
        self.alpha
    }

    /// Unwraps the inner adversary.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<M, A> Adversary<M> for Budgeted<A>
where
    M: Clone + Eq + Send,
    A: Adversary<M>,
{
    fn name(&self) -> String {
        format!("{}⊓α={}", self.inner.name(), self.alpha)
    }

    fn deliver(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        rng: &mut StdRng,
    ) -> MessageMatrix<M> {
        let mut delivered = self.inner.deliver(round, intended, rng);
        clamp_to_alpha(intended, &mut delivered, self.alpha);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::NoFaults;
    use heardof_model::RoundSets;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// `clamp_to_alpha` as it stood before the sender-major walk — one
    /// receiver column at a time — verbatim but for the name: the oracle
    /// for the restored count and the resulting matrix.
    fn oracle_clamp_to_alpha<M: Clone + Eq>(
        intended: &MessageMatrix<M>,
        delivered: &mut MessageMatrix<M>,
        alpha: u32,
    ) -> usize {
        let n = intended.universe();
        let mut restored = 0;
        for r in 0..n {
            let receiver = ProcessId::new(r as u32);
            let mut corrupted = 0u32;
            for s in 0..n {
                let sender = ProcessId::new(s as u32);
                let got = delivered.get(sender, receiver);
                let want = intended.get(sender, receiver);
                let is_corrupt = match (got, want) {
                    (Some(g), Some(w)) => g != w,
                    // A message materializing out of nowhere also counts as a
                    // corrupted reception (it certainly was not sent safely).
                    (Some(_), None) => true,
                    _ => false,
                };
                if is_corrupt {
                    corrupted += 1;
                    if corrupted > alpha {
                        match want {
                            Some(w) => {
                                let w = w.clone();
                                delivered.set(sender, receiver, w);
                            }
                            None => {
                                delivered.clear(sender, receiver);
                            }
                        }
                        restored += 1;
                    }
                }
            }
        }
        restored
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Same restored count, same matrix, for system sizes on both
        /// sides of the inline counters and budgets from none to all.
        #[test]
        fn sender_major_clamp_equals_the_oracle(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for n in [1usize, 2, 16, 63, 64, 65, 130] {
                // A partial intended matrix; each delivered cell is kept,
                // dropped, corrupted or — where nothing was sent — invented.
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
                for alpha in [0, 1, 3, n as u32] {
                    let (mut new, mut old) = (delivered.clone(), delivered.clone());
                    let restored = clamp_to_alpha(&intended, &mut new, alpha);
                    prop_assert_eq!(
                        restored,
                        oracle_clamp_to_alpha(&intended, &mut old, alpha),
                        "n = {}, α = {}", n, alpha
                    );
                    prop_assert_eq!(&new, &old, "n = {}, α = {}", n, alpha);
                }
            }
        }
    }

    struct CorruptEverything;

    impl Adversary<u64> for CorruptEverything {
        fn name(&self) -> String {
            "corrupt-everything".into()
        }

        fn deliver(
            &mut self,
            _round: Round,
            intended: &MessageMatrix<u64>,
            _rng: &mut StdRng,
        ) -> MessageMatrix<u64> {
            let n = intended.universe();
            MessageMatrix::from_fn(n, |s, r| intended.get(s, r).map(|v| v + 1000))
        }
    }

    #[test]
    fn clamp_restores_over_budget_cells() {
        let intended = MessageMatrix::from_fn(4, |_, _| Some(1u64));
        let mut adv = Budgeted::new(CorruptEverything, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let delivered = adv.deliver(Round::FIRST, &intended, &mut rng);
        let sets = RoundSets::from_matrices(&intended, &delivered);
        for p in 0..4 {
            assert_eq!(sets.aho_len(ProcessId::new(p)), 2);
        }
        assert_eq!(sets.total_corruptions(), 8);
    }

    #[test]
    fn clamp_zero_alpha_restores_all() {
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut adv = Budgeted::new(CorruptEverything, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let delivered = adv.deliver(Round::FIRST, &intended, &mut rng);
        assert_eq!(delivered, intended);
    }

    #[test]
    fn clamp_leaves_omissions_alone() {
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut delivered = MessageMatrix::empty(3);
        // Nothing delivered at all: zero corruptions, pure omissions.
        let restored = clamp_to_alpha(&intended, &mut delivered, 0);
        assert_eq!(restored, 0);
        assert_eq!(delivered.message_count(), 0);
    }

    #[test]
    fn clamp_removes_spurious_messages() {
        let intended: MessageMatrix<u64> = MessageMatrix::empty(2);
        let mut delivered = MessageMatrix::from_fn(2, |_, _| Some(9u64));
        let restored = clamp_to_alpha(&intended, &mut delivered, 0);
        assert_eq!(restored, 4);
        assert_eq!(delivered.message_count(), 0);
    }

    #[test]
    fn budgeted_no_faults_is_still_identity() {
        let intended = MessageMatrix::from_fn(3, |s, _| Some(s.index() as u64));
        let mut adv = Budgeted::new(NoFaults, 1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(adv.deliver(Round::FIRST, &intended, &mut rng), intended);
        assert_eq!(adv.alpha(), 1);
    }
}
