//! The trait's two entry points agree for every strategy.
//!
//! `Adversary::deliver` is a provided wrapper: a copy of the intended
//! matrix handed to the required `deliver_into`. The simulator calls
//! `deliver_into` on one matrix it keeps for the whole run, so what
//! reaches it has been dirtied by the previous round and then reset
//! with `clone_from`. Every strategy of this crate, bare, wrapped and
//! boxed, must deliver the same matrix through both and leave the RNG
//! at the same position.
//!
//! A strategy that declares a corruption bound must keep it: clamping
//! its output to that bound restores nothing.

use heardof_adversary::{
    clamp_to_alpha, Adversary, BorrowedCorruption, Budgeted, GoodRounds, NoFaults,
    RandomCorruption, RandomOmission, SantoroWidmayerBlock, SenderOmission, Seq, SplitBrain,
    StaticByzantine, SymmetricByzantine, TransientBurst, WithSchedule,
};
use heardof_model::{MessageMatrix, Round};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One of every strategy at system size `n`, each as a trait object,
/// with the corruption bound it declares.
fn every_strategy(n: usize) -> Vec<(Box<dyn Adversary<u64>>, Option<u32>)> {
    vec![
        (Box::new(NoFaults), Some(0)),
        (Box::new(RandomCorruption::new(3, 1.0)), Some(3)),
        (Box::new(RandomCorruption::new(2, 0.4)), Some(2)),
        (Box::new(BorrowedCorruption::new(2, 0.8)), Some(2)),
        (Box::new(RandomOmission::new(0.3)), Some(0)),
        (Box::new(SenderOmission::first(n, 2)), None),
        (Box::new(SantoroWidmayerBlock::all_receivers()), None),
        (Box::new(StaticByzantine::first(n, 2)), None),
        (Box::new(SymmetricByzantine::first(n, 1)), None),
        (
            Box::new(TransientBurst::new(StaticByzantine::first(n, 3), 2, 2)),
            None,
        ),
        (Box::new(SplitBrain::new(2)), None),
        (
            Box::new(WithSchedule::new(
                RandomCorruption::new(3, 1.0),
                GoodRounds::every(3),
            )),
            Some(3),
        ),
        // The inner bound within α: no clamp (a debug build checks).
        (
            Box::new(Budgeted::new(RandomCorruption::new(3, 1.0), 3)),
            Some(3),
        ),
        // The inner bound past α, or none: the clamp runs.
        (
            Box::new(Budgeted::new(RandomCorruption::new(4, 1.0), 2)),
            Some(2),
        ),
        (
            Box::new(Budgeted::new(StaticByzantine::first(n, 3), 1)),
            Some(1),
        ),
        (
            Box::new(Seq::new(
                RandomOmission::new(0.2),
                RandomCorruption::new(2, 1.0),
            )),
            None,
        ),
        (
            Box::new(Box::new(NoFaults) as Box<dyn Adversary<u64>>),
            Some(0),
        ),
    ]
}

/// A partial intended matrix over a few values: about one cell in
/// eight is unsent.
fn partial_matrix(n: usize, rng: &mut StdRng) -> MessageMatrix<u64> {
    MessageMatrix::from_fn(n, |_, _| {
        (rng.gen_range(0..8u32) != 0).then(|| rng.gen_range(0..3u64))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn deliver_equals_deliver_into_on_a_reused_matrix(seed in any::<u64>()) {
        let mut matrices = StdRng::seed_from_u64(seed);
        for n in [1usize, 16, 65] {
            let (mut by_value, mut in_place) = (every_strategy(n), every_strategy(n));
            let mut out = MessageMatrix::empty(n);
            for r in 1..=4u64 {
                let round = Round::new(r);
                let intended = partial_matrix(n, &mut matrices);
                for (k, ((a, _), (b, _))) in by_value.iter_mut().zip(&mut in_place).enumerate() {
                    let mut rng_a = StdRng::seed_from_u64(seed ^ r ^ ((k as u64) << 32));
                    let mut rng_b = rng_a.clone();
                    let delivered = a.deliver(round, &intended, &mut rng_a);
                    out.clone_from(&intended);
                    b.deliver_into(round, &intended, &mut out, &mut rng_b);
                    prop_assert_eq!(&delivered, &out, "{} at n = {}, round {}", a.name(), n, r);
                    prop_assert_eq!(
                        rng_a.next_u64(),
                        rng_b.next_u64(),
                        "{} left the RNG elsewhere at n = {}, round {}", a.name(), n, r
                    );
                }
            }
        }
    }

    /// A declared bound holds: clamping an adversary's output to its
    /// own bound restores nothing, on partial matrices on both sides of
    /// the clamp's 64-receiver block.
    #[test]
    fn a_declared_corruption_bound_needs_no_clamp(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in [1usize, 16, 65] {
            for (mut adversary, expected) in every_strategy(n) {
                let bound = adversary.corruption_bound();
                prop_assert_eq!(bound, expected, "{} declares {:?}", adversary.name(), bound);
                let Some(bound) = bound else { continue };
                for r in 1..=4u64 {
                    let intended = partial_matrix(n, &mut rng);
                    let mut out = adversary.deliver(Round::new(r), &intended, &mut rng);
                    prop_assert_eq!(
                        clamp_to_alpha(&intended, &mut out, bound),
                        0,
                        "{} corrupted past {} at n = {}, round {}", adversary.name(), bound, n, r
                    );
                }
            }
        }
    }
}
