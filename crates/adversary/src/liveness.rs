//! Liveness schedules: making the existential predicates true.
//!
//! The termination predicates of the paper are *eventual*: `P^{A,live}`
//! (Figure 1) demands, among recurring reception guarantees, some round
//! where a large set `Π¹` of processes all hear exactly the same large,
//! uncorrupted set `Π²`; `P^{U,live}` (Figure 2) demands a three-round
//! window aligned to a phase: a uniform safe round `2φ₀` followed by two
//! rounds of sufficient safe reception.
//!
//! A [`GoodRounds`] schedule decides at which rounds the wrapped
//! adversary is suspended and communication is perfect — the simplest
//! (and strongest) way to realize those existentials. Because the
//! predicates only require *sporadic* good rounds, everything outside
//! the schedule remains fully adversarial. This is exactly the sense in
//! which the algorithms live with *transient* faults.

use crate::traits::Adversary;
use heardof_model::{MessageMatrix, Round};
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// A set of rounds at which communication is forced to be perfect.
#[derive(Clone, Debug)]
pub enum GoodRounds {
    /// No good rounds (pure adversary — liveness not guaranteed).
    Never,
    /// Every round divisible by `period` is good.
    Every {
        /// The period `k`: rounds `k, 2k, 3k, …` are good.
        period: u64,
    },
    /// Three-round windows `{2φ₀, 2φ₀+1, 2φ₀+2}` for every phase-aligned
    /// `2φ₀` divisible by `period` — the `P^{U,live}` shape.
    PhaseWindowEvery {
        /// The period; forced even so windows start at even rounds `2φ₀`.
        period: u64,
    },
    /// An explicit set of good rounds.
    At(BTreeSet<u64>),
}

impl GoodRounds {
    /// Good rounds at every multiple of `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn every(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        GoodRounds::Every { period }
    }

    /// `P^{U,live}`-shaped windows every `period` rounds (rounded up to
    /// even so each window starts at a round `2φ₀`).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn phase_window_every(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        let period = if period % 2 == 1 { period + 1 } else { period };
        GoodRounds::PhaseWindowEvery { period }
    }

    /// Good rounds given explicitly.
    pub fn at<I: IntoIterator<Item = u64>>(rounds: I) -> Self {
        GoodRounds::At(rounds.into_iter().collect())
    }

    /// A single `P^{U,live}` window starting at round `2φ₀ = start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is odd (the window must start at a round `2φ₀`).
    pub fn u_window_at(start: u64) -> Self {
        assert!(
            start.is_multiple_of(2),
            "a U-window must start at an even round"
        );
        GoodRounds::at([start, start + 1, start + 2])
    }

    /// `true` if `round` is scheduled to be good.
    fn is_good(&self, round: Round) -> bool {
        let r = round.get();
        match self {
            GoodRounds::Never => false,
            GoodRounds::Every { period } => r.is_multiple_of(*period),
            GoodRounds::PhaseWindowEvery { period } => {
                let base = r - (r % period);
                base > 0 && r < base + 3 || r.is_multiple_of(*period)
            }
            GoodRounds::At(set) => set.contains(&r),
        }
    }
}

/// Suspends an adversary during scheduled good rounds, delivering the
/// intended matrix untouched (`HO(p) = SHO(p) = Π` for every `p`).
///
/// # Examples
///
/// ```
/// use heardof_adversary::{Adversary, GoodRounds, StaticByzantine, WithSchedule};
/// use heardof_model::{MessageMatrix, Round};
/// use rand::SeedableRng;
///
/// let mut adv = WithSchedule::new(StaticByzantine::first(4, 2), GoodRounds::every(3));
/// let intended = MessageMatrix::from_fn(4, |_, _| Some(1u64));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let d2 = adv.deliver(Round::new(2), &intended, &mut rng);
/// assert!(d2.corruption_count(&intended) > 0);  // adversarial round
/// let d3 = adv.deliver(Round::new(3), &intended, &mut rng);
/// assert_eq!(d3, intended);                     // good round
/// ```
#[derive(Clone, Debug)]
pub struct WithSchedule<A> {
    inner: A,
    schedule: GoodRounds,
}

impl<A> WithSchedule<A> {
    /// Wraps `inner` with a good-round schedule.
    pub fn new(inner: A, schedule: GoodRounds) -> Self {
        WithSchedule { inner, schedule }
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &GoodRounds {
        &self.schedule
    }
}

impl<M, A> Adversary<M> for WithSchedule<A>
where
    M: Clone + Send,
    A: Adversary<M>,
{
    fn name(&self) -> String {
        format!("{}∣good-rounds", self.inner.name())
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        if !self.schedule.is_good(round) {
            self.inner.deliver_into(round, intended, out, rng);
        }
    }

    fn corruption_bound(&self) -> Option<u32> {
        self.inner.corruption_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::StaticByzantine;
    use rand::SeedableRng;

    #[test]
    fn every_schedule() {
        let s = GoodRounds::every(5);
        assert!(!s.is_good(Round::new(4)));
        assert!(s.is_good(Round::new(5)));
        assert!(s.is_good(Round::new(10)));
    }

    #[test]
    fn never_schedule() {
        let s = GoodRounds::Never;
        for r in 1..100 {
            assert!(!s.is_good(Round::new(r)));
        }
    }

    #[test]
    fn phase_window_schedule_starts_even() {
        let s = GoodRounds::phase_window_every(5); // rounded to 6
                                                   // Windows at {6,7,8}, {12,13,14}, …
        for r in [6, 7, 8, 12, 13, 14] {
            assert!(s.is_good(Round::new(r)), "round {r}");
        }
        for r in [1, 2, 5, 9, 10, 11, 15] {
            assert!(!s.is_good(Round::new(r)), "round {r}");
        }
    }

    #[test]
    fn explicit_schedule() {
        let s = GoodRounds::at([3, 9]);
        assert!(s.is_good(Round::new(3)));
        assert!(!s.is_good(Round::new(4)));
    }

    #[test]
    fn u_window_at_even_start() {
        let s = GoodRounds::u_window_at(8);
        for r in [8, 9, 10] {
            assert!(s.is_good(Round::new(r)));
        }
        assert!(!s.is_good(Round::new(7)));
        assert!(!s.is_good(Round::new(11)));
    }

    #[test]
    #[should_panic(expected = "even round")]
    fn u_window_rejects_odd_start() {
        let _ = GoodRounds::u_window_at(7);
    }

    #[test]
    fn schedule_suspends_adversary() {
        let mut adv = WithSchedule::new(StaticByzantine::first(3, 3), GoodRounds::every(2));
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut rng = StdRng::seed_from_u64(0);
        let d1 = adv.deliver(Round::new(1), &intended, &mut rng);
        assert!(d1.corruption_count(&intended) > 0);
        let d2 = adv.deliver(Round::new(2), &intended, &mut rng);
        assert_eq!(d2, intended);
    }
}
