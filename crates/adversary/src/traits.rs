//! The adversary interface.
//!
//! In the HO model with value faults, *the environment* decides what each
//! process receives. An [`Adversary`] is exactly that environment: a
//! (possibly randomized, possibly stateful) function from the round's
//! intended message matrix to the delivered one. Dropping a cell is an
//! omission (benign fault); changing its contents is a value fault.
//!
//! Adversaries never touch process state — there are no faulty processes
//! in this model, only faulty transmissions.

use heardof_model::{MessageMatrix, Round};
use rand::rngs::StdRng;

/// An environment that turns intended message matrices into delivered
/// ones.
///
/// Implementations receive the engine's seeded RNG so runs stay
/// reproducible end-to-end.
pub trait Adversary<M>: Send {
    /// A short human-readable strategy name (used in reports).
    fn name(&self) -> String;

    /// Rewrites `out` into the delivered matrix for `round`. On entry
    /// `out` holds a copy of `intended`, so an adversary edits only the
    /// cells it faults; one that builds its output from scratch must
    /// overwrite every cell.
    ///
    /// Cells may be dropped (omission) or replaced (value fault); cells
    /// must not be *added* where the intended matrix has none — the
    /// sending functions are total, so that situation cannot arise.
    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    );

    /// The most receptions per receiver per round this adversary ever
    /// corrupts, when that holds by construction; `None` when it makes
    /// no such promise.
    ///
    /// This is a declared invariant of the implementation, not a
    /// setting: [`crate::Budgeted`] skips its clamp when the bound is
    /// within its budget, so a bound that does not hold breaks `P_α`.
    fn corruption_bound(&self) -> Option<u32> {
        None
    }

    /// The delivered matrix for `round` as a fresh matrix: a copy of
    /// `intended` rewritten by [`Adversary::deliver_into`].
    fn deliver(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        rng: &mut StdRng,
    ) -> MessageMatrix<M>
    where
        M: Clone,
    {
        let mut out = intended.clone();
        self.deliver_into(round, intended, &mut out, rng);
        out
    }
}

/// The identity adversary: perfect communication every round.
///
/// # Examples
///
/// ```
/// use heardof_adversary::{Adversary, NoFaults};
/// use heardof_model::{MessageMatrix, Round, RoundSets};
/// use rand::SeedableRng;
///
/// let mut adv = NoFaults;
/// let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let delivered = adv.deliver(Round::FIRST, &intended, &mut rng);
/// assert!(RoundSets::from_matrices(&intended, &delivered).is_benign());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl<M: Clone + Send> Adversary<M> for NoFaults {
    fn name(&self) -> String {
        "no-faults".to_string()
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        _intended: &MessageMatrix<M>,
        _out: &mut MessageMatrix<M>,
        _rng: &mut StdRng,
    ) {
    }

    fn corruption_bound(&self) -> Option<u32> {
        Some(0)
    }
}

/// Boxed adversaries compose like any other.
impl<M> Adversary<M> for Box<dyn Adversary<M>> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        (**self).deliver_into(round, intended, out, rng)
    }

    fn corruption_bound(&self) -> Option<u32> {
        (**self).corruption_bound()
    }
}

/// Applies `first`, then feeds its output to `second` as if it were the
/// intended matrix — e.g. corruption stacked on top of omissions.
///
/// Note that budget enforcement (see [`crate::Budgeted`]) always counts
/// corruption against the *original* intended matrix, so wrap the whole
/// sequence, not the parts.
#[derive(Clone, Debug)]
pub struct Seq<A, B, M> {
    first: A,
    second: B,
    /// `first`'s output, which `second` reads as its intended matrix;
    /// one buffer for the chain's lifetime.
    mid: MessageMatrix<M>,
}

impl<A, B, M> Seq<A, B, M> {
    /// Chains two adversaries.
    pub fn new(first: A, second: B) -> Self {
        Seq {
            first,
            second,
            mid: MessageMatrix::empty(0),
        }
    }
}

impl<M, A, B> Adversary<M> for Seq<A, B, M>
where
    M: Clone + Send,
    A: Adversary<M>,
    B: Adversary<M>,
{
    fn name(&self) -> String {
        format!("{}+{}", self.first.name(), self.second.name())
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        self.first.deliver_into(round, intended, out, rng);
        self.mid.clone_from(out);
        self.second.deliver_into(round, &self.mid, out, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_model::ProcessId;
    use rand::SeedableRng;

    #[derive(Clone)]
    struct DropAll;

    impl Adversary<u64> for DropAll {
        fn name(&self) -> String {
            "drop-all".into()
        }

        fn deliver_into(
            &mut self,
            _round: Round,
            _intended: &MessageMatrix<u64>,
            out: &mut MessageMatrix<u64>,
            _rng: &mut StdRng,
        ) {
            out.refill(|_, _| None);
        }
    }

    #[test]
    fn no_faults_is_identity() {
        let mut adv = NoFaults;
        let intended = MessageMatrix::from_fn(2, |s, _| Some(s.index() as u64));
        let mut rng = StdRng::seed_from_u64(0);
        let d = adv.deliver(Round::FIRST, &intended, &mut rng);
        assert_eq!(d, intended);
    }

    #[test]
    fn boxed_adversary_dispatches() {
        let mut adv: Box<dyn Adversary<u64>> = Box::new(DropAll);
        assert_eq!(adv.name(), "drop-all");
        let intended = MessageMatrix::from_fn(2, |_, _| Some(1u64));
        let mut rng = StdRng::seed_from_u64(0);
        let d = adv.deliver(Round::FIRST, &intended, &mut rng);
        assert_eq!(d.message_count(), 0);
    }

    #[test]
    fn seq_applies_in_order() {
        let mut adv = Seq::new(NoFaults, DropAll);
        let intended = MessageMatrix::from_fn(2, |_, _| Some(1u64));
        let mut rng = StdRng::seed_from_u64(0);
        let d = adv.deliver(Round::FIRST, &intended, &mut rng);
        assert_eq!(d.message_count(), 0);
        assert_eq!(adv.name(), "no-faults+drop-all");
        let _ = intended.get(ProcessId::new(0), ProcessId::new(1));
    }
}
