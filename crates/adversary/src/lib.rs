//! # heardof-adversary
//!
//! Transmission-fault adversaries for the Heard-Of model with value
//! faults. An adversary rewrites each round's intended message matrix
//! into the delivered one — dropping cells (omissions) or replacing
//! contents (value faults) — while process state is never touched.
//!
//! * [`Adversary`] — the environment interface; [`NoFaults`], [`Seq`].
//! * [`Budgeted`] — clamps any strategy to the safety predicate `P_α`
//!   *by construction*.
//! * Strategies: [`RandomCorruption`], [`BorrowedCorruption`],
//!   [`RandomOmission`], [`SantoroWidmayerBlock`], [`StaticByzantine`],
//!   [`SymmetricByzantine`], [`TransientBurst`], [`SplitBrain`].
//! * [`GoodRounds`] / [`WithSchedule`] — liveness schedules realizing
//!   the existential predicates `P^{A,live}` and `P^{U,live}`.
//!
//! The strategies here rewrite abstract messages; none of them models a
//! channel code. The coded wire is the facade's `heardof::WireChannel`,
//! an [`Adversary`] that relays the intended matrix through the
//! deployment's own round engines and faulty links under a seeded noise
//! trace, so each corrupted frame becomes whatever its decoder makes of
//! it: a correct delivery, an omission or a value fault.
//!
//! # Examples
//!
//! A `P_α`-respecting adversary with periodic good rounds:
//!
//! ```
//! use heardof_adversary::{Budgeted, GoodRounds, RandomCorruption, WithSchedule};
//!
//! let alpha = 2;
//! let adv = WithSchedule::new(
//!     Budgeted::new(RandomCorruption::new(alpha, 0.8), alpha),
//!     GoodRounds::every(10),
//! );
//! # let _ = adv;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod budget;
mod liveness;
mod strategies;
mod targeted;
mod traits;

pub use budget::{clamp_to_alpha, Budgeted};
pub use liveness::{GoodRounds, WithSchedule};
pub use strategies::{
    BorrowedCorruption, RandomCorruption, RandomOmission, SantoroWidmayerBlock, SenderOmission,
    StaticByzantine, SymmetricByzantine, TransientBurst,
};
pub use targeted::SplitBrain;
pub use traits::{Adversary, NoFaults, Seq};
