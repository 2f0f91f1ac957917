//! # heardof-predicates
//!
//! Communication predicates over Heard-Of collections — the language in
//! which *Tolerating Corrupted Communication* (PODC 2007) states every
//! assumption about synchrony and faults.
//!
//! A predicate ranges over the collections `(HO(p, r); SHO(p, r))`.
//! Predicates over the `SHO` sets characterize communication **safety**
//! (how much corruption), predicates over the `HO` sets alone
//! characterize **liveness** (how much loss). This crate provides:
//!
//! * safety: [`PAlpha`] (`P_α`), [`PPermAlpha`] (`P_α^perm`),
//!   [`PBenign`], [`MinSho`] (the `P^{U,safe}` cardinality bound),
//! * liveness: [`ALive`] (`P^{A,live}`, Figure 1), [`ULive`]
//!   (`P^{U,live}`, Figure 2),
//! * Byzantine emulation (§5.2): [`SyncByzantine`], [`AsyncByzantine`],
//! * combinators: [`All`], [`Not`].
//!
//! Everything evaluates on any [`heardof_model::History`] — a recorded
//! [`heardof_model::CommHistory`] or a full run trace — and produces a
//! [`PredicateReport`] locating the first violations.
//!
//! # Examples
//!
//! ```
//! use heardof_model::{CommHistory, MessageMatrix, ProcessId, RoundSets};
//! use heardof_predicates::{CommPredicate, PAlpha};
//!
//! let intended = MessageMatrix::from_fn(4, |_, _| Some(1u64));
//! let mut delivered = intended.clone();
//! delivered.mutate_cell(ProcessId::new(2), ProcessId::new(0), |_| 7);
//! let mut history = CommHistory::new(4);
//! history.push(RoundSets::from_matrices(&intended, &delivered));
//!
//! assert!(PAlpha::new(1).holds(&history));
//! let report = PAlpha::new(0).check(&history);
//! assert!(!report.holds);
//! println!("{report}"); // P_α(α=0): violated (1 violation), first: [r1, p0] …
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod byzantine;
mod combinators;
mod liveness;
mod report;
mod safety;

pub use byzantine::{AsyncByzantine, SyncByzantine};
pub use combinators::{All, Not};
pub use liveness::{ALive, ULive};
pub use report::{CommPredicate, PredicateReport, PredicateViolation};
pub use safety::{MinSho, PAlpha, PBenign, PPermAlpha};
