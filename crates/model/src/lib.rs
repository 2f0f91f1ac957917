//! # heardof-model
//!
//! The Heard-Of (HO) model with **value faults**, as defined in
//! *Tolerating Corrupted Communication* (Biely, Charron-Bost, Gaillard,
//! Hutle, Schiper, Widder — PODC 2007), §2.
//!
//! Computations are structured in communication-closed rounds. In round
//! `r`, process `p` applies its sending function `S_p^r`, receives a
//! partial vector `~µ_p^r`, and applies its transition function `T_p^r`.
//! Faults are **transmission faults**: the delivered vector may differ
//! from what senders prescribed, by omission (benign) or corruption
//! (value fault). No process is ever "faulty" — there is no deviation
//! from `T_p^r`.
//!
//! This crate provides the substrate everything else builds on:
//!
//! * [`ProcessId`], [`Round`], [`Phase`] — identifiers,
//! * [`ProcessSet`] — bitset subsets of `Π`,
//! * [`ReceptionVector`] — the partial vector `~µ_p^r`,
//! * [`MessageMatrix`] — everything sent/delivered in one round,
//! * [`RoundSets`], [`CommHistory`], [`History`] — the `HO`/`SHO`/`AHO`
//!   collections and kernels that communication predicates range over,
//! * [`HoAlgorithm`] — the `S_p^r`/`T_p^r` interface,
//! * [`RunTrace`] — full recorded runs,
//! * [`check_consensus`] — the Integrity/Agreement/Termination checker.
//!
//! # Examples
//!
//! Deriving heard-of sets from one corrupted round:
//!
//! ```
//! use heardof_model::{MessageMatrix, ProcessId, RoundSets};
//!
//! let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
//! let mut delivered = intended.clone();
//! // The channel from p0 to p2 corrupts the message.
//! delivered.mutate_cell(ProcessId::new(0), ProcessId::new(2), |_| 99);
//!
//! let sets = RoundSets::from_matrices(&intended, &delivered);
//! assert_eq!(sets.aho(ProcessId::new(2)).len(), 1);
//! assert_eq!(sets.altered_span().len(), 1);
//! assert_eq!(sets.safe_kernel().len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod algorithm;
mod consensus;
mod error;
mod ids;
mod matrix;
mod set;
mod sets;
mod trace;
mod value;
mod vector;

pub use algorithm::HoAlgorithm;
pub use consensus::{check_consensus, ConsensusVerdict, Violation};
pub use error::ModelError;
pub use ids::{all_processes, Phase, ProcessId, Round};
pub use matrix::MessageMatrix;
pub use set::ProcessSet;
pub use sets::{CommHistory, History, RoundSets};
pub use trace::{RoundDetail, RoundRecord, RunTrace, TraceLevel};
pub use value::{
    smallest_most_frequent, tally, value_histogram, ConsensusValue, Corruptible, ValueBearing,
};
pub use vector::ReceptionVector;
