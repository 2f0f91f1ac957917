//! # heardof-analysis
//!
//! The experiment toolkit for the `heardof` workspace:
//!
//! * [`Scenario`] — named, seeded, replayable experiments combining an
//!   algorithm, an adversary family and per-trace predicate checks,
//! * [`Summary`] / [`Table`] — statistics and report rendering,
//! * parameter→predicate glue ([`ate_live`], [`ute_machine_predicate`],
//!   …) converting quarter-valued thresholds into the exact count-based
//!   predicates of Figures 1–2,
//! * [`WitnessSearch`] — an exhaustive bounded adversary search over
//!   `A_{T,E}` that *finds concrete violations* when the paper's
//!   conditions are weakened, and verifies their absence (within the
//!   family and horizon) when they hold; [`UteWitnessSearch`] does the
//!   same for `U_{T,E,α}` and its `P^{U,safe}` floor. Both return a
//!   [`SearchOutcome`] and run on `heardof-mc`'s explicit-state
//!   [`Explorer`](heardof_mc::Explorer), the one search the model
//!   checker uses too.
//!
//! # Examples
//!
//! Tightness of `E ≥ n/2 + α` as an executable fact:
//!
//! ```
//! use heardof_analysis::WitnessSearch;
//! use heardof_core::{AteParams, Threshold};
//!
//! // Valid parameters: nothing to find.
//! let ok = WitnessSearch::new(AteParams::balanced(4, 0)?, 3)
//!     .run(&[false, false, true, true]);
//! assert!(!ok.found_violation());
//!
//! // E one notch too small: a witness exists.
//! let bad = AteParams::unchecked(4, 1, Threshold::integer(2), Threshold::integer(2));
//! assert!(WitnessSearch::new(bad, 2).run(&[false, false, true, true]).found_violation());
//! # Ok::<(), heardof_core::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod glue;
mod replay;
mod scenario;
mod stats;
mod table;
mod witness;
mod witness_u;

pub use glue::{
    ate_live, ate_machine_predicate, ate_p_alpha, ute_live, ute_machine_predicate, ute_p_alpha,
    ute_safe,
};
pub use replay::{replay_witness, WitnessAdversary};
pub use scenario::{Scenario, ScenarioResult};
pub use stats::Summary;
pub use table::Table;
pub use witness::{ReceiverChoice, SearchOutcome, Witness, WitnessSearch};
pub use witness_u::{UChoice, UteWitnessSearch};
