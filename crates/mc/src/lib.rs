//! # heardof-mc
//!
//! In-tree, dependency-free exhaustive model checker for the adaptive
//! controller + rung gossip machine of `heardof-coding` — the
//! Stateright-style harness the ROADMAP asks for, specialized to this
//! state machine so it needs nothing the workspace does not already
//! have.
//!
//! The checker explores the **product machine** of `n` controllers
//! whose transition is the *same pure function* the production
//! substrates execute ([`heardof_coding::step`] — there is no second
//! implementation to drift), under an adversary that chooses per round
//! and per directed link: clean delivery, detected omission (= drop),
//! advert muting, or any parity-valid in-ladder `(rung, epoch)`
//! forgery (budgeted at one forged byte per receiver per round — the
//! threat model the gossip quorum is documented against). Per-receiver
//! observation enumeration plus successor-level dedup keeps the
//! product exact and tractable; breadth-first search with parent
//! pointers yields shortest counterexamples that serialize into
//! replayable [`heardof_coding::FaultScript`]s.
//!
//! Three predicates:
//!
//! 1. **Reconvergence** ([`Predicate::Reconverge`]) — from every
//!    reachable divergent configuration, an all-calm suffix returns
//!    every controller to rung 0 within a bound: no permanent split.
//! 2. **Pin is calm-only** ([`Predicate::PinCalmOnly`]) — the only way
//!    off the last-resort rung is a self-decided calm release; no
//!    gossip exit exists.
//! 3. **Epoch order** ([`Predicate::EpochOrder`]) — the 4-bit serial
//!    epoch comparison never cycles: no gossip-driven move returns a
//!    controller to a `(rung, epoch)` pair held since its last fresh
//!    rung decision.
//!
//! The search itself is the workspace's one explicit-state explorer:
//! [`Explorer`] (node arena with parent pointers, value dedup, FIFO
//! frontier, exact state cap, [`Explorer::path`]) plus [`odometer`]
//! over per-receiver choice lists. [`explore`] and [`explore_single`]
//! are thin callers of it, and so are `heardof-analysis`'s witness
//! searches over `A_{T,E}` and `U_{T,E,α}` — it stays std-only, so
//! the crate remains dependency-free beyond the crate under test.
//!
//! The [`sweep`] module maps the safe `(quorum, join_rounds, dwell)`
//! region and derives the defaults that
//! [`heardof_coding::DERIVED_GOSSIP_QUORUM`] and
//! [`heardof_coding::DERIVED_GOSSIP_JOIN_ROUNDS`] pin; CI gates the
//! constants against drift from the sweep.
//!
//! # Quickstart
//!
//! ```
//! use heardof_coding::AdaptiveConfig;
//! use heardof_mc::{explore, McConfig};
//!
//! let cfg = AdaptiveConfig::standard(3, 1).with_gossip();
//! let mut mc = McConfig::new(cfg, 3);
//! mc.horizon = 1; // doc-sized; tests push much deeper
//! let report = explore(&mc);
//! assert!(report.green());
//! // The state cap did not cut the search: every state within the
//! // horizon was visited. (`complete` also needs the frontier to drain
//! // before the horizon, which a one-round bound never sees.)
//! assert!(report.states < mc.max_states);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod explore;
mod explorer;
mod model;
pub mod sweep;

pub use explore::{explore, explore_single, ExploreReport};
pub use explorer::{odometer, Explorer, NodeId};
pub use model::{
    action_fault, pack_node, pair_bit, receiver_successors, replay_check, replay_script, step_node,
    true_advert, unpack_node, Counterexample, CtlNode, JointAction, Key, LocalSucc, McConfig,
    Predicate, ACT_DELIVER, ACT_FORGE_BASE, ACT_MUTE, ACT_OMIT, CTL_BYTES, EPOCHS, MAX_N,
};
pub use sweep::{derived_defaults, drift, onset_whipsaw, sweep as sweep_points, SweepPoint};
