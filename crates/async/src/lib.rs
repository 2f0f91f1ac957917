//! # heardof-async
//!
//! The third deployment substrate: HO algorithms as **lockstep
//! processes** on one thread, exchanging coded wire frames through
//! in-memory arenas.
//!
//! Where the threaded runtime (`heardof-net`) closes a round once every
//! peer's batch of that round's frames is in, on one OS thread per
//! process, this
//! substrate runs the round as a plain loop (`heardof_net::Lockstep`):
//! every engine sends, then every engine drains its arena, then every
//! engine transitions. Every round's sends land before any receiver
//! reads, so rounds are communication-closed by construction and runs
//! are **fully deterministic** — no threads, no scheduling,
//! bit-identical replays. Everything else is shared with the other
//! substrates, by construction:
//!
//! * the per-process state machine is `heardof_engine::RoundEngine`
//!   (algorithm step, adaptive framing, tagged encode/decode),
//! * the fault model is the threaded runtime's, appending into the
//!   stepper's arenas in place — same links, same RNG streams,
//!   same seeded [`NoiseTrace`](heardof_coding::NoiseTrace) corruption,
//! * the outcome is the engine-standard `SubstrateOutcome`.
//!
//! The cross-substrate conformance harness (`heardof::conformance`) is
//! the acceptance bar this substrate was built against: on a seeded
//! trace it must replay the simulator's and the threaded runtime's
//! controller decisions and `HO`/`SHO` reconstructions round for round
//! (`tests/adaptive_conformance.rs` at the workspace root).
//!
//! # Quickstart
//!
//! ```
//! use heardof_async::{run_async, AsyncConfig};
//! use heardof_core::{Ate, AteParams};
//! use heardof_engine::OutcomeView;
//! use heardof_net::LinkFaults;
//!
//! let n = 5;
//! let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1)?);
//! let config = AsyncConfig {
//!     faults: LinkFaults { drop_prob: 0.05, corrupt_prob: 0.02, undetected_prob: 0.2 },
//!     max_rounds: 60,
//!     ..AsyncConfig::default()
//! };
//! let outcome = run_async(algo, n, (0..5u64).map(|i| i % 2).collect(), config);
//! assert!(outcome.agreement_ok());
//! # Ok::<(), heardof_core::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod runtime;

pub use runtime::{run_async, run_async_mux, AsyncConfig, AsyncOutcome};
// The shared outcome surface, for callers that only import this crate.
pub use heardof_engine::{OutcomeView, SubstrateOutcome};
// The telemetry plane, so deployments can attach a recorder directly.
pub use heardof_telemetry::{RingRecorder, Telemetry};
