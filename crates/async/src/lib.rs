//! # heardof-async
//!
//! The name of the deterministic deployment: HO algorithms as
//! **lockstep processes** on one thread, exchanging coded wire frames
//! through in-memory arenas. Every round, every engine sends, then
//! every engine drains its arena, then every engine transitions, so
//! rounds are communication-closed by construction and runs are
//! **fully deterministic** — no threads, no scheduling, bit-identical
//! replays.
//!
//! The runs themselves live in `heardof-net`: [`run_async`] and
//! [`run_async_mux`] are the stepper driver of the one run skeleton the
//! threaded runtime also uses, over the same [`RunFabric`] links and
//! engines and the same configuration ([`AsyncConfig`] is
//! [`NetConfig`]). This crate only re-exports them, under the names
//! that code depending on `heardof-async` — the repo benchmark among
//! it — was written against. New code can use `heardof_net` directly.
//!
//! The cross-substrate conformance harness (`heardof::conformance`)
//! is the acceptance bar: on a seeded trace, the stepper must replay
//! the simulator's and the threaded runtime's controller decisions and
//! `HO`/`SHO` reconstructions round for round
//! (`tests/adaptive_conformance.rs` at the workspace root).
//!
//! [`RunFabric`]: heardof_net::RunFabric
//! [`NetConfig`]: heardof_net::NetConfig
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

pub use heardof_net::{run_async, run_async_mux};
// The shared outcome surface and the telemetry plane, for callers that
// only import this crate.
pub use heardof_net::{OutcomeView, RingRecorder, SubstrateOutcome, Telemetry};

/// The configuration of a stepped run: the one run configuration,
/// whose `round_timeout` the stepper never reads.
pub type AsyncConfig = heardof_net::NetConfig;

/// The observable result of a stepped run — the engine-standard
/// [`SubstrateOutcome`], as on the threaded runtime.
pub type AsyncOutcome<V> = heardof_net::NetOutcome<V>;
