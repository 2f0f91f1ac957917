//! # heardof-async
//!
//! The third deployment substrate: HO algorithms as **cooperative async
//! tasks** over non-blocking in-memory sockets, driven by an in-tree
//! mini executor (no tokio — the offline build vendors its
//! dependencies, and the executor implements exactly the slice this
//! workspace needs; swapping in a real runtime later replaces one
//! file).
//!
//! Where the threaded runtime (`heardof-net`) aligns rounds with
//! wall-clock timeouts, this substrate aligns them with a
//! [`RoundBarrier`]: every round's sends complete before any receiver
//! drains its socket, so rounds are communication-closed by
//! construction and runs are **fully deterministic** — no scheduling
//! jitter, no timeout tuning, bit-identical replays. Everything else is
//! shared with the other substrates, by construction:
//!
//! * the per-process state machine is `heardof_engine::RoundEngine`
//!   (algorithm step, adaptive framing, tagged encode/decode),
//! * the fault model is `heardof_net::FaultyLink` delivering into the
//!   sockets through the `FrameSink` trait — same RNG streams, same
//!   seeded [`NoiseTrace`](heardof_coding::NoiseTrace) corruption,
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

mod executor;
mod runtime;
mod socket;

pub use executor::{BarrierWait, MiniExecutor, RoundBarrier};
pub use runtime::{run_async, run_async_mux, AsyncConfig, AsyncOutcome};
pub use socket::{socket, NbReceiver, NbSender};
// The shared outcome surface, for callers that only import this crate.
pub use heardof_engine::{OutcomeView, SubstrateOutcome};
// The telemetry plane, so deployments can attach a recorder directly.
pub use heardof_telemetry::{RingRecorder, Telemetry};
