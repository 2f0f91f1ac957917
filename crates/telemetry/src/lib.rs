//! Deterministic observability plane for the HeardOf reproduction.
//!
//! The paper's whole argument is an *accounting* argument: safety holds
//! as long as the number of undetected value faults a receiver absorbs
//! per round stays inside the `α` budget. This crate is the runtime
//! ledger of that budget — one substrate-neutral plane through which
//! every layer (link, engine, controller, budget) reports what happened,
//! instead of each keeping private tallies.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Events are stamped with the *round* they belong
//!    to, never wall-clock time, so a recording is a pure function of
//!    `(algorithm, seed, trace)` and can be compared byte-for-byte
//!    across the lockstep simulator, the threaded runtime and the
//!    async runtime. Threads may ingest events in any order
//!    within a round: counters are commutative and the flight recorder
//!    canonicalizes event order at snapshot time.
//! 2. **Zero cost when off.** The hot path behind [`Telemetry::emit`]
//!    is a single branch; a disabled handle holds no recorder at all, so
//!    building, cloning and emitting through [`Telemetry::null`] never
//!    allocate and never take a lock.
//! 3. **Bounded when on.** The [`RingRecorder`] keeps a bounded event
//!    ring (a flight recorder, not an unbounded log) plus fixed-size
//!    counters and fixed-bucket histograms.
//!
//! The α-side of the plane lives in [`AlphaLedger`], which folds link
//! counters into consumed-vs-projected undetected-fault accounting, and
//! in [`chernoff_alpha_for_mean`] — the one Chernoff projection the
//! rest of the workspace calls.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod event;
mod ledger;
mod recorder;
mod recording;

pub use event::{pack_rung_switch, unpack_rung_switch, Event, EventKind, KIND_COUNT, NO_PEER};
pub use ledger::{chernoff_alpha_for_mean, AlphaLedger};
pub use recorder::{NullRecorder, Recorder, RingRecorder, Telemetry};
pub use recording::{Histogram, KindCounts, RoundReport, RunRecording};
