//! # heardof-net
//!
//! The byte-level deployment of HO algorithms: bit-level fault
//! injection, a wire codec framed by a pluggable channel code
//! (`heardof-coding`), and one run over it with two drivers — OS
//! threads exchanging each round over `std::sync::mpsc` channels
//! ([`run_threaded`]), or the lockstep stepper on the calling thread
//! ([`run_async`]). Both read one [`NetConfig`], build the same links
//! and engines from it, and return the same [`NetOutcome`]; on live
//! peers they replay each other round for round.
//!
//! Where the lockstep simulator (`heardof-sim`) gives adversarial
//! control, this crate shows the *same algorithms, unchanged*, running
//! the way a real system would: heard-of sets arise from lossy links,
//! each threaded round crossing to a peer as one batch of whatever the
//! links delivered, which also closes it (a control plane outside the
//! fault model); safe heard-of sets shrink exactly when
//! a corruption slips past the channel code. Pick the code per deployment via
//! [`NetConfig::code`] — the CRC-32 checksum default keeps the
//! historical wire format, while a correcting code such as
//! `CodeSpec::Hamming74` repairs corruption in flight, running the same
//! algorithm at raw corruption rates far beyond its uncoded tolerance.
//! A run reconstructs both heard-of collections post-hoc so the
//! usual predicate checkers apply.
//!
//! * [`crc32`], [`WireMessage`], [`Frame`], [`CodeSpec`] — the wire format,
//! * [`LinkFaults`], [`LinkWiring`], [`FaultLog`] — the fault model;
//!   [`FaultyLink`] and [`FrameSink`] — its owned-frame entry for
//!   callers outside this crate,
//! * [`RunFabric`], [`Lockstep`] — one run's wiring, and the
//!   single-threaded lockstep round over it,
//! * [`NetConfig`], [`NetOutcome`] and the runs: [`run_threaded`] /
//!   [`run_threaded_mux`] on threads, [`run_async`] / [`run_async_mux`]
//!   on the stepper,
//! * [`recommend_alpha`] — predicate-coverage engineering (§5.2 / \[10\]).
//!
//! # Examples
//!
//! ```
//! use heardof_core::{Ate, AteParams};
//! use heardof_net::{run_threaded, LinkFaults, NetConfig, OutcomeView};
//! use std::time::Duration;
//!
//! let n = 5;
//! let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1)?);
//! let config = NetConfig {
//!     faults: LinkFaults { drop_prob: 0.05, corrupt_prob: 0.02, undetected_prob: 0.2 },
//!     round_timeout: Duration::from_millis(40),
//!     max_rounds: 60,
//!     ..NetConfig::default()
//! };
//! let outcome = run_threaded(algo, n, (0..5u64).map(|i| i % 2).collect(), config);
//! assert!(outcome.agreement_ok());
//! # Ok::<(), heardof_core::ParamError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(rust_2018_idioms)]

mod coverage;
mod fabric;
mod link;
mod lockstep;
mod run;
mod runtime;

pub use coverage::{recommend_alpha, recommend_alpha_from_ledger, AlphaEstimate};
pub use fabric::RunFabric;
// The CRC implementation lives in `heardof-coding` now that coding is a
// first-class subsystem; re-exported so the original API is unchanged.
pub use heardof_coding::{
    crc32, AdaptiveConfig, AdaptiveController, ChannelCode, CodeBook, CodeSpec, FrameOutcome,
    GilbertElliott, LtCode, NoiseTrace, RoundTally, SymbolBudget,
};
// The wire codec and outcome surface moved to `heardof-engine` with the
// substrate-agnostic round core; re-exported so the original API is
// unchanged.
pub use heardof_engine::{
    decode_body, refresh_crc, CodecError, Frame, OutcomeView, SubstrateOutcome, WireMessage,
    COPY_OFFSET, PAYLOAD_OFFSET,
};
// The telemetry plane threads through every link and engine; the core
// types are re-exported so deployments can attach a recorder without a
// direct `heardof-telemetry` dependency.
pub use heardof_telemetry::{
    AlphaLedger, Event, EventKind, NullRecorder, Recorder, RingRecorder, RoundReport, RunRecording,
    Telemetry,
};
pub use link::{FaultKey, FaultLog, FaultyLink, FrameSink, LinkEvent, LinkFaults, LinkWiring};
pub use lockstep::Lockstep;
pub use run::{run_async, run_async_mux, run_threaded, run_threaded_mux, NetConfig, NetOutcome};
