//! # heardof-engine
//!
//! The substrate-agnostic round engine: one implementation of the
//! HO-machine's per-round life cycle shared by every deployment
//! substrate.
//!
//! The paper's machine is one state machine — `(send, transition)` per
//! round under a communication predicate — but deployment substrates
//! keep wanting their own copy interleaved with transport plumbing.
//! This crate factors the copy out, in two layers:
//!
//! * [`ProcessCore`] — the pure algorithm step (state, sending
//!   function, transition function, first-decision tracking). The
//!   lockstep simulator drives this directly: its "wire" is an
//!   abstract message matrix shaped by an adversary.
//! * [`RoundMachine`] — the byte-level machine for real substrates:
//!   wraps `k ≥ 1` [`ProcessCore`]s with one [`Framing`] (fixed code or
//!   adaptive controller with per-round renegotiation), tagged-frame
//!   encode/decode, early-frame buffering and the per-round receiver
//!   tally. All I/O is poll-style — *emit coded frames / ingest
//!   received frames / advance round* — so a substrate contributes
//!   nothing but byte transport and a notion of when a round is over
//!   (every peer's batch of the round's frames for threads, the end of
//!   a lockstep loop pass). It is
//!   generic over what a wire image carries ([`WireLayout`]):
//!   [`RoundEngine`] is the one-instance instantiation (the image is a
//!   frame body), [`MuxRoundEngine`] packs `k` instances into one slot
//!   image per peer per round.
//!
//! The wire [`codec`] (frame layout, [`WireMessage`]) lives here too,
//! so substrates share it byte-for-byte; `heardof-net` re-exports it
//! under its historical paths. [`OutcomeView`] and
//! [`SubstrateOutcome`] give every substrate the same outcome surface,
//! and [`SubstrateOutcome::assemble`] performs the post-hoc `HO`/`SHO`
//! reconstruction from kept-frame logs plus the fault oracle.
//!
//! # Example: a minimal in-memory substrate
//!
//! ```
//! use heardof_core::{Ate, AteParams};
//! use heardof_engine::{Framing, RoundEngine};
//! use heardof_model::ProcessId;
//! use heardof_coding::CodeSpec;
//!
//! let n = 3;
//! let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0)?);
//! let mut engines: Vec<RoundEngine<Ate<u64>>> = (0..n)
//!     .map(|p| RoundEngine::new(
//!         algo.clone(), ProcessId::new(p as u32), n, 5,
//!         Framing::fixed(CodeSpec::DEFAULT), 1, 10))
//!     .collect();
//! // One lockstep round: everyone sends, a perfect wire delivers.
//! let mut inboxes: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
//! for engine in engines.iter_mut() {
//!     engine.begin_round_with(|dest, _copy, wire| {
//!         inboxes[dest as usize].push(wire.to_vec());
//!     });
//! }
//! for (p, engine) in engines.iter_mut().enumerate() {
//!     for bytes in &inboxes[p] { engine.ingest(bytes); }
//!     engine.finish_round();
//! }
//! assert!(engines.iter().all(|e| e.decision() == Some(&5)));
//! # Ok::<(), heardof_core::ParamError>(())
//! ```

#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(rust_2018_idioms)]

pub mod codec;
mod framing;
pub mod layout;
mod outcome;
mod process;
mod round;

pub use codec::{
    decode_body, encode_body_into, refresh_crc, CodecError, Frame, WireMessage, COPY_OFFSET,
    PAYLOAD_OFFSET,
};
pub use framing::{FrameScan, Framing, RawScanView};
pub use layout::{BareFrame, SlotImage, WireLayout};
pub use outcome::{OutcomeView, SubstrateOutcome};
pub use process::ProcessCore;
pub use round::{
    link_index, EngineReport, Ingest, MuxReport, MuxRoundEngine, RoundEngine, RoundMachine,
};
