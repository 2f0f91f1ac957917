//! # heardof-coding
//!
//! Error-detecting and error-correcting channel codes that **trade value
//! faults for omissions** — the engineering knob behind §5.2 of
//! *Tolerating Corrupted Communication* (PODC 2007).
//!
//! The paper's model distinguishes two ways a transmission fault can
//! surface at a receiver:
//!
//! * an **omission** — the message is missing (benign; every predicate
//!   and algorithm tolerates many of them), or
//! * a **value fault** — the content silently changed (counted by `α`,
//!   the scarce budget: `α < n/4` for `A_{T,E}`, `α < n/2` for
//!   `U_{T,E,α}`).
//!
//! A channel code is precisely a converter between the two: a *checksum*
//! turns almost every corruption into a detected drop (omission), and a
//! *correcting code* repairs corruptions outright, shrinking both fault
//! classes at the price of redundant bits. This crate provides the
//! [`ChannelCode`] abstraction and five reference codes:
//!
//! | code | rate | converts corruption into |
//! |---|---|---|
//! | [`NoCode`] | 1 | value faults (the uncoded baseline) |
//! | [`Checksum`] | ~1 | omissions (miss rate `2^-8w` for width `w`) |
//! | [`Repetition`] | 1/k | deliveries, up to `⌊(k−1)/2⌋` corrupt copies |
//! | [`Hamming74`] | 1/2 | deliveries (1-bit) and omissions (2-bit) per block |
//! | [`LtCode`] | rateless | deliveries via erasure repair; redundancy per *symbol*, not per frame |
//!
//! The [`Interleaved`] combinator extends SECDED to the realistic
//! failure mode of correlated bursts by spreading each burst across
//! Hamming blocks. [`LtCode`] goes rateless: per-symbol CRCs turn
//! corrupted symbols into erasures and a seeded robust-soliton schedule
//! repairs them, with the [`SymbolBudget`] pathway metering redundancy
//! in incremental symbols negotiated per round.
//!
//! Because the right code depends on the *current* channel,
//! [`AdaptiveController`] walks a ladder of [`CodeSpec`]s with
//! hysteresis. The ladder lives in three modules, one decision each:
//!
//! * `codebook` — the rung wire format: [`CodeBook`] prefixes every
//!   frame with its code id so mixed-epoch frames decode exactly, and a
//!   gossiping sender adds a parity-checked [`RungAdvert`];
//! * `step` — the pure decision machine: [`step`] folds one round's
//!   [`RoundTally`] and the peers' adverts into a heap-free [`CtlState`],
//!   reading the last few rounds' window and a `P_α` feasibility
//!   projection — the transition `heardof-mc` model-checks;
//! * `adaptive` — [`AdaptiveConfig`] (ladder, thresholds, `α` budget,
//!   gossip policy) and [`AdaptiveController`], which owns one config
//!   and one state and counts what [`step`] decided.
//!
//! Every decode is classified as one of three [`FrameOutcome`]s —
//! `Delivered`, `DetectedOmission`, or `UndetectedValueFault` — and
//! [`measure_code`] estimates the rates of each under any
//! [`NoiseModel`] — the binary symmetric [`BitNoise`] or the bursty
//! [`GilbertElliott`] chain — which is what the
//! `coding_tradeoff` and `adaptive_tradeoff` experiments sweep against
//! the paper's `P_α` feasibility thresholds.
//!
//! # Quickstart
//!
//! ```
//! use heardof_coding::{ChannelCode, FrameOutcome, Hamming74};
//!
//! let code = Hamming74;
//! let payload = b"heard-of".to_vec();
//! let mut wire = code.encode(&payload);
//! wire[3] ^= 0x10; // a single-bit value fault in flight
//! // SECDED corrects it: the receiver sees a clean delivery.
//! assert_eq!(code.classify(&payload, &wire), FrameOutcome::Delivered);
//! assert_eq!(code.decode(&wire).unwrap(), payload);
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(rust_2018_idioms)]

mod adaptive;
mod batch;
pub mod bitslice;
mod burst;
mod checksum;
mod code;
mod codebook;
mod fountain;
mod hamming;
mod interleave;
mod measure;
pub mod mesh;
mod noise;
mod noise_lanes;
mod oblivious;
mod repetition;
mod script;
mod step;

pub use adaptive::{
    AdaptiveConfig, AdaptiveController, GossipConfig, DERIVED_GOSSIP_JOIN_ROUNDS,
    DERIVED_GOSSIP_QUORUM,
};
pub use batch::{
    mux_overhead, pack_slots_into, patch_slots, unpack_slots_view, SlotsIter, SlotsView, MAX_SLOTS,
    MAX_SLOT_LEN,
};
pub use burst::{GilbertElliott, NoiseModel, NoisePhase, NoiseTrace};
pub use checksum::{crc32, Checksum, NoCode};
pub use code::{ChannelCode, CodeError, CodeSpec, DecodeScan, FrameOutcome};
pub use codebook::{CodeBook, CodeBookError, RungAdvert, TaggedWire, GOSSIP_FLAG};
pub use fountain::{LtCode, SymbolBudget};
pub use hamming::Hamming74;
pub use interleave::{deinterleave_bits, interleave_bits, stripe_offsets, Interleaved};
pub use measure::{measure_code, measure_code_exact_flips, MissRates};
pub use noise::BitNoise;
pub use oblivious::{
    decode_count, encode_count, oblivious_advert_frame, oblivious_channel, oblivious_value_frame,
    ObliviousChannel, PatternCode, OBL_ADVERT_LEN, OBL_MAX_EPOCH, OBL_MAX_VALUE, OBL_VALUE_LEN,
};
pub use repetition::Repetition;
pub use script::{FaultScript, LinkFault};
pub use step::{step, CtlState, RoundTally, StepOutcome, SwitchCause, TallyWindow, MAX_WINDOW};
