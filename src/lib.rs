//! # heardof
//!
//! Consensus under corrupted communication: a complete implementation of
//! *Tolerating Corrupted Communication* (Biely, Charron-Bost, Gaillard,
//! Hutle, Schiper, Widder — PODC 2007).
//!
//! The paper extends the round-based **Heard-Of model** to *value
//! faults*: transmission faults that corrupt message contents, dynamic
//! (any link, any round) and transient (not permanent), with no process
//! ever labelled "faulty". Communication assumptions become
//! **predicates** over the heard-of collections `(HO(p,r); SHO(p,r))`,
//! split into safety (`P_α`: at most α corrupted receptions per process
//! per round) and liveness (sporadic good rounds). Two algorithms solve
//! consensus in this model:
//!
//! * **`A_{T,E}`** — always safe under `P_α` (for `E ≥ n/2 + α`,
//!   `T ≥ 2(n+2α−E)`), terminating under `P^{A,live}`, *fast*, tolerating
//!   `α < n/4`;
//! * **`U_{T,E,α}`** — safe under `P_α ∧ P^{U,safe}`, terminating under
//!   `P^{U,live}`, tolerating `α < n/2`.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — the HO model substrate (rounds, reception vectors,
//!   HO/SHO sets, traces, the consensus checker),
//! * [`predicates`] — communication predicates as checkable values,
//! * [`adversary`] — fault injection strategies and budgets,
//! * [`coding`] — channel codes trading value faults for omissions
//!   (checksums, repetition, Hamming SECDED, rateless LT fountain with
//!   per-round symbol budgets) with measured miss rates,
//! * [`sim`] — the deterministic lockstep simulator,
//! * [`engine`] — the substrate-agnostic round engine (the HO-machine
//!   step, adaptive framing and the wire codec every substrate shares),
//! * [`telemetry`] — the deterministic observability plane (flight
//!   recorder, α-budget ledger, cross-substrate metrics),
//! * [`net`] — a threaded message-passing deployment substrate,
//! * [`async_rt`] — a deterministic deployment substrate (the engines
//!   stepped in lockstep on one thread over faulty in-memory links),
//! * [`core`] — the paper's algorithms and bounds,
//! * [`analysis`] — experiments, statistics and witness search.
//!
//! It adds [`WireChannel`], the simulator's coded wire (the simulator's
//! messages relayed through the deployment's own engines and faulty
//! links), and [`conformance`], the harness that replays one noise
//! trace through every substrate.
//!
//! # Quickstart
//!
//! ```
//! use heardof::prelude::*;
//!
//! let n = 10;
//! let alpha = 2; // corrupted receptions tolerated per process per round
//!
//! let algo: Ate<u64> = Ate::new(AteParams::balanced(n, alpha)?);
//! let adversary = WithSchedule::new(
//!     Budgeted::new(RandomCorruption::new(alpha, 0.9), alpha),
//!     GoodRounds::every(5),
//! );
//!
//! let outcome = Simulator::new(algo, n)
//!     .adversary(adversary)
//!     .seed(42)
//!     .initial_values((0..n).map(|i| i as u64 % 3))
//!     .run_until_decided(1_000)?;
//!
//! assert!(outcome.consensus_ok());
//! assert!(PAlpha::new(alpha).holds(&outcome.trace));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conformance;
mod wire;

pub use wire::{CodeLog, WireChannel};

pub use heardof_adversary as adversary;
pub use heardof_analysis as analysis;
pub use heardof_async as async_rt;
pub use heardof_coding as coding;
pub use heardof_core as core;
pub use heardof_engine as engine;
pub use heardof_model as model;
pub use heardof_net as net;
pub use heardof_predicates as predicates;
pub use heardof_sim as sim;
pub use heardof_telemetry as telemetry;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use heardof_adversary::{
        Adversary, BorrowedCorruption, Budgeted, GoodRounds, NoFaults, RandomCorruption,
        RandomOmission, SantoroWidmayerBlock, Seq, SplitBrain, StaticByzantine, SymmetricByzantine,
        TransientBurst, WithSchedule,
    };
    pub use heardof_analysis::{Scenario, Summary, Table, UteWitnessSearch, WitnessSearch};
    pub use heardof_async::{run_async, AsyncConfig, AsyncOutcome};
    pub use heardof_coding::{
        measure_code, AdaptiveConfig, AdaptiveController, BitNoise, ChannelCode, Checksum,
        CodeBook, CodeSpec, FrameOutcome, GilbertElliott, Hamming74, Interleaved, LtCode, NoCode,
        NoiseTrace, Repetition, RoundTally, SymbolBudget,
    };
    pub use heardof_core::{
        Ate, AteParams, OneThirdRule, ParamError, Threshold, UniformVoting, Ute, UteMsg, UteParams,
    };
    pub use heardof_engine::{Framing, OutcomeView, ProcessCore, RoundEngine, SubstrateOutcome};
    pub use heardof_model::{
        all_processes, check_consensus, smallest_most_frequent, CommHistory, ConsensusValue,
        Corruptible, History, HoAlgorithm, MessageMatrix, Phase, ProcessId, ProcessSet,
        ReceptionVector, Round, RoundSets, RunTrace, TraceLevel,
    };
    pub use heardof_predicates::{
        ALive, All, AsyncByzantine, CommPredicate, MinKernel, MinSho, PAlpha, PBenign, PPermAlpha,
        SyncByzantine, ULive,
    };
    pub use heardof_sim::{run_batch, BatchSummary, RunOutcome, SimError, Simulator};
    pub use heardof_telemetry::{
        AlphaLedger, Event, EventKind, Recorder, RingRecorder, RunRecording, Telemetry,
    };

    pub use crate::WireChannel;
}
