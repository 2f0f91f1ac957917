//! The simulator's coded wire: the intended matrix relayed through the
//! deployment's own round engines and faulty links.

use heardof_adversary::Adversary;
use heardof_coding::{AdaptiveConfig, CodeSpec, NoiseTrace};
use heardof_engine::{BareFrame, RoundEngine, WireMessage};
use heardof_model::{HoAlgorithm, MessageMatrix, ProcessId, ReceptionVector, Round};
use heardof_net::{LinkFaults, Lockstep, RunFabric};
use heardof_telemetry::Telemetry;
use rand::rngs::StdRng;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

/// The algorithm every engine of a [`WireChannel`] runs. Its sending
/// function reads the simulator's intended matrix, and its state is the
/// reception vector the engine hands to `transition` — the receiver's
/// column of the delivered matrix.
#[derive(Clone)]
struct Relay<M> {
    intended: Arc<Mutex<MessageMatrix<M>>>,
}

impl<M: Clone + Eq + Debug + Send + 'static> HoAlgorithm for Relay<M> {
    type Value = ();
    type Msg = M;
    type State = ReceptionVector<M>;

    fn name(&self) -> &'static str {
        "relay"
    }

    fn init(&self, _p: ProcessId, n: usize, _initial: ()) -> ReceptionVector<M> {
        ReceptionVector::new(n)
    }

    fn send(&self, _round: Round, p: ProcessId, _state: &Self::State, dest: ProcessId) -> M {
        let intended = self.intended.lock().expect("relay matrix lock");
        intended
            .get(p, dest)
            .cloned()
            .expect("the simulator's sending functions are total")
    }

    fn transition(
        &self,
        _round: Round,
        _p: ProcessId,
        state: &mut ReceptionVector<M>,
        received: &ReceptionVector<M>,
    ) {
        state.clone_from(received);
    }

    fn decision(&self, _state: &Self::State) -> Option<()> {
        None
    }
}

/// A read handle on a [`WireChannel`]'s per-round code log, taken with
/// [`WireChannel::code_log`] before the simulator takes the channel.
#[derive(Clone, Debug)]
pub struct CodeLog(Arc<Mutex<Vec<Vec<CodeSpec>>>>);

impl CodeLog {
    /// `rounds()[r - 1][p]`: the code process `p` sent with in round
    /// `r`, for every round relayed so far.
    pub fn rounds(&self) -> Vec<Vec<CodeSpec>> {
        self.0.lock().expect("code log lock").clone()
    }
}

/// The simulator's coded wire: an [`Adversary`] that sends every
/// intended message through the deployment substrates' own parts. One
/// [`RoundEngine`] per process from one [`RunFabric`] (trace-driven
/// noise, no other link faults, one copy per frame) is wired through
/// [`RunFabric::lockstep`]'s links and mailboxes. The engines encode,
/// the links corrupt and judge, the engines decode, tally and, on an
/// adaptive ladder, renegotiate; the delivered matrix is what their
/// reception vectors hold when the round closes. A corrupted frame thus
/// reaches the algorithm as its decoder leaves it: repaired, dropped as
/// an omission, or as a value fault.
///
/// The noise is the `trace`'s alone: the simulator's RNG is never
/// drawn. A constant bit-error rate is a one-phase trace whose channel
/// is `GilbertElliott::new(0.0, 1.0, ber, 0.0)`.
///
/// # Examples
///
/// Three value faults per receiver per round are beyond the `α = 1`
/// that `A_{T,E}` tolerates at `n = 8`. The same noise behind
/// Hamming SECDED:
///
/// ```
/// use heardof::coding::NoisePhase;
/// use heardof::prelude::*;
///
/// let n = 8;
/// let noise = NoiseTrace::new(
///     3,
///     vec![NoisePhase { rounds: 1, channel: GilbertElliott::new(0.0, 1.0, 0.005, 0.0) }],
/// );
/// let channel = WireChannel::new(n, CodeSpec::Hamming74, None, noise, 60, Telemetry::null());
/// let codes = channel.code_log();
/// let outcome = Simulator::new(Ate::<u64>::new(AteParams::balanced(n, 1)?), n)
///     .adversary(channel)
///     .initial_values((0..n as u64).map(|i| i % 2))
///     .run_until_decided(60)?;
/// assert!(PAlpha::new(1).holds(&outcome.trace));
/// assert!(outcome.consensus_ok());
/// assert!(codes.rounds().iter().flatten().all(|&c| c == CodeSpec::Hamming74));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct WireChannel<M: WireMessage + Clone + Eq + Debug + Send + 'static> {
    seed: u64,
    intended: Arc<Mutex<MessageMatrix<M>>>,
    stepper: Lockstep<Relay<M>, BareFrame>,
    codes: CodeLog,
}

impl<M: WireMessage + Clone + Eq + Debug + Send + 'static> WireChannel<M> {
    /// A channel over `n` processes for `rounds` rounds, corrupted by
    /// `trace` and recording into `telemetry`. Every frame is coded
    /// with `code`, unless `adaptive` is set: then each process's
    /// controller walks that ladder on what its engine observes.
    ///
    /// # Panics
    ///
    /// The engines open no round past `rounds`: relaying round
    /// `rounds + 1` panics, so the simulator must run at most `rounds`
    /// rounds.
    pub fn new(
        n: usize,
        code: CodeSpec,
        adaptive: Option<AdaptiveConfig>,
        trace: NoiseTrace,
        rounds: u64,
        telemetry: Telemetry,
    ) -> Self {
        let seed = trace.seed();
        let fabric = RunFabric::new(
            LinkFaults::NONE,
            0,
            1,
            rounds,
            code,
            adaptive,
            Some(trace),
            telemetry,
        );
        let intended = Arc::new(Mutex::new(MessageMatrix::empty(n)));
        let relay = Relay {
            intended: Arc::clone(&intended),
        };
        let engines = (0..n)
            .map(|p| fabric.engine_for(relay.clone(), p, n, ()))
            .collect();
        WireChannel {
            seed,
            intended,
            stepper: fabric.lockstep(engines),
            codes: CodeLog(Arc::default()),
        }
    }

    /// A handle on the per-round code log, which outlives the channel.
    pub fn code_log(&self) -> CodeLog {
        self.codes.clone()
    }
}

impl<M: WireMessage + Clone + Eq + Debug + Send + 'static> Adversary<M> for WireChannel<M> {
    fn name(&self) -> String {
        format!("wire-channel(seed={})", self.seed)
    }

    fn deliver(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        _rng: &mut StdRng,
    ) -> MessageMatrix<M> {
        self.intended
            .lock()
            .expect("relay matrix lock")
            .clone_from(intended);
        let codes = self.stepper.engines().iter().map(RoundEngine::current_code);
        self.codes
            .0
            .lock()
            .expect("code log lock")
            .push(codes.collect());
        self.stepper.round(round.get());
        let engines = self.stepper.engines();
        MessageMatrix::from_fn(intended.universe(), |sender, receiver| {
            let rx = engines[receiver.index()].core().state();
            rx.get(sender).cloned()
        })
    }
}
