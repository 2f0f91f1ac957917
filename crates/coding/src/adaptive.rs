//! Adaptive code switching: an escalation ladder with hysteresis.
//!
//! A static [`CodeSpec`] is the wrong answer to a *moving* channel: a
//! checksum wastes the `P_α` margin the moment noise arrives, while a
//! repetition code wastes bandwidth the whole time the channel is
//! clean. The [`AdaptiveController`] closes the loop the paper leaves
//! open in §5.2 — it watches the per-round [`FrameOutcome`] tallies a
//! receiver can actually observe (deliveries and effective omissions;
//! undetected value faults are, by definition, invisible and enter only
//! as estimates) and walks a **ladder** of codes:
//!
//! ```text
//! checksum32 → hamming74 → interleaved{d}[hamming74] → fountain{r} → repetition5
//!  (detect)    (correct      (correct bursts)          (rateless     (brute force)
//!               1/blk)                                  symbols)
//! ```
//!
//! The fourth rung is rateless: [`crate::LtCode`] pays its redundancy
//! in incremental repair *symbols* matched to the observed loss (the
//! [`crate::SymbolBudget`] pathway) rather than in whole-frame copies,
//! so severe regimes degrade smoothly before the ladder ever reaches
//! the brute-force last resort.
//!
//! Escalation is eager (one noisy window suffices); de-escalation is
//! deliberately lazy (a sustained calm streak *and* a minimum dwell
//! time), because the dangerous adversary is not constant noise but an
//! **oscillating** one that tries to whipsaw the controller into paying
//! switching costs forever — hysteresis is the defense (cf. the
//! adaptivity results of Agrawal–Gelles–Sahai and Haeupler–Sudan for
//! why adaptive protocols dominate static ones at optimal error rates).
//!
//! The controller is a *pure function of its observation sequence*:
//! feeding identical tallies produces identical rung sequences on any
//! substrate, which is what the cross-substrate conformance harness
//! (`tests/adaptive_conformance.rs` at the workspace root) asserts.
//!
//! [`CodeBook`] gives the ladder a wire identity: frames are prefixed
//! with a 1-byte code id so receivers can decode *mixed epochs* exactly
//! — after a switch, in-flight frames from the previous rung still name
//! their own code.
//!
//! **Rung gossip** closes the convergence lag that independent
//! controllers exhibit under *correlated* bursts (one regime hitting all
//! links at once — see `NoiseTrace::correlated_bursts`): every tagged
//! frame piggybacks the sender's current rung and a small monotone
//! switch epoch as one extra wire byte (a [`RungAdvert`]), in the
//! spirit of epidemic dissemination (Demers et al.) and epoch-stamped
//! reconfiguration (Vertical Paxos). A receiver that sees a **quorum**
//! of peers advertising a newer-epoch rung adopts it immediately
//! instead of waiting for its own window to fill — no extra messages,
//! one byte per frame. The advertisement byte travels *outside* the
//! channel code (it must be readable before picking a decoder), so a
//! corrupted advert is possible; the policy guards — in-ladder
//! validation, serial epoch comparison, the quorum, and the last-resort
//! pin — keep any single corrupted byte from moving a controller (see
//! `tests/gossip_faults.rs` at the workspace root).

use crate::code::{ChannelCode, CodeError, CodeSpec, FrameOutcome};
use bytes::{BufMut, BytesMut};
use std::borrow::Cow;
use std::sync::Arc;

/// The wire flag marking a gossip-tagged frame: set on the id byte, it
/// announces that one [`RungAdvert`] byte follows before the coded
/// body. Pre-gossip decoders see an unknown code id and reject the
/// frame — a detected omission, never a misparse — which is what makes
/// the format extension version-safe.
pub const GOSSIP_FLAG: u8 = 0x80;

/// Epochs are advertised modulo this window (4 bits on the wire).
const EPOCH_MODULUS: u8 = 16;

/// A rung advertisement piggybacked on a tagged frame: the sender's
/// current ladder rung plus its switch epoch, packed into one byte —
/// 3 bits rung, 4 bits epoch, 1 parity bit.
///
/// The advertisement travels *outside* the channel code (a receiver
/// must read it before picking a decoder), so it gets the paper's move
/// applied in miniature: the parity bit turns every odd-weight
/// corruption of the byte — in particular every single-bit flip, the
/// dominant physical error — into a *detected* loss of the
/// advertisement ([`RungAdvert::from_byte`] returns `None` and the
/// receiver simply hears no advertisement from that peer this round)
/// instead of a forged one. Without it, two links flipping the same
/// bit of the same advert forge byte-identical advertisements often
/// enough to assemble an adoption quorum by chance.
///
/// The epoch is a per-controller logical clock synchronized through
/// gossip; comparisons use serial-number arithmetic over the 4-bit
/// window (see [`RungAdvert::epoch_newer`]), so wraparound in long
/// runs is harmless as long as gossiping controllers stay within half
/// a window of each other — which the adoption rule itself guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RungAdvert {
    /// The advertised ladder rung (0 = cheapest; ladders gossiping on
    /// the wire are limited to 8 rungs).
    pub rung: u8,
    /// The advertised switch epoch, modulo 16.
    pub epoch: u8,
}

impl RungAdvert {
    /// Packs the advertisement into its wire byte: even-parity over
    /// the whole byte, epoch in bits 3..=6, rung in bits 0..=2.
    pub fn to_byte(self) -> u8 {
        let payload = (self.epoch % EPOCH_MODULUS) << 3 | (self.rung & 0x07);
        payload | ((payload.count_ones() as u8 & 1) << 7)
    }

    /// Unpacks an advertisement from its wire byte, or `None` when the
    /// parity check fails — a corrupted advertisement is *detected* and
    /// dropped (the gossip analogue of corruption becoming an
    /// omission), never believed.
    pub fn from_byte(b: u8) -> Option<Self> {
        if !b.count_ones().is_multiple_of(2) {
            return None;
        }
        Some(RungAdvert {
            rung: b & 0x07,
            epoch: (b >> 3) & (EPOCH_MODULUS - 1),
        })
    }

    /// Serial-number distance from `base` forward to `epoch` within the
    /// 4-bit window.
    fn epoch_distance(epoch: u8, base: u8) -> u8 {
        epoch.wrapping_sub(base) % EPOCH_MODULUS
    }

    /// `true` when `epoch` is strictly newer than `base` under serial
    /// comparison: ahead by less than half the window. A corrupted
    /// epoch more than 7 steps "ahead" reads as stale and is ignored.
    pub fn epoch_newer(epoch: u8, base: u8) -> bool {
        let d = Self::epoch_distance(epoch, base);
        d != 0 && d < EPOCH_MODULUS / 2
    }
}

/// Configuration of the rung-gossip policy (see
/// [`AdaptiveConfig::with_gossip`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GossipConfig {
    /// How many distinct qualifying peer advertisements of the same
    /// rung are required before adopting a *newer-epoch* decision. Two
    /// is the minimum that a single corrupted advertisement byte can
    /// never fake.
    pub quorum: usize,
    /// How many consecutive rounds a strict majority of peers must
    /// advertise the same *lower* rung before a controller holding a
    /// minority position descends to join them — the escape hatch for
    /// a lone high leader whose own epoch is the group's newest and
    /// who therefore never sees a "newer" decision to adopt. Joins are
    /// descent-only: upward convergence belongs to epoch adoption and
    /// the controller's own escalation (see the camp filter in the
    /// gossip step for the calm-network livelock an upward join
    /// causes).
    pub join_rounds: u8,
}

/// The default adoption quorum, derived by the `heardof-mc` parameter
/// sweep rather than asserted: the smallest quorum whose full n=3
/// product space (every per-link deliver/omit/forge interleaving) keeps
/// all three safety predicates green. At quorum 1 a *single* forged
/// parity-valid advertisement byte per round walks a controller's
/// 4-bit epoch around the serial window and back onto a previously
/// held (rung, epoch) pair — the epoch-cycle counterexample pinned in
/// `tests/adaptive_conformance.rs`; at quorum 2 a forged advert must
/// recruit a genuine qualifying co-voter on the same rung, which the
/// sweep shows the adversary cannot sustain. (`crates/mc` gates this
/// constant against drift from the sweep output.)
pub const DERIVED_GOSSIP_QUORUM: usize = 2;

/// The default majority-join stability requirement, derived by the same
/// `heardof-mc` sweep: the smallest streak for which a transient
/// phantom majority (one forged advert byte plus a genuine peer
/// advertising the same rung) cannot move a controller in the full n=3
/// space, while a standing split still heals within the reconvergence
/// bound.
pub const DERIVED_GOSSIP_JOIN_ROUNDS: u8 = 2;

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            quorum: DERIVED_GOSSIP_QUORUM,
            join_rounds: DERIVED_GOSSIP_JOIN_ROUNDS,
        }
    }
}

/// What one receiver observed in one round, aggregated over the frames
/// it expected from its peers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RoundTally {
    /// Frames expected this round (one per peer).
    pub expected: usize,
    /// Frames that decoded and were kept ([`FrameOutcome::Delivered`],
    /// possibly after correction).
    pub delivered: usize,
    /// Of the delivered frames, how many arrived *repaired* — the
    /// decoder corrected channel errors on the way (see
    /// [`ChannelCode::decode_scan`]). Observable noise evidence: a
    /// correcting rung that is quietly absorbing a burst reports it
    /// here, which is what stops the controller from stepping down into
    /// an ongoing attack.
    pub corrected: usize,
    /// Known or estimated undetected value faults
    /// ([`FrameOutcome::UndetectedValueFault`]). A live receiver cannot
    /// observe these and passes 0; oracle harnesses (the simulator, the
    /// tradeoff benchmarks) pass ground truth.
    pub value_faults: usize,
    /// Of the frames that were *rejected*, how many carried repair
    /// evidence scanned out of the wreckage (see
    /// [`ChannelCode::decode_scan`](crate::ChannelCode::decode_scan)):
    /// SECDED blocks corrected before a double-error block killed the
    /// frame, fountain erasures patched before the solve failed. Counted
    /// frame-level (0/1 per rejected frame), the same unit as
    /// [`RoundTally::corrected`]. Feeds [`RoundTally::activity`] only —
    /// a frame that died mid-repair is *stronger* evidence of a live
    /// channel than a silent drop, so de-escalation waits on it, but it
    /// is deliberately kept out of the corrected-rate coping signal: a
    /// rung whose repairs keep ending in dropped frames is not winning,
    /// and crediting the wreckage would pin the controller there.
    pub evidence: usize,
}

impl RoundTally {
    /// Missing frames: dropped outright or rejected by the code
    /// ([`FrameOutcome::DetectedOmission`]) — a receiver cannot tell the
    /// two apart, and does not need to.
    pub fn omissions(&self) -> usize {
        self.expected.saturating_sub(self.delivered)
    }

    /// Fraction of expected frames that did not arrive intact — the
    /// *escalation* signal (repaired frames did arrive intact, so they
    /// do not count against the current rung).
    pub fn pressure(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            (self.omissions() + self.value_faults) as f64 / self.expected as f64
        }
    }

    /// Fraction of expected frames that show *any* channel activity:
    /// missing, faulted, delivered-after-repair, or rejected while
    /// visibly repairing — the *calm* signal. De-escalation waits for
    /// this to go quiet, so a rung that is actively correcting a burst
    /// is never abandoned mid-burst. A rejected-with-evidence frame
    /// counts twice (once as an omission, once as evidence) — the
    /// double weight is deliberate conservatism on the calm side and
    /// never touches [`RoundTally::pressure`].
    pub fn activity(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            (self.omissions() + self.corrected + self.value_faults + self.evidence) as f64
                / self.expected as f64
        }
    }
}

/// How the controller smooths its per-round observations into the
/// pressure/activity estimates the thresholds compare against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PressureEstimator {
    /// The original estimator: totals over the sliding window of the
    /// last [`AdaptiveConfig::window`] rounds. Reacts in exactly
    /// `window` rounds, then forgets completely.
    Windowed,
    /// Exponentially weighted moving average of the per-round rates:
    /// `est ← est + λ·(x − est)`, seeded by the first observation after
    /// each switch. Smoother under jittery channels, with a memory that
    /// decays instead of cliffing; `λ = 0.5` has the same effective
    /// horizon (≈ 2 rounds) as the default window, which is why the two
    /// modes agree on clean and hard-burst channels (a unit test pins
    /// this) and differ only on marginal, threshold-straddling noise.
    Ewma {
        /// Smoothing factor in `(0, 1]`; larger reacts faster.
        lambda: f64,
    },
    /// One-sided CUSUM change-point statistics (ROADMAP estimator
    /// upgrade): per rate, `s ← min(cap, max(0, s + x − drift))`. The
    /// statistic accumulates only the *excess* of each round's rate
    /// over the `drift` allowance, so sub-drift background noise reads
    /// as exactly zero while a genuine regime change crosses the
    /// escalation threshold within a round; the `cap` bounds how much
    /// burst evidence can pile up, so the calm-side decay (one `drift`
    /// per quiet round) releases within the cooldown horizon instead of
    /// remembering the whole burst. With `drift = 0.25, cap = 1.0` the
    /// rung schedule is pinned to the windowed estimator's on the clean
    /// and hard-burst presets (unit tests assert this); the modes
    /// differ only on marginal, threshold-straddling noise, where CUSUM
    /// ignores what the window averages in.
    Cusum {
        /// Per-round rate allowance subtracted before accumulating;
        /// must lie in `(0, 1)`.
        drift: f64,
        /// Saturation bound on each statistic; must be positive.
        cap: f64,
    },
}

/// Configuration of an [`AdaptiveController`].
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// The escalation ladder, weakest (cheapest) first. Rung 0 is the
    /// starting code.
    pub ladder: Vec<CodeSpec>,
    /// Sliding-window length (rounds) for the pressure estimate. The
    /// window is kept even in EWMA mode: the severe-burst check and the
    /// `P_α` projection always read raw recent rounds.
    pub window: usize,
    /// The smoothing applied to pressure/activity/corrected-rate
    /// estimates (ROADMAP estimator upgrade; default
    /// [`PressureEstimator::Windowed`], the historical behaviour).
    pub estimator: PressureEstimator,
    /// Windowed pressure above which the controller steps up a rung.
    pub escalate_at: f64,
    /// Single-round pressure above which an escalation jumps **two**
    /// rungs instead of one. A hard burst (most frames lost) goes
    /// straight from detection to burst-grade correction; lingering a
    /// dwell period on the middle rung would spend rounds on a code
    /// whose per-block correction the burst defeats — and whose
    /// miscorrections *leak value faults* exactly when the `α` budget
    /// is most stressed.
    pub severe_at: f64,
    /// Windowed pressure below which a round counts as *calm*; must be
    /// strictly below [`AdaptiveConfig::escalate_at`] (the hysteresis
    /// band).
    pub deescalate_at: f64,
    /// Consecutive calm rounds required before stepping down a rung.
    pub cooldown: u64,
    /// Rounds the controller stays put after any switch, defeating
    /// noise patterns faster than the control loop.
    pub min_dwell: u64,
    /// System size (senders per round), for the `P_α` projection.
    pub n: usize,
    /// The `α` budget the deployment's parameters were validated with
    /// (e.g. `AteParams::alpha()`); projected demand beyond this forces
    /// escalation regardless of the pressure thresholds.
    pub alpha_budget: u32,
    /// Per-round tail probability the `α` projection targets.
    pub target_tail: f64,
    /// Rung gossip: when `Some`, the controller advertises its rung and
    /// switch epoch on every tagged frame (one extra wire byte) and
    /// adopts a newer-epoch rung advertised by a quorum of peers (see
    /// [`AdaptiveConfig::with_gossip`]). `None` — the default — keeps
    /// controllers fully independent and the wire format byte-identical
    /// to pre-gossip deployments.
    pub gossip: Option<GossipConfig>,
}

impl AdaptiveConfig {
    /// The standard ladder and thresholds for an `n`-process deployment
    /// running with budget `alpha_budget`:
    /// `checksum32 → hamming74 → interleaved16[hamming74] → fountain8 →
    /// repetition5`, window 2, escalate above 35% pressure (two rungs
    /// at once when any window round passed 60%), de-escalate below 5%
    /// activity after 4 calm rounds, dwell 3, tail `1e-6`.
    ///
    /// Severe regimes land on the rateless fountain rung, whose repair
    /// allowance then grows per round through the
    /// [`crate::SymbolBudget`] renegotiation — `repetition5` remains as
    /// the single-step last resort for channels that defeat even an
    /// inflated symbol stream.
    ///
    /// The short window makes burst onsets bite within a round — safe
    /// because escalation additionally requires losses to outpace
    /// repairs, so statistical spikes at a rung that is coping never
    /// trigger a climb.
    pub fn standard(n: usize, alpha_budget: u32) -> Self {
        AdaptiveConfig {
            ladder: vec![
                CodeSpec::Checksum { width: 4 },
                CodeSpec::Hamming74,
                CodeSpec::Interleaved { depth: 16 },
                CodeSpec::Fountain { repair: 8 },
                CodeSpec::Repetition { k: 5 },
            ],
            window: 2,
            estimator: PressureEstimator::Windowed,
            escalate_at: 0.35,
            severe_at: 0.6,
            deescalate_at: 0.05,
            cooldown: 4,
            min_dwell: 3,
            n,
            alpha_budget,
            target_tail: 1e-6,
            gossip: None,
        }
    }

    /// [`AdaptiveConfig::standard`] with the EWMA estimator at
    /// `λ = 0.5` — the same effective horizon as the default 2-round
    /// window, so the two modes make identical decisions on clean and
    /// hard-burst channels.
    pub fn standard_ewma(n: usize, alpha_budget: u32) -> Self {
        AdaptiveConfig {
            estimator: PressureEstimator::Ewma { lambda: 0.5 },
            ..Self::standard(n, alpha_budget)
        }
    }

    /// [`AdaptiveConfig::standard`] with the CUSUM change-point
    /// estimator at `drift = 0.25, cap = 1.0` — pinned by unit tests to
    /// the windowed estimator's rung schedule on the clean and
    /// hard-burst presets.
    pub fn standard_cusum(n: usize, alpha_budget: u32) -> Self {
        AdaptiveConfig {
            estimator: PressureEstimator::Cusum {
                drift: 0.25,
                cap: 1.0,
            },
            ..Self::standard(n, alpha_budget)
        }
    }

    /// Enables rung gossip with the default [`GossipConfig`] (quorum
    /// 2): the controller piggybacks a [`RungAdvert`] on every tagged
    /// frame and adopts the max-epoch rung advertised by a quorum of
    /// peers — closing the convergence lag of independent controllers
    /// under correlated bursts without any extra messages. Hysteresis
    /// on self-decided switches and the last-resort guard are
    /// preserved; gossip adoption itself resets the dwell clock,
    /// observation window, and calm streak like any other switch.
    ///
    /// Gossiping ladders are limited to 8 rungs (the advertisement
    /// packs the rung into 3 bits) — [`AdaptiveController::new`] panics
    /// past that.
    pub fn with_gossip(mut self) -> Self {
        self.gossip = Some(GossipConfig::default());
        self
    }

    /// Appends the content-oblivious pattern rung
    /// ([`CodeSpec::Oblivious`]) below the brute-force last resort —
    /// the rung for links where *no* content survives
    /// (`NoiseTrace::fully_defective`). Values travel as frame arrival
    /// counts; payload bytes are untrusted garbage.
    ///
    /// The rung inherits the ladder's final-rung guards automatically:
    /// it is entered only single-step, after repetition coding itself
    /// demonstrably failed (the severe two-rung jump never lands on
    /// the final rung), gossip neither adopts into it nor moves a
    /// controller off it, and descent off it is clamped to one rung —
    /// count-signal calm says the pattern channel is quiet, not that
    /// content suddenly survives, so the controller re-probes content
    /// viability on the strongest content rung first.
    pub fn with_oblivious(mut self) -> Self {
        self.ladder.push(CodeSpec::Oblivious);
        self
    }

    /// [`AdaptiveConfig::with_gossip`] with an explicit
    /// [`GossipConfig`] — the entry point the model checker's parameter
    /// sweep uses to probe quorum/join points away from the derived
    /// defaults (and to replay counterexamples found there through the
    /// real substrates).
    pub fn with_gossip_config(mut self, gossip: GossipConfig) -> Self {
        self.gossip = Some(gossip);
        self
    }

    fn validate(&self) {
        assert!(
            !self.ladder.is_empty(),
            "the ladder needs at least one rung"
        );
        assert!(self.window >= 1, "the estimation window must be nonempty");
        assert!(
            self.window <= MAX_WINDOW,
            "the estimation window must fit the heap-free tally ring \
             (window {} > MAX_WINDOW {MAX_WINDOW})",
            self.window
        );
        assert!(
            self.ladder.len() <= 128,
            "ladders share the 1-byte wire id space of CodeBook \
             (1..=128 codes), got {}",
            self.ladder.len()
        );
        assert!(
            self.deescalate_at < self.escalate_at,
            "hysteresis requires deescalate_at < escalate_at \
             (got {} vs {})",
            self.deescalate_at,
            self.escalate_at
        );
        assert!(
            self.severe_at >= self.escalate_at,
            "the two-rung threshold must not undercut the one-rung one \
             (got severe_at {} vs escalate_at {})",
            self.severe_at,
            self.escalate_at
        );
        assert!(self.n >= 1, "system must have at least one process");
        match self.estimator {
            PressureEstimator::Windowed => {}
            PressureEstimator::Ewma { lambda } => {
                assert!(
                    lambda > 0.0 && lambda <= 1.0,
                    "the EWMA smoothing factor must lie in (0, 1], got {lambda}"
                );
            }
            PressureEstimator::Cusum { drift, cap } => {
                assert!(
                    drift > 0.0 && drift < 1.0,
                    "the CUSUM drift must lie in (0, 1), got {drift}"
                );
                assert!(cap > 0.0, "the CUSUM cap must be positive, got {cap}");
            }
        }
        let oblivious = self
            .ladder
            .iter()
            .filter(|s| matches!(s, CodeSpec::Oblivious))
            .count();
        if oblivious > 0 {
            assert!(
                oblivious == 1 && self.ladder.last() == Some(&CodeSpec::Oblivious),
                "the content-oblivious rung must be the ladder's single \
                 last resort (it refuses content, so no rung can sit \
                 below it)"
            );
        }
        if let Some(g) = self.gossip {
            assert!(g.quorum >= 1, "the gossip quorum must be at least 1");
            assert!(
                self.ladder.len() <= 8,
                "a gossiping ladder packs its rung into 3 wire bits and \
                 holds at most 8 rungs, got {}",
                self.ladder.len()
            );
        }
    }
}

/// The smallest budget `α ≤ n` whose Chernoff upper tail for a
/// Binomial/Poisson-like per-round undetected-corruption count with
/// mean `mu` is below `tail_bound`.
///
/// This is the canonical padding rule of the workspace; the
/// implementation lives in `heardof_telemetry` (next to the
/// [`heardof_telemetry::AlphaLedger`] that feeds it observed rates),
/// and `heardof_net::recommend_alpha_for_mean`, the bench harness and
/// this re-export all delegate there so the logic lives in one place.
pub fn chernoff_alpha_for_mean(mu: f64, n: usize, tail_bound: f64) -> u32 {
    heardof_telemetry::chernoff_alpha_for_mean(mu, n, tail_bound)
}

/// Why a controller moved rungs — recorded on every switch so the
/// telemetry plane can attribute ladder motion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchCause {
    /// Self-decided climb: pressure beat the current rung.
    Escalate,
    /// Self-decided descent: a calm window released the rung.
    Release,
    /// Quorum-backed gossip adoption of a newer peer decision.
    Adopt,
    /// Majority-join: conceded to a standing peer majority.
    Join,
}

impl SwitchCause {
    /// Stable wire code (packed into telemetry `RungSwitch` events).
    pub const fn code(self) -> u8 {
        match self {
            SwitchCause::Escalate => 0,
            SwitchCause::Release => 1,
            SwitchCause::Adopt => 2,
            SwitchCause::Join => 3,
        }
    }

    /// Stable snake_case name for dumps and reports.
    pub const fn name(self) -> &'static str {
        match self {
            SwitchCause::Escalate => "escalate",
            SwitchCause::Release => "release",
            SwitchCause::Adopt => "adopt",
            SwitchCause::Join => "join",
        }
    }
}

/// Deterministic per-round code selection over an escalation ladder.
///
/// Feed one [`RoundTally`] per round via [`AdaptiveController::observe`];
/// the returned spec (when `Some`) takes effect for the *next* round's
/// sends. All state is derived from the observation sequence — no
/// clocks, no randomness — so replicas observing identical tallies make
/// identical decisions.
///
/// # Examples
///
/// ```
/// use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeSpec, RoundTally};
///
/// let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
/// assert_eq!(ctl.current(), CodeSpec::Checksum { width: 4 });
/// // A severe round (most frames rejected by the checksum) jumps the
/// // ladder straight to burst-grade correction.
/// let noisy = RoundTally { expected: 7, delivered: 1, corrected: 0, value_faults: 0, evidence: 0 };
/// assert_eq!(ctl.observe(noisy), Some(CodeSpec::Interleaved { depth: 16 }));
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    /// The pure decision state [`step`] evolves — everything a replica
    /// needs to make the same decisions, nothing more.
    state: CtlState,
    rounds_observed: u64,
    switches: usize,
    /// Why the most recent switch happened (`None` until the first).
    last_cause: Option<SwitchCause>,
    /// Rounds in which gossip was considered but declined because this
    /// controller sits pinned on the last-resort rung.
    pins: u64,
}

/// Capacity of the heap-free tally ring inside [`CtlState`];
/// [`AdaptiveConfig::window`] must fit (configuration validation
/// enforces it). Eight covers every shipped preset with room to spare
/// while keeping the state `Copy` and cheap to hash — which is what
/// lets the exhaustive model checker (`heardof-mc`) dedup visited
/// product states by value.
pub const MAX_WINDOW: usize = 8;

/// The last [`AdaptiveConfig::window`] round tallies as a
/// fixed-capacity ring: the heap-free replacement for the controller's
/// old `VecDeque`, so the whole decision state is `Copy + Eq + Hash`.
/// Slots past [`TallyWindow::len`] are always zeroed, making structural
/// equality coincide with state equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TallyWindow {
    len: u8,
    slots: [RoundTally; MAX_WINDOW],
}

impl TallyWindow {
    const EMPTY_SLOT: RoundTally = RoundTally {
        expected: 0,
        delivered: 0,
        corrected: 0,
        value_faults: 0,
        evidence: 0,
    };

    /// The empty window.
    pub const fn empty() -> Self {
        TallyWindow {
            len: 0,
            slots: [Self::EMPTY_SLOT; MAX_WINDOW],
        }
    }

    /// Appends one round, evicting the oldest once `cap` rounds are
    /// held. Public so the model checker can rebuild a window from its
    /// packed node encoding; [`step`] is the only production caller.
    pub fn push(&mut self, tally: RoundTally, cap: usize) {
        debug_assert!((1..=MAX_WINDOW).contains(&cap));
        if (self.len as usize) >= cap.min(MAX_WINDOW) {
            self.slots.copy_within(1..self.len as usize, 0);
            self.slots[self.len as usize - 1] = tally;
        } else {
            self.slots[self.len as usize] = tally;
            self.len += 1;
        }
    }

    /// Drops every held round (see [`TallyWindow::push`] on why this
    /// is public).
    pub fn clear(&mut self) {
        *self = Self::empty();
    }

    /// Rounds currently held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no rounds are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the held tallies, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, RoundTally> {
        self.slots[..self.len as usize].iter()
    }
}

/// Smoothed-estimator state: the EWMA averages or CUSUM statistics for
/// (pressure, activity, corrected rate), depending on the configured
/// [`PressureEstimator`]. Equality and hashing are bitwise over the
/// IEEE representations — the estimator is a deterministic function of
/// the observation sequence, so bit-equality is exactly the "same
/// state" relation conformance and model checking need.
#[derive(Clone, Copy, Debug)]
pub struct EstState {
    /// Smoothed fault-pressure estimate.
    pub pressure: f64,
    /// Smoothed channel-activity estimate.
    pub activity: f64,
    /// Smoothed corrected-rate estimate.
    pub corrected: f64,
}

impl PartialEq for EstState {
    fn eq(&self, other: &Self) -> bool {
        self.pressure.to_bits() == other.pressure.to_bits()
            && self.activity.to_bits() == other.activity.to_bits()
            && self.corrected.to_bits() == other.corrected.to_bits()
    }
}

impl Eq for EstState {}

impl std::hash::Hash for EstState {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.pressure.to_bits().hash(h);
        self.activity.to_bits().hash(h);
        self.corrected.to_bits().hash(h);
    }
}

/// The complete decision state of one controller: a plain `Copy` value
/// with no heap behind it, evolved exclusively by the pure [`step`]
/// function. The simulator, the threaded runtime, the async runtime
/// (all via [`AdaptiveController`]) and the exhaustive model checker
/// (`heardof-mc`, which hashes these by value to dedup its search)
/// drive the *same* transition — there is no second implementation to
/// drift.
///
/// Two clocks are deliberately saturating at exactly the bound their
/// guard reads, which keeps the reachable state space finite without
/// changing any decision:
/// [`CtlState::rounds_since_switch`] caps at `min_dwell + 1` (only ever
/// compared `<= min_dwell`) and [`CtlState::calm_streak`] caps at
/// `cooldown` (only ever compared `>= cooldown`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CtlState {
    /// The current ladder rung (0 = cheapest).
    pub rung: u8,
    /// The gossip switch epoch (modulo 16) of this controller's
    /// *current rung decision*: a Lamport-style logical clock — every
    /// self-decided switch stamps itself one past the newest epoch this
    /// controller has seen ([`CtlState::latest_epoch`]), so a fresh
    /// decision anywhere in the group reads as *newer* to every peer
    /// regardless of how many times each controller has switched
    /// before. Synchronized to the adopted advertisement on gossip
    /// adoption. Maintained even with gossip off (it is a pure function
    /// of the observation sequence either way); only advertised when
    /// [`AdaptiveConfig::gossip`] is set.
    pub epoch: u8,
    /// The newest epoch seen so far (serial max over own switches and
    /// every in-ladder advertisement) — the logical-clock frontier that
    /// the next self-decided switch stamps itself past.
    pub latest_epoch: u8,
    /// Majority-join bookkeeping: the rung a strict majority of peers
    /// advertised last round and for how many consecutive rounds, when
    /// it differs from this controller's own.
    pub majority_seen: Option<(u8, u8)>,
    /// Rounds since the last switch, saturating at
    /// `min_dwell + 1` (the dwell guard reads `<= min_dwell`; nothing
    /// reads past it).
    pub rounds_since_switch: u64,
    /// Consecutive calm rounds, saturating at `cooldown` (the release
    /// guard reads `>= cooldown`; nothing reads past it).
    pub calm_streak: u64,
    /// The recent-round tally window the estimators read.
    pub window: TallyWindow,
    /// Smoothed-estimator state; `None` until the first observation
    /// after construction or a switch, so each rung's estimate is
    /// seeded from its own first round — the smoothed analogue of
    /// clearing the window. Stays `None` in
    /// [`PressureEstimator::Windowed`] mode.
    pub est: Option<EstState>,
}

impl CtlState {
    /// The start state for `cfg`: rung 0, epoch 0, and a dwell clock
    /// born expired, so a burst in the very first window escalates
    /// immediately.
    pub fn initial(cfg: &AdaptiveConfig) -> Self {
        CtlState {
            rung: 0,
            epoch: 0,
            latest_epoch: 0,
            majority_seen: None,
            rounds_since_switch: cfg.min_dwell,
            calm_streak: 0,
            window: TallyWindow::empty(),
            est: None,
        }
    }

    /// Smoothed fault pressure under `cfg`'s estimator: the estimated
    /// fraction of expected frames that fail to arrive intact — window
    /// totals by default, the EWMA average or CUSUM statistic
    /// otherwise.
    pub fn pressure(&self, cfg: &AdaptiveConfig) -> f64 {
        match cfg.estimator {
            PressureEstimator::Windowed => self.windowed(|t| t.omissions() + t.value_faults),
            _ => self.est.map_or(0.0, |e| e.pressure),
        }
    }

    /// Smoothed channel activity (pressure plus repaired deliveries) —
    /// what de-escalation waits on.
    pub fn activity(&self, cfg: &AdaptiveConfig) -> f64 {
        match cfg.estimator {
            PressureEstimator::Windowed => {
                self.windowed(|t| t.omissions() + t.corrected + t.value_faults + t.evidence)
            }
            _ => self.est.map_or(0.0, |e| e.activity),
        }
    }

    /// Smoothed fraction of expected frames delivered *after repair* —
    /// evidence the current rung is actively winning against the noise.
    pub fn corrected_rate(&self, cfg: &AdaptiveConfig) -> f64 {
        match cfg.estimator {
            PressureEstimator::Windowed => self.windowed(|t| t.corrected),
            _ => self.est.map_or(0.0, |e| e.corrected),
        }
    }

    /// Window totals of `count` over expected frames.
    fn windowed(&self, count: impl Fn(&RoundTally) -> usize) -> f64 {
        let (mut expected, mut hits) = (0usize, 0usize);
        for t in self.window.iter() {
            expected += t.expected;
            hits += count(t);
        }
        if expected == 0 {
            0.0
        } else {
            hits as f64 / expected as f64
        }
    }

    /// The `α` budget the windowed value-fault estimate demands at the
    /// configured tail, via [`chernoff_alpha_for_mean`].
    pub fn projected_alpha(&self, cfg: &AdaptiveConfig) -> u32 {
        let rounds = self.window.len().max(1) as f64;
        let mu = self.window.iter().map(|t| t.value_faults).sum::<usize>() as f64 / rounds;
        chernoff_alpha_for_mean(mu, cfg.n, cfg.target_tail)
    }

    /// `true` when the projected demand fits the configured budget.
    pub fn palpha_feasible(&self, cfg: &AdaptiveConfig) -> bool {
        self.projected_alpha(cfg) <= cfg.alpha_budget
    }
}

/// What one [`step`] decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StepOutcome {
    /// `Some(cause)` when the controller switched rungs this round (the
    /// new rung is in the state); `None` when it held.
    pub switched: Option<SwitchCause>,
    /// `true` when gossip was considered but declined because the
    /// controller sits pinned on the last-resort rung.
    pub pinned: bool,
}

/// One round of the controller + gossip decision machine, as a pure
/// function: fold one round's [`RoundTally`] and the peer
/// advertisements heard on kept frames into `st`, returning what was
/// decided. No heap, no clocks, no randomness — identical
/// `(cfg, state, tally, ads)` yields identical successors on every
/// substrate *and* inside the model checker, which is the point: the
/// exhaustive search in `crates/mc` explores exactly the transition the
/// production substrates execute.
///
/// Self-decided escalation and de-escalation run first; only when the
/// controller holds does the gossip policy consider adopting a
/// newer-epoch rung from a quorum of peers (no-op unless
/// [`AdaptiveConfig::gossip`] is set).
pub fn step(
    cfg: &AdaptiveConfig,
    st: &mut CtlState,
    tally: RoundTally,
    ads: &[RungAdvert],
) -> StepOutcome {
    st.rounds_since_switch = st
        .rounds_since_switch
        .saturating_add(1)
        .min(cfg.min_dwell.saturating_add(1));
    st.window.push(tally, cfg.window);
    update_estimate(cfg, st, tally);
    // Advance the logical-clock frontier over every in-ladder
    // advertisement (adopted or not), so a self-decided switch below
    // stamps itself past everything the group has decided.
    for ad in ads {
        if (ad.rung as usize) < cfg.ladder.len()
            && RungAdvert::epoch_newer(ad.epoch, st.latest_epoch)
        {
            st.latest_epoch = ad.epoch;
        }
    }

    // Calm means *no channel activity*, not just no losses: a rung
    // that is silently repairing a burst is doing its job, and
    // stepping down mid-burst is exactly the whipsaw an oscillating
    // adversary wants.
    if tally.activity() <= cfg.deescalate_at {
        st.calm_streak = st.calm_streak.saturating_add(1).min(cfg.cooldown);
    } else {
        st.calm_streak = 0;
    }

    if st.rounds_since_switch <= cfg.min_dwell {
        // The dwell clock gates only *self*-decided switches. Gossip
        // adoption stays live: its rate is already bounded upstream —
        // epochs only advance when some peer genuinely switches, and
        // every such switch paid its own hysteresis. Dwell-gating
        // adoption would recreate the very lag gossip exists to close
        // (a laggard that took the one-rung step right before its
        // peers severe-jumped would sit out the dwell on the wrong
        // rung).
        return gossip_step(cfg, st, ads);
    }

    let windowed = st.pressure(cfg);
    // High pressure alone is not enough to climb: a rung that repairs
    // at least half as many frames as it loses is still *coping* with
    // the noise — escalating off it during a dip is the spurious
    // switch statistical spikes would otherwise cause (and each rung
    // up costs rate). Only when losses clearly outrun repairs is the
    // rung beaten. The `P_α` projection overrides: leaked value
    // faults always escalate.
    let losing = windowed > cfg.escalate_at && windowed > 2.0 * st.corrected_rate(cfg);
    if (losing || !st.palpha_feasible(cfg)) && (st.rung as usize) + 1 < cfg.ladder.len() {
        // A hard burst — any window round with pressure past severe_at
        // — jumps two rungs: the middle rung's per-block correction is
        // already beaten, and its miscorrections would leak α while it
        // dwells. Judging severity on the worst round (not the newest)
        // keeps a burst that started mid-round from sneaking the
        // controller onto the middle rung. The jump never lands on the
        // final rung, though: the last resort is entered only
        // single-step, after its predecessor demonstrably failed.
        let severe = st
            .window
            .iter()
            .map(RoundTally::pressure)
            .fold(0.0, f64::max)
            > cfg.severe_at;
        let jump = if severe && (st.rung as usize) + 2 + 1 < cfg.ladder.len() {
            2
        } else {
            1
        };
        st.rung += jump;
        switch_self(st);
        return StepOutcome {
            switched: Some(SwitchCause::Escalate),
            pinned: false,
        };
    }
    if st.rung > 0 && st.calm_streak >= cfg.cooldown && st.activity(cfg) <= cfg.deescalate_at {
        // A window with essentially zero activity releases two rungs
        // at once (mirroring the severe jump up); residual activity
        // steps down one rung at a time. Off the content-oblivious
        // rung the release is always single-step: count-signal calm
        // says the pattern channel is quiet, not that content survives
        // — re-probe content viability on the strongest content rung
        // before descending further.
        let oblivious = cfg.ladder[st.rung as usize] == CodeSpec::Oblivious;
        let jump = if !oblivious && st.activity(cfg) <= cfg.deescalate_at / 2.0 {
            2
        } else {
            1
        };
        st.rung = st.rung.saturating_sub(jump);
        switch_self(st);
        return StepOutcome {
            switched: Some(SwitchCause::Release),
            pinned: false,
        };
    }
    gossip_step(cfg, st, ads)
}

/// Folds one round's rates into the smoothed-estimator state (no-op in
/// windowed mode).
fn update_estimate(cfg: &AdaptiveConfig, st: &mut CtlState, tally: RoundTally) {
    let (p, a) = (tally.pressure(), tally.activity());
    let c = if tally.expected == 0 {
        0.0
    } else {
        tally.corrected as f64 / tally.expected as f64
    };
    match cfg.estimator {
        PressureEstimator::Windowed => {}
        PressureEstimator::Ewma { lambda } => {
            st.est = Some(match st.est {
                None => EstState {
                    pressure: p,
                    activity: a,
                    corrected: c,
                },
                Some(e) => EstState {
                    pressure: e.pressure + lambda * (p - e.pressure),
                    activity: e.activity + lambda * (a - e.activity),
                    corrected: e.corrected + lambda * (c - e.corrected),
                },
            });
        }
        PressureEstimator::Cusum { drift, cap } => {
            let fold = |s: f64, x: f64| (s + x - drift).clamp(0.0, cap);
            let e = st.est.unwrap_or(EstState {
                pressure: 0.0,
                activity: 0.0,
                corrected: 0.0,
            });
            st.est = Some(EstState {
                pressure: fold(e.pressure, p),
                activity: fold(e.activity, a),
                corrected: fold(e.corrected, c),
            });
        }
    }
}

/// The gossip adoption rule: among the round's advertisements, keep
/// those naming a valid non-last-resort rung that is *newer* than this
/// controller's own decision — a strictly newer epoch (serial
/// comparison), or the same epoch with a higher rung (the tie-break
/// that resolves simultaneous split decisions toward the safe,
/// more-protected direction); pick the newest such advertisement;
/// adopt only when a quorum of qualifying peers advertise that same
/// rung.
///
/// Guards, in order of what they defend against:
///
/// * **in-ladder validation** — a corrupted advert byte can name rung
///   0..=7 regardless of ladder length; out-of-ladder rungs never
///   qualify;
/// * **last-resort pin** — gossip neither adopts *into* the final rung
///   (it is entered only single-step, after its predecessor
///   demonstrably failed) nor moves a controller *off* it (descent
///   from the brute-force rung stays calm-driven);
/// * **serial epochs** — an advert whose epoch reads more than half
///   the 4-bit window "ahead" is stale or forged and is ignored;
/// * **the quorum** — one corrupted byte is one peer's voice; two
///   independent links must agree byte-for-byte on rung and qualify on
///   epoch in the same round to move a controller.
fn gossip_step(cfg: &AdaptiveConfig, st: &mut CtlState, ads: &[RungAdvert]) -> StepOutcome {
    const HOLD: StepOutcome = StepOutcome {
        switched: None,
        pinned: false,
    };
    let Some(gossip) = cfg.gossip else {
        return HOLD;
    };
    let last = cfg.ladder.len() - 1;
    if st.rung as usize == last {
        // The last-resort pin, in both directions: gossip neither
        // enters the brute-force rung (filtered below) nor leaves it —
        // a controller that watched every cheaper rung fail descends
        // on its own calm evidence, not on advertisements
        // (`tests/gossip_faults.rs` blasts every forged byte value at
        // a pinned controller to hold this line).
        return StepOutcome {
            switched: None,
            pinned: !ads.is_empty(),
        };
    }
    let newer_than_mine = |a: &RungAdvert| {
        RungAdvert::epoch_newer(a.epoch, st.epoch) || (a.epoch == st.epoch && a.rung > st.rung)
    };
    let qualifies = |a: &RungAdvert| {
        (a.rung as usize) < cfg.ladder.len() && (a.rung as usize) != last && newer_than_mine(a)
    };
    // Quorum first, newest second: tally the qualifying advertisements
    // per rung and adopt the newest *quorum-backed* camp. Checking the
    // quorum only against the single newest-epoch advertisement would
    // let one lone — or one even-weight-forged, parity-passing — newer
    // advert veto a camp that actually has the votes. (Qualifying
    // rungs are in-ladder, and gossiping ladders hold ≤ 8 rungs.)
    let mut votes = [0usize; 8];
    for a in ads {
        if qualifies(a) {
            votes[a.rung as usize] += 1;
        }
    }
    let mut best: Option<(u8, u8, u8)> = None; // (distance, rung, epoch)
    for a in ads {
        if !qualifies(a) || votes[a.rung as usize] < gossip.quorum {
            continue;
        }
        let candidate = (
            RungAdvert::epoch_distance(a.epoch, st.epoch),
            a.rung,
            a.epoch,
        );
        if best.is_none_or(|b| (b.0, b.1) < (candidate.0, candidate.1)) {
            best = Some(candidate);
        }
    }
    if let Some((_, rung, epoch)) = best {
        // Synchronize the epoch either way, so the group converges on
        // one (rung, epoch) pair and future comparisons stay aligned.
        st.epoch = epoch % EPOCH_MODULUS;
        if rung == st.rung {
            st.majority_seen = None;
            return HOLD; // already there: epoch sync, no switch
        }
        st.rung = rung;
        switch_common(st);
        return StepOutcome {
            switched: Some(SwitchCause::Adopt),
            pinned: false,
        };
    }
    // Majority-join: the newest-decision rule cannot pull back a
    // *lone* leader — its own epoch is the group's newest, so no
    // advertisement ever reads as newer, and a rung escalated onto
    // over a private noise spike is self-sustaining (its own repair
    // activity pins it, and its peers' cheaper frames dying in a burst
    // read to it as fresh pressure) while the majority sits calm rungs
    // below. A controller that watches a strict majority of its peers
    // advertise the same lower rung for `join_rounds` consecutive
    // rounds therefore concedes and descends to them, whatever their
    // epochs.
    // The stability requirement — not the dwell clock, which a
    // climbing leader resets on every step — is what distinguishes a
    // standing split from a burst-onset transient (at onset, the
    // majority reaches the leader's rung within a round and the streak
    // never completes); the majority bar (> half the peers) is far
    // above what one corrupted advertisement byte can fake. Joining
    // *into* the last resort is excluded like everywhere else in
    // gossip: the brute-force rung is entered only single-step, after
    // its predecessor demonstrably failed (and left only on own calm
    // evidence — the pin above).
    let mut counts = [0usize; 8];
    for a in ads {
        if (a.rung as usize) < cfg.ladder.len() && (a.rung as usize) != last {
            counts[a.rung as usize] += 1;
        }
    }
    let majority = (cfg.n - 1) / 2 + 1;
    // Deterministic scan: prefer the larger camp, ties toward the
    // higher (safer) rung. Only camps *below* this controller qualify:
    // the join exists to pull a lone high leader down to a standing
    // calm majority. Upward convergence already has two owners —
    // epoch adoption (a laggard's peers advertise strictly newer
    // decisions) and the controller's own escalation (a channel that
    // genuinely needs the higher rung shows it pressure) — and an
    // upward join is actively harmful: the exhaustive checker
    // (`heardof-mc`) found a calm-network livelock where the node
    // that just released to rung 0 with the group's newest epoch was
    // majority-joined back up to the camp its peers were themselves
    // about to release out of, rotating [0, 1, 1] forever. Descent-only
    // joins make the all-calm suffix from every reachable divergent
    // state reconverge.
    let camp = counts[..cfg.ladder.len()]
        .iter()
        .enumerate()
        .max_by_key(|(r, c)| (**c, *r))
        .filter(|(rung, &count)| count >= majority && *rung < st.rung as usize)
        .map(|(rung, _)| rung as u8);
    match camp {
        Some(rung) => {
            let streak = match st.majority_seen {
                Some((r, s)) if r == rung => s.saturating_add(1),
                _ => 1,
            };
            if streak >= gossip.join_rounds {
                st.rung = rung;
                switch_common(st);
                return StepOutcome {
                    switched: Some(SwitchCause::Join),
                    pinned: false,
                };
            }
            st.majority_seen = Some((rung, streak));
        }
        None => st.majority_seen = None,
    }
    HOLD
}

/// A self-decided switch: common bookkeeping plus an epoch stamp one
/// past the logical-clock frontier — this controller originated a new
/// rung decision, and every peer (whatever its own switch history)
/// must read it as the group's newest.
fn switch_self(st: &mut CtlState) {
    st.epoch = (st.latest_epoch + 1) % EPOCH_MODULUS;
    st.latest_epoch = st.epoch;
    switch_common(st);
}

fn switch_common(st: &mut CtlState) {
    st.rounds_since_switch = 0;
    // Each step down must re-earn its calm streak: descent is gradual
    // even through a long quiet stretch.
    st.calm_streak = 0;
    // Judge every rung on its own observations: tallies gathered under
    // the previous code would otherwise read as this rung's losses
    // (stale checksum-era omissions escalating a correcting rung that
    // is actually coping). The smoothed estimator resets too — it
    // re-seeds from the new rung's first round.
    st.window.clear();
    st.est = None;
    // A switch changes which camp is "different": the majority-join
    // streak starts over from the new rung's perspective.
    st.majority_seen = None;
}

impl AdaptiveController {
    /// A controller starting at rung 0 of `cfg.ladder`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (empty ladder, zero window,
    /// or a non-hysteretic threshold pair).
    pub fn new(cfg: AdaptiveConfig) -> Self {
        cfg.validate();
        let state = CtlState::initial(&cfg);
        AdaptiveController {
            cfg,
            state,
            rounds_observed: 0,
            switches: 0,
            last_cause: None,
            pins: 0,
        }
    }

    /// A controller resumed at an arbitrary decision state — the model
    /// checker's door back into the production type: a counterexample
    /// prefix replayed by [`step`] can be handed to the real substrates
    /// mid-flight. Diagnostics (switch and pin counters) start at zero.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, exactly like
    /// [`AdaptiveController::new`].
    pub fn from_state(cfg: AdaptiveConfig, state: CtlState) -> Self {
        cfg.validate();
        AdaptiveController {
            cfg,
            state,
            rounds_observed: 0,
            switches: 0,
            last_cause: None,
            pins: 0,
        }
    }

    /// The pure decision state this controller currently holds — what
    /// [`step`] evolves, and what the exhaustive model checker hashes.
    pub fn state(&self) -> &CtlState {
        &self.state
    }

    /// The code in force for the next send.
    pub fn current(&self) -> CodeSpec {
        self.cfg.ladder[self.state.rung as usize]
    }

    /// The wire id of the current code (its ladder index).
    pub fn code_id(&self) -> u8 {
        self.state.rung
    }

    /// The current rung index (0 = cheapest).
    pub fn rung(&self) -> usize {
        self.state.rung as usize
    }

    /// Number of switches performed so far.
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Why the most recent switch happened (`None` before any switch).
    pub fn last_switch_cause(&self) -> Option<SwitchCause> {
        self.last_cause
    }

    /// How often gossip was considered but declined because this
    /// controller is pinned on the last-resort rung.
    pub fn gossip_pins(&self) -> u64 {
        self.pins
    }

    /// Rounds observed so far.
    pub fn rounds_observed(&self) -> u64 {
        self.rounds_observed
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The controller's gossip switch epoch (modulo 16).
    pub fn epoch(&self) -> u8 {
        self.state.epoch
    }

    /// The rung advertisement this controller piggybacks on its frames
    /// — `Some` exactly when gossip is configured.
    pub fn advert(&self) -> Option<RungAdvert> {
        self.cfg.gossip.map(|_| RungAdvert {
            rung: self.state.rung,
            epoch: self.state.epoch,
        })
    }

    /// Smoothed fault pressure: the estimated fraction of expected
    /// frames that fail to arrive intact — window totals by default,
    /// EWMA of per-round rates under [`PressureEstimator::Ewma`], the
    /// change-point statistic under [`PressureEstimator::Cusum`].
    pub fn pressure(&self) -> f64 {
        self.state.pressure(&self.cfg)
    }

    /// Smoothed channel activity (pressure plus repaired deliveries) —
    /// what de-escalation waits on.
    pub fn activity(&self) -> f64 {
        self.state.activity(&self.cfg)
    }

    /// Smoothed fraction of expected frames delivered *after repair* —
    /// evidence the current rung is actively winning against the noise.
    pub fn corrected_rate(&self) -> f64 {
        self.state.corrected_rate(&self.cfg)
    }

    /// The `α` budget the windowed value-fault estimate demands at the
    /// configured tail, via [`chernoff_alpha_for_mean`].
    pub fn projected_alpha(&self) -> u32 {
        self.state.projected_alpha(&self.cfg)
    }

    /// `true` when the projected demand fits the configured budget.
    pub fn palpha_feasible(&self) -> bool {
        self.state.palpha_feasible(&self.cfg)
    }

    /// Feeds one round's observations. Returns `Some(new_code)` when
    /// the controller switches rungs (effective from the next send),
    /// `None` when it holds. Equivalent to
    /// [`AdaptiveController::observe_with_gossip`] with no peer
    /// advertisements.
    pub fn observe(&mut self, tally: RoundTally) -> Option<CodeSpec> {
        self.observe_with_gossip(tally, &[])
    }

    /// Feeds one round's observations plus the rung advertisements
    /// piggybacked on the frames kept this round (at most one per
    /// peer). Self-decided escalation and de-escalation run first,
    /// exactly as in [`AdaptiveController::observe`]; only when the
    /// controller holds does the gossip policy consider adopting a
    /// newer-epoch rung from a quorum of peers (no-op unless
    /// [`AdaptiveConfig::gossip`] is set). Still a pure function of the
    /// observation sequence — identical tallies *and* advertisements
    /// yield identical decisions on every substrate.
    pub fn observe_with_gossip(
        &mut self,
        tally: RoundTally,
        ads: &[RungAdvert],
    ) -> Option<CodeSpec> {
        self.rounds_observed += 1;
        let out = step(&self.cfg, &mut self.state, tally, ads);
        self.pins += u64::from(out.pinned);
        match out.switched {
            Some(cause) => {
                self.switches += 1;
                self.last_cause = Some(cause);
                Some(self.current())
            }
            None => None,
        }
    }
}

/// The ladder's wire identity: code-id-tagged framing for mixed-epoch
/// decode.
///
/// A tagged wire image is `[id] ++ code.encode(body)` where `id` is the
/// code's ladder index. Receivers decode *any* epoch's frames exactly,
/// even mid-renegotiation; a corrupted id byte maps to a missing or
/// mismatched code and the frame is rejected — a detected omission,
/// never a silent fault.
///
/// Gossiping senders use the version-gated extension
/// `[GOSSIP_FLAG | id] [advert] ++ code.encode(body)`: the high bit of
/// the id byte announces that one [`RungAdvert`] byte follows before
/// the coded body (which is why ids stop at 127). A pre-gossip decoder
/// reading a gossip frame sees an unknown id and rejects it cleanly; a
/// gossip-aware decoder reads legacy frames unchanged — the two
/// formats interoperate with `Delivered`-or-`DetectedOmission`
/// semantics in both directions, never a misparse (a proptest in
/// `tests/code_props.rs` pins this).
pub struct CodeBook {
    specs: Vec<CodeSpec>,
    codes: Vec<Arc<dyn ChannelCode>>,
}

/// A fully decoded tagged wire image: which code epoch it named,
/// whether the decoder repaired channel errors, the piggybacked rung
/// advertisement (if the sender gossips), and the recovered body — a
/// [`Cow`] that stays borrowed from the wire whenever the named code
/// decodes in place (`none`, `checksum*`), the zero-copy receive path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedWire<'a> {
    /// The ladder index the frame named.
    pub code_id: u8,
    /// `true` when the code corrected errors while decoding.
    pub repaired: bool,
    /// The sender's rung advertisement, when the frame carries one.
    pub advert: Option<RungAdvert>,
    /// The decoded body, borrowed from the wire when the code allows.
    pub body: Cow<'a, [u8]>,
}

/// Why a [`CodeBook`] could not be built from a ladder of specs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeBookError {
    /// No specs were given — a book must hold at least one code.
    Empty,
    /// More than 128 specs: ids are one wire byte whose high bit is the
    /// [`GOSSIP_FLAG`], so the id space stops at 127. Carries the
    /// offending length.
    TooLarge(usize),
}

impl std::fmt::Display for CodeBookError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeBookError::Empty => write!(f, "a code book holds 1..=128 codes, got 0"),
            CodeBookError::TooLarge(n) => {
                write!(f, "a code book holds 1..=128 codes, got {n}")
            }
        }
    }
}

impl std::error::Error for CodeBookError {}

impl CodeBook {
    /// Builds the book for a ladder of specs, checking the id-space
    /// bound: ids are one wire byte whose high bit is the
    /// [`GOSSIP_FLAG`], so a book holds 1..=128 codes.
    ///
    /// # Errors
    ///
    /// [`CodeBookError::Empty`] for an empty ladder,
    /// [`CodeBookError::TooLarge`] past 128 specs.
    pub fn new(specs: &[CodeSpec]) -> Result<Self, CodeBookError> {
        if specs.is_empty() {
            return Err(CodeBookError::Empty);
        }
        if specs.len() > GOSSIP_FLAG as usize {
            return Err(CodeBookError::TooLarge(specs.len()));
        }
        Ok(CodeBook {
            specs: specs.to_vec(),
            codes: specs.iter().map(|s| s.build()).collect(),
        })
    }

    /// Builds the book for a ladder of specs (the infallible
    /// convenience over [`CodeBook::new`] for statically-sized ladders).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or longer than 128 entries (ids are
    /// one byte whose high bit is the [`GOSSIP_FLAG`]); configurations
    /// built at runtime should use [`CodeBook::new`] and surface the
    /// [`CodeBookError`] instead.
    pub fn from_specs(specs: &[CodeSpec]) -> Self {
        Self::new(specs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of codes in the book.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the book is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The spec registered under `id`, if any.
    pub fn spec(&self, id: u8) -> Option<CodeSpec> {
        self.specs.get(id as usize).copied()
    }

    /// The code registered under `id`, if any.
    pub fn code(&self, id: u8) -> Option<&Arc<dyn ChannelCode>> {
        self.codes.get(id as usize)
    }

    /// Appends the tagged wire image of `body` under code `id` to `out`:
    /// `[id] ++ coded`, or with `Some(advert)` the gossip form
    /// `[GOSSIP_FLAG | id] [advert byte] ++ coded`. On cheap rungs
    /// ([`crate::NoCode`], [`crate::Checksum`]) the coded body is
    /// written straight into `out` with no intermediate buffer.
    ///
    /// `budget` is the incremental-symbol pathway for a rateless rung
    /// (see [`ChannelCode::encode_into`]). Budgets never change the wire
    /// identity: the id byte and symbol format are the same, a frame
    /// just carries more repair symbols, so receivers decode mixed
    /// budgets exactly like mixed epochs. The advertisement and the
    /// budget are orthogonal wire features.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the book.
    pub fn encode_tagged(
        &self,
        id: u8,
        advert: Option<RungAdvert>,
        budget: Option<crate::SymbolBudget>,
        body: &[u8],
        out: &mut BytesMut,
    ) {
        let code = self.codes.get(id as usize).expect("code id in book");
        out.reserve(2 + code.encoded_len(body.len()));
        match advert {
            Some(ad) => {
                out.put_u8(GOSSIP_FLAG | id);
                out.put_u8(ad.to_byte());
            }
            None => out.put_u8(id),
        }
        code.encode_into(body, budget, out);
    }

    /// Decodes a tagged wire image in either format — legacy
    /// (`[id] ++ coded`) or gossip (`[GOSSIP_FLAG | id] [advert] ++
    /// coded`) — returning everything the frame carries, plus the
    /// repair events the named code observed while scanning the whole
    /// coded body ([`ChannelCode::decode_scan`]) — nonzero even when the
    /// frame is rejected, which is the evidence behind
    /// [`RoundTally::evidence`]. The body stays borrowed from `wire`
    /// whenever the named code decodes in place.
    ///
    /// # Errors
    ///
    /// [`CodeError::Malformed`] on an empty or truncated prefix or an
    /// unknown id (with zero repairs: no decoder ever ran), or whatever
    /// the named code's decoder reports. All of these are *detected
    /// omissions* to the caller.
    pub fn decode_tagged<'a>(&self, wire: &'a [u8]) -> (Result<TaggedWire<'a>, CodeError>, usize) {
        let Some((&first, rest)) = wire.split_first() else {
            return (Err(CodeError::Malformed), 0);
        };
        let (id, advert, coded) = if first & GOSSIP_FLAG != 0 {
            let Some((&ad, coded)) = rest.split_first() else {
                return (Err(CodeError::Malformed), 0);
            };
            // A parity-failing advert byte is a *detected* corruption of
            // the advertisement alone: the frame still decodes, the
            // receiver just hears no advertisement from this peer.
            (first & !GOSSIP_FLAG, RungAdvert::from_byte(ad), coded)
        } else {
            (first, None, rest)
        };
        let Some(code) = self.codes.get(id as usize) else {
            return (Err(CodeError::Malformed), 0);
        };
        let scan = code.decode_scan(coded);
        let outcome = scan.outcome.map(|(body, repaired)| TaggedWire {
            code_id: id,
            repaired,
            advert,
            body,
        });
        (outcome, scan.repairs)
    }

    /// Classifies what a receiver experiences when `wire_after_noise`
    /// (a possibly-corrupted tagged encoding of `body`) arrives.
    pub fn classify_tagged(&self, body: &[u8], wire_after_noise: &[u8]) -> FrameOutcome {
        match self.decode_tagged(wire_after_noise).0 {
            Err(_) => FrameOutcome::DetectedOmission,
            Ok(tagged) if *tagged.body == *body => FrameOutcome::Delivered,
            Ok(_) => FrameOutcome::UndetectedValueFault,
        }
    }
}

#[cfg(test)]
impl CodeBook {
    /// The tagged wire image of `body` as a fresh `Vec` (baseline
    /// budget) — what the unit tests corrupt and feed back.
    pub(crate) fn tagged(&self, id: u8, advert: Option<RungAdvert>, body: &[u8]) -> Vec<u8> {
        let mut wire = BytesMut::new();
        self.encode_tagged(id, advert, None, body, &mut wire);
        wire.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(expected: usize) -> RoundTally {
        RoundTally {
            expected,
            delivered: expected / 4,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        }
    }

    fn calm(expected: usize) -> RoundTally {
        RoundTally {
            expected,
            delivered: expected,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        }
    }

    /// All frames arrive, but most only after the decoder repaired
    /// them: the channel is noisy and the current rung is absorbing it.
    fn absorbing(expected: usize) -> RoundTally {
        RoundTally {
            expected,
            delivered: expected,
            corrected: expected / 2,
            value_faults: 0,
            evidence: 0,
        }
    }

    #[test]
    fn starts_at_rung_zero() {
        let ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
        assert_eq!(ctl.rung(), 0);
        assert_eq!(ctl.current(), CodeSpec::Checksum { width: 4 });
        assert_eq!(ctl.code_id(), 0);
        assert_eq!(ctl.switches(), 0);
    }

    #[test]
    fn sustained_noise_climbs_the_ladder() {
        let cfg = AdaptiveConfig::standard(8, 1);
        let top = cfg.ladder.len() - 1;
        let mut ctl = AdaptiveController::new(cfg);
        for _ in 0..40 {
            ctl.observe(noisy(7));
        }
        assert_eq!(ctl.rung(), top, "sustained pressure reaches the top rung");
        // Severe pressure (6/7 lost) jumps two rungs at a time, so the
        // climb takes two switches, not three.
        assert!((2..=top).contains(&ctl.switches()), "{}", ctl.switches());
    }

    #[test]
    fn severe_bursts_skip_the_middle_rung() {
        // At 6/7 pressure (> severe_at) the first escalation must jump
        // checksum32 → interleaved16 directly: SECDED per block is
        // already defeated and would only add miscorrections.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
        let mut first_switch = None;
        for _ in 0..6 {
            if let Some(spec) = ctl.observe(noisy(7)) {
                first_switch = Some(spec);
                break;
            }
        }
        assert_eq!(
            first_switch,
            Some(CodeSpec::Interleaved { depth: 16 }),
            "hard bursts go straight to burst-grade correction"
        );

        // Moderate pressure (between escalate_at and severe_at) climbs
        // one rung at a time.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
        let moderate = RoundTally {
            expected: 7,
            delivered: 4, // 3/7 ≈ 0.43 pressure: above 0.35, below 0.6
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        let mut first_switch = None;
        for _ in 0..6 {
            if let Some(spec) = ctl.observe(moderate) {
                first_switch = Some(spec);
                break;
            }
        }
        assert_eq!(
            first_switch,
            Some(CodeSpec::Hamming74),
            "moderate noise takes the one-rung step"
        );
    }

    #[test]
    fn oblivious_rung_is_entered_and_released_single_step() {
        let cfg = AdaptiveConfig::standard(8, 1).with_oblivious();
        let top = cfg.ladder.len() - 1;
        assert_eq!(cfg.ladder[top], CodeSpec::Oblivious);
        let cooldown = cfg.cooldown;
        let mut ctl = AdaptiveController::new(cfg);
        // Total starvation — the fully-defective regime, where every
        // content rung reads 100% pressure.
        let starving = RoundTally {
            expected: 7,
            delivered: 0,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        let mut previous = ctl.rung();
        for _ in 0..60 {
            ctl.observe(starving);
            if ctl.rung() == top {
                break;
            }
            previous = ctl.rung();
        }
        assert_eq!(
            ctl.rung(),
            top,
            "full corruption must reach the oblivious rung"
        );
        assert_eq!(
            previous,
            top - 1,
            "the oblivious rung is entered only single-step, after \
             repetition coding itself failed"
        );
        // Count-signal calm: every arrival count decodes, zero
        // activity. Even the perfect-calm release (normally a two-rung
        // jump) is clamped to one rung off the oblivious rung.
        let mut released = None;
        for _ in 0..cooldown + 10 {
            if let Some(spec) = ctl.observe(calm(7)) {
                released = Some(spec);
                break;
            }
        }
        assert_eq!(
            released,
            Some(CodeSpec::Repetition { k: 5 }),
            "descent off the oblivious rung re-probes the strongest \
             content rung first"
        );
    }

    #[test]
    #[should_panic(expected = "last resort")]
    fn oblivious_rung_must_be_the_ladders_last() {
        let mut cfg = AdaptiveConfig::standard(8, 1);
        cfg.ladder.insert(0, CodeSpec::Oblivious);
        let _ = AdaptiveController::new(cfg);
    }

    #[test]
    fn calm_channel_never_switches() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
        for _ in 0..100 {
            assert_eq!(ctl.observe(calm(7)), None);
        }
        assert_eq!(ctl.switches(), 0);
    }

    #[test]
    fn deescalation_requires_cooldown_then_releases() {
        let cfg = AdaptiveConfig::standard(8, 1);
        let cooldown = cfg.cooldown;
        let mut ctl = AdaptiveController::new(cfg);
        for _ in 0..20 {
            ctl.observe(noisy(7));
        }
        let high = ctl.rung();
        assert!(high >= 2);
        // Calm rounds: no step down before the cooldown elapses…
        let mut downs = Vec::new();
        for i in 0..cooldown - 1 {
            assert_eq!(ctl.observe(calm(7)), None, "calm round {i} must hold");
        }
        // …then the descent walks down, each switch re-earning its calm
        // streak. Perfectly quiet windows release two rungs at a time
        // (the mirror of the severe jump up), so from rung 3 the climb
        // down takes two switches, not three.
        for _ in 0..4 * cooldown {
            if let Some(spec) = ctl.observe(calm(7)) {
                downs.push(spec);
            }
        }
        assert_eq!(ctl.rung(), 0, "a long calm stretch walks all the way down");
        assert_eq!(
            downs.len(),
            high.div_ceil(2),
            "deep calm releases two rungs per switch: {downs:?}"
        );
        assert_eq!(
            downs.last(),
            Some(&CodeSpec::Checksum { width: 4 }),
            "the descent ends back at the cheap rung"
        );
    }

    #[test]
    fn residual_activity_descends_one_rung_at_a_time() {
        // Calm-but-not-silent: activity just under the de-escalation
        // threshold (but above half of it) must step down a single
        // rung, not two.
        let cfg = AdaptiveConfig::standard(100, 1);
        let cooldown = cfg.cooldown;
        let mut ctl = AdaptiveController::new(cfg);
        for _ in 0..20 {
            ctl.observe(RoundTally {
                expected: 99,
                delivered: 10,
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            });
        }
        assert!(ctl.rung() >= 2);
        let before = ctl.rung();
        // 4 of 99 repaired ≈ 4% activity: calm (< 5%) but not deep
        // calm (> 2.5%).
        let barely_calm = RoundTally {
            expected: 99,
            delivered: 99,
            corrected: 4,
            value_faults: 0,
            evidence: 0,
        };
        let mut first = None;
        for _ in 0..2 * cooldown {
            if let Some(spec) = ctl.observe(barely_calm) {
                first = Some(spec);
                break;
            }
        }
        assert!(first.is_some(), "calm rounds must eventually step down");
        assert_eq!(
            ctl.rung(),
            before - 1,
            "single-rung step under residual noise"
        );
    }

    #[test]
    fn oscillating_noise_is_damped_by_hysteresis() {
        // Whipsaw attack: alternate noisy and calm faster than the
        // cooldown. The controller must escalate and then HOLD, not
        // oscillate — bounded switches over a long horizon.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
        for burst in 0..25 {
            for _ in 0..3 {
                ctl.observe(noisy(7));
            }
            for _ in 0..3 {
                ctl.observe(calm(7));
            }
            let _ = burst;
        }
        assert!(
            ctl.switches() <= 4,
            "hysteresis must damp the whipsaw: {} switches in 150 rounds",
            ctl.switches()
        );
        assert!(ctl.rung() >= 1, "pressure keeps the controller escalated");
    }

    #[test]
    fn alpha_infeasibility_forces_escalation_even_at_low_pressure() {
        // One value fault per round among 8 peers is only ~14% pressure
        // (below escalate_at), but it blows an α budget of 1 at tail
        // 1e-6 — the P_α projection must force the switch.
        let mut cfg = AdaptiveConfig::standard(8, 1);
        cfg.escalate_at = 0.9; // pressure alone would never trigger
        cfg.severe_at = 0.95;
        cfg.deescalate_at = 0.01;
        let mut ctl = AdaptiveController::new(cfg);
        let leaking = RoundTally {
            expected: 7,
            delivered: 6,
            corrected: 0,
            value_faults: 1,
            evidence: 0,
        };
        let mut switched = false;
        for _ in 0..10 {
            if ctl.observe(leaking).is_some() {
                switched = true;
                break;
            }
        }
        assert!(
            switched,
            "projected α {} demands escalation",
            ctl.projected_alpha()
        );
    }

    /// Drives one controller closed-loop against a [`NoiseTrace`]: each
    /// round, every peer's frame is encoded under the controller's
    /// current rung, corrupted by the trace, and classified the way a
    /// live receiver would — decode failures are omissions, repairs are
    /// counted, value faults are invisible. Returns the rung schedule.
    fn rungs_under_trace(
        cfg: AdaptiveConfig,
        trace: &crate::NoiseTrace,
        rounds: u64,
    ) -> Vec<usize> {
        let n = cfg.n;
        let book = CodeBook::from_specs(&cfg.ladder);
        let mut ctl = AdaptiveController::new(cfg);
        let body = vec![0xA5u8; 24];
        let mut schedule = Vec::with_capacity(rounds as usize);
        for r in 1..=rounds {
            schedule.push(ctl.rung());
            let mut tally = RoundTally {
                expected: n - 1,
                delivered: 0,
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            };
            for sender in 1..n as u32 {
                let mut wire = book.tagged(ctl.code_id(), None, &body);
                trace.corrupt_frame(r, sender, 0, 0, &mut wire);
                if let Ok(t) = book.decode_tagged(&wire).0 {
                    tally.delivered += 1;
                    tally.corrected += usize::from(t.repaired);
                }
            }
            ctl.observe(tally);
        }
        schedule
    }

    #[test]
    fn ewma_and_windowed_modes_agree_on_the_clean_preset() {
        // On a clean channel both estimators read ~0 pressure forever:
        // identical (constant) rung schedules.
        let trace = crate::NoiseTrace::clean(11);
        let windowed = rungs_under_trace(AdaptiveConfig::standard(8, 1), &trace, 60);
        let ewma = rungs_under_trace(AdaptiveConfig::standard_ewma(8, 1), &trace, 60);
        assert_eq!(windowed, ewma);
        assert!(
            windowed.iter().all(|&r| r == 0),
            "clean channel never escalates"
        );
    }

    #[test]
    fn ewma_and_windowed_modes_agree_on_the_hard_burst_preset() {
        // The bursty preset (30 calm rounds, then a sustained hard
        // burst) drives pressure far past every threshold: λ = 0.5 has
        // the same effective horizon as the 2-round window, so the two
        // modes escalate at the same rounds to the same rungs.
        let trace = crate::NoiseTrace::bursty(7);
        let windowed = rungs_under_trace(AdaptiveConfig::standard(8, 1), &trace, 60);
        let ewma = rungs_under_trace(AdaptiveConfig::standard_ewma(8, 1), &trace, 60);
        assert_eq!(windowed, ewma, "identical decisions round for round");
        assert!(
            *windowed.last().unwrap() > 0,
            "the burst phase must actually move the ladder: {windowed:?}"
        );
    }

    #[test]
    fn ewma_seeds_from_the_first_round_after_a_switch() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard_ewma(8, 1));
        assert_eq!(ctl.pressure(), 0.0, "no observations yet");
        // Mild pressure (1/7 ≈ 14%, below every threshold): the
        // controller holds, and the estimate must equal the sample.
        let mild = RoundTally {
            expected: 7,
            delivered: 6,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        assert_eq!(ctl.observe(mild), None);
        let first = ctl.pressure();
        assert!(
            (first - mild.pressure()).abs() < 1e-12,
            "first sample seeds the estimate exactly, got {first}"
        );
        // Keep feeding until a switch: the estimate must reset.
        for _ in 0..10 {
            if ctl.observe(noisy(7)).is_some() {
                break;
            }
        }
        assert!(ctl.switches() >= 1, "noise must escalate");
        assert_eq!(ctl.pressure(), 0.0, "each rung re-earns its estimate");
    }

    #[test]
    #[should_panic(expected = "EWMA smoothing factor")]
    fn zero_lambda_panics() {
        let mut cfg = AdaptiveConfig::standard_ewma(4, 0);
        cfg.estimator = PressureEstimator::Ewma { lambda: 0.0 };
        let _ = AdaptiveController::new(cfg);
    }

    #[test]
    fn determinism_identical_tallies_identical_decisions() {
        let feed: Vec<RoundTally> = (0..60)
            .map(|i| if i % 7 < 3 { noisy(9) } else { calm(9) })
            .collect();
        let run = || {
            let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(10, 2));
            feed.iter().map(|t| ctl.observe(*t)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chernoff_alpha_matches_expectations() {
        assert_eq!(chernoff_alpha_for_mean(0.0, 20, 1e-9), 0);
        let low = chernoff_alpha_for_mean(0.05, 20, 1e-6);
        let high = chernoff_alpha_for_mean(2.0, 20, 1e-6);
        assert!(low < high);
        assert!(chernoff_alpha_for_mean(50.0, 10, 1e-6) <= 10, "capped at n");
    }

    #[test]
    fn codebook_roundtrips_every_rung() {
        let cfg = AdaptiveConfig::standard(8, 1);
        let book = CodeBook::from_specs(&cfg.ladder);
        assert_eq!(book.len(), 5);
        let body = b"mixed-epoch".to_vec();
        for id in 0..book.len() as u8 {
            let wire = book.tagged(id, None, &body);
            assert_eq!(wire[0], id);
            let got = book.decode_tagged(&wire).0.unwrap();
            assert_eq!(got.code_id, id);
            assert_eq!(*got.body, *body);
            assert_eq!(book.classify_tagged(&body, &wire), FrameOutcome::Delivered);
        }
    }

    #[test]
    fn codebook_rejects_unknown_id_and_empty() {
        let book = CodeBook::from_specs(&[CodeSpec::Hamming74]);
        assert_eq!(book.decode_tagged(&[]), (Err(CodeError::Malformed), 0));
        let mut wire = book.tagged(0, None, b"x");
        wire[0] = 9; // corrupt the tag to an unknown id
        assert_eq!(book.decode_tagged(&wire), (Err(CodeError::Malformed), 0));
        assert_eq!(book.spec(0), Some(CodeSpec::Hamming74));
        assert_eq!(book.spec(3), None);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn non_hysteretic_thresholds_panic() {
        let mut cfg = AdaptiveConfig::standard(4, 0);
        cfg.deescalate_at = cfg.escalate_at;
        let _ = AdaptiveController::new(cfg);
    }

    #[test]
    fn tally_arithmetic() {
        let t = RoundTally {
            expected: 10,
            delivered: 7,
            corrected: 2,
            value_faults: 1,
            evidence: 0,
        };
        assert_eq!(t.omissions(), 3);
        assert!((t.pressure() - 0.4).abs() < 1e-12);
        assert!((t.activity() - 0.6).abs() < 1e-12);
        assert_eq!(RoundTally::default().pressure(), 0.0);
        assert_eq!(RoundTally::default().activity(), 0.0);
    }

    #[test]
    fn cusum_and_windowed_modes_agree_on_the_clean_preset() {
        let trace = crate::NoiseTrace::clean(11);
        let windowed = rungs_under_trace(AdaptiveConfig::standard(8, 1), &trace, 60);
        let cusum = rungs_under_trace(AdaptiveConfig::standard_cusum(8, 1), &trace, 60);
        assert_eq!(windowed, cusum);
        assert!(
            windowed.iter().all(|&r| r == 0),
            "clean channel never escalates"
        );
    }

    #[test]
    fn cusum_and_windowed_modes_agree_on_the_hard_burst_preset() {
        // A hard burst drives every round's pressure far past the
        // drift, so the CUSUM statistic crosses the escalation
        // threshold in the same rounds the 2-round window does; on the
        // calm side the capped statistic decays one drift per quiet
        // round and reaches the de-escalation band within the cooldown,
        // again matching the window. The modes differ only on marginal,
        // threshold-straddling noise.
        let trace = crate::NoiseTrace::bursty(7);
        let windowed = rungs_under_trace(AdaptiveConfig::standard(8, 1), &trace, 60);
        let cusum = rungs_under_trace(AdaptiveConfig::standard_cusum(8, 1), &trace, 60);
        assert_eq!(windowed, cusum, "identical decisions round for round");
        assert!(
            *windowed.last().unwrap() > 0,
            "the burst phase must actually move the ladder: {windowed:?}"
        );
    }

    #[test]
    fn cusum_ignores_subdrift_background_noise() {
        // Sustained mild pressure below the drift never accumulates:
        // the statistic reads exactly zero where the window would read
        // the (harmless) background rate.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard_cusum(8, 1));
        let mild = RoundTally {
            expected: 10,
            delivered: 9, // 10% pressure, below the 25% drift
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        for _ in 0..50 {
            assert_eq!(ctl.observe(mild), None);
            assert_eq!(ctl.pressure(), 0.0, "sub-drift noise never accumulates");
        }
        assert_eq!(ctl.switches(), 0);
    }

    #[test]
    #[should_panic(expected = "CUSUM drift")]
    fn invalid_cusum_drift_panics() {
        let mut cfg = AdaptiveConfig::standard_cusum(4, 0);
        cfg.estimator = PressureEstimator::Cusum {
            drift: 0.0,
            cap: 1.0,
        };
        let _ = AdaptiveController::new(cfg);
    }

    #[test]
    fn advert_byte_roundtrips_and_detects_single_flips() {
        for rung in 0..8u8 {
            for epoch in 0..16u8 {
                let ad = RungAdvert { rung, epoch };
                let byte = ad.to_byte();
                assert_eq!(RungAdvert::from_byte(byte), Some(ad));
                // The parity bit catches every single-bit corruption:
                // the advert is dropped, never misread.
                for bit in 0..8 {
                    assert_eq!(
                        RungAdvert::from_byte(byte ^ (1 << bit)),
                        None,
                        "rung {rung} epoch {epoch} bit {bit}"
                    );
                }
            }
        }
        // Exactly half the byte space is valid (even parity), and every
        // valid byte parses inside the packed ranges.
        let valid = (0..=255u8).filter(|b| RungAdvert::from_byte(*b).is_some());
        assert_eq!(valid.count(), 128);
    }

    #[test]
    fn epoch_serial_comparison_handles_wraparound() {
        assert!(RungAdvert::epoch_newer(1, 0));
        assert!(RungAdvert::epoch_newer(7, 0));
        assert!(
            !RungAdvert::epoch_newer(8, 0),
            "half-window ties break stale"
        );
        assert!(!RungAdvert::epoch_newer(15, 0), "behind is stale");
        assert!(RungAdvert::epoch_newer(2, 14), "wraparound stays newer");
        assert!(!RungAdvert::epoch_newer(7, 7), "equal is not newer");
    }

    #[test]
    fn gossip_quorum_of_newer_decisions_is_adopted_in_one_round() {
        // Two peers advertising the same fresh decision pull a calm
        // controller onto their rung immediately — the 1-round lag the
        // acceptance test measures end to end.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(5, 1).with_gossip());
        let ad = RungAdvert { rung: 2, epoch: 1 };
        let switched = ctl.observe_with_gossip(calm(4), &[ad, ad]);
        assert_eq!(switched, Some(CodeSpec::Interleaved { depth: 16 }));
        assert_eq!(ctl.rung(), 2);
        assert_eq!(ctl.epoch(), 1, "adoption synchronizes the epoch");
        assert_eq!(ctl.advert(), Some(ad), "…and re-advertises the pair");
    }

    #[test]
    fn gossip_single_advert_is_never_enough() {
        // One advertisement is one peer's voice — or one corrupted
        // byte. Below the quorum the controller holds.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(5, 1).with_gossip());
        let ad = RungAdvert { rung: 2, epoch: 1 };
        for _ in 0..10 {
            assert_eq!(ctl.observe_with_gossip(calm(4), &[ad]), None);
        }
        assert_eq!(ctl.rung(), 0);
    }

    #[test]
    fn gossip_never_adopts_outside_the_ladder_or_into_the_last_resort() {
        let cfg = AdaptiveConfig::standard(5, 1).with_gossip();
        let last = (cfg.ladder.len() - 1) as u8;
        let mut ctl = AdaptiveController::new(cfg);
        // Rungs past the ladder (a corrupted advert can name 0..=7) and
        // the last resort never qualify, whatever the epoch or count.
        for rung in [last, 5, 6, 7] {
            let ad = RungAdvert { rung, epoch: 3 };
            for _ in 0..6 {
                assert_eq!(ctl.observe_with_gossip(calm(4), &[ad, ad, ad, ad]), None);
            }
        }
        assert_eq!(ctl.rung(), 0, "no forged advert moved the controller");
    }

    #[test]
    fn gossip_stale_epochs_are_ignored() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(5, 1).with_gossip());
        // Escalate self-decided a few times: epoch advances.
        for _ in 0..12 {
            ctl.observe(noisy(4));
        }
        let epoch = ctl.epoch();
        assert!(epoch >= 1, "self-switches stamp epochs");
        let rung = ctl.rung();
        // A stale advertisement (epoch behind ours) for a different
        // rung, even from every peer, does not move the controller
        // through the newest-decision rule (the majority-join below is
        // a separate, slower pathway — hold it off with a fresh ad mix).
        let stale = RungAdvert {
            rung: 0,
            epoch: (epoch + EPOCH_MODULUS - 1) % EPOCH_MODULUS,
        };
        assert_eq!(ctl.observe_with_gossip(absorbing(4), &[stale, stale]), None);
        assert_eq!(ctl.rung(), rung);
    }

    #[test]
    fn gossip_majority_join_pulls_back_a_lone_leader() {
        // A controller that escalated alone (its epoch is the group's
        // newest, so nothing ever reads as newer) watches a strict
        // majority of peers advertise the same rung for join_rounds
        // consecutive rounds and concedes.
        let cfg = AdaptiveConfig::standard(5, 1).with_gossip();
        let join_rounds = cfg.gossip.unwrap().join_rounds;
        let last = cfg.ladder.len() - 1;
        let mut ctl = AdaptiveController::new(cfg);
        // Climb off rung 0 but stop short of the last resort (where
        // gossip is pinned in both directions).
        while ctl.rung() < 2 {
            ctl.observe(noisy(4));
        }
        let high = ctl.rung();
        assert!((2..last).contains(&high), "lone leader parked at {high}");
        // Three of four peers sit calm at rung 0 with old epochs.
        let majority = RungAdvert { rung: 0, epoch: 0 };
        let mut joined_after = None;
        for round in 1..=join_rounds as usize + 2 {
            if ctl
                .observe_with_gossip(calm(4), &[majority, majority, majority])
                .is_some()
            {
                joined_after = Some(round);
                break;
            }
        }
        assert_eq!(
            joined_after,
            Some(join_rounds as usize),
            "the stable majority wins after exactly join_rounds rounds"
        );
        assert_eq!(ctl.rung(), 0);
    }

    #[test]
    fn gossip_disabled_controllers_ignore_adverts() {
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(5, 1));
        assert!(ctl.advert().is_none(), "no gossip, no advertisement");
        let ad = RungAdvert { rung: 3, epoch: 5 };
        for _ in 0..10 {
            assert_eq!(ctl.observe_with_gossip(calm(4), &[ad, ad, ad, ad]), None);
        }
        assert_eq!(ctl.rung(), 0);
    }

    #[test]
    #[should_panic(expected = "8 rungs")]
    fn gossiping_ladder_past_eight_rungs_panics() {
        let mut cfg = AdaptiveConfig::standard(5, 1).with_gossip();
        cfg.ladder = (0..9).map(|_| CodeSpec::Hamming74).collect();
        let _ = AdaptiveController::new(cfg);
    }

    #[test]
    fn codebook_gossip_frames_roundtrip_and_interoperate() {
        let cfg = AdaptiveConfig::standard(8, 1);
        let book = CodeBook::from_specs(&cfg.ladder);
        let body = b"piggyback".to_vec();
        let ad = RungAdvert { rung: 2, epoch: 9 };
        for id in 0..book.len() as u8 {
            let wire = book.tagged(id, Some(ad), &body);
            assert_eq!(wire[0], GOSSIP_FLAG | id, "the flag leads the frame");
            assert_eq!(wire[1], ad.to_byte());
            let t = book.decode_tagged(&wire).0.unwrap();
            assert_eq!(t.code_id, id);
            assert_eq!(t.advert, Some(ad));
            assert_eq!(*t.body, *body);
            // Legacy frames decode through the same pathway, advert-free.
            let legacy = book.tagged(id, None, &body);
            let t = book.decode_tagged(&legacy).0.unwrap();
            assert_eq!(t.advert, None);
            assert_eq!(*t.body, *body);
        }
        // A gossip frame truncated to its flag byte is malformed, not a
        // panic.
        let wire = book.tagged(0, Some(ad), &body);
        assert_eq!(
            book.decode_tagged(&wire[..1]),
            (Err(CodeError::Malformed), 0)
        );
    }

    #[test]
    fn repaired_deliveries_block_deescalation() {
        // A rung absorbing a burst reports zero pressure but high
        // activity; the controller must hold, not step down into the
        // noise.
        let mut ctl = AdaptiveController::new(AdaptiveConfig::standard(8, 1));
        for _ in 0..12 {
            ctl.observe(noisy(7)); // climb
        }
        let rung = ctl.rung();
        assert!(rung >= 1);
        for _ in 0..40 {
            assert_eq!(
                ctl.observe(absorbing(7)),
                None,
                "repair activity must pin the rung"
            );
        }
        assert_eq!(ctl.rung(), rung);
    }
}
