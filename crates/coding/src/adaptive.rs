//! Adaptive code switching: an escalation ladder with hysteresis.
//!
//! A static [`CodeSpec`] is the wrong answer to a *moving* channel: a
//! checksum wastes the `P_α` margin the moment noise arrives, while a
//! repetition code wastes bandwidth the whole time the channel is
//! clean. The [`AdaptiveController`] closes the loop the paper leaves
//! open in §5.2 — it watches the per-round
//! [`FrameOutcome`](crate::FrameOutcome) tallies a receiver can
//! actually observe (deliveries and effective omissions; undetected
//! value faults are, by definition, invisible and enter only as
//! estimates) and walks a **ladder** of codes:
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

use crate::code::CodeSpec;
use crate::codebook::RungAdvert;
use crate::step::{step, CtlState, RoundTally, SwitchCause, MAX_WINDOW};

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

/// Configuration of an [`AdaptiveController`].
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// The escalation ladder, weakest (cheapest) first. Rung 0 is the
    /// starting code.
    pub ladder: Vec<CodeSpec>,
    /// Sliding-window length (rounds) over which pressure, activity,
    /// the corrected rate, the severe-burst check and the `P_α`
    /// projection are read.
    pub window: usize,
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
    switches: usize,
    /// Why the most recent switch happened (`None` until the first).
    last_cause: Option<SwitchCause>,
    /// Rounds in which gossip was considered but declined because this
    /// controller sits pinned on the last-resort rung.
    pins: u64,
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
            switches: 0,
            last_cause: None,
            pins: 0,
        }
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

    /// Windowed fault pressure: the fraction of the window's expected
    /// frames that failed to arrive intact.
    pub fn pressure(&self) -> f64 {
        self.state.pressure()
    }

    /// Windowed channel activity (pressure plus repaired deliveries and
    /// repair evidence) — what de-escalation waits on.
    pub fn activity(&self) -> f64 {
        self.state.activity()
    }

    /// Windowed fraction of expected frames delivered *after repair* —
    /// evidence the current rung is actively winning against the noise.
    pub fn corrected_rate(&self) -> f64 {
        self.state.corrected_rate()
    }

    /// The `α` budget the windowed value-fault estimate demands at the
    /// configured tail, via
    /// [`heardof_telemetry::chernoff_alpha_for_mean`].
    pub fn projected_alpha(&self) -> u32 {
        self.state.projected_alpha(&self.cfg)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::EPOCH_MODULUS;

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
    #[should_panic(expected = "hysteresis")]
    fn non_hysteretic_thresholds_panic() {
        let mut cfg = AdaptiveConfig::standard(4, 0);
        cfg.deescalate_at = cfg.escalate_at;
        let _ = AdaptiveController::new(cfg);
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
