//! The controller is a *pure function of its observation sequence*:
//! feeding identical tallies produces identical rung sequences on any
//! substrate, which is what the cross-substrate conformance harness
//! (`tests/adaptive_conformance.rs` at the workspace root) asserts.

use crate::adaptive::AdaptiveConfig;
use crate::code::CodeSpec;
use crate::codebook::{RungAdvert, EPOCH_MODULUS};

/// What one receiver observed in one round, aggregated over the frames
/// it expected from its peers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RoundTally {
    /// Frames expected this round (one per peer).
    pub expected: usize,
    /// Frames that decoded and were kept
    /// ([`FrameOutcome::Delivered`](crate::FrameOutcome::Delivered),
    /// possibly after correction).
    pub delivered: usize,
    /// Of the delivered frames, how many arrived *repaired* — the
    /// decoder corrected channel errors on the way (see
    /// [`ChannelCode::decode_scan`](crate::ChannelCode::decode_scan)).
    /// Observable noise evidence: a correcting rung that is quietly
    /// absorbing a burst reports it here, which is what stops the
    /// controller from stepping down into an ongoing attack.
    pub corrected: usize,
    /// Known or estimated undetected value faults
    /// ([`FrameOutcome::UndetectedValueFault`](crate::FrameOutcome::UndetectedValueFault)).
    /// A live receiver cannot observe these and passes 0; oracle
    /// harnesses (the simulator, the tradeoff benchmarks) pass ground
    /// truth.
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
    /// ([`FrameOutcome::DetectedOmission`](crate::FrameOutcome::DetectedOmission))
    /// — a receiver cannot tell the two apart, and does not need to.
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

/// The complete decision state of one controller: a plain `Copy` value
/// with no heap behind it, evolved exclusively by the pure [`step`]
/// function. The simulator, the threaded runtime, the async runtime
/// (all via [`AdaptiveController`](crate::AdaptiveController)) and the
/// exhaustive model checker (`heardof-mc`, which hashes these by value
/// to dedup its search) drive the *same* transition — there is no
/// second implementation to drift.
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
    /// The recent-round tally window every estimate reads.
    pub window: TallyWindow,
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
        }
    }

    /// Windowed fault pressure: the fraction of the window's expected
    /// frames that failed to arrive intact.
    pub fn pressure(&self) -> f64 {
        self.windowed(|t| t.omissions() + t.value_faults)
    }

    /// Windowed channel activity (pressure plus repaired deliveries and
    /// repair evidence) — what de-escalation waits on.
    pub fn activity(&self) -> f64 {
        self.windowed(|t| t.omissions() + t.corrected + t.value_faults + t.evidence)
    }

    /// Windowed fraction of expected frames delivered *after repair* —
    /// evidence the current rung is actively winning against the noise.
    pub fn corrected_rate(&self) -> f64 {
        self.windowed(|t| t.corrected)
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
    /// configured tail, via [`heardof_telemetry::chernoff_alpha_for_mean`].
    pub fn projected_alpha(&self, cfg: &AdaptiveConfig) -> u32 {
        let rounds = self.window.len().max(1) as f64;
        let mu = self.window.iter().map(|t| t.value_faults).sum::<usize>() as f64 / rounds;
        heardof_telemetry::chernoff_alpha_for_mean(mu, cfg.n, cfg.target_tail)
    }

    /// `true` when the projected demand fits the configured budget.
    fn palpha_feasible(&self, cfg: &AdaptiveConfig) -> bool {
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

    let windowed = st.pressure();
    // High pressure alone is not enough to climb: a rung that repairs
    // at least half as many frames as it loses is still *coping* with
    // the noise — escalating off it during a dip is the spurious
    // switch statistical spikes would otherwise cause (and each rung
    // up costs rate). Only when losses clearly outrun repairs is the
    // rung beaten. The `P_α` projection overrides: leaked value
    // faults always escalate.
    let losing = windowed > cfg.escalate_at && windowed > 2.0 * st.corrected_rate();
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
    if st.rung > 0 && st.calm_streak >= cfg.cooldown && st.activity() <= cfg.deescalate_at {
        // A window with essentially zero activity releases two rungs
        // at once (mirroring the severe jump up); residual activity
        // steps down one rung at a time. Off the content-oblivious
        // rung the release is always single-step: count-signal calm
        // says the pattern channel is quiet, not that content survives
        // — re-probe content viability on the strongest content rung
        // before descending further.
        let oblivious = cfg.ladder[st.rung as usize] == CodeSpec::Oblivious;
        let jump = if !oblivious && st.activity() <= cfg.deescalate_at / 2.0 {
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
    // is actually coping).
    st.window.clear();
    // A switch changes which camp is "different": the majority-join
    // streak starts over from the new rung's perspective.
    st.majority_seen = None;
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
