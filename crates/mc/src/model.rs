//! The product machine the checker explores: `n` pure controller
//! states, one adversary, and a packed node encoding that makes joint
//! states cheap to hash and dedup.
//!
//! # The transition relation
//!
//! One joint round is a *product of per-receiver observations*. Each
//! directed link `sender → receiver` belongs to exactly one receiver,
//! and a controller's [`heardof_coding::step`] reads only what its own
//! links delivered — so the adversary's per-link choices decompose:
//! enumerate every observation each receiver can be handed, dedup the
//! *successor states* (many observations collapse — a forged epoch
//! that is stale under serial comparison acts exactly like a muted
//! advert), and take the cartesian product across receivers. Nothing
//! is lost: any joint action is some combination of per-receiver
//! observations, and every combination of reachable per-receiver
//! successors is reachable by a joint action.
//!
//! # The adversary
//!
//! Per link and round the adversary picks one of the wire-faithful
//! actions of [`heardof_coding::LinkFault`] (or clean delivery):
//!
//! * **Deliver** — frame kept, true advertisement heard;
//! * **Omit** — frame rejected (drop and detected omission are the
//!   same observation, so they are the same action);
//! * **Mute** — frame kept, advertisement destroyed by parity;
//! * **Forge** — frame kept, advertisement replaced by any of the
//!   `ladder × 16` parity-valid in-ladder `(rung, epoch)` pairs.
//!   Out-of-ladder forgeries are *not* enumerated because every
//!   consumer in the gossip rule filters them — they are
//!   observationally equal to Mute.
//!
//! Omissions and mutes are unconstrained. Forgeries are budgeted at
//! **one per receiver per round** — the single-corrupted-byte threat
//! model the gossip quorum is documented to defend against
//! ([`heardof_coding::DERIVED_GOSSIP_QUORUM`]): one corrupted
//! advertisement byte is one peer's voice.

use heardof_coding::{
    step, AdaptiveConfig, CodeSpec, CtlState, FaultScript, LinkFault, RoundTally, RungAdvert,
    StepOutcome, SwitchCause, TallyWindow, MAX_WINDOW,
};

/// Largest system size the fixed-width node encoding supports. The
/// exhaustive sweeps in the issue target `n ∈ {3, 4, 5}`.
pub const MAX_N: usize = 5;

/// Epoch values per serial window (mirrors the wire format's 4-bit
/// epoch field).
pub const EPOCHS: u8 = 16;

/// Bytes per packed controller in a [`Key`]: 16 bytes of decision
/// state plus a 16-byte epoch-pair bitset.
pub const CTL_BYTES: usize = 32;

/// Per-link adversary action: clean delivery.
pub const ACT_DELIVER: u8 = 0;
/// Per-link adversary action: detected omission (or drop — same
/// observation).
pub const ACT_OMIT: u8 = 1;
/// Per-link adversary action: frame kept, advertisement muted.
pub const ACT_MUTE: u8 = 2;
/// Per-link adversary action base for forgeries: `ACT_FORGE_BASE +
/// rung * 16 + epoch` encodes `Forge(RungAdvert { rung, epoch })`.
pub const ACT_FORGE_BASE: u8 = 3;
/// Per-link adversary action: every frame byte complemented
/// ([`LinkFault::CorruptAll`]). Outside the forge range (8 rungs × 16
/// epochs tops out at `ACT_FORGE_BASE + 127`). What the receiver
/// observes depends on the *sender's* rung: a content rung's frame is
/// malformed — an omission — while a content-oblivious sender's
/// pattern frames keep their length and arrival, so value and advert
/// both get through untouched.
pub const ACT_CORRUPT: u8 = 255;

/// Decodes a per-link action byte into the wire fault it scripts
/// (`None` for clean delivery).
pub fn action_fault(code: u8) -> Option<LinkFault> {
    match code {
        ACT_DELIVER => None,
        ACT_OMIT => Some(LinkFault::Omit),
        ACT_MUTE => Some(LinkFault::MuteAdvert),
        ACT_CORRUPT => Some(LinkFault::CorruptAll),
        _ => {
            let pair = code - ACT_FORGE_BASE;
            Some(LinkFault::Forge(RungAdvert {
                rung: pair / EPOCHS,
                epoch: pair % EPOCHS,
            }))
        }
    }
}

/// One joint adversary round: `actions[receiver][sender_slot]` is the
/// action on the link from the receiver's `sender_slot`-th peer (peers
/// in ascending id order, skipping the receiver itself).
pub type JointAction = [[u8; MAX_N]; MAX_N];

/// Which safety predicate a counterexample violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// No permanent split: from every reachable divergent
    /// configuration, an all-calm suffix reconverges every controller
    /// to rung 0 within the configured bound.
    Reconverge,
    /// The last-resort pin is escapable only by calm: any transition
    /// leaving the final rung is a self-decided
    /// [`SwitchCause::Release`].
    PinCalmOnly,
    /// The 4-bit serial epoch comparison never cycles: no
    /// gossip-driven adoption or epoch synchronization returns a
    /// controller to a `(rung, epoch)` pair it has held since its last
    /// fresh rung decision (self-switch or majority-join).
    EpochOrder,
}

/// Model-checker configuration: the controller configuration under
/// test plus the exploration bounds.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// The configuration every controller runs. Must enable gossip and
    /// fit the packed clocks.
    pub cfg: AdaptiveConfig,
    /// System size (`2..=MAX_N`).
    pub n: usize,
    /// Exploration depth bound in rounds; nodes at this depth are kept
    /// but not expanded. The state space is finite (capped clocks,
    /// modular epochs), so a large horizon yields a true fixpoint.
    pub horizon: u32,
    /// Visited-state cap; hitting it marks the report incomplete.
    pub max_states: usize,
    /// Rounds the all-calm suffix of the reconvergence predicate may
    /// take before a divergent state counts as permanently split.
    pub calm_bound: u32,
    /// Enumerate parity-valid in-ladder forgeries (one per receiver
    /// per round). `false` leaves the adversary omissions and mutes
    /// only — the bounded mode used for larger `n`.
    pub forge: bool,
}

impl McConfig {
    /// Exploration bounds that finish quickly at `n = 3` with the full
    /// forging adversary; raise [`McConfig::horizon`] toward a
    /// fixpoint as budget allows.
    pub fn new(cfg: AdaptiveConfig, n: usize) -> Self {
        McConfig {
            cfg,
            n,
            horizon: 4,
            max_states: 400_000,
            calm_bound: 48,
            forge: true,
        }
    }

    /// Panics unless the configuration fits the checker's packed
    /// encoding and product decomposition.
    pub fn validate(&self) {
        assert!((2..=MAX_N).contains(&self.n), "n must be 2..=5");
        assert!(
            self.cfg.gossip.is_some(),
            "the checker targets the gossip machine"
        );
        assert!(
            self.cfg.ladder.len() <= 8,
            "gossiping ladders hold at most 8 rungs"
        );
        assert!(self.cfg.window <= MAX_WINDOW);
        assert!(
            self.cfg.min_dwell < 254 && self.cfg.cooldown < 255,
            "clocks must fit a byte"
        );
        assert_eq!(self.cfg.n, self.n, "cfg.n must match the product size");
    }

    /// Number of peers each receiver expects per round.
    pub fn peers(&self) -> usize {
        self.n - 1
    }
}

/// One controller's slice of a node: the pure decision state plus the
/// set of `(rung, epoch)` pairs held since its last fresh rung
/// decision (bit `rung * 16 + epoch`), which is what the epoch-order
/// predicate checks against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CtlNode {
    /// The pure controller state.
    pub st: CtlState,
    /// Bitset of `(rung, epoch)` pairs held since the last self-switch
    /// or majority-join.
    pub seen: u128,
}

/// Bit index of a `(rung, epoch)` pair in [`CtlNode::seen`].
pub fn pair_bit(rung: u8, epoch: u8) -> u128 {
    1u128 << (rung as u32 * EPOCHS as u32 + epoch as u32)
}

impl CtlNode {
    /// The start node for `cfg`: the initial controller state, holding
    /// its initial `(rung, epoch)` pair.
    pub fn initial(cfg: &AdaptiveConfig) -> Self {
        let st = CtlState::initial(cfg);
        CtlNode {
            st,
            seen: pair_bit(st.rung, st.epoch),
        }
    }

    /// Packs this controller into `out` (16 bytes of decision state,
    /// 16 bytes of seen-pair bitset). The model fixes `expected = n - 1`
    /// with zero corrected/value-fault/evidence counts, so per window
    /// slot only the delivered count is stored.
    pub fn pack(&self, out: &mut [u8; CTL_BYTES]) {
        let st = &self.st;
        out[0] = st.rung;
        out[1] = st.epoch;
        out[2] = st.latest_epoch;
        out[3] = st.rounds_since_switch as u8;
        out[4] = st.calm_streak as u8;
        let (mr, ms) = st.majority_seen.map_or((0xFF, 0xFF), |(r, s)| (r, s));
        out[5] = mr;
        out[6] = ms;
        out[7] = st.window.len() as u8;
        for (slot, tally) in st.window.iter().enumerate() {
            out[8 + slot] = tally.delivered as u8;
        }
        for slot in st.window.len()..MAX_WINDOW {
            out[8 + slot] = 0;
        }
        out[16..32].copy_from_slice(&self.seen.to_le_bytes());
    }

    /// Inverse of [`CtlNode::pack`] for a system of `n` controllers.
    pub fn unpack(bytes: &[u8; CTL_BYTES], n: usize, window_cap: usize) -> Self {
        let mut window = TallyWindow::empty();
        let wlen = bytes[7] as usize;
        for slot in 0..wlen {
            window.push(
                RoundTally {
                    expected: n - 1,
                    delivered: bytes[8 + slot] as usize,
                    corrected: 0,
                    value_faults: 0,
                    evidence: 0,
                },
                window_cap,
            );
        }
        let mut seen_bytes = [0u8; 16];
        seen_bytes.copy_from_slice(&bytes[16..32]);
        CtlNode {
            st: CtlState {
                rung: bytes[0],
                epoch: bytes[1],
                latest_epoch: bytes[2],
                majority_seen: if bytes[5] == 0xFF {
                    None
                } else {
                    Some((bytes[5], bytes[6]))
                },
                rounds_since_switch: bytes[3] as u64,
                calm_streak: bytes[4] as u64,
                window,
            },
            seen: u128::from_le_bytes(seen_bytes),
        }
    }
}

/// A packed joint state: `n` packed controllers, unused tail zeroed —
/// the hash key the explorer dedups on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u8; CTL_BYTES * MAX_N]);

/// Packs `n` controller nodes into a joint [`Key`].
pub fn pack_node(ctls: &[CtlNode]) -> Key {
    let mut key = [0u8; CTL_BYTES * MAX_N];
    for (i, ctl) in ctls.iter().enumerate() {
        let mut buf = [0u8; CTL_BYTES];
        ctl.pack(&mut buf);
        key[i * CTL_BYTES..(i + 1) * CTL_BYTES].copy_from_slice(&buf);
    }
    Key(key)
}

/// Unpacks a joint [`Key`] back into `n` controller nodes.
pub fn unpack_node(key: &Key, mc: &McConfig) -> Vec<CtlNode> {
    (0..mc.n)
        .map(|i| {
            let mut buf = [0u8; CTL_BYTES];
            buf.copy_from_slice(&key.0[i * CTL_BYTES..(i + 1) * CTL_BYTES]);
            CtlNode::unpack(&buf, mc.n, mc.cfg.window)
        })
        .collect()
}

/// One deduplicated per-receiver successor: the packed post-state, the
/// per-sender-slot action vector that first produced it, and what the
/// step decided (kept for invariant checking and diagnostics).
#[derive(Clone, Copy, Debug)]
pub struct LocalSucc {
    /// The receiver's packed post-round [`CtlNode`].
    pub packed: [u8; CTL_BYTES],
    /// Action byte per sender slot (ascending peer order).
    pub action: [u8; MAX_N],
    /// What [`step`] decided on this observation.
    pub outcome: StepOutcome,
}

/// Evolves one controller node by one observed round, updating the
/// seen-pair bitset and checking the two per-step predicates.
///
/// Returns the violated predicate, if any: a non-release departure
/// from the last rung ([`Predicate::PinCalmOnly`]) or a gossip-driven
/// return to a held `(rung, epoch)` pair ([`Predicate::EpochOrder`]).
/// Self-switches and majority-joins are *fresh* rung decisions — they
/// reset the held-pair set, exactly like the production controller's
/// epoch stamp opens a new comparison era.
pub fn step_node(
    cfg: &AdaptiveConfig,
    node: &mut CtlNode,
    tally: RoundTally,
    ads: &[RungAdvert],
) -> (StepOutcome, Option<Predicate>) {
    let pre_pair = pair_bit(node.st.rung, node.st.epoch);
    let pre_rung = node.st.rung;
    let last = (cfg.ladder.len() - 1) as u8;
    let out = step(cfg, &mut node.st, tally, ads);
    let pair = pair_bit(node.st.rung, node.st.epoch);
    let mut violated = None;
    if pre_rung == last && node.st.rung != last && out.switched != Some(SwitchCause::Release) {
        violated = Some(Predicate::PinCalmOnly);
    }
    match out.switched {
        Some(SwitchCause::Escalate) | Some(SwitchCause::Release) | Some(SwitchCause::Join) => {
            node.seen = pair;
        }
        Some(SwitchCause::Adopt) | None => {
            // Adoption changes the pair by definition; an epoch sync
            // changes it without a switch cause. Either way, a
            // gossip-moved pair landing on one already held since the
            // last fresh decision is a serial-comparison cycle.
            if pair != pre_pair && node.seen & pair != 0 {
                violated = violated.or(Some(Predicate::EpochOrder));
            }
            node.seen |= pair;
        }
    }
    (out, violated)
}

/// The advertisement controller `j` puts on the wire this round.
pub fn true_advert(st: &CtlState) -> RungAdvert {
    RungAdvert {
        rung: st.rung,
        epoch: st.epoch,
    }
}

/// What a receiver observes through its incoming links this round: the
/// round's tally and the advertisements it heard. Each link is its
/// sender's pre-round state and the wire fault on it (`None` for clean
/// delivery). Under [`LinkFault::CorruptAll`] a content rung's frame is
/// malformed — an omission — while a sender on the content-oblivious
/// last rung gets through untouched: arrival is its signal.
fn observe<'a>(
    cfg: &AdaptiveConfig,
    links: impl Iterator<Item = (&'a CtlState, Option<LinkFault>)>,
) -> (RoundTally, Vec<RungAdvert>) {
    let last = (cfg.ladder.len() - 1) as u8;
    let oblivious_last = cfg.ladder.last() == Some(&CodeSpec::Oblivious);
    let mut tally = RoundTally {
        expected: 0,
        delivered: 0,
        corrected: 0,
        value_faults: 0,
        evidence: 0,
    };
    let mut ads = Vec::with_capacity(MAX_N - 1);
    for (sender, fault) in links {
        let (kept, ad) = match fault {
            None => (true, Some(true_advert(sender))),
            Some(LinkFault::Omit) => (false, None),
            Some(LinkFault::MuteAdvert) => (true, None),
            Some(LinkFault::Forge(ad)) => (true, Some(ad)),
            Some(LinkFault::CorruptAll) => {
                let survives = oblivious_last && sender.rung == last;
                (survives, survives.then(|| true_advert(sender)))
            }
        };
        tally.expected += 1;
        tally.delivered += kept as usize;
        ads.extend(ad);
    }
    (tally, ads)
}

/// Enumerates every observation the adversary can hand `recv` this
/// round — all omission subsets, at most one advert fault (mute or, if
/// enabled, each in-ladder forgery) — steps the receiver through each,
/// and returns the successors deduplicated by packed post-state.
///
/// On the first predicate violation, returns it as an error together
/// with the action vector that provokes it.
pub fn receiver_successors(
    mc: &McConfig,
    ctls: &[CtlNode],
    recv: usize,
    out: &mut Vec<LocalSucc>,
) -> Result<(), (LocalSucc, Predicate)> {
    out.clear();
    let senders: Vec<usize> = (0..mc.n).filter(|j| *j != recv).collect();
    let k = senders.len();
    let mut dedup = std::collections::HashSet::new();

    let try_actions = |acts: &[u8],
                       out: &mut Vec<LocalSucc>,
                       dedup: &mut std::collections::HashSet<[u8; CTL_BYTES]>|
     -> Option<(LocalSucc, Predicate)> {
        let links = senders
            .iter()
            .zip(acts)
            .map(|(&j, &code)| (&ctls[j].st, action_fault(code)));
        let (tally, ads) = observe(&mc.cfg, links);
        let mut node = ctls[recv];
        let (outcome, violated) = step_node(&mc.cfg, &mut node, tally, &ads);
        let mut packed = [0u8; CTL_BYTES];
        node.pack(&mut packed);
        let mut action = [0u8; MAX_N];
        action[..k].copy_from_slice(acts);
        let succ = LocalSucc {
            packed,
            action,
            outcome,
        };
        if let Some(p) = violated {
            return Some((succ, p));
        }
        if dedup.insert(packed) {
            out.push(succ);
        }
        None
    };

    let rungs = mc.cfg.ladder.len() as u8;
    let mut acts = vec![ACT_DELIVER; k];
    for omit_mask in 0u32..(1 << k) {
        for (slot, act) in acts.iter_mut().enumerate() {
            *act = if omit_mask >> slot & 1 == 1 {
                ACT_OMIT
            } else {
                ACT_DELIVER
            };
        }
        if let Some(v) = try_actions(&acts, out, &mut dedup) {
            return Err(v);
        }
        for slot in 0..k {
            if omit_mask >> slot & 1 == 1 {
                continue; // advert faults on omitted frames are no-ops
            }
            acts[slot] = ACT_MUTE;
            if let Some(v) = try_actions(&acts, out, &mut dedup) {
                return Err(v);
            }
            if mc.forge {
                for pair in 0..rungs as u32 * EPOCHS as u32 {
                    acts[slot] = ACT_FORGE_BASE + pair as u8;
                    if let Some(v) = try_actions(&acts, out, &mut dedup) {
                        return Err(v);
                    }
                }
                // The forging adversary also gets corrupt-all: it must
                // never produce a successor Deliver/Omit cannot (the
                // content-oblivious claim, checked by dedup collapsing
                // it onto one of them).
                acts[slot] = ACT_CORRUPT;
                if let Some(v) = try_actions(&acts, out, &mut dedup) {
                    return Err(v);
                }
            }
            acts[slot] = ACT_DELIVER;
        }
    }
    Ok(())
}

/// A predicate violation with the exact adversary schedule that
/// reaches it — the replayable artifact the conformance bridge turns
/// into a [`FaultScript`].
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The violated predicate.
    pub predicate: Predicate,
    /// The controller that violates it (the receiver of the final
    /// round's faults, for the per-step predicates).
    pub victim: usize,
    /// The adversary schedule, one [`JointAction`] per round
    /// (round `r` of the trace is `rounds[r - 1]`).
    pub rounds: Vec<JointAction>,
    /// Human-oriented account of the violation.
    pub description: String,
}

impl Counterexample {
    /// Rounds in the trace.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` when the violation occurs in the initial state (never
    /// produced by the explorer, but the type allows it).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Serializes the trace into the wire-faithful fault schedule:
    /// every non-deliver link action becomes the byte-level
    /// [`LinkFault`] that provokes the same observation under the
    /// production decode path.
    pub fn to_fault_script(&self, n: usize) -> FaultScript {
        let mut script = FaultScript::new();
        for (idx, joint) in self.rounds.iter().enumerate() {
            let round = idx as u64 + 1;
            for (recv, per_sender) in joint.iter().enumerate().take(n) {
                let senders = (0..n).filter(|j| *j != recv);
                for (slot, sender) in senders.enumerate() {
                    if let Some(fault) = action_fault(per_sender[slot]) {
                        script.insert(round, sender as u32, recv as u32, fault);
                    }
                }
            }
        }
        script
    }
}

/// Replays a [`FaultScript`] through the pure [`step`] machine for
/// `rounds` rounds at system size `n`, returning every controller's
/// per-round `(rung, epoch)` schedule. This is the model side of the
/// counterexample bridge: the conformance harness replays the same
/// script through the real substrates and compares schedules.
pub fn replay_script(
    cfg: &AdaptiveConfig,
    n: usize,
    script: &FaultScript,
    rounds: u64,
) -> Vec<Vec<(u8, u8)>> {
    replay(cfg, n, script, rounds).0
}

/// Replays a [`FaultScript`] through the pure machine like
/// [`replay_script`], but watching the per-step predicates: returns
/// the first violation as `(round, controller, predicate)`, or `None`
/// when the whole replay is clean. Counterexample regression tests
/// assert the violation reproduces at the pinned coordinates.
pub fn replay_check(
    cfg: &AdaptiveConfig,
    n: usize,
    script: &FaultScript,
    rounds: u64,
) -> Option<(u64, usize, Predicate)> {
    replay(cfg, n, script, rounds).1
}

/// Every controller's per-round `(rung, epoch)`: `schedule[p][r - 1]`.
type Schedule = Vec<Vec<(u8, u8)>>;

/// The one replay walk behind [`replay_script`] and [`replay_check`]:
/// [`step_node`] evolves each controller exactly as [`step`] does, so
/// one pass yields both the schedule and the first violation.
fn replay(
    cfg: &AdaptiveConfig,
    n: usize,
    script: &FaultScript,
    rounds: u64,
) -> (Schedule, Option<(u64, usize, Predicate)>) {
    let mut nodes = vec![CtlNode::initial(cfg); n];
    let mut schedule = vec![Vec::new(); n];
    let mut first_violation = None;
    for round in 1..=rounds {
        let pre = nodes.clone();
        for (recv, node) in nodes.iter_mut().enumerate() {
            let links = pre
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != recv)
                .map(|(j, c)| (&c.st, script.get(round, j as u32, recv as u32)));
            let (tally, ads) = observe(cfg, links);
            if let (_, Some(p)) = step_node(cfg, node, tally, &ads) {
                first_violation.get_or_insert((round, recv, p));
            }
            schedule[recv].push((node.st.rung, node.st.epoch));
        }
    }
    (schedule, first_violation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gossip_cfg() -> AdaptiveConfig {
        AdaptiveConfig::standard(3, 1).with_gossip()
    }

    #[test]
    fn pack_roundtrips_through_unpack() {
        let cfg = gossip_cfg();
        let mut node = CtlNode::initial(&cfg);
        // Walk a few asymmetric rounds so every packed field is
        // exercised (window contents, clocks, majority streak).
        let ads = [
            RungAdvert { rung: 2, epoch: 3 },
            RungAdvert { rung: 2, epoch: 3 },
        ];
        for delivered in [2usize, 1, 2, 0, 2] {
            let tally = RoundTally {
                expected: 2,
                delivered,
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            };
            step_node(&cfg, &mut node, tally, &ads);
        }
        let mut buf = [0u8; CTL_BYTES];
        node.pack(&mut buf);
        let back = CtlNode::unpack(&buf, 3, cfg.window);
        assert_eq!(back, node);
    }

    #[test]
    fn action_codes_roundtrip() {
        assert_eq!(action_fault(ACT_DELIVER), None);
        assert_eq!(action_fault(ACT_OMIT), Some(LinkFault::Omit));
        assert_eq!(action_fault(ACT_MUTE), Some(LinkFault::MuteAdvert));
        for rung in 0..5u8 {
            for epoch in 0..EPOCHS {
                let code = ACT_FORGE_BASE + rung * EPOCHS + epoch;
                assert_eq!(
                    action_fault(code),
                    Some(LinkFault::Forge(RungAdvert { rung, epoch }))
                );
            }
        }
    }

    #[test]
    fn receiver_successors_dedup_below_raw_observation_count() {
        let cfg = gossip_cfg();
        let mc = McConfig::new(cfg, 3);
        mc.validate();
        let ctls = vec![CtlNode::initial(&mc.cfg); 3];
        let mut out = Vec::new();
        receiver_successors(&mc, &ctls, 0, &mut out).expect("defaults hold at depth 1");
        // 328 raw observations at n = 3 with forging; successor dedup
        // must collapse the stale-forgery bulk.
        assert!(!out.is_empty());
        assert!(out.len() < 100, "dedup too weak: {} successors", out.len());
    }

    #[test]
    fn counterexample_serializes_to_the_matching_script() {
        let mut joint: JointAction = [[ACT_DELIVER; MAX_N]; MAX_N];
        joint[0][1] = ACT_OMIT; // receiver 0, second peer (= node 2)
        joint[2][0] = ACT_FORGE_BASE + EPOCHS + 4; // receiver 2, first peer (= node 0): forge rung 1 epoch 4
        let cx = Counterexample {
            predicate: Predicate::EpochOrder,
            victim: 0,
            rounds: vec![joint],
            description: String::new(),
        };
        let script = cx.to_fault_script(3);
        assert_eq!(script.len(), 2);
        assert_eq!(script.get(1, 2, 0), Some(LinkFault::Omit));
        assert_eq!(
            script.get(1, 0, 2),
            Some(LinkFault::Forge(RungAdvert { rung: 1, epoch: 4 }))
        );
    }
}
