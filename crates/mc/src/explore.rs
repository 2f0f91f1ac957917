//! The two searches over the controller machine, both on the shared
//! [`Explorer`]: the joint product of all `n` controllers and the
//! single-victim search.
//!
//! Per expanded joint node the per-receiver successor sets are
//! computed once ([`receiver_successors`]) and their cartesian product
//! enumerated with the [`odometer`] — the per-receiver dedup is what
//! keeps the product tractable: hundreds of raw observations per
//! receiver collapse to a handful of distinct post-states.
//!
//! The two per-step predicates (last-resort pin, epoch order) are
//! checked inside successor enumeration; the global reconvergence
//! predicate runs a memoized deterministic all-calm suffix from every
//! divergent node as it is dequeued. Reaching the horizon leaves a
//! search incomplete, as does the state cap.

use crate::explorer::{odometer, Explorer};
use crate::model::{
    pack_node, receiver_successors, step_node, true_advert, unpack_node, Counterexample, CtlNode,
    JointAction, Key, LocalSucc, McConfig, Predicate, ACT_DELIVER, ACT_FORGE_BASE, ACT_MUTE,
    ACT_OMIT, CTL_BYTES, EPOCHS, MAX_N,
};
use heardof_coding::{RoundTally, RungAdvert};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// What an exploration covered and whether it found a violation.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct joint states reached (including the initial state).
    pub states: usize,
    /// Joint transitions taken (edges into first-reached states plus
    /// edges into already-known ones).
    pub transitions: u64,
    /// Deepest round reached from the initial state.
    pub max_depth: u32,
    /// `true` when the frontier drained without hitting the horizon or
    /// the state cap — the reported region is the *entire* reachable
    /// space and the verdict is a fixpoint, not a bound.
    pub complete: bool,
    /// The first (shortest) predicate violation found, if any.
    pub violation: Option<Counterexample>,
}

impl ExploreReport {
    /// `true` when no predicate violation was found in the explored
    /// region.
    pub fn green(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively explores the product machine under `mc`'s bounds.
///
/// # Panics
///
/// Panics on a configuration [`McConfig::validate`] rejects.
pub fn explore(mc: &McConfig) -> ExploreReport {
    mc.validate();
    let root: Vec<CtlNode> = (0..mc.n).map(|_| CtlNode::initial(&mc.cfg)).collect();
    let mut search: Explorer<Key, JointAction> = Explorer::new(pack_node(&root), mc.max_states);
    let mut calm_memo: HashMap<Key, bool> = HashMap::new();
    let (mut transitions, mut max_depth, mut horizon_hit) = (0u64, 0u32, false);
    let mut succs: Vec<Vec<LocalSucc>> = vec![Vec::new(); mc.n];

    while let Some(id) = search.pop() {
        let depth = search.depth(id);
        max_depth = max_depth.max(depth);
        let ctls = unpack_node(search.state(id), mc);

        // Reconvergence: every divergent reachable state must heal
        // under an all-calm suffix.
        if !converged(&ctls) && !calm_reconverges(mc, &ctls, &mut calm_memo) {
            let rungs: Vec<u8> = ctls.iter().map(|c| c.st.rung).collect();
            let cx = Counterexample {
                predicate: Predicate::Reconverge,
                victim: 0,
                rounds: search.path(id),
                description: format!(
                    "divergent rungs {rungs:?} fail to reconverge within {} calm rounds",
                    mc.calm_bound
                ),
            };
            return report(&search, transitions, max_depth, false, Some(cx));
        }

        if depth >= mc.horizon {
            horizon_hit = true;
            continue;
        }

        // Per-receiver successor sets (dedup by packed post-state);
        // per-step predicate violations surface here with the exact
        // provoking action vector.
        for (recv, out) in succs.iter_mut().enumerate() {
            if let Err((succ, predicate)) = receiver_successors(mc, &ctls, recv, out) {
                let mut last: JointAction = [[ACT_DELIVER; MAX_N]; MAX_N];
                last[recv] = succ.action;
                let mut rounds = search.path(id);
                rounds.push(last);
                let cx = Counterexample {
                    predicate,
                    victim: recv,
                    rounds,
                    description: format!(
                        "controller {recv} violates {predicate:?} at depth {} (outcome {:?})",
                        depth + 1,
                        succ.outcome
                    ),
                };
                return report(
                    &search,
                    transitions,
                    max_depth.max(depth + 1),
                    false,
                    Some(cx),
                );
            }
        }

        let radix: Vec<usize> = succs.iter().map(Vec::len).collect();
        let _ = odometer::<()>(&radix, |pick| {
            transitions += 1;
            let mut key = [0u8; CTL_BYTES * MAX_N];
            let mut joint: JointAction = [[ACT_DELIVER; MAX_N]; MAX_N];
            for (recv, (&p, local)) in pick.iter().zip(&succs).enumerate() {
                key[recv * CTL_BYTES..(recv + 1) * CTL_BYTES].copy_from_slice(&local[p].packed);
                joint[recv] = local[p].action;
            }
            search.insert(id, joint, Key(key));
            ControlFlow::Continue(())
        });
    }

    let complete = !horizon_hit && !search.capped();
    report(&search, transitions, max_depth, complete, None)
}

fn report<S, A>(
    search: &Explorer<S, A>,
    transitions: u64,
    max_depth: u32,
    complete: bool,
    violation: Option<Counterexample>,
) -> ExploreReport {
    ExploreReport {
        states: search.states(),
        transitions,
        max_depth,
        complete,
        violation,
    }
}

/// `true` when every controller sits on the same rung.
fn converged(ctls: &[CtlNode]) -> bool {
    ctls.windows(2).all(|w| w[0].st.rung == w[1].st.rung)
}

/// Runs the deterministic all-calm suffix (every link delivers clean,
/// true advertisements heard) from `ctls`, memoizing verdicts per
/// joint state. Reconverged means every rung reaches 0 — the unique
/// calm fixpoint of the ladder — within `mc.calm_bound` rounds;
/// revisiting a joint state first is a calm-suffix cycle, i.e. a
/// permanent split.
fn calm_reconverges(mc: &McConfig, ctls: &[CtlNode], memo: &mut HashMap<Key, bool>) -> bool {
    let mut states: Vec<CtlNode> = ctls.to_vec();
    let mut path: Vec<Key> = Vec::new();
    let mut on_path: HashMap<Key, ()> = HashMap::new();
    let verdict = loop {
        if states.iter().all(|c| c.st.rung == 0) {
            break true;
        }
        let key = pack_node(&states);
        if let Some(&v) = memo.get(&key) {
            break v;
        }
        if path.len() as u32 >= mc.calm_bound || on_path.insert(key, ()).is_some() {
            break false;
        }
        path.push(key);
        let truth: Vec<RungAdvert> = states.iter().map(|c| true_advert(&c.st)).collect();
        let mut next = states.clone();
        for (recv, node) in next.iter_mut().enumerate() {
            let ads: Vec<RungAdvert> = truth
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != recv)
                .map(|(_, a)| *a)
                .collect();
            let tally = RoundTally {
                expected: mc.n - 1,
                delivered: mc.n - 1,
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            };
            // The calm suffix asserts reconvergence only; per-step
            // predicates on calm rounds are covered by the main
            // exploration (all-deliver is one of its actions).
            step_node(&mc.cfg, node, tally, &ads);
        }
        states = next;
    };
    for key in path {
        memo.insert(key, verdict);
    }
    verdict
}

/// Exhaustive search over a **single victim controller** under the
/// budgeted advert adversary, with every genuine peer advertisement
/// silenced: per round the adversary picks how many peer frames
/// survive (muted) versus omit, and at most one forged in-ladder
/// advertisement riding a kept frame. This is a sound
/// *under-approximation* of the joint machine — every behavior here is
/// realizable by a joint schedule (mute/omit/forge are per-link wire
/// actions, and peers simply deliver among themselves) — so any
/// violation it finds is a real one, reached far deeper than the joint
/// product search can afford. Used as the counterexample *finder*; the
/// joint explorer remains the exhaustive verdict within its horizon.
///
/// The returned counterexample's rounds are full [`JointAction`]s:
/// the victim's row carries the schedule, every other receiver's links
/// deliver clean.
pub fn explore_single(mc: &McConfig, victim: usize) -> ExploreReport {
    mc.validate();
    let k = mc.peers();
    let mut root = [0u8; CTL_BYTES];
    CtlNode::initial(&mc.cfg).pack(&mut root);
    let mut search: Explorer<[u8; CTL_BYTES], [u8; MAX_N]> = Explorer::new(root, mc.max_states);
    let (mut transitions, mut max_depth, mut horizon_hit) = (0u64, 0u32, false);
    // Observations: forge slot 0 (or no forge), the next `kept` peer
    // frames muted, the rest omitted.
    let pairs = mc.cfg.ladder.len() as u8 * EPOCHS;
    let forges: Vec<Option<u8>> = std::iter::once(None)
        .chain((0..pairs).map(Some))
        .filter(|f| mc.forge || f.is_none())
        .collect();

    while let Some(id) = search.pop() {
        let depth = search.depth(id);
        max_depth = max_depth.max(depth);
        if depth >= mc.horizon {
            horizon_hit = true;
            continue;
        }
        let node = CtlNode::unpack(search.state(id), mc.n, mc.cfg.window);
        for &forge in &forges {
            let spare = if forge.is_some() { k - 1 } else { k };
            for kept in 0..=spare {
                transitions += 1;
                let mut action = [ACT_OMIT; MAX_N];
                let mut ads: Vec<RungAdvert> = Vec::new();
                let mut delivered = 0usize;
                if let Some(pair) = forge {
                    action[delivered] = ACT_FORGE_BASE + pair;
                    ads.push(RungAdvert {
                        rung: pair / EPOCHS,
                        epoch: pair % EPOCHS,
                    });
                    delivered += 1;
                }
                for _ in 0..kept {
                    action[delivered] = ACT_MUTE;
                    delivered += 1;
                }
                let tally = RoundTally {
                    expected: k,
                    delivered,
                    corrected: 0,
                    value_faults: 0,
                    evidence: 0,
                };
                let mut next = node;
                let (outcome, violated) = step_node(&mc.cfg, &mut next, tally, &ads);
                if let Some(predicate) = violated {
                    let mut rows = search.path(id);
                    rows.push(action);
                    let rounds = rows
                        .into_iter()
                        .map(|row| {
                            let mut joint: JointAction = [[ACT_DELIVER; MAX_N]; MAX_N];
                            joint[victim] = row;
                            joint
                        })
                        .collect();
                    let cx = Counterexample {
                        predicate,
                        victim,
                        rounds,
                        description: format!(
                            "controller {victim} violates {predicate:?} at depth {} \
                             (outcome {outcome:?})",
                            depth + 1
                        ),
                    };
                    return report(
                        &search,
                        transitions,
                        max_depth.max(depth + 1),
                        false,
                        Some(cx),
                    );
                }
                let mut packed = [0u8; CTL_BYTES];
                next.pack(&mut packed);
                search.insert(id, action, packed);
            }
        }
    }

    let complete = !horizon_hit && !search.capped();
    report(&search, transitions, max_depth, complete, None)
}
