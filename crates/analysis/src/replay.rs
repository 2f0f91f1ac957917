//! Witness replay: from abstract counterexamples to concrete runs.
//!
//! The exhaustive searches ([`crate::WitnessSearch`]) work on an
//! *abstraction* of `A_{T,E}` (reception multisets over binary values).
//! This module closes the loop: a [`Witness`] is compiled into a
//! scripted [`Adversary`] and re-run against the real simulator, so
//! every violation the model checker reports is confirmed — message
//! matrices, trace recording, consensus checker and all — and shown to
//! respect `P_α` on the recorded history.

use crate::witness::{ReceiverChoice, Witness};
use heardof_adversary::Adversary;
use heardof_core::{Ate, AteParams};
use heardof_model::{MessageMatrix, ProcessId, Round};
use heardof_sim::{RunOutcome, Simulator};
use rand::rngs::StdRng;

/// An adversary that reproduces a witness's per-receiver choices
/// exactly: `Silence` drops a receiver's whole column; `HearAll{ones}`
/// corrupts just enough messages to shift the number of `1`s to the
/// scripted count. Rounds beyond the script are delivered perfectly.
#[derive(Clone, Debug)]
pub struct WitnessAdversary {
    rounds: Vec<Vec<ReceiverChoice>>,
}

impl WitnessAdversary {
    /// Builds the scripted adversary from a witness.
    pub fn new(witness: &Witness<ReceiverChoice>) -> Self {
        WitnessAdversary {
            rounds: witness.rounds.clone(),
        }
    }
}

impl Adversary<u64> for WitnessAdversary {
    fn name(&self) -> String {
        format!("witness-replay({} rounds)", self.rounds.len())
    }

    fn deliver(
        &mut self,
        round: Round,
        intended: &MessageMatrix<u64>,
        _rng: &mut StdRng,
    ) -> MessageMatrix<u64> {
        let n = intended.universe();
        let mut delivered = intended.clone();
        let Some(choices) = self.rounds.get(round.index()) else {
            return delivered; // past the script: perfect communication
        };
        for (r, choice) in choices.iter().enumerate() {
            let receiver = ProcessId::new(r as u32);
            match choice {
                ReceiverChoice::Silence => {
                    for s in 0..n {
                        delivered.clear(ProcessId::new(s as u32), receiver);
                    }
                }
                ReceiverChoice::HearAll { ones } => {
                    let mut current_ones = (0..n)
                        .filter(|&s| intended.get(ProcessId::new(s as u32), receiver) == Some(&1))
                        .count();
                    // Flip 0→1 or 1→0 until the scripted count holds.
                    for s in 0..n {
                        if current_ones == *ones {
                            break;
                        }
                        let sender = ProcessId::new(s as u32);
                        let v = *intended.get(sender, receiver).expect("broadcast is total");
                        if current_ones < *ones && v == 0 {
                            delivered.set(sender, receiver, 1);
                            current_ones += 1;
                        } else if current_ones > *ones && v == 1 {
                            delivered.set(sender, receiver, 0);
                            current_ones -= 1;
                        }
                    }
                }
                ReceiverChoice::HearSome { m, ones } => {
                    // Keep o true 1s and m−o true 0s, where o is the
                    // feasible kept-ones count closest to the scripted
                    // `ones`; the gap is bridged by ≤ α corruptions
                    // (guaranteed realizable by the search's emission).
                    let true_ones = (0..n)
                        .filter(|&s| intended.get(ProcessId::new(s as u32), receiver) == Some(&1))
                        .count();
                    let o_lo = m.saturating_sub(n - true_ones);
                    let o_hi = (*m).min(true_ones);
                    let o = (*ones).clamp(o_lo, o_hi);
                    let mut keep_ones = o;
                    let mut keep_zeros = m - o;
                    let mut kept = Vec::with_capacity(*m);
                    for s in 0..n {
                        let sender = ProcessId::new(s as u32);
                        let v = *intended.get(sender, receiver).expect("broadcast is total");
                        let keep = if v == 1 && keep_ones > 0 {
                            keep_ones -= 1;
                            true
                        } else if v == 0 && keep_zeros > 0 {
                            keep_zeros -= 1;
                            true
                        } else {
                            false
                        };
                        if keep {
                            kept.push((sender, v));
                        } else {
                            delivered.clear(sender, receiver);
                        }
                    }
                    // Corrupt kept messages toward the scripted count.
                    let mut current_ones = o;
                    for (sender, v) in kept {
                        if current_ones == *ones {
                            break;
                        }
                        if current_ones < *ones && v == 0 {
                            delivered.set(sender, receiver, 1);
                            current_ones += 1;
                        } else if current_ones > *ones && v == 1 {
                            delivered.set(sender, receiver, 0);
                            current_ones -= 1;
                        }
                    }
                }
            }
        }
        delivered
    }
}

/// Replays a witness against the real simulator.
///
/// Returns the concrete run outcome; callers typically assert that
/// `outcome.verdict` exhibits the violation the search promised and
/// that `P_α` held on the recorded trace.
///
/// # Examples
///
/// ```
/// use heardof_analysis::{replay_witness, SearchOutcome, WitnessSearch};
/// use heardof_core::{AteParams, Threshold};
/// use heardof_predicates::{CommPredicate, PAlpha};
///
/// // E below the agreement bound: the search finds a witness…
/// let bad = AteParams::unchecked(4, 1, Threshold::integer(2), Threshold::integer(2));
/// let SearchOutcome::Violation(w) = WitnessSearch::new(bad, 2)
///     .run(&[false, false, true, true]) else { panic!() };
///
/// // …and the witness reproduces on the real engine, within P_α.
/// let outcome = replay_witness(&bad, &w);
/// assert!(!outcome.is_safe());
/// assert!(PAlpha::new(1).holds(&outcome.trace));
/// ```
pub fn replay_witness(
    params: &AteParams,
    witness: &Witness<ReceiverChoice>,
) -> RunOutcome<Ate<u64>> {
    let n = params.n();
    assert_eq!(witness.initial.len(), n, "witness is for a different n");
    let rounds = witness.rounds.len().max(1);
    Simulator::new(Ate::<u64>::new(*params), n)
        .adversary(WitnessAdversary::new(witness))
        .initial_values(witness.initial.iter().map(|&b| u64::from(b)))
        .run_rounds(rounds)
        .expect("witness carries a full initial configuration")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::{SearchOutcome, WitnessSearch};
    use heardof_core::Threshold;
    use heardof_predicates::{CommPredicate, PAlpha};

    fn assert_witness_reproduces(params: AteParams, initial: &[bool]) {
        let outcome = WitnessSearch::new(params, 3).run(initial);
        let SearchOutcome::Violation(w) = outcome else {
            panic!("expected the search to find a violation");
        };
        let run = replay_witness(&params, &w);
        assert!(
            !run.is_safe(),
            "the simulator must reproduce the abstract violation:\n{w}"
        );
        assert!(
            PAlpha::new(params.alpha()).holds(&run.trace),
            "replayed corruption must stay within the α budget"
        );
        // The violation kinds must correspond.
        let concrete = format!("{:?}", run.verdict.violations);
        if w.violation.contains("integrity") {
            assert!(concrete.contains("Integrity"), "{concrete}");
        } else {
            assert!(concrete.contains("Agreement"), "{concrete}");
        }
    }

    #[test]
    fn weak_e_witness_reproduces() {
        assert_witness_reproduces(
            AteParams::unchecked(4, 1, Threshold::integer(2), Threshold::integer(2)),
            &[false, false, true, true],
        );
    }

    #[test]
    fn weak_lock_witness_reproduces() {
        assert_witness_reproduces(
            AteParams::unchecked(4, 1, Threshold::integer(1), Threshold::integer(3)),
            &[false, false, true, true],
        );
    }

    #[test]
    fn integrity_witness_reproduces() {
        assert_witness_reproduces(
            AteParams::unchecked(3, 2, Threshold::integer(3), Threshold::integer(1)),
            &[false, false, false],
        );
    }

    #[test]
    fn one_third_rule_shape_witness_reproduces() {
        // OneThirdRule's implicit thresholds at α = 1 (see the tightness
        // bench): the found two-round scenario replays concretely.
        assert_witness_reproduces(
            AteParams::unchecked(6, 1, Threshold::integer(4), Threshold::integer(4)),
            &[false, false, true, true, true, true],
        );
    }

    #[test]
    fn partial_hearing_witnesses_reproduce() {
        let bad = AteParams::unchecked(5, 1, Threshold::integer(2), Threshold::integer(2));
        let outcome = WitnessSearch::new(bad, 2)
            .with_partial_hearing()
            .run(&[false, false, false, true, true]);
        let SearchOutcome::Violation(w) = outcome else {
            panic!("expected a violation");
        };
        let run = replay_witness(&bad, &w);
        assert!(!run.is_safe(), "{w}");
        assert!(PAlpha::new(1).holds(&run.trace));
    }

    #[test]
    fn replay_past_script_is_benign() {
        // A witness with no rounds replays as one perfect round.
        let params = AteParams::balanced(4, 0).unwrap();
        let w = Witness {
            initial: vec![true, true, true, true],
            rounds: Vec::new(),
            violation: String::new(),
        };
        let run = replay_witness(&params, &w);
        assert!(run.is_safe());
        assert!(run.all_decided(), "perfect unanimity decides in round 1");
    }
}
