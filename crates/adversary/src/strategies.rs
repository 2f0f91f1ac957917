//! Concrete fault-injection strategies.
//!
//! Each strategy realizes a fault pattern discussed in the paper:
//!
//! * [`RandomCorruption`] / [`BorrowedCorruption`] — dynamic value
//!   faults, up to `α` per receiver per round (`P_α` by construction),
//! * [`RandomOmission`] — benign faults (message loss),
//! * [`SantoroWidmayerBlock`] — the block faults of the \[18\] lower
//!   bound: every round, one (rotating) sender's entire output corrupted,
//! * [`StaticByzantine`] — classic permanent faults: a fixed set of
//!   processes whose every message may be corrupted (per-receiver
//!   independently),
//! * [`SymmetricByzantine`] — "identical Byzantine" \[3\] / "symmetrical"
//!   \[20\] faults: a corrupted sender still delivers the *same* wrong
//!   value to everyone (the left branch of Figure 3),
//! * [`TransientBurst`] — transient faults: an inner adversary active
//!   only inside a round window.

use crate::traits::Adversary;
use heardof_model::{Corruptible, MessageMatrix, ProcessId, ProcessSet, Round};
use rand::rngs::StdRng;
use rand::Rng;

/// Corrupts up to `alpha` randomly chosen receptions per receiver per
/// round, each with probability `link_prob`, using [`Corruptible`] to
/// mutate contents.
///
/// Each receiver walks its senders in a fresh uniform order and accepts
/// each with probability `link_prob` until `alpha` are corrupted. The
/// order is drawn lazily (a partial Fisher–Yates), one position per
/// candidate, so a full-probability round at n = 16, α = 3 draws 48
/// positions rather than the 240 of a full shuffle per receiver.
///
/// Satisfies `P_α` by construction.
///
/// # Examples
///
/// ```
/// use heardof_adversary::{Adversary, RandomCorruption};
/// use heardof_model::{MessageMatrix, Round, RoundSets};
/// use rand::SeedableRng;
///
/// let mut adv: RandomCorruption = RandomCorruption::new(2, 1.0);
/// let intended = MessageMatrix::from_fn(6, |_, _| Some(7u64));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let delivered = adv.deliver(Round::FIRST, &intended, &mut rng);
/// let sets = RoundSets::from_matrices(&intended, &delivered);
/// assert!(sets.max_aho() <= 2);
/// assert!(sets.total_corruptions() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct RandomCorruption {
    alpha: u32,
    link_prob: f64,
}

impl RandomCorruption {
    /// Up to `alpha` corruptions per receiver, each sampled with
    /// probability `link_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `link_prob` is not within `[0, 1]`.
    pub fn new(alpha: u32, link_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&link_prob),
            "link_prob must be a probability"
        );
        RandomCorruption { alpha, link_prob }
    }

    /// The per-receiver budget `α`.
    pub fn alpha(&self) -> u32 {
        self.alpha
    }
}

impl<M: Clone + Corruptible + Send> Adversary<M> for RandomCorruption {
    fn name(&self) -> String {
        format!("random-corruption(α={}, p={})", self.alpha, self.link_prob)
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        let n = intended.universe();
        // The sender order, inline while n ≤ 64; each receiver permutes
        // the previous receiver's order.
        let mut inline = [0u32; 64];
        let mut spill = Vec::new();
        let senders: &mut [u32] = if n <= inline.len() {
            &mut inline[..n]
        } else {
            spill.resize(n, 0);
            &mut spill
        };
        for (s, id) in senders.iter_mut().enumerate() {
            *id = s as u32;
        }
        for r in 0..n {
            let receiver = ProcessId::new(r as u32);
            // A lazy Fisher–Yates: position `i` is drawn only when the
            // budget still has room, so a receiver meets a uniform
            // ordered prefix of its senders and stops after `α` victims.
            let mut used = 0;
            for i in 0..n {
                if used >= self.alpha {
                    break;
                }
                let j = rng.gen_range(i..n);
                senders.swap(i, j);
                if rng.gen_bool(self.link_prob) {
                    let sender = ProcessId::new(senders[i]);
                    let mut mutated = false;
                    out.mutate_cell(sender, receiver, |m| {
                        mutated = true;
                        m.corrupted(rng)
                    });
                    if mutated {
                        used += 1;
                    }
                }
            }
        }
    }

    fn corruption_bound(&self) -> Option<u32> {
        Some(self.alpha)
    }
}

/// Like [`RandomCorruption`] but replaces a message with *another
/// sender's* intended message — corrupted values always stay inside the
/// protocol's live value set, which stresses threshold logic harder than
/// arbitrary garbage.
#[derive(Clone, Debug)]
pub struct BorrowedCorruption {
    alpha: u32,
    link_prob: f64,
}

impl BorrowedCorruption {
    /// Up to `alpha` borrowed-value corruptions per receiver, each with
    /// probability `link_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `link_prob` is not within `[0, 1]`.
    pub fn new(alpha: u32, link_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&link_prob),
            "link_prob must be a probability"
        );
        BorrowedCorruption { alpha, link_prob }
    }
}

impl<M: Clone + Eq + Send> Adversary<M> for BorrowedCorruption {
    fn name(&self) -> String {
        format!(
            "borrowed-corruption(α={}, p={})",
            self.alpha, self.link_prob
        )
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        let n = intended.universe();
        for r in 0..n {
            let receiver = ProcessId::new(r as u32);
            let mut used = 0;
            for s in 0..n {
                if used >= self.alpha {
                    break;
                }
                if !rng.gen_bool(self.link_prob) {
                    continue;
                }
                let sender = ProcessId::new(s as u32);
                // Borrow the intended message of a random other sender.
                let donor = ProcessId::new(rng.gen_range(0..n) as u32);
                if donor == sender {
                    continue;
                }
                if let (Some(theirs), Some(mine)) = (
                    intended.get(donor, receiver).cloned(),
                    intended.get(sender, receiver),
                ) {
                    if &theirs != mine {
                        out.set(sender, receiver, theirs);
                        used += 1;
                    }
                }
            }
        }
    }

    fn corruption_bound(&self) -> Option<u32> {
        Some(self.alpha)
    }
}

/// Drops each message independently with probability `drop_prob` —
/// benign transmission faults only.
#[derive(Clone, Debug)]
pub struct RandomOmission {
    drop_prob: f64,
}

impl RandomOmission {
    /// Each link drops its message with probability `drop_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is not within `[0, 1]`.
    pub fn new(drop_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop_prob must be a probability"
        );
        RandomOmission { drop_prob }
    }
}

impl<M: Clone + Send> Adversary<M> for RandomOmission {
    fn name(&self) -> String {
        format!("random-omission(p={})", self.drop_prob)
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        let n = intended.universe();
        for s in 0..n {
            for r in 0..n {
                if rng.gen_bool(self.drop_prob) {
                    out.clear(ProcessId::new(s as u32), ProcessId::new(r as u32));
                }
            }
        }
    }

    fn corruption_bound(&self) -> Option<u32> {
        Some(0)
    }
}

/// Silences a fixed set of senders: their messages are dropped at every
/// receiver, every round (a crashed-or-partitioned-senders pattern;
/// purely benign).
#[derive(Clone, Debug)]
pub struct SenderOmission {
    silenced: ProcessSet,
}

impl SenderOmission {
    /// Drops all traffic from the given set.
    pub fn new(silenced: ProcessSet) -> Self {
        SenderOmission { silenced }
    }

    /// Drops all traffic from the first `k` processes.
    pub fn first(n: usize, k: usize) -> Self {
        SenderOmission {
            silenced: ProcessSet::from_indices(n, 0..k.min(n)),
        }
    }
}

impl<M: Clone + Send> Adversary<M> for SenderOmission {
    fn name(&self) -> String {
        format!("sender-omission(k={})", self.silenced.len())
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        _rng: &mut StdRng,
    ) {
        let n = intended.universe();
        for sender in self.silenced.iter() {
            for r in 0..n {
                out.clear(sender, ProcessId::new(r as u32));
            }
        }
    }
}

/// The Santoro/Widmayer block-fault pattern \[18\]: every round, the
/// entire output of one sender is corrupted; the victim rotates, so the
/// faults are *dynamic* (they hit every process) yet each receiver sees
/// only **one** corrupted message per round (`P_1` holds!).
///
/// This is precisely the scenario behind the `⌊n/2⌋`-faults-per-round
/// impossibility — and precisely what the paper's per-receiver
/// accounting defuses.
#[derive(Clone, Debug)]
pub struct SantoroWidmayerBlock;

impl SantoroWidmayerBlock {
    /// Corrupts the victim's messages to *all* receivers (n faults/round).
    pub fn all_receivers() -> Self {
        SantoroWidmayerBlock
    }

    /// The victim of `round`: rotates through `Π`.
    pub fn victim(round: Round, n: usize) -> ProcessId {
        ProcessId::new(((round.get() - 1) % n as u64) as u32)
    }
}

impl<M: Clone + Corruptible + Send> Adversary<M> for SantoroWidmayerBlock {
    fn name(&self) -> String {
        "santoro-widmayer-block".to_string()
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        let n = intended.universe();
        let victim = Self::victim(round, n);
        for r in 0..n {
            out.mutate_cell(victim, ProcessId::new(r as u32), |m| m.corrupted(rng));
        }
    }
}

/// Classic static/permanent value faults: every message from a fixed set
/// of processes is corrupted, independently per receiver (the most
/// adversarial reading of "Byzantine", minus state corruption — see
/// Figure 3 and §5.2).
///
/// Per-receiver corruption is `|B|` every round, so `P_α` holds with
/// `α = |B|`, and the altered span satisfies `|AS| ≤ |B|`.
#[derive(Clone, Debug)]
pub struct StaticByzantine {
    corrupt_set: ProcessSet,
}

impl StaticByzantine {
    /// Corrupts all traffic from the given set.
    pub fn new(corrupt_set: ProcessSet) -> Self {
        StaticByzantine { corrupt_set }
    }

    /// Corrupts all traffic from the first `f` processes.
    pub fn first(n: usize, f: usize) -> Self {
        StaticByzantine {
            corrupt_set: ProcessSet::from_indices(n, 0..f.min(n)),
        }
    }
}

impl<M: Clone + Corruptible + Send> Adversary<M> for StaticByzantine {
    fn name(&self) -> String {
        format!("static-byzantine(f={})", self.corrupt_set.len())
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        let n = intended.universe();
        for sender in self.corrupt_set.iter() {
            for r in 0..n {
                out.mutate_cell(sender, ProcessId::new(r as u32), |m| m.corrupted(rng));
            }
        }
    }
}

/// "Identical Byzantine" faults: a corrupted sender's messages are
/// replaced by a *single* corrupted value delivered identically to all
/// receivers — the symmetrical-failure model implementable with signed
/// messages (§5.2, left branch of Figure 3).
#[derive(Clone, Debug)]
pub struct SymmetricByzantine {
    corrupt_set: ProcessSet,
}

impl SymmetricByzantine {
    /// Corrupts (symmetrically) all traffic from the given set.
    pub fn new(corrupt_set: ProcessSet) -> Self {
        SymmetricByzantine { corrupt_set }
    }

    /// Corrupts (symmetrically) all traffic from the first `f` processes.
    pub fn first(n: usize, f: usize) -> Self {
        SymmetricByzantine {
            corrupt_set: ProcessSet::from_indices(n, 0..f.min(n)),
        }
    }
}

impl<M: Clone + Corruptible + Send> Adversary<M> for SymmetricByzantine {
    fn name(&self) -> String {
        format!("symmetric-byzantine(f={})", self.corrupt_set.len())
    }

    fn deliver_into(
        &mut self,
        _round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        let n = intended.universe();
        for sender in self.corrupt_set.iter() {
            // One corrupted value per sender per round, broadcast as-is.
            let template = intended
                .get(sender, ProcessId::new(0))
                .map(|m| m.corrupted(rng));
            if let Some(bad) = template {
                for r in 0..n {
                    out.set(sender, ProcessId::new(r as u32), bad.clone());
                }
            }
        }
    }
}

/// Transient faults: delegates to `inner` only for rounds in
/// `[start, start + len)`; perfect communication elsewhere.
#[derive(Clone, Debug)]
pub struct TransientBurst<A> {
    inner: A,
    start: u64,
    len: u64,
}

impl<A> TransientBurst<A> {
    /// Faults occur only during rounds `start .. start + len`.
    pub fn new(inner: A, start: u64, len: u64) -> Self {
        TransientBurst { inner, start, len }
    }

    /// `true` if `round` falls inside the burst window.
    pub fn in_burst(&self, round: Round) -> bool {
        let r = round.get();
        r >= self.start && r < self.start + self.len
    }
}

impl<M, A> Adversary<M> for TransientBurst<A>
where
    M: Clone + Send,
    A: Adversary<M>,
{
    fn name(&self) -> String {
        format!(
            "transient[{}..{}]({})",
            self.start,
            self.start + self.len,
            self.inner.name()
        )
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        out: &mut MessageMatrix<M>,
        rng: &mut StdRng,
    ) {
        if self.in_burst(round) {
            self.inner.deliver_into(round, intended, out, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_model::RoundSets;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn intended(n: usize) -> MessageMatrix<u64> {
        MessageMatrix::from_fn(n, |s, _| Some(s.index() as u64 * 10))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn random_corruption_respects_alpha() {
        let mut adv: RandomCorruption = RandomCorruption::new(2, 1.0);
        let m = intended(8);
        let mut rng = rng();
        for round in 1..20u64 {
            let d = adv.deliver(Round::new(round), &m, &mut rng);
            let sets = RoundSets::from_matrices(&m, &d);
            assert!(sets.max_aho() <= 2, "round {round}: {}", sets.max_aho());
            // With p = 1 each receiver takes its full budget.
            assert_eq!(sets.total_corruptions(), 16);
        }
    }

    #[test]
    fn random_corruption_zero_prob_is_identity() {
        let mut adv: RandomCorruption = RandomCorruption::new(3, 0.0);
        let m = intended(5);
        let d = adv.deliver(Round::FIRST, &m, &mut rng());
        assert_eq!(d, m);
    }

    #[test]
    fn borrowed_corruption_uses_live_values() {
        let mut adv = BorrowedCorruption::new(2, 1.0);
        let m = intended(6);
        let d = adv.deliver(Round::FIRST, &m, &mut rng());
        let sets = RoundSets::from_matrices(&m, &d);
        assert!(sets.max_aho() <= 2);
        assert!(sets.total_corruptions() > 0);
        // Every delivered value must be some process's intended value.
        for (_, _, v) in d.iter() {
            assert!(*v % 10 == 0 && *v / 10 < 6, "borrowed value {v} is live");
        }
    }

    #[test]
    fn omission_drops_only() {
        let mut adv = RandomOmission::new(0.5);
        let m = intended(6);
        let d = adv.deliver(Round::FIRST, &m, &mut rng());
        let sets = RoundSets::from_matrices(&m, &d);
        assert_eq!(sets.total_corruptions(), 0);
        assert!(d.message_count() < 36);
    }

    #[test]
    fn block_adversary_rotates_victims_and_keeps_p1() {
        let mut adv = SantoroWidmayerBlock::all_receivers();
        let m = intended(5);
        let mut rng = rng();
        let mut victims = Vec::new();
        for round in 1..=5u64 {
            let d = adv.deliver(Round::new(round), &m, &mut rng);
            let sets = RoundSets::from_matrices(&m, &d);
            // n corrupted messages per round in total…
            assert_eq!(sets.total_corruptions(), 5);
            // …but only one per receiver: P_1 holds.
            assert_eq!(sets.max_aho(), 1);
            let span = sets.altered_span();
            assert_eq!(span.len(), 1);
            victims.push(span.iter().next().unwrap().index());
        }
        assert_eq!(victims, vec![0, 1, 2, 3, 4], "victim must rotate");
    }

    #[test]
    fn static_byzantine_bounds_altered_span() {
        let mut adv = StaticByzantine::first(6, 2);
        let m = intended(6);
        let mut rng = rng();
        for round in 1..10u64 {
            let d = adv.deliver(Round::new(round), &m, &mut rng);
            let sets = RoundSets::from_matrices(&m, &d);
            assert_eq!(sets.max_aho(), 2);
            assert!(sets
                .altered_span()
                .is_subset(&ProcessSet::from_indices(6, [0, 1])));
        }
    }

    #[test]
    fn symmetric_byzantine_delivers_identical_corruption() {
        let mut adv = SymmetricByzantine::first(5, 1);
        let m = intended(5);
        let d = adv.deliver(Round::FIRST, &m, &mut rng());
        // Sender 0's corrupted value must be identical at all receivers.
        let v0 = d.get(ProcessId::new(0), ProcessId::new(0)).unwrap();
        for r in 1..5 {
            assert_eq!(d.get(ProcessId::new(0), ProcessId::new(r)), Some(v0));
        }
        assert_ne!(*v0, 0, "value must actually be corrupted");
    }

    #[test]
    fn transient_burst_windows() {
        let mut adv = TransientBurst::new(StaticByzantine::first(4, 4), 3, 2);
        let m = intended(4);
        let mut rng = rng();
        for round in 1..=6u64 {
            let d = adv.deliver(Round::new(round), &m, &mut rng);
            let corrupted = d.corruption_count(&m);
            if (3..5).contains(&round) {
                assert!(corrupted > 0, "round {round} is inside the burst");
            } else {
                assert_eq!(corrupted, 0, "round {round} is outside the burst");
            }
        }
    }

    #[test]
    fn names_are_descriptive() {
        assert!(
            <RandomCorruption as Adversary<u64>>::name(&RandomCorruption::new(1, 0.5))
                .contains("α=1")
        );
    }

    /// `RandomCorruption::deliver` as it stood before the lazy draw —
    /// a full shuffle of the senders per receiver, then a scan —
    /// verbatim but for `self`: the distributional oracle.
    fn shuffle_deliver<M: Clone + Corruptible>(
        adv: &RandomCorruption,
        intended: &MessageMatrix<M>,
        rng: &mut StdRng,
    ) -> MessageMatrix<M> {
        let n = intended.universe();
        let mut delivered = intended.clone();
        // The shuffled sender order, inline while n ≤ 64; each receiver
        // shuffles the previous receiver's order.
        let mut inline = [0u32; 64];
        let mut spill = Vec::new();
        let senders: &mut [u32] = if n <= inline.len() {
            &mut inline[..n]
        } else {
            spill.resize(n, 0);
            &mut spill
        };
        for (s, id) in senders.iter_mut().enumerate() {
            *id = s as u32;
        }
        for r in 0..n {
            let receiver = ProcessId::new(r as u32);
            senders.shuffle(rng);
            let mut used = 0;
            for &s in senders.iter() {
                if used >= adv.alpha {
                    break;
                }
                if rng.gen_bool(adv.link_prob) {
                    let sender = ProcessId::new(s);
                    let mut mutated = false;
                    delivered.mutate_cell(sender, receiver, |m| {
                        mutated = true;
                        m.corrupted(rng)
                    });
                    if mutated {
                        used += 1;
                    }
                }
            }
        }
        delivered
    }

    /// Per-cell corruption counts (sender-major) and the histogram of
    /// per-receiver corruption counts over `rounds` rounds of `deliver`
    /// on a full `n × n` matrix.
    fn corruption_tally(
        n: usize,
        alpha: u32,
        rounds: u32,
        rng: &mut StdRng,
        mut deliver: impl FnMut(&MessageMatrix<u64>, &mut StdRng) -> MessageMatrix<u64>,
    ) -> (Vec<u64>, Vec<u64>) {
        let intended = intended(n);
        let (mut cells, mut histogram) = (vec![0u64; n * n], vec![0u64; alpha as usize + 1]);
        let mut per_receiver = vec![0usize; n];
        for _ in 0..rounds {
            let delivered = deliver(&intended, rng);
            per_receiver.fill(0);
            for s in 0..n {
                let sender = ProcessId::new(s as u32);
                let rows = delivered
                    .row_cells(sender)
                    .iter()
                    .zip(intended.row_cells(sender));
                for (r, (got, want)) in rows.enumerate() {
                    if got != want {
                        cells[s * n + r] += 1;
                        per_receiver[r] += 1;
                    }
                }
            }
            for &count in &per_receiver {
                histogram[count] += 1;
            }
        }
        (cells, histogram)
    }

    /// Two counts of `trials` Bernoulli trials with one success rate
    /// differ by at most six standard deviations of their difference
    /// (plus one for the discreteness of small counts).
    fn within_binomial_bracket(a: u64, b: u64, trials: u64) -> bool {
        let p = (a + b) as f64 / (2 * trials) as f64;
        let sd = (2.0 * trials as f64 * p * (1.0 - p)).sqrt();
        (a as f64 - b as f64).abs() <= 6.0 * sd + 1.0
    }

    /// Asserts that the lazy draw and the full shuffle give the same
    /// per-cell corruption rate and the same per-receiver count
    /// distribution over 20 000 rounds at α = 3, on both sides of the
    /// inline sender buffer (n = 4, 16, 65).
    fn assert_lazy_draw_matches_the_full_shuffle(link_prob: f64) {
        const ROUNDS: u32 = 20_000;
        const ALPHA: u32 = 3;
        for n in [4usize, 16, 65] {
            let mut adv = RandomCorruption::new(ALPHA, link_prob);
            let (new_cells, new_histogram) = corruption_tally(
                n,
                ALPHA,
                ROUNDS,
                &mut StdRng::seed_from_u64(n as u64),
                |m, rng| adv.deliver(Round::FIRST, m, rng),
            );
            let oracle = adv.clone();
            let (old_cells, old_histogram) = corruption_tally(
                n,
                ALPHA,
                ROUNDS,
                &mut StdRng::seed_from_u64(1000 + n as u64),
                |m, rng| shuffle_deliver(&oracle, m, rng),
            );
            for (cell, (&a, &b)) in new_cells.iter().zip(&old_cells).enumerate() {
                assert!(
                    within_binomial_bracket(a, b, u64::from(ROUNDS)),
                    "n = {n}, p = {link_prob}: cell {cell} corrupted {a} vs {b} times"
                );
            }
            let receptions = u64::from(ROUNDS) * n as u64;
            for (k, (&a, &b)) in new_histogram.iter().zip(&old_histogram).enumerate() {
                assert!(
                    within_binomial_bracket(a, b, receptions),
                    "n = {n}, p = {link_prob}: {k} corruptions at {a} vs {b} receivers"
                );
            }
        }
    }

    #[test]
    fn lazy_draw_matches_the_full_shuffle_when_every_candidate_is_taken() {
        assert_lazy_draw_matches_the_full_shuffle(1.0);
    }

    #[test]
    fn lazy_draw_matches_the_full_shuffle_when_candidates_are_rejected() {
        assert_lazy_draw_matches_the_full_shuffle(0.3);
    }

    #[test]
    fn full_probability_spends_the_whole_budget_at_every_receiver() {
        let mut rng = rng();
        for n in [4usize, 16, 65] {
            let m = intended(n);
            for alpha in [0u32, 3, 5, 70] {
                let mut adv = RandomCorruption::new(alpha, 1.0);
                for round in 1..=5u64 {
                    let d = adv.deliver(Round::new(round), &m, &mut rng);
                    let sets = RoundSets::from_matrices(&m, &d);
                    for p in 0..n {
                        assert_eq!(
                            sets.aho_len(ProcessId::new(p as u32)),
                            (alpha as usize).min(n),
                            "n = {n}, α = {alpha}, receiver {p}"
                        );
                    }
                }
            }
        }
    }
}
