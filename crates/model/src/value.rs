//! Consensus values and generic corruption support.
//!
//! The consensus problem is posed over a non-empty, totally ordered set `V`.
//! The total order matters: the `A_{T,E}` algorithm's update rule picks the
//! *smallest most often received* value, so ties are broken by `Ord`.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;

/// A value that consensus can be reached on.
///
/// This is a blanket-implemented alias for the bounds the algorithms need:
/// a totally ordered, hashable, cloneable, printable type. `u64`, `i32`,
/// `String`, `bool`, … all qualify.
///
/// # Examples
///
/// ```
/// fn assert_value<V: heardof_model::ConsensusValue>() {}
/// assert_value::<u64>();
/// assert_value::<String>();
/// ```
pub trait ConsensusValue: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {}

impl<T: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static> ConsensusValue for T {}

/// Types whose instances can be replaced by a *different*, type-correct
/// value — the raw material of a value fault.
///
/// The model makes no assumption about *why* a received message differs
/// from the sent one; `corrupted` produces an arbitrary plausible
/// replacement. Implementations must return a value different from `self`
/// whenever the type has more than one inhabitant.
///
/// # Examples
///
/// ```
/// use heardof_model::Corruptible;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let original = 42u64;
/// let corrupted = original.corrupted(&mut rng);
/// assert_ne!(original, corrupted);
/// ```
pub trait Corruptible: Sized {
    /// Returns a corrupted variant of `self`, different from `self` when
    /// the type permits.
    fn corrupted(&self, rng: &mut StdRng) -> Self;
}

impl Corruptible for u64 {
    fn corrupted(&self, rng: &mut StdRng) -> Self {
        // Small perturbations keep corrupted values plausible (near the
        // protocol's real value domain) while remaining distinct.
        let delta = rng.gen_range(1..=3u64);
        if rng.gen_bool(0.5) {
            self.wrapping_add(delta)
        } else {
            self.wrapping_sub(delta)
        }
    }
}

impl Corruptible for u32 {
    fn corrupted(&self, rng: &mut StdRng) -> Self {
        let delta = rng.gen_range(1..=3u32);
        if rng.gen_bool(0.5) {
            self.wrapping_add(delta)
        } else {
            self.wrapping_sub(delta)
        }
    }
}

impl Corruptible for i64 {
    fn corrupted(&self, rng: &mut StdRng) -> Self {
        let delta = rng.gen_range(1..=3i64);
        if rng.gen_bool(0.5) {
            self.wrapping_add(delta)
        } else {
            self.wrapping_sub(delta)
        }
    }
}

impl Corruptible for bool {
    fn corrupted(&self, _rng: &mut StdRng) -> Self {
        !self
    }
}

impl Corruptible for String {
    fn corrupted(&self, rng: &mut StdRng) -> Self {
        let mut s = self.clone();
        let garbage = char::from(b'a' + rng.gen_range(0..26u8));
        s.push(garbage);
        s
    }
}

impl<T: Corruptible + Clone> Corruptible for Option<T> {
    fn corrupted(&self, rng: &mut StdRng) -> Self {
        self.as_ref().map(|v| v.corrupted(rng))
    }
}

/// Messages that carry a consensus value, used by analysis code to compute
/// the sets `R_p^r(v)` and `Q^r(v)` of the paper's proofs.
///
/// Returns `None` for messages that carry no value (e.g. a `?` vote).
pub trait ValueBearing<V> {
    /// The consensus value this message carries, if any.
    fn value(&self) -> Option<&V>;
}

impl ValueBearing<u64> for u64 {
    fn value(&self) -> Option<&u64> {
        Some(self)
    }
}

impl ValueBearing<u32> for u32 {
    fn value(&self) -> Option<&u32> {
        Some(self)
    }
}

impl ValueBearing<i64> for i64 {
    fn value(&self) -> Option<&i64> {
        Some(self)
    }
}

impl ValueBearing<String> for String {
    fn value(&self) -> Option<&String> {
        Some(self)
    }
}

/// How many distinct values [`tally`] counts without touching the heap.
const TALLY_INLINE: usize = 64;

/// Up to `TALLY_INLINE` distinct values with their counts, inline, in
/// ascending order of value. Only the first `len` entries mean anything;
/// the rest repeat a value already counted, so that no entry needs an
/// `Option`.
struct Runs<'a, V> {
    values: [&'a V; TALLY_INLINE],
    counts: [usize; TALLY_INLINE],
    len: usize,
}

impl<'a, V: Ord> Runs<'a, V> {
    /// The list holding `first`, once.
    fn new(first: &'a V) -> Self {
        let mut counts = [0; TALLY_INLINE];
        counts[0] = 1;
        Runs {
            values: [first; TALLY_INLINE],
            counts,
            len: 1,
        }
    }

    /// Counts one more `v`, inserting its run in place when `v` is new.
    /// Returns `false`, having counted nothing, when `v` is new and every
    /// run is taken.
    #[inline]
    fn count(&mut self, v: &'a V) -> bool {
        let taken = &self.values[..self.len];
        let i = taken.iter().position(|&u| u >= v).unwrap_or(self.len);
        if i < self.len && self.values[i] == v {
            self.counts[i] += 1;
        } else if self.len == TALLY_INLINE {
            return false;
        } else {
            self.values.copy_within(i..self.len, i + 1);
            self.counts.copy_within(i..self.len, i + 1);
            self.values[i] = v;
            self.counts[i] = 1;
            self.len += 1;
        }
        true
    }

    /// The runs, in ascending order of value.
    fn runs(&self) -> impl Iterator<Item = (&'a V, usize)> + '_ {
        let values = self.values[..self.len].iter().copied();
        values.zip(self.counts.iter().copied())
    }
}

/// The counting step of every transition function: visits each distinct
/// value among `values` once, in ascending order, with the number of
/// times it occurs.
///
/// The values are borrowed and counted into an ascending list of runs,
/// each new value inserted in place — no hashing, no sort, no clone per
/// received value, and no heap allocation while at most `TALLY_INLINE`
/// (64) *distinct* values are counted, however many values there are.
/// Past that the runs move to a `BTreeMap`. Ascending order is what
/// makes "the smallest value above a threshold" the first one visited.
///
/// # Examples
///
/// ```
/// use heardof_model::tally;
///
/// let mut runs = Vec::new();
/// tally(&[7u64, 3, 7, 9], |v, count| runs.push((*v, count)));
/// assert_eq!(runs, vec![(3, 1), (7, 2), (9, 1)]);
/// ```
pub fn tally<'a, V: Ord + 'a>(
    values: impl IntoIterator<Item = &'a V>,
    mut visit: impl FnMut(&'a V, usize),
) {
    let mut values = values.into_iter();
    let Some(first) = values.next() else {
        return;
    };
    let mut runs = Runs::new(first);
    while let Some(v) = values.next() {
        if !runs.count(v) {
            let mut heap: BTreeMap<&'a V, usize> = runs.runs().collect();
            for v in std::iter::once(v).chain(values) {
                *heap.entry(v).or_insert(0) += 1;
            }
            return heap.into_iter().for_each(|(v, count)| visit(v, count));
        }
    }
    for (v, count) in runs.runs() {
        visit(v, count);
    }
}

/// The *smallest most often received* value among `values`, the update rule
/// of `A_{T,E}` (Algorithm 1, line 8).
///
/// Returns `None` iff the iterator is empty. Frequencies are compared
/// first; among equally frequent values, the smallest (per `Ord`) wins.
///
/// # Examples
///
/// ```
/// use heardof_model::smallest_most_frequent;
///
/// // 7 appears twice, 3 appears twice → tie broken toward 3.
/// let v = smallest_most_frequent([7u64, 3, 7, 3, 9]);
/// assert_eq!(v, Some(3));
/// assert_eq!(smallest_most_frequent(Vec::<u64>::new()), None);
/// ```
pub fn smallest_most_frequent<V, I>(values: I) -> Option<V>
where
    V: ConsensusValue,
    I: IntoIterator<Item = V>,
{
    let values: Vec<V> = values.into_iter().collect();
    let mut best: Option<(&V, usize)> = None;
    tally(&values, |v, count| {
        // Ascending visits: only a strictly higher count displaces.
        if best.is_none_or(|(_, most)| count > most) {
            best = Some((v, count));
        }
    });
    best.map(|(v, _)| v.clone())
}

/// Counts occurrences of each distinct value, returning `(value, count)`
/// pairs sorted by value.
///
/// # Examples
///
/// ```
/// use heardof_model::value_histogram;
///
/// let h = value_histogram([2u64, 1, 2]);
/// assert_eq!(h, vec![(1, 1), (2, 2)]);
/// ```
pub fn value_histogram<V, I>(values: I) -> Vec<(V, usize)>
where
    V: ConsensusValue,
    I: IntoIterator<Item = V>,
{
    let values: Vec<V> = values.into_iter().collect();
    let mut out = Vec::new();
    tally(&values, |v, count| out.push((v.clone(), count)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// The hash-map tallies `tally` replaced, kept verbatim as the oracle.
    fn oracle_smallest_most_frequent<V: ConsensusValue>(
        values: impl IntoIterator<Item = V>,
    ) -> Option<V> {
        let mut counts: HashMap<V, usize> = HashMap::new();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
            .map(|(v, _)| v)
    }

    fn oracle_histogram<V: ConsensusValue>(values: impl IntoIterator<Item = V>) -> Vec<(V, usize)> {
        let mut counts: HashMap<V, usize> = HashMap::new();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        let mut out: Vec<(V, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn assert_matches_oracle<V: ConsensusValue>(values: Vec<V>) {
        assert_eq!(
            value_histogram(values.clone()),
            oracle_histogram(values.clone()),
            "histogram of {values:?}"
        );
        assert_eq!(
            smallest_most_frequent(values.clone()),
            oracle_smallest_most_frequent(values.clone()),
            "smallest most frequent of {values:?}"
        );
    }

    proptest! {
        /// Few distinct values over up to 100 receptions: ties, long
        /// runs; and up to 100 distinct values, past the inline runs.
        #[test]
        fn tallies_equal_the_hash_map_oracle(
            values in proptest::collection::vec(0u64..6, 0..100),
            wide in proptest::collection::vec(any::<u64>(), 0..100),
            len in 0usize..100,
        ) {
            assert_matches_oracle(values.clone());
            assert_matches_oracle(wide); // all distinct, almost surely
            assert_matches_oracle(vec![7u64; len]); // all equal, empty at 0
            assert_matches_oracle(values.iter().map(|v| format!("v{v}")).collect::<Vec<String>>());
        }
    }

    proptest! {
        /// Few and many distinct values: 0 ..= 20, and 60 ..= 80 on
        /// both sides of the 64 inline runs, each met first in descending
        /// order — every new run inserted at the front — then again at
        /// random.
        #[test]
        fn tallies_equal_the_hash_map_oracle_across_the_run_capacity(
            picks in proptest::collection::vec(any::<u32>(), 0..200),
            few in 0u32..=20,
            many in 60u32..=80,
        ) {
            for distinct in [few, many] {
                let again = picks.iter().filter(|_| distinct > 0).map(|p| p % distinct);
                let values: Vec<u64> = (0..distinct).rev().chain(again).map(u64::from).collect();
                assert_matches_oracle(values.clone());
                assert_matches_oracle(values.iter().map(|v| format!("v{v}")).collect::<Vec<String>>());
            }
        }
    }

    #[test]
    fn tally_visits_runs_in_ascending_order_on_both_sides_of_the_capacity() {
        for distinct in [1, 8, TALLY_INLINE - 1, TALLY_INLINE, TALLY_INLINE + 1, 200] {
            let values: Vec<u64> = (0..3 * distinct as u64)
                .rev()
                .map(|i| i % distinct as u64)
                .collect();
            let mut runs = Vec::new();
            tally(&values, |v, count| runs.push((*v, count)));
            assert_eq!(runs.len(), distinct);
            assert_eq!(runs, oracle_histogram(values), "{distinct} distinct values");
        }
    }

    #[test]
    fn smallest_most_frequent_prefers_frequency() {
        assert_eq!(smallest_most_frequent([1u64, 2, 2, 3]), Some(2));
    }

    #[test]
    fn smallest_most_frequent_breaks_ties_low() {
        assert_eq!(smallest_most_frequent([5u64, 1, 5, 1]), Some(1));
        assert_eq!(smallest_most_frequent([9u64]), Some(9));
    }

    #[test]
    fn smallest_most_frequent_empty() {
        assert_eq!(smallest_most_frequent(Vec::<u64>::new()), None);
    }

    #[test]
    fn histogram_sorted_by_value() {
        let h = value_histogram([3u64, 1, 3, 3, 1]);
        assert_eq!(h, vec![(1, 2), (3, 3)]);
    }

    #[test]
    fn corruptible_changes_values() {
        let mut rng = StdRng::seed_from_u64(99);
        for v in [0u64, 1, 42, u64::MAX] {
            for _ in 0..20 {
                assert_ne!(v.corrupted(&mut rng), v);
            }
        }
        assert!(!true.corrupted(&mut rng));
        assert!(false.corrupted(&mut rng));
        let s = "abc".to_string();
        assert_ne!(s.corrupted(&mut rng), s);
    }

    #[test]
    fn corruptible_option_preserves_none() {
        let mut rng = StdRng::seed_from_u64(1);
        let none: Option<u64> = None;
        assert_eq!(none.corrupted(&mut rng), None);
        assert_ne!(Some(5u64).corrupted(&mut rng), Some(5u64));
    }

    #[test]
    fn value_bearing_identity() {
        assert_eq!(ValueBearing::<u64>::value(&7u64), Some(&7u64));
    }
}
