//! Compact sets of processes.
//!
//! Heard-of sets, safe heard-of sets, kernels and altered spans are all
//! subsets of `Π`. [`ProcessSet`] stores them as a bitset for cheap set
//! algebra, which the predicate checkers rely on heavily. A system of at
//! most 64 processes fits one word, which the set holds inline: building,
//! cloning and combining such sets never touches the heap. Larger systems
//! keep their `n.div_ceil(64)` words in a `Vec`.

use crate::ids::ProcessId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A subset of the process set `Π`, backed by a bitset.
///
/// All binary operations require both operands to come from a system of
/// the same size `n`.
///
/// # Examples
///
/// ```
/// use heardof_model::{ProcessId, ProcessSet};
///
/// let mut s = ProcessSet::empty(5);
/// s.insert(ProcessId::new(1));
/// s.insert(ProcessId::new(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(ProcessId::new(3)));
/// assert!(s.is_subset(&ProcessSet::full(5)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ProcessSet {
    n: usize,
    words: Words,
}

/// The `n.div_ceil(64)` words of a set; which variant holds them is a
/// function of `n` alone, so two sets of one universe compare word for
/// word.
#[derive(Clone, PartialEq, Eq)]
enum Words {
    /// `1 ≤ n ≤ 64`: the one word, inline.
    One(u64),
    /// `n = 0` or `n > 64`.
    Many(Vec<u64>),
}

const BITS: usize = 64;

impl ProcessSet {
    /// The empty subset of a system of `n` processes.
    pub fn empty(n: usize) -> Self {
        let words = if (1..=BITS).contains(&n) {
            Words::One(0)
        } else {
            Words::Many(vec![0; n.div_ceil(BITS)])
        };
        ProcessSet { n, words }
    }

    /// The full set `Π` of a system of `n` processes.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        s.words_mut().fill(!0u64);
        s.clear_tail();
        s
    }

    /// Builds a set from an iterator of process ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for `n`.
    pub fn from_ids<I: IntoIterator<Item = ProcessId>>(n: usize, ids: I) -> Self {
        let mut s = Self::empty(n);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Builds a set from zero-based indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `≥ n`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, ids: I) -> Self {
        Self::from_ids(n, ids.into_iter().map(|i| ProcessId::new(i as u32)))
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::One(w) => std::slice::from_mut(w),
            Words::Many(v) => v,
        }
    }

    /// The set whose `n.div_ceil(64)` words `words` yields, processes
    /// `64·w ..` in word `w`: how [`crate::RoundSets::from_matrices`]
    /// builds its sets from the plain words it ORs into. No bit may
    /// reach past `n`.
    pub(crate) fn from_words(n: usize, mut words: impl Iterator<Item = u64>) -> Self {
        let words = if (1..=BITS).contains(&n) {
            Words::One(words.next().unwrap_or(0))
        } else {
            Words::Many(words.collect())
        };
        let set = ProcessSet { n, words };
        debug_assert_eq!(set.words().len(), n.div_ceil(BITS));
        set
    }

    fn clear_tail(&mut self) {
        let used = self.n % BITS;
        if used != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// The system size `n` this set is drawn from.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Adds a process; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let i = p.index();
        assert!(i < self.n, "process {p} out of range for n={}", self.n);
        let (w, b) = (i / BITS, i % BITS);
        let word = &mut self.words_mut()[w];
        let had = *word & (1 << b) != 0;
        *word |= 1 << b;
        !had
    }

    /// Removes a process; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let i = p.index();
        if i >= self.n {
            return false;
        }
        let (w, b) = (i / BITS, i % BITS);
        let word = &mut self.words_mut()[w];
        let had = *word & (1 << b) != 0;
        *word &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, p: ProcessId) -> bool {
        let i = p.index();
        i < self.n && self.words()[i / BITS] & (1 << (i % BITS)) != 0
    }

    /// Cardinality of the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// `true` if the set equals the full process set `Π`.
    pub fn is_full(&self) -> bool {
        self.len() == self.n
    }

    /// Iterates over the members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let base = w * BITS;
            BitIter { word, base }
        })
    }

    fn check_same_universe(&self, other: &ProcessSet) {
        assert_eq!(
            self.n, other.n,
            "set operations require identical universes ({} vs {})",
            self.n, other.n
        );
    }

    /// Replaces each word of `self` by `op(self word, other word)`.
    fn combine_with(&mut self, other: &ProcessSet, op: impl Fn(u64, u64) -> u64) {
        self.check_same_universe(other);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a = op(*a, b);
        }
    }

    /// `self` combined word by word with `other` through `op`.
    fn zip_with(&self, other: &ProcessSet, op: impl Fn(u64, u64) -> u64) -> ProcessSet {
        let mut out = self.clone();
        out.combine_with(other, op);
        out
    }

    /// Set union `self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set intersection `self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// `true` if every member of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.check_same_universe(other);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ProcessSet) {
        self.combine_with(other, |a, b| a | b);
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &ProcessSet) {
        self.combine_with(other, |a, b| a & b);
    }
}

/// Hashes exactly what the `Vec<u64>`-backed set derived: `n`, then the
/// word slice (length prefix and words).
impl Hash for ProcessSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.words().hash(state);
    }
}

impl Extend<ProcessId> for ProcessSet {
    /// Inserts all ids from the iterator.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for the set's universe.
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(ProcessId::new((self.base + tz) as u32))
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProcessSet{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_and_full() {
        let e = ProcessSet::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = ProcessSet::full(10);
        assert!(f.is_full());
        assert_eq!(f.len(), 10);
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
    }

    #[test]
    fn full_clears_tail_bits() {
        // 65 processes straddles a word boundary; the tail must stay clean.
        let f = ProcessSet::full(65);
        assert_eq!(f.len(), 65);
        assert_eq!(f.iter().count(), 65);
        let f2 = ProcessSet::full(64);
        assert_eq!(f2.len(), 64);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::empty(8);
        assert!(s.insert(pid(3)));
        assert!(!s.insert(pid(3)));
        assert!(s.contains(pid(3)));
        assert!(!s.contains(pid(4)));
        assert!(s.remove(pid(3)));
        assert!(!s.remove(pid(3)));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = ProcessSet::empty(4);
        s.insert(pid(4));
    }

    #[test]
    fn set_algebra() {
        let a = ProcessSet::from_indices(6, [0, 1, 2]);
        let b = ProcessSet::from_indices(6, [2, 3, 4]);
        assert_eq!(a.union(&b), ProcessSet::from_indices(6, [0, 1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), ProcessSet::from_indices(6, [2]));
        assert_eq!(a.difference(&b), ProcessSet::from_indices(6, [0, 1]));
        assert!(ProcessSet::from_indices(6, [1]).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    #[should_panic(expected = "identical universes")]
    fn mismatched_universe_panics() {
        let a = ProcessSet::empty(3);
        let b = ProcessSet::empty(4);
        let _ = a.union(&b);
    }

    #[test]
    fn iteration_order() {
        let s = ProcessSet::from_indices(100, [99, 0, 64, 63]);
        let got: Vec<_> = s.iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 99]);
    }

    #[test]
    fn display_and_debug() {
        let s = ProcessSet::from_indices(4, [1, 3]);
        assert_eq!(s.to_string(), "{p1, p3}");
        assert_eq!(format!("{s:?}"), "ProcessSet{p1,p3}");
        assert_eq!(ProcessSet::empty(4).to_string(), "{}");
    }

    #[test]
    fn extend_inserts_all() {
        let mut s = ProcessSet::empty(6);
        s.extend([pid(1), pid(4), pid(1)]);
        assert_eq!(s, ProcessSet::from_indices(6, [1, 4]));
    }

    #[test]
    fn in_place_operations() {
        let mut a = ProcessSet::from_indices(6, [0, 1]);
        let b = ProcessSet::from_indices(6, [1, 2]);
        a.union_with(&b);
        assert_eq!(a, ProcessSet::from_indices(6, [0, 1, 2]));
        a.intersect_with(&b);
        assert_eq!(a, ProcessSet::from_indices(6, [1, 2]));
    }

    proptest! {
        #[test]
        fn prop_union_supersets(ids_a in proptest::collection::vec(0usize..50, 0..30),
                                ids_b in proptest::collection::vec(0usize..50, 0..30)) {
            let a = ProcessSet::from_indices(50, ids_a.iter().copied());
            let b = ProcessSet::from_indices(50, ids_b.iter().copied());
            let u = a.union(&b);
            prop_assert!(a.is_subset(&u));
            prop_assert!(b.is_subset(&u));
            let i = a.intersection(&b);
            prop_assert!(i.is_subset(&a));
            prop_assert!(i.is_subset(&b));
            // |A| + |B| = |A ∪ B| + |A ∩ B|
            prop_assert_eq!(a.len() + b.len(), u.len() + i.len());
        }

        #[test]
        fn prop_difference_disjoint(ids_a in proptest::collection::vec(0usize..50, 0..30),
                                    ids_b in proptest::collection::vec(0usize..50, 0..30)) {
            let a = ProcessSet::from_indices(50, ids_a.iter().copied());
            let b = ProcessSet::from_indices(50, ids_b.iter().copied());
            let d = a.difference(&b);
            prop_assert!(d.intersection(&b).is_empty());
            prop_assert_eq!(d.union(&a.intersection(&b)), a);
        }

        #[test]
        fn prop_iter_matches_contains(ids in proptest::collection::vec(0usize..80, 0..50)) {
            let s = ProcessSet::from_indices(80, ids.iter().copied());
            let collected: Vec<_> = s.iter().collect();
            prop_assert_eq!(collected.len(), s.len());
            for p in &collected {
                prop_assert!(s.contains(*p));
            }
        }

        /// Inline (n ≤ 64) and heap (n = 0, n > 64) sets answer the
        /// algebra, `Eq`, `Hash` and `iter` exactly as the sorted id
        /// list they were built from says — on both sides of the
        /// boundary.
        #[test]
        fn prop_algebra_across_the_inline_boundary(
            n_pick in 0usize..BOUNDARY.len(),
            ids_a in proptest::collection::vec(0usize..130, 0..80),
            ids_b in proptest::collection::vec(0usize..130, 0..80),
        ) {
            let n = BOUNDARY[n_pick];
            let a_ids = sorted_ids(n, &ids_a);
            let b_ids = sorted_ids(n, &ids_b);
            let a = ProcessSet::from_indices(n, a_ids.iter().copied());
            let b = ProcessSet::from_indices(n, b_ids.iter().copied());
            let members = |s: &ProcessSet| s.iter().map(|p| p.index()).collect::<Vec<_>>();
            let keep = |f: &dyn Fn(usize) -> bool| (0..n).filter(|&i| f(i)).collect::<Vec<_>>();

            prop_assert_eq!(members(&a), a_ids.clone());
            prop_assert_eq!(a.len(), a_ids.len());
            prop_assert_eq!(members(&a.union(&b)), keep(&|i| a_ids.contains(&i) || b_ids.contains(&i)));
            prop_assert_eq!(members(&a.intersection(&b)), keep(&|i| a_ids.contains(&i) && b_ids.contains(&i)));
            prop_assert_eq!(members(&a.difference(&b)), keep(&|i| a_ids.contains(&i) && !b_ids.contains(&i)));
            prop_assert_eq!(a.is_subset(&b), a_ids.iter().all(|i| b_ids.contains(i)));
            let mut in_place = a.clone();
            in_place.union_with(&b);
            prop_assert_eq!(&in_place, &a.union(&b));
            in_place.intersect_with(&a);
            prop_assert_eq!(&in_place, &a);

            prop_assert_eq!(a == b, a_ids == b_ids);
            prop_assert_eq!(hash_of(&a), hash_of(&parent_repr(n, &a_ids)));
            let rebuilt = ProcessSet::from_indices(n, a_ids.iter().rev().copied());
            prop_assert_eq!(&rebuilt, &a);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&a));
            prop_assert_eq!(ProcessSet::full(n).len(), n);
            prop_assert!(ProcessSet::empty(n).is_empty());
        }
    }

    /// System sizes on both sides of the one-word boundary.
    const BOUNDARY: [usize; 8] = [0, 1, 2, 63, 64, 65, 128, 130];

    fn sorted_ids(n: usize, raw: &[usize]) -> Vec<usize> {
        let mut ids: Vec<usize> = raw.iter().filter(|&&i| i < n).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The set as it was stored before it kept one word inline; its
    /// derived `Hash` is what [`ProcessSet`]'s must still produce.
    #[derive(Hash)]
    struct ParentRepr {
        n: usize,
        bits: Vec<u64>,
    }

    fn parent_repr(n: usize, ids: &[usize]) -> ParentRepr {
        let mut bits = vec![0u64; n.div_ceil(BITS)];
        for &i in ids {
            bits[i / BITS] |= 1 << (i % BITS);
        }
        ParentRepr { n, bits }
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn from_words_sets_bits_in_either_representation() {
        for n in [0usize, 1, 64, 65, 130] {
            let mut words = vec![0u64; n.div_ceil(BITS)];
            let members: Vec<usize> = [0, n.saturating_sub(1)]
                .into_iter()
                .filter(|&i| i < n)
                .collect();
            for &i in &members {
                words[i / BITS] |= 1 << (i % BITS);
            }
            let s = ProcessSet::from_words(n, words.into_iter());
            assert_eq!(s, ProcessSet::from_indices(n, members));
        }
    }
}
