//! Reception vectors: what a process actually receives in a round.
//!
//! In each round `r`, process `p` receives a *partial vector* `~µ_p^r`
//! indexed by `Π`: slot `q` holds the message `p` received from `q`, if
//! any. The support of the vector is the heard-of set `HO(p, r)`.

use crate::ids::ProcessId;
use crate::set::ProcessSet;
use crate::value::{ConsensusValue, ValueBearing};
use std::fmt::Debug;

/// The partial vector `~µ_p^r` of messages received by one process in one
/// round.
///
/// `None` slots are omissions (nothing received from that sender).
///
/// # Examples
///
/// ```
/// use heardof_model::{ProcessId, ReceptionVector};
///
/// let mut rx = ReceptionVector::new(3);
/// rx.set(ProcessId::new(0), 7u64);
/// rx.set(ProcessId::new(2), 7u64);
/// assert_eq!(rx.heard_count(), 2);
/// assert_eq!(rx.count_eq(&7), 2);
/// assert_eq!(rx.get(ProcessId::new(1)), None);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReceptionVector<M> {
    slots: Vec<Option<M>>,
}

impl<M> ReceptionVector<M> {
    /// An empty reception vector for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(None);
        }
        ReceptionVector { slots }
    }

    /// The system size `n`.
    pub fn universe(&self) -> usize {
        self.slots.len()
    }

    /// Forgets every reception, keeping the slots: the vector is as
    /// [`ReceptionVector::new`] made it, without a fresh allocation — how
    /// a round loop reuses one vector round after round.
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
    }

    /// Records that `sender`'s message was received.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn set(&mut self, sender: ProcessId, msg: M) {
        self.slots[sender.index()] = Some(msg);
    }

    /// The message received from `sender`, if any.
    pub fn get(&self, sender: ProcessId) -> Option<&M> {
        self.slots.get(sender.index()).and_then(|m| m.as_ref())
    }

    /// Number of messages received: `|HO(p, r)|`.
    pub fn heard_count(&self) -> usize {
        self.slots.iter().filter(|m| m.is_some()).count()
    }

    /// The support of the vector — the heard-of set `HO(p, r)`.
    pub fn support(&self) -> ProcessSet {
        let mut s = ProcessSet::empty(self.slots.len());
        for (i, m) in self.slots.iter().enumerate() {
            if m.is_some() {
                s.insert(ProcessId::new(i as u32));
            }
        }
        s
    }

    /// Every slot, in sender id order: `None` where nothing was
    /// received — the vector as it is stored, for a pass that reads
    /// each slot without a branch on it.
    pub fn slots(&self) -> &[Option<M>] {
        &self.slots
    }

    /// The slots, writable: how [`crate::MessageMatrix::column_into`]
    /// overwrites them in one pass.
    pub(crate) fn slots_mut(&mut self) -> &mut [Option<M>] {
        &mut self.slots
    }

    /// Iterates over `(sender, message)` pairs actually received.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (ProcessId::new(i as u32), m)))
    }

    /// Iterates over received messages only.
    pub fn messages(&self) -> impl Iterator<Item = &M> {
        self.slots.iter().filter_map(|m| m.as_ref())
    }

    /// Consumes the vector, yielding owned `(sender, message)` pairs.
    pub fn into_iter_received(self) -> impl Iterator<Item = (ProcessId, M)> {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|m| (ProcessId::new(i as u32), m)))
    }
}

impl<M: Eq> ReceptionVector<M> {
    /// Number of received messages equal to `msg`.
    pub fn count_eq(&self, msg: &M) -> usize {
        self.messages().filter(|m| *m == msg).count()
    }

    /// The set `R_p^r(m)` of senders from which `msg` was received.
    pub fn senders_of(&self, msg: &M) -> ProcessSet {
        let mut s = ProcessSet::empty(self.slots.len());
        for (p, m) in self.iter() {
            if m == msg {
                s.insert(p);
            }
        }
        s
    }
}

impl<M> ReceptionVector<M> {
    /// Extracts the consensus values carried by received messages
    /// (skipping valueless messages such as `?` votes).
    pub fn values<'a, V: 'a>(&'a self) -> impl Iterator<Item = &'a V>
    where
        M: ValueBearing<V>,
    {
        self.messages().filter_map(|m| m.value())
    }

    /// Number of received messages carrying the value `v`
    /// (the cardinality `|R_p^r(v)|` of the paper's proofs).
    pub fn count_value<V>(&self, v: &V) -> usize
    where
        M: ValueBearing<V>,
        V: ConsensusValue,
    {
        self.values().filter(|x| *x == v).count()
    }
}

impl<M> FromIterator<(ProcessId, M)> for ReceptionVector<M> {
    /// Builds a vector sized to fit the largest sender id mentioned.
    ///
    /// Mostly useful in tests; simulation code sizes vectors from `n`.
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        let pairs: Vec<(ProcessId, M)> = iter.into_iter().collect();
        let n = pairs.iter().map(|(p, _)| p.index() + 1).max().unwrap_or(0);
        let mut rx = ReceptionVector::new(n);
        for (p, m) in pairs {
            rx.set(p, m);
        }
        rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_vector() {
        let rx: ReceptionVector<u64> = ReceptionVector::new(4);
        assert_eq!(rx.heard_count(), 0);
        assert!(rx.support().is_empty());
        assert_eq!(rx.universe(), 4);
    }

    #[test]
    fn set_get_support() {
        let mut rx = ReceptionVector::new(4);
        rx.set(pid(1), 10u64);
        rx.set(pid(3), 20u64);
        assert_eq!(rx.get(pid(1)), Some(&10));
        assert_eq!(rx.get(pid(0)), None);
        assert_eq!(rx.heard_count(), 2);
        assert_eq!(rx.support(), ProcessSet::from_indices(4, [1, 3]));
    }

    #[test]
    fn clear_resets_to_new() {
        let mut rx = ReceptionVector::new(3);
        rx.set(pid(0), "a".to_string());
        rx.set(pid(2), "b".to_string());
        rx.clear();
        assert_eq!(rx, ReceptionVector::new(3));
        assert_eq!(rx.universe(), 3);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut rx = ReceptionVector::new(2);
        rx.set(pid(0), 1u64);
        rx.set(pid(0), 2u64);
        assert_eq!(rx.get(pid(0)), Some(&2));
        assert_eq!(rx.heard_count(), 1);
    }

    #[test]
    fn count_and_senders() {
        let mut rx = ReceptionVector::new(5);
        rx.set(pid(0), 7u64);
        rx.set(pid(2), 7u64);
        rx.set(pid(4), 9u64);
        assert_eq!(rx.count_eq(&7), 2);
        assert_eq!(rx.count_eq(&9), 1);
        assert_eq!(rx.count_eq(&0), 0);
        assert_eq!(rx.senders_of(&7), ProcessSet::from_indices(5, [0, 2]));
    }

    #[test]
    fn values_and_count_value() {
        let mut rx = ReceptionVector::new(3);
        rx.set(pid(0), 5u64);
        rx.set(pid(1), 5u64);
        rx.set(pid(2), 6u64);
        let mut vals: Vec<u64> = rx.values().copied().collect();
        vals.sort();
        assert_eq!(vals, vec![5, 5, 6]);
        assert_eq!(rx.count_value(&5u64), 2);
    }

    #[test]
    fn iter_pairs() {
        let mut rx = ReceptionVector::new(3);
        rx.set(pid(2), 1u64);
        rx.set(pid(0), 3u64);
        let pairs: Vec<_> = rx.iter().map(|(p, m)| (p.index(), *m)).collect();
        assert_eq!(pairs, vec![(0, 3), (2, 1)]);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let rx: ReceptionVector<u64> = [(pid(0), 1u64), (pid(4), 2u64)].into_iter().collect();
        assert_eq!(rx.universe(), 5);
        assert_eq!(rx.heard_count(), 2);
    }

    #[test]
    fn into_iter_received_owns() {
        let mut rx = ReceptionVector::new(2);
        rx.set(pid(1), "hi".to_string());
        let got: Vec<_> = rx.into_iter_received().collect();
        assert_eq!(got, vec![(pid(1), "hi".to_string())]);
    }
}
