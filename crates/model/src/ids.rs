//! Identifiers for processes, rounds and phases.
//!
//! The Heard-Of model is defined over a finite set of processes
//! `Π = {0, …, n−1}` and an infinite sequence of rounds `r = 1, 2, …`.
//! Rounds are grouped into *phases* of two rounds each by the
//! `U_{T,E,α}` algorithm: phase `φ` consists of rounds `2φ−1` and `2φ`.

use std::fmt;

/// Identity of a process in `Π`.
///
/// Process ids are dense indices `0..n`; they index reception vectors,
/// message matrices and heard-of sets.
///
/// # Examples
///
/// ```
/// use heardof_model::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from its dense index.
    pub fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// The dense index of this process, suitable for indexing vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId(index)
    }
}

impl From<ProcessId> for u32 {
    fn from(pid: ProcessId) -> Self {
        pid.0
    }
}

/// Iterates over all processes of a system of size `n`, in id order.
///
/// # Examples
///
/// ```
/// use heardof_model::{all_processes, ProcessId};
///
/// let ids: Vec<ProcessId> = all_processes(3).collect();
/// assert_eq!(ids, vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
/// ```
pub fn all_processes(n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + ExactSizeIterator {
    (0..n as u32).map(ProcessId)
}

/// A round number `r ≥ 1`.
///
/// Rounds are *communication-closed*: a message sent in round `r` can only
/// be received in round `r`.
///
/// # Examples
///
/// ```
/// use heardof_model::{Phase, Round};
///
/// let r = Round::new(5);
/// assert_eq!(r.phase(), Phase::new(3));
/// assert!(r.is_first_of_phase());
/// assert_eq!(r.next(), Round::new(6));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Round(u64);

impl Round {
    /// The first round of any run.
    pub const FIRST: Round = Round(1);

    /// Creates a round from its number.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`; round numbers are 1-based.
    pub fn new(r: u64) -> Self {
        assert!(r >= 1, "round numbers are 1-based");
        Round(r)
    }

    /// The round number (`≥ 1`).
    pub fn get(self) -> u64 {
        self.0
    }

    /// Zero-based index of this round, suitable for indexing trace vectors.
    pub fn index(self) -> usize {
        (self.0 - 1) as usize
    }

    /// The round following this one.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The round preceding this one, or `None` for the first round.
    pub fn prev(self) -> Option<Round> {
        if self.0 > 1 {
            Some(Round(self.0 - 1))
        } else {
            None
        }
    }

    /// The phase this round belongs to (`φ = ⌈r/2⌉`).
    pub fn phase(self) -> Phase {
        Phase(self.0.div_ceil(2))
    }

    /// `true` if this is the first round (`2φ−1`) of its phase.
    pub fn is_first_of_phase(self) -> bool {
        self.0 % 2 == 1
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A phase number `φ ≥ 1`; phase `φ` spans rounds `2φ−1` and `2φ`.
///
/// # Examples
///
/// ```
/// use heardof_model::{Phase, Round};
///
/// let phi = Phase::new(3);
/// assert_eq!(phi.first_round(), Round::new(5));
/// assert_eq!(phi.second_round(), Round::new(6));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Phase(u64);

impl Phase {
    /// The first phase of any run.
    pub const FIRST: Phase = Phase(1);

    /// Creates a phase from its number.
    ///
    /// # Panics
    ///
    /// Panics if `phi == 0`; phase numbers are 1-based.
    pub fn new(phi: u64) -> Self {
        assert!(phi >= 1, "phase numbers are 1-based");
        Phase(phi)
    }

    /// The phase number (`≥ 1`).
    pub fn get(self) -> u64 {
        self.0
    }

    /// The first round (`2φ−1`) of this phase.
    pub fn first_round(self) -> Round {
        Round(2 * self.0 - 1)
    }

    /// The second round (`2φ`) of this phase.
    pub fn second_round(self) -> Round {
        Round(2 * self.0)
    }

    /// The phase following this one.
    pub fn next(self) -> Phase {
        Phase(self.0 + 1)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "φ{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.as_u32(), 7);
        assert_eq!(u32::from(p), 7);
        assert_eq!(ProcessId::from(7u32), p);
    }

    #[test]
    fn process_display() {
        assert_eq!(ProcessId::new(0).to_string(), "p0");
        assert_eq!(ProcessId::new(12).to_string(), "p12");
    }

    #[test]
    fn all_processes_enumerates_in_order() {
        let ids: Vec<_> = all_processes(4).map(|p| p.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(all_processes(0).count(), 0);
    }

    #[test]
    fn round_basics() {
        let r = Round::FIRST;
        assert_eq!(r.get(), 1);
        assert_eq!(r.index(), 0);
        assert_eq!(r.next().get(), 2);
        assert_eq!(r.prev(), None);
        assert_eq!(Round::new(5).prev(), Some(Round::new(4)));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn round_zero_panics() {
        let _ = Round::new(0);
    }

    #[test]
    fn round_phase_mapping() {
        assert_eq!(Round::new(1).phase(), Phase::new(1));
        assert_eq!(Round::new(2).phase(), Phase::new(1));
        assert_eq!(Round::new(3).phase(), Phase::new(2));
        assert_eq!(Round::new(4).phase(), Phase::new(2));
        assert!(Round::new(3).is_first_of_phase());
        assert!(!Round::new(4).is_first_of_phase());
    }

    #[test]
    fn phase_round_mapping() {
        for phi in 1..100u64 {
            let phase = Phase::new(phi);
            assert_eq!(phase.first_round().phase(), phase);
            assert_eq!(phase.second_round().phase(), phase);
            assert_eq!(phase.first_round().next(), phase.second_round());
            assert_eq!(phase.next().first_round(), phase.second_round().next());
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn phase_zero_panics() {
        let _ = Phase::new(0);
    }

    #[test]
    fn display_round_and_phase() {
        assert_eq!(Round::new(3).to_string(), "r3");
        assert_eq!(Phase::new(2).to_string(), "φ2");
    }

    #[test]
    fn ordering() {
        assert!(Round::new(1) < Round::new(2));
        assert!(Phase::new(1) < Phase::new(2));
        assert!(ProcessId::new(0) < ProcessId::new(1));
    }
}
