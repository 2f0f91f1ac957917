//! Message matrices: everything sent (or delivered) in one round.
//!
//! A [`MessageMatrix`] holds one optional message per ordered pair
//! `(sender, receiver)`. Two matrices describe each round:
//!
//! * the **intended** matrix — `cell(q, p) = S_q^r(s_q, p)`, what the
//!   sending functions prescribe; always fully populated,
//! * the **delivered** matrix — what actually arrives; `None` cells are
//!   omissions, cells differing from the intended matrix are value faults.
//!
//! The adversary is exactly a function from intended to delivered
//! matrices. The heard-of sets of the round are *derived* by comparing
//! the two (see [`crate::sets::RoundSets`]).

use crate::ids::ProcessId;
use crate::vector::ReceptionVector;
use std::fmt::Debug;

/// An `n × n` matrix of optional messages, sender-major.
///
/// # Examples
///
/// ```
/// use heardof_model::{MessageMatrix, ProcessId};
///
/// // Intended matrix: every process broadcasts its own id.
/// let m = MessageMatrix::from_fn(3, |sender, _receiver| Some(sender.index() as u64));
/// assert_eq!(m.get(ProcessId::new(1), ProcessId::new(2)), Some(&1));
/// let rx = m.column(ProcessId::new(0));
/// assert_eq!(rx.heard_count(), 3);
/// ```
#[derive(PartialEq, Eq)]
pub struct MessageMatrix<M> {
    n: usize,
    cells: Vec<Option<M>>,
}

impl<M: Clone> Clone for MessageMatrix<M> {
    fn clone(&self) -> Self {
        MessageMatrix {
            n: self.n,
            cells: self.cells.clone(),
        }
    }

    /// Copies `source` cell by cell into the existing buffer, so a round
    /// loop that resets one matrix from another does not allocate.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.cells.clone_from(&source.cells);
    }
}

impl<M> MessageMatrix<M> {
    /// An empty matrix (all cells `None`) for `n` processes.
    pub fn empty(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            cells.push(None);
        }
        MessageMatrix { n, cells }
    }

    /// Builds a matrix cell-by-cell from a closure over `(sender, receiver)`.
    pub fn from_fn<F>(n: usize, f: F) -> Self
    where
        F: FnMut(ProcessId, ProcessId) -> Option<M>,
    {
        let mut m = Self::empty(n);
        m.refill(f);
        m
    }

    /// Overwrites every cell from a closure over `(sender, receiver)`,
    /// called in sender-major order — [`MessageMatrix::from_fn`] on a
    /// matrix that already exists, so a round loop reuses one buffer.
    pub fn refill<F>(&mut self, mut f: F)
    where
        F: FnMut(ProcessId, ProcessId) -> Option<M>,
    {
        // `max(1)`: an empty system has no cells and no rows.
        for (s, row) in self.cells.chunks_exact_mut(self.n.max(1)).enumerate() {
            let sender = ProcessId::new(s as u32);
            for (r, cell) in row.iter_mut().enumerate() {
                *cell = f(sender, ProcessId::new(r as u32));
            }
        }
    }

    /// The system size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    fn idx(&self, sender: ProcessId, receiver: ProcessId) -> usize {
        debug_assert!(sender.index() < self.n && receiver.index() < self.n);
        sender.index() * self.n + receiver.index()
    }

    /// The message in transit from `sender` to `receiver`, if any.
    pub fn get(&self, sender: ProcessId, receiver: ProcessId) -> Option<&M> {
        self.cells[self.idx(sender, receiver)].as_ref()
    }

    /// Sets the cell `(sender, receiver)`.
    pub fn set(&mut self, sender: ProcessId, receiver: ProcessId, msg: M) {
        let i = self.idx(sender, receiver);
        self.cells[i] = Some(msg);
    }

    /// Clears the cell `(sender, receiver)` (drops the message), returning
    /// the previous contents.
    pub fn clear(&mut self, sender: ProcessId, receiver: ProcessId) -> Option<M> {
        let i = self.idx(sender, receiver);
        self.cells[i].take()
    }

    /// Iterates over all populated cells as `(sender, receiver, message)`.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessId, &M)> {
        let n = self.n;
        self.cells.iter().enumerate().filter_map(move |(i, m)| {
            m.as_ref().map(|m| {
                (
                    ProcessId::new((i / n) as u32),
                    ProcessId::new((i % n) as u32),
                    m,
                )
            })
        })
    }

    /// Number of populated cells.
    pub fn message_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Iterates over the messages sent by one process (its matrix row).
    pub fn row(&self, sender: ProcessId) -> impl Iterator<Item = (ProcessId, Option<&M>)> {
        self.row_cells(sender)
            .iter()
            .enumerate()
            .map(|(i, m)| (ProcessId::new(i as u32), m.as_ref()))
    }

    /// Row `sender` as the slice it is stored as: one cell per receiver,
    /// in id order — for a walk that reads a row without indexing each
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn row_cells(&self, sender: ProcessId) -> &[Option<M>] {
        let s = sender.index();
        &self.cells[s * self.n..(s + 1) * self.n]
    }

    /// [`MessageMatrix::row_cells`], mutable — for a walk that rewrites
    /// cells of a row in place.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn row_cells_mut(&mut self, sender: ProcessId) -> &mut [Option<M>] {
        let s = sender.index();
        &mut self.cells[s * self.n..(s + 1) * self.n]
    }
}

impl<M: Clone> MessageMatrix<M> {
    /// Extracts the reception vector of `receiver` (its matrix column).
    ///
    /// This is the partial vector `~µ_p^r` when applied to a delivered
    /// matrix.
    pub fn column(&self, receiver: ProcessId) -> ReceptionVector<M> {
        let mut rx = ReceptionVector::new(self.n);
        self.column_into(receiver, &mut rx);
        rx
    }

    /// [`MessageMatrix::column`] into a caller-owned vector — a loop
    /// over receivers reuses one vector. Every slot is overwritten in
    /// one pass, `Some` or `None`, so nothing of an earlier column
    /// survives; slots past `n` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `rx` was sized for fewer than `n` processes.
    pub fn column_into(&self, receiver: ProcessId, rx: &mut ReceptionVector<M>) {
        assert!(
            rx.universe() >= self.n,
            "a reception vector of {} slots cannot hold a column of n = {}",
            rx.universe(),
            self.n
        );
        debug_assert!(receiver.index() < self.n);
        let (slots, past) = rx.slots_mut().split_at_mut(self.n);
        let column = self
            .cells
            .iter()
            .skip(receiver.index())
            .step_by(self.n.max(1));
        for (slot, cell) in slots.iter_mut().zip(column) {
            slot.clone_from(cell);
        }
        past.fill_with(|| None);
    }

    /// Applies `mutate` to the cell `(sender, receiver)` if populated,
    /// replacing its contents. Returns `true` if a message was present.
    pub fn mutate_cell<F>(&mut self, sender: ProcessId, receiver: ProcessId, mutate: F) -> bool
    where
        F: FnOnce(&M) -> M,
    {
        let i = self.idx(sender, receiver);
        if let Some(m) = &self.cells[i] {
            let new = mutate(m);
            self.cells[i] = Some(new);
            true
        } else {
            false
        }
    }
}

impl<M: Eq> MessageMatrix<M> {
    /// Counts the corrupted receptions of the round: cells `self` holds
    /// whose contents differ from `intended`'s — value faults, and also
    /// *spurious* cells that hold a message where `intended` has none
    /// (nothing was sent, so nothing arrived safely). This is
    /// `Σ_p |AHO(p, r)|` as [`crate::RoundSets::total_corruptions`]
    /// counts it, and what `clamp_to_alpha` budgets.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn corruption_count(&self, intended: &MessageMatrix<M>) -> usize {
        assert_eq!(self.n, intended.n, "matrices from different universes");
        self.cells
            .iter()
            .zip(&intended.cells)
            .filter(|(d, i)| d.is_some() && d != i)
            .count()
    }
}

impl<M: Debug> Debug for MessageMatrix<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "MessageMatrix(n={})", self.n)?;
        for s in 0..self.n {
            write!(f, "  from p{s}: [")?;
            for r in 0..self.n {
                if r > 0 {
                    write!(f, ", ")?;
                }
                match self.get(ProcessId::new(s as u32), ProcessId::new(r as u32)) {
                    Some(m) => write!(f, "{m:?}")?,
                    None => write!(f, "∅")?,
                }
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn from_fn_populates_all() {
        let m = MessageMatrix::from_fn(3, |s, r| Some((s.index() * 10 + r.index()) as u64));
        assert_eq!(m.message_count(), 9);
        assert_eq!(m.get(pid(2), pid(1)), Some(&21));
    }

    #[test]
    fn empty_has_no_messages() {
        let m: MessageMatrix<u64> = MessageMatrix::empty(4);
        assert_eq!(m.message_count(), 0);
        assert_eq!(m.get(pid(0), pid(0)), None);
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut m = MessageMatrix::empty(2);
        m.set(pid(0), pid(1), 5u64);
        assert_eq!(m.get(pid(0), pid(1)), Some(&5));
        assert_eq!(m.clear(pid(0), pid(1)), Some(5));
        assert_eq!(m.get(pid(0), pid(1)), None);
        assert_eq!(m.clear(pid(0), pid(1)), None);
    }

    #[test]
    fn column_extracts_reception_vector() {
        let m = MessageMatrix::from_fn(3, |s, r| {
            // p1 drops everything it would send to p0.
            if s == pid(1) && r == pid(0) {
                None
            } else {
                Some(s.index() as u64)
            }
        });
        let rx = m.column(pid(0));
        assert_eq!(rx.heard_count(), 2);
        assert_eq!(rx.get(pid(0)), Some(&0));
        assert_eq!(rx.get(pid(1)), None);
        assert_eq!(rx.get(pid(2)), Some(&2));
        // A reused vector carries nothing over from the previous column.
        let mut reused = m.column(pid(2));
        assert_eq!(reused.heard_count(), 3);
        m.column_into(pid(0), &mut reused);
        assert_eq!(reused, rx);
    }

    #[test]
    fn mutate_cell() {
        let mut m = MessageMatrix::from_fn(2, |_, _| Some(1u64));
        assert!(m.mutate_cell(pid(0), pid(1), |v| v + 10));
        assert_eq!(m.get(pid(0), pid(1)), Some(&11));
        m.clear(pid(1), pid(0));
        assert!(!m.mutate_cell(pid(1), pid(0), |v| v + 10));
    }

    #[test]
    fn corruption_count_compares_against_intended() {
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        delivered.mutate_cell(pid(0), pid(1), |_| 9);
        delivered.mutate_cell(pid(2), pid(2), |_| 9);
        delivered.clear(pid(1), pid(1)); // a drop, not a corruption
        assert_eq!(delivered.corruption_count(&intended), 2);
        assert_eq!(intended.corruption_count(&intended), 0);
    }

    #[test]
    fn corruption_count_includes_spurious_cells() {
        let mut intended = MessageMatrix::from_fn(2, |_, _| Some(1u64));
        intended.clear(pid(0), pid(1));
        let spurious = MessageMatrix::from_fn(2, |_, _| Some(1u64));
        assert_eq!(spurious.corruption_count(&intended), 1);
        // A cell missing on both sides is neither sent nor received.
        let mut both = spurious.clone();
        both.clear(pid(0), pid(1));
        assert_eq!(both.corruption_count(&intended), 0);
    }

    #[test]
    fn refill_overwrites_every_cell_like_from_fn() {
        let f =
            |s: ProcessId, r: ProcessId| (s != r).then_some((s.index() * 10 + r.index()) as u64);
        let mut m = MessageMatrix::from_fn(3, |_, _| Some(99u64));
        m.refill(f);
        assert_eq!(m, MessageMatrix::from_fn(3, f));
        let mut order = Vec::new();
        m.refill(|s, r| {
            order.push((s.index(), r.index()));
            None
        });
        assert_eq!(m.message_count(), 0);
        assert_eq!(
            order,
            (0..3)
                .flat_map(|s| (0..3).map(move |r| (s, r)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn row_iterates_receivers() {
        let m = MessageMatrix::from_fn(3, |s, r| {
            if r == pid(1) {
                None
            } else {
                Some(s.index() as u64)
            }
        });
        let row: Vec<_> = m
            .row(pid(2))
            .map(|(r, m)| (r.index(), m.copied()))
            .collect();
        assert_eq!(row, vec![(0, Some(2)), (1, None), (2, Some(2))]);
    }

    #[test]
    fn iter_yields_triples() {
        let mut m = MessageMatrix::empty(2);
        m.set(pid(0), pid(1), 3u64);
        m.set(pid(1), pid(0), 4u64);
        let cells: Vec<_> = m
            .iter()
            .map(|(s, r, v)| (s.index(), r.index(), *v))
            .collect();
        assert_eq!(cells, vec![(0, 1, 3), (1, 0, 4)]);
    }

    #[test]
    fn debug_renders_grid() {
        let m = MessageMatrix::from_fn(2, |s, _| Some(s.index() as u64));
        let s = format!("{m:?}");
        assert!(s.contains("from p0"));
        assert!(s.contains("from p1"));
    }
}
