//! Non-blocking in-memory sockets carrying coded wire frames.
//!
//! The async substrate's "network": an **arena mailbox** per process —
//! one byte arena holding the round's frames back to back, plus one
//! `(sender, end offset)` record per frame. Senders never block (a wire
//! has no flow control) and never allocate per frame: the sending half
//! implements `heardof_net::FrameSink` by appending the borrowed bytes
//! a [`FaultyLink`] hands it, so the byte-corrupting links of the
//! threaded runtime drive these sockets unchanged — same fault model,
//! same RNG streams, same tagged wire format. The receiver reads once
//! per round, after the barrier: [`NbReceiver::drain`] takes the whole
//! mailbox under one lock and hands each frame out as a slice of the
//! arena, in arrival order, keeping the arena's capacity for the next
//! round. The mailbox is a FIFO of *frames*: boundaries are kept
//! exactly, however short the frames (the content-oblivious count
//! channel counts its 2- and 3-byte frames — a merged or split one
//! would be a wrong value, not a rejected frame).
//!
//! [`FaultyLink`]: heardof_net::FaultyLink

use heardof_net::FrameSink;
use parking_lot::Mutex;
use std::sync::Arc;

/// Frames back to back in `bytes`; `frames[i]` is the `i`-th frame's
/// sender attribution and the offset one past its last byte.
#[derive(Default)]
struct Mailbox {
    bytes: Vec<u8>,
    frames: Vec<(u32, usize)>,
}

/// The sending half of an in-memory socket (clonable; never blocks).
#[derive(Clone)]
pub struct NbSender {
    shared: Arc<Mutex<Mailbox>>,
}

/// The receiving half of an in-memory socket.
pub struct NbReceiver {
    shared: Arc<Mutex<Mailbox>>,
}

/// A connected non-blocking socket pair.
pub fn socket() -> (NbSender, NbReceiver) {
    let shared = Arc::new(Mutex::new(Mailbox::default()));
    (
        NbSender {
            shared: Arc::clone(&shared),
        },
        NbReceiver { shared },
    )
}

impl FrameSink for NbSender {
    fn deliver(&self, sender: u32, frame: Vec<u8>) {
        self.deliver_bytes(sender, &frame);
    }

    /// Enqueues one sender-attributed wire frame. The attribution
    /// models which link the frame arrived on — known to the receiver
    /// regardless of content.
    fn deliver_bytes(&self, sender: u32, frame: &[u8]) {
        let mut mailbox = self.shared.lock();
        mailbox.bytes.extend_from_slice(frame);
        let end = mailbox.bytes.len();
        mailbox.frames.push((sender, end));
    }
}

impl NbReceiver {
    /// Number of frames currently queued.
    pub fn pending(&self) -> usize {
        self.shared.lock().frames.len()
    }

    /// Takes every queued frame out under one lock and hands each to
    /// `each` as `(sender, bytes)`, oldest first, with the lock
    /// released: a frame sent while the drain runs (from another
    /// thread, or from inside `each`) is queued for the next drain,
    /// behind nothing it arrived after. The emptied arena goes back
    /// afterwards, so a mailbox that is drained between rounds never
    /// regrows.
    pub fn drain(&self, mut each: impl FnMut(u32, &[u8])) {
        let mut taken = std::mem::take(&mut *self.shared.lock());
        let mut start = 0;
        for &(sender, end) in &taken.frames {
            each(sender, &taken.bytes[start..end]);
            start = end;
        }
        taken.bytes.clear();
        taken.frames.clear();
        let mut mailbox = self.shared.lock();
        // A sender that got in meanwhile keeps the arena it started.
        if mailbox.frames.is_empty() {
            *mailbox = taken;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::mpsc;

    fn drained(rx: &NbReceiver) -> Vec<(u32, Vec<u8>)> {
        let mut got = Vec::new();
        rx.drain(|sender, bytes| got.push((sender, bytes.to_vec())));
        got
    }

    /// The frames the count channel *counts* are 2 and 3 bytes long and
    /// all alike: only their number and attribution carry the value.
    #[test]
    fn frame_boundaries_and_arrival_order_survive_exactly() {
        let (tx, rx) = socket();
        assert_eq!(drained(&rx), vec![], "an empty mailbox drains to nothing");
        let sent: Vec<(u32, Vec<u8>)> = vec![
            (0, vec![]),
            (1, vec![0, 0]),
            (1, vec![0, 0]),
            (2, vec![0, 0, 0]),
            (0, vec![]),
            (1, vec![0, 0]),
            (3, (0..40).collect()),
            (2, vec![0, 0, 0]),
        ];
        for (sender, frame) in &sent {
            tx.deliver_bytes(*sender, frame);
        }
        assert_eq!(rx.pending(), sent.len());
        assert_eq!(drained(&rx), sent);
        assert_eq!(rx.pending(), 0);
        assert_eq!(drained(&rx), vec![]);
    }

    #[test]
    fn both_sink_entries_enqueue_the_same_frame() {
        let (tx, rx) = socket();
        tx.deliver(7, vec![1, 2, 3]);
        tx.deliver_bytes(7, &[1, 2, 3]);
        assert_eq!(drained(&rx), vec![(7, vec![1, 2, 3]); 2]);
    }

    #[test]
    fn a_frame_sent_from_inside_the_drain_waits_for_the_next_one() {
        let (tx, rx) = socket();
        tx.deliver_bytes(0, &[1]);
        tx.deliver_bytes(1, &[2, 2]);
        let mut first = Vec::new();
        rx.drain(|sender, bytes| {
            // Would deadlock if the drain held the mailbox lock here.
            tx.deliver_bytes(sender + 10, bytes);
            first.push((sender, bytes.to_vec()));
        });
        assert_eq!(first, vec![(0, vec![1]), (1, vec![2, 2])]);
        assert_eq!(drained(&rx), vec![(10, vec![1]), (11, vec![2, 2])]);
    }

    /// Another thread delivers while a drain is handing frames out —
    /// the interleaving is forced, not hoped for: the callback asks the
    /// peer for a frame and waits until it is in the mailbox.
    #[test]
    fn a_frame_from_another_thread_mid_drain_is_neither_lost_nor_reordered() {
        fn assert_send<T: Send>(_: &T) {}
        let (tx, rx) = socket();
        assert_send(&tx);
        let (ask, asked) = mpsc::channel::<u8>();
        let (ack, acked) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let peer = tx.clone();
            scope.spawn(move || {
                for i in asked {
                    peer.deliver_bytes(9, &[i]);
                    ack.send(()).expect("the drain is waiting for this");
                }
            });
            tx.deliver_bytes(0, &[100]);
            tx.deliver_bytes(0, &[101]);
            let mut seen = Vec::new();
            rx.drain(|sender, bytes| {
                ask.send(bytes[0] - 100).expect("the peer is listening");
                acked.recv().expect("the peer answers every request");
                seen.push((sender, bytes.to_vec()));
            });
            drop(ask);
            assert_eq!(seen, vec![(0, vec![100]), (0, vec![101])]);
            assert_eq!(drained(&rx), vec![(9, vec![0]), (9, vec![1])]);
        });
    }

    #[test]
    fn a_drained_mailbox_keeps_its_capacity() {
        let (tx, rx) = socket();
        let capacity = || {
            let mailbox = rx.shared.lock();
            (mailbox.bytes.capacity(), mailbox.frames.capacity())
        };
        let round = || {
            for sender in 0..15 {
                tx.deliver_bytes(sender, &[0xAB; 21]);
            }
            assert_eq!(drained(&rx).len(), 15);
        };
        round();
        let warm = capacity();
        assert!(warm.0 >= 15 * 21 && warm.1 >= 15, "{warm:?}");
        for _ in 0..4 {
            round();
            assert_eq!(capacity(), warm, "a warm mailbox never regrows");
        }
    }

    proptest! {
        /// Any interleaving of sends and drains reads out exactly what
        /// a queue of whole frames would: same frames, same boundaries,
        /// same order (so per-sender order is arrival order too).
        #[test]
        fn the_mailbox_is_a_fifo_of_frames(ops in proptest::collection::vec(any::<u64>(), 0..200)) {
            let (tx, rx) = socket();
            let mut model: VecDeque<(u32, Vec<u8>)> = VecDeque::new();
            for op in ops {
                if op % 5 == 0 {
                    let expected: Vec<_> = model.drain(..).collect();
                    prop_assert_eq!(drained(&rx), expected);
                } else {
                    // Lengths 0–5, biased to the pattern frames' 2 and 3.
                    let len = [0, 2, 3, 2, 3, 1, 4, 5][(op >> 8) as usize % 8];
                    let frame = op.to_le_bytes()[2..2 + len].to_vec();
                    let sender = (op >> 4) as u32 % 4;
                    tx.deliver_bytes(sender, &frame);
                    model.push_back((sender, frame));
                }
                prop_assert_eq!(rx.pending(), model.len());
            }
            let expected: Vec<_> = model.drain(..).collect();
            prop_assert_eq!(drained(&rx), expected);
        }
    }
}
