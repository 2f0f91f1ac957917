//! Aggregated views: counters, histograms, per-round reports and the
//! snapshot a flight recorder produces.

use crate::event::{Event, EventKind, KIND_COUNT};
use crate::ledger::AlphaLedger;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Index;

/// Fixed-size per-kind counters (one `u64` slot per [`EventKind`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounts {
    counts: [u64; KIND_COUNT],
}

impl KindCounts {
    /// All-zero counters.
    pub const fn new() -> Self {
        KindCounts {
            counts: [0; KIND_COUNT],
        }
    }

    /// Count for one kind.
    #[inline]
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Adds `delta` to one kind's slot, saturating: a value can come
    /// off the wire (a garbage frame's claimed round), so a sum of them
    /// must not overflow.
    #[inline]
    pub fn add(&mut self, kind: EventKind, delta: u64) {
        let slot = &mut self.counts[kind.index()];
        *slot = slot.saturating_add(delta);
    }

    /// True when every slot is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Sum across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kind, count)` pairs for the non-zero slots, in index order.
    pub fn nonzero(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|&(_, c)| c != 0)
    }

    /// JSON object literal over the non-zero slots, e.g.
    /// `{"link_delivered":20,"frame_kept":25}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (kind, count)) in self.nonzero().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{}":{}"#, kind.name(), count);
        }
        out.push('}');
        out
    }
}

impl Index<EventKind> for KindCounts {
    type Output = u64;

    fn index(&self, kind: EventKind) -> &u64 {
        &self.counts[kind.index()]
    }
}

/// A fixed-bucket histogram: `bounds` are inclusive upper edges, with
/// one extra overflow bucket at the end. Bucket layout is fixed at
/// construction so recordings from different runs stay comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// New histogram over the given inclusive upper edges (must be
    /// strictly increasing).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Buckets for frame wire lengths in bytes.
    pub fn frame_bytes() -> Self {
        Histogram::new(&[16, 32, 64, 128, 256, 512, 1024])
    }

    /// Buckets for pressure readings in per-mille (0..=1000).
    pub fn pressure() -> Self {
        Histogram::new(&[50, 100, 250, 500, 750, 1000])
    }

    /// Counts `value` into its bucket.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    /// The inclusive upper edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// One JSONL line describing this histogram.
    pub fn to_json(&self, name: &str) -> String {
        format!(
            r#"{{"type":"histogram","name":"{}","bounds":{:?},"counts":{:?}}}"#,
            name, self.bounds, self.counts
        )
    }
}

/// Per-round counter aggregate — the unit the conformance harness
/// compares across substrates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// The (1-based) round.
    pub round: u64,
    /// Event counts observed for that round, summed over processes.
    pub counts: KindCounts,
}

impl RoundReport {
    /// One JSONL line for this round.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"type":"round","round":{},"counts":{}}}"#,
            self.round,
            self.counts.to_json()
        )
    }
}

/// Everything a [`RingRecorder`](crate::RingRecorder) captured,
/// canonicalized: events sorted into [`Event`]'s derived order, counters
/// totalled, rounds reported in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRecording {
    /// The flight-recorder window, canonically sorted. May be shorter
    /// than the run if the ring overflowed (see `dropped_events`).
    pub events: Vec<Event>,
    /// Events evicted from the ring because it was full.
    pub dropped_events: u64,
    /// Whole-run event counts per kind.
    pub totals: KindCounts,
    /// Whole-run sums of [`Event::value`] per kind (e.g. the
    /// link-plane slots sum wire bytes).
    pub value_totals: KindCounts,
    /// Per-round counts, ascending by round (empty when round tracking
    /// is disabled).
    pub rounds: Vec<RoundReport>,
    /// Wire-length distribution over link-plane events.
    pub frame_bytes: Histogram,
    /// Pressure-reading distribution (per-mille buckets).
    pub pressure: Histogram,
}

impl RunRecording {
    /// Folds the link-plane totals into the α-budget ledger.
    pub fn alpha_ledger(&self) -> AlphaLedger {
        AlphaLedger::from_counts(self.rounds.len() as u64, &self.totals)
    }

    /// The code schedule as seen by the recorder: for each round where
    /// **all** `n` processes reported a [`EventKind::RungHeld`] event,
    /// the per-process code ids in force that round. This is the
    /// recorder-side view of `SubstrateOutcome::code_schedule`.
    pub fn code_schedule(&self, n: usize) -> Vec<Vec<u64>> {
        let mut per_round: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::RungHeld && (ev.process as usize) < n {
                per_round.entry(ev.round).or_insert_with(|| vec![None; n])[ev.process as usize] =
                    Some(ev.value);
            }
        }
        per_round
            .into_values()
            .filter_map(|row| row.into_iter().collect::<Option<Vec<u64>>>())
            .collect()
    }

    /// The link-plane slice of the flight recording, in canonical
    /// order — the recorder-side view of a link's event history.
    pub fn link_events(&self) -> Vec<Event> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.kind.is_link())
            .collect()
    }

    /// The full recording as JSONL: a `run` header, `totals`, the
    /// `alpha_ledger`, both `histogram`s, one `round` line per round
    /// and one `event` line per recorded event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"type":"run","events":{},"dropped_events":{},"rounds":{}}}"#,
            self.events.len(),
            self.dropped_events,
            self.rounds.len()
        );
        let _ = writeln!(
            out,
            r#"{{"type":"totals","counts":{},"values":{}}}"#,
            self.totals.to_json(),
            self.value_totals.to_json()
        );
        let _ = writeln!(out, "{}", self.alpha_ledger().to_json());
        let _ = writeln!(out, "{}", self.frame_bytes.to_json("frame_bytes"));
        let _ = writeln!(out, "{}", self.pressure.to_json("pressure"));
        for round in &self.rounds {
            let _ = writeln!(out, "{}", round.to_json());
        }
        for event in &self.events {
            let _ = writeln!(out, "{}", event.to_json());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let mut h = Histogram::new(&[10, 20]);
        h.observe(10);
        h.observe(11);
        h.observe(21);
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn counts_json_lists_nonzero_slots_only() {
        let mut counts = KindCounts::new();
        counts.add(EventKind::FrameKept, 2);
        assert_eq!(counts.to_json(), r#"{"frame_kept":2}"#);
        assert_eq!(KindCounts::new().to_json(), "{}");
    }

    #[test]
    fn counts_saturate() {
        let mut counts = KindCounts::new();
        counts.add(EventKind::FrameGarbage, u64::MAX - 1);
        counts.add(EventKind::FrameGarbage, 2);
        assert_eq!(counts.get(EventKind::FrameGarbage), u64::MAX);
    }

    #[test]
    fn code_schedule_requires_every_process() {
        let recording = RunRecording {
            events: vec![
                Event::local(EventKind::RungHeld, 1, 0, 0),
                Event::local(EventKind::RungHeld, 1, 1, 2),
                // Round 2 is missing process 1: the row must be dropped.
                Event::local(EventKind::RungHeld, 2, 0, 3),
            ],
            dropped_events: 0,
            totals: KindCounts::new(),
            value_totals: KindCounts::new(),
            rounds: vec![],
            frame_bytes: Histogram::frame_bytes(),
            pressure: Histogram::pressure(),
        };
        assert_eq!(recording.code_schedule(2), vec![vec![0, 2]]);
    }
}
