//! Recorder implementations and the cloneable [`Telemetry`] handle
//! every layer threads through.

use crate::event::{Event, EventKind};
use crate::recording::{Histogram, KindCounts, RoundReport, RunRecording};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default flight-recorder window: enough for a full conformance run
/// with headroom, small enough to stay a bounded ring.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// An event sink. Implementations must be thread-safe: on the threaded
/// substrate, link events fire from sender threads concurrently.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Ingests one event.
    fn record(&self, event: Event);

    /// `false` lets callers skip event construction entirely.
    fn enabled(&self) -> bool {
        true
    }
}

/// The off switch: records nothing, allocates nothing, takes no locks.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&self, _event: Event) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<Event>,
    dropped: u64,
    totals: KindCounts,
    value_totals: KindCounts,
    rounds: BTreeMap<u64, KindCounts>,
    frame_bytes: Histogram,
    pressure: Histogram,
}

/// The flight recorder: a bounded event ring plus always-exact
/// counters, per-round aggregates and fixed-bucket histograms.
///
/// Ingestion order within a round does not matter: counters are
/// commutative and [`RingRecorder::snapshot`] sorts the ring into the
/// canonical [`Event`] order, so two substrates that ingest the same
/// events in different thread interleavings snapshot identically (as
/// long as the ring did not overflow).
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    track_rounds: bool,
    inner: Mutex<RingInner>,
}

impl Default for RingRecorder {
    fn default() -> Self {
        RingRecorder::new()
    }
}

impl RingRecorder {
    /// Full flight recorder with the default window.
    pub fn new() -> Self {
        RingRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Full flight recorder with an explicit event-ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            capacity,
            track_rounds: true,
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                dropped: 0,
                totals: KindCounts::new(),
                value_totals: KindCounts::new(),
                rounds: BTreeMap::new(),
                frame_bytes: Histogram::frame_bytes(),
                pressure: Histogram::pressure(),
            }),
        }
    }

    /// Counters and histograms only: no event ring, no per-round map.
    /// The right mode for Monte-Carlo loops (tens of thousands of
    /// trials) where per-event and per-round storage would dominate.
    fn counters_only() -> Self {
        let mut recorder = RingRecorder::with_capacity(0);
        recorder.track_rounds = false;
        recorder
    }

    /// Live total for one kind (cheap; used by bench loops mid-run).
    pub fn total(&self, kind: EventKind) -> u64 {
        self.inner.lock().totals.get(kind)
    }

    /// Live sum of [`Event::value`] for one kind (e.g. wire bytes).
    pub fn value_total(&self, kind: EventKind) -> u64 {
        self.inner.lock().value_totals.get(kind)
    }

    /// Live counters for one round (`None` when round tracking is off
    /// or the round saw no events).
    pub fn round_counts(&self, round: u64) -> Option<KindCounts> {
        self.inner.lock().rounds.get(&round).copied()
    }

    /// Canonicalized copy of everything captured so far.
    pub fn snapshot(&self) -> RunRecording {
        let inner = self.inner.lock();
        let mut events: Vec<Event> = inner.events.iter().copied().collect();
        events.sort_unstable();
        RunRecording {
            events,
            dropped_events: inner.dropped,
            totals: inner.totals,
            value_totals: inner.value_totals,
            rounds: inner
                .rounds
                .iter()
                .map(|(&round, &counts)| RoundReport { round, counts })
                .collect(),
            frame_bytes: inner.frame_bytes.clone(),
            pressure: inner.pressure.clone(),
        }
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: Event) {
        let mut inner = self.inner.lock();
        inner.totals.add(event.kind, 1);
        inner.value_totals.add(event.kind, event.value);
        if event.kind.is_link() {
            inner.frame_bytes.observe(event.value);
        } else if event.kind == EventKind::PressureSample {
            inner.pressure.observe(event.value);
        }
        if self.track_rounds {
            inner
                .rounds
                .entry(event.round)
                .or_default()
                .add(event.kind, 1);
        }
        if self.capacity > 0 {
            if inner.events.len() == self.capacity {
                inner.events.pop_front();
                inner.dropped += 1;
            }
            inner.events.push_back(event);
        }
    }
}

/// The cloneable handle the rest of the workspace threads around: an
/// `Arc` to a live [`Recorder`], or nothing at all when telemetry is
/// off — so the disabled hot path is one predictable branch, and
/// building or cloning a disabled handle touches neither the heap nor
/// a reference count.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// `None` when off; a recorder that reports itself disabled is
    /// never stored.
    recorder: Option<Arc<dyn Recorder>>,
    ring: Option<Arc<RingRecorder>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::null()
    }
}

impl Telemetry {
    /// Telemetry off: emits vanish at a single branch.
    pub fn null() -> Self {
        Telemetry {
            recorder: None,
            ring: None,
        }
    }

    /// Full flight recorder (default window, round tracking on).
    pub fn ring() -> Self {
        Telemetry::from_ring(Arc::new(RingRecorder::new()))
    }

    /// Counters-only recorder for high-trial measurement loops.
    pub fn counters() -> Self {
        Telemetry::from_ring(Arc::new(RingRecorder::counters_only()))
    }

    /// Wraps an existing [`RingRecorder`] (shared with the caller).
    pub fn from_ring(ring: Arc<RingRecorder>) -> Self {
        Telemetry {
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ring: Some(ring),
        }
    }

    /// Wraps a custom recorder. Snapshots are unavailable through the
    /// handle (only [`RingRecorder`]s can snapshot); emits still flow
    /// unless the recorder reports itself disabled.
    pub fn from_recorder(recorder: Arc<dyn Recorder>) -> Self {
        Telemetry {
            recorder: recorder.enabled().then_some(recorder),
            ring: None,
        }
    }

    /// True when emits reach a live recorder. Callers may use this to
    /// skip event-construction work entirely.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The hot path: one branch, then (when enabled) one virtual call.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(recorder) = &self.recorder {
            recorder.record(event);
        }
    }

    /// Canonicalized recording, when backed by a [`RingRecorder`].
    pub fn snapshot(&self) -> Option<RunRecording> {
        self.ring.as_ref().map(|ring| ring.snapshot())
    }

    /// Live per-kind total (0 without a ring recorder).
    pub fn total(&self, kind: EventKind) -> u64 {
        self.ring.as_ref().map_or(0, |ring| ring.total(kind))
    }

    /// Live per-kind value sum (0 without a ring recorder).
    pub fn value_total(&self, kind: EventKind) -> u64 {
        self.ring.as_ref().map_or(0, |ring| ring.value_total(kind))
    }

    /// Live counters for one round (`None` without a ring recorder).
    pub fn round_counts(&self, round: u64) -> Option<KindCounts> {
        self.ring.as_ref().and_then(|ring| ring.round_counts(round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_PEER;

    #[test]
    fn null_telemetry_is_disabled_and_snapshotless() {
        let t = Telemetry::null();
        assert!(!t.enabled());
        t.emit(Event::local(EventKind::FrameKept, 1, 0, 0));
        assert!(t.snapshot().is_none());
        assert_eq!(t.total(EventKind::FrameKept), 0);
    }

    #[test]
    fn ring_counts_rounds_and_histograms() {
        let t = Telemetry::ring();
        t.emit(Event::link(EventKind::LinkDelivered, 1, 0, 1, 40));
        t.emit(Event::link(EventKind::LinkCorrected, 1, 0, 2, 40));
        t.emit(Event::link(EventKind::LinkDelivered, 2, 1, 0, 24));
        t.emit(Event::local(EventKind::PressureSample, 2, 1, 333));
        let rec = t.snapshot().unwrap();
        assert_eq!(rec.totals[EventKind::LinkDelivered], 2);
        assert_eq!(rec.value_totals[EventKind::LinkDelivered], 64);
        assert_eq!(rec.rounds.len(), 2);
        assert_eq!(rec.rounds[0].counts[EventKind::LinkCorrected], 1);
        assert_eq!(rec.frame_bytes.total(), 3);
        assert_eq!(rec.pressure.total(), 1);
        assert_eq!(rec.dropped_events, 0);
        assert_eq!(t.total(EventKind::LinkDelivered), 2);
        assert_eq!(t.value_total(EventKind::LinkDelivered), 64);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_them() {
        let recorder = Arc::new(RingRecorder::with_capacity(2));
        let t = Telemetry::from_ring(recorder);
        for round in 1..=4 {
            t.emit(Event::local(EventKind::FrameKept, round, 0, 0));
        }
        let rec = t.snapshot().unwrap();
        assert_eq!(rec.dropped_events, 2);
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].round, 3, "oldest events were evicted");
        assert_eq!(rec.totals[EventKind::FrameKept], 4, "counters stay exact");
    }

    #[test]
    fn counters_only_mode_keeps_no_events_or_rounds() {
        let t = Telemetry::counters();
        for trial in 0..100 {
            t.emit(Event::link(
                EventKind::LinkDetected,
                trial + 1,
                0,
                NO_PEER,
                12,
            ));
        }
        let rec = t.snapshot().unwrap();
        assert!(rec.events.is_empty());
        assert!(rec.rounds.is_empty());
        assert_eq!(rec.dropped_events, 0, "nothing stored, nothing dropped");
        assert_eq!(rec.totals[EventKind::LinkDetected], 100);
    }

    #[test]
    fn snapshot_is_canonically_sorted_regardless_of_ingestion_order() {
        let forward = Telemetry::ring();
        let backward = Telemetry::ring();
        let events = [
            Event::link(EventKind::LinkDelivered, 1, 0, 1, 8),
            Event::link(EventKind::LinkDropped, 1, 2, 0, 8),
            Event::local(EventKind::RungHeld, 2, 0, 1),
        ];
        for e in events.iter() {
            forward.emit(*e);
        }
        for e in events.iter().rev() {
            backward.emit(*e);
        }
        assert_eq!(forward.snapshot().unwrap(), backward.snapshot().unwrap());
    }

    #[test]
    fn jsonl_dump_has_header_and_event_lines() {
        let t = Telemetry::ring();
        t.emit(Event::link(EventKind::LinkUndetected, 3, 1, 4, 33));
        let dump = t.snapshot().unwrap().to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].starts_with(r#"{"type":"run""#), "{}", lines[0]);
        assert!(dump.contains(r#""type":"alpha_ledger""#));
        assert!(dump.contains(r#""kind":"link_undetected""#));
        assert!(dump.contains(r#""undetected":1"#));
    }
}
