//! The outside-in tracer: spans recorded by the benchmark's own driver
//! around each call into a layer.
//!
//! The program under test has no clock anywhere (its telemetry plane is
//! deliberately round-stamped, never wall-stamped), and this PR may not
//! add one, so every span here starts and ends in benchmark code. One
//! consensus op is one request: its spans form a tree rooted at the
//! driver's calls, are folded into per-layer totals when the op ends,
//! and the first ops' raw spans are kept so they can be written out.

use std::time::Instant;

/// The layer boundaries the drivers cross. The name is the metric
/// prefix (`crate.function`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `RunFabric::new` + `links_for` + `engine_for` for every process.
    FabricBuild,
    /// `RoundEngine::begin_round_with` (parent of `LinkSend`).
    BeginRound,
    /// `FaultyLink::send`, called from inside the engine's emit closure.
    LinkSend,
    /// Draining one process's inbox into `ingest_from` / `ingest`.
    Ingest,
    /// `RoundEngine::finish_round`.
    FinishRound,
    /// `into_report` + `RunFabric::assemble`.
    Assemble,
    /// Dropping the fabric, links and mailboxes of the op.
    Teardown,
    /// Sim driver: the n² `ProcessCore::send_to` calls of one round.
    CoreSend,
    /// Sim driver: `Adversary::deliver`.
    AdversaryDeliver,
    /// Sim driver: `RoundSets::from_matrices`.
    ModelSets,
    /// Sim driver: the n `ProcessCore::transition` calls of one round.
    CoreTransition,
}

impl Layer {
    /// Number of layers (array sizing).
    pub const COUNT: usize = 11;

    /// Every layer, in index order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::FabricBuild,
        Layer::BeginRound,
        Layer::LinkSend,
        Layer::Ingest,
        Layer::FinishRound,
        Layer::Assemble,
        Layer::Teardown,
        Layer::CoreSend,
        Layer::AdversaryDeliver,
        Layer::ModelSets,
        Layer::CoreTransition,
    ];

    /// The span's printed name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::FabricBuild => "net.fabric.build",
            Layer::BeginRound => "engine.begin_round",
            Layer::LinkSend => "net.link.send",
            Layer::Ingest => "engine.ingest",
            Layer::FinishRound => "engine.finish_round",
            Layer::Assemble => "engine.assemble",
            Layer::Teardown => "net.fabric.teardown",
            Layer::CoreSend => "core.send",
            Layer::AdversaryDeliver => "adversary.deliver",
            Layer::ModelSets => "model.sets",
            Layer::CoreTransition => "core.transition",
        }
    }
}

/// "No parent": the span was opened by the driver itself.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was
/// created; `parent` indexes the same op's span list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals folded out of finished ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans seen.
    pub count: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ self times (duration minus the part covered by child spans).
    pub self_ns: u64,
}

/// Self time of every span of one op: its duration minus the sum of its
/// direct children's durations. The drivers never overlap sibling
/// spans, so the children's sum is exactly the covered part.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != ROOT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Records the spans of the op in flight and folds finished ops into
/// [`LayerTotals`]. Spans live in memory only; [`SpanRecorder::kept`]
/// holds the raw spans of the first ops for writing out at the end.
pub struct SpanRecorder {
    epoch: Instant,
    current: Vec<Span>,
    open: Vec<u32>,
    totals: [LayerTotals; Layer::COUNT],
    /// Σ durations of root spans over all folded ops.
    root_ns: u64,
    kept: Vec<(u64, Vec<Span>)>,
    keep_ops: usize,
    ops: u64,
}

impl SpanRecorder {
    /// A recorder that keeps the raw spans of the first `keep_ops` ops.
    pub fn new(keep_ops: usize) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            // One allocation up front: the largest op (n = 16, a few
            // rounds) records under 2k spans, so the vector never grows
            // inside a timed op.
            current: Vec::with_capacity(1 << 15),
            open: Vec::with_capacity(8),
            totals: [LayerTotals::default(); Layer::COUNT],
            root_ns: 0,
            kept: Vec::new(),
            keep_ops,
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.current.len() as u32);
        self.current.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a driver bug).
    #[inline]
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.current[id as usize].end_ns = end_ns;
    }

    /// Ends the op in flight: folds its spans into the totals and
    /// clears the list for the next op.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish_op(&mut self) {
        assert!(self.open.is_empty(), "op finished with a span still open");
        let own = self_times(&self.current);
        for (span, own_ns) in self.current.iter().zip(own) {
            let t = &mut self.totals[span.layer as usize];
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += own_ns;
            if span.parent == ROOT {
                self.root_ns += span.duration_ns();
            }
        }
        if self.kept.len() < self.keep_ops {
            self.kept.push((self.ops, self.current.clone()));
        }
        self.ops += 1;
        self.current.clear();
    }

    /// Totals for one layer.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Σ durations of the spans the driver itself opened — the covered
    /// part of the driver's wall time.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// The raw spans of the first ops, as `(op index, spans)`.
    pub fn kept(&self) -> &[(u64, Vec<Span>)] {
        &self.kept
    }

    /// The kept spans as JSON lines: one object per span with its op
    /// (the request identifier), index, parent, name and times.
    pub fn kept_jsonl(&self) -> String {
        let mut out = String::new();
        for (op, spans) in &self.kept {
            for (i, s) in spans.iter().enumerate() {
                let parent = if s.parent == ROOT {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                out.push_str(&format!(
                    "{{\"op\": {op}, \"span\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // begin_round [0, 100) with two link sends [10, 30) and [40, 70);
        // a grandchild under the first send must not be subtracted from
        // the root twice.
        let spans = vec![
            span(Layer::BeginRound, ROOT, 0, 100),
            span(Layer::LinkSend, 0, 10, 30),
            span(Layer::Ingest, 1, 12, 18),
            span(Layer::LinkSend, 0, 40, 70),
            span(Layer::FinishRound, ROOT, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 6, 30, 30]);
    }

    #[test]
    fn recorder_nests_folds_and_keeps_the_first_ops() {
        let mut rec = SpanRecorder::new(1);
        for _ in 0..2 {
            rec.enter(Layer::BeginRound);
            rec.enter(Layer::LinkSend);
            rec.exit();
            rec.enter(Layer::LinkSend);
            rec.exit();
            rec.exit();
            rec.enter(Layer::FinishRound);
            rec.exit();
            rec.finish_op();
        }
        let begin = rec.totals(Layer::BeginRound);
        let send = rec.totals(Layer::LinkSend);
        let finish = rec.totals(Layer::FinishRound);
        assert_eq!((begin.count, send.count, finish.count), (2, 4, 2));
        assert_eq!(send.total_ns, send.self_ns, "leaves own all their time");
        assert_eq!(
            begin.self_ns,
            begin.total_ns - send.total_ns,
            "parent self time excludes its children"
        );
        assert_eq!(rec.root_ns(), begin.total_ns + finish.total_ns);
        assert_eq!(rec.kept().len(), 1, "only the first op's raw spans stay");
        let (op, spans) = &rec.kept()[0];
        assert_eq!(*op, 0);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, ROOT);
        assert_eq!(rec.kept_jsonl().lines().count(), 4);
    }

    #[test]
    fn layer_indices_match_the_all_table() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }
}
