//! Cross-substrate conformance: the same seeded noise trace driven
//! through every substrate — the lockstep simulator, the threaded
//! runtime, and the cooperative async runtime — asserting they agree
//! **round for round**.
//!
//! The adaptive coding stack now has one implementation of the
//! per-process machine (`heardof_engine::RoundEngine` over
//! [`Framing`]), but three independent deliveries of bytes and clocks:
//!
//! * the **sim** substrate — [`TraceChannel`], an adversary that
//!   re-enacts every abstract message as a real tagged wire frame
//!   through per-process [`Framing`]s, corrupts it with the
//!   [`NoiseTrace`], decodes it back, and feeds the per-receiver
//!   tallies to the controllers;
//! * the **net** substrate — OS threads exchanging those same frames
//!   over [`FaultyLink`]s in trace + lockstep mode, rounds closed by
//!   timeouts;
//! * the **async** substrate — cooperative tasks over non-blocking
//!   in-memory sockets behind the *same* [`FaultyLink`]s, rounds
//!   closed by a barrier.
//!
//! Because the trace is a pure function of
//! `(seed, round, sender, receiver, copy, frame length)` and the
//! controllers are pure functions of their observation sequences, all
//! substrates must produce *identical* controller decisions and
//! *identical* `HO`/`SHO` reconstructions, round for round. The
//! harness runs each and diffs them; `tests/adaptive_conformance.rs`
//! asserts the N-way diff is empty across a seed matrix. This is the
//! acceptance bar for **any new substrate**: drive the engine however
//! you like, but you must replay the matrix.
//!
//! One asymmetry is out of the harness's reach by construction: a
//! miscorrection that forges a *valid-looking future round header*
//! (e.g. a three-flip SECDED pattern landing in the round field) is
//! buffered by the byte-level runtimes and delivered in that later
//! round, while the lockstep simulator — whose matrix has no
//! cross-round channel — drops it. Hitting it requires an undetected
//! fault that also decodes to an in-range future round, so it is
//! vanishingly rare and the pinned seed matrix is verified free of it;
//! a seed that ever trips it should be swapped, not papered over.
//!
//! [`FaultyLink`]: heardof_net::FaultyLink
//! [`Framing`]: heardof_engine::Framing

use bytes::BytesMut;
use heardof_adversary::Adversary;
use heardof_async::{run_async, run_async_mux, AsyncConfig};
use heardof_coding::{
    decode_count, encode_count, oblivious_advert_frame, oblivious_value_frame, AdaptiveConfig,
    AdaptiveController, CodeBook, CodeSpec, NoiseTrace, OBL_MAX_EPOCH, OBL_MAX_VALUE,
};
use heardof_engine::{
    encode_body_into, Frame, Framing, MuxReport, MuxRoundEngine, SubstrateOutcome, WireMessage,
    COPY_OFFSET,
};
use heardof_model::{HoAlgorithm, MessageMatrix, ProcessId, Round, RoundSets, TraceLevel};
use heardof_net::{run_threaded, run_threaded_mux, LinkFaults, NetConfig, RoundTally};
use heardof_sim::Simulator;
use heardof_telemetry::{Event, EventKind, RoundReport, RunRecording, Telemetry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Duration;

/// Environment variable naming a directory where
/// [`first_matrix_divergence`] dumps both flight recordings (as JSONL)
/// when substrates disagree — the post-mortem artifact CI uploads.
pub const TELEMETRY_DUMP_DIR_ENV: &str = "HEARDOF_TELEMETRY_DUMP_DIR";

/// What one substrate reports for comparison: per-round code decisions,
/// heard-of reconstructions, and the telemetry plane's per-round
/// conformance counters (the fourth equivalence dimension).
#[derive(Clone, Debug)]
pub struct SubstrateReport {
    /// `codes[r-1][p]`: the code process `p` sent with in round `r`.
    pub codes: Vec<Vec<CodeSpec>>,
    /// `sets[r-1]`: the round's `HO`/`SHO` collections.
    pub sets: Vec<RoundSets>,
    /// Per-round telemetry counters projected onto the conformance
    /// subset (timing-shaped kinds zeroed) — substrates must agree on
    /// these exactly.
    pub telemetry: Vec<RoundReport>,
    /// The substrate's full flight recording, kept for post-mortems:
    /// [`first_matrix_divergence`] dumps it as JSONL on a mismatch. Not
    /// part of the equality comparison — it legitimately contains
    /// timing-shaped events that differ across substrates.
    pub recording: RunRecording,
}

impl PartialEq for SubstrateReport {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes && self.sets == other.sets && self.telemetry == other.telemetry
    }
}

impl SubstrateReport {
    /// Rounds covered by the report.
    pub fn rounds(&self) -> usize {
        self.codes.len().min(self.sets.len())
    }

    /// Human-readable first divergence against another report, if any —
    /// `None` means the substrates conform over the compared prefix.
    pub fn first_divergence(&self, other: &SubstrateReport) -> Option<String> {
        let rounds = self.rounds().min(other.rounds());
        for r in 0..rounds {
            if self.codes[r] != other.codes[r] {
                return Some(format!(
                    "round {}: controller decisions diverge: {:?} vs {:?}",
                    r + 1,
                    self.codes[r],
                    other.codes[r]
                ));
            }
            if self.sets[r] != other.sets[r] {
                return Some(format!(
                    "round {}: HO/SHO reconstructions diverge: {:?} vs {:?}",
                    r + 1,
                    self.sets[r],
                    other.sets[r]
                ));
            }
        }
        let compared = self.telemetry.len().min(other.telemetry.len());
        for (mine, theirs) in self.telemetry[..compared]
            .iter()
            .zip(&other.telemetry[..compared])
        {
            if mine != theirs {
                return Some(format!(
                    "round {}: telemetry counters diverge: {} vs {}",
                    mine.round,
                    mine.counts.to_json(),
                    theirs.counts.to_json()
                ));
            }
        }
        None
    }

    /// Extracts a report from a byte-level substrate's outcome
    /// (threaded or async): per-process code schedules transposed to
    /// per round, the reconstructed sets, plus the flight recording.
    fn from_outcome<V>(outcome: &SubstrateOutcome<V>, recording: RunRecording) -> Self {
        let completed = outcome
            .rounds_completed
            .iter()
            .map(|&r| r as usize)
            .min()
            .unwrap_or(0);
        let codes = (0..completed)
            .map(|r| {
                outcome
                    .code_schedule
                    .iter()
                    .map(|per_proc| per_proc[r])
                    .collect()
            })
            .collect();
        SubstrateReport {
            codes,
            sets: outcome.history.iter().map(|(_, s)| s.clone()).collect(),
            telemetry: recording.conformance_counters(),
            recording,
        }
    }
}

/// Diffs a set of named substrate reports pairwise against the first;
/// returns the first divergence found, if any. `None` means the whole
/// matrix conforms.
///
/// On a divergence, if the [`TELEMETRY_DUMP_DIR_ENV`] environment
/// variable names a directory, both sides' flight recordings are dumped
/// there as `flight_<substrate>.jsonl` for post-mortem diffing (CI
/// uploads these as artifacts).
pub fn first_matrix_divergence(reports: &[(&str, &SubstrateReport)]) -> Option<String> {
    let (base_name, base) = reports.first()?;
    for (name, report) in &reports[1..] {
        if let Some(diff) = base.first_divergence(report) {
            dump_recordings(&[(base_name, base), (name, report)]);
            return Some(format!("{base_name} vs {name}: {diff}"));
        }
    }
    None
}

/// Writes the given reports' flight recordings into the directory named
/// by [`TELEMETRY_DUMP_DIR_ENV`], if set. Failures are reported to
/// stderr, never panicked on — the divergence message is the primary
/// signal and must get through.
fn dump_recordings(reports: &[(&str, &SubstrateReport)]) {
    let Ok(dir) = std::env::var(TELEMETRY_DUMP_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("telemetry dump: cannot create {}: {e}", dir.display());
        return;
    }
    for (name, report) in reports {
        let path = dir.join(format!("flight_{name}.jsonl"));
        if let Err(e) = std::fs::write(&path, report.recording.to_jsonl()) {
            eprintln!("telemetry dump: cannot write {}: {e}", path.display());
        } else {
            eprintln!("telemetry dump: wrote {}", path.display());
        }
    }
}

/// Shared log the [`TraceChannel`] fills while the simulator runs.
#[derive(Clone, Default)]
pub struct TraceChannelLog {
    inner: Arc<Mutex<Vec<Vec<CodeSpec>>>>,
}

impl TraceChannelLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-round send codes recorded so far (`[round][process]`).
    pub fn codes(&self) -> Vec<Vec<CodeSpec>> {
        self.inner.lock().clone()
    }
}

/// The sim-side half of the conformance harness: an [`Adversary`] that
/// pushes every intended message through the *real* wire pipeline —
/// tagged encode under the sender's current rung, trace corruption,
/// tagged decode — and lets the decoders' verdicts shape the delivered
/// matrix. The pipeline is the engine's own [`Framing`], one per
/// process, so the simulator exercises byte-for-byte the code path the
/// deployment substrates run. Self-deliveries are local (never
/// corrupted), mirroring the runtimes.
pub struct TraceChannel<M> {
    trace: NoiseTrace,
    framings: Vec<Framing>,
    book: Arc<CodeBook>,
    log: TraceChannelLog,
    telemetry: Telemetry,
    max_round: u64,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> TraceChannel<M> {
    /// A channel over `n` processes, each running its own controller
    /// from `cfg`, corrupted by `trace`. `max_round` mirrors the
    /// runtimes' `max_rounds` header sanity check.
    pub fn new(n: usize, cfg: AdaptiveConfig, trace: NoiseTrace, max_round: u64) -> Self {
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        TraceChannel {
            trace,
            framings: (0..n)
                .map(|_| Framing::adaptive(Arc::clone(&book), AdaptiveController::new(cfg.clone())))
                .collect(),
            book,
            log: TraceChannelLog::new(),
            telemetry: Telemetry::null(),
            max_round,
            _marker: std::marker::PhantomData,
        }
    }

    /// Attaches a telemetry plane: the channel mirrors what the
    /// byte-level substrates record — link-plane verdicts per wire
    /// frame, `FrameKept` per delivery, and (through the per-process
    /// [`Framing`]s) the controller- and budget-plane events — so a sim
    /// flight recording is comparable to a net or async one.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        for (p, framing) in self.framings.iter_mut().enumerate() {
            framing.set_telemetry(telemetry.clone(), p as u32);
        }
        self.telemetry = telemetry;
        self
    }

    /// A handle to the decision log (clone it before handing the
    /// channel to the simulator).
    pub fn log(&self) -> TraceChannelLog {
        self.log.clone()
    }

    /// The link verdict the byte-level fault injector would record for
    /// this frame: same classification pipeline as
    /// `heardof_net::FaultyLink` (decode the pristine bytes, decode the
    /// corrupted bytes, compare bodies modulo the retransmission-copy
    /// byte).
    fn link_kind(&self, flips: usize, original: &[u8], corrupted: &[u8]) -> EventKind {
        if flips == 0 {
            return EventKind::LinkDelivered;
        }
        let Ok(before) = self.book.decode_tagged(original).0 else {
            return EventKind::LinkDetected;
        };
        match self.book.decode_tagged(corrupted).0 {
            Err(_) => EventKind::LinkDetected,
            Ok(after) if after.body == before.body => EventKind::LinkCorrected,
            Ok(after) if differs_only_in_copy_index(&before.body, &after.body) => {
                EventKind::LinkCorrected
            }
            Ok(_) => EventKind::LinkUndetected,
        }
    }
}

/// `true` when two frame bodies agree everywhere except the
/// retransmission-copy byte — the same equivalence
/// `heardof_net::FaultyLink` applies before calling a corruption
/// corrected.
fn differs_only_in_copy_index(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len()
        && a.len() > COPY_OFFSET
        && a.iter()
            .zip(b.iter())
            .enumerate()
            .all(|(i, (x, y))| i == COPY_OFFSET || x == y)
}

impl<M> Adversary<M> for TraceChannel<M>
where
    M: WireMessage + Clone + Eq + Send + 'static,
{
    fn name(&self) -> String {
        format!("trace-channel(seed={})", self.trace.seed())
    }

    fn deliver(
        &mut self,
        round: Round,
        intended: &MessageMatrix<M>,
        _rng: &mut StdRng,
    ) -> MessageMatrix<M> {
        let n = intended.universe();
        let r = round.get();
        self.log
            .inner
            .lock()
            .push(self.framings.iter().map(|f| f.current_spec()).collect());

        let mut delivered: MessageMatrix<M> = MessageMatrix::empty(n);
        let mut tallies = vec![
            RoundTally {
                expected: n - 1,
                delivered: 0,
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            };
            n
        ];
        // Peer rung advertisements per receiver, exactly as the engine
        // collects them: one per kept frame, sorted by sender before
        // reaching the controller.
        let mut ads: Vec<Vec<(u32, heardof_coding::RungAdvert)>> = vec![Vec::new(); n];
        // Per-(receiver, sender) pattern-frame arrival tallies — the
        // sim's twin of the engine's `value_counts`/`advert_counts`,
        // live only when the ladder carries the oblivious rung.
        let oblivious = self.framings[0].oblivious_enabled();
        let mut counts: Vec<(u32, u32)> = vec![(0, 0); if oblivious { n * n } else { 0 }];
        // The engines' two arenas: frame body and coded wire.
        let (mut body, mut wire) = (BytesMut::new(), BytesMut::new());
        for (sender, receiver, original) in intended.iter() {
            if sender == receiver {
                // Self-delivery is local in the runtimes: never on the
                // wire, never corrupted, never tallied. The engine
                // records it as a kept frame; mirror that.
                self.telemetry.emit(Event {
                    round: r,
                    process: receiver.as_u32(),
                    kind: EventKind::FrameKept,
                    peer: receiver.as_u32(),
                    value: 0,
                });
                delivered.set(sender, receiver, original.clone());
                continue;
            }
            let framing = &self.framings[sender.index()];
            if framing.current_spec() == CodeSpec::Oblivious {
                // Content-oblivious sends, mirrored from the engine:
                // the message never crosses as bytes — `value + 1`
                // fixed-length pattern frames do, and only their
                // *arrival count* is read. Each frame still goes
                // through the trace at the same coordinates the
                // byte-level links use; flips cannot change a pattern
                // frame's length or arrival, so the link verdict is
                // `Detected` (contents unprotected by construction)
                // and the tally is untouched.
                let value_copies = original
                    .pattern_value()
                    .map_or(0, |v| encode_count(v, OBL_MAX_VALUE));
                let advert_copies = framing
                    .controller()
                    .and_then(|c| c.advert())
                    .map_or(0, |ad| encode_count(ad.epoch, OBL_MAX_EPOCH));
                let cell = &mut counts[receiver.index() * n + sender.index()];
                for (template, copies, is_value) in [
                    (oblivious_value_frame().to_vec(), value_copies, true),
                    (oblivious_advert_frame().to_vec(), advert_copies, false),
                ] {
                    for copy in 0..copies {
                        let mut wire = template.clone();
                        let flips = self.trace.corrupt_frame(
                            r,
                            sender.as_u32(),
                            receiver.as_u32(),
                            copy as u8,
                            &mut wire,
                        );
                        let kind = if flips == 0 {
                            EventKind::LinkDelivered
                        } else {
                            EventKind::LinkDetected
                        };
                        self.telemetry.emit(Event::link(
                            kind,
                            r,
                            receiver.as_u32(),
                            sender.as_u32(),
                            wire.len() as u64,
                        ));
                        if is_value {
                            cell.0 = cell.0.saturating_add(1);
                        } else {
                            cell.1 = cell.1.saturating_add(1);
                        }
                    }
                }
                continue;
            }
            let frame = Frame {
                round: r,
                sender: sender.as_u32(),
                copy: 0,
                msg: original.clone(),
            };
            // Mirror the engine's send path byte for byte: a rateless
            // rung spends its negotiated symbol budget (conformance
            // runs use copies = 1, so there is nothing to fold).
            body.clear();
            encode_body_into(&frame, &mut body);
            wire.clear();
            match framing.symbol_budget() {
                Some(budget) => framing.encode_raw_with_budget_into(&body, budget, &mut wire),
                None => framing.encode_raw_into(&body, &mut wire),
            }
            let pristine = self.telemetry.enabled().then(|| wire.to_vec());
            let flips =
                self.trace
                    .corrupt_frame(r, sender.as_u32(), receiver.as_u32(), 0, &mut wire);
            if let Some(pristine) = pristine {
                // Mirror the fault injector's link-plane verdict.
                self.telemetry.emit(Event::link(
                    self.link_kind(flips, &pristine, &wire),
                    r,
                    receiver.as_u32(),
                    sender.as_u32(),
                    wire.len() as u64,
                ));
            }
            // The receiver's side of the pipeline, byte for byte: tagged
            // decode plus the runtimes' header sanity check. A rejected
            // frame that the code visibly repaired on the way down still
            // counts as evidence — exactly the engine's ingest rule.
            let scan = self.framings[receiver.index()].decode_scan::<M>(&wire);
            let Some((got, repaired, advert)) = scan.frame else {
                tallies[receiver.index()].evidence += usize::from(scan.repairs > 0);
                continue; // detected omission
            };
            if got.sender as usize >= n || got.round > self.max_round || got.round != r {
                continue; // garbage or wrong-round header: dropped
            }
            let tally = &mut tallies[receiver.index()];
            tally.delivered += 1;
            tally.corrected += usize::from(repaired);
            if let Some(ad) = advert {
                ads[receiver.index()].push((got.sender, ad));
            }
            // Mirror the engine's kept-frame record (copy is always 0
            // here: conformance runs send a single copy).
            self.telemetry.emit(Event {
                round: r,
                process: receiver.as_u32(),
                kind: EventKind::FrameKept,
                peer: got.sender,
                value: 0,
            });
            // Conformance constraint: a live receiver cannot see that a
            // fault is undetected, so the tally must not use the oracle
            // either — value_faults stays 0, exactly as in the runtimes.
            delivered.set(ProcessId::new(got.sender), receiver, got.msg);
        }
        // Count-channel synthesis, mirrored from the engine's
        // `finish_round`: fold each receiver's per-sender pattern
        // tallies into the delivered matrix and the gossip set before
        // the controllers observe. A tagged delivery from the same
        // sender wins; one value per sender either way.
        if oblivious {
            for p in 0..n {
                let receiver = ProcessId::new(p as u32);
                for s in 0..n {
                    if s == p {
                        continue;
                    }
                    let (vc, ac) = counts[p * n + s];
                    if vc == 0 && ac == 0 {
                        continue;
                    }
                    self.telemetry.emit(Event {
                        round: r,
                        process: p as u32,
                        kind: EventKind::ObliviousCount,
                        peer: s as u32,
                        value: vc.min(0xFF) as u64 | ((ac.min(0xFF) as u64) << 8),
                    });
                    let sender = ProcessId::new(s as u32);
                    if delivered.get(sender, receiver).is_none() {
                        if let Some(msg) =
                            decode_count(vc as usize, OBL_MAX_VALUE).and_then(M::from_pattern_value)
                        {
                            self.telemetry.emit(Event {
                                round: r,
                                process: p as u32,
                                kind: EventKind::FrameKept,
                                peer: s as u32,
                                value: 0,
                            });
                            tallies[p].delivered += 1;
                            delivered.set(sender, receiver, msg);
                        }
                    }
                    if ac > 0 && !ads[p].iter().any(|(q, _)| *q == s as u32) {
                        if let (Some(rung), Some(epoch)) = (
                            self.framings[p].oblivious_rung(),
                            decode_count(ac as usize, OBL_MAX_EPOCH),
                        ) {
                            ads[p].push((s as u32, heardof_coding::RungAdvert { rung, epoch }));
                        }
                    }
                }
            }
        }
        for ((p, tally), mut peer_ads) in tallies.into_iter().enumerate().zip(ads) {
            peer_ads.sort_by_key(|(sender, _)| *sender);
            let peer_ads: Vec<heardof_coding::RungAdvert> =
                peer_ads.into_iter().map(|(_, ad)| ad).collect();
            self.framings[p].observe_with_gossip(tally, &peer_ads);
        }
        delivered
    }
}

/// Runs the **simulator** substrate for `rounds` rounds and reports its
/// decisions and reconstructions.
///
/// # Panics
///
/// Panics if the simulator rejects the configuration (wrong arity).
pub fn run_sim_substrate<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> SubstrateReport
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let telemetry = Telemetry::ring();
    let channel: TraceChannel<A::Msg> =
        TraceChannel::new(n, cfg.clone(), trace.clone(), rounds).with_telemetry(telemetry.clone());
    let log = channel.log();
    let outcome = Simulator::new(algo, n)
        .adversary(channel)
        .initial_values(initial)
        .trace_level(TraceLevel::SetsOnly)
        .run_rounds(rounds as usize)
        .expect("sim substrate run");
    let recording = telemetry.snapshot().expect("ring-backed telemetry");
    SubstrateReport {
        codes: log.codes(),
        sets: outcome
            .trace
            .rounds()
            .iter()
            .map(|rec| rec.sets.clone())
            .collect(),
        telemetry: recording.conformance_counters(),
        recording,
    }
}

/// Runs the **threaded** substrate in lockstep + trace mode for
/// `rounds` rounds and reports its decisions and reconstructions.
/// `round_timeout` bounds each round; it only needs to beat scheduling
/// jitter, not the trace.
pub fn run_net_substrate<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
    round_timeout: Duration,
) -> SubstrateReport
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let telemetry = Telemetry::ring();
    let outcome = run_threaded(
        algo,
        n,
        initial,
        NetConfig {
            faults: LinkFaults::NONE,
            adaptive: Some(cfg.clone()),
            trace: Some(trace.clone()),
            lockstep: true,
            max_rounds: rounds,
            round_timeout,
            copies: 1,
            seed: 0,
            code: CodeSpec::DEFAULT,
            telemetry: telemetry.clone(),
        },
    );
    let recording = telemetry.snapshot().expect("ring-backed telemetry");
    SubstrateReport::from_outcome(&outcome, recording)
}

/// What one substrate reports for a **multi-instance** (multiplexed)
/// conformance run: per-round code decisions, per-instance decisions,
/// and the wire-level kept logs. One wire image carries every
/// instance's frame, so the kept set is a per-process per-round fact
/// (see `heardof_engine::MuxRoundEngine`).
#[derive(Clone, Debug, PartialEq)]
pub struct MuxSubstrateReport<V> {
    /// `codes[r-1][p]`: the code process `p` sent with in round `r`
    /// (truncated to the shortest process's completed rounds).
    pub codes: Vec<Vec<CodeSpec>>,
    /// `decisions[p][i]`: instance `i`'s decision at process `p`.
    pub decisions: Vec<Vec<Option<V>>>,
    /// `decision_rounds[p][i]`: the round of that first decision.
    pub decision_rounds: Vec<Vec<Option<u64>>>,
    /// `kept[p][r-1]`: the `(sender, copy)` images process `p` kept in
    /// round `r`.
    pub kept: Vec<Vec<Vec<(u32, u8)>>>,
}

impl<V> MuxSubstrateReport<V> {
    /// Projects the per-process engine reports onto the conformance
    /// dimensions.
    pub fn from_reports(reports: Vec<MuxReport<V>>) -> Self {
        let completed = reports
            .iter()
            .map(|r| r.rounds_completed as usize)
            .min()
            .unwrap_or(0);
        let codes = (0..completed)
            .map(|r| reports.iter().map(|rep| rep.codes[r]).collect())
            .collect();
        let mut decisions = Vec::with_capacity(reports.len());
        let mut decision_rounds = Vec::with_capacity(reports.len());
        let mut kept = Vec::with_capacity(reports.len());
        for report in reports {
            decisions.push(report.decisions);
            decision_rounds.push(report.decision_rounds);
            // Kept logs are arrival-ordered, and arrival order between
            // distinct senders is substrate scheduling, not behaviour —
            // canonicalize to the set the conformance claim is about.
            let mut per_round = report.kept;
            for round in &mut per_round {
                round.sort_unstable();
            }
            kept.push(per_round);
        }
        MuxSubstrateReport {
            codes,
            decisions,
            decision_rounds,
            kept,
        }
    }
}

/// Runs the **simulator-side** multiplexed substrate: a lockstep loop
/// of [`MuxRoundEngine`]s over an in-memory wire, corrupting every
/// outgoing image with the same pure
/// [`corrupt_frame`](NoiseTrace::corrupt_frame) call the byte-level
/// fault injector makes in trace mode — so the three substrates see
/// identical bytes per `(round, sender, receiver, copy)` coordinate.
pub fn run_mux_sim_substrate<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> MuxSubstrateReport<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
    let mut engines: Vec<MuxRoundEngine<A>> = initials
        .into_iter()
        .enumerate()
        .map(|(p, init)| {
            MuxRoundEngine::new(
                algo.clone(),
                ProcessId::new(p as u32),
                n,
                init,
                Framing::adaptive(Arc::clone(&book), AdaptiveController::new(cfg.clone())),
                1,
                rounds,
            )
        })
        .collect();
    for _ in 0..rounds {
        let mut inboxes: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        for (p, engine) in engines.iter_mut().enumerate() {
            let r = engine.rounds_completed() + 1;
            engine.begin_round_with(|dest, copy, wire| {
                let mut bytes = wire.to_vec();
                let _ = trace.corrupt_frame(r, p as u32, dest, copy, &mut bytes);
                inboxes[dest as usize].push(bytes);
            });
        }
        for (p, engine) in engines.iter_mut().enumerate() {
            for bytes in &inboxes[p] {
                let _ = engine.ingest(bytes);
            }
            engine.finish_round();
        }
    }
    MuxSubstrateReport::from_reports(engines.into_iter().map(|e| e.into_report()).collect())
}

/// Runs the **threaded** multiplexed substrate in lockstep + trace mode
/// and reports its conformance dimensions.
pub fn run_mux_net_substrate<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
    round_timeout: Duration,
) -> MuxSubstrateReport<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let reports = run_threaded_mux(
        algo,
        n,
        initials,
        NetConfig {
            faults: LinkFaults::NONE,
            adaptive: Some(cfg.clone()),
            trace: Some(trace.clone()),
            lockstep: true,
            max_rounds: rounds,
            round_timeout,
            copies: 1,
            seed: 0,
            code: CodeSpec::DEFAULT,
            telemetry: Telemetry::null(),
        },
    );
    MuxSubstrateReport::from_reports(reports)
}

/// Runs the **async** multiplexed substrate in lockstep + trace mode
/// and reports its conformance dimensions.
pub fn run_mux_async_substrate<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> MuxSubstrateReport<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let reports = run_async_mux(
        algo,
        n,
        initials,
        AsyncConfig {
            faults: LinkFaults::NONE,
            adaptive: Some(cfg.clone()),
            trace: Some(trace.clone()),
            lockstep: true,
            max_rounds: rounds,
            copies: 1,
            seed: 0,
            code: CodeSpec::DEFAULT,
            telemetry: Telemetry::null(),
        },
    );
    MuxSubstrateReport::from_reports(reports)
}

/// Runs the **async** substrate in lockstep + trace mode for `rounds`
/// rounds and reports its decisions and reconstructions. No timeout to
/// pick: the barrier closes rounds exactly.
pub fn run_async_substrate<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> SubstrateReport
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let telemetry = Telemetry::ring();
    let outcome = run_async(
        algo,
        n,
        initial,
        AsyncConfig {
            faults: LinkFaults::NONE,
            adaptive: Some(cfg.clone()),
            trace: Some(trace.clone()),
            lockstep: true,
            max_rounds: rounds,
            copies: 1,
            seed: 0,
            code: CodeSpec::DEFAULT,
            telemetry: telemetry.clone(),
        },
    );
    let recording = telemetry.snapshot().expect("ring-backed telemetry");
    SubstrateReport::from_outcome(&outcome, recording)
}
