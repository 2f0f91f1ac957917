//! How a process frames its wire bytes: a fixed code, or a per-round
//! [`AdaptiveController`] over a tagged [`CodeBook`] — plus, when the
//! code in force is rateless, the per-round [`SymbolBudget`]
//! renegotiation of the incremental-symbol pathway.
//!
//! This used to live inside the threaded runtime; it is the piece of
//! the adaptive stack every substrate needs verbatim — encode under the
//! current rung, decode any epoch, feed the end-of-round tally back —
//! so it sits next to the round core where all of them can share it.
//! The symbol budget lives here for the same reason: it is negotiated
//! from the very tallies [`Framing::observe`] already receives, so
//! every substrate (and the conformance harness's sim channel)
//! negotiates identical budgets by construction.

use crate::codec::{decode_body, Frame, WireMessage};
use bytes::BytesMut;
use heardof_coding::{
    AdaptiveController, ChannelCode, CodeBook, CodeSpec, RoundTally, RungAdvert, SwitchCause,
    SymbolBudget,
};
use heardof_telemetry::{pack_rung_switch, Event, EventKind, Telemetry};
use std::borrow::Cow;
use std::sync::Arc;

/// What [`Framing::decode_scan`] saw in one wire arrival: the decoded
/// frame when the wire decoded, plus the block-level repair work the
/// code reported **even when it rejected the frame**.
///
/// A frame the code visibly fought for (repaired blocks) and still had
/// to drop carries real information about channel conditions; the
/// engine feeds it into
/// [`RoundTally::evidence`](heardof_coding::RoundTally).
#[derive(Clone, Debug)]
pub struct FrameScan<M> {
    /// `(frame, repaired, advert)` — `None` on any rejection.
    pub frame: Option<(Frame<M>, bool, Option<RungAdvert>)>,
    /// Block-level repairs the code performed while scanning the wire,
    /// counted whether or not the frame was ultimately delivered.
    pub repairs: usize,
}

/// What [`Framing::decode_raw_view`] saw in one wire arrival: the
/// decoded *image* (undecoded body bytes — a frame body, or for the mux
/// layer a packed slot image) plus the same rejected-frame repair
/// evidence as [`FrameScan`]. On codes that decode in place (`none`,
/// `checksum*`) the image stays a slice of the arriving wire bytes —
/// the receive path's zero-copy fast lane.
#[derive(Clone, Debug)]
pub struct RawScanView<'a> {
    /// `(image, repaired, advert)` when the code delivered the wire,
    /// with the image borrowed from the wire when the code allows.
    pub image: Option<(Cow<'a, [u8]>, bool, Option<RungAdvert>)>,
    /// Block-level repairs observed while scanning, delivered or not.
    pub repairs: usize,
}

/// The two framing policies a process can run under.
// One Framing exists per process for a whole run; the size skew between
// the two variants costs nothing at that cardinality, and boxing the
// controller would put a pointer chase in the per-round hot path.
#[allow(clippy::large_enum_variant)]
enum Mode {
    /// One code for every frame (the historical, non-adaptive mode).
    Fixed {
        /// The spec the code was built from (reported in schedules).
        spec: CodeSpec,
        /// The built code framing every frame.
        code: Arc<dyn ChannelCode>,
    },
    /// Tagged framing under a per-round controller: frames carry a
    /// 1-byte code id so mixed epochs decode exactly mid-renegotiation.
    Adaptive {
        /// The ladder's wire identity.
        book: Arc<CodeBook>,
        /// The deterministic rung-selection loop.
        controller: AdaptiveController,
    },
}

/// A process's framing policy: a fixed [`CodeSpec`] for the whole run,
/// or an [`AdaptiveController`] renegotiating its send code per round
/// over a tagged code book. When the spec in force is rateless
/// ([`CodeSpec::Fountain`]), the framing additionally carries the
/// negotiated [`SymbolBudget`] — extra repair symbols per frame,
/// renegotiated from the same per-round tallies that drive the rung
/// ladder.
pub struct Framing {
    mode: Mode,
    /// `Some` exactly while the spec in force is rateless; reset to the
    /// rung's baseline on every switch onto a fountain rung.
    budget: Option<SymbolBudget>,
    /// Where controller- and budget-plane events go (null by default).
    telemetry: Telemetry,
    /// The owning process id stamped on emitted events.
    process: u32,
    /// Rounds observed so far — the round stamp for emitted events
    /// (every substrate feeds exactly one tally per round, so the
    /// observation count *is* the round number).
    observed: u64,
}

impl Framing {
    /// Fixed framing under `spec` (the code is built once here).
    pub fn fixed(spec: CodeSpec) -> Self {
        Framing::fixed_with(spec, spec.build())
    }

    /// Fixed framing reusing an already-built `code` for `spec` — for
    /// runs that stamp out one framing per process and want a single
    /// shared code instance (the links already hold one).
    pub fn fixed_with(spec: CodeSpec, code: Arc<dyn ChannelCode>) -> Self {
        Framing {
            mode: Mode::Fixed { spec, code },
            budget: spec.fountain_base().map(SymbolBudget::baseline),
            telemetry: Telemetry::null(),
            process: 0,
            observed: 0,
        }
    }

    /// Adaptive framing: `controller` renegotiates over `book`.
    pub fn adaptive(book: Arc<CodeBook>, controller: AdaptiveController) -> Self {
        let budget = controller
            .current()
            .fountain_base()
            .map(SymbolBudget::baseline);
        Framing {
            mode: Mode::Adaptive { book, controller },
            budget,
            telemetry: Telemetry::null(),
            process: 0,
            observed: 0,
        }
    }

    /// Routes this framing's controller- and budget-plane events to
    /// `telemetry`, stamped as `process`. Telemetry is off (null) until
    /// this is called, so existing constructors stay zero-cost.
    pub fn with_telemetry(mut self, telemetry: Telemetry, process: u32) -> Self {
        self.set_telemetry(telemetry, process);
        self
    }

    /// In-place form of [`Framing::with_telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry, process: u32) {
        self.telemetry = telemetry;
        self.process = process;
    }

    /// Appends the wire image of an opaque body — a frame body
    /// ([`encode_body_into`](crate::encode_body_into)) or a packed mux
    /// slot image — under the framing in force for this round. When the
    /// controller gossips, the image piggybacks its current
    /// [`RungAdvert`] in the version-gated gossip wire format. A caller
    /// that clears and reuses `out` round-to-round stops touching the
    /// allocator once the buffer is warm — on cheap rungs the whole
    /// send path is then allocation-free.
    pub fn encode_raw_into(&self, body: &[u8], out: &mut BytesMut) {
        self.encode_raw(body, None, out);
    }

    /// [`Framing::encode_raw_into`] spending an explicit
    /// [`SymbolBudget`] — the incremental-symbol pathway. Only
    /// meaningful while [`Framing::symbol_budget`] is `Some`; under a
    /// fixed-rate code the budget is ignored.
    pub fn encode_raw_with_budget_into(
        &self,
        body: &[u8],
        budget: SymbolBudget,
        out: &mut BytesMut,
    ) {
        self.encode_raw(body, Some(budget), out);
    }

    /// The one encode path: `budget` as the engines hold it (`Some`
    /// exactly on a rateless rung).
    pub(crate) fn encode_raw(&self, body: &[u8], budget: Option<SymbolBudget>, out: &mut BytesMut) {
        match &self.mode {
            Mode::Fixed { code, .. } => code.encode_into(body, budget, out),
            Mode::Adaptive { book, controller } => {
                book.encode_tagged(controller.code_id(), controller.advert(), budget, body, out)
            }
        }
    }

    /// Decodes wire bytes into an opaque body with repair-evidence
    /// scanning: the delivered image stays a slice of `bytes` on codes
    /// that decode in place. `repaired` is the receiver-observable fact
    /// that the code corrected errors on the way in — reported by both
    /// framing modes, because a fixed fountain code's budget
    /// renegotiation needs the repair signal just as much as an
    /// adaptive controller does.
    pub fn decode_raw_view<'a>(&self, bytes: &'a [u8]) -> RawScanView<'a> {
        match &self.mode {
            Mode::Fixed { code, .. } => {
                let scan = code.decode_scan(bytes);
                RawScanView {
                    image: scan
                        .outcome
                        .ok()
                        .map(|(body, repaired)| (body, repaired, None)),
                    repairs: scan.repairs,
                }
            }
            Mode::Adaptive { book, .. } => {
                let (outcome, repairs) = book.decode_tagged(bytes);
                RawScanView {
                    image: outcome.ok().map(|t| (t.body, t.repaired, t.advert)),
                    repairs,
                }
            }
        }
    }

    /// [`Framing::decode_raw_view`] followed by the frame parse: on
    /// in-place codes the frame header and message parse straight out
    /// of the arriving wire bytes, so a cheap-rung ingest allocates
    /// only what the decoded message itself owns. The advert is the
    /// sender's piggybacked [`RungAdvert`] when the frame gossips — the
    /// signal [`RoundEngine::ingest`](crate::RoundEngine) collects per
    /// sender and hands to the controller at end of round.
    pub fn decode_scan<M: WireMessage>(&self, bytes: &[u8]) -> FrameScan<M> {
        let RawScanView { image, repairs } = self.decode_raw_view(bytes);
        let frame = image.and_then(|(body, repaired, advert)| {
            decode_body(&body)
                .ok()
                .map(|frame| (frame, repaired, advert))
        });
        FrameScan { frame, repairs }
    }

    /// The spec in force for the next send.
    pub fn current_spec(&self) -> CodeSpec {
        match &self.mode {
            Mode::Fixed { spec, .. } => *spec,
            Mode::Adaptive { controller, .. } => controller.current(),
        }
    }

    /// `true` when this framing's ladder carries the content-oblivious
    /// last-resort rung — the receive path then additionally runs the
    /// count channel (length-classified pattern frames tallied per
    /// sender). Always `false` in fixed mode, so existing
    /// configurations ingest byte-identically.
    pub fn oblivious_enabled(&self) -> bool {
        self.oblivious_rung().is_some()
    }

    /// The ladder index of the oblivious rung when the ladder carries
    /// one (by construction its last rung), else `None`. Count-channel
    /// adverts synthesized from arrival tallies name this rung.
    pub fn oblivious_rung(&self) -> Option<u8> {
        let ladder = &self.controller()?.config().ladder;
        ladder
            .contains(&CodeSpec::Oblivious)
            .then(|| (ladder.len() - 1) as u8)
    }

    /// The negotiated symbol budget — `Some` exactly while the spec in
    /// force is rateless. Substrates use this to switch a send from
    /// *copies of frames* to *one frame with budgeted repair symbols*.
    pub fn symbol_budget(&self) -> Option<SymbolBudget> {
        self.budget
    }

    /// End-of-round hook: feed the receiver's tally to the controller
    /// (adaptive mode), then renegotiate the symbol budget for whatever
    /// spec is now in force. Entering a fountain rung seeds the budget
    /// from that rung's baseline; staying on one applies the
    /// additive-increase/decay step ([`SymbolBudget::renegotiate`]);
    /// leaving one drops the budget. Equivalent to
    /// [`Framing::observe_with_gossip`] with no advertisements.
    pub fn observe(&mut self, tally: RoundTally) {
        self.observe_with_gossip(tally, &[]);
    }

    /// [`Framing::observe`] with the round's peer rung advertisements
    /// (at most one per sender, in ascending sender order): a gossiping
    /// controller may adopt a peer rung here, and the budget then
    /// renegotiates against whatever spec that leaves in force.
    pub fn observe_with_gossip(&mut self, tally: RoundTally, ads: &[RungAdvert]) {
        self.observed += 1;
        let round = self.observed;
        let emit = self.telemetry.enabled();
        let before = self.current_spec();
        let budget_before = self.budget.map_or(0, |b| b.repair as u64);
        let (held_id, pins_before) = match &self.mode {
            Mode::Adaptive { controller, .. } if emit => {
                (Some(controller.code_id()), controller.gossip_pins())
            }
            _ => (None, 0),
        };
        if let Mode::Adaptive { controller, .. } = &mut self.mode {
            controller.observe_with_gossip(tally, ads);
        }
        let after = self.current_spec();
        self.budget = after.fountain_base().map(|base| {
            if after == before {
                self.budget
                    .unwrap_or_else(|| SymbolBudget::baseline(base))
                    .renegotiate(tally, base)
            } else {
                SymbolBudget::baseline(base)
            }
        });
        if !emit {
            return;
        }
        // Controller plane: the rung that framed this round's sends,
        // the estimator's reading after folding the tally in, and any
        // ladder motion attributed to its cause.
        if let Mode::Adaptive { controller, .. } = &self.mode {
            let held = held_id.unwrap_or_default();
            self.telemetry.emit(Event::local(
                EventKind::RungHeld,
                round,
                self.process,
                held as u64,
            ));
            self.telemetry.emit(Event::local(
                EventKind::PressureSample,
                round,
                self.process,
                (controller.pressure() * 1000.0).round() as u64,
            ));
            if controller.gossip_pins() > pins_before {
                self.telemetry.emit(Event::local(
                    EventKind::GossipPin,
                    round,
                    self.process,
                    controller.code_id() as u64,
                ));
            }
            // A spec change always records its cause; the filter keeps
            // an earlier round's cause from being reported again.
            if let Some(cause) = controller.last_switch_cause().filter(|_| after != before) {
                self.telemetry.emit(Event::local(
                    EventKind::RungSwitch,
                    round,
                    self.process,
                    pack_rung_switch(cause.code(), held, controller.code_id()),
                ));
                let gossip_kind = match cause {
                    SwitchCause::Adopt => Some(EventKind::GossipAdopt),
                    SwitchCause::Join => Some(EventKind::GossipJoin),
                    SwitchCause::Escalate | SwitchCause::Release => None,
                };
                if let Some(kind) = gossip_kind {
                    self.telemetry.emit(Event::local(
                        kind,
                        round,
                        self.process,
                        controller.code_id() as u64,
                    ));
                }
            }
        }
        // Budget plane: AIMD motion (and baseline entry/exit) of the
        // rateless symbol budget, in either framing mode.
        let budget_after = self.budget.map_or(0, |b| b.repair as u64);
        if budget_after > budget_before {
            self.telemetry.emit(Event::local(
                EventKind::BudgetUp,
                round,
                self.process,
                budget_after,
            ));
        } else if budget_after < budget_before {
            self.telemetry.emit(Event::local(
                EventKind::BudgetDown,
                round,
                self.process,
                budget_after,
            ));
        }
    }

    /// The controller, when the framing is adaptive.
    pub fn controller(&self) -> Option<&AdaptiveController> {
        match &self.mode {
            Mode::Fixed { .. } => None,
            Mode::Adaptive { controller, .. } => Some(controller),
        }
    }
}

#[cfg(test)]
impl Framing {
    /// `frame` on the wire under the framing in force, as a fresh `Vec`
    /// (no budget) — what the in-crate tests corrupt and feed back.
    pub(crate) fn wire<M: WireMessage>(&self, frame: &Frame<M>) -> Vec<u8> {
        let mut body = BytesMut::new();
        crate::codec::encode_body_into(frame, &mut body);
        let mut wire = BytesMut::new();
        self.encode_raw_into(&body, &mut wire);
        wire.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_coding::AdaptiveConfig;

    fn frame() -> Frame<u64> {
        Frame {
            round: 2,
            sender: 1,
            copy: 0,
            msg: 77,
        }
    }

    fn starving(expected: usize) -> RoundTally {
        RoundTally {
            expected,
            delivered: 0,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        }
    }

    #[test]
    fn fixed_framing_roundtrips_and_reports_its_spec() {
        let framing = Framing::fixed(CodeSpec::Hamming74);
        assert_eq!(framing.current_spec(), CodeSpec::Hamming74);
        assert!(framing.controller().is_none());
        assert!(framing.symbol_budget().is_none());
        let wire = framing.wire(&frame());
        let (got, repaired, advert) = framing.decode_scan::<u64>(&wire).frame.unwrap();
        assert_eq!(got, frame());
        assert!(!repaired, "a clean wire needs no repair");
        assert_eq!(advert, None, "fixed framing never gossips");
    }

    #[test]
    fn adaptive_framing_tracks_the_controller_rung() {
        let cfg = AdaptiveConfig::standard(5, 1);
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let mut framing = Framing::adaptive(book, AdaptiveController::new(cfg));
        assert_eq!(framing.current_spec(), CodeSpec::Checksum { width: 4 });
        // A few hard rounds escalate the controller; the framing's spec
        // and encodings follow it.
        for _ in 0..6 {
            framing.observe(starving(4));
        }
        assert_ne!(framing.current_spec(), CodeSpec::Checksum { width: 4 });
        let wire = framing.wire(&frame());
        let (got, _, _) = framing.decode_scan::<u64>(&wire).frame.unwrap();
        assert_eq!(got, frame(), "every epoch decodes through the book");
    }

    #[test]
    fn oblivious_accessors_follow_the_ladder() {
        let fixed = Framing::fixed(CodeSpec::Hamming74);
        assert!(!fixed.oblivious_enabled());
        assert_eq!(fixed.oblivious_rung(), None);

        let plain = AdaptiveConfig::standard(5, 1);
        let book = Arc::new(CodeBook::from_specs(&plain.ladder));
        let adaptive = Framing::adaptive(book, AdaptiveController::new(plain));
        assert!(
            !adaptive.oblivious_enabled(),
            "standard ladder has no oblivious rung"
        );

        let cfg = AdaptiveConfig::standard(5, 1).with_oblivious();
        let rungs = cfg.ladder.len();
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let extended = Framing::adaptive(book, AdaptiveController::new(cfg));
        assert!(extended.oblivious_enabled());
        assert_eq!(extended.oblivious_rung(), Some((rungs - 1) as u8));
    }

    #[test]
    fn fixed_fountain_framing_negotiates_its_budget() {
        let base = 8;
        let mut framing = Framing::fixed(CodeSpec::Fountain { repair: base });
        let budget = framing.symbol_budget().expect("rateless spec has a budget");
        assert_eq!(budget.repair, base);
        // Lossy rounds grow the allowance…
        framing.observe(starving(4));
        let grown = framing.symbol_budget().unwrap().repair;
        assert!(grown > base, "loss must grow the budget, got {grown}");
        // …and the budgeted frame is strictly longer yet decodes with
        // the same budget-free decoder.
        let small = framing.wire(&frame());
        let mut body = BytesMut::new();
        crate::codec::encode_body_into(&frame(), &mut body);
        let mut big = BytesMut::new();
        framing.encode_raw_with_budget_into(&body, framing.symbol_budget().unwrap(), &mut big);
        assert!(big.len() > small.len());
        let (got, _, _) = framing.decode_scan::<u64>(&big).frame.unwrap();
        assert_eq!(got, frame());
        // Calm rounds decay back to the baseline.
        let calm = RoundTally {
            expected: 4,
            delivered: 4,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        for _ in 0..64 {
            framing.observe(calm);
        }
        assert_eq!(framing.symbol_budget().unwrap().repair, base);
    }

    #[test]
    fn entering_the_fountain_rung_seeds_the_baseline_budget() {
        let cfg = AdaptiveConfig::standard(5, 1);
        let fountain_base = cfg
            .ladder
            .iter()
            .find_map(|s| s.fountain_base())
            .expect("standard ladder has a fountain rung");
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let mut framing = Framing::adaptive(book, AdaptiveController::new(cfg));
        assert!(framing.symbol_budget().is_none(), "rung 0 is not rateless");
        // Starve until the ladder reaches the fountain rung.
        for _ in 0..40 {
            framing.observe(starving(4));
            if framing.current_spec().fountain_base().is_some() {
                break;
            }
        }
        assert!(
            framing.current_spec().fountain_base().is_some(),
            "sustained starvation must reach the fountain rung, got {}",
            framing.current_spec()
        );
        assert_eq!(
            framing.symbol_budget().unwrap(),
            SymbolBudget::baseline(fountain_base),
            "a fresh rung starts from its baseline"
        );
    }
}
