//! The structured event taxonomy: what the planes report.

/// Sentinel for [`Event::peer`] when an event has no counterparty
/// (controller- and budget-plane events are per-process, not per-link).
pub const NO_PEER: u32 = u32::MAX;

/// Number of distinct [`EventKind`] variants; sizes the counter arrays.
pub const KIND_COUNT: usize = 21;

/// What happened. Grouped into four planes:
///
/// * **link plane** — one event per frame transmission attempt, from
///   the corruption oracle's point of view (`process` = receiver,
///   `peer` = sender, `value` = wire length in bytes);
/// * **engine plane** — what the receiving engine did with a frame
///   that arrived (`process` = receiver, `peer` = sender);
/// * **controller plane** — adaptive-ladder life: the rung in force
///   each round, switches with their cause, gossip outcomes and the
///   pressure estimator's reading (`peer` = [`NO_PEER`]);
/// * **budget plane** — AIMD symbol-budget moves and copy folding
///   (`peer` = [`NO_PEER`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Link: frame crossed the channel untouched (`value` = wire bytes).
    LinkDelivered,
    /// Link: frame was dropped by the channel (omission).
    LinkDropped,
    /// Link: corruption hit but the code repaired it (or it only
    /// scrambled the copy index) — delivered intact.
    LinkCorrected,
    /// Link: corruption hit and the code *detected* it — the receiver
    /// will see an omission.
    LinkDetected,
    /// Link: corruption slipped past the code — an undetected value
    /// fault, the event that consumes α budget.
    LinkUndetected,
    /// Engine: a frame was kept for its round (`value` = copy index).
    FrameKept,
    /// Engine: a frame for an already-filled `(sender, round)` slot.
    FrameDuplicate,
    /// Engine: a frame arrived after its round closed (`value` = the
    /// frame's round).
    FrameLate,
    /// Engine: a frame arrived before its round opened and was buffered
    /// (`value` = the frame's round).
    FrameFuture,
    /// Engine: bytes that did not decode as a frame at all.
    FrameRejected,
    /// Engine: a decoded frame with an impossible header.
    FrameGarbage,
    /// Budget: redundant copies folded into one budgeted fountain frame
    /// (`value` = the copy count folded away).
    CopiesFolded,
    /// Controller: the code rung in force for the round just observed
    /// (`value` = code id). Emitted once per adaptive observe.
    RungHeld,
    /// Controller: the ladder moved (`value` packs cause/from/to — see
    /// [`pack_rung_switch`]).
    RungSwitch,
    /// Controller: a quorum-backed gossip adoption (`value` = new rung).
    GossipAdopt,
    /// Controller: a majority gossip join (`value` = new rung).
    GossipJoin,
    /// Controller: gossip considered and declined — pinned to the
    /// current rung (`value` = that rung).
    GossipPin,
    /// Controller: pressure-estimator reading (`value` = pressure ×
    /// 1000, rounded).
    PressureSample,
    /// Budget: AIMD grew the symbol budget (`value` = new repair count).
    BudgetUp,
    /// Budget: AIMD shrank the symbol budget (`value` = new repair count).
    BudgetDown,
    /// Engine: per-sender content-oblivious arrival tally at round close
    /// (`value` = value-channel count | advert-channel count `<< 8`).
    /// Only emitted when the ladder carries the oblivious rung and the
    /// sender used the count channel this round.
    ObliviousCount,
}

impl EventKind {
    /// Every variant, in counter-index order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::LinkDelivered,
        EventKind::LinkDropped,
        EventKind::LinkCorrected,
        EventKind::LinkDetected,
        EventKind::LinkUndetected,
        EventKind::FrameKept,
        EventKind::FrameDuplicate,
        EventKind::FrameLate,
        EventKind::FrameFuture,
        EventKind::FrameRejected,
        EventKind::FrameGarbage,
        EventKind::CopiesFolded,
        EventKind::RungHeld,
        EventKind::RungSwitch,
        EventKind::GossipAdopt,
        EventKind::GossipJoin,
        EventKind::GossipPin,
        EventKind::PressureSample,
        EventKind::BudgetUp,
        EventKind::BudgetDown,
        EventKind::ObliviousCount,
    ];

    /// Position in the fixed counter arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used by the JSONL dump.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::LinkDelivered => "link_delivered",
            EventKind::LinkDropped => "link_dropped",
            EventKind::LinkCorrected => "link_corrected",
            EventKind::LinkDetected => "link_detected",
            EventKind::LinkUndetected => "link_undetected",
            EventKind::FrameKept => "frame_kept",
            EventKind::FrameDuplicate => "frame_duplicate",
            EventKind::FrameLate => "frame_late",
            EventKind::FrameFuture => "frame_future",
            EventKind::FrameRejected => "frame_rejected",
            EventKind::FrameGarbage => "frame_garbage",
            EventKind::CopiesFolded => "copies_folded",
            EventKind::RungHeld => "rung_held",
            EventKind::RungSwitch => "rung_switch",
            EventKind::GossipAdopt => "gossip_adopt",
            EventKind::GossipJoin => "gossip_join",
            EventKind::GossipPin => "gossip_pin",
            EventKind::PressureSample => "pressure_sample",
            EventKind::BudgetUp => "budget_up",
            EventKind::BudgetDown => "budget_down",
            EventKind::ObliviousCount => "oblivious_count",
        }
    }

    /// True for link-plane kinds (their `value` is a wire length).
    #[inline]
    pub const fn is_link(self) -> bool {
        matches!(
            self,
            EventKind::LinkDelivered
                | EventKind::LinkDropped
                | EventKind::LinkCorrected
                | EventKind::LinkDetected
                | EventKind::LinkUndetected
        )
    }
}

/// One round-stamped observation.
///
/// The derived `Ord` (round, then process, then kind, then peer, then
/// value) is the canonical order recordings are sorted into at snapshot
/// time, making flight recordings comparable across substrates whose
/// threads ingest in different orders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// Protocol round the event belongs to (1-based; never wall-clock).
    pub round: u64,
    /// Process that observed the event (receiver, for link events).
    pub process: u32,
    /// What happened.
    pub kind: EventKind,
    /// Counterparty process, or [`NO_PEER`].
    pub peer: u32,
    /// Kind-specific payload (wire bytes, copy index, rung, …).
    pub value: u64,
}

impl Event {
    /// Link-plane event: `process` is the receiver, `peer` the sender.
    #[inline]
    pub const fn link(kind: EventKind, round: u64, receiver: u32, sender: u32, value: u64) -> Self {
        Event {
            round,
            process: receiver,
            kind,
            peer: sender,
            value,
        }
    }

    /// Per-process event with no counterparty (controller/budget plane).
    #[inline]
    pub const fn local(kind: EventKind, round: u64, process: u32, value: u64) -> Self {
        Event {
            round,
            process,
            kind,
            peer: NO_PEER,
            value,
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"type":"event","round":{},"process":{},"kind":"{}","peer":{},"value":{}}}"#,
            self.round,
            self.process,
            self.kind.name(),
            self.peer,
            self.value
        )
    }
}

/// Packs a rung switch into an [`Event::value`]:
/// `cause << 16 | from << 8 | to`.
#[inline]
pub const fn pack_rung_switch(cause: u8, from: u8, to: u8) -> u64 {
    ((cause as u64) << 16) | ((from as u64) << 8) | to as u64
}

/// Inverse of [`pack_rung_switch`]: `(cause, from, to)`.
#[inline]
pub const fn unpack_rung_switch(value: u64) -> (u8, u8, u8) {
    (
        ((value >> 16) & 0xFF) as u8,
        ((value >> 8) & 0xFF) as u8,
        (value & 0xFF) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KIND_COUNT);
    }

    #[test]
    fn switch_packing_round_trips() {
        let v = pack_rung_switch(3, 2, 5);
        assert_eq!(unpack_rung_switch(v), (3, 2, 5));
    }

    #[test]
    fn canonical_order_is_round_major() {
        let early = Event::local(EventKind::RungHeld, 1, 4, 0);
        let late = Event::link(EventKind::LinkDelivered, 2, 0, 1, 9);
        assert!(early < late, "round dominates the canonical order");
    }
}
