//! Property tests for the channel codes: encode→corrupt ≤ t bits→decode
//! roundtrips matching each code's guarantee, plus a deterministic
//! miss-rate regression for truncated checksums.

use bytes::BytesMut;
use heardof_coding::{
    decode_count, deinterleave_bits, encode_count, interleave_bits, measure_code_exact_flips,
    mux_overhead, oblivious_advert_frame, oblivious_channel, oblivious_value_frame,
    pack_slots_into, stripe_offsets, unpack_slots_view, AdaptiveConfig, AdaptiveController,
    BitNoise, ChannelCode, Checksum, CodeBook, CodeError, CodeSpec, DecodeScan, FrameOutcome,
    Hamming74, Interleaved, LtCode, NoCode, ObliviousChannel, PatternCode, Repetition, RoundTally,
    RungAdvert, SymbolBudget, TaggedWire, OBL_MAX_EPOCH, OBL_MAX_VALUE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread odometer of bytes requested,
/// so a test can bound what one decode asks the heap for while the
/// other tests of this binary run beside it.
struct MeteredAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn meter(bytes: usize) {
    // A thread being torn down has no odometer left; nothing reads it.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the odometer is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        meter(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        meter(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static METERED: MeteredAlloc = MeteredAlloc;

/// Bytes this thread asks the heap for while `f` runs.
fn requested_by(f: impl FnOnce()) -> usize {
    let before = REQUESTED.with(Cell::get);
    f();
    REQUESTED.with(Cell::get) - before
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..48)
}

/// The tagged wire image of `body` under code `id`, as a fresh `Vec`.
fn tagged(
    book: &CodeBook,
    id: u8,
    advert: Option<RungAdvert>,
    budget: Option<SymbolBudget>,
    body: &[u8],
) -> Vec<u8> {
    let mut wire = BytesMut::new();
    book.encode_tagged(id, advert, budget, body, &mut wire);
    wire.into()
}

/// `slots` packed into a fresh mux image.
fn pack_slots(slots: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut image = Vec::new();
    pack_slots_into(slots, &mut image);
    image
}

/// The slots of a mux image, copied out of its validated view.
fn unpack_slots(image: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, CodeError> {
    let view = unpack_slots_view(image)?;
    Ok(view.iter().map(|(id, body)| (id, body.to_vec())).collect())
}

proptest! {
    #[test]
    fn every_code_roundtrips_clean_frames(payload in arb_payload(), pick in 0usize..5) {
        let spec = [
            CodeSpec::None,
            CodeSpec::Checksum { width: 1 },
            CodeSpec::Checksum { width: 4 },
            CodeSpec::Repetition { k: 3 },
            CodeSpec::Hamming74,
        ][pick];
        let code = spec.build();
        let wire = code.encode(&payload);
        prop_assert_eq!(code.encoded_len(payload.len()), wire.len());
        prop_assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn hamming_corrects_any_single_bit_flip(payload in arb_payload(), bit_seed in any::<usize>()) {
        let code = Hamming74;
        let mut wire = code.encode(&payload);
        let bit = bit_seed % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(code.classify(&payload, &wire), FrameOutcome::Delivered);
        prop_assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn hamming_detects_any_double_flip_in_one_block(
        payload in arb_payload(),
        block_seed in any::<usize>(),
        b1 in 0u8..8,
        offset in 1u8..8,
    ) {
        let code = Hamming74;
        let mut wire = code.encode(&payload);
        let block = block_seed % wire.len();
        let b2 = (b1 + offset) % 8; // distinct second bit in the same block
        wire[block] ^= (1 << b1) | (1 << b2);
        prop_assert_eq!(
            code.classify(&payload, &wire),
            FrameOutcome::DetectedOmission,
            "double error in block {} must be detected", block
        );
    }

    #[test]
    fn repetition_survives_minority_copy_corruption(
        payload in arb_payload(),
        k_pick in 0usize..3,
        corrupt_seed in any::<u64>(),
    ) {
        let k = [3usize, 5, 7][k_pick];
        let code = Repetition::new(k);
        let t = code.correctable_copies(); // ⌊(k−1)/2⌋
        let mut wire = code.encode(&payload);
        // Obliterate t whole copies with arbitrary noise.
        let mut rng = StdRng::seed_from_u64(corrupt_seed);
        let len = payload.len();
        for copy in 0..t {
            BitNoise::new(0.5).apply(&mut wire[copy * len..(copy + 1) * len], &mut rng);
        }
        prop_assert_eq!(
            code.decode(&wire).unwrap(),
            payload,
            "majority of {} must survive {} corrupt copies", k, t
        );
    }

    #[test]
    fn checksum_detects_bounded_corruption(payload in arb_payload(), flips in 1usize..4, seed in any::<u64>()) {
        // CRC-32 detects every error burst of ≤ 3 random flipped bits.
        let code = Checksum::crc32();
        let mut wire = code.encode(&payload);
        let mut rng = StdRng::seed_from_u64(seed);
        BitNoise::flip_exact(&mut wire, flips, &mut rng);
        prop_assert_eq!(code.classify(&payload, &wire), FrameOutcome::DetectedOmission);
    }

    #[test]
    fn interleaver_is_the_identity_after_deinterleaving(
        data in proptest::collection::vec(any::<u8>(), 0..64),
        depth_pick in 0usize..5,
    ) {
        let depth = [2usize, 3, 4, 8, 16][depth_pick];
        let wire = interleave_bits(&data, depth);
        prop_assert_eq!(wire.len(), data.len());
        prop_assert_eq!(deinterleave_bits(&wire, depth), data);
    }

    #[test]
    fn interleaved_code_roundtrips_every_block_size(
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        depth_pick in 0usize..4,
    ) {
        let depth = [2usize, 4, 8, 16][depth_pick];
        let code = Interleaved::new(Hamming74, depth);
        let wire = code.encode(&payload);
        prop_assert_eq!(code.encoded_len(payload.len()), wire.len());
        prop_assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn any_burst_confined_to_one_stripe_is_corrected(
        payload in proptest::collection::vec(any::<u8>(), 16..48),
        depth_pick in 0usize..4,
        stripe_seed in any::<usize>(),
        burst_len_seed in any::<usize>(),
        burst_off_seed in any::<usize>(),
    ) {
        // The headline guarantee: a contiguous wire burst of ≤ depth
        // bits that stays inside one stripe spreads to at most one flip
        // per SECDED block and is repaired outright. Payloads of ≥ 16
        // bytes keep the stripe spacing ≥ 8 bits at every depth here.
        let depth = [2usize, 4, 8, 16][depth_pick];
        let code = Interleaved::new(Hamming74, depth);
        let mut wire = code.encode(&payload);
        let offsets = stripe_offsets(wire.len() * 8, depth);
        let stripe = stripe_seed % (offsets.len() - 1);
        let (start, end) = (offsets[stripe], offsets[stripe + 1]);
        let burst_len = 1 + burst_len_seed % (end - start);
        let burst_off = start + burst_off_seed % (end - start - burst_len + 1);
        for bit in burst_off..burst_off + burst_len {
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert_eq!(
            code.classify(&payload, &wire),
            FrameOutcome::Delivered,
            "depth {}, burst of {} bits at {} inside stripe [{}, {})",
            depth, burst_len, burst_off, start, end
        );
        prop_assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn repetition_differential_against_reference_decoder(
        payload in proptest::collection::vec(any::<u8>(), 1..=64),
        k_pick in 0usize..3,
        noise_seed in any::<u64>(),
        heavy in any::<bool>(),
    ) {
        // Differential test: the production bit-majority decoder against
        // an independent brute-force reference, on both light and heavy
        // random corruption (the heavy regime exercises miscorrection
        // paths where the two implementations must still agree).
        let k = [3usize, 5, 7][k_pick];
        let code = Repetition::new(k);
        let mut wire = code.encode(&payload);
        let mut rng = StdRng::seed_from_u64(noise_seed);
        let rate = if heavy { 0.2 } else { 0.01 };
        BitNoise::new(rate).apply(&mut wire, &mut rng);
        prop_assert_eq!(
            code.decode(&wire).unwrap(),
            reference_majority_decode(&wire, k),
            "k = {}", k
        );
    }

    #[test]
    fn fountain_roundtrips_any_payload_and_budget(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        repair in 0u8..16,
        extra in 0u8..24,
    ) {
        // Clean-wire roundtrip at every baseline, and the incremental
        // pathway: a budget-inflated frame is decoded by the same
        // budget-free decoder, so mixed budgets decode like mixed
        // epochs.
        let code = LtCode::new(repair);
        let wire = code.encode(&payload);
        prop_assert_eq!(code.encoded_len(payload.len()), wire.len());
        prop_assert_eq!(code.decode(&wire).unwrap(), payload.clone());
        let mut inflated = BytesMut::new();
        let budget = SymbolBudget::baseline(repair.saturating_add(extra));
        code.encode_into(&payload, Some(budget), &mut inflated);
        prop_assert_eq!(code.decode(&inflated).unwrap(), payload);
    }

    #[test]
    fn fountain_decodes_from_k_plus_epsilon_symbols(
        payload in proptest::collection::vec(any::<u8>(), 1..120),
        repair in 1u8..12,
        victim_seed in any::<usize>(),
    ) {
        // The rateless guarantee, deterministic form: with ε ≥ 1 repair
        // symbols, obliterating ANY single symbol (source or repair)
        // still decodes — k + ε symbols suffice, and the erasure is
        // observable repair evidence.
        let code = LtCode::new(repair);
        let clean = code.encode(&payload);
        let per_symbol = 1 + LtCode::block_len(payload.len()) + 1;
        let header = clean.len() - ((clean.len() - 12) / per_symbol) * per_symbol;
        prop_assert_eq!(header, 12, "three 4-byte length copies lead the frame");
        let symbols = (clean.len() - header) / per_symbol;
        let victim = victim_seed % symbols;
        let mut wire = clean;
        for b in &mut wire[header + victim * per_symbol..][..per_symbol] {
            *b = !*b;
        }
        let (got, repaired) = code.decode_scan(&wire).outcome.unwrap();
        prop_assert_eq!(&*got, &*payload);
        prop_assert!(repaired, "an erased-and-repaired symbol must be reported");
    }

    #[test]
    fn fountain_corruption_is_never_a_value_fault(
        payload in proptest::collection::vec(any::<u8>(), 1..120),
        repair in 0u8..12,
        flips in 1usize..48,
        seed in any::<u64>(),
    ) {
        // The paper's move applied inside the code: whatever random
        // corruption does to the symbol stream, the per-symbol CRCs
        // turn it into erasures and the outer CRC-32 catches the
        // residue — the receiver sees a delivery or an omission, never
        // a silent value fault.
        let code = LtCode::new(repair);
        let mut wire = code.encode(&payload);
        let mut rng = StdRng::seed_from_u64(seed);
        BitNoise::flip_exact(&mut wire, flips, &mut rng);
        prop_assert_ne!(
            code.classify(&payload, &wire),
            FrameOutcome::UndetectedValueFault,
            "corrupted symbols must surface as erasures or omissions"
        );
    }

    #[test]
    fn gossip_frames_are_detected_omissions_to_pre_gossip_decoders(
        payload in arb_payload(),
        id_pick in 0usize..5,
        rung in 0u8..8,
        epoch in 0u8..16,
    ) {
        // Wire-format compatibility, forward direction: a frame in the
        // gossip format handed to a decoder that predates it must be a
        // clean rejection — the flagged id byte names no code in a
        // pre-gossip book — never a misparse and never a panic. That is
        // what makes the extra byte version-safe to deploy rung by rung.
        let book = CodeBook::from_specs(&AdaptiveConfig::standard(5, 1).ladder);
        let id = id_pick as u8;
        let ad = RungAdvert { rung, epoch };
        let wire = tagged(&book, id, Some(ad), None, &payload);
        match legacy_decode(&book, &wire) {
            Err(_) => {} // detected omission: the only acceptable verdict
            Ok((got_id, body)) => prop_assert!(
                false,
                "a pre-gossip decoder misread a gossip frame as id {} body {:?}",
                got_id,
                body
            ),
        }
        // …and the gossip-aware decoder reads its own format exactly.
        let full = book.decode_tagged(&wire).0.unwrap();
        prop_assert_eq!(full.code_id, id);
        prop_assert_eq!(full.advert, Some(ad));
        prop_assert_eq!(&*full.body, &*payload);
    }

    #[test]
    fn legacy_frames_decode_identically_through_the_gossip_aware_book(
        payload in arb_payload(),
        id_pick in 0usize..5,
    ) {
        // Wire-format compatibility, backward direction: a pre-gossip
        // frame decodes byte-identically through the gossip-aware book
        // (advert-free), and the two decode rules agree verdict for
        // verdict.
        let book = CodeBook::from_specs(&AdaptiveConfig::standard(5, 1).ladder);
        let id = id_pick as u8;
        let wire = tagged(&book, id, None, None, &payload);
        let full = book.decode_tagged(&wire).0.unwrap();
        prop_assert_eq!(full.code_id, id);
        prop_assert_eq!(full.advert, None);
        prop_assert_eq!(&*full.body, &*payload);
        let (legacy_id, legacy_body) = legacy_decode(&book, &wire).unwrap();
        prop_assert_eq!(legacy_id, id);
        prop_assert_eq!(legacy_body, payload);
    }

    #[test]
    fn gossip_prefix_corruption_is_never_a_value_fault(
        payload in arb_payload(),
        id_pick in 0usize..5,
        rung in 0u8..8,
        epoch in 0u8..16,
        flips in 1usize..9,
        seed in any::<u64>(),
    ) {
        // Corruption confined to the two unprotected prefix bytes (the
        // flagged id and the advertisement): whatever it does — flag
        // stripped, id remapped, advert forged — the receiver sees the
        // original payload or a detected omission, never a different
        // payload. (The advert itself may be lost or altered; policy
        // guards own that, `tests/gossip_faults.rs` at the workspace
        // root drives it.)
        let book = CodeBook::from_specs(&AdaptiveConfig::standard(5, 1).ladder);
        let ad = RungAdvert { rung, epoch };
        let mut wire = tagged(&book, id_pick as u8, Some(ad), None, &payload);
        let mut rng = StdRng::seed_from_u64(seed);
        BitNoise::flip_exact(&mut wire[..2], flips.min(16), &mut rng);
        match book.decode_tagged(&wire).0 {
            Err(_) => {} // detected omission
            Ok(t) => prop_assert_eq!(
                &*t.body,
                &*payload,
                "prefix corruption must never alter the delivered payload"
            ),
        }
    }

    #[test]
    fn mux_header_corruption_is_never_a_value_fault(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..8),
        flips in 1usize..9,
        seed in any::<u64>(),
    ) {
        // The multiplexed wire image is self-checking: 1–8 bit flips
        // anywhere in the mux header region (count byte + per-slot
        // id/len headers) must surface as a rejection or reproduce the
        // original slots exactly — never a silently different slot set
        // (which the engine would route to the wrong instances).
        let slots: Vec<(u32, Vec<u8>)> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| (i as u32, b))
            .collect();
        let image = pack_slots(&slots);
        let header_len = mux_overhead(slots.len()) - 4; // headers, not the CRC trailer
        let mut hit = image.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        BitNoise::flip_exact(&mut hit[..header_len], flips.min(header_len * 8), &mut rng);
        match unpack_slots(&hit) {
            Err(CodeError::Detected) | Err(CodeError::Malformed) => {} // detected omission
            Ok(got) => prop_assert_eq!(
                got,
                slots,
                "header corruption must never deliver altered slots"
            ),
        }
    }

    #[test]
    fn mux_images_survive_the_coded_path_or_reject_whole(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..5),
        id_pick in 0usize..5,
        flips in 1usize..9,
        seed in any::<u64>(),
    ) {
        // End to end through the tagged channel-code layer: corrupt the
        // coded wire anywhere; after tagged decode + unpack, the
        // receiver sees the original slot set or nothing — the
        // two-layer check (channel code, then mux CRC) leaves no path
        // to a partially-delivered or misrouted batch.
        let book = CodeBook::from_specs(&AdaptiveConfig::standard(5, 1).ladder);
        let slots: Vec<(u32, Vec<u8>)> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| (i as u32, b))
            .collect();
        let image = pack_slots(&slots);
        let mut wire = tagged(&book, id_pick as u8, None, None, &image);
        let mut rng = StdRng::seed_from_u64(seed);
        BitNoise::flip_exact(&mut wire, flips, &mut rng);
        if let Ok(t) = book.decode_tagged(&wire).0 {
            match unpack_slots(&t.body) {
                Err(_) => {} // detected omission at the mux layer
                Ok(got) => prop_assert_eq!(got, slots, "no silent batch alteration"),
            }
        }
    }

    #[test]
    fn no_code_never_detects(payload in arb_payload(), flips in 1usize..9, seed in any::<u64>()) {
        let mut wire = NoCode.encode(&payload);
        let mut rng = StdRng::seed_from_u64(seed);
        BitNoise::flip_exact(&mut wire, flips, &mut rng);
        prop_assert_eq!(
            NoCode.classify(&payload, &wire),
            FrameOutcome::UndetectedValueFault,
            "without redundancy every corruption lands"
        );
    }
}

/// The *pre-gossip* tagged decode rule, reimplemented verbatim: the
/// first byte is the code id, the rest is that code's wire image. This
/// is what every deployed decoder did before the gossip byte existed —
/// the compatibility proptests above drive today's frames through it.
fn legacy_decode(book: &CodeBook, wire: &[u8]) -> Result<(u8, Vec<u8>), CodeError> {
    let (&id, rest) = wire.split_first().ok_or(CodeError::Malformed)?;
    let code = book.code(id).ok_or(CodeError::Malformed)?;
    Ok((id, code.decode(rest)?))
}

/// A deliberately naive majority decoder: for each logical bit, gather
/// the k copies one by one and count. Shares no code with
/// `Repetition::decode` (which iterates bit-planes over byte strides).
fn reference_majority_decode(wire: &[u8], k: usize) -> Vec<u8> {
    assert_eq!(wire.len() % k, 0);
    let len = wire.len() / k;
    let mut out = Vec::with_capacity(len);
    for byte in 0..len {
        let mut value = 0u8;
        for bit in 0..8 {
            let mut ones = 0usize;
            for copy in 0..k {
                let b = wire[copy * len + byte];
                if (b >> bit) & 1 == 1 {
                    ones += 1;
                }
            }
            if 2 * ones > k {
                value |= 1 << bit;
            }
        }
        out.push(value);
    }
    out
}

#[test]
fn repetition_differential_exhaustive_single_bytes() {
    // Exhaustive over all single-byte payload corruption patterns for
    // k = 3: every 24-bit wire image decodes identically in both
    // implementations (4096 spot checks of the full 2^24 space per
    // byte value, seeded).
    let code = Repetition::new(3);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for _ in 0..4096 {
        let wire = vec![
            rng.gen_range(0..=255u8),
            rng.gen_range(0..=255u8),
            rng.gen_range(0..=255u8),
        ];
        assert_eq!(
            code.decode(&wire).unwrap(),
            reference_majority_decode(&wire, 3),
            "wire {wire:?}"
        );
    }
}

#[test]
fn repair_evidence_is_independent_of_block_order() {
    // Regression for the early-return bug in the SECDED scan: the old
    // `decode_repaired` bailed on the first double-error block, so a
    // frame whose repairable block came AFTER the fatal one reported no
    // repair evidence, while the mirror-image damage (repair first,
    // double error later) would have. Same damage, different pressure —
    // the adaptive controller reacted to block *order*, not channel
    // state. `decode_scan` scans every block; both orderings must
    // report identical evidence.
    let code = Hamming74;
    let payload = vec![0x5Au8; 16]; // 32 SECDED blocks
    let clean = code.encode(&payload);

    // Damage A: fatal double error early (block 1), repairable single
    // flip late (block 20). Damage B: the mirror image.
    let mut early_fatal = clean.clone();
    early_fatal[1] ^= 0b0000_0110;
    early_fatal[20] ^= 0b0001_0000;
    let mut late_fatal = clean.clone();
    late_fatal[1] ^= 0b0001_0000;
    late_fatal[20] ^= 0b0000_0110;

    let a = code.decode_scan(&early_fatal);
    let b = code.decode_scan(&late_fatal);
    assert!(
        a.outcome.is_err() && b.outcome.is_err(),
        "both are rejected"
    );
    assert!(a.repairs > 0, "repair evidence after the fatal block");
    assert!(b.repairs > 0, "repair evidence before the fatal block");
    assert_eq!(a.repairs, b.repairs, "equivalent damage, equal evidence");

    // And the controller-level consequence: two controllers fed the
    // per-round tallies the engine derives from these scans (a rejected
    // frame with visible repairs is one unit of evidence) must see
    // identical pressure and walk identical rungs.
    let n = 5;
    let mut seen_early = AdaptiveController::new(AdaptiveConfig::standard(n, 1));
    let mut seen_late = AdaptiveController::new(AdaptiveConfig::standard(n, 1));
    for _ in 0..8 {
        let tally = |scan: &DecodeScan<'_>| RoundTally {
            expected: n - 1,
            delivered: n - 2,
            corrected: 0,
            value_faults: 0,
            evidence: usize::from(scan.repairs > 0),
        };
        let switch_a = seen_early.observe(tally(&a));
        let switch_b = seen_late.observe(tally(&b));
        assert_eq!(switch_a, switch_b, "identical switch decisions");
        assert_eq!(
            seen_early.activity(),
            seen_late.activity(),
            "identical observed activity"
        );
        assert_eq!(seen_early.pressure(), seen_late.pressure());
    }
    assert_eq!(seen_early.current(), seen_late.current());
}

#[test]
fn truncated_checksum_miss_rate_regression() {
    // Deterministic (fixed seeds, fixed trial counts): a w-byte checksum
    // misses heavy random corruption at ~2^-8w. Brackets are generous
    // enough to be stable across RNG stream changes yet tight enough to
    // catch a broken trailer comparison.
    let rates8 = measure_code_exact_flips(&Checksum::with_width(1), 16, 12, 80_000, 11);
    let miss8 = rates8.miss_rate_given_corruption();
    assert!(
        (1.0 / 640.0..1.0 / 102.0).contains(&miss8),
        "8-bit checksum miss rate {miss8} outside 2^-8 ballpark"
    );

    let rates16 = measure_code_exact_flips(&Checksum::with_width(2), 16, 12, 80_000, 12);
    let miss16 = rates16.miss_rate_given_corruption();
    assert!(
        miss16 < miss8 / 16.0,
        "16-bit checksum ({miss16}) must miss far less than 8-bit ({miss8})"
    );

    let rates32 = measure_code_exact_flips(&Checksum::crc32(), 16, 12, 80_000, 13);
    assert_eq!(
        rates32.undetected, 0,
        "2^-32 misses are invisible at 80k trials"
    );
}

// ---------------------------------------------------------------------
// Hostile-wire totality: a code has one encode and one decode, and the
// decode is the arbiter of what arbitrary bytes become at a receiver.
// Whatever arrives — a clean wire, a mangled one, a truncation, pure
// garbage — each layer's decoder must return (never panic) an error or
// a body, and a clean wire must come back as the body that was sent.
// ---------------------------------------------------------------------

/// Every constructible spec family, including the rungs the adaptive
/// ladder skips.
fn all_specs() -> [CodeSpec; 9] {
    [
        CodeSpec::None,
        CodeSpec::Checksum { width: 1 },
        CodeSpec::Checksum { width: 2 },
        CodeSpec::Checksum { width: 4 },
        CodeSpec::Repetition { k: 3 },
        CodeSpec::Repetition { k: 5 },
        CodeSpec::Hamming74,
        CodeSpec::Interleaved { depth: 16 },
        CodeSpec::Fountain { repair: 4 },
    ]
}

/// Clean → corrupted → truncated → pure garbage, driven by a seed.
fn adversarial_wire(clean: &[u8], op: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wire = clean.to_vec();
    match op {
        0 => {}
        1 => {
            for _ in 0..rng.gen_range(1..=4usize) {
                if wire.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..wire.len());
                wire[at] ^= rng.gen_range(1..=255u8);
            }
        }
        2 => {
            let keep = rng.gen_range(0..=wire.len());
            wire.truncate(keep);
        }
        _ => {
            wire = (0..rng.gen_range(0..96usize))
                .map(|_| rng.gen_range(0..=255u8))
                .collect();
        }
    }
    wire
}

/// What one decode of `wire` must satisfy whatever the bytes are: a
/// rejection carries no body, a delivery's repair flag agrees with its
/// repair count, and the two conveniences are the same verdict.
fn check_scan(code: &dyn ChannelCode, wire: &[u8]) {
    let scan = code.decode_scan(wire);
    if let Ok((_, repaired)) = &scan.outcome {
        assert_eq!(*repaired, scan.repairs > 0, "{}", code.name());
    }
    let body = scan.outcome.map(|(body, _)| body.into_owned());
    assert_eq!(code.decode(wire), body);
}

/// Fountain wires aimed at the one field the symbols cannot protect:
/// a voted length of `0xFFFF_FFFF` over nothing and over junk, a
/// length far larger than the symbols behind it back, an honest header
/// with an empty symbol area, and an honest frame followed by enough
/// valid-CRC replays of its own symbols to pass 256 survivors.
fn fountain_length_attacks(payload: &[u8], junk: &[u8]) -> Vec<Vec<u8>> {
    let header = |len: u32| len.to_le_bytes().repeat(3);
    let clean = LtCode::new(4).encode(payload);
    let per_symbol = LtCode::block_len(payload.len()) + 2;
    let replayed = clean[12..].chunks(per_symbol).cycle().take(300).flatten();
    let inflated = 64 * (junk.len() as u32 + 1);
    let one_symbol = junk.iter().copied().chain(std::iter::repeat(0xA5));
    let one_symbol = one_symbol.take(LtCode::block_len(inflated as usize) + 2);
    vec![
        header(u32::MAX),
        [header(u32::MAX), junk.to_vec()].concat(),
        header(inflated).into_iter().chain(one_symbol).collect(),
        clean[..12].to_vec(),
        clean.iter().chain(replayed).copied().collect(),
    ]
}

proptest! {
    #[test]
    fn every_decoder_is_total_on_hostile_wires(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        junk in proptest::collection::vec(any::<u8>(), 0..160),
        seed in any::<u64>(),
        with_advert in any::<bool>(),
        spend in any::<bool>(),
        repair in 0u8..24,
        prefix_len in 0usize..8,
    ) {
        let specs = all_specs();
        let book = CodeBook::from_specs(&specs);
        let budget = spend.then_some(SymbolBudget::baseline(repair));
        for (id, spec) in specs.iter().enumerate() {
            // Code layer. The encoder appends: bytes already in the
            // arena are left alone, and a clean wire delivers the
            // payload with nothing to repair, whatever the budget.
            let code = spec.build();
            let mut arena = BytesMut::new();
            arena.put_bytes(0xA5, prefix_len);
            code.encode_into(&payload, budget, &mut arena);
            prop_assert!(arena[..prefix_len].iter().all(|b| *b == 0xA5));
            let clean = arena[prefix_len..].to_vec();
            if budget.is_none() {
                prop_assert_eq!(clean.len(), code.encoded_len(payload.len()));
                prop_assert_eq!(&clean, &code.encode(&payload));
            }
            let delivered = DecodeScan::delivered(payload.as_slice(), false, 0);
            prop_assert_eq!(code.decode_scan(&clean), delivered);
            for op in 1..4 {
                check_scan(&code, &adversarial_wire(&clean, op, seed));
            }
            check_scan(&code, &junk);
            if let CodeSpec::Fountain { .. } = spec {
                // No allocation is sized by the unauthenticated length
                // word: a decode asks the heap for a small multiple of
                // the bytes the wire actually holds (its rows and its
                // image), and a bare 12-byte header for under 1 KB.
                for wire in fountain_length_attacks(&payload, &junk) {
                    check_scan(&code, &wire);
                    let requested = requested_by(|| drop(code.decode_scan(&wire)));
                    prop_assert!(
                        requested < 1024 + 8 * (wire.len() - 12),
                        "{} bytes requested for a {}-byte wire", requested, wire.len()
                    );
                }
            }

            // Book layer: the same wires behind a tag (and advert).
            let id = id as u8;
            let advert = with_advert.then_some(RungAdvert {
                rung: id % 8,
                epoch: (seed >> 8) as u8 & 0x0F,
            });
            let clean = tagged(&book, id, advert, budget, &payload);
            let want = TaggedWire {
                code_id: id,
                repaired: false,
                advert,
                body: payload.as_slice().into(),
            };
            prop_assert_eq!(book.decode_tagged(&clean), (Ok(want), 0));
            let hostile = (1..4).map(|op| adversarial_wire(&clean, op, seed));
            for wire in hostile.chain([junk.clone()]) {
                let (outcome, repairs) = book.decode_tagged(&wire);
                match outcome {
                    // A delivery names a code in the book and its
                    // repair flag agrees with the evidence count.
                    Ok(t) => {
                        prop_assert!((t.code_id as usize) < book.len());
                        prop_assert_eq!(t.repaired, repairs > 0);
                    }
                    // An unreadable prefix runs no decoder: no evidence.
                    Err(_) if wire.len() < 2 => prop_assert_eq!(repairs, 0),
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn slot_unpacking_is_total_on_hostile_images(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..8),
        junk in proptest::collection::vec(any::<u8>(), 0..160),
        op in 0usize..4,
        seed in any::<u64>(),
    ) {
        let slots: Vec<(u32, Vec<u8>)> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| (i as u32, b))
            .collect();
        let clean = pack_slots(&slots);
        prop_assert_eq!(unpack_slots(&clean).as_ref(), Ok(&slots));
        for image in [adversarial_wire(&clean, op, seed), junk] {
            // Whatever validates walks without panicking and is, byte
            // for byte, the image its own slots pack to.
            if let Ok(got) = unpack_slots(&image) {
                prop_assert_eq!(pack_slots(&got), image);
            }
        }
    }

    // -----------------------------------------------------------------
    // Content-oblivious rung: the adversary owns every payload byte, so
    // the only properties worth having are the ones that hold for
    // ARBITRARY byte rewrites — which is exactly what proptest draws.
    // -----------------------------------------------------------------

    #[test]
    fn oblivious_frames_never_decode_to_content_under_any_rewrite(
        wire in proptest::collection::vec(any::<u8>(), 0..64),
        payload in arb_payload(),
    ) {
        // The pattern code refuses content outright: no wire image —
        // clean, rewritten, truncated, or pure garbage — ever decodes
        // to a payload, and no corruption of it is ever classified as
        // an undetected value fault. (The value itself travels as the
        // arrival count, outside this code's reach.)
        let code = PatternCode;
        prop_assert_eq!(code.decode(&wire), Err(CodeError::Detected));
        prop_assert_eq!(
            code.classify(&payload, &wire),
            FrameOutcome::DetectedOmission,
            "a pattern frame must never surface as a value fault"
        );
    }

    #[test]
    fn payload_rewrites_never_change_the_decoded_count(
        value in 0u8..=OBL_MAX_VALUE,
        epoch in 0u8..=OBL_MAX_EPOCH,
        rewrite_seed in any::<u64>(),
    ) {
        // A sender signals `value` on the value channel and `epoch` on
        // the advert channel; an adversary rewrites EVERY byte of every
        // frame in flight (length-preserving — content is all it owns).
        // The receiver classifies by length alone and decodes the
        // arrival counts: both values must come back exact.
        let mut rng = StdRng::seed_from_u64(rewrite_seed);
        let mut arrivals: Vec<Vec<u8>> = Vec::new();
        for _ in 0..encode_count(value, OBL_MAX_VALUE) {
            arrivals.push(oblivious_value_frame().to_vec());
        }
        for _ in 0..encode_count(epoch, OBL_MAX_EPOCH) {
            arrivals.push(oblivious_advert_frame().to_vec());
        }
        let (mut values, mut adverts) = (0usize, 0usize);
        for frame in &mut arrivals {
            for b in frame.iter_mut() {
                *b = rng.gen_range(0..=255u8);
            }
            match oblivious_channel(frame.len()) {
                Some(ObliviousChannel::Value) => values += 1,
                Some(ObliviousChannel::Advert) => adverts += 1,
                None => prop_assert!(false, "rewrite changed a frame's channel"),
            }
        }
        prop_assert_eq!(decode_count(values, OBL_MAX_VALUE), Some(value));
        prop_assert_eq!(decode_count(adverts, OBL_MAX_EPOCH), Some(epoch));
    }

    #[test]
    fn mixed_ladders_decode_identically_to_per_format_oracles(
        body in proptest::collection::vec(any::<u8>(), 3..48),
        id_pick in 0usize..6,
        with_advert in any::<bool>(),
        op in 0usize..4,
        seed in any::<u64>(),
    ) {
        // The extended ladder mixes two wire formats: tagged coded
        // frames and untagged pattern frames, dispatched on length
        // before any decode. Two oracle claims make that sound:
        // (a) appending the oblivious rung to the book never changes a
        //     tagged verdict — any wire either rejects through both
        //     books or decodes identically through both;
        // (b) no tagged emission of either book ever has a pattern
        //     length, so length dispatch can never swallow a coded
        //     frame. Bodies here are ≥ 3 bytes — the degenerate 1-byte
        //     body CAN collide (tag + Hamming's 2-byte image is 3 bytes)
        //     but never occurs: every serialized round message is an
        //     order of magnitude past the floor, which is exactly why
        //     the pattern channel sits at lengths 2–3.
        let plain_cfg = AdaptiveConfig::standard(5, 1);
        let mixed_cfg = AdaptiveConfig::standard(5, 1).with_oblivious();
        let plain = CodeBook::from_specs(&plain_cfg.ladder);
        let mixed = CodeBook::from_specs(&mixed_cfg.ladder);
        let id = id_pick as u8 % plain.len() as u8;
        let advert = with_advert.then_some(RungAdvert {
            rung: id % 8,
            epoch: (seed >> 8) as u8 & 0x0F,
        });

        let clean = tagged(&mixed, id, advert, None, &body);
        prop_assert_eq!(&clean, &tagged(&plain, id, advert, None, &body));
        prop_assert!(
            oblivious_channel(clean.len()).is_none(),
            "a tagged frame of {} bytes collides with the pattern channel",
            clean.len()
        );

        let wire = adversarial_wire(&clean, op, seed);
        match (plain.decode_tagged(&wire).0, mixed.decode_tagged(&wire).0) {
            (Err(_), Err(_)) => {} // both reject: the rung added no parse
            (Ok(p), Ok(m)) => prop_assert_eq!(p, m),
            (p, m) => prop_assert!(
                false,
                "books disagree on acceptance: plain {:?} mixed {:?}",
                p.is_ok(),
                m.is_ok()
            ),
        }
    }
}
