//! Rateless fountain coding: the [`LtCode`] and its incremental-symbol
//! budget.
//!
//! Every other rung of the adaptive ladder buys safety with *fixed*
//! redundancy, and the most expensive rung — [`crate::Repetition`] —
//! pays it in whole-frame copies. A fountain code changes the currency:
//! the payload is cut into `k` small source blocks and the sender emits
//! a stream of **symbols** — the `k` blocks themselves plus any number
//! of XOR combinations drawn from a seeded robust-soliton degree
//! distribution. A receiver that recovers *any* sufficiently large,
//! sufficiently diverse subset of symbols rebuilds the payload by
//! exact GF(2) elimination (inactivation decoding — rank-optimal, and
//! cheap at this workspace's block counts); redundancy is metered in
//! increments of one symbol (a few bytes) instead of one frame
//! (cf. Luby's LT codes and the corruption-resilient fountain-code line
//! of work referenced in the ROADMAP).
//!
//! The paper's value-fault→omission move is applied **inside** the
//! code, twice:
//!
//! * each symbol carries its own CRC, so a symbol corrupted in flight
//!   becomes an *erasure* — exactly the fault class fountain codes are
//!   built to absorb — instead of poisoning the decode;
//! * the whole payload carries an outer CRC-32, so the residual event
//!   (a symbol CRC collision feeding a forged equation into the solver)
//!   is still *detected* and surfaces as an omission, not a value
//!   fault. The undetected residual is the outer checksum's `2^-32`.
//!
//! Determinism is load-bearing: the symbol schedule (which blocks each
//! repair symbol XORs) is a pure function of `(seed, k, symbol index)`,
//! and the per-frame schedule the engine uses is a pure function of the
//! frame's coordinates through [`crate::NoiseTrace`]-corrupted bytes —
//! so the lockstep simulator, the threaded runtime and the async
//! runtime replay fountain-coded rounds bit-for-bit, and the
//! cross-substrate conformance harness covers this rung like any other.
//!
//! [`SymbolBudget`] is the knob the rest of the stack turns: how many
//! repair symbols to append to each frame. The engine renegotiates it
//! per round from the same receiver tallies that drive the rung ladder
//! (additive-increase on loss, decay-to-baseline when calm), and folds
//! legacy whole-frame `copies` configuration into it — one extra copy
//! becomes `k` extra repair symbols on one frame rather than a
//! duplicate frame.

use crate::checksum::crc32;
use crate::code::{ChannelCode, CodeError, DecodeScan};
use bytes::{BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Source-block size in bytes. Small blocks keep the erasure unit
/// smaller than a typical channel burst, so one burst erases one or two
/// symbols instead of the whole frame.
const BLOCK_LEN: usize = 4;

/// Hard cap on source symbols per frame; payloads larger than
/// `MAX_SOURCE_SYMBOLS · BLOCK_LEN` get proportionally larger blocks so
/// `k` (and the one-byte symbol index space) never overflows.
const MAX_SOURCE_SYMBOLS: usize = 64;

/// Per-symbol checksum width (a truncated CRC-32). One byte suffices:
/// the per-symbol check only *marks erasures* — a collision (≈ 2⁻⁸ per
/// corrupted symbol) feeds a forged equation into the solver, and the
/// outer payload CRC-32 then rejects the reassembly, so the cost of a
/// collision is one extra omission, never a value fault. Keeping the
/// mark narrow is what lets a frame afford more repair symbols.
const SYMBOL_CRC_LEN: usize = 1;

/// How many times the payload-length word is replicated in the frame
/// header. The length is the one field the symbol machinery cannot
/// protect (it is needed to *parse* the symbols), so it gets its own
/// burst armor: three copies, bit-majority voted — a burst confined to
/// one copy is outvoted. Everything else, including the outer payload
/// CRC-32, travels inside the erasure-protected symbol space, so a
/// mis-voted length can only produce a detected failure downstream.
const LEN_COPIES: usize = 3;

/// Frame header: [`LEN_COPIES`] replicas of the payload length
/// (u32 LE), bit-majority voted at the receiver.
const HEADER_LEN: usize = 4 * LEN_COPIES;

/// Width of the outer payload CRC-32 appended to the payload *before*
/// blocking — it rides inside the symbols, repaired by the same
/// erasure machinery as the data it guards.
const OUTER_CRC_LEN: usize = 4;

/// The largest symbol count one frame can carry (one-byte indices).
const MAX_SYMBOLS: usize = 256;

/// The schedule seed behind [`CodeSpec::Fountain`](crate::CodeSpec):
/// every deployment shares it, so the repair-symbol schedule is a pure
/// function of `(k, symbol index)` alone and any receiver can replay
/// any sender's schedule.
const SCHEDULE_SEED: u64 = 0xF0_07_A1_4D_C0_DE_55_17;

/// Robust-soliton parameters (Luby's `c` and `δ`), tuned for the small
/// `k` this workspace frames (tens of blocks, not thousands).
const SOLITON_C: f64 = 0.1;
const SOLITON_DELTA: f64 = 0.05;

/// How many repair symbols one frame may carry at most, whatever the
/// renegotiation asks for (the symbol index space caps the rest).
const MAX_REPAIR: u8 = 64;

/// Additive-increase gain: repair symbols added per unit of observed
/// loss pressure in one renegotiation step.
const GROWTH_GAIN: f64 = 8.0;

/// The per-frame repair-symbol allowance a rateless code spends —
/// the negotiated currency of the incremental-symbol pathway.
///
/// A budget travels from the renegotiation hook (the engine's
/// end-of-round tally) to the encoder: `repair` extra symbols beyond
/// the `k` source symbols, with legacy whole-frame `copies` folded in
/// as `k` further symbols each. Decoders need no budget at all — a
/// fountain frame is self-describing, so mixed budgets (like mixed
/// epochs) decode exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymbolBudget {
    /// Extra repair symbols appended to each frame beyond the source
    /// symbols.
    pub repair: u8,
    /// Whole-frame redundancy folded into symbols: each copy beyond the
    /// first adds `k` repair symbols to the single frame actually sent
    /// (the compatibility shim behind `NetConfig::copies`).
    pub copies: u8,
}

impl SymbolBudget {
    /// The budget a fresh fountain rung starts from: `repair` symbols,
    /// single copy.
    pub fn baseline(repair: u8) -> Self {
        SymbolBudget { repair, copies: 1 }
    }

    /// Folds a legacy `copies` configuration into the budget (values
    /// below 1 are treated as 1).
    pub fn fold_copies(self, copies: u8) -> Self {
        SymbolBudget {
            copies: copies.max(1),
            ..self
        }
    }

    /// Prices the allowance for one mux wire image carrying `k`
    /// instance slots, instead of `k` separate frames each spending
    /// the full budget. The pooled frame keeps the per-instance
    /// average at roughly half the solo allowance — erasures across a
    /// shared image are repaired from one shared pool, so the pool
    /// need not scale linearly with the slot count — scaled as
    /// `⌈repair·(k+1)/2⌉` and capped at the frame's symbol-space
    /// limit. Identity for `k ≤ 1`: a single-slot image is just a
    /// frame.
    pub fn for_batch(self, k: usize) -> Self {
        if k <= 1 {
            return self;
        }
        let scaled = (self.repair as usize * (k + 1)).div_ceil(2);
        SymbolBudget {
            repair: scaled.min(MAX_REPAIR as usize) as u8,
            ..self
        }
    }

    /// One step of the per-round renegotiation: additive increase
    /// proportional to the observed loss pressure, decay by one symbol
    /// toward the `base` allowance when the round was completely calm
    /// (no losses *and* no repairs — a round where the current
    /// allowance was still actively earning its keep holds it).
    ///
    /// A pure function of `(self, tally, base)`: every substrate
    /// feeding identical tallies negotiates identical budgets, which is
    /// what keeps fountain rounds inside the conformance bar.
    pub fn renegotiate(self, tally: crate::RoundTally, base: u8) -> Self {
        let pressure = tally.pressure();
        let repair = if pressure > 0.0 {
            let step = (pressure * GROWTH_GAIN).ceil().max(1.0) as u8;
            self.repair.saturating_add(step).min(MAX_REPAIR)
        } else if tally.activity() == 0.0 {
            self.repair.saturating_sub(1).max(base)
        } else {
            self.repair
        };
        SymbolBudget { repair, ..self }
    }
}

/// A systematic LT-style fountain code over byte payloads.
///
/// The wire image is a header — the payload length, three times over
/// and bit-majority voted, nothing else — followed by symbols of
/// `1 + block_len + SYMBOL_CRC_LEN` bytes each: a symbol index, the XOR
/// of the index's scheduled source blocks, and a truncated CRC over
/// both. The source blocks are the payload followed by its outer
/// CRC-32, zero-padded, so that check rides *inside* the symbols.
/// Symbols `0..k` are the source blocks themselves (degree 1), symbol
/// `k` is the XOR of *all* blocks (so any single erasure is always
/// recoverable), and symbols above `k` draw their degree from a seeded
/// robust-soliton distribution. The decoder accepts **any** number of
/// symbols — extra repair symbols appended under a larger
/// [`SymbolBudget`] need no epoch change — treats CRC-failing symbols
/// as erasures, solves the surviving equations exactly, and verifies
/// the reassembled payload against the outer CRC-32.
#[derive(Clone, Copy, Debug)]
pub struct LtCode {
    repair: u8,
}

impl LtCode {
    /// A fountain code appending `repair` baseline repair symbols per
    /// frame (the [`SymbolBudget`] pathway can raise this per send).
    pub fn new(repair: u8) -> Self {
        LtCode {
            repair: repair.min(MAX_REPAIR),
        }
    }

    /// The baseline repair-symbol allowance.
    pub fn repair(&self) -> u8 {
        self.repair
    }

    /// Source-block size for a `payload_len`-byte payload (the blocked
    /// image includes the outer CRC-32 trailer): 4 bytes unless the
    /// payload would overflow the one-byte symbol index space, in
    /// which case blocks grow proportionally.
    pub fn block_len(payload_len: usize) -> usize {
        BLOCK_LEN.max((payload_len + OUTER_CRC_LEN).div_ceil(MAX_SOURCE_SYMBOLS))
    }

    /// Number of source blocks (`k`) for a `payload_len`-byte payload
    /// (covering the payload plus its outer CRC-32 trailer).
    pub fn source_symbols(payload_len: usize) -> usize {
        (payload_len + OUTER_CRC_LEN).div_ceil(Self::block_len(payload_len))
    }

    /// The source-block indices symbol `idx` XORs for a `k`-block
    /// payload — the deterministic symbol schedule. Symbols `0..k` are
    /// systematic, symbol `k` covers every block, and higher indices
    /// sample the seeded robust-soliton distribution. A pure function
    /// of `(k, idx)`, identical for every sender, receiver and
    /// substrate.
    fn neighbors(k: usize, idx: u8) -> Vec<usize> {
        let i = idx as usize;
        if i < k {
            return vec![i];
        }
        if i == k || k <= 1 {
            return (0..k).collect();
        }
        let mut rng = StdRng::seed_from_u64(
            SCHEDULE_SEED
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((k as u64) << 16 | i as u64),
        );
        let degree = robust_soliton_degree(k, &mut rng);
        // Partial Fisher–Yates: `degree` distinct blocks.
        let mut pool: Vec<usize> = (0..k).collect();
        let mut chosen = Vec::with_capacity(degree);
        for _ in 0..degree {
            let j = rng.gen_range(0..pool.len());
            chosen.push(pool.swap_remove(j));
        }
        chosen.sort_unstable();
        chosen
    }

    /// Total symbols a frame carries under `budget` for a
    /// `payload_len`-byte payload, capped by the symbol index space.
    fn symbol_count(payload_len: usize, budget: SymbolBudget) -> usize {
        let k = Self::source_symbols(payload_len);
        let folded = k
            .saturating_mul(budget.copies.max(1) as usize - 1)
            .saturating_add(budget.repair as usize);
        (k + folded).min(MAX_SYMBOLS)
    }

    /// The schedule as a table: bit `b` of entry `idx` is set when
    /// symbol `idx` XORs source block `b` (`k ≤ MAX_SOURCE_SYMBOLS = 64`
    /// by construction). Built once per `k`, process-wide, from
    /// [`LtCode::neighbors`] — which stays the definition — so a frame
    /// never seeds an RNG or rebuilds the soliton weights.
    fn schedule(k: usize) -> &'static [u64; MAX_SYMBOLS] {
        static TABLES: [OnceLock<Box<[u64; MAX_SYMBOLS]>>; MAX_SOURCE_SYMBOLS + 1] =
            [const { OnceLock::new() }; MAX_SOURCE_SYMBOLS + 1];
        TABLES[k].get_or_init(|| {
            let mut table = Box::new([0u64; MAX_SYMBOLS]);
            for (idx, mask) in table.iter_mut().enumerate() {
                *mask = Self::neighbors(k, idx as u8)
                    .iter()
                    .fold(0, |mask, b| mask | 1 << b);
            }
            table
        })
    }

    /// Bit-majority vote over the header's replicated length words.
    /// Returns `(voted_len, repaired)` where `repaired` reports any
    /// disagreement between the copies — observable noise evidence.
    fn vote_len(header: &[u8]) -> (u32, bool) {
        let mut voted = [0u8; 4];
        let mut repaired = false;
        for (i, v) in voted.iter_mut().enumerate() {
            for bit in 0..8 {
                let ones = (0..LEN_COPIES)
                    .filter(|c| header[c * 4 + i] & (1 << bit) != 0)
                    .count();
                if ones * 2 > LEN_COPIES {
                    *v |= 1 << bit;
                }
                repaired |= ones != 0 && ones != LEN_COPIES;
            }
        }
        (u32::from_le_bytes(voted), repaired)
    }
}

/// The truncated per-symbol checksum over a symbol's `index ‖ data`
/// prefix, which is contiguous on the wire.
fn symbol_crc(indexed: &[u8]) -> u8 {
    crc32(indexed) as u8
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// `dst ^= src` over their common prefix, eight bytes per step.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    let len = dst.len().min(src.len());
    let (dst_words, dst_tail) = dst[..len].as_chunks_mut::<8>();
    let (src_words, src_tail) = src[..len].as_chunks::<8>();
    for (d, s) in dst_words.iter_mut().zip(src_words) {
        *d = (u64::from_ne_bytes(*d) ^ u64::from_ne_bytes(*s)).to_ne_bytes();
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= s;
    }
}

/// One surviving symbol as a GF(2) equation over the source blocks.
/// Elimination runs on `mask` alone; the row's content is its own
/// `data` XOR the *original* data of the pivot rows of the columns in
/// `combo`, and only the `k` pivot rows are ever materialised.
struct Row<'a> {
    mask: u64,
    combo: u64,
    data: &'a [u8],
}

/// Samples Luby's robust-soliton degree distribution for `k` source
/// blocks (parameters [`SOLITON_C`], [`SOLITON_DELTA`]).
fn robust_soliton_degree(k: usize, rng: &mut StdRng) -> usize {
    debug_assert!(k >= 2);
    let kf = k as f64;
    let r = (SOLITON_C * (kf / SOLITON_DELTA).ln() * kf.sqrt()).max(1.0);
    let spike = ((kf / r).round() as usize).clamp(1, k);
    let mut weights = Vec::with_capacity(k);
    for d in 1..=k {
        let rho = if d == 1 {
            1.0 / kf
        } else {
            1.0 / (d as f64 * (d as f64 - 1.0))
        };
        let tau = if d < spike {
            r / (d as f64 * kf)
        } else if d == spike {
            r * (r / SOLITON_DELTA).ln() / kf
        } else {
            0.0
        };
        weights.push(rho + tau);
    }
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (d, w) in weights.iter().enumerate() {
        if u < *w {
            return d + 1;
        }
        u -= w;
    }
    k
}

impl ChannelCode for LtCode {
    fn name(&self) -> String {
        format!("fountain{}", self.repair)
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        let per_symbol = 1 + Self::block_len(payload_len) + SYMBOL_CRC_LEN;
        HEADER_LEN
            + Self::symbol_count(payload_len, SymbolBudget::baseline(self.repair)) * per_symbol
    }

    fn encode_into(&self, payload: &[u8], budget: Option<SymbolBudget>, out: &mut BytesMut) {
        let budget = budget.unwrap_or(SymbolBudget::baseline(self.repair));
        let k = Self::source_symbols(payload.len());
        let block_len = Self::block_len(payload.len());
        let per_symbol = 1 + block_len + SYMBOL_CRC_LEN;
        // At least `k`, and possibly the full 256-symbol index space
        // (the `symbol_count` cap): indices are narrowed one at a time
        // — `0..count as u8` would wrap 256 to an empty range.
        let count = Self::symbol_count(payload.len(), budget);
        let schedule = Self::schedule(k);

        out.reserve(HEADER_LEN + count * per_symbol);
        for _ in 0..LEN_COPIES {
            out.put_u32_le(payload.len() as u32);
        }
        let start = out.len();
        out.put_bytes(0, count * per_symbol);
        let symbols = &mut out[start..];

        // The source blocks — payload ‖ outer CRC-32, zero-padded by
        // the fill above — go straight into the systematic symbols.
        for (b, block) in payload.chunks(block_len).enumerate() {
            symbols[b * per_symbol + 1..][..block.len()].copy_from_slice(block);
        }
        for (at, byte) in (payload.len()..).zip(crc32(payload).to_le_bytes()) {
            symbols[at / block_len * per_symbol + 1 + at % block_len] = byte;
        }
        for (idx, &mask) in schedule.iter().enumerate().take(count) {
            let (sources, rest) = symbols.split_at_mut(idx * per_symbol);
            let (indexed, check) = rest[..per_symbol].split_at_mut(1 + block_len);
            indexed[0] = idx as u8;
            if idx >= k {
                for b in bits(mask) {
                    xor_into(
                        &mut indexed[1..],
                        &sources[b * per_symbol + 1..][..block_len],
                    );
                }
            }
            check[0] = symbol_crc(indexed);
        }
    }

    /// Erasures (symbols killed by their CRC) and a voted-out length
    /// header are counted as repair events whether or not enough symbol
    /// diversity survives to solve the system — a frame the decoder
    /// loses *while visibly patching erasures* is reported exactly like
    /// one it saves, matching the SECDED scan's evidence semantics.
    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        if wire.len() < HEADER_LEN {
            return DecodeScan::rejected(CodeError::Malformed, 0);
        }
        let (len_word, len_repaired) = Self::vote_len(&wire[..HEADER_LEN]);
        let payload_len = len_word as usize;
        let k = Self::source_symbols(payload_len);
        let block_len = Self::block_len(payload_len);
        let per_symbol = 1 + block_len + SYMBOL_CRC_LEN;
        let body = &wire[HEADER_LEN..];
        // A mis-voted length (all length copies hit at the same bit) is
        // caught structurally here or by the symbol CRCs / outer CRC
        // below — never silently believed.
        if !body.len().is_multiple_of(per_symbol) {
            return DecodeScan::rejected(CodeError::Malformed, usize::from(len_repaired));
        }

        // Gather the surviving symbols in wire order; CRC failures
        // become erasures. Nothing here or below is sized by the
        // unauthenticated length word, only by symbols the wire holds.
        let schedule = Self::schedule(k);
        let mut erased = 0usize;
        let mut rows: Vec<Row<'a>> = Vec::with_capacity(body.len() / per_symbol);
        for symbol in body.chunks_exact(per_symbol) {
            let (indexed, check) = symbol.split_at(1 + block_len);
            if check[0] != symbol_crc(indexed) {
                erased += 1;
                continue;
            }
            rows.push(Row {
                mask: schedule[indexed[0] as usize],
                combo: 0,
                data: &indexed[1..],
            });
        }
        let repairs = erased + usize::from(len_repaired);

        // Inactivation-style exact decoding: Gauss–Jordan elimination
        // over the survivors, so the decoder recovers from *every*
        // erasure pattern the surviving symbols span. The pivot for a
        // column is the first row in wire order that carries it and is
        // not a pivot already — a forged symbol that passed its CRC
        // makes the system inconsistent, and which solution comes out
        // then depends on this order. Once columns `0..col` are
        // resolved, a pivot row keeps exactly its own column among
        // them and every other row none, so "carries `col`, not yet a
        // pivot" is one mask compare. Unit rows `0..k` up front (no
        // systematic symbol erased) are by that rule their own pivots,
        // and nothing ever reduces them.
        let mut pivots: [usize; MAX_SOURCE_SYMBOLS] = std::array::from_fn(|col| col);
        let systematic = rows.len() >= k && (0..k).all(|col| rows[col].mask == 1 << col);
        if !systematic {
            for (col, pivot) in pivots.iter_mut().enumerate().take(k) {
                let bit = 1u64 << col;
                let Some(p) = rows.iter().position(|r| r.mask & (bit | (bit - 1)) == bit) else {
                    // Not enough symbol diversity survived: an erasure-
                    // decoding failure is a *detected* loss, i.e. an
                    // omission — but the erasures it patched on the way
                    // are still channel evidence.
                    return DecodeScan::rejected(CodeError::Detected, repairs);
                };
                *pivot = p;
                let (pivot_mask, pivot_combo) = (rows[p].mask, rows[p].combo | bit);
                for (i, row) in rows.iter_mut().enumerate() {
                    if i != p && row.mask & bit != 0 {
                        row.mask ^= pivot_mask;
                        row.combo ^= pivot_combo;
                    }
                }
            }
        }

        // `k` distinct rows resolved `k` columns, so the wire backs
        // `k · block_len` bytes — which covers the payload and its
        // trailer by the definition of `source_symbols`.
        let mut image = Vec::with_capacity(k * block_len);
        for &pivot in &pivots[..k] {
            let at = image.len();
            image.extend_from_slice(rows[pivot].data);
            for col in bits(rows[pivot].combo) {
                xor_into(&mut image[at..], rows[pivots[col]].data);
            }
        }
        image.truncate(payload_len + OUTER_CRC_LEN);
        let (payload, trailer) = image.split_at(payload_len);
        if trailer != crc32(payload).to_le_bytes() {
            // A symbol CRC collision fed a forged equation into the solver;
            // the outer checksum catches it — still an omission.
            return DecodeScan::rejected(CodeError::Detected, repairs);
        }
        image.truncate(payload_len);
        DecodeScan::delivered(image, erased > 0 || len_repaired, repairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The codec as it stood before the schedule table, the in-place
    /// encode and the flat-row decode, verbatim but for the receiver:
    /// the differential oracle for every wire byte and every verdict.
    mod parent {
        use super::*;

        fn blocks(payload: &[u8]) -> Vec<Vec<u8>> {
            let block_len = LtCode::block_len(payload.len());
            let mut image = Vec::with_capacity(payload.len() + OUTER_CRC_LEN);
            image.extend_from_slice(payload);
            image.extend_from_slice(&crc32(payload).to_le_bytes());
            image
                .chunks(block_len)
                .map(|c| {
                    let mut b = c.to_vec();
                    b.resize(block_len, 0);
                    b
                })
                .collect()
        }

        pub fn symbol_crc(idx: u8, data: &[u8]) -> [u8; SYMBOL_CRC_LEN] {
            let mut buf = Vec::with_capacity(1 + data.len());
            buf.push(idx);
            buf.extend_from_slice(data);
            [(crc32(&buf) & 0xFF) as u8]
        }

        pub fn encode_into(
            code: &LtCode,
            payload: &[u8],
            budget: Option<SymbolBudget>,
            out: &mut BytesMut,
        ) {
            let budget = budget.unwrap_or(SymbolBudget::baseline(code.repair));
            let blocks = blocks(payload);
            let k = blocks.len();
            let block_len = LtCode::block_len(payload.len());
            let count = LtCode::symbol_count(payload.len(), budget);

            out.reserve(HEADER_LEN + count * (1 + block_len + SYMBOL_CRC_LEN));
            for _ in 0..LEN_COPIES {
                out.put_u32_le(payload.len() as u32);
            }

            let mut data = vec![0u8; block_len];
            for idx in 0..count {
                let idx = idx as u8;
                data.fill(0);
                for &b in &LtCode::neighbors(k, idx) {
                    for (d, s) in data.iter_mut().zip(&blocks[b]) {
                        *d ^= s;
                    }
                }
                out.put_u8(idx);
                out.put_slice(&data);
                out.put_slice(&symbol_crc(idx, &data));
            }
        }

        pub fn decode_scan(wire: &[u8]) -> DecodeScan<'_> {
            if wire.len() < HEADER_LEN {
                return DecodeScan::rejected(CodeError::Malformed, 0);
            }
            let (len_word, len_repaired) = LtCode::vote_len(&wire[..HEADER_LEN]);
            let payload_len = len_word as usize;
            let k = LtCode::source_symbols(payload_len);
            let block_len = LtCode::block_len(payload_len);
            let per_symbol = 1 + block_len + SYMBOL_CRC_LEN;
            let body = &wire[HEADER_LEN..];
            if !body.len().is_multiple_of(per_symbol) {
                return DecodeScan::rejected(CodeError::Malformed, usize::from(len_repaired));
            }

            let mut erased = 0usize;
            let mut rows: Vec<(u64, Vec<u8>)> = Vec::new();
            for sym in body.chunks(per_symbol) {
                let idx = sym[0];
                let data = &sym[1..1 + block_len];
                if sym[1 + block_len..] != symbol_crc(idx, data) {
                    erased += 1;
                    continue;
                }
                let mut mask = 0u64;
                for b in LtCode::neighbors(k, idx) {
                    mask |= 1 << b;
                }
                rows.push((mask, data.to_vec()));
            }

            let mut pivots: Vec<Option<usize>> = vec![None; k];
            for col in 0..k {
                let bit = 1u64 << col;
                let Some(pivot) =
                    (0..rows.len()).find(|&i| rows[i].0 & bit != 0 && !pivots.contains(&Some(i)))
                else {
                    continue;
                };
                let (pivot_mask, pivot_data) = rows[pivot].clone();
                for (i, (mask, data)) in rows.iter_mut().enumerate() {
                    if i != pivot && *mask & bit != 0 {
                        *mask ^= pivot_mask;
                        for (d, s) in data.iter_mut().zip(&pivot_data) {
                            *d ^= s;
                        }
                    }
                }
                pivots[col] = Some(pivot);
            }
            let repairs = erased + usize::from(len_repaired);
            if pivots.iter().any(Option::is_none) {
                return DecodeScan::rejected(CodeError::Detected, repairs);
            }

            let mut image = Vec::with_capacity(k * block_len);
            for (col, pivot) in pivots.iter().enumerate() {
                let (mask, data) = &rows[pivot.expect("all columns resolved")];
                debug_assert_eq!(*mask, 1 << col, "Gauss–Jordan leaves unit rows");
                image.extend_from_slice(data);
            }
            if image.len() < payload_len + OUTER_CRC_LEN {
                return DecodeScan::rejected(CodeError::Detected, repairs);
            }
            image.truncate(payload_len + OUTER_CRC_LEN);
            let crc_trailer = image.split_off(payload_len);
            if crc_trailer[..] != crc32(&image).to_le_bytes() {
                return DecodeScan::rejected(CodeError::Detected, repairs);
            }
            DecodeScan::delivered(image, erased > 0 || len_repaired, repairs)
        }
    }

    /// One hostile edit of a clean wire, chosen and driven by `rng`:
    /// bit flips, whole-symbol erasures, truncation, arbitrary bytes,
    /// a shuffled symbol order, a length copy hit, and *crafted*
    /// symbols — rewritten index, chosen content, recomputed valid CRC
    /// — rewritten in place or appended past the 256-symbol space.
    fn hostile(clean: &[u8], per_symbol: usize, rng: &mut StdRng) -> Vec<u8> {
        let mut wire = clean.to_vec();
        let symbols = (wire.len() - HEADER_LEN) / per_symbol;
        let craft = |symbol: &mut [u8], rng: &mut StdRng| {
            symbol[0] = rng.next_u64() as u8;
            if rng.gen_bool(0.5) {
                symbol[1..per_symbol - 1].fill_with(|| rng.next_u64() as u8);
            }
            symbol[per_symbol - 1] = parent::symbol_crc(symbol[0], &symbol[1..per_symbol - 1])[0];
        };
        for _ in 0..rng.gen_range(1..=3usize) {
            match rng.gen_range(0..8usize) {
                0 => {
                    for _ in 0..rng.gen_range(1..=8usize) {
                        let at = rng.gen_range(0..=wire.len() * 8);
                        if let Some(byte) = wire.get_mut(at / 8) {
                            *byte ^= 1 << (at % 8);
                        }
                    }
                }
                1 => {
                    for _ in 0..rng.gen_range(1..=12usize) {
                        let at = HEADER_LEN + rng.gen_range(0..symbols) * per_symbol;
                        if let Some(symbol) = wire.get_mut(at..at + per_symbol) {
                            symbol.iter_mut().for_each(|b| *b = !*b);
                        }
                    }
                }
                2 => wire.truncate(rng.gen_range(0..=wire.len())),
                3 => {
                    wire = (0..rng.gen_range(0..400usize))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                }
                4 => {
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let at = HEADER_LEN + rng.gen_range(0..symbols) * per_symbol;
                        if let Some(symbol) = wire.get_mut(at..at + per_symbol) {
                            craft(symbol, rng);
                        }
                    }
                }
                5 => {
                    for _ in 0..rng.gen_range(1..=300usize) {
                        let mut symbol = vec![0u8; per_symbol];
                        craft(&mut symbol, rng);
                        wire.extend_from_slice(&symbol);
                    }
                }
                6 => {
                    if let Some(body) = wire.get_mut(HEADER_LEN..) {
                        for i in (1..body.len() / per_symbol).rev() {
                            let j = rng.gen_range(0..=i);
                            for b in 0..per_symbol {
                                body.swap(i * per_symbol + b, j * per_symbol + b);
                            }
                        }
                    }
                }
                _ => {
                    if let Some(byte) = wire.get_mut(rng.gen_range(0..HEADER_LEN)) {
                        *byte ^= 1 << rng.gen_range(0..8u32);
                    }
                }
            }
        }
        wire
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        #[test]
        fn codec_equals_the_parent_codec_on_every_wire(
            len in prop_oneof![0usize..40, 0usize..300, 0usize..3000],
            repair in any::<u8>(),
            copies in 0u8..5,
            baseline in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let code = LtCode::new(repair);
            let budget = (!baseline).then_some(SymbolBudget { repair, copies });
            let (mut want, mut got) = (BytesMut::new(), BytesMut::new());
            parent::encode_into(&code, &payload, budget, &mut want);
            code.encode_into(&payload, budget, &mut got);
            prop_assert_eq!(&got[..], &want[..], "wire bytes, len {}", len);

            let per_symbol = 1 + LtCode::block_len(len) + SYMBOL_CRC_LEN;
            prop_assert_eq!(code.decode_scan(&got), parent::decode_scan(&got));
            for case in 0..12 {
                let wire = hostile(&got, per_symbol, &mut rng);
                prop_assert_eq!(
                    code.decode_scan(&wire),
                    parent::decode_scan(&wire),
                    "len {} seed {:#x} case {}", len, seed, case
                );
            }
        }
    }

    /// The wire image of `payload` spending `budget`.
    fn budgeted(code: &LtCode, payload: &[u8], budget: SymbolBudget) -> Vec<u8> {
        let mut wire = BytesMut::new();
        code.encode_into(payload, Some(budget), &mut wire);
        wire.into()
    }

    #[test]
    fn batch_budget_pools_sublinearly() {
        let b = SymbolBudget::baseline(6);
        assert_eq!(b.for_batch(0), b, "empty batch is identity");
        assert_eq!(b.for_batch(1), b, "single slot is just a frame");
        // k=4: ceil(6·5/2) = 15 — under the 4·6 = 24 a per-instance
        // spend would cost.
        assert_eq!(b.for_batch(4).repair, 15);
        assert!(b.for_batch(4).repair < 4 * b.repair);
        // The symbol-space cap binds eventually.
        assert_eq!(b.for_batch(100).repair, MAX_REPAIR);
        // Copies are untouched: folding and pooling are orthogonal.
        assert_eq!(b.fold_copies(3).for_batch(4).copies, 3);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let code = LtCode::new(4);
        for len in [0usize, 1, 3, 4, 5, 24, 25, 29, 64, 255, 300] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let wire = code.encode(&payload);
            assert_eq!(wire.len(), code.encoded_len(len), "len {len}");
            let (got, repaired) = code.decode_scan(&wire).outcome.unwrap();
            assert_eq!(*got, *payload, "len {len}");
            assert!(!repaired, "clean frames need no repair");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_systematic() {
        let k = 9;
        for idx in 0..k as u8 {
            assert_eq!(LtCode::neighbors(k, idx), vec![idx as usize]);
        }
        assert_eq!(
            LtCode::neighbors(k, k as u8),
            (0..k).collect::<Vec<_>>(),
            "symbol k covers every block"
        );
        for idx in (k as u8 + 1)..40 {
            let a = LtCode::neighbors(k, idx);
            assert_eq!(a, LtCode::neighbors(k, idx), "pure function of (k, idx)");
            assert!(!a.is_empty() && a.len() <= k);
            let mut sorted = a.clone();
            sorted.dedup();
            assert_eq!(sorted, a, "distinct, sorted neighbors");
        }
    }

    #[test]
    fn any_single_erased_symbol_is_recovered() {
        let code = LtCode::new(3);
        let payload: Vec<u8> = (0..29u8).collect();
        let clean = code.encode(&payload);
        let per_symbol = 1 + BLOCK_LEN + SYMBOL_CRC_LEN;
        let symbols = (clean.len() - HEADER_LEN) / per_symbol;
        for victim in 0..symbols {
            let mut wire = clean.clone();
            let start = HEADER_LEN + victim * per_symbol;
            for b in &mut wire[start..start + per_symbol] {
                *b = !*b; // obliterate the whole symbol
            }
            let (got, repaired) = code
                .decode_scan(&wire)
                .outcome
                .unwrap_or_else(|e| panic!("victim {victim}: {e}"));
            assert_eq!(*got, *payload, "victim {victim}");
            assert!(repaired, "an erasure repaired is observable");
        }
    }

    #[test]
    fn erasures_beyond_the_budget_are_detected_omissions() {
        // Kill the systematic prefix *and* every repair symbol: not
        // enough diversity can survive, and the failure must surface as
        // a detected loss, never a wrong payload.
        let code = LtCode::new(2);
        let payload = vec![0x5Au8; 24];
        let mut wire = code.encode(&payload);
        let per_symbol = 1 + BLOCK_LEN + SYMBOL_CRC_LEN;
        let symbols = (wire.len() - HEADER_LEN) / per_symbol;
        for victim in 0..symbols - 1 {
            let start = HEADER_LEN + victim * per_symbol;
            for b in &mut wire[start..start + per_symbol] {
                *b ^= 0xA5;
            }
        }
        assert_eq!(code.decode(&wire), Err(CodeError::Detected));
        assert_eq!(
            code.classify(&payload, &wire),
            FrameOutcome::DetectedOmission
        );
    }

    #[test]
    fn length_header_survives_one_corrupted_copy() {
        // The length word is the frame's one unprotected parse
        // dependency, so it is tripled: a burst confined to one copy is
        // outvoted and merely *observed* as repair evidence.
        let code = LtCode::new(2);
        let payload = vec![7u8; 16];
        let mut wire = code.encode(&payload);
        wire[1] ^= 0x40; // length copy 0
        let (got, repaired) = code.decode_scan(&wire).outcome.unwrap();
        assert_eq!(*got, *payload);
        assert!(repaired, "a voted-out header copy is noise evidence");
    }

    #[test]
    fn outvoted_length_never_yields_a_value_fault() {
        // Defeat the vote outright: the same bit in two of three
        // copies. The mis-voted length must die structurally or on a
        // downstream check — any error, never a wrong payload.
        let code = LtCode::new(2);
        let payload = vec![7u8; 16];
        let mut wire = code.encode(&payload);
        wire[1] ^= 0x40;
        wire[5] ^= 0x40; // same bit, second copy: majority is now wrong
        assert!(code.decode(&wire).is_err());
    }

    #[test]
    fn truncated_wire_is_malformed() {
        let code = LtCode::new(2);
        let wire = code.encode(&[1, 2, 3, 4, 5]);
        assert_eq!(code.decode(&wire[..5]), Err(CodeError::Malformed));
        assert_eq!(
            code.decode(&wire[..wire.len() - 3]),
            Err(CodeError::Malformed)
        );
    }

    #[test]
    fn budget_adds_symbols_without_changing_the_format() {
        let code = LtCode::new(2);
        let payload = vec![0xC3u8; 25];
        let k = LtCode::source_symbols(25);
        let small = code.encode(&payload);
        let big = budgeted(&code, &payload, SymbolBudget::baseline(9));
        let per_symbol = 1 + BLOCK_LEN + SYMBOL_CRC_LEN;
        assert_eq!(big.len() - small.len(), 7 * per_symbol);
        // The budget-inflated frame is an extension: same header, same
        // leading symbols — and both decode with the same (budget-free)
        // decoder.
        assert_eq!(&big[..small.len()], &small[..]);
        assert_eq!(code.decode(&big).unwrap(), payload);

        // The copies shim: one folded copy ≡ k extra repair symbols.
        let folded = budgeted(&code, &payload, SymbolBudget::baseline(2).fold_copies(2));
        assert_eq!(folded.len() - small.len(), k * per_symbol);
        assert_eq!(code.decode(&folded).unwrap(), payload);
    }

    #[test]
    fn budget_renegotiation_is_aimd() {
        let base = 4;
        let calm = crate::RoundTally {
            expected: 8,
            delivered: 8,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        let lossy = crate::RoundTally {
            expected: 8,
            delivered: 4,
            corrected: 0,
            value_faults: 0,
            evidence: 0,
        };
        let absorbing = crate::RoundTally {
            expected: 8,
            delivered: 8,
            corrected: 3,
            value_faults: 0,
            evidence: 0,
        };
        let mut b = SymbolBudget::baseline(base);
        b = b.renegotiate(lossy, base);
        assert!(b.repair > base, "loss grows the budget, got {}", b.repair);
        let grown = b.repair;
        b = b.renegotiate(absorbing, base);
        assert_eq!(b.repair, grown, "a budget still earning its keep holds");
        for _ in 0..20 {
            b = b.renegotiate(calm, base);
        }
        assert_eq!(b.repair, base, "calm decays back to the baseline");
        for _ in 0..200 {
            b = b.renegotiate(lossy, base);
        }
        assert_eq!(b.repair, MAX_REPAIR, "growth saturates at the cap");
    }

    #[test]
    fn multi_erasure_recovery_rate_is_high() {
        // Statistical but fully seeded: erase 4 random symbols of the
        // 16 a repair-9 frame carries; the exact solver must recover
        // nearly always (the repair margin is 9 > 4, failures are rank
        // accidents).
        let code = LtCode::new(9);
        let payload: Vec<u8> = (0..25u8).collect();
        let clean = code.encode(&payload);
        let per_symbol = 1 + BLOCK_LEN + SYMBOL_CRC_LEN;
        let symbols = (clean.len() - HEADER_LEN) / per_symbol;
        let mut rng = StdRng::seed_from_u64(0xF0_07);
        let (mut ok, trials) = (0usize, 500usize);
        for _ in 0..trials {
            let mut wire = clean.clone();
            let mut victims: Vec<usize> = (0..symbols).collect();
            for _ in 0..4 {
                let v = victims.swap_remove(rng.gen_range(0..victims.len()));
                let start = HEADER_LEN + v * per_symbol;
                for b in &mut wire[start..start + per_symbol] {
                    *b ^= (rng.next_u64() as u8) | 1;
                }
            }
            match code.decode(&wire) {
                Ok(got) => {
                    assert_eq!(got, payload);
                    ok += 1;
                }
                Err(CodeError::Detected) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(ok * 100 >= trials * 90, "recovered {ok}/{trials}");
    }

    #[test]
    fn encoding_at_the_symbol_count_cap_still_decodes() {
        // A budget that overshoots the one-byte index space (large k ×
        // folded copies) must clamp to the full 256-symbol range — not
        // wrap to an empty one — and the frame must stay decodable.
        let code = LtCode::new(8);
        let payload = vec![0xEEu8; 252]; // k = 64
        let wire = budgeted(&code, &payload, SymbolBudget::baseline(8).fold_copies(4));
        let per_symbol = 1 + LtCode::block_len(payload.len()) + SYMBOL_CRC_LEN;
        assert_eq!(
            (wire.len() - HEADER_LEN) / per_symbol,
            MAX_SYMBOLS,
            "the cap emits the full index space"
        );
        assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn large_payloads_grow_blocks_not_indices() {
        let code = LtCode::new(8);
        let payload = vec![0xEEu8; 10_000];
        assert!(LtCode::source_symbols(payload.len()) <= MAX_SOURCE_SYMBOLS);
        let wire = code.encode(&payload);
        assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn name_reports_the_baseline() {
        assert_eq!(LtCode::new(7).name(), "fountain7");
    }
}
