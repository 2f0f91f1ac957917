//! The `NetConfig::copies` compat shim, pinned against the symbol
//! budget it folds into.
//!
//! Since the fountain rung landed, `copies` under a rateless code is a
//! *compatibility shim*: the engine sends ONE frame per peer carrying
//! `(copies − 1) · k` extra repair symbols (via
//! [`SymbolBudget::fold_copies`]) instead of `copies` duplicate frames.
//! These tests assert the fold equivalence byte for byte, so the shim
//! cannot silently drift from the budget pathway it delegates to.

use bytes::BytesMut;
use heardof_coding::{ChannelCode, CodeSpec, LtCode, SymbolBudget};
use heardof_core::{Ate, AteParams};
use heardof_engine::{Framing, RoundEngine};
use heardof_model::ProcessId;

fn engine(copies: u8) -> RoundEngine<Ate<u64>> {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(3, 0).unwrap());
    RoundEngine::new(
        algo,
        ProcessId::new(0),
        3,
        7,
        Framing::fixed(CodeSpec::Fountain { repair: 2 }),
        copies,
        10,
    )
}

/// Every `(copy, wire)` the engine emits when it opens round 1.
fn first_round(copies: u8) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    engine(copies).begin_round_with(|_dest, copy, wire| out.push((copy, wire.to_vec())));
    out
}

/// `code`'s wire image of `payload` spending `budget`.
fn budgeted(code: &LtCode, payload: &[u8], budget: SymbolBudget) -> Vec<u8> {
    let mut wire = BytesMut::new();
    code.encode_into(payload, Some(budget), &mut wire);
    wire.into()
}

#[test]
fn folded_copies_match_the_budget_pathway_byte_for_byte() {
    // The wire image the engine emits under any `copies` value must
    // equal the explicit budget encoding with the same fold applied by
    // hand — the shim and the budget pathway are one code path, not
    // two. Identical engines produce identical frame bodies, so the
    // baseline (copies = 1) frame decodes to the body the folded run
    // encodes.
    let code = LtCode::new(2);
    let baseline = first_round(1);
    let body = code.decode(&baseline[0].1).expect("baseline frame decodes");
    for copies in [1u8, 2, 3, 5] {
        let out = first_round(copies);
        assert_eq!(out.len(), 2, "one budgeted frame per peer, no duplicates");
        assert!(out.iter().all(|(copy, _)| *copy == 0));
        let direct = budgeted(&code, &body, SymbolBudget::baseline(2).fold_copies(copies));
        assert_eq!(
            out[0].1, direct,
            "copies = {copies}: the engine's shim must equal \
             SymbolBudget::fold_copies applied by hand"
        );
    }
}

#[test]
fn fold_copies_adds_k_symbols_per_copy() {
    // The documented fold contract at the coding layer: each copy
    // beyond the first buys exactly k extra repair symbols on one
    // frame.
    let code = LtCode::new(2);
    let payload = vec![0xABu8; 25];
    let k = LtCode::source_symbols(payload.len());
    let single = budgeted(&code, &payload, SymbolBudget::baseline(2));
    for copies in 2u8..=4 {
        let folded = budgeted(
            &code,
            &payload,
            SymbolBudget::baseline(2).fold_copies(copies),
        );
        let per_symbol = (folded.len() - single.len()) / (copies as usize - 1) / k;
        assert!(per_symbol > 0, "each folded copy must buy symbols");
        assert_eq!(
            folded.len() - single.len(),
            (copies as usize - 1) * k * per_symbol,
            "copies = {copies}: fold is linear in (copies − 1) · k"
        );
        assert_eq!(code.decode(&folded).unwrap(), payload);
    }
}
