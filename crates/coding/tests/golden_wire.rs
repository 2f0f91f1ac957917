//! Golden wire vectors: the exact bytes every code puts on the wire,
//! pinned as literals. They were generated at the commit *before* the
//! codec surface was folded to one encode and one decode per layer, and
//! must never change without a deliberate wire-format revision — every
//! pinned conformance seed and every deployed peer depends on them.

use bytes::BytesMut;
use heardof_coding::{crc32, ChannelCode, CodeBook, CodeSpec, RungAdvert, SymbolBudget};

/// A non-baseline budget: fixed-rate codes must ignore it, the fountain
/// rung must spend it (9 repair symbols plus one folded copy).
const BUDGET: SymbolBudget = SymbolBudget {
    repair: 9,
    copies: 2,
};
const ADVERT: RungAdvert = RungAdvert { rung: 3, epoch: 11 };

/// One spec's wire images of [`SHORT`], as lowercase hex. The book used
/// for the tagged forms holds every golden spec in table order, so a
/// spec's id is its index.
struct Golden {
    spec: CodeSpec,
    plain: &'static str,
    budgeted: &'static str,
    tagged: &'static str,
    tagged_advert: &'static str,
    tagged_advert_budgeted: &'static str,
    /// CRC-32 of the same five images of [`long_body`] — long enough to
    /// cross the 64-block bitsliced SECDED chunks and their scalar tail.
    long: [u32; 5],
}

const SHORT: &[u8] = b"heard\x00\xff\x5a\xa5";

fn long_body() -> Vec<u8> {
    (0..77u32)
        .map(|i| (i.wrapping_mul(151) >> 2) as u8 ^ 0x5A)
        .collect()
}

#[rustfmt::skip]
const GOLDEN: [Golden; 10] = [
    Golden {
        spec: CodeSpec::None,
        plain: "686561726400ff5aa5",
        budgeted: "686561726400ff5aa5",
        tagged: "00686561726400ff5aa5",
        tagged_advert: "80db686561726400ff5aa5",
        tagged_advert_budgeted: "80db686561726400ff5aa5",
        long: [0xe17bb743, 0xe17bb743, 0xfac11b65, 0x810a1576, 0x810a1576],
    },
    Golden {
        spec: CodeSpec::Checksum { width: 1 },
        plain: "686561726400ff5aa58f",
        budgeted: "686561726400ff5aa58f",
        tagged: "01686561726400ff5aa58f",
        tagged_advert: "81db686561726400ff5aa58f",
        tagged_advert_budgeted: "81db686561726400ff5aa58f",
        long: [0xd2e3943a, 0xd2e3943a, 0x4b0cdc3a, 0x9817b9ae, 0x9817b9ae],
    },
    Golden {
        spec: CodeSpec::Checksum { width: 2 },
        plain: "686561726400ff5aa58f75",
        budgeted: "686561726400ff5aa58f75",
        tagged: "02686561726400ff5aa58f75",
        tagged_advert: "82db686561726400ff5aa58f75",
        tagged_advert_budgeted: "82db686561726400ff5aa58f75",
        long: [0x41d9f384, 0x41d9f384, 0x6528b4f3, 0x00b31561, 0x00b31561],
    },
    Golden {
        spec: CodeSpec::Checksum { width: 4 },
        plain: "686561726400ff5aa58f7550c6",
        budgeted: "686561726400ff5aa58f7550c6",
        tagged: "03686561726400ff5aa58f7550c6",
        tagged_advert: "83db686561726400ff5aa58f7550c6",
        tagged_advert_budgeted: "83db686561726400ff5aa58f7550c6",
        long: [0x2144df1c, 0x2144df1c, 0x60e321aa, 0x4d5b0a6c, 0x4d5b0a6c],
    },
    Golden {
        spec: CodeSpec::Repetition { k: 3 },
        plain: "686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        budgeted: "686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        tagged: "04686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        tagged_advert: "84db686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        tagged_advert_budgeted: "84db686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        long: [0x0703459e, 0x0703459e, 0x4b7dcec8, 0x8dd1ce2b, 0x8dd1ce2b],
    },
    Golden {
        spec: CodeSpec::Repetition { k: 5 },
        plain: "686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        budgeted: "686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        tagged: "05686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        tagged_advert: "85db686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        tagged_advert_budgeted: "85db686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5686561726400ff5aa5",
        long: [0xd2f6fa25, 0xd2f6fa25, 0x9aa0688e, 0x9412f0c0, 0x9412f0c0],
    },
    Golden {
        spec: CodeSpec::Hamming74,
        plain: "96665a660f66336955660000ffffa55a5aa5",
        budgeted: "96665a660f66336955660000ffffa55a5aa5",
        tagged: "0696665a660f66336955660000ffffa55a5aa5",
        tagged_advert: "86db96665a660f66336955660000ffffa55a5aa5",
        tagged_advert_budgeted: "86db96665a660f66336955660000ffffa55a5aa5",
        long: [0x70483aac, 0x70483aac, 0x0be07b87, 0x6f39e273, 0x6f39e273],
    },
    Golden {
        spec: CodeSpec::Interleaved { depth: 16 },
        plain: "2278a7994d39a8d82738da4918fded2c6ecc",
        budgeted: "2278a7994d39a8d82738da4918fded2c6ecc",
        tagged: "072278a7994d39a8d82738da4918fded2c6ecc",
        tagged_advert: "87db2278a7994d39a8d82738da4918fded2c6ecc",
        tagged_advert_budgeted: "87db2278a7994d39a8d82738da4918fded2c6ecc",
        long: [0x7d205181, 0x7d205181, 0xec5630ba, 0x7f0c471a, 0x7f0c471a],
    },
    Golden {
        spec: CodeSpec::Concatenated { width: 4 },
        plain: "96665a660f66336955660000ffffa55a5aa5ff965a69005a66c3",
        budgeted: "96665a660f66336955660000ffffa55a5aa5ff965a69005a66c3",
        tagged: "0896665a660f66336955660000ffffa55a5aa5ff965a69005a66c3",
        tagged_advert: "88db96665a660f66336955660000ffffa55a5aa5ff965a69005a66c3",
        tagged_advert_budgeted: "88db96665a660f66336955660000ffffa55a5aa5ff965a69005a66c3",
        long: [0x671c01e2, 0x671c01e2, 0x8724fb71, 0x9b17b245, 0x9b17b245],
    },
    Golden {
        spec: CodeSpec::Fountain { repair: 4 },
        plain: "0900000009000000090000000068656172cc016400ff5a6102a58f7550b003c600000017046feaeb78d7050bea1422ab066feaeb78b7076feaeb7807",
        budgeted: "0900000009000000090000000068656172cc016400ff5a6102a58f7550b003c600000017046feaeb78d7050bea1422ab066feaeb78b7076feaeb7807086feaeb78d6096feaeb78660a6feaeb78b60ba200ff5a1a0c6feaeb78160d6feaeb78a60eca659e28bb0f0bea14220a100c659e2882",
        tagged: "090900000009000000090000000068656172cc016400ff5a6102a58f7550b003c600000017046feaeb78d7050bea1422ab066feaeb78b7076feaeb7807",
        tagged_advert: "89db0900000009000000090000000068656172cc016400ff5a6102a58f7550b003c600000017046feaeb78d7050bea1422ab066feaeb78b7076feaeb7807",
        tagged_advert_budgeted: "89db0900000009000000090000000068656172cc016400ff5a6102a58f7550b003c600000017046feaeb78d7050bea1422ab066feaeb78b7076feaeb7807086feaeb78d6096feaeb78660a6feaeb78b60ba200ff5a1a0c6feaeb78160d6feaeb78a60eca659e28bb0f0bea14220a100c659e2882",
        long: [0x2d3d86c2, 0x90dfc3e5, 0x3453d6c7, 0xc8a355be, 0x2a6502fd],
    },
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `code`'s wire image of `body`, under `budget` when one is given.
fn coded(code: &dyn ChannelCode, body: &[u8], budget: Option<SymbolBudget>) -> Vec<u8> {
    let mut out = BytesMut::new();
    code.encode_into(body, budget, &mut out);
    out.into()
}

/// The tagged wire image of `body` under code `id` of `book`.
fn tagged(
    book: &CodeBook,
    id: u8,
    advert: Option<RungAdvert>,
    body: &[u8],
    budget: Option<SymbolBudget>,
) -> Vec<u8> {
    let mut out = BytesMut::new();
    book.encode_tagged(id, advert, budget, body, &mut out);
    out.into()
}

/// The five pinned forms of one body under one spec.
fn five_forms(book: &CodeBook, id: u8, spec: CodeSpec, body: &[u8]) -> [Vec<u8>; 5] {
    let code = spec.build();
    [
        coded(code.as_ref(), body, None),
        coded(code.as_ref(), body, Some(BUDGET)),
        tagged(book, id, None, body, None),
        tagged(book, id, Some(ADVERT), body, None),
        tagged(book, id, Some(ADVERT), body, Some(BUDGET)),
    ]
}

#[test]
fn every_spec_emits_its_golden_wire_bytes() {
    let specs: Vec<CodeSpec> = GOLDEN.iter().map(|g| g.spec).collect();
    let book = CodeBook::from_specs(&specs);
    let long = long_body();
    for (id, g) in GOLDEN.iter().enumerate() {
        let short = five_forms(&book, id as u8, g.spec, SHORT);
        let want = [
            g.plain,
            g.budgeted,
            g.tagged,
            g.tagged_advert,
            g.tagged_advert_budgeted,
        ];
        for (form, (got, want)) in short.iter().zip(want).enumerate() {
            assert_eq!(hex(got), want, "{}: short body, form {form}", g.spec);
        }
        let digests = five_forms(&book, id as u8, g.spec, &long).map(|wire| crc32(&wire));
        assert_eq!(digests, g.long, "{}: long body", g.spec);
    }
}

/// Fountain at mux scale: the table above pins it only where
/// `block_len` is 4. A 64-slot image is ≈ 2 300 bytes (`k` = 64,
/// 36-byte blocks), pooled at `baseline(8).for_batch(64)`; the second
/// budget hits the 256-symbol cap. Wire length and CRC-32 of the wire,
/// generated at the commit before the LT codec was rewritten.
#[test]
fn fountain_emits_its_golden_wire_bytes_at_mux_scale() {
    let body: Vec<u8> = (0..2300u32)
        .map(|i| (i.wrapping_mul(193) >> 3) as u8 ^ 0xC3)
        .collect();
    let pooled = SymbolBudget::baseline(8).for_batch(64);
    let capped = SymbolBudget {
        repair: 255,
        copies: 3,
    };
    let code = CodeSpec::Fountain { repair: 8 }.build();
    for (body, budget, want) in [
        (&body[..], pooled, (4876, 0xf12f5f8f)),
        (&body[..], capped, (9740, 0x83f152f2)),
        (&body[..29], pooled, (450, 0x6c4848ed)),
    ] {
        let wire = coded(code.as_ref(), body, Some(budget));
        assert_eq!((wire.len(), crc32(&wire)), want, "{budget:?}");
        assert_eq!(code.decode(&wire).as_deref(), Ok(body));
    }
}
