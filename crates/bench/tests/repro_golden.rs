//! Every artifact the `repro` bin prints, pinned byte for byte against
//! `tests/repro/<name>.txt` — one test per entry of
//! `heardof_bench::repro::ARTIFACTS`.
//!
//! A moved artifact is a moved result: a seed, an RNG draw, a decision
//! or a wire byte changed. After a deliberate change, re-pin it with
//!
//! ```text
//! cargo run --release -p heardof-bench --bin repro -- <name> > crates/bench/tests/repro/<name>.txt
//! ```

use heardof_bench::repro::{render, ARTIFACTS};

fn check(name: &str) {
    let path = format!("{}/tests/repro/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let rendered = render(name).expect("a listed artifact");
    if let Some((line, (got, want))) = rendered
        .lines()
        .zip(pinned.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "{name} moved at line {}:\n  rendered: {got}\n  pinned:   {want}",
            line + 1
        );
    }
    assert_eq!(rendered, pinned, "{name} moved (length or line endings)");
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*

        #[test]
        fn every_artifact_is_pinned_in_table_order() {
            let listed: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
            assert_eq!(listed, [$(stringify!($name)),*]);
        }

        /// The artifacts judge their own claims (`HOLDS` / `VIOLATED`),
        /// so a re-pin must not carry a broken claim into a golden
        /// file unnoticed.
        #[test]
        fn no_pinned_claim_is_violated() {
            for name in [$(stringify!($name)),*] {
                let path = format!("{}/tests/repro/{name}.txt", env!("CARGO_MANIFEST_DIR"));
                let pinned =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
                if let Some(line) = pinned.lines().find(|line| line.contains("VIOLATED")) {
                    panic!("{name} pins a violated claim: {line}");
                }
            }
        }
    };
}

golden!(
    table1,
    fig1_liveness_a,
    fig2_liveness_u,
    fig3_taxonomy,
    resilience,
    otr_equivalence,
    tightness,
    tightness_u,
    santoro_widmayer,
    fast_path,
    lamport_bound,
    coverage,
    byzantine_emulation,
    ablation_guard,
    latency_sweep,
    coding_tradeoff,
    adaptive_tradeoff,
    ladder,
    fountain,
);
