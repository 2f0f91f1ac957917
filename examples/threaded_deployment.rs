//! The same algorithm, deployed: threads, channels, checksums, lossy links.
//!
//! The lockstep simulator gives adversarial control; this example shows
//! `A_{T,E}` unchanged on a *threaded* substrate where
//!
//! * heard-of sets arise from lossy links (each round crosses to a
//!   peer as one batch of whatever its links delivered, which also
//!   closes the round — the emulation's control plane; the round
//!   timeout only covers a crashed peer),
//! * corrupted frames are detected by CRC-32 and dropped (→ omissions),
//! * a tunable fraction of corruptions defeats the checksum
//!   (→ genuine value faults, the coverage gap of §5.2),
//! * retransmission raises delivery probability (the [10]-style
//!   predicate implementation knob).
//!
//! The nine processes run on standing worker threads: a process-wide
//! pool that the first run fills and every later run in the process
//! reuses, so a deployment that runs decision after decision pays no
//! thread spawn per decision.
//!
//! The runtime reconstructs the exact HO/SHO collections afterwards, so
//! the usual predicate checkers run on a *real* execution.
//!
//! Run with: `cargo run --example threaded_deployment`

use heardof::net::{recommend_alpha, run_threaded, LinkFaults, NetConfig};
use heardof::prelude::*;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 9;

    let faults = LinkFaults {
        drop_prob: 0.10,       // 10% of frames vanish
        corrupt_prob: 0.02,    // 2% get their payload scrambled
        undetected_prob: 0.10, // 10% of those defeat the CRC
    };

    // Engineering the predicate: what α must the machine budget for?
    // (A_{T,E} can only afford α < n/4, so the tail target is what a
    // deployment would tune; a tighter target would call for U_{T,E,α}.)
    let estimate = recommend_alpha(&faults, n, 1e-3);
    println!(
        "expected undetected corruptions per receiver per round: {:.3}",
        estimate.expected
    );
    println!("recommended α: {}", estimate.recommended_alpha);
    let alpha = estimate.recommended_alpha.clamp(1, AteParams::max_alpha(n));
    let params = AteParams::balanced(n, alpha)?;
    println!("machine: {params}\n");

    let config = NetConfig {
        faults,
        seed: 3,
        // Paid only for a crashed peer: rounds close on peers' round
        // batches, lost frames or not, and the run's end is signalled
        // rather than timed out.
        round_timeout: Duration::from_millis(30),
        copies: 3, // retransmit against the 10% drops
        max_rounds: 120,
        ..NetConfig::default()
    };

    let outcome = run_threaded(
        Ate::<u64>::new(params),
        n,
        (0..n as u64).map(|i| i % 3).collect(),
        config.clone(),
    );

    println!("decisions        : {:?}", outcome.decisions);
    println!("decision rounds  : {:?}", outcome.decision_rounds);
    println!(
        "undetected corruptions injected: {}",
        outcome.undetected_corruptions
    );
    assert!(outcome.agreement_ok(), "no two deciders may disagree");

    // Predicate checking on the reconstructed history of a REAL run:
    let report = PAlpha::new(alpha).check(&outcome.history);
    println!("{report}");

    if outcome.all_decided() {
        println!(
            "consensus reached by round {}",
            outcome.last_decision_round().unwrap()
        );
    } else {
        println!("not all processes decided within the horizon (drops were unlucky) — safety held throughout");
    }

    // Decision after decision: the nine workers the run above spawned
    // stand in the pool, so these runs spawn no thread.
    let (runs, started) = (50, Instant::now());
    for seed in 0..runs {
        let config = NetConfig {
            seed,
            ..config.clone()
        };
        let initial = (0..n as u64).map(|i| (i + seed) % 3).collect();
        let outcome = run_threaded(Ate::<u64>::new(params), n, initial, config);
        assert!(outcome.agreement_ok(), "no two deciders may disagree");
    }
    println!(
        "\n{runs} more runs on the standing workers: {:.2} ms per run",
        started.elapsed().as_secs_f64() * 1e3 / runs as f64
    );
    Ok(())
}
