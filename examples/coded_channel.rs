//! From value faults to omissions: the same noisy wire, with and
//! without a channel code.
//!
//! `A_{T,E}` tolerates `α < n/4` undetected corruptions per receiver
//! per round (Theorem 1), so `α = 1` at `n = 8`. This example runs it
//! over a [`WireChannel`]: the simulator's messages are framed, sent
//! through the deployment's own links, flipped at a bit-error rate of
//! 0.005, and decoded. Uncoded, every hit frame reaches its receiver as
//! a value fault or not at all: `P_α(1)` fails and no run decides in 60
//! rounds. Behind Hamming SECDED the same noise is repaired or detected
//! in flight: `P_α(1)` holds and every run decides.
//!
//! Run with: `cargo run --example coded_channel`

use heardof::coding::NoisePhase;
use heardof::prelude::*;

const N: usize = 8;
const BER: f64 = 0.005;
const ROUNDS: usize = 60;
const SEEDS: u64 = 40;

fn run(code: CodeSpec, seed: u64) -> Result<RunOutcome<Ate<u64>>, SimError> {
    // α = 1 is the largest feasible budget for A_{T,E} at n = 8.
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).expect("α = 1 < n/4"));
    // A constant bit-error rate: one phase that never enters a burst.
    let noise = NoiseTrace::new(
        seed,
        vec![NoisePhase {
            rounds: 1,
            channel: GilbertElliott::new(0.0, 1.0, BER, 0.0),
        }],
    );
    let channel = WireChannel::new(N, code, None, noise, ROUNDS as u64, Telemetry::null());
    Simulator::new(algo, N)
        .adversary(channel)
        .trace_level(TraceLevel::SetsOnly)
        .initial_values((0..N).map(|i| i as u64 % 2))
        .run_until_decided(ROUNDS)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("wire: n = {N}, bit-error rate {BER}, {SEEDS} noise seeds, {ROUNDS} rounds each\n");

    for code in [CodeSpec::None, CodeSpec::Hamming74] {
        let (mut p_alpha, mut safe, mut ok, mut rounds) = (0, 0, 0, 0);
        for seed in 0..SEEDS {
            let o = run(code, seed)?;
            p_alpha += u64::from(PAlpha::new(1).holds(&o.trace));
            safe += u64::from(o.is_safe());
            ok += u64::from(o.consensus_ok());
            rounds += o.rounds_executed;
        }
        println!(
            "{:>9}: P_α(1) held {p_alpha}/{SEEDS}, safe {safe}/{SEEDS}, \
             consensus_ok {ok}/{SEEDS}, {:.1} rounds on average",
            code.to_string(),
            rounds as f64 / SEEDS as f64
        );
        if code == CodeSpec::None {
            assert_eq!(p_alpha, 0, "uncoded value faults must exceed α = 1");
            assert_eq!(ok, 0, "uncoded runs must starve");
        } else {
            assert_eq!(p_alpha, SEEDS, "SECDED must keep every run inside P_α(1)");
            assert_eq!(ok, SEEDS, "inside P_α the paper's guarantee applies");
        }
    }

    println!(
        "\nuncoded, the corrupted frames starve A_{{T,E}}; the code turns the same noise \
         into repairs and omissions, and every run decides."
    );
    Ok(())
}
