//! `WireChannel`: the simulator's messages over the real wire.
//!
//! At `n = 8` with `A_{T,E}` at α = 1 and a constant bit-error rate of
//! 0.005, an uncoded wire breaks `P_α(1)` and starves every run, while
//! Hamming SECDED keeps every run inside `P_α(1)` and deciding — the
//! claim `examples/coded_channel.rs` prints over 40 seeds. And with no
//! noise, a fixed code delivers exactly what was sent.

use heardof::coding::NoisePhase;
use heardof::prelude::*;
use rand::SeedableRng;

const N: usize = 8;
const ROUNDS: u64 = 60;

/// A trace flipping each bit with probability `ber`, every round.
fn constant(seed: u64, ber: f64) -> NoiseTrace {
    NoiseTrace::new(
        seed,
        vec![NoisePhase {
            rounds: 1,
            channel: GilbertElliott::new(0.0, 1.0, ber, 0.0),
        }],
    )
}

fn run(code: CodeSpec, seed: u64) -> RunOutcome<Ate<u64>> {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).expect("α = 1 < n/4"));
    let channel = WireChannel::new(
        N,
        code,
        None,
        constant(seed, 0.005),
        ROUNDS,
        Telemetry::null(),
    );
    Simulator::new(algo, N)
        .adversary(channel)
        .trace_level(TraceLevel::SetsOnly)
        .initial_values((0..N).map(|i| i as u64 % 2))
        .run_until_decided(ROUNDS as usize)
        .expect("well-formed run")
}

#[test]
fn uncoded_runs_break_p_alpha_and_starve() {
    for seed in 0..8 {
        let o = run(CodeSpec::None, seed);
        assert!(!PAlpha::new(1).holds(&o.trace), "seed {seed}");
        assert!(!o.all_decided(), "seed {seed}");
    }
}

#[test]
fn secded_runs_hold_p_alpha_and_decide() {
    for seed in 0..8 {
        let o = run(CodeSpec::Hamming74, seed);
        assert!(PAlpha::new(1).holds(&o.trace), "seed {seed}");
        assert!(o.consensus_ok(), "seed {seed}");
    }
}

#[test]
fn a_fixed_code_on_a_clean_wire_delivers_the_intended_matrix() {
    let rounds = 12;
    let mut channel = WireChannel::new(
        N,
        CodeSpec::Hamming74,
        None,
        constant(5, 0.0),
        rounds,
        Telemetry::null(),
    );
    let codes = channel.code_log();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for r in 1..=rounds {
        let intended = MessageMatrix::from_fn(N, |s, d| {
            Some(r * 1_000 + (s.index() * N + d.index()) as u64)
        });
        let delivered = channel.deliver(Round::new(r), &intended, &mut rng);
        assert_eq!(delivered, intended, "round {r}");
    }
    assert_eq!(
        codes.rounds(),
        vec![vec![CodeSpec::Hamming74; N]; rounds as usize]
    );
}
