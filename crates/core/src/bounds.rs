//! Executable counterparts of the lower bounds discussed in §5.1.
//!
//! The paper's algorithms *circumvent* (not contradict) three published
//! bounds by separating communication safety from communication liveness
//! and by accounting faults per link and per round:
//!
//! * **Santoro/Widmayer** — agreement is impossible with `⌊n/2⌋` value
//!   transmission faults per round (when they may hit one sender's whole
//!   output "block"); `A_{T,E}` / `U_{T,E,α}` stay safe with up to
//!   `n·α ≈ n²/4` resp. `n²/2` corrupted *receptions* per round.
//! * **Martin/Alvisi** — fast Byzantine consensus needs more than
//!   `(4n+1)/5` correct processes; `A_{T,E}` is fast while `⌈n/4⌉−1`
//!   processes per round may emit corrupted values.
//! * **Lamport** — `N > 2Q + F + 2M` for asynchronous Byzantine
//!   consensus; both algorithms attain it (`A`: `Q = M = (n−1)/4`,
//!   `U`: `M = (n−1)/2`, each with `F = 0`).

use crate::params::{AteParams, UteParams};

/// Santoro/Widmayer's impossibility threshold: with this many dynamic
/// value transmission faults per round (in sender "blocks"), no agreement
/// algorithm exists. \[18\]
pub fn santoro_widmayer_faults_per_round(n: usize) -> usize {
    n / 2
}

/// The largest per-receiver, per-round corruption budget under which
/// `A_{T,E}` stays safe and live — the integer form of `α < n/4` (§3.3).
pub fn ate_max_alpha(n: usize) -> u32 {
    AteParams::max_alpha(n)
}

/// The largest per-receiver, per-round corruption budget under which
/// `U_{T,E,α}` stays safe and live — the integer form of `α < n/2` (§4.3).
pub fn ute_max_alpha(n: usize) -> u32 {
    UteParams::max_alpha(n)
}

/// Total corrupted messages per round `A_{T,E}` tolerates at its maximal
/// budget: `n · ⌊(n−1)/4⌋ ≈ n²/4` — far beyond the `⌊n/2⌋` of \[18\].
pub fn ate_corruptions_per_round(n: usize) -> usize {
    n * ate_max_alpha(n) as usize
}

/// Total corrupted messages per round `U_{T,E,α}` tolerates at its
/// maximal budget: `n · ⌊(n−1)/2⌋ ≈ n²/2`.
pub fn ute_corruptions_per_round(n: usize) -> usize {
    n * ute_max_alpha(n) as usize
}

/// Martin/Alvisi's lower bound: fast Byzantine consensus requires at
/// least `⌈(4n+1)/5⌉` correct processes. \[16\]
fn martin_alvisi_min_correct(n: usize) -> usize {
    (4 * n + 1).div_ceil(5)
}

/// The largest number of (static, permanent) Byzantine processes fast
/// Byzantine consensus tolerates per \[16\]: `n − ⌈(4n+1)/5⌉ ≈ n/5`.
pub fn martin_alvisi_max_byzantine(n: usize) -> usize {
    n - martin_alvisi_min_correct(n).min(n)
}

/// A point in Lamport's resilience space for asynchronous consensus:
/// `N` acceptors, fast despite `Q` Byzantine acceptors, live despite
/// `F`, safe despite `M`. \[11\]
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LamportPoint {
    /// Number of acceptors `N`.
    pub n: usize,
    /// Byzantine acceptors despite which the protocol is fast.
    pub q: usize,
    /// Byzantine acceptors despite which liveness holds.
    pub f: usize,
    /// Byzantine acceptors despite which safety holds.
    pub m: usize,
}

impl LamportPoint {
    /// Lamport's conjectured bound `N > 2Q + F + 2M`.
    pub fn satisfies_bound(&self) -> bool {
        self.n > 2 * self.q + self.f + 2 * self.m
    }

    /// Slack against the bound (`N − (2Q + F + 2M)`); `1` means the
    /// bound is attained exactly.
    pub fn slack(&self) -> i64 {
        self.n as i64 - (2 * self.q + self.f + 2 * self.m) as i64
    }
}

/// The resilience point `A_{T,E}` realizes (§5.1): safe *and fast*
/// despite `Q = M = ⌊(n−1)/4⌋` corrupting processes per round, with
/// `F = 0` (liveness needs the stronger `P^{A,live}`).
pub fn ate_lamport_point(n: usize) -> LamportPoint {
    let alpha = ate_max_alpha(n) as usize;
    LamportPoint {
        n,
        q: alpha,
        f: 0,
        m: alpha,
    }
}

/// The resilience point `U_{T,E,α}` realizes (§5.1): safe despite
/// `M = ⌊(n−1)/2⌋`, with `Q = F = 0`.
pub fn ute_lamport_point(n: usize) -> LamportPoint {
    LamportPoint {
        n,
        q: 0,
        f: 0,
        m: ute_max_alpha(n) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn santoro_widmayer_halves() {
        assert_eq!(santoro_widmayer_faults_per_round(10), 5);
        assert_eq!(santoro_widmayer_faults_per_round(11), 5);
    }

    #[test]
    fn per_round_totals_beat_santoro_widmayer() {
        // For n ≥ 8 the per-round corruption totals of both algorithms
        // exceed ⌊n/2⌋ — the sense in which the bound is circumvented.
        for n in 8..100 {
            assert!(ate_corruptions_per_round(n) > santoro_widmayer_faults_per_round(n));
            assert!(ute_corruptions_per_round(n) > santoro_widmayer_faults_per_round(n));
            assert!(ute_corruptions_per_round(n) >= ate_corruptions_per_round(n));
        }
    }

    #[test]
    fn quadratic_shape() {
        // n²/4 and n²/2 shapes (within rounding).
        assert_eq!(ate_corruptions_per_round(17), 17 * 4); // 17·⌊16/4⌋
        assert_eq!(ute_corruptions_per_round(17), 17 * 8); // 17·⌊16/2⌋
    }

    #[test]
    fn martin_alvisi_bound() {
        // Classic example: n = 5 needs at least ⌈21/5⌉ = 5 correct — so
        // zero Byzantine tolerated at n = 5 for fast consensus.
        assert_eq!(martin_alvisi_min_correct(5), 5);
        assert_eq!(martin_alvisi_max_byzantine(5), 0);
        // n = 6: ⌈25/5⌉ = 5 correct, 1 Byzantine.
        assert_eq!(martin_alvisi_max_byzantine(6), 1);
        // Asymptotically ≈ n/5.
        assert_eq!(martin_alvisi_max_byzantine(100), 100 - 81);
    }

    #[test]
    fn ate_beats_martin_alvisi_per_round() {
        // The per-round corrupting-process budget of fast A_{T,E}
        // (= α < n/4) exceeds the static Byzantine budget (< n/5) of
        // fast Byzantine consensus for all large enough n.
        for n in 21..200 {
            assert!(
                ate_max_alpha(n) as usize >= martin_alvisi_max_byzantine(n),
                "n={n}: α={} vs byz={}",
                ate_max_alpha(n),
                martin_alvisi_max_byzantine(n)
            );
        }
    }

    #[test]
    fn lamport_points_attained() {
        for n in 1..200 {
            let a = ate_lamport_point(n);
            assert!(a.satisfies_bound(), "A at n={n}: {a:?}");
            let u = ute_lamport_point(n);
            assert!(u.satisfies_bound(), "U at n={n}: {u:?}");
        }
        // The bound is attained exactly (slack 1) at n ≡ 1 (mod 4) for A…
        assert_eq!(ate_lamport_point(5).slack(), 1);
        assert_eq!(ate_lamport_point(9).slack(), 1);
        // …and at odd n for U.
        assert_eq!(ute_lamport_point(5).slack(), 1);
        assert_eq!(ute_lamport_point(7).slack(), 1);
    }

    #[test]
    fn lamport_bound_rejects_overclaims() {
        // One more safety fault than U claims would break the bound.
        let p = LamportPoint {
            n: 7,
            q: 0,
            f: 0,
            m: 4,
        };
        assert!(!p.satisfies_bound());
        assert_eq!(p.slack(), -1);
    }
}
