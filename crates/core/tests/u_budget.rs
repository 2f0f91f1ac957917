//! What `U_{T,E,α}`'s larger `α` buys the adversary: nothing.
//!
//! `UteParams` accepts any `α < n/2`, twice `A_{T,E}`'s `α < n/4`. But
//! `P^{U,safe}` asks every `|SHO(p, r)|` to exceed `u_safe_bound`, every
//! round, so a receiver has at most `n − f` receptions that are lost *or*
//! corrupted, where `f` is the smallest count above the bound. The
//! corruptions an adversary can actually spend inside the predicate are
//! `min(α, n − f)`, and over every valid `α` their maximum is exactly
//! `AteParams::max_alpha(n)` — `A`'s own budget. This test pins that
//! identity for every n up to 1024 on the parameters `tightest` builds
//! (the smallest `f` any valid `(T, E)` admit).

use heardof_core::{AteParams, ParamError, UteParams};

/// The most corruptions per receiver per round an adversary can spend
/// against `U` at `n` processes without leaving `P^{U,safe}`.
fn u_spendable_alpha(n: usize) -> Result<u32, ParamError> {
    let mut best = 0;
    for alpha in 0..=UteParams::max_alpha(n) {
        let floor = UteParams::tightest(n, alpha)?
            .u_safe_bound()
            .min_exceeding_count();
        let spendable = (alpha as usize).min(n.saturating_sub(floor));
        best = best.max(spendable as u32);
    }
    Ok(best)
}

#[test]
fn u_can_be_made_to_absorb_no_more_corruptions_than_a() -> Result<(), ParamError> {
    let mut mismatches = Vec::new();
    for n in 1..=1024 {
        let (u, a) = (u_spendable_alpha(n)?, AteParams::max_alpha(n));
        if u != a {
            mismatches.push((n, u, a));
        }
    }
    assert!(
        mismatches.is_empty(),
        "(n, U's spendable α, A's max α) where they differ: {mismatches:?}"
    );
    Ok(())
}

#[test]
fn the_high_alpha_settings_in_use_leave_no_room_for_a_fault() -> Result<(), ParamError> {
    // `UteParams`' doctest (n = 11, α = 5) and the `U` conformance seed
    // (n = 5, α = 2): the floor is all n senders, so any lost or
    // corrupted reception already falls outside `P^{U,safe}`.
    for (n, alpha) in [(11, 5), (5, 2)] {
        let floor = UteParams::tightest(n, alpha)?
            .u_safe_bound()
            .min_exceeding_count();
        assert_eq!(floor, n, "n = {n}, α = {alpha}");
    }
    Ok(())
}
