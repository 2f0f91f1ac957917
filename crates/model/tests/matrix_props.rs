//! Property tests for message matrices and heard-of set derivation.

use heardof_model::{all_processes, MessageMatrix, ProcessId, ReceptionVector, RoundSets};
use proptest::prelude::*;

/// An arbitrary "delivered" matrix derived from a full intended matrix:
/// each cell is kept, dropped, or corrupted.
fn arb_deliveries(n: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, n * n)
}

fn apply(n: usize, intended: &MessageMatrix<u64>, actions: &[u8]) -> MessageMatrix<u64> {
    let mut delivered = intended.clone();
    for s in 0..n {
        for r in 0..n {
            let sender = ProcessId::new(s as u32);
            let receiver = ProcessId::new(r as u32);
            match actions[s * n + r] {
                1 => {
                    delivered.clear(sender, receiver);
                }
                2 => {
                    delivered.mutate_cell(sender, receiver, |v| v + 1000);
                }
                _ => {}
            }
        }
    }
    delivered
}

proptest! {
    #[test]
    fn derived_sets_match_actions(n in 2usize..10, actions_seed in arb_deliveries(10)) {
        let intended = MessageMatrix::from_fn(n, |s, r| {
            Some((s.index() * 31 + r.index()) as u64)
        });
        let actions = &actions_seed[..n * n];
        let delivered = apply(n, &intended, actions);
        let sets = RoundSets::from_matrices(&intended, &delivered);

        for p in all_processes(n) {
            for q in all_processes(n) {
                let action = actions[q.index() * n + p.index()];
                match action {
                    1 => {
                        // dropped: not heard at all
                        prop_assert!(!sets.ho(p).contains(q));
                        prop_assert!(!sets.sho(p).contains(q));
                    }
                    2 => {
                        // corrupted: heard but not safely
                        prop_assert!(sets.ho(p).contains(q));
                        prop_assert!(!sets.sho(p).contains(q));
                        prop_assert!(sets.aho(p).contains(q));
                    }
                    _ => {
                        prop_assert!(sets.ho(p).contains(q));
                        prop_assert!(sets.sho(p).contains(q));
                    }
                }
            }
        }
    }

    /// The matrix's count and the sets' `Σ_p |AHO(p, r)|` are one
    /// definition: over a partial intended matrix, where the delivered
    /// one keeps, drops, corrupts or invents ("spurious") each cell.
    #[test]
    fn corruption_count_equals_total_aho(
        n in 2usize..10,
        unsent in proptest::collection::vec(0u8..4, 100),
        actions_seed in proptest::collection::vec(0u8..4, 100),
    ) {
        let intended = MessageMatrix::from_fn(n, |s, r| {
            (unsent[s.index() * n + r.index()] != 0).then_some(s.index() as u64)
        });
        let actions = &actions_seed[..n * n];
        let mut delivered = apply(n, &intended, actions);
        for (i, _) in actions.iter().enumerate().filter(|(_, &a)| a == 3) {
            // Spurious: a message where none was sent (or a fourth kind
            // of corruption where one was).
            delivered.set(ProcessId::new((i / n) as u32), ProcessId::new((i % n) as u32), 500);
        }
        let sets = RoundSets::from_matrices(&intended, &delivered);
        prop_assert_eq!(
            delivered.corruption_count(&intended),
            sets.total_corruptions()
        );
    }

    #[test]
    fn column_roundtrips_cells(n in 1usize..12) {
        let m = MessageMatrix::from_fn(n, |s, r| {
            // A sparse-ish pattern.
            if (s.index() + r.index()) % 3 == 0 {
                None
            } else {
                Some((s.index() * 100 + r.index()) as u64)
            }
        });
        for p in all_processes(n) {
            let col = m.column(p);
            for q in all_processes(n) {
                prop_assert_eq!(col.get(q), m.get(q, p));
            }
            prop_assert_eq!(col.heard_count(), col.support().len());
        }
    }

    /// One vector reused across every column of several random partial
    /// matrices ends each column equal to a fresh `column(p)` and to the
    /// cells themselves: a `Some` slot of an earlier column that is
    /// `None` in this one must clear, and a `String` slot overwritten in
    /// place must not keep any of its old text.
    #[test]
    fn a_reused_column_vector_equals_a_fresh_column(
        n in 1usize..12,
        cells in proptest::collection::vec(0u8..4, 3 * 11 * 11),
    ) {
        let mut cells = cells.into_iter();
        let matrices: Vec<MessageMatrix<String>> = (0..3)
            .map(|_| {
                MessageMatrix::from_fn(n, |s, r| {
                    let cell = cells.next().unwrap();
                    (cell != 0).then(|| "x".repeat(usize::from(cell)) + &(s.index() * n + r.index()).to_string())
                })
            })
            .collect();
        let mut rx = ReceptionVector::new(n);
        for m in &matrices {
            for p in all_processes(n) {
                m.column_into(p, &mut rx);
                prop_assert_eq!(&rx, &m.column(p));
                for q in all_processes(n) {
                    prop_assert_eq!(rx.get(q), m.get(q, p));
                }
            }
        }
    }

    #[test]
    fn kernel_is_intersection_of_ho(n in 2usize..9, actions_seed in arb_deliveries(9)) {
        let intended = MessageMatrix::from_fn(n, |_, _| Some(7u64));
        let actions = &actions_seed[..n * n];
        let delivered = apply(n, &intended, actions);
        let sets = RoundSets::from_matrices(&intended, &delivered);
        let kernel = sets.kernel();
        for q in all_processes(n) {
            let heard_by_all = all_processes(n).all(|p| sets.ho(p).contains(q));
            prop_assert_eq!(kernel.contains(q), heard_by_all);
        }
        let safe_kernel = sets.safe_kernel();
        prop_assert!(safe_kernel.is_subset(&kernel));
    }
}
