//! The one explicit-state search: a bounded breadth-first explorer
//! over any hashable state.
//!
//! An [`Explorer`] owns the machinery every exhaustive search here
//! needs and nothing about the machine being searched: a node arena
//! with parent pointers (every node knows the edge labels that first
//! reached it), a `HashMap` from state to node for value-level dedup,
//! and an exact state cap. Nodes are expanded in the order they were
//! stored, so the unexpanded tail of the arena *is* the FIFO frontier
//! and the first time a state is reached is along a shortest path.
//! [`odometer`] enumerates the cartesian product of per-receiver
//! choice lists one round of a product machine takes.
//!
//! A caller says only what a state is, which choices a receiver has,
//! what a choice does, when a state violates, and what reaching its
//! horizon means for completeness.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::ControlFlow;

/// Index of a stored node; the root is `0`.
pub type NodeId = u32;

struct Node<S, A> {
    state: S,
    /// The node this one was first reached from (the root's is itself).
    parent: NodeId,
    /// The edge label that first reached this node; `None` at the root.
    action: Option<A>,
    depth: u32,
}

/// A breadth-first search over states `S` whose edges carry labels `A`.
pub struct Explorer<S, A> {
    nodes: Vec<Node<S, A>>,
    index: HashMap<S, NodeId>,
    next: usize,
    cap: usize,
    capped: bool,
}

impl<S: Clone + Eq + Hash, A> Explorer<S, A> {
    /// A search holding only `root`, which will store at most `cap`
    /// distinct states, the root included.
    pub fn new(root: S, cap: usize) -> Self {
        let index = HashMap::from([(root.clone(), 0)]);
        Explorer {
            nodes: vec![Node {
                state: root,
                parent: 0,
                action: None,
                depth: 0,
            }],
            index,
            next: 0,
            cap,
            capped: false,
        }
    }

    /// Records that `action` takes `parent` to `state`. Returns the new
    /// node when `state` is new and the cap leaves room. A state stored
    /// before keeps its first parent; a new state past the cap is not
    /// stored and marks the search [capped](Explorer::capped).
    pub fn insert(&mut self, parent: NodeId, action: A, state: S) -> Option<NodeId> {
        let Entry::Vacant(slot) = self.index.entry(state) else {
            return None;
        };
        if self.nodes.len() >= self.cap {
            self.capped = true;
            return None;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            state: slot.key().clone(),
            parent,
            action: Some(action),
            depth: self.nodes[parent as usize].depth + 1,
        });
        slot.insert(id);
        Some(id)
    }
}

impl<S, A> Explorer<S, A> {
    /// The next node to expand, in the order nodes were stored, or
    /// `None` once every stored node has been handed out.
    pub fn pop(&mut self) -> Option<NodeId> {
        let id = self.next;
        (id < self.nodes.len()).then(|| {
            self.next += 1;
            id as NodeId
        })
    }

    /// The state stored at `id`.
    pub fn state(&self, id: NodeId) -> &S {
        &self.nodes[id as usize].state
    }

    /// Edges from the root to `id`.
    pub fn depth(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].depth
    }

    /// The edge labels from the root to `id`, in order.
    pub fn path(&self, mut id: NodeId) -> Vec<A>
    where
        A: Clone,
    {
        let mut labels = Vec::new();
        while let Some(action) = &self.nodes[id as usize].action {
            labels.push(action.clone());
            id = self.nodes[id as usize].parent;
        }
        labels.reverse();
        labels
    }

    /// Distinct states stored, the root included.
    pub fn states(&self) -> usize {
        self.nodes.len()
    }

    /// `true` once a new state was dropped at the cap.
    pub fn capped(&self) -> bool {
        self.capped
    }
}

/// Calls `visit` with every way of picking one index below each entry
/// of `radix`, the first position turning fastest, until `visit`
/// breaks. A zero entry makes the product empty; an empty `radix` has
/// one (empty) pick.
pub fn odometer<B>(
    radix: &[usize],
    mut visit: impl FnMut(&[usize]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if radix.contains(&0) {
        return ControlFlow::Continue(());
    }
    let mut pick = vec![0usize; radix.len()];
    'turn: loop {
        visit(&pick)?;
        for (wheel, &size) in pick.iter_mut().zip(radix) {
            *wheel += 1;
            if *wheel < size {
                continue 'turn;
            }
            *wheel = 0;
        }
        return ControlFlow::Continue(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a search from state 0 to exhaustion, `edges` giving each
    /// state's labelled successors in expansion order.
    fn exhaust(edges: impl Fn(u8) -> Vec<(char, u8)>, cap: usize) -> Explorer<u8, char> {
        let mut search = Explorer::new(0u8, cap);
        while let Some(id) = search.pop() {
            for (label, to) in edges(*search.state(id)) {
                search.insert(id, label, to);
            }
        }
        search
    }

    #[test]
    fn a_capped_run_stores_exactly_cap_states() {
        // The chain 0 → 1 → … → 9: ten states.
        let chain = |s: u8| if s < 9 { vec![('+', s + 1)] } else { vec![] };
        let capped = exhaust(chain, 4);
        assert_eq!(capped.states(), 4);
        assert!(capped.capped());

        let full = exhaust(chain, 10);
        assert_eq!(full.states(), 10);
        assert!(!full.capped(), "a cap the space fits is never hit");
    }

    #[test]
    fn a_state_reached_twice_is_stored_once_and_keeps_its_first_parent() {
        let mut search: Explorer<u8, char> = Explorer::new(0, 100);
        let root = search.pop().unwrap();
        let a = search.insert(root, 'a', 1).expect("new state");
        let b = search.insert(root, 'b', 2).expect("new state");
        assert_eq!(search.insert(root, 'c', 1), None, "same state, same parent");
        assert_eq!(search.insert(b, 'd', 1), None, "same state, later parent");
        assert_eq!(search.insert(a, 'e', 0), None, "the root dedups too");
        assert_eq!(search.states(), 3);
        assert_eq!(search.path(a), ['a']);
        assert!(!search.capped(), "a repeat is not a cap hit");
    }

    #[test]
    fn the_path_of_a_first_reached_state_is_a_shortest_one() {
        // The branch through 1 is expanded first and reaches 4 in three
        // edges, the one through 2 in two: a depth-first search would
        // keep the long path.
        let edges = |s: u8| match s {
            0 => vec![('a', 1), ('b', 2)],
            1 => vec![('c', 3)],
            2 => vec![('d', 4)],
            3 => vec![('e', 4)],
            _ => vec![],
        };
        let search = exhaust(edges, 100);
        let four = (0..search.states() as NodeId)
            .find(|&id| *search.state(id) == 4)
            .unwrap();
        assert_eq!(search.path(four), ['b', 'd']);
        for id in 0..search.states() as NodeId {
            assert_eq!(search.path(id).len(), search.depth(id) as usize);
        }
        assert_eq!(search.path(0), [], "the root's path is empty");
    }

    #[test]
    fn the_odometer_turns_the_first_wheel_fastest() {
        let mut seen = Vec::new();
        let done = odometer::<()>(&[2, 3], |pick| {
            seen.push(pick.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(done, ControlFlow::Continue(()));
        assert_eq!(
            seen,
            [[0, 0], [1, 0], [0, 1], [1, 1], [0, 2], [1, 2]].map(|p| p.to_vec())
        );

        let mut count = 0;
        let stop = odometer(&[3, 3, 3], |pick| {
            count += 1;
            if pick == [1, 1, 0] {
                ControlFlow::Break(count)
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(stop, ControlFlow::Break(5), "breaks stop the turn");

        let mut visits = 0;
        let _ = odometer::<()>(&[2, 0, 2], |_| {
            visits += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(visits, 0, "an empty choice list empties the product");
        let _ = odometer::<()>(&[], |pick| {
            assert!(pick.is_empty());
            visits += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(visits, 1, "no wheels: one empty pick");
    }
}
