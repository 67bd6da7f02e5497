//! Connected components of (induced views of) graphs.

use super::TraversalWorkspace;
use crate::{Adjacency, NodeId, NodeSet};
use std::collections::VecDeque;

/// The connected components of a view, labelled `0..count`.
#[derive(Debug, Clone)]
pub struct Components {
    label: Vec<u32>,
    sizes: Vec<usize>,
    universe: usize,
}

/// Label for nodes outside the view.
const NO_COMPONENT: u32 = u32::MAX;

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Component label of `v`, or `None` if `v` is not in the view.
    pub fn label(&self, v: NodeId) -> Option<usize> {
        match self.label[v.index()] {
            NO_COMPONENT => None,
            l => Some(l as usize),
        }
    }

    /// Size of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= count()`.
    pub fn size(&self, c: usize) -> usize {
        self.sizes[c]
    }

    /// Sizes of all components, indexed by label.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Size of the largest component (0 if there are none).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// The members of component `c` as a [`NodeSet`].
    pub fn members(&self, c: usize) -> NodeSet {
        assert!(c < self.count(), "component {c} out of range");
        NodeSet::from_nodes(
            self.universe,
            (0..self.universe)
                .filter(|&i| self.label[i] == c as u32)
                .map(NodeId::new),
        )
    }

    /// Splits the view into one [`NodeSet`] per component.
    pub fn into_sets(&self) -> Vec<NodeSet> {
        let mut sets: Vec<NodeSet> = (0..self.count())
            .map(|_| NodeSet::empty(self.universe))
            .collect();
        for i in 0..self.universe {
            let l = self.label[i];
            if l != NO_COMPONENT {
                sets[l as usize].insert(NodeId::new(i));
            }
        }
        sets
    }
}

/// Computes the connected components of `view`.
pub fn connected_components<A: Adjacency>(view: &A) -> Components {
    let n = view.universe();
    let mut label = vec![NO_COMPONENT; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();

    for s in view.nodes() {
        if label[s.index()] != NO_COMPONENT {
            continue;
        }
        let c = sizes.len() as u32;
        let mut size = 0usize;
        label[s.index()] = c;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for v in view.neighbors(u) {
                if label[v.index()] == NO_COMPONENT {
                    label[v.index()] = c;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }

    Components {
        label,
        sizes,
        universe: n,
    }
}

/// The connected components of `view` as one [`NodeSet`] each: the same
/// sets in the same order as `connected_components(view).into_sets()`
/// (ordered by smallest member), with the visited marks stamped in the
/// hop arena of `ws` instead of a fresh `O(n)` label array.
///
/// Costs `O(|S| + vol(S))` for the view's alive set `S`, plus one word
/// sweep of the alive set and one set allocation per component: a loop
/// that splits thousands of tiny components (the Theorem 2.1 iteration)
/// pays for what it touches, not `O(n)` per call. Overwrites the
/// workspace's most recent hop run.
pub fn component_sets_in<A: Adjacency>(view: &A, ws: &mut TraversalWorkspace) -> Vec<NodeSet> {
    let universe = view.universe();
    let mut parts = ws.begin_hop(universe);
    let mut sets = Vec::new();
    for s in view.nodes() {
        if parts.reached(s) {
            continue;
        }
        let start = parts.order.len();
        parts.visit(s, 0, u32::MAX);
        let mut head = start;
        while head < parts.order.len() {
            let u = parts.order[head];
            head += 1;
            for v in view.neighbors(u) {
                if !parts.reached(v) {
                    parts.visit(v, 0, u32::MAX);
                }
            }
        }
        sets.push(NodeSet::from_nodes(
            universe,
            parts.order[start..].iter().copied(),
        ));
    }
    parts.seal();
    sets
}

/// The component of `v` within `view`, as a [`NodeSet`].
///
/// Returns an empty set if `v` is not in the view.
pub fn component_of<A: Adjacency>(view: &A, v: NodeId) -> NodeSet {
    let mut set = NodeSet::empty(view.universe());
    if !view.contains(v) {
        return set;
    }
    let mut queue = VecDeque::new();
    set.insert(v);
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        for w in view.neighbors(u) {
            if set.insert(w) {
                queue.push_back(w);
            }
        }
    }
    set
}

/// Whether the view is connected (the empty view counts as connected).
pub fn is_connected<A: Adjacency>(view: &A) -> bool {
    connected_components(view).count() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Graph};

    #[test]
    fn single_component() {
        let g = gen::cycle(6);
        let c = connected_components(&g.full_view());
        assert_eq!(c.count(), 1);
        assert_eq!(c.size(0), 6);
        assert!(is_connected(&g.full_view()));
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let c = connected_components(&g.full_view());
        assert_eq!(c.count(), 2);
        let mut sizes = c.sizes().to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.label(NodeId::new(0)), c.label(NodeId::new(1)));
        assert_ne!(c.label(NodeId::new(1)), c.label(NodeId::new(2)));
    }

    #[test]
    fn view_splits_component() {
        let g = gen::path(5);
        let alive = NodeSet::from_nodes(5, [0, 1, 3, 4].map(NodeId::new));
        let v = g.view(&alive);
        let c = connected_components(&v);
        assert_eq!(c.count(), 2);
        assert_eq!(c.label(NodeId::new(2)), None);
        let sets = c.into_sets();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets.iter().map(NodeSet::len).sum::<usize>(), 4);
    }

    #[test]
    fn component_of_respects_view() {
        let g = gen::path(5);
        let alive = NodeSet::from_nodes(5, [0, 1, 3, 4].map(NodeId::new));
        let v = g.view(&alive);
        let comp = component_of(&v, NodeId::new(0));
        assert_eq!(comp.len(), 2);
        assert!(comp.contains(NodeId::new(1)));
        assert!(!comp.contains(NodeId::new(3)));
        assert!(component_of(&v, NodeId::new(2)).is_empty());
    }

    #[test]
    fn members_round_trip() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let c = connected_components(&g.full_view());
        let all: usize = (0..c.count()).map(|i| c.members(i).len()).sum();
        assert_eq!(all, 4);
    }

    #[test]
    fn isolated_nodes_are_components() {
        let g = Graph::empty(3);
        let c = connected_components(&g.full_view());
        assert_eq!(c.count(), 3);
        assert_eq!(c.largest(), 1);
    }
}
