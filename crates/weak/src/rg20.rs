//! The Rozhoň–Ghaffari deterministic weak-diameter ball carving.
//!
//! # Algorithm
//!
//! Every alive node starts as a singleton cluster labelled by its own
//! `b`-bit identifier. The algorithm runs `b` phases, processing label
//! bits from most to least significant. In the phase for bit `k`,
//! clusters whose label has bit `k` clear are **blue**, the others
//! **red**. The phase repeats *steps* until no blue node neighbors a red
//! cluster:
//!
//! 1. Every blue node adjacent to at least one red member picks the
//!    smallest adjacent red label and sends a join request through the
//!    smallest-index neighbor carrying it.
//! 2. Each requested red cluster `C` counts its requests by a
//!    converge-cast over its Steiner tree. If the count is at least
//!    `eps' · |C|` it **accepts**: all requesters join, relabelling to
//!    `C`'s label and attaching to the tree at their request edge.
//!    Otherwise it **declines**: its requesters die.
//!
//! A node that leaves a cluster stays in the old tree as a *helper*
//! (non-terminal) — this is what makes the diameter weak. Declines kill
//! fewer than `eps' · |C|` nodes and are never repeated (a declined
//! cluster is never requested again), so with `eps' = eps / b` the total
//! death fraction is below `eps`.
//!
//! **Separation invariant** (why the output clusters are pairwise
//! non-adjacent): throughout the run, any two adjacent clusters agree on
//! all already-processed bits. New adjacencies only arise when a red
//! cluster absorbs a node `v`; `v`'s old cluster was adjacent to both
//! the absorber and every cluster `v` touches, so by induction they all
//! agree on the processed bits, and the phase-end guarantee (no blue–red
//! adjacency) extends the agreement to the current bit. After the last
//! phase, adjacent nodes agree on every bit — i.e. they share a label.

use sdnd_clustering::{
    BallCarving, Cancelled, CarveCtx, SteinerForest, SteinerTree, WeakCarver, WeakCarving,
};
use sdnd_congest::RoundLedger;
use sdnd_graph::{Graph, NodeId, NodeSet};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One rebuilt Steiner tree: `(label, parent/depth entries, new depth)`.
type TreeRebuild = (u64, HashMap<u32, (Option<NodeId>, u32)>, u32);

/// Only trees deeper than this are rebuilt by the GGR21 variant
/// (rebuilding is pointless for shallow trees and singletons).
const REBUILD_DEPTH_THRESHOLD: u32 = 4;

/// The RG20 deterministic weak-diameter ball carver (see module docs).
#[derive(Debug, Clone)]
pub struct Rg20 {
    /// Rebuild Steiner trees after each phase with a truncated BFS (the
    /// GGR21-style depth improvement).
    rebuild_trees: bool,
}

impl Rg20 {
    /// The plain RG20 algorithm.
    // The constructor shares the type's name on purpose: call sites read
    // as the algorithm row label (`Rg20::rg20()` vs `Rg20::ggr21()`).
    #[allow(clippy::self_named_constructors)]
    pub fn rg20() -> Self {
        Rg20 {
            rebuild_trees: false,
        }
    }

    /// The GGR21-style variant with per-phase tree rebuilding.
    pub fn ggr21() -> Self {
        Rg20 {
            rebuild_trees: true,
        }
    }
}

impl Default for Rg20 {
    fn default() -> Self {
        Self::rg20()
    }
}

/// Per-cluster bookkeeping during the run.
struct TreeData {
    root: NodeId,
    /// node index → (parent edge if non-root, depth in tree).
    entries: HashMap<u32, (Option<NodeId>, u32)>,
    /// Current number of members (terminals).
    members: u64,
    /// Deepest entry.
    depth: u32,
    /// Whether the tree or its member set changed since the last
    /// rebuild. A clean tree would rebuild to the identical result (the
    /// BFS is deterministic over fixed root, members, and input set), so
    /// rebuilding it — and charging rounds for it — is pure waste.
    dirty: bool,
}

impl TreeData {
    fn singleton(root: NodeId) -> Self {
        let mut entries = HashMap::new();
        entries.insert(u32::from(root), (None, 0));
        TreeData {
            root,
            entries,
            members: 1,
            depth: 0,
            dirty: true,
        }
    }
}

struct Run<'g> {
    g: &'g Graph,
    input: NodeSet,
    alive: NodeSet,
    /// Current label per node (valid only for input nodes).
    label: Vec<u64>,
    trees: HashMap<u64, TreeData>,
    /// Edge congestion tracker: normalized edge → #trees using it.
    edge_use: HashMap<(u32, u32), u32>,
    max_congestion: u32,
    max_depth: u32,
    id_bits: u32,
}

impl<'g> Run<'g> {
    fn new(g: &'g Graph, alive0: &NodeSet) -> Self {
        let mut label = vec![0u64; g.n()];
        let mut trees = HashMap::with_capacity(alive0.len());
        for v in alive0.iter() {
            let id = g.id_of(v);
            label[v.index()] = id;
            trees.insert(id, TreeData::singleton(v));
        }
        Run {
            g,
            input: alive0.clone(),
            alive: alive0.clone(),
            label,
            trees,
            edge_use: HashMap::new(),
            max_congestion: 0,
            max_depth: 0,
            id_bits: g.id_bits(),
        }
    }

    fn is_red(&self, v: NodeId, bit: u32) -> bool {
        self.label[v.index()] >> bit & 1 == 1
    }

    fn add_tree_edge(&mut self, v: NodeId, p: NodeId) {
        let (a, b) = (
            u32::from(v).min(u32::from(p)),
            u32::from(v).max(u32::from(p)),
        );
        let c = self.edge_use.entry((a, b)).or_insert(0);
        *c += 1;
        self.max_congestion = self.max_congestion.max(*c);
    }

    /// Collects the requests of one step: for every alive blue node in
    /// `candidates` adjacent to an alive red member, the chosen target
    /// `(label, gateway neighbor)`.
    fn collect_requests(
        &self,
        bit: u32,
        candidates: impl Iterator<Item = NodeId>,
    ) -> Vec<(NodeId, u64, NodeId)> {
        let mut requests = Vec::new();
        for v in candidates {
            if !self.alive.contains(v) || self.is_red(v, bit) {
                continue;
            }
            let mut best: Option<(u64, NodeId)> = None;
            for w in self.g.neighbors(v) {
                if !self.alive.contains(*w) || !self.is_red(*w, bit) {
                    continue;
                }
                let lw = self.label[w.index()];
                match best {
                    None => best = Some((lw, *w)),
                    Some((bl, bw)) => {
                        if (lw, *w) < (bl, bw) {
                            best = Some((lw, *w));
                        }
                    }
                }
            }
            if let Some((l, w)) = best {
                requests.push((v, l, w));
            }
        }
        requests
    }

    /// One phase for `bit`. Returns per-phase step count.
    ///
    /// An armed deadline on `ctx` is honored once per growth step (each
    /// step is one traversal epoch: a request sweep plus the accepted
    /// joins), so a single phase on a large graph cannot overshoot the
    /// budget by more than one epoch.
    fn phase(
        &mut self,
        bit: u32,
        eps_p: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<u64, Cancelled> {
        let mut steps = 0u64;
        // First step scans every alive node; later steps only nodes
        // exposed by the previous step's joins.
        let mut candidates: Vec<NodeId> = self.alive.iter().collect();
        let step_cap = 16 * (self.alive.len() as u64 + 4) * (self.id_bits as u64 + 1);

        loop {
            ctx.checkpoint("rg20-growth-step")?;
            let requests = self.collect_requests(bit, candidates.iter().copied());
            if requests.is_empty() {
                break;
            }
            steps += 1;
            assert!(steps <= step_cap, "RG20 phase failed to terminate");

            // Group requests by target label.
            let mut by_label: HashMap<u64, Vec<(NodeId, NodeId)>> = HashMap::new();
            for (v, l, w) in requests {
                by_label.entry(l).or_default().push((v, w));
            }

            // Cost of the step: one request round, one converge-cast and
            // one decision broadcast over the requested trees (depth x
            // congestion, the paper's costing), one label-announce round.
            let b = self.id_bits;
            let mut tree_msgs = 0u64;
            let mut request_count = 0u64;
            for (l, reqs) in &by_label {
                request_count += reqs.len() as u64;
                tree_msgs += 2 * self.trees[l].entries.len() as u64;
            }
            ledger.charge_rounds(2);
            ledger.charge_rounds(
                2 * self.max_depth.max(1) as u64 * self.max_congestion.max(1) as u64,
            );
            ledger.record_messages(request_count, 2 * b);
            ledger.record_messages(tree_msgs, 2 * b);

            // Decisions and applications.
            let mut exposed: Vec<NodeId> = Vec::new();
            let mut labels: Vec<u64> = by_label.keys().copied().collect();
            labels.sort_unstable();
            for l in labels {
                let reqs = &by_label[&l];
                let cluster_size = self.trees[&l].members;
                let accept = reqs.len() as f64 >= eps_p * cluster_size as f64;
                if accept {
                    for &(v, w) in reqs {
                        self.join(v, l, w);
                        exposed.push(v);
                    }
                    // Announce the new labels (one round, already charged;
                    // messages to each neighbor).
                    let announce: u64 = reqs.iter().map(|&(v, _)| self.g.degree(v) as u64).sum();
                    ledger.record_messages(announce, b);
                } else {
                    for &(v, _) in reqs {
                        self.kill(v);
                    }
                }
            }

            // Next step's candidates: neighbors of newly joined nodes.
            let mut next: Vec<NodeId> = Vec::new();
            for &v in &exposed {
                for w in self.g.neighbors(v) {
                    next.push(*w);
                }
            }
            next.sort_unstable();
            next.dedup();
            candidates = next;
        }
        Ok(steps)
    }

    /// Moves `v` into the cluster labelled `l` via gateway `w`.
    fn join(&mut self, v: NodeId, l: u64, w: NodeId) {
        let old = self.label[v.index()];
        debug_assert_ne!(old, l);
        if let Some(t) = self.trees.get_mut(&old) {
            t.members -= 1;
            t.dirty = true;
            // v stays in the old tree as a helper.
        }
        self.label[v.index()] = l;
        let w_depth = self.trees[&l].entries[&u32::from(w)].1;
        let t = self.trees.get_mut(&l).expect("target cluster exists");
        t.members += 1;
        t.dirty = true;
        if let Entry::Vacant(entry) = t.entries.entry(u32::from(v)) {
            let d = w_depth + 1;
            entry.insert((Some(w), d));
            if d > t.depth {
                t.depth = d;
            }
            let new_depth = t.depth;
            self.max_depth = self.max_depth.max(new_depth);
            self.add_tree_edge(v, w);
        }
        // If v was already a helper in l's tree, its old attachment is
        // reused — no new edge, no depth change.
    }

    /// Kills `v` (declined requester). It stays a helper in its tree.
    fn kill(&mut self, v: NodeId) {
        let old = self.label[v.index()];
        if let Some(t) = self.trees.get_mut(&old) {
            t.members -= 1;
            t.dirty = true;
        }
        self.alive.remove(v);
    }

    /// GGR21-style rebuild: replace deep trees with truncated BFS trees
    /// from their roots over the *input* set (dead nodes may serve as
    /// helpers, exactly as the incremental trees allow).
    fn rebuild_trees(
        &mut self,
        threshold: u32,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<(), Cancelled> {
        let labels: Vec<u64> = self
            .trees
            .iter()
            .filter(|(_, t)| t.dirty && t.members >= 2 && t.depth > threshold)
            .map(|(&l, _)| l)
            .collect();
        if labels.is_empty() {
            return Ok(());
        }
        // One pass over the alive set groups the members of every
        // rebuilt label (instead of one O(n) scan per label).
        let mut members_of: HashMap<u64, Vec<NodeId>> = HashMap::with_capacity(labels.len());
        for &l in &labels {
            members_of.insert(l, Vec::new());
        }
        for v in self.alive.iter() {
            if let Some(ms) = members_of.get_mut(&self.label[v.index()]) {
                ms.push(v);
            }
        }
        // Pass 1: compute the replacement trees (immutable borrows only).
        let mut replacements: Vec<TreeRebuild> = Vec::new();
        {
            let view = self.g.view(&self.input);
            for &l in &labels {
                ctx.checkpoint("rg20-tree-rebuild")?;
                let root = self.trees[&l].root;
                let members = &members_of[&l];
                let mut scratch = RoundLedger::new();
                // Every member is a terminal of the old tree, whose
                // root-to-member paths are real edges in the input view,
                // so all members lie within the old depth of the root —
                // the BFS can truncate there instead of flooding the
                // whole component (distances and min-index parents within
                // the bound are unaffected by truncation).
                let bfs = sdnd_congest::primitives::bfs_in(
                    &view,
                    [root],
                    self.trees[&l].depth,
                    &mut scratch,
                    &mut ctx.ws,
                );
                // Prune to the union of root-to-member paths.
                let mut entries: HashMap<u32, (Option<NodeId>, u32)> = HashMap::new();
                entries.insert(u32::from(root), (None, 0));
                let mut depth = 0u32;
                for &m in members {
                    debug_assert!(bfs.reached(m), "member must be reachable from root");
                    depth = depth.max(bfs.dist(m));
                    let mut cur = m;
                    while !entries.contains_key(&u32::from(cur)) {
                        let p = bfs.parent(cur).expect("non-root reached node has parent");
                        entries.insert(u32::from(cur), (Some(p), bfs.dist(cur)));
                        cur = p;
                    }
                }
                replacements.push((l, entries, depth));
            }
        }

        // Pass 2: swap trees and edge-use counts. The trees are rebuilt
        // in parallel, so every old edge goes before any new one is
        // added: the congestion high-water mark must not depend on the
        // order `labels` came out of the map.
        for l in &labels {
            let t = self.trees.get_mut(l).expect("tree exists");
            for (&vi, &(p, _)) in &std::mem::take(&mut t.entries) {
                if let Some(p) = p {
                    let key = (vi.min(u32::from(p)), vi.max(u32::from(p)));
                    if let Some(c) = self.edge_use.get_mut(&key) {
                        *c -= 1;
                    }
                }
            }
        }
        let mut max_new_depth = 0u64;
        let mut rebuild_msgs = 0u64;
        for (l, entries, depth) in replacements {
            rebuild_msgs += entries.len() as u64;
            max_new_depth = max_new_depth.max(depth as u64);
            for (&vi, &(p, _)) in &entries {
                if let Some(p) = p {
                    self.add_tree_edge(NodeId::new(vi as usize), p);
                }
            }
            let t = self.trees.get_mut(&l).expect("tree exists");
            t.entries = entries;
            t.depth = depth;
            t.dirty = false;
        }
        // Parallel truncated BFS over all rebuilt clusters, congested.
        ledger.charge_rounds(2 * max_new_depth * self.max_congestion.max(1) as u64);
        ledger.record_messages(rebuild_msgs, 2 * self.id_bits);
        // Depth high-water mark resets to the current maximum.
        self.max_depth = self
            .trees
            .values()
            .filter(|t| t.members > 0)
            .map(|t| t.depth)
            .max()
            .unwrap_or(0);
        Ok(())
    }

    /// Final clusters and forest.
    fn finish(self) -> WeakCarving {
        let mut clusters_by_label: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for v in self.alive.iter() {
            clusters_by_label
                .entry(self.label[v.index()])
                .or_default()
                .push(v);
        }
        let mut labels: Vec<u64> = clusters_by_label.keys().copied().collect();
        labels.sort_unstable();

        let mut clusters = Vec::with_capacity(labels.len());
        let mut trees = Vec::with_capacity(labels.len());
        for l in labels {
            let members = clusters_by_label.remove(&l).expect("label present");
            let data = &self.trees[&l];
            let mut tree = SteinerTree::singleton(data.root);
            let mut pairs: Vec<(u32, NodeId)> = data
                .entries
                .iter()
                .filter_map(|(&vi, &(p, _))| p.map(|p| (vi, p)))
                .collect();
            pairs.sort_unstable();
            for (vi, p) in pairs {
                tree.attach(NodeId::new(vi as usize), p);
            }
            clusters.push(members);
            trees.push(tree);
        }
        let carving =
            BallCarving::new(self.input, clusters).expect("label classes partition the alive set");
        WeakCarving::new(carving, SteinerForest::from_trees(trees))
            .expect("one tree per cluster by construction")
    }
}

impl Rg20 {
    /// Runs the carving on `G[alive]`, removing at most an `eps`
    /// fraction of `alive` and returning non-adjacent clusters with
    /// Steiner trees.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    pub fn carve(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> WeakCarving {
        self.carve_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    /// [`carve`](Self::carve) with a caller-held [`CarveCtx`]: the
    /// per-phase tree rebuilds (the GGR21 variant) run their BFS through
    /// the context's traversal workspace, and the context's armed
    /// deadline is honored at every traversal epoch — once per bit
    /// phase, once per growth step inside a phase, and once per rebuilt
    /// tree — so the abort latency is bounded by a single epoch, not a
    /// whole blue/red sweep. Output bit-identical to
    /// [`carve`](Self::carve) when it completes.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the armed deadline trips at an epoch boundary;
    /// the context stays safely reusable.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    pub fn carve_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<WeakCarving, Cancelled> {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        if alive.is_empty() {
            let carving = BallCarving::new(alive.clone(), vec![]).expect("empty carving");
            return Ok(WeakCarving::new(carving, SteinerForest::new()).expect("empty forest"));
        }
        let mut run = Run::new(g, alive);
        let b = run.id_bits;
        let eps_p = eps / b as f64;
        for bit in (0..b).rev() {
            ctx.checkpoint("rg20-bit-phase")?;
            run.phase(bit, eps_p, ledger, ctx)?;
            if self.rebuild_trees {
                run.rebuild_trees(REBUILD_DEPTH_THRESHOLD, ledger, ctx)?;
            }
        }
        let out = run.finish();
        debug_assert!(out.carving().dead_fraction() <= eps + 1e-9);
        Ok(out)
    }
}

impl WeakCarver for Rg20 {
    fn carve_weak(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> WeakCarving {
        self.carve(g, alive, eps, ledger)
    }

    fn carve_weak_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<WeakCarving, Cancelled> {
        self.carve_in(g, alive, eps, ledger, ctx)
    }

    fn name(&self) -> &'static str {
        if self.rebuild_trees {
            "ggr21"
        } else {
            "rg20"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_weak_carving;
    use sdnd_graph::gen;

    fn check(g: &Graph, eps: f64, carver: &Rg20) -> (WeakCarving, RoundLedger) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let wc = carver.carve(g, &alive, eps, &mut ledger);
        let report = validate_weak_carving(g, &wc);
        assert!(
            report.carving.is_valid_weak(eps),
            "weak contract violated (dead {:.3}): {:?}",
            report.carving.dead_fraction,
            report.violations
        );
        assert!(report.trees_well_formed, "trees: {:?}", report.violations);
        assert!(
            report.terminals_covered,
            "terminals: {:?}",
            report.violations
        );
        (wc, ledger)
    }

    #[test]
    fn carves_path() {
        let g = gen::path(32);
        let (wc, ledger) = check(&g, 0.5, &Rg20::rg20());
        assert!(wc.carving().num_clusters() >= 1);
        assert!(ledger.rounds() > 0);
    }

    #[test]
    fn carves_grid_with_small_eps() {
        let g = gen::grid(8, 8);
        let (wc, _) = check(&g, 0.25, &Rg20::rg20());
        assert!(wc.carving().dead_fraction() <= 0.25);
    }

    #[test]
    fn carves_random_graph() {
        let g = gen::gnp_connected(80, 0.05, 7);
        check(&g, 0.5, &Rg20::rg20());
    }

    #[test]
    fn carves_expander() {
        let g = gen::random_regular_connected(60, 4, 3).unwrap();
        check(&g, 0.5, &Rg20::rg20());
    }

    #[test]
    fn ggr21_variant_also_valid() {
        let g = gen::grid(9, 9);
        let (wc_plain, _) = check(&g, 0.5, &Rg20::rg20());
        let (wc_rebuilt, _) = check(&g, 0.5, &Rg20::ggr21());
        // The rebuild variant never has deeper trees.
        let d_plain = wc_plain.forest().max_depth().unwrap();
        let d_rebuilt = wc_rebuilt.forest().max_depth().unwrap();
        assert!(
            d_rebuilt <= d_plain.max(4),
            "rebuilt {d_rebuilt} vs plain {d_plain}"
        );
    }

    #[test]
    fn adversarial_ids_still_valid() {
        let n = 49;
        let g = gen::grid(7, 7);
        // Reverse identifiers: high ids in the corner.
        let ids: Vec<u64> = (0..n as u64).rev().collect();
        let g = g.with_ids(ids).unwrap();
        check(&g, 0.5, &Rg20::rg20());
    }

    #[test]
    fn respects_alive_subset() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::from_nodes(36, (0..36).filter(|&i| i % 7 != 3).map(NodeId::new));
        let mut ledger = RoundLedger::new();
        let wc = Rg20::rg20().carve(&g, &alive, 0.5, &mut ledger);
        let report = validate_weak_carving(&g, &wc);
        assert!(report.carving.is_valid_weak(0.5), "{:?}", report.violations);
        // No cluster contains a node outside the alive set (checked by
        // construction, but assert the input set matched).
        assert_eq!(wc.carving().input(), &alive);
    }

    #[test]
    fn singleton_and_empty_inputs() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let empty = Rg20::rg20().carve(&g, &NodeSet::empty(3), 0.5, &mut ledger);
        assert_eq!(empty.carving().num_clusters(), 0);

        let one = NodeSet::from_nodes(3, [NodeId::new(1)]);
        let wc = Rg20::rg20().carve(&g, &one, 0.5, &mut ledger);
        assert_eq!(wc.carving().num_clusters(), 1);
        assert_eq!(wc.carving().dead_fraction(), 0.0);
    }

    #[test]
    fn congest_compliance() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::full(36);
        let mut ledger = RoundLedger::new();
        let _ = Rg20::rg20().carve(&g, &alive, 0.5, &mut ledger);
        let cost = sdnd_congest::CostModel::congest_for(36);
        assert!(
            ledger.complies_with(&cost),
            "max message {} bits exceeds budget {}",
            ledger.max_message_bits(),
            cost.bits_per_message()
        );
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn rejects_bad_eps() {
        let g = gen::path(4);
        let mut ledger = RoundLedger::new();
        let _ = Rg20::rg20().carve(&g, &NodeSet::full(4), 1.5, &mut ledger);
    }

    #[test]
    fn rebuild_rounds_do_not_depend_on_hash_order() {
        // Each run hashes with fresh keys, so runs visit the rebuilt trees
        // in different orders; on this graph an order-dependent
        // congestion high-water mark split the rounds between two values.
        let g = gen::random_regular_connected(300, 4, 3).unwrap();
        let rounds = || {
            let mut ledger = RoundLedger::new();
            Rg20::ggr21().carve(&g, &NodeSet::full(g.n()), 0.5, &mut ledger);
            ledger.rounds()
        };
        let first = rounds();
        assert!((1..16).all(|_| rounds() == first));
    }
}
