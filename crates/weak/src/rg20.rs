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
//!
//! # State layout and cost
//!
//! A cluster's label is always its root's identifier, so a run on the
//! alive set `S` numbers its clusters by **slot**: the position of the
//! root in `S`'s index order. All state is dense:
//!
//! - per slot: the label and the tree (its non-root `(node, parent)`
//!   entries, its helpers' depths, member count, depth, and a dirty flag
//!   for the rebuild);
//! - per node: the slot of its cluster, its depth in that cluster's
//!   tree, and a rebuild-prune stamp, in `u32` buffers lent by the
//!   [`CarveCtx`] workspace and written only at the nodes of `S`;
//! - per edge: the number of trees using it (the congestion), in the
//!   workspace's all-zero buffer indexed by directed-edge slot; the run
//!   resets only the entries it raised.
//!
//! The one lookup that is neither by slot nor by node — is a joining
//! node already a helper in its new cluster's tree, and at what depth —
//! goes to that tree's helper map, keyed by node with a one-multiply
//! integer hash. A rebuild replaces the map with the new tree's helpers.
//!
//! So a call pays for `S` and its edges: `O(|S|)` to set up and per bit
//! phase, plus the volume of each growth step's candidates and each
//! rebuild's truncated BFS. What remains proportional to the whole graph
//! is word-level work: the alive-set copies (`n / 64` words) and the
//! node-indexed cluster map of the returned [`BallCarving`].

use sdnd_clustering::{
    BallCarving, Cancelled, CarveCtx, SteinerForest, SteinerTree, WeakCarver, WeakCarving,
};
use sdnd_congest::RoundLedger;
use sdnd_graph::algo::TraversalWorkspace;
use sdnd_graph::{Graph, NodeId, NodeSet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Only trees deeper than this are rebuilt by the GGR21 variant
/// (rebuilding is pointless for shallow trees and singletons).
const REBUILD_DEPTH_THRESHOLD: u32 = 4;

/// "Not listed" marker in per-slot position arrays.
const NO_SLOT: u32 = u32::MAX;

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

/// Per-cluster bookkeeping during the run, stored in the slot of the
/// cluster's root.
#[derive(Default)]
struct Tree {
    /// Every tree node but the root, with its parent. A node appears at
    /// most once: a join reuses an existing entry instead of adding one.
    edges: Vec<(NodeId, NodeId)>,
    /// Depth of every alive tree node that is not a member (a helper),
    /// by node index. Entries of nodes that died may linger; they are
    /// never read.
    helpers: HashMap<u32, u32, BuildHasherDefault<NodeHasher>>,
    /// Current number of members (terminals).
    members: u32,
    /// Deepest entry.
    depth: u32,
    /// Whether the tree or its member set changed since the last
    /// rebuild. A clean tree would rebuild to the identical result (the
    /// BFS is deterministic over fixed root, members, and input set), so
    /// rebuilding it — and charging rounds for it — is pure waste.
    dirty: bool,
}

impl Tree {
    /// Number of tree nodes, root included.
    fn len(&self) -> usize {
        self.edges.len() + 1
    }
}

/// Hashes the node-index keys of the helper maps with one multiply,
/// folded so the high product bits reach the low bits the table indexes
/// by. The keys are run-local integers, not attacker-chosen, so
/// SipHash's flooding resistance buys nothing here.
#[derive(Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("helper keys are hashed with write_u32")
    }

    fn write_u32(&mut self, x: u32) {
        let h = u64::from(x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Takes a pooled per-node `u32` buffer of at least `n` entries
/// (contents unspecified).
fn take_node_buf(ws: &mut TraversalWorkspace, n: usize) -> Vec<u32> {
    let mut buf = ws.take_aux_u32();
    if buf.len() < n {
        buf.resize(n, 0);
    }
    buf
}

struct Run<'g> {
    g: &'g Graph,
    input: NodeSet,
    alive: NodeSet,
    /// The input nodes in index order; slot `i` is the cluster (and
    /// tree) rooted at `nodes[i]`.
    nodes: Vec<NodeId>,
    /// Label of each slot: its root's identifier.
    slot_label: Vec<u64>,
    trees: Vec<Tree>,
    /// Per node (pooled, indexed by node; valid for input nodes): the
    /// slot of its current cluster.
    cluster: Vec<u32>,
    /// Per node (pooled; valid for alive nodes): its depth in its own
    /// cluster's tree.
    depth: Vec<u32>,
    /// Per node (pooled; zeroed on the input nodes): the prune stamp of
    /// the tree rebuild that last reached it.
    mark: Vec<u32>,
    /// Last stamp handed out to a tree rebuild.
    stamp: u32,
    /// Edge congestion: number of trees using each edge, indexed by the
    /// directed-edge slot of its `low -> high` orientation (pooled, all
    /// zero between runs).
    edge_use: Vec<u32>,
    /// Every `edge_use` slot this run raised from 0 (some repeat), so
    /// `finish` can hand the buffer back all zero.
    used_edges: Vec<u32>,
    max_congestion: u32,
    max_depth: u32,
    id_bits: u32,
}

impl<'g> Run<'g> {
    fn new(g: &'g Graph, alive0: &NodeSet, ws: &mut TraversalWorkspace) -> Self {
        let nodes: Vec<NodeId> = alive0.iter().collect();
        let k = nodes.len();
        let mut cluster = take_node_buf(ws, g.n());
        let mut depth = take_node_buf(ws, g.n());
        let mut mark = take_node_buf(ws, g.n());
        for (slot, &v) in nodes.iter().enumerate() {
            cluster[v.index()] = slot as u32;
            depth[v.index()] = 0;
            mark[v.index()] = 0;
        }
        let mut alive = ws.take_set(g.n());
        alive.assign(alive0);
        Run {
            g,
            input: alive0.clone(),
            alive,
            slot_label: nodes.iter().map(|&v| g.id_of(v)).collect(),
            trees: (0..k)
                .map(|_| Tree {
                    members: 1,
                    dirty: true,
                    ..Tree::default()
                })
                .collect(),
            nodes,
            cluster,
            depth,
            mark,
            stamp: 0,
            edge_use: ws.take_zeroed_u32(g.directed_edges()),
            used_edges: Vec::new(),
            max_congestion: 0,
            max_depth: 0,
            id_bits: g.id_bits(),
        }
    }

    /// Label of `v`'s current cluster.
    fn label(&self, v: NodeId) -> u64 {
        self.slot_label[self.cluster[v.index()] as usize]
    }

    fn is_red(&self, v: NodeId, bit: u32) -> bool {
        self.label(v) >> bit & 1 == 1
    }

    /// The `edge_use` index of tree edge `{v, p}`: the directed-edge
    /// slot of its `low -> high` orientation.
    fn edge_slot(&self, v: NodeId, p: NodeId) -> usize {
        self.g
            .directed_edge(v.min(p), v.max(p))
            .expect("tree edges are graph edges")
    }

    fn add_tree_edge(&mut self, v: NodeId, p: NodeId) {
        let e = self.edge_slot(v, p);
        let c = &mut self.edge_use[e];
        if *c == 0 {
            self.used_edges.push(e as u32);
        }
        *c += 1;
        self.max_congestion = self.max_congestion.max(*c);
    }

    /// Collects the requests of one step: for every alive blue node in
    /// `candidates` adjacent to an alive red member, the chosen target
    /// `(requester, target slot, gateway neighbor)`.
    fn collect_requests(&self, bit: u32, candidates: &[NodeId]) -> Vec<(NodeId, u32, NodeId)> {
        let mut requests = Vec::new();
        for &v in candidates {
            if !self.alive.contains(v) || self.is_red(v, bit) {
                continue;
            }
            let mut best: Option<(u64, NodeId)> = None;
            for &w in self.g.neighbors(v) {
                if !self.alive.contains(w) || !self.is_red(w, bit) {
                    continue;
                }
                let lw = self.label(w);
                if best.is_none_or(|b| (lw, w) < b) {
                    best = Some((lw, w));
                }
            }
            if let Some((_, w)) = best {
                requests.push((v, self.cluster[w.index()], w));
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
        let mut candidates: Vec<NodeId> = self
            .nodes
            .iter()
            .copied()
            .filter(|&v| self.alive.contains(v))
            .collect();
        let step_cap = 16 * (self.alive.len() as u64 + 4) * (self.id_bits as u64 + 1);

        loop {
            ctx.checkpoint("rg20-growth-step")?;
            let mut requests = self.collect_requests(bit, &candidates);
            if requests.is_empty() {
                break;
            }
            steps += 1;
            assert!(steps <= step_cap, "RG20 phase failed to terminate");

            // Group requests by target label, labels ascending and each
            // group's requesters in index order.
            requests.sort_unstable_by_key(|&(v, slot, _)| (self.slot_label[slot as usize], v));
            let groups = || requests.chunk_by(|a, b| a.1 == b.1);

            // Cost of the step: one request round, one converge-cast and
            // one decision broadcast over the requested trees (depth x
            // congestion, the paper's costing), one label-announce round.
            let b = self.id_bits;
            let tree_msgs: u64 = groups()
                .map(|reqs| 2 * self.trees[reqs[0].1 as usize].len() as u64)
                .sum();
            ledger.charge_rounds(2);
            ledger.charge_rounds(
                2 * self.max_depth.max(1) as u64 * self.max_congestion.max(1) as u64,
            );
            ledger.record_messages(requests.len() as u64, 2 * b);
            ledger.record_messages(tree_msgs, 2 * b);

            // Decisions and applications.
            let mut exposed: Vec<NodeId> = Vec::new();
            for reqs in groups() {
                let slot = reqs[0].1;
                let cluster_size = self.trees[slot as usize].members;
                let accept = reqs.len() as f64 >= eps_p * cluster_size as f64;
                if accept {
                    for &(v, _, w) in reqs {
                        self.join(v, slot, w);
                        exposed.push(v);
                    }
                    // Announce the new labels (one round, already charged;
                    // messages to each neighbor).
                    let announce: u64 = reqs.iter().map(|&(v, _, _)| self.g.degree(v) as u64).sum();
                    ledger.record_messages(announce, b);
                } else {
                    for &(v, _, _) in reqs {
                        self.kill(v);
                    }
                }
            }

            // Next step's candidates: neighbors of newly joined nodes.
            let mut next: Vec<NodeId> = Vec::new();
            for &v in &exposed {
                next.extend_from_slice(self.g.neighbors(v));
            }
            next.sort_unstable();
            next.dedup();
            candidates = next;
        }
        Ok(steps)
    }

    /// Moves `v` into the cluster of `slot` via gateway `w`.
    fn join(&mut self, v: NodeId, slot: u32, w: NodeId) {
        let old = self.cluster[v.index()];
        debug_assert_ne!(old, slot);
        debug_assert!(
            self.alive.contains(w) && self.cluster[w.index()] == slot,
            "the gateway is a member of the target cluster"
        );
        let t = &mut self.trees[old as usize];
        t.members -= 1;
        t.dirty = true;
        // v stays in the old tree as a helper.
        t.helpers.insert(u32::from(v), self.depth[v.index()]);
        self.cluster[v.index()] = slot;
        let t = &mut self.trees[slot as usize];
        t.members += 1;
        t.dirty = true;
        if let Some(d) = t.helpers.remove(&u32::from(v)) {
            // v was already a helper in this tree: its old attachment is
            // reused — no new edge, no depth change.
            self.depth[v.index()] = d;
        } else {
            let d = self.depth[w.index()] + 1;
            t.edges.push((v, w));
            t.depth = t.depth.max(d);
            self.max_depth = self.max_depth.max(t.depth);
            self.depth[v.index()] = d;
            self.add_tree_edge(v, w);
        }
    }

    /// Kills `v` (declined requester). It stays a helper in its tree.
    fn kill(&mut self, v: NodeId) {
        let t = &mut self.trees[self.cluster[v.index()] as usize];
        t.members -= 1;
        t.dirty = true;
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
        let slots: Vec<u32> = (0..self.trees.len() as u32)
            .filter(|&s| {
                let t = &self.trees[s as usize];
                t.dirty && t.members >= 2 && t.depth > threshold
            })
            .collect();
        if slots.is_empty() {
            return Ok(());
        }
        // One pass over the input groups the members of every rebuilt
        // slot (instead of one scan per slot).
        let mut pos = vec![NO_SLOT; self.trees.len()];
        for (i, &s) in slots.iter().enumerate() {
            pos[s as usize] = i as u32;
        }
        let mut members_of: Vec<Vec<NodeId>> = vec![Vec::new(); slots.len()];
        for &v in &self.nodes {
            let i = pos[self.cluster[v.index()] as usize];
            if i != NO_SLOT && self.alive.contains(v) {
                members_of[i as usize].push(v);
            }
        }

        // Pass 1: compute the replacement trees and their helpers.
        let mut replacements = Vec::with_capacity(slots.len());
        {
            let view = self.g.view(&self.input);
            for (&slot, members) in slots.iter().zip(&members_of) {
                ctx.checkpoint("rg20-tree-rebuild")?;
                let root = self.nodes[slot as usize];
                let old = &self.trees[slot as usize];
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
                    old.depth,
                    &mut scratch,
                    &mut ctx.ws,
                );
                // Prune to the union of root-to-member paths. The root
                // stays in the tree even if it left the cluster.
                self.stamp += 1;
                self.mark[root.index()] = self.stamp;
                let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
                let mut helpers = HashMap::default();
                if self.cluster[root.index()] != slot && self.alive.contains(root) {
                    helpers.insert(u32::from(root), 0);
                }
                let mut depth = 0u32;
                for &m in members {
                    debug_assert!(bfs.reached(m), "member must be reachable from root");
                    depth = depth.max(bfs.dist(m));
                    self.depth[m.index()] = bfs.dist(m);
                    let mut cur = m;
                    while self.mark[cur.index()] != self.stamp {
                        self.mark[cur.index()] = self.stamp;
                        let p = bfs.parent(cur).expect("non-root reached node has parent");
                        edges.push((cur, p));
                        if self.cluster[cur.index()] != slot && self.alive.contains(cur) {
                            helpers.insert(u32::from(cur), bfs.dist(cur));
                        }
                        cur = p;
                    }
                }
                replacements.push((slot, edges, helpers, depth));
            }
        }

        // Pass 2: swap trees and edge-use counts. The trees are rebuilt
        // in parallel, so every old edge goes before any new one is
        // added: the congestion high-water mark must not depend on the
        // order the trees are visited in.
        for &slot in &slots {
            for (v, p) in std::mem::take(&mut self.trees[slot as usize].edges) {
                let e = self.edge_slot(v, p);
                self.edge_use[e] -= 1;
            }
        }
        let mut max_new_depth = 0u64;
        let mut rebuild_msgs = 0u64;
        for (slot, edges, helpers, depth) in replacements {
            rebuild_msgs += edges.len() as u64 + 1;
            max_new_depth = max_new_depth.max(depth as u64);
            for &(v, p) in &edges {
                self.add_tree_edge(v, p);
            }
            let t = &mut self.trees[slot as usize];
            t.edges = edges;
            t.helpers = helpers;
            t.depth = depth;
            t.dirty = false;
        }
        // Parallel truncated BFS over all rebuilt clusters, congested.
        ledger.charge_rounds(2 * max_new_depth * self.max_congestion.max(1) as u64);
        ledger.record_messages(rebuild_msgs, 2 * self.id_bits);
        // Depth high-water mark resets to the current maximum.
        self.max_depth = self
            .trees
            .iter()
            .filter(|t| t.members > 0)
            .map(|t| t.depth)
            .max()
            .unwrap_or(0);
        Ok(())
    }

    /// Final clusters and forest; hands the pooled buffers back to `ws`.
    fn finish(mut self, ws: &mut TraversalWorkspace) -> WeakCarving {
        // Clusters in label order, each with its members in index order
        // and its tree's (node, parent) pairs sorted by node.
        let mut slots: Vec<u32> = (0..self.trees.len() as u32)
            .filter(|&s| self.trees[s as usize].members > 0)
            .collect();
        slots.sort_unstable_by_key(|&s| self.slot_label[s as usize]);
        let mut pos = vec![NO_SLOT; self.trees.len()];
        let mut clusters: Vec<Vec<NodeId>> = Vec::with_capacity(slots.len());
        let mut trees = Vec::with_capacity(slots.len());
        for (i, &s) in slots.iter().enumerate() {
            pos[s as usize] = i as u32;
            let t = &mut self.trees[s as usize];
            clusters.push(Vec::with_capacity(t.members as usize));
            let mut pairs = std::mem::take(&mut t.edges);
            pairs.sort_unstable();
            trees.push(SteinerTree::from_parents(self.nodes[s as usize], pairs));
        }
        for &v in &self.nodes {
            if self.alive.contains(v) {
                clusters[pos[self.cluster[v.index()] as usize] as usize].push(v);
            }
        }
        for &e in &self.used_edges {
            self.edge_use[e as usize] = 0;
        }
        ws.give_zeroed_u32(self.edge_use);
        ws.give_aux_u32(self.cluster);
        ws.give_aux_u32(self.depth);
        ws.give_aux_u32(self.mark);
        ws.give_set(self.alive);
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
        let mut run = Run::new(g, alive, &mut ctx.ws);
        let b = run.id_bits;
        let eps_p = eps / b as f64;
        for bit in (0..b).rev() {
            ctx.checkpoint("rg20-bit-phase")?;
            run.phase(bit, eps_p, ledger, ctx)?;
            if self.rebuild_trees {
                run.rebuild_trees(REBUILD_DEPTH_THRESHOLD, ledger, ctx)?;
            }
        }
        let out = run.finish(&mut ctx.ws);
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
