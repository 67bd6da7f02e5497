//! Compressed sparse row graph representation.

use crate::{FullView, GraphError, NodeId, NodeSet, SubsetView};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

/// A simple undirected graph in CSR form, with unique node identifiers
/// and optional edge weights.
///
/// Nodes are dense indices `0..n` (see [`NodeId`]). Each node additionally
/// carries a unique `O(log n)`-bit *identifier* used by the distributed
/// algorithms for symmetry breaking (leader election, the RG20 bit phases,
/// and so on). By default the identifier of node `v` is `v` itself, but an
/// arbitrary injection can be installed with [`Graph::with_ids`] — the
/// property-based tests use this to check the algorithms under adversarial
/// identifier assignments.
///
/// Edge weights are opt-in: [`GraphBuilder::weighted_edge`] attaches a
/// finite non-negative `f64` weight to an edge, [`Graph::weight`] reads
/// it back per directed-edge slot, and [`Graph::is_weighted`] tells the
/// distance layer whether to run Dijkstra or stay on the hop-count BFS
/// fast path. Unweighted graphs store no weight array at all.
///
/// # Example
///
/// ```
/// use sdnd_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.degree(sdnd_graph::NodeId::new(1)), 2);
/// # Ok::<(), sdnd_graph::GraphError>(())
/// ```
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    ids: Vec<u64>,
    /// Optional edge weights, aligned with the directed-edge slots of
    /// `adj`: `weights[e]` is the weight of the undirected edge behind
    /// slot `e`, so the two orientations of an edge carry the same
    /// weight. `None` means the graph is unweighted (every edge counts
    /// as weight 1), which keeps the hop-count algorithms on their
    /// allocation-free fast path.
    weights: Option<Vec<f64>>,
    /// Lazily built reverse-edge table (see [`reverse_edges`]); derived
    /// from the topology, so it is excluded from equality and
    /// serialization and survives [`with_ids`].
    ///
    /// [`reverse_edges`]: Self::reverse_edges
    /// [`with_ids`]: Self::with_ids
    rev: OnceLock<Vec<usize>>,
    /// Lazily computed [`id_bits`](Self::id_bits); derived from `ids`,
    /// so it is excluded from equality and serialization and reset by
    /// [`with_ids`](Self::with_ids).
    id_bits: OnceLock<u32>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            offsets: self.offsets.clone(),
            adj: self.adj.clone(),
            ids: self.ids.clone(),
            weights: self.weights.clone(),
            rev: self.rev.clone(),
            id_bits: self.id_bits.clone(),
        }
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // `rev` and `id_bits` are caches of pure functions of the stored
        // fields: ignore them.
        // Weights (including weightedness itself) are part of identity: a
        // unit-weighted graph is *not* equal to its unweighted twin.
        self.offsets == other.offsets
            && self.adj == other.adj
            && self.ids == other.ids
            && self.weights == other.weights
    }
}

impl Eq for Graph {}

impl Serialize for Graph {
    fn to_value(&self) -> Value {
        // Matches the derive's struct-as-object representation, minus the
        // `rev` cache (derived data has no business in the artifact). The
        // `weights` field is emitted only for weighted graphs, so
        // unweighted artifacts keep their pre-weights shape.
        let mut fields = vec![
            ("offsets".to_string(), self.offsets.to_value()),
            ("adj".to_string(), self.adj.to_value()),
            ("ids".to_string(), self.ids.to_value()),
        ];
        if let Some(w) = &self.weights {
            fields.push(("weights".to_string(), w.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| DeError::msg(format!("Graph: missing field `{k}`")))
        };
        Ok(Graph {
            offsets: Vec::from_value(field("offsets")?)?,
            adj: Vec::from_value(field("adj")?)?,
            ids: Vec::from_value(field("ids")?)?,
            weights: v.get("weights").map(Vec::from_value).transpose()?,
            rev: OnceLock::new(),
            id_bits: OnceLock::new(),
        })
    }
}

impl Graph {
    /// A stable 64-bit hash of the graph's *content*: CSR structure,
    /// edge weights, and original node ids — exactly what a `.csrbin`
    /// cache file persists, hashed with the same slicing-by-16 CRC32
    /// machinery (widened to 64 bits by a second chained pass).
    ///
    /// Two graphs hash equal iff their canonical cache encodings are
    /// byte-identical, so serde/cache round trips preserve the hash
    /// while relabelings (which permute CSR rows and ids) change it.
    /// The serve layer keys its decomposition LRU on this value.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        crate::dataset::content_hash(self)
    }

    /// Starts building a graph with `n` nodes.
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
            weighted: false,
        }
    }

    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges are collapsed; `(u, v)` and `(v, u)` denote the same
    /// edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] or [`GraphError::NodeOutOfRange`]
    /// for invalid edges.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut b = Self::builder(n);
        for (u, v) in edges {
            b.edge(u, v);
        }
        b.build()
    }

    /// Builds a weighted graph with `n` nodes from a weighted edge list.
    ///
    /// Duplicate edges keep the minimum weight (see
    /// [`GraphBuilder::build`] for the full policy).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`], [`GraphError::NodeOutOfRange`],
    /// or [`GraphError::InvalidWeight`] for invalid edges.
    pub fn from_weighted_edges<I>(n: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut b = Self::builder(n);
        for (u, v, w) in edges {
            b.weighted_edge(u, v, w);
        }
        b.build()
    }

    /// Builds a graph with `n` nodes from a *replayable* edge stream in
    /// two counting passes — degree histogram, prefix offsets, scatter —
    /// without ever materializing the edge list.
    ///
    /// `stream` is invoked twice and must yield the identical edge
    /// sequence both times (re-seed a generator, re-read a file). This
    /// is the construction path for million-edge graphs: peak transient
    /// memory is the degree histogram (`8 B`/node) instead of the
    /// `24 B`/edge tuple buffer of [`GraphBuilder`], and there is no
    /// global `O(m log m)` sort — each adjacency row is sorted
    /// individually, which stays cache-local. Duplicate edges collapse
    /// exactly as [`GraphBuilder::build`] collapses them.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyNodes`], [`GraphError::SelfLoop`],
    /// or [`GraphError::NodeOutOfRange`] for invalid inputs, and
    /// [`GraphError::InvalidParameter`] if the two invocations of
    /// `stream` disagree.
    pub fn from_edge_stream<I, F>(n: usize, mut stream: F) -> Result<Graph, GraphError>
    where
        F: FnMut() -> I,
        I: IntoIterator<Item = (usize, usize)>,
    {
        Self::from_weighted_edge_stream_impl(n, false, || {
            let it = stream();
            it.into_iter().map(|(u, v)| (u, v, 1.0))
        })
    }

    /// Weighted twin of [`from_edge_stream`](Self::from_edge_stream):
    /// the same two-pass counting construction over `(u, v, w)` triples,
    /// with the duplicate-collapse-to-minimum-weight policy of
    /// [`GraphBuilder::build`].
    ///
    /// # Errors
    ///
    /// As [`from_edge_stream`](Self::from_edge_stream), plus
    /// [`GraphError::InvalidWeight`] for negative or non-finite weights.
    pub fn from_weighted_edge_stream<I, F>(n: usize, mut stream: F) -> Result<Graph, GraphError>
    where
        F: FnMut() -> I,
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        Self::from_weighted_edge_stream_impl(n, true, move || stream().into_iter())
    }

    fn from_weighted_edge_stream_impl<I, F>(
        n: usize,
        weighted: bool,
        mut stream: F,
    ) -> Result<Graph, GraphError>
    where
        F: FnMut() -> I,
        I: Iterator<Item = (usize, usize, f64)>,
    {
        check_node_count(n)?;
        // Pass 1: validate and count directed slots per node.
        let mut deg = vec![0usize; n];
        for (u, v, w) in stream() {
            validate_edge(n, u, v, w)?;
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut scatter = CsrScatter::from_degrees(deg, weighted);
        // Pass 2: scatter. A stream that yields different edges the
        // second time would overflow its rows; `put` checks.
        for (u, v, w) in stream() {
            validate_edge(n, u, v, w)?;
            scatter.put(u, v, w)?;
            scatter.put(v, u, w)?;
        }
        scatter.finish((0..n as u64).collect())
    }

    /// Assembles a graph directly from CSR parts the caller guarantees
    /// valid: monotone `offsets`, rows sorted strictly ascending with
    /// in-range neighbors, symmetric adjacency, `weights` (if any) and
    /// `ids` aligned. Used by the relabeling pass and the binary cache
    /// loader, which both start from an already-valid graph.
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        adj: Vec<NodeId>,
        ids: Vec<u64>,
        weights: Option<Vec<f64>>,
    ) -> Graph {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.len(), ids.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap(), adj.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == adj.len()));
        Graph {
            offsets,
            adj,
            ids,
            weights,
            rev: OnceLock::new(),
            id_bits: OnceLock::new(),
        }
    }

    /// Creates the empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Graph {
        Graph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
            ids: (0..n as u64).collect(),
            weights: None,
            rev: OnceLock::new(),
            id_bits: OnceLock::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Maximum degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(NodeId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// The neighbors of `v`, sorted by index.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of *directed* edge slots (`2 m`): every undirected edge
    /// `{u, v}` contributes the slots `u -> v` and `v -> u`.
    ///
    /// Directed edges are identified by their position in the CSR
    /// adjacency array, so the slots of `v`'s out-edges form the
    /// contiguous range [`out_slot_range`](Self::out_slot_range)`(v)`,
    /// ordered by neighbor index.
    #[inline]
    pub fn directed_edges(&self) -> usize {
        self.adj.len()
    }

    /// The contiguous range of directed-edge ids leaving `v`, aligned
    /// with [`neighbors`](Self::neighbors)`(v)`: the edge to the `k`-th
    /// neighbor has id `out_slot_range(v).start + k`.
    #[inline]
    pub fn out_slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()]..self.offsets[v.index() + 1]
    }

    /// The rank of `to` within `from`'s sorted neighbor list, or `None`
    /// if the edge is absent. `O(log deg(from))`.
    #[inline]
    pub fn neighbor_rank(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.neighbors(from).binary_search(&to).ok()
    }

    /// The directed-edge id of `from -> to`, or `None` if absent.
    #[inline]
    pub fn directed_edge(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.neighbor_rank(from, to)
            .map(|rank| self.offsets[from.index()] + rank)
    }

    /// The head (target) of directed edge `e`: for `e = directed_edge(u,
    /// v)`, returns `v`.
    #[inline]
    pub fn edge_head(&self, e: usize) -> NodeId {
        self.adj[e]
    }

    /// Whether this graph carries edge weights.
    ///
    /// Unweighted graphs behave as if every edge had weight 1 (see
    /// [`weight`](Self::weight)), but the distance algorithms use the
    /// flag to stay on the integer hop-count fast path.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The weight of directed edge slot `e` (1 for unweighted graphs).
    ///
    /// Both orientations of an undirected edge carry the same weight.
    #[inline]
    pub fn weight(&self, e: usize) -> f64 {
        match &self.weights {
            Some(w) => w[e],
            None => 1.0,
        }
    }

    /// The weight array aligned with the directed-edge slots, or `None`
    /// for unweighted graphs.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// The weight of the edge `{u, v}`, or `None` if the edge is absent.
    /// Returns 1 for present edges of unweighted graphs.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.directed_edge(u, v).map(|e| self.weight(e))
    }

    /// The largest edge weight (1 for unweighted or edgeless graphs).
    pub fn max_edge_weight(&self) -> f64 {
        match &self.weights {
            Some(w) if !w.is_empty() => w.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            _ => 1.0,
        }
    }

    /// The reverse-edge table: `rev[e]` is the directed-edge id of the
    /// opposite orientation, so `rev[directed_edge(u, v)] ==
    /// directed_edge(v, u)`.
    ///
    /// Built lazily in `O(n + m)` on first use and cached on the graph
    /// for its whole lifetime, so every engine construction and session
    /// on the same `Graph` shares one table.
    pub fn reverse_edges(&self) -> &[usize] {
        self.rev.get_or_init(|| {
            let mut rev = vec![0usize; self.adj.len()];
            let n = self.n();
            let mut cursor: Vec<usize> = self.offsets[..n].to_vec();
            for u in 0..n {
                let row = self.offsets[u]..self.offsets[u + 1];
                for (rev_e, &v) in rev[row.clone()].iter_mut().zip(&self.adj[row]) {
                    // Scanning tails in ascending order visits each head's
                    // sorted in-row exactly in order, so `v`'s next
                    // unmatched row position is the slot of `v -> u`.
                    *rev_e = cursor[v.index()];
                    cursor[v.index()] += 1;
                }
            }
            rev
        })
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.n()).map(NodeId::new)
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            g: self,
            u: 0,
            pos: 0,
        }
    }

    /// Iterates over each undirected edge once with its weight, as
    /// `(u, v, w)` with `u < v` (weight 1 on unweighted graphs).
    pub fn weighted_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |u| {
            self.out_slot_range(u)
                .zip(self.neighbors(u).iter().copied())
                .filter(move |&(_, v)| u < v)
                .map(move |(e, v)| (u, v, self.weight(e)))
        })
    }

    /// The unique identifier of node `v`.
    #[inline]
    pub fn id_of(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// The node whose identifier is minimum (the canonical leader).
    ///
    /// Returns `None` for the empty graph.
    pub fn min_id_node(&self) -> Option<NodeId> {
        self.nodes().min_by_key(|&v| self.id_of(v))
    }

    /// Number of bits needed to write every identifier (at least 1).
    ///
    /// Computed once per graph: the RG20 carver asks on every call, and
    /// a scan of all `n` ids would make a carve of a few nodes cost
    /// `O(n)`.
    pub fn id_bits(&self) -> u32 {
        *self.id_bits.get_or_init(|| {
            let max = self.ids.iter().copied().max().unwrap_or(0);
            (64 - max.leading_zeros()).max(1)
        })
    }

    /// Replaces the identifier assignment.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IdLengthMismatch`] if `ids.len() != n`, and
    /// [`GraphError::DuplicateId`] if the assignment is not injective.
    pub fn with_ids(mut self, ids: Vec<u64>) -> Result<Graph, GraphError> {
        if ids.len() != self.n() {
            return Err(GraphError::IdLengthMismatch {
                got: ids.len(),
                expected: self.n(),
            });
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateId { id: w[0] });
        }
        self.ids = ids;
        self.id_bits = OnceLock::new();
        Ok(self)
    }

    /// A view of the whole graph (every node alive).
    pub fn full_view(&self) -> FullView<'_> {
        FullView::new(self)
    }

    /// The induced view `G[S]` of the alive set `S`.
    ///
    /// # Panics
    ///
    /// Panics if the universe of `alive` differs from `n`.
    pub fn view<'a>(&'a self, alive: &'a NodeSet) -> SubsetView<'a> {
        SubsetView::new(self, alive)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

/// Iterator over the undirected edges of a [`Graph`], produced by
/// [`Graph::edges`].
pub struct EdgeIter<'a> {
    g: &'a Graph,
    u: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.u < self.g.n() {
            let end = self.g.offsets[self.u + 1];
            while self.pos < end {
                let v = self.g.adj[self.pos];
                self.pos += 1;
                if self.u < v.index() {
                    return Some((NodeId::new(self.u), v));
                }
            }
            self.u += 1;
        }
        None
    }
}

/// Incremental builder for [`Graph`], following the builder pattern.
///
/// ```
/// use sdnd_graph::Graph;
///
/// let mut b = Graph::builder(4);
/// b.edge(0, 1).edge(1, 2).edge(2, 3);
/// let g = b.build()?;
/// assert_eq!(g.m(), 3);
/// # Ok::<(), sdnd_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
    weighted: bool,
}

impl GraphBuilder {
    /// Adds the undirected edge `{u, v}` with weight 1. Duplicates are
    /// collapsed at [`build`](Self::build) time.
    pub fn edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.edges.push((u, v, 1.0));
        self
    }

    /// Adds every edge in the iterator.
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, it: I) -> &mut Self {
        self.edges.extend(it.into_iter().map(|(u, v)| (u, v, 1.0)));
        self
    }

    /// Adds the undirected edge `{u, v}` with weight `w`, marking the
    /// graph as weighted. Plain [`edge`](Self::edge) calls on a weighted
    /// builder contribute weight 1.
    pub fn weighted_edge(&mut self, u: usize, v: usize, w: f64) -> &mut Self {
        self.edges.push((u, v, w));
        self.weighted = true;
        self
    }

    /// Adds every weighted edge in the iterator.
    pub fn weighted_edges<I: IntoIterator<Item = (usize, usize, f64)>>(
        &mut self,
        it: I,
    ) -> &mut Self {
        for (u, v, w) in it {
            self.weighted_edge(u, v, w);
        }
        self
    }

    /// Marks the graph as weighted even if no [`weighted_edge`] call is
    /// made — needed when extracting a (possibly edgeless) weighted
    /// subgraph that must keep its metric.
    ///
    /// [`weighted_edge`]: Self::weighted_edge
    pub fn weighted(&mut self) -> &mut Self {
        self.weighted = true;
        self
    }

    /// Finalizes the graph.
    ///
    /// Duplicate edges (including `(u, v)` vs `(v, u)`) collapse into
    /// one; when any copies carry weights, the collapsed edge keeps the
    /// **minimum** weight — the only choice under which weighted
    /// distances never increase when a parallel edge is added, matching
    /// the shortest-path semantics downstream.
    ///
    /// The construction is a counting sort: degree histogram → prefix
    /// offsets → scatter → per-row sort and dedup. No global
    /// `O(m log m)` sort of the edge list happens; each adjacency row
    /// is sorted on its own, which is both asymptotically cheaper
    /// (`O(m log Δ)`) and cache-local once the graph outgrows L3.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] or [`GraphError::NodeOutOfRange`]
    /// for invalid edges, [`GraphError::InvalidWeight`] for negative
    /// or non-finite weights, and [`GraphError::TooManyNodes`] when `n`
    /// exceeds the `u32` index space.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let n = self.n;
        check_node_count(n)?;
        let mut deg = vec![0usize; n];
        for &(u, v, w) in &self.edges {
            validate_edge(n, u, v, w)?;
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut scatter = CsrScatter::from_degrees(deg, self.weighted);
        for &(u, v, w) in &self.edges {
            scatter
                .put(u, v, w)
                .and_then(|()| scatter.put(v, u, w))
                .expect("degrees counted from the same edge list");
        }
        scatter.finish((0..n as u64).collect())
    }
}

/// Rejects node counts whose indices would not fit [`NodeId`]'s `u32`,
/// *before* any `O(n)` allocation happens.
pub(crate) fn check_node_count(n: usize) -> Result<(), GraphError> {
    if n as u64 > u32::MAX as u64 + 1 {
        return Err(GraphError::TooManyNodes { n });
    }
    Ok(())
}

/// Validates one edge against the builder invariants (simple graph,
/// in-range endpoints, finite non-negative weight).
pub(crate) fn validate_edge(n: usize, u: usize, v: usize, w: f64) -> Result<(), GraphError> {
    if u == v {
        return Err(GraphError::SelfLoop { node: u });
    }
    if u >= n {
        return Err(GraphError::NodeOutOfRange { node: u, n });
    }
    if v >= n {
        return Err(GraphError::NodeOutOfRange { node: v, n });
    }
    if !(w.is_finite() && w >= 0.0) {
        return Err(GraphError::InvalidWeight { u, v, weight: w });
    }
    Ok(())
}

/// Shared scatter phase of the counting-sort CSR construction: rows are
/// pre-sized from a degree histogram (duplicates included), directed
/// slots land via a per-row cursor, and [`finish`](Self::finish) sorts
/// each row individually, collapsing duplicates to the minimum weight.
///
/// Used by [`GraphBuilder::build`], [`Graph::from_edge_stream`], and the
/// dataset loaders; all of them therefore share one duplicate-collapse
/// policy by construction.
pub(crate) struct CsrScatter {
    /// Prefix offsets over the *pre-dedup* degree histogram.
    offsets: Vec<usize>,
    /// Next free slot per row.
    cursor: Vec<usize>,
    adj: Vec<NodeId>,
    weights: Option<Vec<f64>>,
}

impl CsrScatter {
    /// Sizes the rows from a directed-slot histogram (`deg[u]` counts
    /// every occurrence of `u` as an endpoint, duplicates included).
    pub(crate) fn from_degrees(deg: Vec<usize>, weighted: bool) -> CsrScatter {
        let n = deg.len();
        let mut offsets = vec![0usize; n + 1];
        for (u, &d) in deg.iter().enumerate() {
            offsets[u + 1] = offsets[u] + d;
        }
        let slots = offsets[n];
        let cursor = offsets[..n].to_vec();
        CsrScatter {
            offsets,
            cursor,
            adj: vec![NodeId::new(0); slots],
            weights: weighted.then(|| vec![0.0f64; slots]),
        }
    }

    /// Places the directed slot `u -> v` (one orientation; callers put
    /// both). Errors if `u`'s row is already full — the counting pass
    /// and the scatter pass disagreed.
    #[inline]
    pub(crate) fn put(&mut self, u: usize, v: usize, w: f64) -> Result<(), GraphError> {
        let slot = self.cursor[u];
        if slot >= self.offsets[u + 1] {
            return Err(GraphError::InvalidParameter {
                reason: format!("edge stream changed between counting passes (row {u} overflowed)"),
            });
        }
        self.cursor[u] = slot + 1;
        self.adj[slot] = NodeId::new(v);
        if let Some(ws) = &mut self.weights {
            ws[slot] = w;
        }
        Ok(())
    }

    /// Sorts each row, collapses duplicate neighbors (keeping the
    /// minimum weight — see [`GraphBuilder::build`]), compacts in place,
    /// and assembles the [`Graph`].
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if any row was underfilled (the
    /// scatter pass yielded fewer edges than the counting pass).
    pub(crate) fn finish(self, ids: Vec<u64>) -> Result<Graph, GraphError> {
        let CsrScatter {
            offsets,
            cursor,
            mut adj,
            mut weights,
        } = self;
        let n = offsets.len() - 1;
        if let Some(u) = (0..n).find(|&u| cursor[u] != offsets[u + 1]) {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "edge stream changed between counting passes (row {u} underfilled)"
                ),
            });
        }
        let mut new_offsets = vec![0usize; n + 1];
        let mut write = 0usize;
        match &mut weights {
            None => {
                for u in 0..n {
                    let (start, end) = (offsets[u], offsets[u + 1]);
                    adj[start..end].sort_unstable();
                    // Compaction never overtakes the read cursor: earlier
                    // rows only shrink, so `write <= start` throughout.
                    let mut prev = None;
                    for i in start..end {
                        let v = adj[i];
                        if prev != Some(v) {
                            adj[write] = v;
                            write += 1;
                            prev = Some(v);
                        }
                    }
                    new_offsets[u + 1] = write;
                }
            }
            Some(ws) => {
                // Weights are validated finite, so `total_cmp` agrees
                // with the numeric order; sorting puts the minimum
                // weight first and dedup keeps the first of each run.
                let mut row: Vec<(NodeId, f64)> = Vec::new();
                for u in 0..n {
                    let (start, end) = (offsets[u], offsets[u + 1]);
                    row.clear();
                    row.extend(
                        adj[start..end]
                            .iter()
                            .copied()
                            .zip(ws[start..end].iter().copied()),
                    );
                    row.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                    row.dedup_by(|a, b| a.0 == b.0);
                    for &(v, w) in &row {
                        adj[write] = v;
                        ws[write] = w;
                        write += 1;
                    }
                    new_offsets[u + 1] = write;
                }
                ws.truncate(write);
            }
        }
        adj.truncate(write);
        Ok(Graph {
            offsets: new_offsets,
            adj,
            ids,
            weights,
            rev: OnceLock::new(),
            id_bits: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_sorts_neighbors() {
        let g = Graph::from_edges(5, [(3, 1), (0, 3), (3, 4), (1, 0)]).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(3))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 1, 4]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(3, [(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = Graph::from_edges(4, [(0, 2), (2, 3)]).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn default_ids_are_identity() {
        let g = Graph::empty(4);
        assert_eq!(g.id_of(NodeId::new(2)), 2);
        assert_eq!(g.min_id_node(), Some(NodeId::new(0)));
    }

    #[test]
    fn custom_ids() {
        let g = Graph::empty(3).with_ids(vec![30, 10, 20]).unwrap();
        assert_eq!(g.min_id_node(), Some(NodeId::new(1)));
        assert_eq!(g.id_bits(), 5);
    }

    #[test]
    fn bad_ids_rejected() {
        assert!(matches!(
            Graph::empty(3).with_ids(vec![1, 1, 2]),
            Err(GraphError::DuplicateId { id: 1 })
        ));
        assert!(matches!(
            Graph::empty(3).with_ids(vec![1, 2]),
            Err(GraphError::IdLengthMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn directed_edge_ids_align_with_csr() {
        let g = Graph::from_edges(5, [(3, 1), (0, 3), (3, 4), (1, 0)]).unwrap();
        assert_eq!(g.directed_edges(), 8);
        // Node 3's neighbors are [0, 1, 4]; slots are contiguous, in
        // neighbor order.
        let r = g.out_slot_range(NodeId::new(3));
        assert_eq!(r.len(), 3);
        assert_eq!(g.neighbor_rank(NodeId::new(3), NodeId::new(4)), Some(2));
        let e = g.directed_edge(NodeId::new(3), NodeId::new(4)).unwrap();
        assert_eq!(e, r.start + 2);
        assert_eq!(g.edge_head(e), NodeId::new(4));
        assert_eq!(g.neighbor_rank(NodeId::new(3), NodeId::new(2)), None);
        assert_eq!(g.directed_edge(NodeId::new(0), NodeId::new(4)), None);
    }

    #[test]
    fn reverse_edges_invert() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (2, 5)]).unwrap();
        let rev = g.reverse_edges();
        assert_eq!(rev.len(), g.directed_edges());
        for u in g.nodes() {
            for (e, &v) in g.out_slot_range(u).zip(g.neighbors(u)) {
                assert_eq!(rev[e], g.directed_edge(v, u).unwrap());
                assert_eq!(rev[rev[e]], e);
                assert_eq!(g.edge_head(rev[e]), u);
            }
        }
    }

    #[test]
    fn reverse_edges_cache_is_stable_and_invisible() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let h = g.clone();
        assert_eq!(g, h, "cache never enters equality");
        // Force the cache on one side only; equality and serialization
        // must not see it.
        let first = g.reverse_edges().as_ptr();
        assert_eq!(
            g.reverse_edges().as_ptr(),
            first,
            "second call reuses the cached table"
        );
        assert_eq!(g, h);
        assert_eq!(g.to_value(), h.to_value(), "serialized form ignores cache");
        let back = Graph::from_value(&g.to_value()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.reverse_edges(), g.reverse_edges());
        // `with_ids` keeps the topology, hence may keep the cache.
        let relabeled = g.with_ids(vec![9, 8, 7, 6, 5]).unwrap();
        assert_eq!(relabeled.reverse_edges(), h.reverse_edges());
    }

    #[test]
    fn content_hash_tracks_content_not_provenance() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        // Stable across clones and serde round trips: same bytes, same
        // hash (this is what lets the serve LRU key on it).
        assert_eq!(g.content_hash(), g.clone().content_hash());
        let back = Graph::from_value(&g.to_value()).unwrap();
        assert_eq!(back.content_hash(), g.content_hash());
        // Relabeling — new ids on the same topology — is a different
        // content (CSV exports, --source lookups all change meaning).
        let relabeled = g.clone().with_ids(vec![9, 8, 7, 6, 5]).unwrap();
        assert_ne!(relabeled.content_hash(), g.content_hash());
        // A reordered CSR (isomorphic, ids preserved) also differs.
        let (permuted, _) = crate::gen::grid(4, 4).relabeled(crate::NodeOrder::Bfs);
        assert_ne!(
            permuted.content_hash(),
            crate::gen::grid(4, 4).content_hash()
        );
        // Weights feed the hash too.
        let unit = Graph::from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let heavy = Graph::from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        assert_ne!(unit.content_hash(), heavy.content_hash());
        let plain = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_ne!(unit.content_hash(), plain.content_hash());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_id_node(), None);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.is_weighted());
        assert_eq!(g.max_edge_weight(), 1.0);
    }

    #[test]
    fn weighted_build_aligns_slots() {
        let g = Graph::from_weighted_edges(4, [(0, 1, 2.5), (1, 2, 0.5), (2, 3, 4.0)]).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.5));
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(0)), Some(2.5));
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(2)), Some(0.5));
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(3)), None);
        assert_eq!(g.max_edge_weight(), 4.0);
        // Every directed slot carries its undirected edge's weight.
        for u in g.nodes() {
            for (e, &v) in g.out_slot_range(u).zip(g.neighbors(u)) {
                assert_eq!(g.weight(e), g.edge_weight(u, v).unwrap());
                assert_eq!(g.weight(e), g.weight(g.reverse_edges()[e]));
            }
        }
    }

    #[test]
    fn unweighted_graph_reports_unit_weights() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(!g.is_weighted());
        assert_eq!(g.weights(), None);
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(1.0));
        assert_eq!(g.weight(0), 1.0);
    }

    #[test]
    fn duplicate_weighted_edges_keep_minimum() {
        let g = Graph::from_weighted_edges(3, [(0, 1, 5.0), (1, 0, 2.0), (0, 1, 7.5), (1, 2, 3.0)])
            .unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.0));
        // A plain edge() duplicate counts as weight 1.
        let mut b = Graph::builder(2);
        b.weighted_edge(0, 1, 6.0).edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(1.0));
    }

    #[test]
    fn invalid_weights_rejected() {
        for w in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Graph::from_weighted_edges(3, [(0, 1, w)]).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidWeight { u: 0, v: 1, .. }),
                "weight {w}: {err:?}"
            );
            assert!(!err.to_string().is_empty());
        }
        // Zero is a legal (if degenerate) weight.
        assert!(Graph::from_weighted_edges(3, [(0, 1, 0.0)]).is_ok());
    }

    #[test]
    fn weighted_edges_iterates_with_weights() {
        let g = Graph::from_weighted_edges(4, [(2, 3, 0.25), (0, 1, 1.5)]).unwrap();
        let edges: Vec<(usize, usize, f64)> = g
            .weighted_edges()
            .map(|(u, v, w)| (u.index(), v.index(), w))
            .collect();
        assert_eq!(edges, vec![(0, 1, 1.5), (2, 3, 0.25)]);
        // Unweighted graphs yield unit weights.
        let h = Graph::from_edges(3, [(0, 2)]).unwrap();
        assert_eq!(
            h.weighted_edges().map(|(_, _, w)| w).collect::<Vec<_>>(),
            vec![1.0]
        );
    }

    #[test]
    fn oversize_node_counts_error_before_allocating() {
        // One past the last representable index is fine as a count…
        let limit = u32::MAX as u64 + 1;
        // …anything beyond must come back as TooManyNodes, up front —
        // this call must not try to allocate the 32 GB offsets array.
        let err = Graph::builder(limit as usize + 1).build().unwrap_err();
        assert!(matches!(err, GraphError::TooManyNodes { .. }), "{err:?}");
        assert!(err.to_string().contains("u32 index space"));
        let err = Graph::from_edge_stream(usize::MAX, || [(0usize, 1usize)]).unwrap_err();
        assert!(matches!(err, GraphError::TooManyNodes { .. }), "{err:?}");
    }

    #[test]
    fn edge_stream_build_matches_builder() {
        // Duplicates (both orientations), unsorted, weighted and not —
        // the streaming two-pass build must agree with GraphBuilder
        // bit-for-bit, including the min-weight collapse policy.
        let edges = [(3usize, 1usize), (0, 3), (3, 4), (1, 0), (1, 3), (4, 3)];
        let a = Graph::from_edges(5, edges).unwrap();
        let b = Graph::from_edge_stream(5, || edges).unwrap();
        assert_eq!(a, b);

        let wedges = [
            (0usize, 1usize, 5.0f64),
            (1, 0, 2.0),
            (0, 1, 7.5),
            (1, 2, 3.0),
            (2, 1, 3.5),
        ];
        let a = Graph::from_weighted_edges(3, wedges).unwrap();
        let b = Graph::from_weighted_edge_stream(3, || wedges).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.0));
        assert_eq!(b.edge_weight(NodeId::new(1), NodeId::new(2)), Some(3.0));
    }

    #[test]
    fn edge_stream_rejects_invalid_and_nondeterministic_streams() {
        assert_eq!(
            Graph::from_edge_stream(3, || [(1usize, 1usize)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
        assert_eq!(
            Graph::from_edge_stream(3, || [(0usize, 5usize)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
        // A stream that yields different edges on its second invocation
        // must be reported, not silently corrupt the CSR.
        let mut call = 0;
        let err = Graph::from_edge_stream(4, move || {
            call += 1;
            if call == 1 {
                vec![(0usize, 1usize)]
            } else {
                vec![(2usize, 3usize)]
            }
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("changed between counting passes"),
            "{err}"
        );
    }

    #[test]
    fn weights_survive_with_ids_and_serde() {
        let g = Graph::from_weighted_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
            .unwrap()
            .with_ids(vec![9, 8, 7])
            .unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(2)), Some(3.0));
        let back = Graph::from_value(&g.to_value()).unwrap();
        assert_eq!(back, g);
        assert!(back.is_weighted());
        // A unit-weighted graph is not equal to its unweighted twin, and
        // their serialized forms differ (the `weights` field).
        let unit = Graph::from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let plain = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_ne!(unit, plain);
        assert_ne!(unit.to_value(), plain.to_value());
        // Pre-weights artifacts (no `weights` field) still deserialize.
        let old = Graph::from_value(&plain.to_value()).unwrap();
        assert!(!old.is_weighted());
    }
}
