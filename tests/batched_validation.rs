//! Gate coincidence of the batched exact validators: routing the
//! diameter sweeps through the bit-parallel MS-BFS backend must produce
//! bit-identical verdicts, violation lists, and diameters to the
//! pre-batch per-source sweeps on arbitrary (often invalid) carvings
//! and decompositions.
//!
//! The per-source reference is a [`DistanceOracle`] that answers hop
//! distances exactly like [`HopOracle`] but declines the batch hooks
//! (`batch_distances_in -> None`), which forces the metrics layer down
//! the same fallback path every pre-batch validator took.

use proptest::prelude::*;
use sdnd::graph::algo::{DistanceMapIn, DistanceOracle, HopOracle, TraversalWorkspace};
use sdnd::graph::{gen, Adjacency, Graph, NodeId, NodeSet};
use sdnd_clustering::metrics::{strong_diameter_of_with_in, weak_diameter_of_with_in};
use sdnd_clustering::{
    validate_carving, validate_decomposition, BallCarving, CarveCtx, NetworkDecomposition,
};

/// Hop distances without a batched backend: the pre-batch code path.
struct PerSourceHop;

impl DistanceOracle for PerSourceHop {
    fn distances_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w> {
        HopOracle.distances_in(view, source, ws)
    }

    fn distances_to_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        targets: &NodeSet,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w> {
        HopOracle.distances_to_in(view, source, targets, ws)
    }

    // batch_distances_in / batch_distances_to_in: default `None`.
}

/// A (possibly invalid) carving: every node is dealt to one of `k`
/// clusters or left dead by a splitmix-style hash of `seed`.
fn arb_clusters(g: &Graph, k: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in g.nodes() {
        let mut h = seed ^ (v.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 29;
        // k + 1 lanes: the extra lane leaves the node dead.
        let lane = (h % (k as u64 + 1)) as usize;
        if lane < k {
            clusters[lane].push(v);
        }
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched hop metrics agree with the per-source fallback on
    /// every cluster of an arbitrary carving — the quantities every
    /// exact validator verdict is made of.
    #[test]
    fn batched_metrics_coincide_with_per_source(
        n in 8usize..72,
        p_mil in 20u64..120,
        k in 2usize..6,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, p_mil as f64 / 1000.0, seed);
        let mut ctx = CarveCtx::new();
        for members in arb_clusters(&g, k, seed) {
            let batched_strong = strong_diameter_of_with_in(&g, &members, &HopOracle, &mut ctx);
            let seq_strong = strong_diameter_of_with_in(&g, &members, &PerSourceHop, &mut ctx);
            prop_assert_eq!(batched_strong, seq_strong, "strong diameter diverges");
            let batched_weak = weak_diameter_of_with_in(&g, &members, &HopOracle, &mut ctx);
            let seq_weak = weak_diameter_of_with_in(&g, &members, &PerSourceHop, &mut ctx);
            prop_assert_eq!(batched_weak, seq_weak, "weak diameter diverges");
        }
    }

    /// Full validator gate coincidence on arbitrary carvings: verdict
    /// booleans, violation list, and every diameter field must match a
    /// reference report assembled from the per-source metrics.
    #[test]
    fn carving_validator_matches_per_source_reference(
        n in 8usize..64,
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, 2.0 / n as f64, seed);
        let clusters = arb_clusters(&g, k, seed);
        prop_assume!(!clusters.is_empty());
        let carving = BallCarving::new(NodeSet::full(g.n()), clusters.clone())
            .expect("lanes are disjoint");
        let report = validate_carving(&g, &carving);

        // Reference: the same fold the validator performs, but through
        // the batch-declining oracle.
        let mut ctx = CarveCtx::new();
        let mut connected = true;
        let mut max_strong = Some(0u32);
        let mut max_weak = Some(0u32);
        let mut violations: Vec<String> = Vec::new();
        for (u, v) in g.edges() {
            if let (Some(cu), Some(cv)) = (carving.cluster_of(u), carving.cluster_of(v)) {
                if cu != cv {
                    violations.push(format!("edge ({u}, {v}) joins clusters {cu} and {cv}"));
                }
            }
        }
        for (i, c) in clusters.iter().enumerate() {
            match strong_diameter_of_with_in(&g, c, &PerSourceHop, &mut ctx) {
                Some(d) => {
                    if let Some(m) = max_strong {
                        max_strong = Some(m.max(d as u32));
                    }
                }
                None => {
                    connected = false;
                    max_strong = None;
                    violations.push(format!("cluster {i} induces a disconnected subgraph"));
                }
            }
            let weak_d = weak_diameter_of_with_in(&g, c, &PerSourceHop, &mut ctx);
            if weak_d.is_none() {
                violations.push(format!(
                    "cluster {i}: some member pair is disconnected in G (weak diameter undefined)"
                ));
            }
            max_weak = match (max_weak, weak_d) {
                (Some(a), Some(b)) => Some(a.max(b as u32)),
                _ => None,
            };
        }

        prop_assert_eq!(report.clusters_connected, connected);
        prop_assert_eq!(report.max_strong_diameter, max_strong);
        prop_assert_eq!(report.max_weak_diameter, max_weak);
        // The validator interleaves its violation pushes in the same
        // cluster order, so the lists must coincide exactly.
        prop_assert_eq!(&report.violations, &violations);
    }

    /// Decomposition validator: connectivity verdict and both hop
    /// diameter fields coincide with the per-source metrics on
    /// arbitrary colored partitions.
    #[test]
    fn decomposition_validator_matches_per_source_metrics(
        n in 8usize..64,
        k in 2usize..6,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, 2.5 / n as f64, seed);
        let clusters = arb_clusters(&g, k, seed);
        prop_assume!(!clusters.is_empty());
        let mut covered = NodeSet::empty(g.n());
        for c in &clusters {
            for &v in c {
                covered.insert(v);
            }
        }
        let colored: Vec<(Vec<NodeId>, u32)> = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), (i % 3) as u32))
            .collect();
        let d = NetworkDecomposition::new(&covered, colored).expect("disjoint");
        let report = validate_decomposition(&g, &d);

        let mut ctx = CarveCtx::new();
        let mut connected = true;
        let mut max_strong = Some(0u32);
        let mut max_weak = Some(0u32);
        for c in &clusters {
            match strong_diameter_of_with_in(&g, c, &PerSourceHop, &mut ctx) {
                Some(diam) => {
                    if let Some(m) = max_strong {
                        max_strong = Some(m.max(diam as u32));
                    }
                }
                None => {
                    connected = false;
                    max_strong = None;
                }
            }
            max_weak = match (max_weak, weak_diameter_of_with_in(&g, c, &PerSourceHop, &mut ctx)) {
                (Some(a), Some(b)) => Some(a.max(b as u32)),
                _ => None,
            };
        }
        prop_assert_eq!(report.clusters_connected, connected);
        prop_assert_eq!(report.max_strong_diameter, max_strong);
        prop_assert_eq!(report.max_weak_diameter, max_weak);
    }
}
