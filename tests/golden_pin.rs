//! Golden pins for the deterministic carving pipelines.
//!
//! Literal constants for the outputs of Theorem 2.3, Theorem 3.4 and the
//! GGR21 weak carver on fixed Hilbert-relabelled random geometric
//! graphs: a per-node cluster/colour checksum, the colour count, and the
//! ledger's rounds and messages. A change that claims to be a pure
//! speed-up must leave every constant here untouched; a change that
//! moves one has changed what the algorithms compute or charge.

use sdnd::clustering::NetworkDecomposition;
use sdnd::congest::RoundLedger;
use sdnd::core::{decompose_strong_improved_with, decompose_strong_with, Params};
use sdnd::prelude::*;
use sdnd::weak::Rg20;
use sdnd_graph::gen::{self, WeightDist};
use sdnd_graph::NodeOrder;

/// FNV-1a style fold of one word into a running checksum.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

const SEED_HASH: u64 = 0xcbf2_9ce4_8422_2325;

/// A random geometric graph with mean degree about 6, Hilbert-relabelled
/// (the layout the ingest path gives large inputs).
fn geometric(n: usize, seed: u64) -> Graph {
    let radius = (6.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let g = gen::random_geometric(n, radius, seed).expect("valid radius");
    g.relabeled(NodeOrder::Hilbert).0
}

/// Checksum over every node's `(cluster, colour)`, `u64::MAX` for an
/// unclustered node.
fn decomposition_checksum(g: &Graph, d: &NetworkDecomposition) -> u64 {
    g.nodes().fold(SEED_HASH, |h, v| {
        let c = d.cluster_of(v).map_or(u64::MAX, |c| u64::from(c.0));
        let col = d.color_of(v).map_or(u64::MAX, u64::from);
        mix(mix(h, c), col)
    })
}

/// `(checksum, colours, rounds, messages)` of one decomposition run.
fn pin(g: &Graph, d: &NetworkDecomposition, ledger: &RoundLedger) -> (u64, u32, u64, u64) {
    (
        decomposition_checksum(g, d),
        d.num_colors(),
        ledger.rounds(),
        ledger.messages(),
    )
}

#[test]
fn theorem_2_3_on_geometric_5k_is_pinned() {
    let g = geometric(5_000, 7);
    let mut ledger = RoundLedger::new();
    let d = decompose_strong_with(&g, &Params::default(), &mut ledger);
    assert_eq!(
        pin(&g, &d, &ledger),
        (2_086_357_903_891_545_335, 2, 123_672, 1_350_405)
    );
}

#[test]
fn ggr21_weak_carve_on_geometric_5k_is_pinned() {
    let g = geometric(5_000, 7);
    let mut ledger = RoundLedger::new();
    let wc = Rg20::ggr21().carve(&g, &NodeSet::full(g.n()), 0.25, &mut ledger);
    // Clusters in output order, then every tree's root and sorted
    // (node, parent) pairs: the whole carving, forest included.
    let mut h = SEED_HASH;
    for (cluster, tree) in wc.carving().clusters().iter().zip(wc.forest().trees()) {
        h = cluster
            .iter()
            .fold(mix(h, u64::MAX), |h, v| mix(h, v.index() as u64));
        h = mix(h, tree.root().index() as u64);
        for (v, p) in tree.parent_pairs() {
            h = mix(mix(h, v.index() as u64), p.index() as u64);
        }
    }
    let got = (
        h,
        wc.carving().num_clusters(),
        wc.carving().dead().len(),
        ledger.rounds(),
        ledger.messages(),
    );
    assert_eq!(got, (18_384_651_350_249_374_241, 61, 205, 53_062, 528_867));
}

#[test]
fn theorem_3_4_on_weighted_geometric_is_pinned() {
    let g = gen::reweight(
        &geometric(3_000, 11),
        WeightDist::UniformInt { lo: 1, hi: 8 },
        11,
    )
    .expect("valid distribution");
    let mut ledger = RoundLedger::new();
    let d = decompose_strong_improved_with(&g, &Params::default(), &mut ledger);
    assert_eq!(
        pin(&g, &d, &ledger),
        (728_685_239_636_415_593, 1, 159_384, 1_809_349)
    );
}
