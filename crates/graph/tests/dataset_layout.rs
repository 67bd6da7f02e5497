//! Property and corruption tests for the ingestion layer and the
//! space-filling-curve relabelings.
//!
//! Three families:
//!
//! 1. **Loader equivalence** — a plain edge list, its gzip twin (built
//!    with the crate's own stored-block writer), and the in-memory
//!    builder all produce bit-identical graphs.
//! 2. **Cache round-trip** — `write_cache` / `read_cache` is the
//!    identity on arbitrary graphs, weighted or not, and any
//!    single-bit flip or truncation of the file surfaces as a clean
//!    `Stale`/`Cache` error, never a panic or a silently wrong graph.
//! 3. **Relabeling isomorphism** — `Graph::relabeled` under every
//!    `NodeOrder` is a permutation of the same graph: edges map back
//!    through `old_of` to exactly the original edge set, per-edge
//!    weights survive, and external identifiers travel with their
//!    nodes.

use proptest::prelude::*;
use sdnd_graph::dataset::{self, DatasetError, LoadOptions};
use sdnd_graph::{Graph, NodeId, NodeOrder};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

fn dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdnd_dataset_layout_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Strategy: a random simple graph plus optional per-edge weights.
fn arb_weighted_graph() -> impl Strategy<Value = Graph> {
    (2usize..32, prop::bool::ANY).prop_flat_map(|(n, weighted)| {
        let edges = prop::collection::vec((0..n, 0..n, 0.1f64..100.0), 0..(n * 2));
        edges.prop_map(move |raw| {
            let simple = raw.into_iter().filter(|&(u, v, _)| u != v);
            if weighted {
                Graph::from_weighted_edges(n, simple).expect("simple edges are valid")
            } else {
                Graph::from_edges(n, simple.map(|(u, v, _)| (u, v))).expect("valid")
            }
        })
    })
}

/// The canonical undirected weighted edge set of `g`, with node ids
/// translated through `map` (identity when `map` is `None`).
fn edge_set(g: &Graph, map: Option<&dyn Fn(NodeId) -> NodeId>) -> BTreeSet<(usize, usize, u64)> {
    g.weighted_edges()
        .map(|(u, v, w)| {
            let (u, v) = match map {
                Some(f) => (f(u), f(v)),
                None => (u, v),
            };
            let (a, b) = (u.index().min(v.index()), u.index().max(v.index()));
            (a, b, w.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Writing a graph as text and loading it back — plain or gzip —
    /// reproduces the graph the in-memory builder makes.
    #[test]
    fn text_and_gzip_loaders_agree_with_the_builder(g in arb_weighted_graph(), seed in 0u64..1000) {
        let mut body = String::new();
        for (u, v, w) in g.weighted_edges() {
            if g.is_weighted() {
                writeln!(body, "{} {} {w}", u.index(), v.index()).unwrap();
            } else {
                writeln!(body, "{} {}", u.index(), v.index()).unwrap();
            }
        }
        let txt = dir().join(format!("agree_{seed}_{}.txt", g.n()));
        std::fs::write(&txt, body.as_bytes()).unwrap();
        let gz = dir().join(format!("agree_{seed}_{}.txt.gz", g.n()));
        std::fs::write(&gz, dataset::gzip_stored(body.as_bytes())).unwrap();

        // Isolated nodes don't appear in an edge list, so pin `n`.
        let opts = LoadOptions { nodes: Some(g.n()), ..Default::default() };
        let from_txt = dataset::load_edge_list(&txt, &opts).unwrap();
        let from_gz = dataset::load_edge_list(&gz, &opts).unwrap();
        prop_assert_eq!(&from_txt, &g);
        prop_assert_eq!(&from_gz, &g);
    }

    /// `write_cache` then `read_cache` is the identity, stamped or not.
    #[test]
    fn cache_round_trips_arbitrary_graphs(g in arb_weighted_graph(), seed in 0u64..1000) {
        let path = dir().join(format!("roundtrip_{seed}_{}.csrbin", g.n()));
        dataset::write_cache(&path, &g, None).unwrap();
        let back = dataset::read_cache(&path, None).unwrap();
        prop_assert_eq!(&back, &g);
        prop_assert_eq!(back.is_weighted(), g.is_weighted());

        // A stamped cache reads back under the matching stamp and
        // reports stale under any other.
        let stamp = dataset::SourceStamp { len: 42, mtime_secs: 7, mtime_nanos: 9 };
        dataset::write_cache(&path, &g, Some(&stamp)).unwrap();
        prop_assert_eq!(&dataset::read_cache(&path, Some(&stamp)).unwrap(), &g);
        let other = dataset::SourceStamp { len: 43, ..stamp };
        prop_assert!(matches!(
            dataset::read_cache(&path, Some(&other)),
            Err(DatasetError::Stale { .. })
        ));
    }

    /// Relabeling is an isomorphism: same node count, same edge set
    /// after mapping back, weights and external ids carried along, and
    /// the permutation arrays are mutually inverse.
    #[test]
    fn relabeling_is_a_graph_isomorphism(g in arb_weighted_graph()) {
        let original = edge_set(&g, None);
        for order in NodeOrder::ALL {
            let (gl, relab) = g.relabeled(order);
            prop_assert_eq!(gl.n(), g.n());
            prop_assert_eq!(gl.m(), g.m());
            prop_assert_eq!(gl.is_weighted(), g.is_weighted());
            // to_new and to_old are mutually inverse permutations.
            for v in g.nodes() {
                prop_assert_eq!(relab.old_of(relab.new_of(v)), v);
                prop_assert_eq!(gl.id_of(relab.new_of(v)), g.id_of(v));
            }
            // The edge multiset maps back exactly, weights included.
            let mapped = edge_set(&gl, Some(&|v| relab.old_of(v)));
            prop_assert_eq!(mapped, original.clone());
        }
    }
}

/// The identifier width by a full scan, the definition
/// [`Graph::id_bits`] caches.
fn scanned_id_bits(g: &Graph) -> u32 {
    let max = g.nodes().map(|v| g.id_of(v)).max().unwrap_or(0);
    (64 - max.leading_zeros()).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cached identifier width equals a full scan on every route a
    /// graph is built by: builder, `with_ids`, `relabeled`, edge-list
    /// load and `.csrbin` load.
    #[test]
    fn id_bits_matches_a_full_scan_on_every_route(
        g in arb_weighted_graph(),
        shift in 0u32..40,
        seed in 0u64..1000,
    ) {
        prop_assert_eq!(g.id_bits(), scanned_id_bits(&g));
        // `with_ids` on a graph whose width was already read (and cloned
        // along): a stale cache would report the old width.
        let ids: Vec<u64> = (1..=g.n() as u64).map(|i| i << shift).collect();
        let wide = g.clone().with_ids(ids).unwrap();
        prop_assert_eq!(wide.id_bits(), scanned_id_bits(&wide));
        let narrow = wide.clone().with_ids((0..g.n() as u64).collect()).unwrap();
        prop_assert_eq!(narrow.id_bits(), scanned_id_bits(&narrow));
        for order in NodeOrder::ALL {
            let (gl, _) = wide.relabeled(order);
            prop_assert_eq!(gl.id_bits(), scanned_id_bits(&gl));
        }

        let mut body = String::new();
        for (u, v, w) in g.weighted_edges() {
            writeln!(body, "{} {} {w}", u.index(), v.index()).unwrap();
        }
        let txt = dir().join(format!("id_bits_{seed}_{}.txt", g.n()));
        std::fs::write(&txt, body.as_bytes()).unwrap();
        let opts = LoadOptions { nodes: Some(g.n()), ..Default::default() };
        let loaded = dataset::load_edge_list(&txt, &opts).unwrap();
        prop_assert_eq!(loaded.id_bits(), scanned_id_bits(&loaded));

        let path = dir().join(format!("id_bits_{seed}_{}.csrbin", g.n()));
        dataset::write_cache(&path, &wide, None).unwrap();
        let back = dataset::read_cache(&path, None).unwrap();
        prop_assert_eq!(back.id_bits(), scanned_id_bits(&back));
        prop_assert_eq!(back.content_hash(), wide.content_hash());
    }
}

/// Every single-bit flip and every truncation of a cache file must be
/// rejected — as `Cache` (corrupt) or `Stale` (version byte) — and
/// must never panic or produce a graph. The CRC32 catches all
/// single-bit errors by construction; this exercises the whole decode
/// path against each of them anyway, including flips inside the
/// checksum itself and flips in the header before the checksum is
/// even consulted.
#[test]
fn corrupted_caches_fail_closed() {
    let g = Graph::from_weighted_edges(
        6,
        [
            (0usize, 1usize, 1.5f64),
            (1, 2, 2.5),
            (2, 3, 0.5),
            (3, 4, 4.0),
            (4, 5, 1.0),
            (5, 0, 3.0),
            (1, 4, 2.0),
        ],
    )
    .unwrap();
    let path = dir().join("corrupt_sweep.csrbin");
    let stamp = dataset::SourceStamp {
        len: 123,
        mtime_secs: 456,
        mtime_nanos: 789,
    };
    dataset::write_cache(&path, &g, Some(&stamp)).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert_eq!(&dataset::read_cache(&path, Some(&stamp)).unwrap(), &g);

    let mutant = dir().join("corrupt_mutant.csrbin");
    let mut rejected_bits = 0usize;
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut copy = pristine.clone();
            copy[byte] ^= 1 << bit;
            std::fs::write(&mutant, &copy).unwrap();
            match dataset::read_cache(&mutant, Some(&stamp)) {
                Err(DatasetError::Cache { .. }) | Err(DatasetError::Stale { .. }) => {
                    rejected_bits += 1;
                }
                Err(other) => panic!("byte {byte} bit {bit}: unexpected error kind {other}"),
                Ok(_) => panic!("byte {byte} bit {bit}: flipped cache was accepted"),
            }
        }
    }
    assert_eq!(rejected_bits, pristine.len() * 8);

    // Truncations: every proper prefix fails closed the same way.
    for len in 0..pristine.len() {
        std::fs::write(&mutant, &pristine[..len]).unwrap();
        match dataset::read_cache(&mutant, Some(&stamp)) {
            Err(DatasetError::Cache { .. }) | Err(DatasetError::Stale { .. }) => {}
            Err(other) => panic!("truncation to {len}: unexpected error kind {other}"),
            Ok(_) => panic!("truncation to {len} bytes was accepted"),
        }
    }
}
