//! Seeded input generation and ingest.
//!
//! The benchmark owns its generators, so a change to the library's own
//! `gen` module cannot silently change what is measured. Every input is
//! written as a text edge list under the run's data directory and read
//! back through the library's dataset layer; the program sees only the
//! generated file.

use sdnd_graph::dataset::{load_edge_list, LoadOptions, WeightMode};
use sdnd_graph::{Graph, NodeOrder};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// One generated edge: endpoints and an optional integer weight.
pub type Edge = (u32, u32, Option<u32>);

/// A random geometric graph: `n` uniform points in the unit square,
/// joined within the radius that gives mean degree about 6
/// (`pi r^2 n = 6`), found through a grid of radius-sized cells. With
/// `weights = Some((lo, hi))` every edge carries an integer weight
/// uniform in `lo..=hi`.
pub fn geometric(n: usize, weights: Option<(u32, u32)>, rng: &mut Rng) -> Vec<Edge> {
    let radius = (6.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit(), rng.unit())).collect();
    let side = ((1.0 / radius).floor() as usize).max(1);
    let cell = |x: f64| ((x * side as f64) as usize).min(side - 1);
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); side * side];
    for (i, &(x, y)) in pts.iter().enumerate() {
        grid[cell(x) * side + cell(y)].push(i as u32);
    }
    let r2 = radius * radius;
    let mut edges = Vec::with_capacity(3 * n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell(x), cell(y));
        for gx in cx.saturating_sub(1)..=(cx + 1).min(side - 1) {
            for gy in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
                for &j in &grid[gx * side + gy] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let (px, py) = pts[j as usize];
                    if (px - x).powi(2) + (py - y).powi(2) <= r2 {
                        edges.push((i as u32, j, None));
                    }
                }
            }
        }
    }
    if let Some((lo, hi)) = weights {
        for e in &mut edges {
            e.2 = Some(lo + rng.below(u64::from(hi - lo + 1)) as u32);
        }
    }
    edges
}

/// An RMAT graph on `2^scale` nodes with `edge_factor * 2^scale` edge
/// draws and the Graph500 quadrant probabilities
/// (0.57, 0.19, 0.19, 0.05). Self-loops are dropped; duplicates are
/// left for the loader to collapse.
pub fn rmat(scale: u32, edge_factor: usize, rng: &mut Rng) -> Vec<Edge> {
    let draws = (1usize << scale) * edge_factor;
    let mut edges = Vec::with_capacity(draws);
    for _ in 0..draws {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.unit();
            let (bu, bv) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u = u << 1 | bu;
            v = v << 1 | bv;
        }
        if u != v {
            edges.push((u, v, None));
        }
    }
    edges
}

/// Writes `edges` as a whitespace edge list (`u v [w]` per line).
pub fn write_edge_list(path: &Path, edges: &[Edge]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for &(u, v, w) in edges {
        match w {
            Some(w) => writeln!(out, "{u} {v} {w}")?,
            None => writeln!(out, "{u} {v}")?,
        }
    }
    out.flush()
}

/// A generated input on disk. The file is deleted when this is dropped:
/// every run writes its inputs afresh, so none is kept between runs.
#[derive(Debug)]
pub struct InputFile {
    pub path: PathBuf,
    pub n: usize,
}

impl Drop for InputFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Time spent in each set-up stage of one ingest.
#[derive(Debug, Clone, Copy)]
pub struct IngestTiming {
    pub ingest: Duration,
    pub relabel: Duration,
}

/// Ingests `input` through the dataset layer, then applies `order`.
///
/// # Errors
///
/// The loader's message when the file does not parse.
pub fn ingest(input: &InputFile, order: NodeOrder) -> Result<(Graph, IngestTiming), String> {
    let opts = LoadOptions {
        nodes: Some(input.n),
        weights: WeightMode::Auto,
    };
    let t0 = Instant::now();
    let g = load_edge_list(&input.path, &opts).map_err(|e| e.to_string())?;
    let ingest = t0.elapsed();
    let t1 = Instant::now();
    let g = match order {
        NodeOrder::Natural => g,
        order => g.relabeled(order).0,
    };
    Ok((
        g,
        IngestTiming {
            ingest,
            relabel: t1.elapsed(),
        },
    ))
}
