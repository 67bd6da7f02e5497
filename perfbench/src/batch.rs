//! The batch workloads: `geo-thm2.3` and `wgeo-thm3.4`.
//!
//! One op is a decomposition on an ingested graph followed by exact
//! validation. A run decomposes several graphs drawn from its seed, one
//! after another, and reports the median over graphs of each graph's
//! median op: the per-graph cost of these carvers depends on the node
//! ids and the geometry, so a single graph per run would make the run's
//! figure a draw from that spread rather than a measurement.

use crate::inputs::{self, InputFile, Rng};
use crate::report::{median, ms, peak_rss_mb, Fnv, Outcome};
use crate::trace::{self, Recorder, TracedImprove};
use sdnd_clustering::{
    metrics, validate_decomposition_in, CarveCtx, DecompositionReport, NetworkDecomposition,
    StrongCarver,
};
use sdnd_congest::{CostModel, RoundLedger};
use sdnd_core::{
    decompose_strong_improved_with_in, decompose_strong_with_in, decompose_with_in, Params,
};
use sdnd_graph::{Cancelled, Graph, NodeOrder};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Theorem 2.3.
    Thm23,
    /// Theorem 3.4.
    Thm34,
}

#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub name: &'static str,
    pub n: usize,
    pub weights: Option<(u32, u32)>,
    pub algo: Algo,
    /// Graphs decomposed per run.
    pub graphs: usize,
    /// Whether `op_p50_ms` counts the validation as well as the
    /// decomposition. On the hop-metric geometric graphs the exact
    /// validation's cost is bimodal from graph to graph (0.14 s or
    /// 1.3-2.3 s at 60k nodes), too unsteady for a bounded metric; it is
    /// reported as `validate_s` by the traced run instead.
    pub time_validate: bool,
}

/// Set-up samples taken per run (re-ingesting the first graph when a
/// run has fewer graphs than this).
const SETUP_SAMPLES: usize = 9;

/// One decomposition op's outputs.
struct OpResult {
    decomp: NetworkDecomposition,
    report: DecompositionReport,
    ledger: RoundLedger,
    decompose: Duration,
    validate: Duration,
}

fn plain_decompose(
    algo: Algo,
    g: &Graph,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<NetworkDecomposition, Cancelled> {
    match algo {
        Algo::Thm23 => decompose_strong_with_in(g, params, ledger, ctx),
        Algo::Thm34 => decompose_strong_improved_with_in(g, params, ledger, ctx),
    }
}

/// Canonical cluster assignment checksum: per node, its color and the
/// smallest member of its cluster (independent of cluster numbering).
pub fn checksum(d: &NetworkDecomposition) -> u64 {
    let mut key = vec![(u64::MAX, u64::MAX); d.universe()];
    for (ci, members) in d.clusters().iter().enumerate() {
        let color = u64::from(d.color(sdnd_clustering::ClusterId(ci as u32)));
        let min = members.iter().map(|v| v.index() as u64).min().unwrap_or(0);
        for v in members {
            key[v.index()] = (color, min);
        }
    }
    let mut h = Fnv::default();
    for (c, m) in key {
        h.word(c);
        h.word(m);
    }
    h.0
}

/// Checks one op's outputs; returns the failed checks.
fn check(g: &Graph, op: &OpResult, reference: Option<u64>) -> Vec<String> {
    let mut errors = Vec::new();
    let n = g.n() as f64;
    if !op.report.is_valid() {
        errors.push(format!(
            "invalid decomposition: {:?}",
            op.report.violations.first()
        ));
    }
    if !op.ledger.complies_with(&CostModel::congest_for(g.n())) {
        errors.push(format!(
            "ledger exceeds the CONGEST budget: {} bits",
            op.ledger.max_message_bits()
        ));
    }
    // The envelopes the theorem tests pin, with their explicit constants.
    let color_bound = 2.0 * n.log2().ceil() + 2.0;
    if f64::from(op.decomp.num_colors()) > color_bound {
        errors.push(format!(
            "{} colors exceed {color_bound}",
            op.decomp.num_colors()
        ));
    }
    let diam_bound = (8.0 * n.ln().powi(3)).ceil() as u32 + 8;
    match op.report.max_strong_diameter {
        Some(d) if d <= diam_bound => {}
        other => errors.push(format!("strong diameter {other:?} exceeds {diam_bound}")),
    }
    if let Some(want) = reference {
        let got = checksum(&op.decomp);
        if got != want {
            errors.push(format!(
                "cluster checksum {got:016x} differs from {want:016x}"
            ));
        }
    }
    errors
}

/// Decomposes with `decompose`, then validates exactly.
fn run_op(
    g: &Graph,
    ctx: &mut CarveCtx,
    decompose: impl FnOnce(&mut RoundLedger, &mut CarveCtx) -> Result<NetworkDecomposition, Cancelled>,
) -> Result<OpResult, String> {
    let mut ledger = RoundLedger::new();
    let t0 = Instant::now();
    let decomp = decompose(&mut ledger, ctx).map_err(|c| format!("cancelled: {c:?}"))?;
    let decompose_t = t0.elapsed();
    let t1 = Instant::now();
    let report =
        validate_decomposition_in(g, &decomp, ctx).map_err(|c| format!("cancelled: {c:?}"))?;
    Ok(OpResult {
        decomp,
        report,
        ledger,
        decompose: decompose_t,
        validate: t1.elapsed(),
    })
}

/// Generates the run's graphs on disk.
fn generate(spec: &BatchSpec, seed: u64, data: &Path) -> Result<Vec<InputFile>, String> {
    (0..spec.graphs)
        .map(|j| {
            let mut rng = Rng::new(seed, j as u64);
            let edges = inputs::geometric(spec.n, spec.weights, &mut rng);
            let path = data.join(format!("{}-s{seed}-g{j}.edges", spec.name));
            inputs::write_edge_list(&path, &edges)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(InputFile { path, n: spec.n })
        })
        .collect()
}

/// Per-graph samples of a run.
#[derive(Default)]
struct GraphSamples {
    /// What `op_p50_ms` times (see [`BatchSpec::time_validate`]).
    op: Vec<f64>,
    decompose: Vec<f64>,
    validate: Vec<f64>,
}

pub fn run(
    spec: &BatchSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    data: &Path,
) -> Result<Outcome, String> {
    let files = generate(spec, seed, data)?;
    let mut out = Outcome::default();
    let params = Params::default();
    let mut ctx = CarveCtx::new();
    let mut setup = Vec::new();
    let (mut ingest_s, mut relabel_s) = (Vec::new(), Vec::new());
    let mut per_graph: Vec<GraphSamples> = Vec::new();
    let mut rounds = Vec::new();
    let (mut colors, mut diameters) = (Vec::new(), Vec::new());
    let mut layer = LayerRun::default();
    let budget = Duration::from_secs(seconds).div_f64(spec.graphs as f64);
    let started = Instant::now();

    for (j, file) in files.iter().enumerate() {
        // Stop a traced run once its time is spent (at least one graph).
        if traced && j > 0 && started.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
        let (g, timing) = inputs::ingest(file, NodeOrder::Hilbert)?;
        setup.push((timing.ingest + timing.relabel).as_secs_f64());
        ingest_s.push(timing.ingest.as_secs_f64());
        relabel_s.push(timing.relabel.as_secs_f64());
        if j == 0 {
            while setup.len() + spec.graphs - 1 < SETUP_SAMPLES {
                let (_, t) = inputs::ingest(file, NodeOrder::Hilbert)?;
                setup.push((t.ingest + t.relabel).as_secs_f64());
                ingest_s.push(t.ingest.as_secs_f64());
                relabel_s.push(t.relabel.as_secs_f64());
            }
        }
        out.input(&format!("{}-g{j}", spec.name), &g);
        let mut samples = GraphSamples::default();
        let mut reference = None;
        let graph_start = Instant::now();
        let mut ops = 0u32;
        loop {
            let (op, errors) = if traced {
                traced_op(spec, &g, &params, &mut ctx, &mut layer)
            } else {
                match run_op(&g, &mut ctx, |l, c| {
                    plain_decompose(spec.algo, &g, &params, l, c)
                }) {
                    Ok(op) => {
                        let errors = check(&g, &op, reference);
                        (Some(op), errors)
                    }
                    Err(e) => (None, vec![e]),
                }
            };
            if let Some(op) = op {
                reference.get_or_insert(checksum(&op.decomp));
                let d = ms(op.decompose);
                samples.decompose.push(d);
                samples.validate.push(ms(op.validate));
                samples.op.push(if spec.time_validate {
                    d + ms(op.validate)
                } else {
                    d
                });
                rounds.push(op.ledger.rounds() as f64);
                colors.push(f64::from(op.decomp.num_colors()));
                diameters.push(f64::from(op.report.max_strong_diameter.unwrap_or(0)));
            }
            out.op(errors);
            ops += 1;
            // Start another op on this graph only if one more is likely
            // to end within the graph's share of the run.
            let spent = graph_start.elapsed();
            if traced || spent + spent / ops >= budget {
                break;
            }
        }
        eprintln!(
            "{} g{j}: n={} m={} ops={} decompose={:.1}ms validate={:.1}ms",
            spec.name,
            g.n(),
            g.m(),
            samples.decompose.len(),
            median(&samples.decompose),
            median(&samples.validate)
        );
        per_graph.push(samples);
    }

    let graph_median = |f: fn(&GraphSamples) -> &Vec<f64>| {
        median(&per_graph.iter().map(|s| median(f(s))).collect::<Vec<_>>())
    };
    let m = &mut out.metrics;
    if traced {
        layer.finish(m, &ingest_s, &relabel_s);
        out.spans = layer.rec.spans();
        m.set("decompose_s", graph_median(|s| &s.decompose) / 1e3, "s");
        m.set("validate_s", graph_median(|s| &s.validate) / 1e3, "s");
        m.set("rounds", median(&rounds), "count");
        m.set("colors", median(&colors), "count");
        m.set("strong_diameter", median(&diameters), "hops");
    } else {
        m.set("setup_s", median(&setup), "s");
        m.set("op_p50_ms", graph_median(|s| &s.op), "ms");
        let all: Vec<f64> = per_graph
            .iter()
            .flat_map(|s| s.op.iter().copied())
            .collect();
        m.set(
            "ops_per_s",
            1e3 * all.len() as f64 / all.iter().sum::<f64>(),
            "1/s",
        );
        m.set("peak_rss_mb", peak_rss_mb(std::process::id()), "MB");
    }
    Ok(out)
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
pub struct LayerRun {
    rec: Recorder,
    /// Plain and traced decomposition times, indexed by op id - 1.
    plain_decompose: Vec<f64>,
    traced_decompose: Vec<f64>,
    rounds_mismatches: u64,
}

/// One traced op: the plain pipeline (the untraced baseline and the
/// reference output), then the same pipeline rebuilt from the layers'
/// public entry points inside spans, then validation with its
/// per-cluster diameter calls re-issued inside spans.
fn traced_op(
    spec: &BatchSpec,
    g: &Graph,
    params: &Params,
    ctx: &mut CarveCtx,
    layer: &mut LayerRun,
) -> (Option<OpResult>, Vec<String>) {
    let plain = match run_op(g, ctx, |l, c| plain_decompose(spec.algo, g, params, l, c)) {
        Ok(op) => op,
        Err(e) => return (None, vec![e]),
    };
    let rec = &layer.rec;
    rec.set_op(layer.plain_decompose.len() as u32 + 1);
    let carver: Box<dyn StrongCarver + '_> = match spec.algo {
        Algo::Thm23 => Box::new(trace::thm22(params, rec)),
        Algo::Thm34 => Box::new(TracedImprove {
            params: params.clone(),
            base: trace::thm22(params, rec),
        }),
    };
    let mut ledger = RoundLedger::new();
    let t0 = Instant::now();
    let decomposed = rec.span("clustering.reduction", || {
        let out = decompose_with_in(g, &*carver, &mut ledger, ctx);
        (out, [ledger.rounds(), ledger.messages(), g.n() as u64, 0])
    });
    let traced_t = t0.elapsed();
    layer.plain_decompose.push(plain.decompose.as_secs_f64());
    layer.traced_decompose.push(traced_t.as_secs_f64());
    let decomp = match decomposed {
        Ok(d) => d,
        Err(c) => return (None, vec![format!("cancelled: {c:?}")]),
    };

    let t1 = Instant::now();
    let report = rec.time("clustering.validate", || {
        validate_decomposition_in(g, &decomp, ctx)
    });
    let validate_t = t1.elapsed();
    let report = match report {
        Ok(r) => r,
        Err(c) => return (None, vec![format!("cancelled: {c:?}")]),
    };
    // The validator's per-cluster diameter calls, issued again one by
    // one so their cost can be split from the structural gates.
    let mut max_strong = 0u32;
    for c in decomp.clusters() {
        let s = rec.time("graph.diameter", || {
            metrics::strong_diameter_of_in(g, c, ctx)
        });
        max_strong = max_strong.max(s.unwrap_or(0));
        rec.time("graph.diameter", || metrics::weak_diameter_of_in(g, c, ctx));
        if g.is_weighted() {
            rec.time("graph.diameter", || {
                metrics::weighted_strong_diameter_of_in(g, c, ctx)
            });
            rec.time("graph.diameter", || {
                metrics::weighted_weak_diameter_of_in(g, c, ctx)
            });
        }
    }

    let traced = OpResult {
        decomp,
        report,
        ledger,
        decompose: traced_t,
        validate: validate_t,
    };
    let mut errors = check(g, &plain, None);
    errors.extend(check(g, &traced, Some(checksum(&plain.decomp))));
    if Some(max_strong) != traced.report.max_strong_diameter {
        errors.push(format!(
            "re-issued diameter calls give {max_strong}, the validator {:?}",
            traced.report.max_strong_diameter
        ));
    }
    if traced.ledger.messages() != plain.ledger.messages() {
        errors.push(format!(
            "traced messages {} != plain {}",
            traced.ledger.messages(),
            plain.ledger.messages()
        ));
    }
    if traced.ledger.rounds() != plain.ledger.rounds() {
        layer.rounds_mismatches += 1;
    }
    (Some(plain), errors)
}

impl LayerRun {
    fn finish(&self, m: &mut crate::report::Metrics, ingest_s: &[f64], relabel_s: &[f64]) {
        let ops = self.plain_decompose.len().max(1) as f64;
        let totals = self.rec.totals();
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        m.set("graph.ingest_s", median(ingest_s), "s");
        m.set("graph.relabel_s", median(relabel_s), "s");
        let diameter = t("graph.diameter");
        m.set("graph.diameter_calls", diameter.calls as f64 / ops, "count");
        m.set("graph.diameter_s", diameter.total_s / ops, "s");
        let weak = t("weak");
        m.set("weak.calls", weak.calls as f64 / ops, "count");
        m.set("weak.busy_s", weak.total_s / ops, "s");
        m.set("weak.rounds", weak.rounds as f64 / ops, "count");
        m.set("weak.messages", weak.messages as f64 / ops, "count");
        m.set("weak.alive_nodes", weak.alive as f64 / ops, "count");
        let tr = t("core.transform");
        m.set("core.transform.calls", tr.calls as f64 / ops, "count");
        m.set("core.transform.self_s", tr.self_s / ops, "s");
        m.set(
            "core.transform.self_rounds",
            tr.self_rounds as f64 / ops,
            "count",
        );
        let killed = if tr.alive > 0 {
            tr.dead as f64 / tr.alive as f64
        } else {
            0.0
        };
        m.set("core.transform.killed_frac", killed, "fraction");
        let im = t("core.improve");
        m.set("core.improve.calls", im.calls as f64 / ops, "count");
        m.set("core.improve.self_s", im.self_s / ops, "s");
        m.set(
            "core.improve.self_rounds",
            im.self_rounds as f64 / ops,
            "count",
        );

        // The reduction's carvings are its direct children; the share of
        // each op's wall clock they cover is the trace's coverage.
        let spans = self.rec.spans();
        let mut covered = vec![0.0; self.traced_decompose.len()];
        let mut carvings = 0u64;
        for s in &spans {
            if let Some(p) = s
                .parent
                .filter(|&p| spans[p].name == "clustering.reduction")
            {
                carvings += 1;
                covered[spans[p].op as usize - 1] += s.secs();
            }
        }
        let coverage = covered
            .iter()
            .zip(&self.traced_decompose)
            .map(|(c, wall)| c / wall)
            .fold(f64::INFINITY, f64::min);
        let red = t("clustering.reduction");
        m.set(
            "clustering.reduction.carvings",
            carvings as f64 / ops,
            "count",
        );
        m.set("clustering.reduction.self_s", red.self_s / ops, "s");
        let gates = t("clustering.validate").total_s - diameter.total_s;
        m.set("clustering.validate.gates_s", gates / ops, "s");
        m.set(
            "trace.coverage",
            if coverage.is_finite() { coverage } else { 0.0 },
            "fraction",
        );
        let overhead = median(&self.traced_decompose) - median(&self.plain_decompose);
        m.set("trace.overhead_s", overhead, "s");
        m.set(
            "trace.rounds_mismatches",
            self.rounds_mismatches as f64,
            "count",
        );
    }
}
