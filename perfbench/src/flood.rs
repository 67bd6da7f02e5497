//! The `congest-flood` workload: a BFS flood from a fixed source on an
//! RMAT-16 graph, run once per op in each lane of the CONGEST engine —
//! sequential and 2-thread parallel on reused `EngineSession`s, and the
//! asynchronous lane with two workers and no faults. The carving stack
//! charges rounds through fast paths and never runs the engine, so this
//! is the only workload that measures `congest`, and the only
//! multithreaded one.

use crate::inputs::{self, InputFile, Rng};
use crate::report::{median, ms, peak_rss_mb, Outcome};
use sdnd_congest::primitives::BfsKernel;
use sdnd_congest::{
    run_async, Adversary, AsyncConfig, CostModel, Engine, EngineSession, RunOutcome,
};
use sdnd_graph::{algo, Graph, NodeId, NodeOrder};
use std::path::Path;
use std::time::{Duration, Instant};

const SCALE: u32 = 16;
const EDGE_FACTOR: usize = 8;
const THREADS: usize = 2;
/// Session builds timed per run; the median is `setup_s`.
const SETUP_SAMPLES: usize = 15;
/// Ops every run completes, however short its time budget.
const MIN_OPS: usize = 5;

/// Opens the sequential and parallel sessions on `g` and builds their
/// message arenas and shard layout with a zero-radius flood (which
/// sends nothing).
fn open_sessions<'g>(
    seq: &Engine,
    par: &Engine,
    g: &'g Graph,
    source: NodeId,
) -> Result<(EngineSession<'g>, EngineSession<'g>), String> {
    let view = g.full_view();
    let warm = BfsKernel::new(&view, [source], 0);
    let mut s = seq.session(g);
    let mut p = par.session(g);
    s.run(&view, &warm).map_err(|e| e.to_string())?;
    p.run(&view, &warm).map_err(|e| e.to_string())?;
    Ok((s, p))
}

/// The lanes' outputs must agree exactly with each other, and the
/// distances with an independent sequential BFS.
fn check<S: PartialEq>(
    seq: &RunOutcome<S>,
    others: [(&str, &RunOutcome<S>); 2],
    dists: &[Option<u32>],
    reference: &[Option<u32>],
) -> Vec<String> {
    let mut errors = Vec::new();
    for (lane, o) in others {
        if o.states != seq.states {
            errors.push(format!(
                "{lane} lane states differ from the sequential lane"
            ));
        }
        if o.rounds != seq.rounds || o.ledger.rounds() != seq.ledger.rounds() {
            errors.push(format!(
                "{lane} lane rounds {} != sequential {}",
                o.rounds, seq.rounds
            ));
        }
        if o.ledger.messages() != seq.ledger.messages() {
            errors.push(format!(
                "{lane} lane messages {} != sequential {}",
                o.ledger.messages(),
                seq.ledger.messages()
            ));
        }
    }
    if dists != reference {
        errors.push("flood distances differ from a sequential BFS".into());
    }
    errors
}

pub fn run(seed: u64, seconds: u64, traced: bool, data: &Path) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed, 0);
    let edges = inputs::rmat(SCALE, EDGE_FACTOR, &mut rng);
    let path = data.join(format!("congest-flood-s{seed}.edges"));
    inputs::write_edge_list(&path, &edges).map_err(|e| format!("{}: {e}", path.display()))?;
    drop(edges);
    let input = InputFile {
        path,
        n: 1 << SCALE,
    };
    let (base, _) = inputs::ingest(&input, NodeOrder::Natural)?;
    let mut out = Outcome::default();
    out.input("rmat-16", &base);

    // The hub: RMAT's quadrant bias makes node 0 the densest corner.
    let source = NodeId::new(0);
    let reference: Vec<Option<u32>> = {
        let r = algo::bfs(&base.full_view(), [source]);
        base.nodes()
            .map(|v| r.reached(v).then(|| r.dist(v)))
            .collect()
    };
    let cost = CostModel::congest_for(base.n());
    let seq_engine = Engine::new(cost);
    let par_engine = Engine::new(cost).with_threads(THREADS);
    let async_cfg = AsyncConfig::new(Adversary::new(seed)).with_workers(THREADS);

    // Each sample builds sessions on a fresh copy of the graph, so the
    // graph's lazily built reverse-edge table is part of every sample.
    let mut setup = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let g = base.clone();
        let t = Instant::now();
        open_sessions(&seq_engine, &par_engine, &g, source)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let g = base.clone();
    drop(base);
    let t = Instant::now();
    let (mut seq, mut par) = open_sessions(&seq_engine, &par_engine, &g, source)?;
    setup.push(t.elapsed().as_secs_f64());

    let view = g.full_view();
    let kernel = BfsKernel::new(&view, [source], u32::MAX);
    let (mut seq_ms, mut par_ms, mut async_ms, mut op_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rounds, mut messages, mut control) = (0, 0, 0);
    let started = Instant::now();
    let mut measured = Duration::ZERO;
    while op_ms.len() < MIN_OPS || started.elapsed() < Duration::from_secs(seconds) {
        let t0 = Instant::now();
        let s = seq
            .run(&view, &kernel)
            .map_err(|e| format!("sequential lane: {e}"));
        let t1 = Instant::now();
        let p = par
            .run(&view, &kernel)
            .map_err(|e| format!("parallel lane: {e}"));
        let t2 = Instant::now();
        let a = run_async(&par_engine, &view, &kernel, &async_cfg)
            .map_err(|e| format!("async lane: {e}"));
        let t3 = Instant::now();
        measured += t3 - t0;
        let errors = match (s, p, a) {
            (Ok(s), Ok(p), Ok(a)) => {
                rounds = s.rounds;
                messages = s.ledger.messages();
                control = a.report.acks + a.report.safe_notices;
                let dists: Vec<Option<u32>> = s
                    .states
                    .iter()
                    .map(|st| st.as_ref().and_then(|st| st.dist))
                    .collect();
                let mut errors = check(
                    &s,
                    [("parallel", &p), ("async", &a.outcome)],
                    &dists,
                    &reference,
                );
                if !a.report.is_clean() {
                    errors.push("zero-fault async run reported faults".into());
                }
                errors
            }
            (s, p, a) => [s.err(), p.err(), a.err()].into_iter().flatten().collect(),
        };
        seq_ms.push(ms(t1 - t0));
        par_ms.push(ms(t2 - t1));
        async_ms.push(ms(t3 - t2));
        op_ms.push(ms(t3 - t0));
        out.op(errors);
    }

    let m = &mut out.metrics;
    if traced {
        m.set("congest.session_build_s", median(&setup), "s");
        m.set("congest.messages", messages as f64, "count");
        m.set("congest.async.control_msgs", control as f64, "count");
        m.set(
            "congest.par_speedup",
            median(&seq_ms) / median(&par_ms),
            "ratio",
        );
        m.set("sim_seq_ms", median(&seq_ms), "ms");
        m.set("sim_par_ms", median(&par_ms), "ms");
        m.set("sim_async_ms", median(&async_ms), "ms");
        m.set("rounds", rounds as f64, "count");
    } else {
        m.set("setup_s", median(&setup), "s");
        m.set("op_p50_ms", median(&op_ms), "ms");
        m.set(
            "ops_per_s",
            op_ms.len() as f64 / measured.as_secs_f64(),
            "1/s",
        );
        m.set("peak_rss_mb", peak_rss_mb(std::process::id()), "MB");
    }
    Ok(out)
}
