//! The SDND benchmark: four workloads, end-to-end metrics from untraced
//! runs, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload geo-thm2.3 --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare .perfbench/runs/A.json .perfbench/runs/B.json
//! ```
//!
//! Run from the repository root. Inputs, the daemon socket and one
//! manifest per run go under `.perfbench/`. The last line on stdout is
//! the result: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metrics.

mod batch;
mod compare;
mod flood;
mod inputs;
mod report;
mod serve;
mod trace;

use batch::{Algo, BatchSpec};
use report::{Manifest, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 4] = ["geo-thm2.3", "wgeo-thm3.4", "serve-mix", "congest-flood"];

const GEO: BatchSpec = BatchSpec {
    name: "geo-thm2.3",
    n: 60_000,
    weights: None,
    algo: Algo::Thm23,
    graphs: 10,
    time_validate: false,
};

const WGEO: BatchSpec = BatchSpec {
    name: "wgeo-thm3.4",
    n: 3_000,
    weights: Some((1, 8)),
    algo: Algo::Thm34,
    graphs: 8,
    time_validate: true,
};

/// Every per-layer metric with its unit. A traced run prints all of
/// them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("graph.ingest_s", "s"),
    ("graph.relabel_s", "s"),
    ("graph.diameter_calls", "count"),
    ("graph.diameter_s", "s"),
    ("weak.calls", "count"),
    ("weak.busy_s", "s"),
    ("weak.rounds", "count"),
    ("weak.messages", "count"),
    ("weak.alive_nodes", "count"),
    ("core.transform.calls", "count"),
    ("core.transform.self_s", "s"),
    ("core.transform.self_rounds", "count"),
    ("core.transform.killed_frac", "fraction"),
    ("core.improve.calls", "count"),
    ("core.improve.self_s", "s"),
    ("core.improve.self_rounds", "count"),
    ("clustering.reduction.carvings", "count"),
    ("clustering.reduction.self_s", "s"),
    ("clustering.validate.gates_s", "s"),
    ("congest.session_build_s", "s"),
    ("congest.messages", "count"),
    ("congest.async.control_msgs", "count"),
    ("congest.par_speedup", "ratio"),
    ("serve.execute.decompose-cold_ms", "ms"),
    ("serve.execute.decompose-cached_ms", "ms"),
    ("serve.execute.cluster-of_ms", "ms"),
    ("serve.execute.distance_ms", "ms"),
    ("serve.execute.validate_ms", "ms"),
    ("serve.execute.carve_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.lru_hit_ratio", "fraction"),
    ("serve.sheds", "count"),
    ("serve.isolation_leak", "count"),
    ("decompose_s", "s"),
    ("validate_s", "s"),
    ("rounds", "count"),
    ("colors", "count"),
    ("strong_diameter", "hops"),
    ("qps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("point_p99_ms", "ms"),
    ("sim_seq_ms", "ms"),
    ("sim_par_ms", "ms"),
    ("sim_async_ms", "ms"),
    ("error_rate", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_s", "s"),
    ("trace.rounds_mismatches", "count"),
];

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [&str; 4] = ["setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = num(value)?,
            "--seconds" => parsed.seconds = num(value)?.max(1),
            "--trace" => parsed.trace = num(value)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload wants one of {}, got `{}`",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let data = root.join("data");
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    match args.workload.as_str() {
        "geo-thm2.3" => batch::run(&GEO, args.seed, args.seconds, args.trace, &data),
        "wgeo-thm3.4" => batch::run(&WGEO, args.seed, args.seconds, args.trace, &data),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace, root),
        "congest-flood" => flood::run(args.seed, args.seconds, args.trace, &data),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => return serve::daemon_main(&argv[1..]),
        Some("compare") => return compare::main(&argv[1..]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let mut outcome = match run(&args, &root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let error_rate = outcome.failed() as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.set("error_rate", error_rate, "fraction");
        for (name, unit) in PER_LAYER {
            if outcome.metrics.get(name).is_none() {
                outcome.metrics.set(name, 0.0, unit);
            }
        }
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|&(n, _)| n).collect()
    } else {
        END_TO_END.to_vec()
    };
    if outcome.metrics.names()
        != expected
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
    {
        eprintln!(
            "perfbench: {}: metric set differs from BENCHMARK.json",
            args.workload
        );
        return ExitCode::FAILURE;
    }
    let manifest = Manifest {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let runs = root.join("runs");
    let record = runs.join(format!(
        "{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let spans = record.with_extension("spans.jsonl");
    let written = std::fs::create_dir_all(&runs)
        .and_then(|()| std::fs::write(&record, manifest.to_json(&outcome) + "\n"))
        .and_then(|()| {
            if outcome.spans.is_empty() {
                Ok(())
            } else {
                std::fs::write(&spans, trace::to_jsonl(&outcome.spans))
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    for f in outcome.failures.iter().take(5) {
        eprintln!("perfbench: failed check: {f}");
    }
    eprintln!("perfbench: manifest {}", record.display());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
