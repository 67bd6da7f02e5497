//! `perfbench compare A.json B.json`: compares two run manifests metric
//! by metric, and refuses when the runs did not see the same inputs.
//!
//! Each end-to-end metric is flagged when B is worse than A by more
//! than the bound `BENCHMARK.json` fixes for it (read from the working
//! directory when present).

use serde::{DeError, Deserialize, Value};
use std::process::ExitCode;

/// Any JSON value, kept as the shim's value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Raw(v.clone()))
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str::<Raw>(&text)
        .map(|r| r.0)
        .map_err(|e| format!("{path}: {e}"))
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::U64(x)) => x.to_string(),
        _ => "?".into(),
    }
}

/// `(name, content hash)` of every input of a run.
fn input_hashes(run: &Value) -> Vec<(String, String)> {
    match run.get("inputs") {
        Some(Value::Array(inputs)) => inputs
            .iter()
            .map(|i| (text(i.get("name")), text(i.get("content_hash"))))
            .collect(),
        _ => Vec::new(),
    }
}

/// `name -> (better, bound)` for the end-to-end metrics.
fn bounds() -> Vec<(String, String, f64)> {
    let Ok(spec) = load("BENCHMARK.json") else {
        return Vec::new();
    };
    match spec.get("end_to_end") {
        Some(Value::Array(ms)) => ms
            .iter()
            .filter_map(|m| {
                Some((
                    text(m.get("name")),
                    text(m.get("better")),
                    num(m.get("bound"))?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    for key in ["workload", "seed", "trace"] {
        if text(a.get(key)) != text(b.get(key)) {
            eprintln!(
                "perfbench compare: refusing: {key} differs ({} vs {})",
                text(a.get(key)),
                text(b.get(key))
            );
            return ExitCode::FAILURE;
        }
    }
    if input_hashes(&a) != input_hashes(&b) {
        eprintln!("perfbench compare: refusing: the runs' input content hashes differ");
        return ExitCode::FAILURE;
    }
    for key in ["commit", "rustc", "nproc"] {
        println!("{key:<8} {} -> {}", text(a.get(key)), text(b.get(key)));
    }
    let bounds = bounds();
    let metrics = |run: &Value| match run.get("result").and_then(|r| r.get("metrics")) {
        Some(Value::Object(fields)) => fields.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&b);
    let mut regressions = 0;
    for (name, va) in metrics(&a) {
        let x = num(va.get("value")).unwrap_or(0.0);
        let Some(y) = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| num(v.get("value")))
        else {
            continue;
        };
        let change = if x == 0.0 { 0.0 } else { y / x - 1.0 };
        let verdict = match bounds.iter().find(|(n, _, _)| *n == name) {
            Some((_, better, bound)) => {
                let worse = if better == "higher" { -change } else { change };
                if worse > *bound {
                    regressions += 1;
                    format!("WORSE beyond bound {bound}")
                } else {
                    format!("within bound {bound}")
                }
            }
            None => String::new(),
        };
        println!(
            "{name:<36} {x:>14.6} {y:>14.6} {:>+8.2}%  {verdict}",
            change * 100.0
        );
    }
    println!("end-to-end metrics worse beyond their bound: {regressions}");
    ExitCode::SUCCESS
}
