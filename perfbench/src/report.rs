//! Sample statistics, the result line, and the per-run manifest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Named metrics with units, in a stable order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn names(&self) -> std::collections::BTreeSet<&str> {
        self.0.keys().map(String::as_str).collect()
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A finite number as JSON. Non-finite values, which only a run whose
/// every op failed can produce (no samples to divide by), become 0; such
/// a run already reports `correct: false`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The outcome of one workload run: counts, failures, metrics, and the
/// manifest of the inputs it saw.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// `(name, n, m, content hash)` of every input graph.
    pub inputs: Vec<(String, usize, usize, u64)>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Counts one attempted operation whose checks produced `errors`.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if let Some(first) = errors.into_iter().next() {
            self.failures.push(first);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn input(&mut self, name: &str, g: &sdnd_graph::Graph) {
        self.inputs
            .push((name.to_string(), g.n(), g.m(), g.content_hash()));
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed(),
            self.metrics.to_json()
        )
    }
}

/// What produced a run: enough to refuse comparing runs over different
/// inputs or hosts.
pub struct Manifest<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Manifest<'_> {
    pub fn to_json(&self, outcome: &Outcome) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let inputs: Vec<String> = outcome
            .inputs
            .iter()
            .map(|(name, n, m, hash)| {
                format!(
                    "{{\"name\": {}, \"n\": {n}, \"m\": {m}, \"content_hash\": \"{hash:016x}\"}}",
                    json_str(name)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
             \"commit\": {}, \"rustc\": {}, \"inputs\": [{}], \"result\": {}, \"failures\": [{}]}}",
            json_str(self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            json_str(&git_commit()),
            json_str(env!("PERFBENCH_RUSTC")),
            inputs.join(", "),
            outcome.result_line(),
            outcome
                .failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no subprocess, nothing outside the checkout); `unknown`
/// when the checkout is not a git repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
