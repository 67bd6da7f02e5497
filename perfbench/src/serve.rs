//! The `serve-mix` workload: an `sdnd serve` daemon with
//! `grid:102x102` preloaded, driven closed-loop over its Unix socket by
//! two connections.
//!
//! The mix is the loadgen's request classes plus `carve thm3.3`:
//! cluster-of, distance-in-cluster, `decompose thm2.3` over
//! zipf(1.3)-ranked seeds, validate, stats. There are 16 decompose
//! seeds, twice the daemon's 8 LRU slots, so hits and misses both occur
//! and cheap point reads queue behind cold decomposes. No request
//! carries a deadline.
//!
//! The decompose seeds follow one fixed cycle, so every window of the
//! stream that holds a whole cycle costs the same misses; `ops_per_s`
//! is the median rate over such windows.
//!
//! The daemon is this binary re-executed as `daemon`, which runs the
//! same `sdnd_serve::spawn_unix` entry point as `sdnd serve --socket`.

use crate::inputs::Rng;
use crate::report::{median, ms, peak_rss_mb, percentile, Outcome};
use sdnd_clustering::{
    validate_decomposition_in, CarveCtx, ClusterId, NetworkDecomposition, StrongCarver,
};
use sdnd_congest::RoundLedger;
use sdnd_core::{decompose_strong_with_in, Params, Theorem33Carver};
use sdnd_graph::{gen, Deadline, Graph, NodeId, NodeSet};
use sdnd_serve::{parse_request, ServeConfig, ServeState, SharedCounters};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const GRAPH: &str = "grid:102x102";
const SIDE: usize = 102;
const CLIENTS: u64 = 2;
const DECOMPOSE_SEEDS: usize = 16;
const ZIPF_S: f64 = 1.3;
/// Daemon spawns timed per run; the median is `setup_s`.
const SETUP_SAMPLES: usize = 21;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// `perfbench daemon --socket PATH --graph SPEC`: serves until a
/// `shutdown` request, with the `sdnd serve` defaults (queue 32, LRU 8).
pub fn daemon_main(args: &[String]) -> ExitCode {
    let (mut socket, mut graph) = (None, None);
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag == "--socket" => socket = Some(PathBuf::from(value)),
            [flag, value] if flag == "--graph" => graph = Some(value.clone()),
            _ => {
                eprintln!("perfbench daemon: usage: daemon --socket PATH --graph SPEC");
                return ExitCode::from(2);
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("perfbench daemon: --socket is required");
        return ExitCode::from(2);
    };
    let config = ServeConfig {
        preload: graph,
        ..ServeConfig::default()
    };
    match sdnd_serve::spawn_unix(&socket, &config) {
        Ok(handle) => {
            // The benchmark holds this process's stdin open: end of input
            // means the benchmark is gone, however it ended, and the
            // daemon shuts itself down. The watcher stays blocked on
            // stdin after a normal shutdown, so it is left detached and
            // ends with the process.
            let watched = socket.clone();
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
                if let Ok(mut s) = UnixStream::connect(&watched) {
                    let _ = writeln!(s, "shutdown");
                }
            });
            handle.join();
            let _ = std::fs::remove_file(&socket);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench daemon: bind {}: {e}", socket.display());
            ExitCode::FAILURE
        }
    }
}

/// A spawned daemon; killed and reaped on drop if it is still running.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .arg("--graph")
            .arg(GRAPH)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects, retrying while the daemon binds its socket.
    fn connect(&mut self) -> Result<Client, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Client::new(s),
                Err(e) if start.elapsed() > IO_TIMEOUT => return Err(format!("connect: {e}")),
                Err(_) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut c = self.connect()?;
        let reply = c.call("shutdown")?;
        if !reply.starts_with("ok") {
            return Err(format!("shutdown answered `{reply}`"));
        }
        let start = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if start.elapsed() > IO_TIMEOUT {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Client, String> {
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send `{line}`: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err(format!("daemon closed the connection on `{line}`")),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("read reply to `{line}`: {e}")),
        }
    }
}

/// Request classes, for per-class service times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    ClusterOf,
    Distance,
    Decompose,
    Validate,
    Stats,
    Carve,
}

/// A shuffled deck: every refill holds each item exactly its count of
/// times, in random order. Drawing from decks keeps the mix exact per
/// deck; drawing item by item would let the count of the few expensive
/// requests, and with it the run's figures, vary from seed to seed.
struct Deck<T: Copy> {
    counts: Vec<(T, usize)>,
    cards: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(counts: Vec<(T, usize)>) -> Deck<T> {
        Deck {
            counts,
            cards: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.cards.is_empty() {
            self.cards = self
                .counts
                .iter()
                .flat_map(|&(c, k)| std::iter::repeat_n(c, k))
                .collect();
            for i in (1..self.cards.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
        }
        self.cards.pop().expect("refilled above")
    }
}

/// Requests of each class per `DECK` of the stream.
const MIX: [(Class, usize); 6] = [
    (Class::ClusterOf, 38),
    (Class::Distance, 25),
    (Class::Decompose, 20),
    (Class::Validate, 10),
    (Class::Stats, 5),
    (Class::Carve, 2),
];

/// Requests per deck of `MIX`.
const DECK: usize = 100;

/// Decompose requests per pass over the decompose seeds.
const CYCLE: usize = 100;

/// Requests per rate window: the decks of `MIX` that hold one pass over
/// the decompose seeds, so every window starting at a deck boundary
/// costs the same work.
const WINDOW: usize = DECK * CYCLE / MIX[2].1;

const _: () = {
    let mut total = 0;
    let mut i = 0;
    while i < MIX.len() {
        total += MIX[i].1;
        i += 1;
    }
    assert!(
        total == DECK && matches!(MIX[2].0, Class::Decompose) && CYCLE.is_multiple_of(MIX[2].1)
    );
};

/// How often each decompose seed appears per `CYCLE` decompose
/// requests: zipf(`ZIPF_S`) over the ranks, rounded by largest
/// remainder.
fn zipf_counts() -> Vec<(usize, usize)> {
    let w: Vec<f64> = (1..=DECOMPOSE_SEEDS)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * CYCLE as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..DECOMPOSE_SEEDS).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = CYCLE - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts.into_iter().enumerate().collect()
}

/// The seeds of successive decompose requests: the zipf deck shuffled
/// once, by a fixed stream rather than the run's seed, and repeated.
/// With a fixed cycle the LRU reaches one steady state, in which every
/// pass over the cycle costs the same misses; shuffled per run, a pass
/// would cost anywhere from 16 to 28 of them.
fn decompose_cycle() -> Vec<usize> {
    let mut deck = Deck::new(zipf_counts());
    let mut rng = Rng::new(0, 101);
    (0..CYCLE).map(|_| deck.draw(&mut rng)).collect()
}

/// The request stream both clients draw from.
struct Requests {
    rng: Rng,
    classes: Deck<Class>,
    cycle: Vec<usize>,
    decomposes: usize,
}

impl Requests {
    fn new(rng: Rng) -> Requests {
        Requests {
            rng,
            classes: Deck::new(MIX.to_vec()),
            cycle: decompose_cycle(),
            decomposes: 0,
        }
    }

    fn next(&mut self) -> (Class, String) {
        let class = self.classes.draw(&mut self.rng);
        let n = (SIDE * SIDE) as u64;
        let rng = &mut self.rng;
        let line = match class {
            Class::ClusterOf => format!("cluster-of {}", rng.below(n)),
            Class::Distance => {
                // A node and a near neighbor: usually one cluster, and
                // the different-cluster answer is itself a served path.
                let u = rng.below(n);
                let v = (u + rng.below(3)).min(n - 1);
                format!("distance-in-cluster {u} {v}")
            }
            Class::Decompose => {
                let seed = self.cycle[self.decomposes % self.cycle.len()];
                self.decomposes += 1;
                format!("decompose thm2.3 0.5 {seed}")
            }
            Class::Validate => "validate".into(),
            Class::Stats => "stats".into(),
            Class::Carve => "carve thm3.3 0.5".into(),
        };
        (class, line)
    }
}

/// Answers computed in-process before the daemon starts.
struct Reference {
    graph: Graph,
    decomp: NetworkDecomposition,
    colors: u32,
    strong_diameter: u32,
    carve_clusters: usize,
    carve_dead: String,
}

impl Reference {
    fn build() -> Result<Reference, String> {
        let graph = gen::grid(SIDE, SIDE);
        let params = Params::default();
        let mut ctx = CarveCtx::new();
        let mut ledger = RoundLedger::new();
        let decomp = decompose_strong_with_in(&graph, &params, &mut ledger, &mut ctx)
            .map_err(|c| format!("reference decompose: {c:?}"))?;
        let report = validate_decomposition_in(&graph, &decomp, &mut ctx)
            .map_err(|c| format!("reference validate: {c:?}"))?;
        if !report.is_valid() {
            return Err("reference decomposition does not validate".into());
        }
        let carving = Theorem33Carver::new(params)
            .carve_strong_in(
                &graph,
                &NodeSet::full(graph.n()),
                0.5,
                &mut RoundLedger::new(),
                &mut ctx,
            )
            .map_err(|c| format!("reference carve: {c:?}"))?;
        Ok(Reference {
            colors: report.colors,
            strong_diameter: report.max_strong_diameter.unwrap_or(0),
            carve_clusters: carving.num_clusters(),
            carve_dead: format!("{:.4}", carving.dead_fraction()),
            graph,
            decomp,
        })
    }

    /// BFS distance from `u` to `v` inside their shared cluster.
    fn distance(&self, u: usize, v: usize) -> Option<u32> {
        let c = self.decomp.cluster_of(NodeId::new(u))?;
        let mut dist = HashMap::from([(u, 0u32)]);
        let mut queue = VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            if x == v {
                return dist.get(&v).copied();
            }
            for &y in self.graph.neighbors(NodeId::new(x)) {
                if self.decomp.cluster_of(y) == Some(c) && !dist.contains_key(&y.index()) {
                    dist.insert(y.index(), dist[&x] + 1);
                    queue.push_back(y.index());
                }
            }
        }
        None
    }

    /// Whether `reply` is the right answer to `request`.
    fn check(&self, class: Class, request: &str, reply: &str) -> Result<(), String> {
        let field = |key: &str| {
            reply
                .split_whitespace()
                .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
                .map(str::to_string)
        };
        let args: Vec<usize> = request
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        let ok = match class {
            Class::ClusterOf => {
                let c = self
                    .decomp
                    .cluster_of(NodeId::new(args[0]))
                    .expect("full cover");
                reply
                    == format!(
                        "ok cluster={} color={} size={}",
                        c.0,
                        self.decomp.color(c),
                        self.decomp.members(c).len()
                    )
            }
            Class::Distance => {
                let (u, v) = (args[0], args[1]);
                let (cu, cv) = (self.cluster(u), self.cluster(v));
                if cu == cv {
                    self.distance(u, v)
                        .is_some_and(|d| reply == format!("ok distance={d}"))
                } else {
                    reply
                        == format!(
                            "err different-clusters u-cluster={} v-cluster={}",
                            cu.0, cv.0
                        )
                }
            }
            Class::Decompose => {
                reply.starts_with("ok decomposition")
                    && field("clusters") == Some(self.decomp.num_clusters().to_string())
                    && field("colors") == Some(self.colors.to_string())
            }
            Class::Validate => {
                reply.starts_with("ok valid=true tier=exact")
                    && field("colors") == Some(self.colors.to_string())
                    && field("strong-diameter") == Some(self.strong_diameter.to_string())
            }
            Class::Stats => reply.starts_with("ok stats"),
            Class::Carve => {
                reply.starts_with("ok carving")
                    && field("clusters") == Some(self.carve_clusters.to_string())
                    && field("dead-fraction").as_deref() == Some(self.carve_dead.as_str())
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("`{request}` answered `{reply}`"))
        }
    }

    fn cluster(&self, v: usize) -> ClusterId {
        self.decomp.cluster_of(NodeId::new(v)).expect("full cover")
    }
}

/// One completed request.
struct Record {
    class: Class,
    request: String,
    reply: String,
    latency_ms: f64,
    /// When the reply arrived, in seconds since the timed loop started.
    done_s: f64,
    /// Position in the shared request stream; the single worker serves
    /// requests in about this order, so replays follow it.
    seq: u64,
}

/// One closed-loop client: take the next request of the stream both
/// clients share, send it, wait for the reply. Sharing one stream keeps
/// the sequence of decompose seeds the LRU sees the same from run to
/// run, whichever client sends each request.
fn client_loop(
    daemon: &Path,
    stream: &Mutex<(Requests, u64)>,
    started: Instant,
    until: Instant,
) -> Result<Vec<Record>, String> {
    let socket = UnixStream::connect(daemon).map_err(|e| format!("connect: {e}"))?;
    let mut c = Client::new(socket)?;
    let mut log = Vec::new();
    while Instant::now() < until {
        let (class, request, seq) = {
            let mut s = stream
                .lock()
                .map_err(|_| "request stream poisoned".to_string())?;
            let (class, request) = s.0.next();
            s.1 += 1;
            (class, request, s.1)
        };
        let t = Instant::now();
        let reply = c.call(&request)?;
        log.push(Record {
            class,
            request,
            reply,
            latency_ms: ms(t.elapsed()),
            done_s: started.elapsed().as_secs_f64(),
            seq,
        });
    }
    Ok(log)
}

/// Median completion rate over windows of `WINDOW` replies, one
/// starting at every deck boundary; `done` holds the reply times in
/// order. A slow stretch of the host moves only the windows it
/// overlaps. Runs too short for one window report the plain rate.
fn windowed_rate(done: &[f64], wall: Duration) -> f64 {
    let rates: Vec<f64> = (0..)
        .map(|w| w * DECK)
        .take_while(|&i| i + WINDOW <= done.len())
        .map(|i| {
            let start = if i == 0 { 0.0 } else { done[i - 1] };
            WINDOW as f64 / (done[i + WINDOW - 1] - start)
        })
        .collect();
    if rates.is_empty() {
        done.len() as f64 / wall.as_secs_f64()
    } else {
        median(&rates)
    }
}

fn stat(reply: &str, key: &str) -> f64 {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// The two-connection isolation probe: A loads a 4x4 grid, B a 10-node
/// cycle, and A's next decompose and `cluster-of 15` must still act on
/// A's graph. Returns whether state leaked across connections.
fn isolation_probe(daemon: &mut Daemon) -> Result<bool, String> {
    let mut a = daemon.connect()?;
    let mut b = daemon.connect()?;
    a.call("load grid:4x4")?;
    b.call("load cycle:10")?;
    a.call("decompose thm2.3 0.5 1")?;
    let reply = a.call("cluster-of 15")?;
    Ok(!reply.starts_with("ok cluster="))
}

pub fn run(seed: u64, seconds: u64, traced: bool, root: &Path) -> Result<Outcome, String> {
    let reference = Reference::build()?;
    let mut out = Outcome::default();
    out.input(GRAPH, &reference.graph);
    let socket = root.join(format!("serve-{}.sock", std::process::id()));

    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let mut d = Daemon::spawn(&socket)?;
        let reply = d.connect()?.call("stats")?;
        setup.push(t.elapsed().as_secs_f64());
        if stat(&reply, "graphs") != 1.0 {
            return Err(format!("preloaded daemon answered `{reply}`"));
        }
        if i + 1 < SETUP_SAMPLES {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up sample");

    // Warm-up, outside the measurement: one pass over the decompose
    // cycle leaves the LRU in the state every later pass starts from,
    // and gives the point queries a current decomposition.
    let mut warm = daemon.connect()?;
    for seed in decompose_cycle() {
        let request = format!("decompose thm2.3 0.5 {seed}");
        reference.check(Class::Decompose, &request, &warm.call(&request)?)?;
    }
    drop(warm);

    let started = Instant::now();
    let until = started + Duration::from_secs(seconds);
    let stream = Mutex::new((Requests::new(Rng::new(seed, 100)), 0));
    let logs: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (sock, stream) = (&daemon.socket, &stream);
                s.spawn(move || client_loop(sock, stream, started, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed();
    let mut log: Vec<Record> = Vec::new();
    for l in logs {
        log.extend(l?);
    }
    log.sort_by_key(|r| r.seq);

    for r in &log {
        out.op(reference
            .check(r.class, &r.request, &r.reply)
            .err()
            .into_iter()
            .collect());
    }
    let stats = daemon.connect()?.call("stats")?;
    let rss = peak_rss_mb(daemon.child.id());
    let leak = isolation_probe(&mut daemon)?;
    daemon.shutdown()?;

    let latency: Vec<f64> = log.iter().map(|r| r.latency_ms).collect();
    let m = &mut out.metrics;
    if !traced {
        m.set("setup_s", median(&setup), "s");
        m.set("op_p50_ms", median(&latency), "ms");
        let mut done: Vec<f64> = log.iter().map(|r| r.done_s).collect();
        done.sort_by(f64::total_cmp);
        m.set("ops_per_s", windowed_rate(&done, wall), "1/s");
        m.set("peak_rss_mb", rss, "MB");
        return Ok(out);
    }

    let point: Vec<f64> = log
        .iter()
        .filter(|r| matches!(r.class, Class::ClusterOf | Class::Distance))
        .map(|r| r.latency_ms)
        .collect();
    m.set("qps", log.len() as f64 / wall.as_secs_f64(), "req/s");
    m.set("latency_p50_ms", median(&latency), "ms");
    m.set("latency_p99_ms", percentile(&latency, 99.0), "ms");
    m.set("point_p99_ms", percentile(&point, 99.0), "ms");
    let (hits, misses) = (stat(&stats, "lru-hits"), stat(&stats, "lru-misses"));
    m.set(
        "serve.lru_hit_ratio",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    m.set("serve.sheds", stat(&stats, "overloaded"), "count");
    m.set("serve.isolation_leak", f64::from(u8::from(leak)), "count");
    m.set("colors", f64::from(reference.colors), "count");
    m.set(
        "strong_diameter",
        f64::from(reference.strong_diameter),
        "hops",
    );

    // Service time per class: the run's requests replayed in service
    // order through the daemon's core, in-process.
    let mut state = ServeState::new(
        ServeConfig::default().lru_cap,
        Arc::new(SharedCounters::default()),
    );
    let unarmed = Deadline::unarmed();
    let mut execute = |line: &str| -> Result<(String, f64), String> {
        let req = parse_request(line)?;
        let t = Instant::now();
        let reply = state.execute(&req, &unarmed);
        Ok((reply, ms(t.elapsed())))
    };
    execute(&format!("load {GRAPH}"))?;
    for seed in decompose_cycle() {
        execute(&format!("decompose thm2.3 0.5 {seed}"))?;
    }
    let mut service: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut service_of = Vec::with_capacity(log.len());
    for r in &log {
        let (reply, t) = execute(&r.request)?;
        if let Err(e) = reference.check(r.class, &r.request, &reply) {
            out.failures.push(format!("replay: {e}"));
        }
        let key = match r.class {
            Class::Decompose if reply.contains("cached=true") => "decompose-cached",
            Class::Decompose => "decompose-cold",
            Class::ClusterOf => "cluster-of",
            Class::Distance => "distance",
            Class::Validate => "validate",
            Class::Stats => "stats",
            Class::Carve => "carve",
        };
        service.entry(key).or_default().push(t);
        service_of.push(key);
    }
    let med: HashMap<&str, f64> = service.iter().map(|(k, v)| (*k, median(v))).collect();
    for key in [
        "decompose-cold",
        "decompose-cached",
        "cluster-of",
        "distance",
        "validate",
        "carve",
    ] {
        m.set(
            &format!("serve.execute.{key}_ms"),
            med.get(key).copied().unwrap_or(0.0),
            "ms",
        );
    }
    let wait: Vec<f64> = log
        .iter()
        .zip(&service_of)
        .map(|(r, key)| r.latency_ms - med[key])
        .collect();
    m.set("serve.wait_p99_ms", percentile(&wait, 99.0), "ms");
    Ok(out)
}
