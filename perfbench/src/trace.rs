//! Spans recorded from the benchmark's own files, around calls into
//! each layer's public entry points, and the carver wrappers that
//! rebuild the Theorem 2.3 / 3.4 pipelines out of those entry points.
//!
//! Spans stay in memory; the run folds them into per-layer totals when
//! it ends. A span's self time is its length minus the length of its
//! direct children, and its self rounds are the ledger rounds it saw
//! minus those its children saw. The carvers merge sibling ledgers
//! with `merge_parallel` (rounds are the maximum over siblings), so the
//! rounds seen by sibling spans can add up to more than the total.

use sdnd_clustering::{BallCarving, Cancelled, CarveCtx, StrongCarver, WeakCarver, WeakCarving};
use sdnd_congest::RoundLedger;
use sdnd_core::{improve, transform, Params};
use sdnd_graph::{Graph, NodeSet};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u32,
    pub rounds: u64,
    pub messages: u64,
    /// Alive nodes handed to the call.
    pub alive: u64,
    /// Nodes the call left dead (carvers only).
    pub dead: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-layer totals folded from the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub rounds: u64,
    pub self_rounds: u64,
    pub messages: u64,
    pub alive: u64,
    pub dead: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }
}

impl Recorder {
    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name`; `f` reports the span's
    /// ledger rounds and messages and the alive/dead node counts.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> (T, [u64; 4])) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.epoch.elapsed().as_secs_f64(),
                end: 0.0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                rounds: 0,
                messages: 0,
                alive: 0,
                dead: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let (out, [rounds, messages, alive, dead]) = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id];
        s.end = self.epoch.elapsed().as_secs_f64();
        (s.rounds, s.messages, s.alive, s.dead) = (rounds, messages, alive, dead);
        out
    }

    /// A span with no counts.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, || (f(), [0; 4]))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Folds every span into per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        let mut child_rounds = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
                child_rounds[p] += s.rounds;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += s.secs();
            t.self_s += s.secs() - child_s[i];
            t.rounds += s.rounds;
            t.self_rounds += s.rounds.saturating_sub(child_rounds[i]);
            t.messages += s.messages;
            t.alive += s.alive;
            t.dead += s.dead;
        }
        out
    }
}

/// One JSON object per span, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": {}, \"start\": {}, \"end\": {}, \
                 \"rounds\": {}, \"messages\": {}, \"alive\": {}, \"dead\": {}}}\n",
                s.op,
                s.name,
                s.parent.map_or_else(|| "null".into(), |p| p.to_string()),
                s.start,
                s.end,
                s.rounds,
                s.messages,
                s.alive,
                s.dead
            )
        })
        .collect()
}

/// Ledger snapshot taken before a wrapped call.
fn counts(ledger: &RoundLedger) -> (u64, u64) {
    (ledger.rounds(), ledger.messages())
}

/// The weak carver of `Params::weak_carver()`, inside `weak` spans.
pub struct TracedWeak<'r> {
    pub params: Params,
    pub rec: &'r Recorder,
}

impl WeakCarver for TracedWeak<'_> {
    fn carve_weak(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> WeakCarving {
        self.carve_weak_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn carve_weak_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<WeakCarving, Cancelled> {
        let inner = self.params.weak_carver();
        self.rec.span("weak", || {
            let (r0, m0) = counts(ledger);
            let out = inner.carve_weak_in(g, alive, eps, ledger, ctx);
            let dead = out.as_ref().map_or(0, |w| w.carving().dead().len() as u64);
            let (r1, m1) = counts(ledger);
            (out, [r1 - r0, m1 - m0, alive.len() as u64, dead])
        })
    }

    fn name(&self) -> &'static str {
        "traced-weak"
    }
}

/// Theorem 2.2 as `transform::weak_to_strong_in` over [`TracedWeak`],
/// inside `core.transform` spans.
pub struct TracedTransform<'r> {
    pub params: Params,
    pub weak: TracedWeak<'r>,
}

impl StrongCarver for TracedTransform<'_> {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        self.carve_strong_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn carve_strong_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        self.weak.rec.span("core.transform", || {
            let (r0, m0) = counts(ledger);
            let out =
                transform::weak_to_strong_in(g, alive, eps, &self.weak, &self.params, ledger, ctx);
            let dead = out.as_ref().map_or(0, |c| c.dead().len() as u64);
            let (r1, m1) = counts(ledger);
            (out, [r1 - r0, m1 - m0, alive.len() as u64, dead])
        })
    }

    fn name(&self) -> &'static str {
        "traced-thm2.2"
    }
}

/// Theorem 3.3 as `improve::improve_diameter_in` over
/// [`TracedTransform`], inside `core.improve` spans.
pub struct TracedImprove<'r> {
    pub params: Params,
    pub base: TracedTransform<'r>,
}

impl StrongCarver for TracedImprove<'_> {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        self.carve_strong_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn carve_strong_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        self.base.weak.rec.span("core.improve", || {
            let (r0, m0) = counts(ledger);
            let out =
                improve::improve_diameter_in(g, alive, eps, &self.base, &self.params, ledger, ctx);
            let dead = out.as_ref().map_or(0, |c| c.dead().len() as u64);
            let (r1, m1) = counts(ledger);
            (out, [r1 - r0, m1 - m0, alive.len() as u64, dead])
        })
    }

    fn name(&self) -> &'static str {
        "traced-thm3.3"
    }
}

/// Builds the traced Theorem 2.2 carver.
pub fn thm22<'r>(params: &Params, rec: &'r Recorder) -> TracedTransform<'r> {
    TracedTransform {
        params: params.clone(),
        weak: TracedWeak {
            params: params.clone(),
            rec,
        },
    }
}
