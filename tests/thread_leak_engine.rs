//! Thread-leak regression test for the engine's parallel lane: repeated
//! `EngineSession` runs on the sharded lane — including early *error*
//! exits (round limit, oversized message) — must never leak worker
//! threads. Linux-only: counts threads via `/proc/self/status`.
//!
//! That count is process-wide, so this test is the only one in its
//! binary: no other test can run beside it and move the count.
#![cfg(target_os = "linux")]

use sdnd::congest::{primitives, CostModel, Engine};
use sdnd::graph::{gen, NodeId};

#[test]
fn parallel_lane_never_leaks_threads() {
    fn thread_count() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("proc");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }
    let g = gen::grid(8, 8);
    let view = g.full_view();
    let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
    let baseline = thread_count();
    for i in 0..40 {
        // Alternate clean completions, round-limit failures and
        // oversized-message failures — every exit path must join its
        // workers.
        let threads = 2 + i % 3;
        let engine = match i % 3 {
            0 => Engine::new(CostModel::congest_for(g.n())),
            1 => Engine::new(CostModel::congest_for(g.n())).with_max_rounds(2),
            _ => Engine::new(CostModel::congest(1)),
        }
        .with_threads(threads);
        let mut session = engine.session(&g);
        for _ in 0..3 {
            let outcome = session.run(&view, &kernel);
            assert_eq!(outcome.is_ok(), i % 3 == 0, "run {i} took the wrong exit");
        }
    }
    assert_eq!(
        thread_count(),
        baseline,
        "worker threads leaked across repeated parallel-lane runs"
    );
}
