//! Thread-leak regression test for the async lane: repeated runs —
//! including early *error* exits (pulse budget) — must never leak worker
//! threads. Linux-only: counts threads via `/proc/self/status`.
//!
//! That count is process-wide, so this test is the only one in its
//! binary: no other test can run beside it and move the count.
#![cfg(target_os = "linux")]

use sdnd::congest::{primitives, run_async, Adversary, AsyncConfig, CostModel, Engine};
use sdnd::graph::{gen, NodeId};

#[test]
fn async_lane_never_leaks_threads() {
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
    let engine = Engine::new(CostModel::congest_for(g.n()));
    let baseline = thread_count();
    for i in 0..40 {
        // Alternate clean completions, watchdog failures, and faulted
        // runs — every exit path must join its workers.
        let cfg = match i % 3 {
            0 => AsyncConfig::default().with_workers(1 + i % 4),
            1 => AsyncConfig::default().with_workers(2).with_max_pulses(1),
            _ => AsyncConfig::new(Adversary::new(i as u64).with_drop_rate(0.5).with_crashes(2))
                .with_workers(3),
        };
        let _ = run_async(&engine, &view, &kernel, &cfg);
    }
    assert_eq!(
        thread_count(),
        baseline,
        "worker threads leaked across repeated async runs"
    );
}
