//! `check_perf` — the cost of one VMM consistency check, by graph size:
//! the full fast path (what `Vmm::is_consistent` runs), the closure-based
//! reference checker, the incremental checker's `reset` on a chain root,
//! and its `push` of one event onto a chain state.
//!
//! Graphs are harvested like the ledger's: qspinlock-3t complete
//! executions plus their porf-prefix cuts at the quarter points of every
//! thread. A push sample is a graph with the last event of one thread
//! taken off (only when nothing reads from it): the checker is reset on
//! the rest and times `push` + `pop` of that event. These rows are why
//! every in-chain check is a push whatever the graph's size, and why VMM
//! full checks no longer delegate small graphs to the reference checker
//! (`vsync_model::fast::SMALL_GRAPH_EVENTS`).
//!
//! ```sh
//! cargo run --release -p vsync-bench --bin check_perf
//! ```
//!
//! Knobs: `VSYNC_BENCH_SAMPLES` (rounds per bucket, default 3).

use std::hint::black_box;
use std::time::Instant;

use vsync_core::Session;
use vsync_graph::{EventId, ExecutionGraph, RfSource};
use vsync_model::{IncrementalVmm, MemoryModel, Vmm};

const BUCKETS: [(&str, usize); 6] =
    [("le6", 6), ("le10", 10), ("le20", 20), ("le40", 40), ("le60", 60), ("gt60", usize::MAX)];
const PER_BUCKET: usize = 200;

/// `g` without the last event of `thread`, if nothing reads from it.
fn without_last(g: &ExecutionGraph, thread: u32) -> Option<ExecutionGraph> {
    let len = g.thread_len(thread);
    let id = EventId::new(thread, len.checked_sub(1)? as u32);
    if g.reads().any(|(_, _, rf)| rf == RfSource::Write(id)) {
        return None;
    }
    let kept = g.porf_prefix_set(
        (0..g.num_threads() as u32)
            .filter_map(|t| {
                let n = g.thread_len(t) - usize::from(t == thread);
                (n > 0).then(|| EventId::new(t, n as u32 - 1))
            })
            .collect::<Vec<_>>(),
    );
    let rest = g.restrict_set(&kept);
    (rest.num_events() + 1 == g.num_events()).then_some(rest)
}

/// Mean microseconds per call of `f` over the graphs.
fn per_graph_us<T>(xs: &[T], mut f: impl FnMut(&T) -> bool) -> f64 {
    let t = Instant::now();
    for x in xs {
        black_box(f(x));
    }
    t.elapsed().as_secs_f64() * 1e6 / xs.len().max(1) as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds = vsync_bench::timing::env_samples().clamp(1, 9);
    let program = vsync_locks::registry::entry("qspinlock").expect("registered").client(3, 1);
    let report = Session::new(program).collect_executions().run();
    let run = report.models.into_iter().next().expect("one model");
    assert!(run.verdict.is_verified(), "qspinlock-3t verifies");
    let mut graphs = Vec::new();
    for g in &run.executions {
        for t in 0..g.num_threads() as u32 {
            let len = g.thread_len(t) as u32;
            for k in [len / 4, len / 2, 3 * len / 4].into_iter().filter(|&k| k > 0) {
                graphs.push(g.restrict_set(&g.porf_prefix_set([EventId::new(t, k - 1)])));
            }
        }
        graphs.push(g.clone());
    }

    println!(
        "{:<6} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "bucket", "graphs", "fast_us", "ref_us", "reset_us", "push_us"
    );
    let mut lo = 0;
    for (name, hi) in BUCKETS {
        let bucket: Vec<&ExecutionGraph> = graphs
            .iter()
            .filter(|g| (lo + 1..=hi).contains(&g.num_events()))
            .take(PER_BUCKET)
            .collect();
        lo = hi;
        // Push samples: (state reset on the rest, the full graph).
        let mut pushes: Vec<(IncrementalVmm, &ExecutionGraph)> = Vec::new();
        for g in &bucket {
            for t in 0..g.num_threads() as u32 {
                let Some(rest) = without_last(g, t) else {
                    continue;
                };
                let mut inc = IncrementalVmm::new();
                assert!(inc.reset(&rest), "a consistent graph minus a sink is consistent");
                pushes.push((inc, g));
            }
        }
        if bucket.is_empty() {
            continue;
        }
        for g in &bucket {
            assert_eq!(Vmm.is_consistent(g), Vmm.is_consistent_reference(g));
        }
        let (mut fast, mut reference, mut reset, mut push) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut scratch = IncrementalVmm::new();
        for _ in 0..rounds {
            fast.push(per_graph_us(&bucket, |g| Vmm.is_consistent(g)));
            reference.push(per_graph_us(&bucket, |g| Vmm.is_consistent_reference(g)));
            reset.push(per_graph_us(&bucket, |g| scratch.reset(g)));
            let t = Instant::now();
            for (inc, g) in &mut pushes {
                let ok = inc.push(g);
                inc.pop();
                black_box(ok);
            }
            push.push(t.elapsed().as_secs_f64() * 1e6 / pushes.len().max(1) as f64);
        }
        println!(
            "{name:<6} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            bucket.len(),
            median(fast),
            median(reference),
            median(reset),
            median(push)
        );
    }
}
