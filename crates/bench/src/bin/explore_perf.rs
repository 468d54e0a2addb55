//! `explore_perf` — the AMC explorer performance matrix.
//!
//! Times the verification of the lock catalog under three configurations:
//!
//! * `baseline` — the naive closure-based reference checker, 1 worker
//!   (the pre-optimization cost model: Floyd–Warshall closures per axiom);
//! * `fast-1`   — the closure-free consistency fast path, 1 worker;
//! * `fast-N`   — the fast path with one worker per CPU.
//!
//! Every run goes through the [`Session`] pipeline (the production front
//! door), resolving locks from the name-based registry. Asserts that all
//! three configurations produce identical verdicts and
//! `complete_executions` counts, prints a table, and writes
//! `BENCH_explore.json` (validated by the in-repo JSON parser) so the
//! perf trajectory is tracked across PRs.
//!
//! Each row additionally runs the enumerate-and-dedup reference search
//! (untimed, 1 sample) and records how many graphs each strategy
//! *constructed*: `reduction = enumerate_graphs / constructed_graphs` is
//! the per-row stateless-optimality claim of the revisit search.
//!
//! ```sh
//! cargo run --release -p vsync-bench --bin explore_perf
//! ```
//!
//! Knobs: `VSYNC_BENCH_SAMPLES` (default 3), `VSYNC_WORKERS` (default:
//! available parallelism).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use vsync_core::{Report, SearchMode, Session};
use vsync_model::{CheckerKind, ModelKind};

struct Row {
    name: String,
    /// Popped chain steps (`ExploreStats::popped`), not constructed graphs.
    steps: u64,
    events: u64,
    executions: u64,
    constructed: u64,
    duplicates: u64,
    revisits: u64,
    enumerate_graphs: u64,
    baseline: Duration,
    fast1: Duration,
    fast_n: Duration,
}

// The 11-entry matrix lives in the lock registry (shared with
// `optimize_perf` and the strategy-differential tests); row labels are
// stable so the JSON's per-row history stays diffable across PRs.

fn median_time(samples: usize, mut f: impl FnMut() -> Report) -> (Duration, Report) {
    // Discarded warmup so cold-start cost is not charged to whichever
    // configuration happens to run first (the baseline).
    let _ = std::hint::black_box(f());
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed());
        last = Some(r);
    }
    times.sort();
    (times[times.len() / 2], last.expect("at least one sample"))
}

fn main() {
    let samples = vsync_bench::timing::env_samples().clamp(1, 5);
    let workers = std::env::var("VSYNC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
        .max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let matrix = vsync_locks::registry::perf_matrix();
    eprintln!(
        "explore_perf: {} locks x 3 configs x {samples} samples (fast-N uses {workers} workers)",
        matrix.len()
    );
    let mut rows = Vec::new();
    for row in matrix {
        let label = row.label;
        // Build the client program once per row, outside the timed
        // closures, so registry/program construction is not charged to
        // the explorer (a Program clone is a few hundred bytes).
        let program = row.client();
        let session = || Session::new(program.clone()).model(ModelKind::Vmm);
        let (baseline, r_base) =
            median_time(samples, || session().checker(CheckerKind::Reference).run());
        let (fast1, r_fast) = median_time(samples, || session().run());
        let (fast_n, r_par) = median_time(samples, || session().workers(workers).run());
        // The enumerate-and-dedup reference search: untimed, one sample;
        // its constructed count is the revisit reduction's denominator.
        let r_enum = session().search(SearchMode::Enumerate).run();
        assert!(
            r_base.is_verified()
                && r_fast.is_verified()
                && r_par.is_verified()
                && r_enum.is_verified(),
            "{label}: catalog lock failed to verify"
        );
        let (sb, sf, sp, se) = (
            r_base.models[0].stats,
            r_fast.models[0].stats,
            r_par.models[0].stats,
            r_enum.models[0].stats,
        );
        assert_eq!(
            sb.complete_executions, sf.complete_executions,
            "{label}: baseline/fast execution counts diverge"
        );
        assert_eq!(
            sf.complete_executions, sp.complete_executions,
            "{label}: sequential/parallel execution counts diverge"
        );
        assert_eq!(
            sf.complete_executions, se.complete_executions,
            "{label}: revisit/enumerate execution counts diverge"
        );
        eprintln!(
            "  {label:<14} baseline {baseline:>9.2?}  fast-1 {fast1:>9.2?}  fast-{workers} {fast_n:>9.2?}  ({} constructed, {} enumerated)",
            sf.constructed, se.constructed
        );
        rows.push(Row {
            name: label.to_owned(),
            steps: sf.popped,
            events: sf.events,
            executions: sf.complete_executions,
            constructed: sf.constructed,
            duplicates: sf.duplicates,
            revisits: sf.revisits,
            enumerate_graphs: se.constructed,
            baseline,
            fast1,
            fast_n,
        });
    }

    let total = |f: fn(&Row) -> Duration| rows.iter().map(f).sum::<Duration>();
    let (tb, t1, tn) = (total(|r| r.baseline), total(|r| r.fast1), total(|r| r.fast_n));
    let speedup1 = tb.as_secs_f64() / t1.as_secs_f64().max(1e-9);
    let speedup_n = tb.as_secs_f64() / tn.as_secs_f64().max(1e-9);
    let total_steps: u64 = rows.iter().map(|r| r.steps).sum();
    let total_events: u64 = rows.iter().map(|r| r.events).sum();

    let total_constructed: u64 = rows.iter().map(|r| r.constructed).sum();
    let total_enumerated: u64 = rows.iter().map(|r| r.enumerate_graphs).sum();
    let reduction =
        |constructed: u64, enumerated: u64| enumerated as f64 / (constructed as f64).max(1.0);

    println!(
        "{:<14} {:>11} {:>11} {:>10} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "lock", "constructed", "enumerated", "events", "baseline", "fast-1", "fast-N", "speedup",
        "reduction"
    );
    for r in &rows {
        println!(
            "{:<14} {:>11} {:>11} {:>10} {:>11.2?} {:>11.2?} {:>11.2?} {:>8.2}x {:>8.2}x",
            r.name,
            r.constructed,
            r.enumerate_graphs,
            r.events,
            r.baseline,
            r.fast1,
            r.fast_n,
            r.baseline.as_secs_f64() / r.fast1.as_secs_f64().max(1e-9),
            reduction(r.constructed, r.enumerate_graphs),
        );
    }
    println!(
        "{:<14} {:>11} {:>11} {:>10} {:>11.2?} {:>11.2?} {:>11.2?} {:>8.2}x {:>8.2}x",
        "TOTAL",
        total_constructed,
        total_enumerated,
        total_events,
        tb,
        t1,
        tn,
        speedup1,
        reduction(total_constructed, total_enumerated),
    );
    println!(
        "fast-1: {:.0} chain steps/s, {:.0} events/s | fast-{workers}: {:.0} chain steps/s | speedup vs baseline: {speedup1:.2}x (1 worker), {speedup_n:.2}x ({workers} workers)",
        total_steps as f64 / t1.as_secs_f64(),
        total_events as f64 / t1.as_secs_f64(),
        total_steps as f64 / tn.as_secs_f64(),
    );

    // Hand-rolled JSON (the build environment has no serde).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"explore_perf\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"chain_steps\": {}, \"events\": {}, \"complete_executions\": {}, \
             \"constructed_graphs\": {}, \"duplicates\": {}, \"revisits\": {}, \
             \"enumerate_graphs\": {}, \"reduction\": {:.3}, \
             \"baseline_ms\": {:.3}, \"fast1_ms\": {:.3}, \"fastN_ms\": {:.3}, \
             \"chain_steps_per_sec_fast1\": {:.1}, \"events_per_sec_fast1\": {:.1}, \"speedup_fast1\": {:.3}}}{comma}",
            r.name,
            r.steps,
            r.events,
            r.executions,
            r.constructed,
            r.duplicates,
            r.revisits,
            r.enumerate_graphs,
            reduction(r.constructed, r.enumerate_graphs),
            r.baseline.as_secs_f64() * 1e3,
            r.fast1.as_secs_f64() * 1e3,
            r.fast_n.as_secs_f64() * 1e3,
            r.steps as f64 / r.fast1.as_secs_f64().max(1e-9),
            r.events as f64 / r.fast1.as_secs_f64().max(1e-9),
            r.baseline.as_secs_f64() / r.fast1.as_secs_f64().max(1e-9),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"total\": {{\"chain_steps\": {total_steps}, \"events\": {total_events}, \
         \"constructed_graphs\": {total_constructed}, \
         \"enumerate_graphs\": {total_enumerated}, \"reduction\": {:.3}, \
         \"baseline_ms\": {:.3}, \"fast1_ms\": {:.3}, \"fastN_ms\": {:.3}, \
         \"chain_steps_per_sec_fast1\": {:.1}, \"events_per_sec_fast1\": {:.1}, \
         \"speedup_fast1\": {speedup1:.3}, \"speedup_fastN\": {speedup_n:.3}}}",
        reduction(total_constructed, total_enumerated),
        tb.as_secs_f64() * 1e3,
        t1.as_secs_f64() * 1e3,
        tn.as_secs_f64() * 1e3,
        total_steps as f64 / t1.as_secs_f64(),
        total_events as f64 / t1.as_secs_f64(),
    );
    let _ = writeln!(json, "}}");
    // Self-check: the artifact must stay machine-readable.
    let parsed = vsync_bench::json::parse(&json).expect("BENCH_explore.json is valid JSON");
    assert_eq!(parsed.get("rows").map(|r| r.items().len()), Some(rows.len()));
    std::fs::write("BENCH_explore.json", json).expect("write BENCH_explore.json");
    eprintln!("wrote BENCH_explore.json");
}
