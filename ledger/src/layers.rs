//! The traced run: the per-layer ledger for one workload.
//!
//! 1. Alternating untraced and traced jobs (`Session::profile(true)`)
//!    give the tracing overhead, the engine's phase profile and counters,
//!    the checker attribution and, on `optimize-qspinlock3`, the
//!    optimizer's step timeline from the telemetry stream.
//! 2. Untraced one- and two-worker verifications give the scaling ratio.
//! 3. Complete executions harvested with `Session::collect_executions`
//!    are cut into partial graphs (`porf_prefix_set` + `restrict_set`),
//!    bucketed by event count, and the graph, model and lang calls are
//!    timed on them.
//! 4. The litmus compiler, the shim recorder and session construction
//!    are timed on their own.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vsync_core::{
    EnginePhase, EventKind, ExploreStats, PhaseProfile, Session, StopReason, Verdict,
};
use vsync_graph::{
    canonical_bytes_modulo, EventId, EventKind as GraphEvent, ExecutionGraph, ExploreEncoder,
    GraphView, Mode,
};
use vsync_lang::{replay, Program};
use vsync_model::{checker_attribution, set_checker_attribution, AxiomContext, ModelKind};

use crate::spans::Tracer;
use crate::workloads::{
    cores, corpus_sources, qspinlock, verify_answer, Inputs, JobOutcome, Probe, Workload,
    SHIM_LOCKS,
};
use crate::{median, Metric, Rng};

/// The engine phases the ledger reports (the search engine's phases;
/// `dedup` belongs to the enumerate reference search, `optimize` and
/// `corpus` are wrappers around explorations).
const PHASES: [EnginePhase; 8] = [
    EnginePhase::Replay,
    EnginePhase::Probe,
    EnginePhase::Consistency,
    EnginePhase::Extend,
    EnginePhase::Revisit,
    EnginePhase::FinalCheck,
    EnginePhase::Stagnancy,
    EnginePhase::Driver,
];

/// Event-count buckets of the harvested partial graphs: (name, largest
/// event count). Graphs of at most 20 events take the reference-checker
/// route inside `is_consistent`.
const BUCKETS: [(&str, usize); 4] =
    [("le20", 20), ("le40", 40), ("le60", 60), ("gt60", usize::MAX)];

/// The source of graphs above 60 events (the three-thread client's
/// executions have at most 47): the `qspinlock` client with two threads
/// and three acquires each, harvested until `LARGE_SOURCE_BUDGET` popped
/// items (its full exploration takes minutes).
const LARGE_SOURCE: (usize, usize) = (2, 3);
const LARGE_SOURCE_BUDGET: u64 = 12_000;

/// Complete executions cut into partial graphs, per source, and graphs
/// timed per bucket.
const EXECUTIONS_PER_SOURCE: usize = 300;
const GRAPHS_PER_BUCKET: usize = 200;

pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn absorb(&mut self, out: &JobOutcome) {
        self.checks += out.checks;
        self.failures.extend(out.failures.iter().cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Run the traced ledger for `workload`. `smoke` shrinks every
/// repetition count to one.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    threads: usize,
    seed: u64,
    smoke: bool,
    tracer: &Tracer,
) -> Result<Ledger, String> {
    let mut ledger = Ledger { metrics: Vec::new(), checks: 0, failures: Vec::new() };
    let rounds = if smoke { 1 } else { 7 };
    let mut rng = Rng::new(seed);
    {
        let _s = tracer.span("ledger.jobs");
        engine(&mut ledger, workload, inputs, &mut rng, smoke, tracer);
    }
    {
        let _s = tracer.span("ledger.scaling");
        scaling(&mut ledger, threads, if smoke { 1 } else { 2 });
    }
    {
        let _s = tracer.span("ledger.graphs");
        graphs(&mut ledger, threads, &mut rng, rounds, tracer)?;
    }
    let _s = tracer.span("ledger.frontends");
    frontend_layers(&mut ledger, workload, inputs, rounds, tracer)?;
    Ok(ledger)
}

/// Alternate untraced and traced jobs; report overhead, phases, engine
/// counters, checker attribution and optimizer metrics.
fn engine(
    ledger: &mut Ledger,
    workload: Workload,
    inputs: &Inputs,
    rng: &mut Rng,
    smoke: bool,
    tracer: &Tracer,
) {
    let rounds = match workload {
        _ if smoke => 1,
        Workload::Optimize => 1,
        Workload::Frontends => 10,
        _ => 2,
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for r in 0..rounds {
        let order = rng.permutation(inputs.units());
        for traced_now in [r % 2 == 1, r % 2 == 0] {
            if !traced_now {
                let t = Instant::now();
                let out = inputs.run_job(&order, None, None);
                untraced.push(t.elapsed().as_secs_f64());
                ledger.absorb(&out);
                continue;
            }
            let events = (workload == Workload::Optimize).then(|| Arc::new(Mutex::new(Vec::new())));
            let probe = Probe { tracer, events: events.clone() };
            set_checker_attribution(true);
            let before = checker_attribution();
            let t = Instant::now();
            let out = {
                let _s = tracer.span("ledger.job");
                inputs.run_job(&order, Some(&probe), None)
            };
            let wall = t.elapsed();
            let after = checker_attribution();
            set_checker_attribution(false);
            traced.push(wall.as_secs_f64());
            ledger.absorb(&out);
            let events =
                events.map(|e| std::mem::take(&mut *e.lock().expect("event sink poisoned")));
            last = Some((out, wall, (after.0 - before.0, after.1 - before.1), events));
        }
    }
    ledger.push("trace.overhead_ratio", median(&traced) / median(&untraced), "ratio");
    let (out, wall, (fast, reference), events) = last.expect("at least one traced job");

    // The optimizer's oracle explorations report only through the
    // telemetry stream (sampled every 64 popped items, so the last few
    // items of each exploration are missing from these sums).
    let mut stats = out.stats;
    let mut step_times = Vec::new();
    if let Some(events) = &events {
        stats = ExploreStats::default();
        for ev in events {
            match &ev.kind {
                EventKind::PhaseSlice { phases, .. } => stats.phases.merge(phases),
                EventKind::StatsDelta { stats: delta, .. } => stats.merge(delta),
                EventKind::ExploreFinish { .. } | EventKind::OptimizeStep { .. } => {
                    step_times.push(ev.ts);
                }
                _ => {}
            }
        }
    }
    let phases = stats.phases;
    if workload != Workload::Optimize {
        let pairs = [
            (EnginePhase::FinalCheck, stats.complete_executions, "complete_executions"),
            (EnginePhase::Stagnancy, stats.blocked_graphs, "blocked_graphs"),
            (EnginePhase::Replay, stats.popped, "popped"),
        ];
        for (phase, counter, name) in pairs {
            let count = phases.get(phase).count;
            ledger.check(count == counter, || {
                format!("phase {phase} entered {count} times, but {name} = {counter}")
            });
        }
    }
    // Phase time summed over workers, so shares are of worker time.
    let busy = wall.as_secs_f64() * workload.workers() as f64;
    for phase in PHASES {
        let s = phases.get(phase);
        ledger.push(format!("engine.{phase}.count"), s.count as f64, "count");
        ledger.push(format!("engine.{phase}.ms"), s.total_ns as f64 / 1e6, "ms");
        ledger.push(format!("engine.{phase}.share"), s.total().as_secs_f64() / busy, "ratio");
    }
    let engine_time = engine_time(&phases);
    ledger.push("engine.unattributed_share", 1.0 - engine_time / busy, "ratio");
    let counters = [
        ("popped", stats.popped),
        ("constructed", stats.constructed),
        ("duplicates", stats.duplicates),
        ("inconsistent", stats.inconsistent),
        ("revisits", stats.revisits),
        ("complete_executions", stats.complete_executions),
        ("blocked_graphs", stats.blocked_graphs),
        ("probes", stats.probes),
    ];
    for (name, value) in counters {
        ledger.push(format!("engine.{name}"), value as f64, "count");
    }
    ledger.push(
        "engine.constructed_per_complete",
        ratio(stats.constructed, stats.complete_executions),
        "ratio",
    );

    let checks = fast + reference;
    ledger.push("model.checks_per_constructed", ratio(checks, stats.constructed), "ratio");
    ledger.push("model.fast_share", ratio(fast, checks), "ratio");
    ledger.push(
        "model.consistent_ratio",
        ratio(checks.saturating_sub(stats.inconsistent), checks),
        "ratio",
    );

    let opt = out.optimization.as_ref();
    let count = |f: fn(&vsync_core::OptimizationReport) -> u64| opt.map_or(0, f) as f64;
    ledger.push("optimize.explorations", count(|o| o.explorations), "count");
    ledger.push("optimize.verifications", count(|o| o.verifications), "count");
    ledger.push("optimize.cache_hits", count(|o| o.cache_hits), "count");
    ledger.push("optimize.explored_graphs", count(|o| o.explored_graphs), "count");
    ledger.push(
        "optimize.cache_hit_ratio",
        opt.map_or(0.0, |o| ratio(o.cache_hits, o.cache_hits + o.explorations)),
        "ratio",
    );
    // Gaps between consecutive step callbacks (from the end of the
    // initial verification) that ran oracle work; cache and memo
    // decisions take microseconds. A bisect gap may hold several
    // explorations.
    let gaps: Vec<f64> = step_times
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]).as_secs_f64() * 1e3)
        .filter(|&gap| gap >= 1.0)
        .collect();
    ledger.push("optimize.exploration_ms", if gaps.is_empty() { 0.0 } else { median(&gaps) }, "ms");
    let self_share = if opt.is_some() { 1.0 - engine_time / wall.as_secs_f64() } else { 0.0 };
    ledger.push("optimize.self_share", self_share, "ratio");
    ledger.push("run.cores", cores() as f64, "count");
    ledger.push("run.workers", workload.workers() as f64, "count");
}

/// Time attributed to the search engine's phases (the `optimize` and
/// `corpus` wrapper spans excluded).
fn engine_time(phases: &PhaseProfile) -> f64 {
    phases
        .iter()
        .filter(|(p, _)| !matches!(p, EnginePhase::Optimize | EnginePhase::Corpus))
        .map(|(_, s)| s.total().as_secs_f64())
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `wall(verify-qspinlock3) / wall(verify-qspinlock3-par)`, untraced.
fn scaling(ledger: &mut Ledger, threads: usize, rounds: usize) {
    let seq = Inputs::Lock { workload: Workload::Verify, threads, program: qspinlock(threads, 1) };
    let par =
        Inputs::Lock { workload: Workload::VerifyPar, threads, program: qspinlock(threads, 1) };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        let order: [(&Inputs, &mut Vec<f64>); 2] = if r % 2 == 0 {
            [(&seq, &mut a), (&par, &mut b)]
        } else {
            [(&par, &mut b), (&seq, &mut a)]
        };
        for (inputs, walls) in order {
            let t = Instant::now();
            let out = inputs.run_job(&[], None, None);
            walls.push(t.elapsed().as_secs_f64());
            ledger.absorb(&out);
        }
    }
    ledger.push("engine.scaling", median(&a) / median(&b), "ratio");
}

/// A partial graph and the index of the program it was harvested from.
struct Sample {
    program: usize,
    graph: ExecutionGraph,
}

/// Harvest, cut and bucket graphs; time the graph, model and lang calls.
fn graphs(
    ledger: &mut Ledger,
    threads: usize,
    rng: &mut Rng,
    rounds: usize,
    tracer: &Tracer,
) -> Result<(), String> {
    let programs = [qspinlock(threads, 1), qspinlock(LARGE_SOURCE.0, LARGE_SOURCE.1)];
    let mut executions = Vec::new();
    for (i, program) in programs.iter().enumerate() {
        let session = Session::new(program.clone()).collect_executions();
        let report = {
            let _s = tracer.span("core.session.run");
            if i == 0 {
                session.run()
            } else {
                session.max_graphs(LARGE_SOURCE_BUDGET).run()
            }
        };
        let run = report.models.into_iter().next().ok_or("harvest produced no model run")?;
        let got = run.executions.len() as u64;
        if i == 0 {
            let want = verify_answer(threads).0;
            ledger.check(run.verdict.is_verified() && got == want, || {
                format!(
                    "harvest: {} with {got} executions, known answer verified with {want}",
                    run.verdict
                )
            });
        } else {
            let budget_stop = matches!(
                &run.verdict,
                Verdict::Inconclusive(i) if i.reason == StopReason::MaxGraphs
            );
            ledger.check(budget_stop && got > 0, || {
                format!("large harvest: {} with {got} executions", run.verdict)
            });
        }
        let mut picked = run.executions;
        rng.shuffle(&mut picked);
        picked.truncate(EXECUTIONS_PER_SOURCE);
        executions.extend(picked.into_iter().map(|graph| Sample { program: i, graph }));
    }

    // Cut every execution at the quarter points of each thread: the
    // porf-prefix of one event, restricted. (Popping events instead would
    // leave writes in `mo`.)
    let mut cuts = Vec::new();
    let t = Instant::now();
    {
        let _s = tracer.span("graph.porf_prefix_restrict");
        for s in &executions {
            for thread in 0..s.graph.num_threads() as u32 {
                let len = s.graph.thread_len(thread) as u32;
                for k in [len / 4, len / 2, 3 * len / 4].into_iter().filter(|&k| k > 0) {
                    let keep = s.graph.porf_prefix_set([EventId::new(thread, k - 1)]);
                    cuts.push(Sample { program: s.program, graph: s.graph.restrict_set(&keep) });
                }
            }
        }
    }
    let cut_us = t.elapsed().as_secs_f64() * 1e6 / cuts.len().max(1) as f64;
    ledger.push("graph.prefix_restrict_us", cut_us, "us");
    cuts.extend(executions);
    rng.shuffle(&mut cuts);

    let mut buckets: Vec<Vec<Sample>> = BUCKETS.iter().map(|_| Vec::new()).collect();
    for s in cuts {
        let b = BUCKETS
            .iter()
            .position(|&(_, max)| s.graph.num_events() <= max)
            .expect("last bucket is open");
        if buckets[b].len() < GRAPHS_PER_BUCKET {
            buckets[b].push(s);
        }
    }
    let model = ModelKind::Vmm.model();
    for ((name, _), bucket) in BUCKETS.iter().zip(&buckets) {
        let _s = tracer.span("model.is_consistent");
        let bucket: Vec<&Sample> = bucket.iter().collect();
        // Warm up both checkers and cross-check their answers.
        for s in &bucket {
            let (fast, reference) =
                (model.is_consistent(&s.graph), model.is_consistent_reference(&s.graph));
            ledger.check(fast == reference, || {
                format!("checkers disagree on a {}-event graph", s.graph.num_events())
            });
        }
        // Alternate which checker goes first, so neither profits from
        // the other warming the caches.
        let time_fast = || per_sample_us(&bucket, |s| model.is_consistent(&s.graph));
        let time_ref = || per_sample_us(&bucket, |s| model.is_consistent_reference(&s.graph));
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        for r in 0..rounds.max(2) {
            if r % 2 == 0 {
                fast.push(time_fast());
                reference.push(time_ref());
            } else {
                reference.push(time_ref());
                fast.push(time_fast());
            }
        }
        ledger.push(format!("model.check_us.fast.{name}"), median(&fast), "us");
        ledger.push(format!("model.check_us.ref.{name}"), median(&reference), "us");
    }

    let all: Vec<&Sample> = buckets.iter().flatten().collect();
    let large: Vec<&Sample> = all.iter().copied().filter(|s| s.graph.num_events() > 20).collect();
    let repeat = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let _s = tracer.span(name);
        median(&(0..rounds).map(|_| f()).collect::<Vec<_>>())
    };

    let ctx = repeat("model.axiom_context", &mut || {
        per_sample_us(&large, |s| !AxiomContext::new(&s.graph).is_empty())
    });
    ledger.push("model.axiom_ctx_us", ctx, "us");

    let mut encoders: Vec<ExploreEncoder> =
        programs.iter().map(|p| ExploreEncoder::new(p.declared_symmetry())).collect();
    let hash = repeat("graph.hash_view", &mut || {
        per_sample_us(&all, |s| encoders[s.program].hash_view(&GraphView::full(&s.graph)).1)
    });
    ledger.push("graph.hash_view_ns", hash * 1e3, "ns");

    let partitions: Vec<_> = programs.iter().map(Program::symmetry_partition).collect();
    let canon = repeat("graph.canonical_bytes_modulo", &mut || {
        per_sample_us(&all, |s| canonical_bytes_modulo(&s.graph, &partitions[s.program]).is_empty())
    });
    ledger.push("graph.canon_modulo_ns", canon * 1e3, "ns");

    let mut owned: Vec<ExecutionGraph> = all.iter().map(|s| s.graph.clone()).collect();
    let push_pop = |g: &mut ExecutionGraph| {
        g.push_event(0, GraphEvent::Fence { mode: Mode::Rlx });
        g.pop_event(0);
    };
    // The first push un-shares the thread's events (copy on write).
    owned.iter_mut().for_each(push_pop);
    let pp = repeat("graph.push_pop", &mut || {
        let t = Instant::now();
        owned.iter_mut().for_each(|g| push_pop(black_box(g)));
        t.elapsed().as_secs_f64() * 1e6 / owned.len() as f64
    });
    ledger.push("graph.push_pop_ns", pp * 1e3, "ns");

    let rep = repeat("lang.replay", &mut || {
        let mut fresh: Vec<(usize, ExecutionGraph)> =
            all.iter().map(|s| (s.program, s.graph.clone())).collect();
        let t = Instant::now();
        for (p, g) in &mut fresh {
            black_box(replay(&programs[*p], g));
        }
        t.elapsed().as_secs_f64() * 1e6 / fresh.len() as f64
    });
    ledger.push("lang.replay_us", rep, "us");
    Ok(())
}

/// Mean microseconds per call of `f` over the samples.
fn per_sample_us(samples: &[&Sample], mut f: impl FnMut(&Sample) -> bool) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for s in samples {
        black_box(f(black_box(s)));
    }
    t.elapsed().as_secs_f64() * 1e6 / samples.len() as f64
}

/// The litmus compiler, the shim recorder and session construction.
fn frontend_layers(
    ledger: &mut Ledger,
    workload: Workload,
    inputs: &Inputs,
    rounds: usize,
    tracer: &Tracer,
) -> Result<(), String> {
    let sources = corpus_sources()?;
    let mut compiled = Vec::new();
    let parse = median(
        &(0..rounds)
            .map(|_| {
                let _s = tracer.span("dsl.compile");
                let t = Instant::now();
                compiled = sources
                    .iter()
                    .map(|(path, src)| vsync_dsl::compile(src).map_err(|d| format!("{path}: {d}")))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(t.elapsed().as_secs_f64() * 1e6 / sources.len() as f64)
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    ledger.push("dsl.parse_lower_us", parse, "us");

    let mut record = Vec::new();
    for _ in 0..rounds {
        let _s = tracer.span("shim.record");
        let t = Instant::now();
        for (name, recorder, _) in SHIM_LOCKS {
            let rec = recorder();
            ledger.check(rec.is_ok(), || format!("shim {name}: recording failed"));
        }
        record.push(t.elapsed().as_secs_f64() * 1e6 / SHIM_LOCKS.len() as f64);
    }
    ledger.push("shim.record_us", median(&record), "us");

    // Session construction from the workload's programs.
    let _s = tracer.span("core.session.build");
    let build = |reps: usize| -> f64 {
        let t = Instant::now();
        for _ in 0..reps {
            if workload == Workload::Frontends {
                for test in &compiled {
                    drop(black_box(Session::new(test.program.clone()).workers(1)));
                }
            } else {
                drop(black_box(inputs.session()));
            }
        }
        let sessions = if workload == Workload::Frontends { compiled.len() } else { 1 };
        t.elapsed().as_secs_f64() * 1e6 / (reps * sessions) as f64
    };
    let times: Vec<f64> = (0..rounds).map(|_| build(100)).collect();
    ledger.push("session.build_us", median(&times), "us");
    Ok(())
}
