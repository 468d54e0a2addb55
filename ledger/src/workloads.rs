//! The four workloads: how their inputs are built, what one job does, and
//! the known answers every job is checked against.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vsync_core::{EngineEvent, ExploreStats, OptimizationReport, OptimizerConfig, Report, Session};
use vsync_lang::{BarrierSummary, Program};
use vsync_locks::registry;
use vsync_model::ModelKind;
use vsync_shim::locks::{mutex_client, CasSpinlock, TasSpinlock, TicketSpinlock};
use vsync_shim::{Recording, SessionExt as _, ShimError};

use crate::meter::{Meter, CHECKPOINT_EVERY};
use crate::spans::{span, Tracer};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// AMC verification of the qspinlock client on one worker.
    Verify,
    /// The same verification on `min(2, cores)` workers.
    VerifyPar,
    /// Push-button barrier optimization from the all-SC qspinlock.
    Optimize,
    /// The litmus corpus and the recorded shim locks, check by check.
    Frontends,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Verify, Workload::VerifyPar, Workload::Optimize, Workload::Frontends];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Verify => "verify-qspinlock3",
            Workload::VerifyPar => "verify-qspinlock3-par",
            Workload::Optimize => "optimize-qspinlock3",
            Workload::Frontends => "frontends",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Exploration workers per session: the parallel workload uses two
    /// workers, never more than the machine has cores.
    pub fn workers(self) -> usize {
        match self {
            Workload::VerifyPar => cores().min(2),
            _ => 1,
        }
    }
}

/// `available_parallelism`, read once: it reads cgroup files on every
/// call, which would otherwise show up in every set-up.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The litmus files of the `frontends` workload, pinned so that adding a
/// file to `corpus/` does not silently change the workload.
pub const CORPUS: [&str; 28] = [
    "atomicity",
    "await_chain",
    "await_mask",
    "await_rmw_lock",
    "cas_race",
    "caslock_client",
    "corr",
    "dekker_fences",
    "dekker_relaxed",
    "dpdk_unlock",
    "dpdk_unlock_fixed",
    "handshake",
    "huawei_fixed",
    "huawei_lost_update",
    "iriw",
    "iriw_sc",
    "lb",
    "lost_signal",
    "mp",
    "mp_rel_acq",
    "mp_stale",
    "qspinlock_pending",
    "r",
    "sb",
    "sb_fences",
    "ticket_client",
    "ttas_client",
    "two_plus_two_w",
];

/// Thread and acquire count of the recorded shim clients.
const SHIM_CLIENT: (usize, usize) = (2, 1);

type Recorder = fn() -> Result<Recording, ShimError>;

/// The recorded shim locks with the complete-execution count their
/// registry twins (`taslock`, `caslock`, `ticketlock`) verify with under
/// every model at [`SHIM_CLIENT`] size.
pub const SHIM_LOCKS: [(&str, Recorder, u64); 3] = [
    ("taslock", || mutex_client::<TasSpinlock>(SHIM_CLIENT.0, SHIM_CLIENT.1), 2),
    ("caslock", || mutex_client::<CasSpinlock>(SHIM_CLIENT.0, SHIM_CLIENT.1), 2),
    ("ticketlock", || mutex_client::<TicketSpinlock>(SHIM_CLIENT.0, SHIM_CLIENT.1), 2),
];

/// Known answer of one verification: the verdict kind and, when pinned,
/// the complete-execution count (canonical-orbit count, symmetry on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub verdict: &'static str,
    pub executions: Option<u64>,
}

/// `qspinlock` verification with `threads` threads: complete executions
/// and constructed graphs, at every worker count.
pub fn verify_answer(threads: usize) -> (u64, u64) {
    if threads == 2 {
        (10, 29)
    } else {
        (3_480, 11_558)
    }
}

/// Known answer of the all-SC `qspinlock` optimization at one worker.
pub struct OptimizeAnswer {
    pub explorations: u64,
    pub cache_hits: u64,
    pub before: BarrierSummary,
    pub after: BarrierSummary,
}

pub fn optimize_answer(threads: usize) -> OptimizeAnswer {
    let before = BarrierSummary { acq: 0, rel: 0, acq_rel: 0, sc: 22, rlx: 0 };
    if threads == 2 {
        OptimizeAnswer {
            explorations: 13,
            cache_hits: 22,
            before,
            after: BarrierSummary { acq: 2, rel: 1, acq_rel: 0, sc: 0, rlx: 19 },
        }
    } else {
        OptimizeAnswer {
            explorations: 16,
            cache_hits: 28,
            before,
            after: BarrierSummary { acq: 3, rel: 1, acq_rel: 0, sc: 0, rlx: 18 },
        }
    }
}

/// The registry's generic `qspinlock` client.
pub fn qspinlock(threads: usize, acquires: usize) -> Program {
    registry::entry("qspinlock").expect("qspinlock is registered").client(threads, acquires)
}

/// Read the pinned corpus, relative to the repository root.
pub fn corpus_sources() -> Result<Vec<(String, String)>, String> {
    CORPUS
        .iter()
        .map(|name| {
            let path = format!("corpus/{name}.litmus");
            let source =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok((path, source))
        })
        .collect()
}

/// The `expect <model>: <verdict> [= N]` lines of a litmus file, read
/// from the text so the known answers do not depend on the parser under
/// test.
fn expectations(path: &str, source: &str) -> Result<Vec<(ModelKind, Expected)>, String> {
    let mut out = Vec::new();
    for line in source.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let Some(rest) = line.strip_prefix("expect ") else { continue };
        let bad = || format!("{path}: malformed expectation `{line}`");
        let (model, rest) = rest.split_once(':').ok_or_else(bad)?;
        let model: ModelKind = model.trim().parse()?;
        let (verdict, count) = match rest.split_once('=') {
            Some((v, n)) => (v.trim(), Some(n.trim().parse::<u64>().map_err(|_| bad())?)),
            None => (rest.trim(), None),
        };
        let verdict = ["verified", "safety", "await-termination", "fault"]
            .into_iter()
            .find(|v| *v == verdict)
            .ok_or_else(bad)?;
        out.push((model, Expected { verdict, executions: count }));
    }
    if out.is_empty() {
        return Err(format!("{path}: no expect lines"));
    }
    Ok(out)
}

/// What one frontend check starts from.
pub enum Source {
    Litmus(Arc<str>),
    /// A shim client, recorded at set-up: recording runs real threads
    /// whose hand-offs make its time swing with the machine's load, and a
    /// pass of thread start-ups also slows the litmus checks after it.
    Shim(Arc<Recording>),
}

/// One (program, model) check of the `frontends` workload.
pub struct Check {
    pub label: String,
    pub source: Source,
    pub model: ModelKind,
    pub expected: Expected,
}

/// A workload's inputs, built once per run before the first job.
pub enum Inputs {
    /// One `qspinlock` program, verified (or optimized) per job.
    Lock { workload: Workload, threads: usize, program: Program },
    /// Every frontend check; one job is one pass over all of them.
    Frontends { checks: Vec<Check> },
}

impl Inputs {
    /// Build the inputs: the registry client (or its all-SC copy) and
    /// the job's session, or the corpus file list with its known answers
    /// and the shim recordings.
    pub fn prepare(workload: Workload, threads: usize) -> Result<Inputs, String> {
        match workload {
            Workload::Frontends => {
                let mut checks = Vec::new();
                for (path, source) in corpus_sources()? {
                    let source: Arc<str> = source.into();
                    for (model, expected) in expectations(&path, &source)? {
                        checks.push(Check {
                            label: format!("{path} {model}"),
                            source: Source::Litmus(Arc::clone(&source)),
                            model,
                            expected,
                        });
                    }
                }
                for (name, record, executions) in SHIM_LOCKS {
                    let rec =
                        record().map_err(|e| format!("shim {name}: recording failed: {e}"))?;
                    if rec.symmetry_fallback {
                        return Err(format!("shim {name}: recording lost its symmetry partition"));
                    }
                    let rec = Arc::new(rec);
                    for model in ModelKind::all() {
                        checks.push(Check {
                            label: format!("shim {name} {model}"),
                            source: Source::Shim(Arc::clone(&rec)),
                            model,
                            expected: Expected {
                                verdict: "verified",
                                executions: Some(executions),
                            },
                        });
                    }
                }
                Ok(Inputs::Frontends { checks })
            }
            _ => {
                let mut program = qspinlock(threads, 1);
                if workload == Workload::Optimize {
                    program = program.with_all_sc();
                }
                let inputs = Inputs::Lock { workload, threads, program };
                // Session construction counts as set-up; each job builds
                // its own again, since `Session::run` consumes it.
                drop(inputs.session());
                Ok(inputs)
            }
        }
    }

    /// Number of units in one job, the length of the order `run_job`
    /// takes: frontend checks are shuffled per pass, a lock job is one.
    pub fn units(&self) -> usize {
        match self {
            Inputs::Lock { .. } => 1,
            Inputs::Frontends { checks } => checks.len(),
        }
    }

    /// The session one lock job runs (exploration workers, optimizer).
    pub fn session(&self) -> Session {
        match self {
            Inputs::Lock { workload, program, .. } => {
                let s = Session::new(program.clone()).workers(workload.workers());
                if *workload == Workload::Optimize {
                    s.optimize(OptimizerConfig::default())
                } else {
                    s
                }
            }
            Inputs::Frontends { .. } => unreachable!("frontend sessions come from their sources"),
        }
    }

    /// Run one job, units in `order`. With a [`Probe`], sessions are
    /// profiled, optionally stream their events, and calls are spanned.
    /// With a [`Meter`], a lock job takes checkpoints inside it.
    pub fn run_job(
        &self,
        order: &[usize],
        probe: Option<&Probe<'_>>,
        meter: Option<&Arc<Meter>>,
    ) -> JobOutcome {
        let mut out = JobOutcome::default();
        let tracer = probe.map(|p| p.tracer);
        match self {
            Inputs::Lock { workload, threads, .. } => {
                let session = {
                    let _s = span(tracer, "core.session.build");
                    let session =
                        probe.map_or_else(|| self.session(), |p| p.attach(self.session()));
                    match meter {
                        // Oracle explorations (about 1.25 s each) emit no
                        // progress; the steps between them do.
                        Some(m) if *workload == Workload::Optimize => {
                            let m = Arc::clone(m);
                            session.on_optimize_step(move |_| m.checkpoint_every(CHECKPOINT_EVERY))
                        }
                        // Progress runs on an exploring thread: with one
                        // worker the kernel pauses the job; with more, the
                        // other workers go on, so the job's clock does too.
                        Some(m) => {
                            let m = Arc::clone(m);
                            let single = workload.workers() == 1;
                            session
                                .progress_interval(CHECKPOINT_EVERY)
                                .on_progress(move |_| m.checkpoint(single))
                        }
                        None => session,
                    }
                };
                let t = Instant::now();
                let report = {
                    let _s = span(tracer, "core.session.run");
                    session.run()
                };
                out.latencies_ms.push(ms(t.elapsed()));
                out.checks = 1;
                let verdict = judge_lock(*workload, *threads, &report);
                if let Err(e) = verdict {
                    out.failures.push(format!("{}: {e}", workload.name()));
                }
                out.stats = report.merged_stats();
                out.optimization = report.models.into_iter().next().and_then(|m| m.optimization);
            }
            Inputs::Frontends { checks } => {
                for &i in order {
                    let check = &checks[i];
                    let t = Instant::now();
                    let report = run_check(check, probe);
                    out.latencies_ms.push(ms(t.elapsed()));
                    out.checks += 1;
                    match report {
                        Ok(r) => {
                            if let Err(e) = judge_check(check, &r) {
                                out.failures.push(format!("{}: {e}", check.label));
                            }
                            out.stats.merge(&r.merged_stats());
                        }
                        Err(e) => out.failures.push(format!("{}: {e}", check.label)),
                    }
                }
            }
        }
        out
    }
}

/// Tracing hooks for the traced run: the span recorder, and an optional
/// sink for the session's telemetry events.
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub events: Option<Arc<Mutex<Vec<EngineEvent>>>>,
}

impl Probe<'_> {
    fn attach(&self, session: Session) -> Session {
        let session = session.profile(true);
        match &self.events {
            Some(sink) => {
                let sink = Arc::clone(sink);
                session.on_event(move |ev| {
                    sink.lock().expect("event sink poisoned").push(ev.clone());
                })
            }
            None => session,
        }
    }
}

/// What one job did and how its answers compared with the known ones.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// Checks attempted: one per (program, model) verdict.
    pub checks: u64,
    /// One line per check that differed from its known answer.
    pub failures: Vec<String>,
    /// Latency of each check, litmus parse included.
    pub latencies_ms: Vec<f64>,
    /// Exploration counters (and, when profiled, phases) summed over the
    /// job's sessions.
    pub stats: ExploreStats,
    pub optimization: Option<OptimizationReport>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compile one frontend check (or take its recording) and run it under
/// its model.
fn run_check(check: &Check, probe: Option<&Probe<'_>>) -> Result<Report, String> {
    let tracer = probe.map(|p| p.tracer);
    let session = match &check.source {
        Source::Litmus(src) => {
            let _s = span(tracer, "core.session.from_source");
            Session::from_source(src).map_err(|d| d.to_string())?
        }
        Source::Shim(rec) => {
            let _s = span(tracer, "core.session.from_shim");
            Session::from_shim(rec)
        }
    };
    let session = session.model(check.model).workers(1);
    let session = match probe {
        Some(p) => p.attach(session),
        None => session,
    };
    let _s = span(tracer, "core.session.run");
    Ok(session.run())
}

pub fn verdict_name(v: &vsync_core::Verdict) -> &'static str {
    use vsync_core::Verdict;
    match v {
        Verdict::Verified => "verified",
        Verdict::Safety(_) => "safety",
        Verdict::AwaitTermination(_) => "await-termination",
        Verdict::Fault(_) => "fault",
        Verdict::Inconclusive(_) => "inconclusive",
        Verdict::Error(_) => "error",
    }
}

fn judge_check(check: &Check, report: &Report) -> Result<(), String> {
    let [run] = report.models.as_slice() else {
        return Err(format!("expected one model run, got {}", report.models.len()));
    };
    let got = verdict_name(&run.verdict);
    if got != check.expected.verdict {
        return Err(format!("verdict {got}, known answer {}", check.expected.verdict));
    }
    match check.expected.executions {
        Some(n) if n != run.stats.complete_executions => {
            Err(format!("{} complete executions, known answer {n}", run.stats.complete_executions))
        }
        _ => Ok(()),
    }
}

fn judge_lock(workload: Workload, threads: usize, report: &Report) -> Result<(), String> {
    let [run] = report.models.as_slice() else {
        return Err(format!("expected one model run, got {}", report.models.len()));
    };
    if !run.verdict.is_verified() {
        return Err(format!("verdict {}, known answer verified", verdict_name(&run.verdict)));
    }
    if workload != Workload::Optimize {
        let got = (run.stats.complete_executions, run.stats.constructed);
        let want = verify_answer(threads);
        return if got == want {
            Ok(())
        } else {
            Err(format!("(complete, constructed) = {got:?}, known answer {want:?}"))
        };
    }
    let opt = run.optimization.as_ref().ok_or("no optimization report")?;
    if !opt.verified || opt.interrupted || opt.error.is_some() {
        return Err(format!(
            "optimization verified={} interrupted={} error={:?}",
            opt.verified, opt.interrupted, opt.error
        ));
    }
    let want = optimize_answer(threads);
    let got = (opt.explorations, opt.cache_hits, opt.before, opt.after);
    if got != (want.explorations, want.cache_hits, want.before, want.after) {
        return Err(format!(
            "(explorations, cache hits) = ({}, {}), {} -> {}; known answer ({}, {}), {} -> {}",
            opt.explorations,
            opt.cache_hits,
            opt.before,
            opt.after,
            want.explorations,
            want.cache_hits,
            want.before,
            want.after
        ));
    }
    Ok(())
}
