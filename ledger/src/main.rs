//! `vsync-ledger` — the repository benchmark: time to verdict on four
//! workloads, measured from outside the crates through their public
//! functions, plus a traced per-layer ledger.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload verify-qspinlock3 --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- --smoke
//! ```
//!
//! Jobs run one at a time (a closed loop with one client). With
//! `--trace 0` the run repeats jobs for `--seconds` and reports the
//! end-to-end metrics, times in runs of a fixed reference kernel (see
//! `meter.rs`); with `--trace 1` it reports the per-layer ledger
//! (see `layers.rs`) and writes its spans to `.bench_spans/`. Every job is
//! checked against known answers; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and any wrong answer
//! makes the exit code non-zero. `--smoke` runs every workload at a small
//! size (qspinlock with two threads, one frontends pass) in seconds and
//! checks that the metric names printed are exactly those declared in
//! `BENCHMARK.json`.

mod layers;
mod meter;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use meter::{Meter, CHECKPOINT_EVERY};
use spans::Tracer;
use workloads::{ms, Inputs, Workload};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result line.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--smoke") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' ({})", names.join(", "))
    })?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Some(args)) => run(&args),
        Ok(None) => return smoke(),
        Err(e) => Err(e),
    };
    match result {
        Ok(outcome) => {
            for f in &outcome.failures {
                eprintln!("wrong answer: {f}");
            }
            println!("{}", outcome.json());
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

const FULL_THREADS: usize = 3;
const SMOKE_THREADS: usize = 2;

fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let inputs = timed_setups(args.workload, FULL_THREADS, SETUP_REPS, &mut setup_times)?;
    let outcome = if args.trace {
        traced(args.workload, &inputs, FULL_THREADS, args.seed, false)?
    } else {
        measure(&inputs, args.workload, FULL_THREADS, args.seed, args.seconds, setup_times)?
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} measured {}", m.name, m.value));
    }
    println!(
        "ledger: workload={} seed={} trace={} cores={} workers={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        workloads::cores(),
        args.workload.workers()
    );
    Ok(outcome)
}

/// Set-ups timed before the first job and again after the last one; a
/// fixed count keeps the heap the jobs start from the same in every run.
const SETUP_REPS: usize = 21;

/// Set-ups timed between jobs, a group per `SETUP_EVERY` of run time. On
/// a shared 2-vCPU VM the machine alternates between fast and slow phases
/// lasting seconds (one process timed set-up at 1.8e-5 s in one and
/// 3.1e-5 s in another), so set-up is sampled across the run, as the jobs
/// are, and most samples come from between jobs: with 101 set-ups at
/// each end and a group every 2 s, setup_s spread by 11–39% between runs.
const SETUP_GROUP: usize = 11;
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// Build the inputs `reps` times, timing each; returns the last inputs.
fn timed_setups(
    workload: Workload,
    threads: usize,
    reps: usize,
    times: &mut Vec<f64>,
) -> Result<Inputs, String> {
    let mut inputs = None;
    for _ in 0..reps {
        let t = Instant::now();
        inputs = Some(Inputs::prepare(workload, threads)?);
        times.push(t.elapsed().as_secs_f64());
    }
    inputs.ok_or_else(|| "no set-up ran".to_owned())
}

/// Repeat jobs for about `seconds`: a job starts only if the median job
/// so far fits in the time left, and at least one job runs.
///
/// Times are reported in runs of the meter's reference kernel (see
/// `meter.rs`): raw wall-clock medians of whole runs spread by half of
/// their value between runs on a shared 2-vCPU host, which no run length
/// the time budget allows evens out. Raw medians go to stderr.
///
/// Check-latency percentiles are taken within each job and reported as
/// their median over jobs. Pooled over the whole run, the 1% tail of the
/// `frontends` pass sits on the cliff between its one slowest check (1 of
/// 93) and the rest, so it read the machine's fast and slow phases more than
/// the checks: 12–27% between-run spread on a shared 2-vCPU VM, against
/// 5% for the median.
fn measure(
    inputs: &Inputs,
    workload: Workload,
    threads: usize,
    seed: u64,
    seconds: f64,
    mut setup_times: Vec<f64>,
) -> Result<Outcome, String> {
    let meter = Arc::new(Meter::new());
    let mut rng = Rng::new(seed);
    let mut next_setups = Instant::now() + SETUP_EVERY;
    let (mut walls, mut jobs) = (Vec::new(), Vec::new());
    let (mut attempted, mut failures) = (0, Vec::new());
    let started = Instant::now();
    loop {
        let order = rng.permutation(inputs.units());
        meter.start();
        let out = inputs.run_job(&order, None, Some(&meter));
        let sample = meter.stop();
        walls.push(sample.seconds());
        attempted += out.checks;
        failures.extend(out.failures);
        jobs.push((sample, out.latencies_ms));
        if started.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
        meter.checkpoint_every(CHECKPOINT_EVERY);
        if Instant::now() >= next_setups {
            timed_setups(workload, threads, SETUP_GROUP, &mut setup_times)?;
            next_setups = Instant::now() + SETUP_EVERY;
        }
    }
    meter.checkpoint(true);
    timed_setups(workload, threads, SETUP_REPS, &mut setup_times)?;
    let (mut norms, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for (sample, latencies_ms) in &jobs {
        let norm = meter.kernels(sample);
        norms.push(norm);
        let mut latencies: Vec<f64> = match sample.single_segment() {
            Some(seg) => latencies_ms.iter().map(|ms| ms / 1e3 / meter.scale(seg)).collect(),
            // Checkpoints inside the job: only one-check jobs take them.
            None if latencies_ms.len() == 1 => vec![norm],
            None => return Err("checkpoint inside a multi-check job".into()),
        };
        latencies.sort_by(f64::total_cmp);
        p50s.push(percentile(&latencies, 0.50));
        p99s.push(percentile(&latencies, 0.99));
    }
    // Median job time per tenth of the run, to show drift within it.
    let tenth = norms.len().div_ceil(10);
    let shown: Vec<String> = norms.chunks(tenth).map(|c| format!("{:.2}", median(c))).collect();
    eprintln!(
        "{} jobs; raw wall_s median {:.4}, kernel median {:.4} ms; kernels per job by tenth of the run [{}]",
        norms.len(),
        median(&walls),
        meter.median_kernel_s() * 1e3,
        shown.join(" ")
    );
    let metric = |name: &str, value, unit| Metric { name: name.into(), value, unit };
    Ok(Outcome {
        attempted,
        failures,
        metrics: vec![
            metric("wall_norm", median(&norms), "kernels"),
            metric("setup_s", median(&setup_times), "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("check_p50_norm", median(&p50s), "kernels"),
            metric("check_p99_norm", median(&p99s), "kernels"),
        ],
    })
}

/// The traced run: per-layer metrics, spans written to `.bench_spans/`.
fn traced(
    workload: Workload,
    inputs: &Inputs,
    threads: usize,
    seed: u64,
    smoke: bool,
) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let ledger = layers::run(workload, inputs, threads, seed, smoke, &tracer)?;
    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!("{}-seed{seed}.json", workload.name()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !smoke {
        eprintln!("{:<32} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, (count, total, own)) in tracer.summary() {
            eprintln!("{name:<32} {count:>7} {:>12.3} {:>12.3}", ms(total), ms(own));
        }
    }
    Ok(Outcome { attempted: ledger.checks, failures: ledger.failures, metrics: ledger.metrics })
}

/// Every workload at smoke size, untraced and traced; the metric names
/// printed must be exactly the ones `BENCHMARK.json` declares.
fn smoke() -> ExitCode {
    let declared = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read BENCHMARK.json (run from the repository root): {e}");
            return ExitCode::from(2);
        }
    };
    let (Some(e2e_at), Some(layer_at)) =
        (declared.find("\"end_to_end\""), declared.find("\"per_layer\""))
    else {
        eprintln!("error: BENCHMARK.json lacks end_to_end or per_layer");
        return ExitCode::from(2);
    };
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .map(str::to_owned)
            .collect()
    };
    let (e2e, layer) = if e2e_at < layer_at {
        (names(&declared[e2e_at..layer_at]), names(&declared[layer_at..]))
    } else {
        (names(&declared[e2e_at..]), names(&declared[layer_at..e2e_at]))
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let t = Instant::now();
        let mut setup_times = Vec::new();
        let inputs = timed_setups(workload, SMOKE_THREADS, 1, &mut setup_times);
        let result = inputs.and_then(|inputs| {
            // Zero seconds: exactly one job (one frontends pass).
            let plain = measure(&inputs, workload, SMOKE_THREADS, 1, 0.0, setup_times)?;
            Ok((plain, traced(workload, &inputs, SMOKE_THREADS, 1, true)?))
        });
        let (plain, layered) = match result {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{}: error: {e}", workload.name());
                ok = false;
                continue;
            }
        };
        for (outcome, want) in [(&plain, &e2e), (&layered, &layer)] {
            let got: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
            let undeclared: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
            let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
            for f in &outcome.failures {
                eprintln!("{}: wrong answer: {f}", workload.name());
            }
            if !undeclared.is_empty() || !missing.is_empty() {
                eprintln!("{}: undeclared {undeclared:?}, missing {missing:?}", workload.name());
            }
            ok &= undeclared.is_empty() && missing.is_empty() && outcome.failures.is_empty();
        }
        println!(
            "smoke {:<24} {:>6.2}s  {} + {} checks, {} + {} metrics",
            workload.name(),
            t.elapsed().as_secs_f64(),
            plain.attempted,
            layered.attempted,
            plain.metrics.len(),
            layered.metrics.len()
        );
    }
    println!("smoke {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// SplitMix64: the seeded generator behind job orders and graph samples.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}
