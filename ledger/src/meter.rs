//! Job times in units of a fixed reference kernel, so that a run measures
//! the program rather than the machine's speed at the time.
//!
//! On a shared host the same verification takes 1.0 s in one minute and
//! 2.0 s in another (the thread's CPU time swings with its wall time, so
//! this is not time spent descheduled), and such phases outlast a run:
//! medians of whole runs spread by half of their value. The meter runs a
//! fixed kernel — sorting, hashing and small allocations, code of this
//! file, not of the program under test — at checkpoints between pieces of
//! timed work, and divides each piece by the mean kernel time at the two
//! checkpoints around it. The quotient moves with the program and hardly
//! with the machine: five 25 s runs of `verify-qspinlock3` whose median
//! jobs took 1.35–1.75 s gave 960–985 kernels.
//!
//! Checkpoints happen between jobs and inside them, from the session's
//! progress and optimizer-step callbacks. On a job's only thread the
//! kernel pauses the job's clock; on one of several workers it does not,
//! since the others go on.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pieces of one timed interval: (segment, seconds). Segment `i` is the
/// work between checkpoints `i` and `i + 1`.
pub struct Sample(Vec<(usize, f64)>);

impl Sample {
    /// Wall time of the interval, kernel runs excluded.
    pub fn seconds(&self) -> f64 {
        self.0.iter().map(|&(_, s)| s).sum()
    }

    /// The segment the interval lies in, if it lies in one.
    pub fn single_segment(&self) -> Option<usize> {
        match self.0.as_slice() {
            [(seg, _)] => Some(*seg),
            _ => None,
        }
    }
}

struct State {
    /// Kernel time at each checkpoint so far, seconds.
    kernels: Vec<f64>,
    /// The interval being timed: its current piece's start, and the pieces
    /// closed by checkpoints inside it.
    open: Option<(Instant, Vec<(usize, f64)>)>,
    last_checkpoint: Instant,
}

/// Shared by the driving loop and in-job callbacks.
pub struct Meter {
    state: Mutex<State>,
}

/// Least time between checkpoints: between jobs (a few `frontends`
/// passes) and inside one (a verification takes 1–2 s, and the machine's
/// speed changes within it).
pub const CHECKPOINT_EVERY: Duration = Duration::from_millis(100);

/// Kernel runs per checkpoint; their median is the checkpoint's time.
const RUNS_PER_CHECKPOINT: usize = 3;

impl Meter {
    /// A meter with its first checkpoint taken.
    pub fn new() -> Meter {
        let now = Instant::now();
        let meter = Meter {
            state: Mutex::new(State { kernels: Vec::new(), open: None, last_checkpoint: now }),
        };
        meter.checkpoint(true);
        meter
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("meter poisoned")
    }

    /// Run the kernel. With `pause`, the open interval stops around it;
    /// without, it runs on (a thread of a job that goes on in parallel).
    pub fn checkpoint(&self, pause: bool) {
        let mut st = self.state();
        let segment = st.kernels.len().saturating_sub(1);
        let began = Instant::now();
        if let Some((start, pieces)) = st.open.as_mut() {
            pieces.push((segment, began.duration_since(*start).as_secs_f64()));
            *start = began;
        }
        let mut runs: Vec<f64> = (0..RUNS_PER_CHECKPOINT).map(|_| kernel()).collect();
        runs.sort_by(f64::total_cmp);
        st.kernels.push(runs[RUNS_PER_CHECKPOINT / 2]);
        let now = Instant::now();
        if let (true, Some((start, _))) = (pause, st.open.as_mut()) {
            *start = now;
        }
        st.last_checkpoint = now;
    }

    /// Take a checkpoint if `every` has passed since the last one.
    pub fn checkpoint_every(&self, every: Duration) {
        if self.state().last_checkpoint.elapsed() >= every {
            self.checkpoint(true);
        }
    }

    /// Start timing an interval.
    pub fn start(&self) {
        let mut st = self.state();
        assert!(st.open.is_none(), "meter interval already open");
        st.open = Some((Instant::now(), Vec::new()));
    }

    /// Stop timing the open interval.
    pub fn stop(&self) -> Sample {
        let mut st = self.state();
        let segment = st.kernels.len() - 1;
        let (start, mut pieces) = st.open.take().expect("no meter interval open");
        pieces.push((segment, start.elapsed().as_secs_f64()));
        Sample(pieces)
    }

    /// Seconds per kernel run over `segment`: the mean of the checkpoints
    /// around it (the one before it alone while it is still open).
    pub fn scale(&self, segment: usize) -> f64 {
        let st = self.state();
        match st.kernels.get(segment + 1) {
            Some(after) => (st.kernels[segment] + after) / 2.0,
            None => st.kernels[segment],
        }
    }

    /// The sample's time in kernel runs.
    pub fn kernels(&self, sample: &Sample) -> f64 {
        sample.0.iter().map(|&(seg, s)| s / self.scale(seg)).sum()
    }

    /// Median kernel time over all checkpoints, seconds.
    pub fn median_kernel_s(&self) -> f64 {
        crate::median(&self.state().kernels)
    }
}

/// The reference kernel, about 1 ms on a 2-vCPU cloud VM: sort, hash
/// and allocate over a working set of a few KiB, like the checker's inner
/// loops. Fixed inputs; returns its wall time in seconds.
fn kernel() -> f64 {
    let t = Instant::now();
    let mut rng = crate::Rng::new(0x5EED);
    let mut acc = 0u64;
    for _ in 0..12 {
        let mut keys: Vec<u64> = (0..2048).map(|_| rng.next() % 100_000).collect();
        keys.sort_unstable();
        let mut counts = std::collections::HashMap::new();
        for k in &keys {
            *counts.entry(k % 512).or_insert(0u64) += k;
        }
        let lists: Vec<Vec<u32>> =
            (0..256u32).map(|i| (0..i % 16).map(|j| j ^ i).collect()).collect();
        for k in &keys {
            acc = acc.wrapping_add(counts.get(&(k % 512)).copied().unwrap_or(0));
        }
        acc = acc.wrapping_add(lists.iter().map(|l| l.len() as u64).sum::<u64>());
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}
