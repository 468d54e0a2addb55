//! Property test of the incremental VMM checker: random graphs grown by
//! random legal push/pop sequences — reads (including `⊥`), plain writes
//! at every `mo` slot, RMW pairs, rel/acq/sc fences — plus chain-root
//! resets on re-pointed graphs and stagnancy-style resolutions of `⊥`
//! reads. After every operation the incremental verdict must equal both
//! `Vmm::is_consistent` and `Vmm::is_consistent_reference`.

use std::collections::BTreeMap;

use vsync_graph::{EventId, EventKind, ExecutionGraph, Mode, RfSource};
use vsync_model::{IncrementalVmm, MemoryModel, Vmm};

/// SplitMix64: deterministic test generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const LOCS: [u64; 3] = [0x10, 0x20, 0x30];

/// The full checkers' common verdict (they must agree with each other).
fn full(g: &ExecutionGraph) -> bool {
    let fast = Vmm.is_consistent(g);
    assert_eq!(fast, Vmm.is_consistent_reference(g), "fast/reference disagree on\n{}", g.render());
    fast
}

/// The events one push added to the graph, for undoing it.
type Pushed = Vec<(u32, Option<u64>)>;

struct Walk {
    rng: Rng,
    g: ExecutionGraph,
    inc: IncrementalVmm,
    stack: Vec<Pushed>,
    /// The top of the stack is inconsistent: only a pop may follow.
    poisoned: bool,
    /// Events per thread at most.
    max_len: usize,
    /// Percent of accesses and fences drawn as SC (the rest uniformly).
    sc_percent: usize,
    seed: u64,
    step: usize,
}

impl Walk {
    fn new(seed: u64, threads: usize, max_len: usize, sc_percent: usize) -> Walk {
        let mut w = Walk {
            rng: Rng(seed),
            g: ExecutionGraph::new(threads, BTreeMap::new()),
            inc: IncrementalVmm::new(),
            stack: Vec::new(),
            poisoned: false,
            max_len,
            sc_percent,
            seed,
            step: 0,
        };
        let ok = w.inc.reset(&w.g);
        w.check(ok, "reset");
        w
    }

    fn check(&self, incremental: bool, what: &str) {
        let expected = full(&self.g);
        assert_eq!(
            incremental,
            expected,
            "seed {} step {}: incremental {what} says {incremental}, full check {expected} on\n{}",
            self.seed,
            self.step,
            self.g.render()
        );
    }

    fn last(&self, t: u32) -> Option<&EventKind> {
        self.g.thread_events(t).last().map(|e| &e.kind)
    }

    /// A random write source of `loc` (init or any write in `mo`).
    fn source(&mut self, loc: u64) -> EventId {
        let mo = self.g.mo(loc);
        match self.rng.below(mo.len() + 1) {
            0 => EventId::Init(loc),
            i => mo[i - 1],
        }
    }

    /// A mode from `modes`, or SC with probability `sc_percent`.
    fn mode(&mut self, modes: &[Mode]) -> Mode {
        if self.rng.chance(self.sc_percent) {
            Mode::Sc
        } else {
            self.rng.pick(modes)
        }
    }

    fn push_write(&mut self, t: u32, loc: u64, mode: Mode, rmw: bool, slot: usize) -> Pushed {
        let id = self
            .g
            .push_event(t, EventKind::Write { loc, val: 1 + self.rng.below(3) as u64, mode, rmw });
        self.g.insert_mo(loc, id, slot.min(self.g.mo(loc).len()));
        vec![(t, Some(loc))]
    }

    /// One random event on a random extensible thread, or `None`.
    fn random_event(&mut self) -> Option<Pushed> {
        let n = self.g.num_threads() as u32;
        let open: Vec<u32> = (0..n)
            .filter(|&t| {
                self.g.thread_len(t) < self.max_len
                    && !matches!(
                        self.last(t),
                        Some(
                            EventKind::Read { rf: RfSource::Bottom, .. } | EventKind::Error { .. }
                        )
                    )
            })
            .collect();
        if open.is_empty() {
            return None;
        }
        let t = self.rng.pick(&open);
        // An RMW read part is always followed by its write part: at the
        // slot after its source (atomicity), sometimes anywhere.
        if let Some(&EventKind::Read { loc, rf: RfSource::Write(src), rmw: true, .. }) =
            self.last(t)
        {
            let after = match src {
                EventId::Init(_) => 0,
                w => self.g.mo(loc).iter().position(|&x| x == w).unwrap() + 1,
            };
            let slot =
                if self.rng.chance(80) { after } else { self.rng.below(self.g.mo(loc).len() + 1) };
            let mode = self.mode(&[Mode::Rlx, Mode::Rel, Mode::AcqRel, Mode::Sc]);
            return Some(self.push_write(t, loc, mode, true, slot));
        }
        let loc = self.rng.pick(&LOCS);
        match self.rng.below(20) {
            0..=7 => {
                let mode = self.mode(&[Mode::Rlx, Mode::Acq, Mode::Sc]);
                let (rf, rmw) = if self.rng.chance(12) {
                    (RfSource::Bottom, false)
                } else {
                    (RfSource::Write(self.source(loc)), self.rng.chance(30))
                };
                let awaiting = rf.is_bottom() || self.rng.chance(20);
                self.g.push_event(t, EventKind::Read { loc, mode, rf, rmw, awaiting });
                Some(vec![(t, None)])
            }
            8..=14 => {
                let mode = self.mode(&[Mode::Rlx, Mode::Rel, Mode::Sc]);
                let slot = self.rng.below(self.g.mo(loc).len() + 1);
                Some(self.push_write(t, loc, mode, false, slot))
            }
            15..=18 => {
                let mode = self.mode(&[Mode::Rlx, Mode::Acq, Mode::Rel, Mode::AcqRel, Mode::Sc]);
                self.g.push_event(t, EventKind::Fence { mode });
                Some(vec![(t, None)])
            }
            _ => {
                self.g.push_event(t, EventKind::Error { msg: "boom".into() });
                Some(vec![(t, None)])
            }
        }
    }

    fn undo(&mut self, pushed: &Pushed) {
        for &(t, loc) in pushed.iter().rev() {
            if let Some(loc) = loc {
                let id = EventId::new(t, self.g.thread_len(t) as u32 - 1);
                let pos = self.g.mo(loc).iter().position(|&x| x == id).unwrap();
                self.g.remove_mo(loc, pos);
            }
            self.g.pop_event(t);
        }
    }

    fn push(&mut self) {
        let Some(pushed) = self.random_event() else {
            return;
        };
        let ok = self.inc.push(&self.g);
        self.check(ok, "push");
        self.stack.push(pushed);
        self.poisoned = !ok;
    }

    fn pop(&mut self) {
        let Some(pushed) = self.stack.pop() else {
            return;
        };
        self.inc.pop();
        self.undo(&pushed);
        self.poisoned = false;
        self.check(true, "pop");
    }

    /// A chain root: optionally re-point a resolved read to another
    /// write (as a backward revisit does), then reset on the graph.
    fn reset(&mut self) {
        let reads: Vec<(EventId, u64)> = self
            .g
            .reads()
            .filter(|(_, _, rf)| !rf.is_bottom())
            .map(|(id, loc, _)| (id, loc))
            .collect();
        let mut old = None;
        if !reads.is_empty() && self.rng.chance(60) {
            let (r, loc) = self.rng.pick(&reads);
            let src = self.source(loc);
            old = Some((r, self.g.rf(r)));
            self.g.set_rf(r, RfSource::Write(src));
        }
        let ok = self.inc.reset(&self.g);
        self.check(ok, "reset");
        self.stack.clear();
        if !ok {
            let (r, rf) = old.expect("an unchanged consistent graph resets consistent");
            self.g.set_rf(r, rf);
            let ok = self.inc.reset(&self.g);
            self.check(ok, "reset");
        }
        self.poisoned = false;
    }

    /// Stagnancy-style: resolve a blocked `⊥` read to a write (plus the
    /// RMW write part) on the suspended state, then undo.
    fn resolve(&mut self) {
        let n = self.g.num_threads() as u32;
        let blocked: Vec<(u32, u64)> = (0..n)
            .filter_map(|t| match self.last(t) {
                Some(&EventKind::Read { loc, rf: RfSource::Bottom, .. }) => Some((t, loc)),
                _ => None,
            })
            .collect();
        if blocked.is_empty() {
            return;
        }
        let (t, loc) = self.rng.pick(&blocked);
        let read = EventId::new(t, self.g.thread_len(t) as u32 - 1);
        let EventKind::Read { rmw, awaiting, .. } = self.g.event(read).kind else { unreachable!() };
        let w = self.source(loc);
        let with_write = self.rng.chance(40);
        self.g.set_rf(read, RfSource::Write(w));
        self.g.set_read_flags(read, with_write, true);
        let mut pushed = Vec::new();
        if with_write {
            let after = match w {
                EventId::Init(_) => 0,
                w => self.g.mo(loc).iter().position(|&x| x == w).unwrap() + 1,
            };
            pushed = self.push_write(t, loc, Mode::Rlx, true, after);
        }
        self.inc.suspend(read);
        let ok = self.inc.push(&self.g);
        self.check(ok, "resolution");
        self.inc.pop();
        self.inc.resume();
        self.undo(&pushed);
        self.g.set_rf(read, RfSource::Bottom);
        self.g.set_read_flags(read, rmw, awaiting);
        assert!(self.inc.matches(&self.g), "seed {}: resolution left the state changed", self.seed);
    }
}

/// A walk mixing pushes, pops, chain-root resets and `⊥` resolutions.
fn mixed_walk(seed: u64, sc_percent: usize) {
    let mut w = Walk::new(seed, 2 + seed as usize % 2, 12, sc_percent);
    for step in 0..120 {
        w.step = step;
        if w.poisoned {
            w.pop();
            continue;
        }
        match w.rng.below(100) {
            0..=24 => w.pop(),
            25..=29 => w.reset(),
            30..=35 => w.resolve(),
            _ => w.push(),
        }
        if !w.poisoned {
            assert!(w.inc.matches(&w.g), "seed {seed} step {step}: state and graph diverged");
        }
    }
}

#[test]
fn incremental_agrees_with_full_checkers_on_random_push_pop_walks() {
    for seed in 0..400 {
        mixed_walk(seed, 0);
    }
}

/// Mostly-SC walks: `psc` cycles through SC accesses and fences.
#[test]
fn incremental_agrees_on_sc_heavy_walks() {
    for seed in 0..400 {
        mixed_walk(seed, 60);
    }
}

/// Deep walks: mostly pushes, so graphs grow past 64 events (and the
/// bitsets past one word).
#[test]
fn incremental_agrees_on_long_chains() {
    for seed in 1000..1020 {
        let mut w = Walk::new(seed, 4, 30, 30);
        for step in 0..400 {
            w.step = step;
            if w.poisoned || (w.rng.chance(8) && !w.stack.is_empty()) {
                w.pop();
            } else {
                w.push();
            }
        }
    }
}

/// One step of a hand-built chain: thread, event, `mo` slot for writes.
type Step = (u32, EventKind, usize);

fn w(loc: u64, val: u64, mode: Mode) -> EventKind {
    EventKind::Write { loc, val, mode, rmw: false }
}

fn r(loc: u64, rf: EventId, mode: Mode) -> EventKind {
    EventKind::Read { loc, mode, rf: RfSource::Write(rf), rmw: false, awaiting: false }
}

fn sc_fence() -> EventKind {
    EventKind::Fence { mode: Mode::Sc }
}

/// Push the steps one by one, comparing every verdict with the full
/// checkers; returns the last verdict.
fn chain(threads: usize, steps: &[Step]) -> bool {
    let mut g = ExecutionGraph::new(threads, BTreeMap::new());
    let mut inc = IncrementalVmm::new();
    assert!(inc.reset(&g));
    let mut ok = true;
    for (i, (t, kind, slot)) in steps.iter().enumerate() {
        assert!(ok, "step {i} pushed onto an inconsistent graph");
        let id = g.push_event(*t, kind.clone());
        if let EventKind::Write { loc, .. } = kind {
            g.insert_mo(*loc, id, *slot);
        }
        ok = inc.push(&g);
        assert_eq!(ok, full(&g), "step {i} on\n{}", g.render());
    }
    ok
}

const X: u64 = 0x10;
const Y: u64 = 0x20;

/// `f1 →hb e →eco y →hb f2` with `y` a read: the SC-fence edge that the
/// pushed write `e` creates between two *older* fences.
#[test]
fn psc_fence_edge_through_pushed_write_and_later_read() {
    let steps = [
        (0, w(Y, 1, Mode::Rlx), 0),
        (0, sc_fence(), 0),
        (2, w(X, 2, Mode::Rlx), 0),
        (1, r(X, EventId::new(2, 0), Mode::Rlx), 0),
        (1, sc_fence(), 0),
        (1, r(Y, EventId::Init(Y), Mode::Rlx), 0),
        // W(x,1) before W(x,2) in mo: f1 →hb W(x,1) →eco R(x) →hb f2.
        (0, w(X, 1, Mode::Rlx), 0),
    ];
    assert!(!chain(3, &steps));
}

/// The same cycle closed the other way: the pushed fence `f2` gains the
/// `hb ; eco ; hb` edge from `f1`, and a later read closes the cycle.
#[test]
fn psc_fence_edge_into_pushed_fence() {
    let steps = [
        (0, w(Y, 1, Mode::Rlx), 0),
        (0, sc_fence(), 0),
        (0, w(X, 1, Mode::Rlx), 0),
        (2, w(X, 2, Mode::Rlx), 1),
        (1, r(X, EventId::new(2, 0), Mode::Rlx), 0),
        (1, sc_fence(), 0),
        (1, r(Y, EventId::Init(Y), Mode::Rlx), 0),
    ];
    assert!(!chain(3, &steps));
}

/// A release sequence continued by an RMW: the acquire read of the RMW's
/// write synchronizes with the original release write.
#[test]
fn release_sequence_through_rmw_is_followed() {
    let (d, f) = (X, Y);
    let steps = [
        (0, w(d, 1, Mode::Rlx), 0),
        (0, w(f, 1, Mode::Rel), 0),
        (
            1,
            EventKind::Read {
                loc: f,
                mode: Mode::Rlx,
                rf: RfSource::Write(EventId::new(0, 1)),
                rmw: true,
                awaiting: false,
            },
            0,
        ),
        (1, EventKind::Write { loc: f, val: 2, mode: Mode::Rlx, rmw: true }, 1),
        (2, r(f, EventId::new(1, 1), Mode::Acq), 0),
        (2, r(d, EventId::Init(d), Mode::Rlx), 0),
    ];
    assert!(!chain(3, &steps));
}
