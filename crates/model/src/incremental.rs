//! Incremental VMM consistency along a revisit chain.
//!
//! The revisit engine grows a graph one event at a time and checks it after
//! every step: a chain root is checked in full, then each speculative
//! candidate is pushed, checked and (unless it is the continuation) popped.
//! [`IncrementalVmm`] keeps the state of the last consistent graph of such
//! a chain and checks a push against only the constraints that involve the
//! new event.
//!
//! The delta check is sound because of one lemma (DESIGN.md §14): in a
//! consistent graph `G`, a pushed event `e` is `po`-maximal and nothing
//! reads from it yet, so `G + e` has no new `hb` edge except *into* `e`,
//! and no new `po ∪ rf` cycle. Every axiom then reduces to pairs that
//! involve `e`:
//!
//! * **hb** is stored as one predecessor bitset ("view") per event, built
//!   once when the event is pushed: its `po`-predecessor's view plus the
//!   views of its `sw` sources (release sequences followed through RMW
//!   read parts, exactly as [`crate::sw_relation`]).
//! * **atomicity** and **coherence** only need the pairs `(a, e)` for `a`
//!   in `e`'s view (or `e`'s neighbours in `mo`): inserting a write into
//!   `mo` keeps the relative order of every other event.
//! * **psc** is kept as the transitive closure over the SC events
//!   (snapshotted for undo). A push adds only the edges that pass through
//!   `e`; an added edge `(u, v)` closes a cycle iff `v` already reaches `u`.
//!
//! Pushes and pops are strictly LIFO. The buffers are reused across chains:
//! a push does not allocate once the buffers have grown to the chain's size.

use vsync_graph::{iter_set_bits, EventId, EventKind, ExecutionGraph, Loc, Mode, RfSource};

use crate::fast::attribution::{self, Axiom};
use crate::fast::AxiomContext;
use crate::vmm::fast_check;

/// "No such event / position" in the per-event tables.
const NONE: u32 = u32::MAX;
/// A read whose source is the location's init write.
const INIT: u32 = u32::MAX - 1;
/// Spare bitset capacity (events / SC nodes) allocated on reset, so a
/// chain grows without re-laying out its rows.
const SLACK: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
    Fence,
    Error,
}

/// One event of the chain's graph.
#[derive(Debug, Clone)]
struct Ev {
    /// The event as pushed (replay must not change it afterwards).
    kind: EventKind,
    class: Class,
    thread: u32,
    /// Dense index of the `po`-predecessor.
    po_pred: u32,
    mode: Mode,
    /// Location slot (`NONE` for fences and errors).
    loc: u32,
    /// Is this the write part of an RMW?
    rmw_write: bool,
    /// Reads: dense index of the source, `INIT`, or `NONE` for `⊥`.
    src: u32,
    /// Extended-`mo` position (a read's is its source's), or `NONE`.
    pos: u32,
    /// The latest ⊒rel fence strictly `po`-before this event, or `NONE`.
    rel_fence: u32,
    /// Index among the SC nodes of the `psc` closure, or `NONE`.
    sc_slot: u32,
}

impl Ev {
    /// The eco key: for same-location events, `eco(x, y)` iff
    /// `key(x) < key(y)` — a greater position, or the same position with
    /// `x` the write and `y` a read from it.
    fn key(&self) -> u32 {
        2 * self.pos + u32::from(self.class == Class::Read)
    }

    fn is_sc_node(&self) -> bool {
        self.class != Class::Error && self.mode.is_sc()
    }
}

/// Undo record of one [`IncrementalVmm::push`].
#[derive(Debug, Clone, Copy)]
struct Frame {
    events: u32,
    sc_nodes: u32,
    /// Where the `psc` closure was saved before this push first changed
    /// it: `(offset into saved, rows, words per row)`.
    saved: Option<(usize, u32, u32)>,
    consistent: bool,
}

/// Per-worker incremental VMM checker for one revisit chain at a time
/// (see the module docs).
///
/// * [`IncrementalVmm::reset`] runs the full fast check on a chain root
///   and keeps its state;
/// * [`IncrementalVmm::push`] checks the events the graph gained since the
///   last call (usually one) and keeps them;
/// * [`IncrementalVmm::pop`] undoes the newest push.
///
/// Every `reset` and `push` is one consistency check for
/// [`crate::checker_attribution`] and [`crate::rejections_by_axiom`], and
/// answers exactly what [`crate::Vmm`]'s `is_consistent` answers on the
/// same graph.
#[derive(Debug, Default)]
pub struct IncrementalVmm {
    /// Words per event bitset.
    w: usize,
    evs: Vec<Ev>,
    /// `hb`-predecessor rows (views), `w` words per event.
    pred: Vec<u64>,
    /// Dense indices of each thread's events, in program order.
    threads: Vec<Vec<u32>>,
    /// Per-thread and per-location event masks, `w` words each.
    thread_mask: Vec<u64>,
    locs: Vec<Loc>,
    loc_mask: Vec<u64>,
    /// SC nodes (SC accesses and fences) and SC fences.
    sc_mask: Vec<u64>,
    scf_mask: Vec<u64>,
    /// SC node slot → dense index; `reach` holds the `psc` closure, `mw`
    /// words per slot.
    sc_nodes: Vec<u32>,
    mw: usize,
    reach: Vec<u64>,
    frames: Vec<Frame>,
    saved: Vec<u64>,
    /// The `⊥` read taken out by [`IncrementalVmm::suspend`].
    suspended: Option<u32>,
    consistent: bool,
    // Scratch buffers.
    fresh: Vec<(u32, u32, u32)>,
    edges: Vec<(u32, u32)>,
    set_a: Vec<u64>,
    set_b: Vec<u64>,
    set_c: Vec<u64>,
    row_buf: Vec<u64>,
    thresholds: Vec<(u32, u32)>,
}

#[inline]
fn has(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn remove(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1u64 << (i % 64));
}

#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[inline]
fn is_empty(a: &[u64]) -> bool {
    a.iter().all(|&x| x == 0)
}

/// Re-lay out `rows` rows of `old` words as rows of `new` words.
fn relayout(buf: &mut Vec<u64>, rows: usize, old: usize, new: usize) {
    let mut out = vec![0u64; rows.max(1) * new];
    for r in 0..rows.min(buf.len() / old.max(1)) {
        out[r * new..r * new + old].copy_from_slice(&buf[r * old..(r + 1) * old]);
    }
    *buf = out;
}

impl IncrementalVmm {
    /// An empty checker; [`IncrementalVmm::reset`] it on a chain root.
    pub fn new() -> Self {
        IncrementalVmm::default()
    }

    /// Run the full fast check on `g` (a chain root) and, if it is
    /// consistent, keep its state for the pushes that follow.
    pub fn reset(&mut self, g: &ExecutionGraph) -> bool {
        attribution::count(false);
        let cx = AxiomContext::new(g);
        let result = fast_check(&cx).map(|(hb, psc)| self.rebuild(g, &cx, &hb, psc));
        self.consistent = result.is_ok();
        attribution::verdict(result)
    }

    /// Check the events `g` gained since the last `reset`/`push`/`pop` —
    /// each must be the newest of its thread with nothing reading from it
    /// — and keep them. The state before the push must be consistent.
    /// Undo with [`IncrementalVmm::pop`] (also after a `false`).
    pub fn push(&mut self, g: &ExecutionGraph) -> bool {
        attribution::count(false);
        let result = self.extend(g);
        attribution::verdict(result)
    }

    /// [`IncrementalVmm::push`] for a candidate that an earlier `push` on
    /// the same state already accepted: rebuilds its state, but is not
    /// counted as a consistency check.
    pub fn reapply(&mut self, g: &ExecutionGraph) {
        let ok = self.extend(g).is_ok();
        debug_assert!(ok, "re-applied candidate was accepted before");
    }

    /// Undo the newest push.
    ///
    /// # Panics
    ///
    /// Panics if there is no push to undo.
    pub fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without a matching push");
        while self.evs.len() > f.events as usize {
            let k = self.evs.len() - 1;
            let e = self.evs.pop().expect("frame events exist");
            let w = self.w;
            remove(&mut self.thread_mask[e.thread as usize * w..][..w], k);
            if e.loc != NONE {
                remove(&mut self.loc_mask[e.loc as usize * w..][..w], k);
            }
            remove(&mut self.sc_mask, k);
            remove(&mut self.scf_mask, k);
            let last = self.threads[e.thread as usize].pop();
            debug_assert_eq!(last, Some(k as u32));
            if e.class == Class::Write && e.pos != NONE {
                self.shift_positions(e.loc, e.pos, false);
            }
        }
        self.sc_nodes.truncate(f.sc_nodes as usize);
        if let Some((off, rows, mw)) = f.saved {
            let (rows, mw) = (rows as usize, mw as usize);
            self.mw = mw;
            self.reach[..rows * mw].copy_from_slice(&self.saved[off..off + rows * mw]);
            self.saved.truncate(off);
        }
        self.consistent = f.consistent;
    }

    /// Take the `⊥` read `read` — the last event of its thread, anywhere
    /// on the push stack — out of the state, so a push can put a resolved
    /// read in its place. Nothing depends on a `⊥` read (it is a sink of
    /// `hb` and `psc`), so the remaining state is the state of the graph
    /// without it. Undo with [`IncrementalVmm::resume`] after popping
    /// every push made in between.
    pub fn suspend(&mut self, read: EventId) {
        debug_assert!(self.suspended.is_none(), "one suspended read at a time");
        let t = read.thread().expect("suspended read is a regular event") as usize;
        let k = self.threads[t].pop().expect("suspended read's thread has events");
        let e = &self.evs[k as usize];
        debug_assert!(
            e.class == Class::Read && e.src == NONE,
            "only the last, ⊥ read of a thread can be suspended"
        );
        debug_assert_eq!(self.threads[t].len(), read.index().unwrap() as usize);
        let (w, loc) = (self.w, e.loc);
        remove(&mut self.thread_mask[t * w..][..w], k as usize);
        remove(&mut self.loc_mask[loc as usize * w..][..w], k as usize);
        remove(&mut self.sc_mask, k as usize);
        self.suspended = Some(k);
    }

    /// Put the suspended `⊥` read back.
    ///
    /// # Panics
    ///
    /// Panics if no read is suspended.
    pub fn resume(&mut self) {
        let k = self.suspended.take().expect("resume without suspend");
        let e = &self.evs[k as usize];
        let (w, t, loc, sc) = (self.w, e.thread as usize, e.loc, e.is_sc_node());
        insert(&mut self.thread_mask[t * w..][..w], k as usize);
        insert(&mut self.loc_mask[loc as usize * w..][..w], k as usize);
        if sc {
            insert(&mut self.sc_mask, k as usize);
        }
        self.threads[t].push(k);
    }

    /// Does the state hold exactly `g`'s events, unchanged? (For debug
    /// assertions: the chain's replay must not rewrite a pushed event.)
    pub fn matches(&self, g: &ExecutionGraph) -> bool {
        self.threads.len() == g.num_threads()
            && self.threads.iter().enumerate().all(|(t, idx)| {
                idx.len() == g.thread_len(t as u32)
                    && idx.iter().zip(g.thread_events(t as u32)).all(|(&k, ev)| {
                        match (&self.evs[k as usize].kind, &ev.kind) {
                            (EventKind::Error { .. }, EventKind::Error { .. }) => true,
                            (a, b) => a == b,
                        }
                    })
            })
    }

    // ---- reset ---------------------------------------------------------

    /// Rebuild the state from a consistent graph's fast-check results.
    fn rebuild(
        &mut self,
        g: &ExecutionGraph,
        cx: &AxiomContext<'_>,
        hb: &vsync_graph::Relation,
        psc: Option<(Vec<usize>, vsync_graph::Relation)>,
    ) {
        let ic = cx.ix.init_count();
        let n = cx.len() - ic;
        self.frames.clear();
        self.saved.clear();
        self.suspended = None;
        self.evs.clear();
        self.w = (n + SLACK).div_ceil(64);
        let w = self.w;
        self.threads.resize_with(g.num_threads(), Vec::new);
        self.threads.truncate(g.num_threads());
        self.threads.iter_mut().for_each(Vec::clear);
        self.locs.clear();
        self.locs.extend_from_slice(&cx.locs);
        for buf in
            [&mut self.thread_mask, &mut self.loc_mask, &mut self.sc_mask, &mut self.scf_mask]
        {
            buf.clear();
        }
        self.thread_mask.resize(g.num_threads() * w, 0);
        self.loc_mask.resize(self.locs.len() * w, 0);
        self.sc_mask.resize(w, 0);
        self.scf_mask.resize(w, 0);
        self.pred.clear();
        self.pred.resize((n + SLACK) * w, 0);
        let dense = |idx: u32| {
            if (idx as usize) < ic {
                INIT
            } else {
                idx - ic as u32
            }
        };
        for (id, ev) in g.events() {
            let idx = cx.ix.index_of(id);
            let k = idx - ic;
            debug_assert_eq!(k, self.evs.len());
            let t = id.thread().expect("regular event") as usize;
            let mut e = self.classify(t, &ev.kind);
            e.loc = cx.loc[idx].map_or(NONE, |l| cx.loc_slot(l).expect("indexed location") as u32);
            e.pos = cx.pos[idx].unwrap_or(NONE);
            e.src = cx.src[idx].map_or(NONE, dense);
            self.add_masks(k, &e);
            self.threads[t].push(k as u32);
            self.evs.push(e);
            for b in hb.successors(idx) {
                insert(&mut self.pred[(b - ic) * w..][..w], k);
            }
        }
        self.sc_nodes.clear();
        let m = psc.as_ref().map_or(0, |(nodes, _)| nodes.len());
        self.mw = (m + SLACK).div_ceil(64);
        self.reach.clear();
        self.reach.resize((m + SLACK) * self.mw, 0);
        if let Some((nodes, mut psc)) = psc {
            let closed = psc.close_acyclic();
            debug_assert!(closed, "psc of a consistent graph is acyclic");
            for (s, &idx) in nodes.iter().enumerate() {
                self.sc_nodes.push((idx - ic) as u32);
                self.evs[idx - ic].sc_slot = s as u32;
                let row = &mut self.reach[s * self.mw..][..self.mw];
                row[..psc.row(s).len()].copy_from_slice(psc.row(s));
            }
        }
    }

    /// The per-event fields that follow from the event kind and its
    /// thread's earlier events (location, source and position are the
    /// caller's).
    fn classify(&self, t: usize, kind: &EventKind) -> Ev {
        let po_pred = self.threads[t].last().copied().unwrap_or(NONE);
        let rel_fence = match po_pred {
            NONE => NONE,
            p => {
                let pe = &self.evs[p as usize];
                if pe.class == Class::Fence && pe.mode.is_release() {
                    p
                } else {
                    pe.rel_fence
                }
            }
        };
        let (class, mode, rmw_write) = match kind {
            EventKind::Read { mode, .. } => (Class::Read, *mode, false),
            EventKind::Write { mode, rmw, .. } => (Class::Write, *mode, *rmw),
            EventKind::Fence { mode } => (Class::Fence, *mode, false),
            EventKind::Error { .. } => (Class::Error, Mode::Rlx, false),
        };
        let kind = match kind {
            EventKind::Error { .. } => EventKind::Error { msg: String::new() },
            k => k.clone(),
        };
        Ev {
            kind,
            class,
            thread: t as u32,
            po_pred,
            mode,
            loc: NONE,
            rmw_write,
            src: NONE,
            pos: NONE,
            rel_fence,
            sc_slot: NONE,
        }
    }

    fn add_masks(&mut self, k: usize, e: &Ev) {
        let w = self.w;
        insert(&mut self.thread_mask[e.thread as usize * w..][..w], k);
        if e.loc != NONE {
            insert(&mut self.loc_mask[e.loc as usize * w..][..w], k);
        }
        if e.is_sc_node() {
            insert(&mut self.sc_mask, k);
            if e.class == Class::Fence {
                insert(&mut self.scf_mask, k);
            }
        }
    }

    // ---- push ----------------------------------------------------------

    fn extend(&mut self, g: &ExecutionGraph) -> Result<(), Axiom> {
        debug_assert!(self.consistent, "push onto an inconsistent state");
        self.frames.push(Frame {
            events: self.evs.len() as u32,
            sc_nodes: self.sc_nodes.len() as u32,
            saved: None,
            consistent: self.consistent,
        });
        // The new events, oldest first.
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        for (t, idx) in self.threads.iter().enumerate() {
            for (i, ev) in g.thread_events(t as u32).iter().enumerate().skip(idx.len()) {
                fresh.push((ev.ts, t as u32, i as u32));
            }
        }
        fresh.sort_unstable();
        let mut result = Ok(());
        for &(_, t, i) in &fresh {
            let k = self.add_event(g, t as usize, i);
            if result.is_ok() {
                result = self.check_event(g, k);
            }
        }
        self.fresh = fresh;
        self.consistent = result.is_ok();
        result
    }

    fn loc_slot(&mut self, loc: Loc) -> u32 {
        if let Some(s) = self.locs.iter().position(|&l| l == loc) {
            return s as u32;
        }
        self.locs.push(loc);
        self.loc_mask.resize(self.locs.len() * self.w, 0);
        self.locs.len() as u32 - 1
    }

    /// Make room for one more event in every event bitset.
    fn reserve_event(&mut self) {
        let n = self.evs.len() + 1;
        if n > self.w * 64 {
            let (old, new) = (self.w, (n + SLACK).div_ceil(64));
            relayout(&mut self.pred, self.evs.len(), old, new);
            relayout(&mut self.thread_mask, self.threads.len(), old, new);
            relayout(&mut self.loc_mask, self.locs.len(), old, new);
            relayout(&mut self.sc_mask, 1, old, new);
            relayout(&mut self.scf_mask, 1, old, new);
            self.w = new;
        }
        if self.pred.len() < n * self.w {
            self.pred.resize((n + SLACK) * self.w, 0);
        }
    }

    /// Shift the positions of the location's events at or after `q` up
    /// by one (a write was inserted at `q`), or after `q` down by one (it
    /// was removed).
    fn shift_positions(&mut self, loc: u32, q: u32, up: bool) {
        let w = self.w;
        let mask = &self.loc_mask[loc as usize * w..][..w];
        for x in iter_set_bits(mask) {
            let p = &mut self.evs[x].pos;
            if *p == NONE {
                continue;
            }
            if up && *p >= q {
                *p += 1;
            } else if !up && *p > q {
                *p -= 1;
            }
        }
    }

    /// `pred[k] |= pred[s] ∪ {s}` for `s < k`.
    fn add_view(&mut self, k: usize, s: usize) {
        let w = self.w;
        let (lo, hi) = self.pred.split_at_mut(k * w);
        for (d, v) in hi[..w].iter_mut().zip(&lo[s * w..][..w]) {
            *d |= v;
        }
        insert(&mut hi[..w], s);
    }

    /// `e` (dense `k`) acquires from a read of write `src`: add the views
    /// of the release sources of every write whose release sequence
    /// contains `src` — `src` itself and, through RMW read parts, the
    /// writes it (transitively) continues.
    fn acquire_from(&mut self, k: usize, mut src: u32) {
        while src != INIT && src != NONE {
            let w = &self.evs[src as usize];
            let (release, fence, rmw, part) =
                (w.mode.is_release(), w.rel_fence, w.rmw_write, w.po_pred);
            if release {
                self.add_view(k, src as usize);
            } else if fence != NONE {
                self.add_view(k, fence as usize);
            }
            if !rmw {
                break;
            }
            src = self.evs[part as usize].src;
        }
    }

    /// Append event `(t, i)` of `g` to the state: its fields, its `mo`
    /// position (shifting the location's later events) and its `hb` view.
    fn add_event(&mut self, g: &ExecutionGraph, t: usize, i: u32) -> usize {
        self.reserve_event();
        let k = self.evs.len();
        let id = EventId::new(t as u32, i);
        let kind = &g.event(id).kind;
        let mut e = self.classify(t, kind);
        match kind {
            EventKind::Read { loc, rf, .. } => {
                e.loc = self.loc_slot(*loc);
                e.src = match rf {
                    RfSource::Bottom => NONE,
                    RfSource::Write(EventId::Init(_)) => INIT,
                    RfSource::Write(w) => {
                        let (wt, wi) = (w.thread().unwrap(), w.index().unwrap());
                        self.threads[wt as usize][wi as usize]
                    }
                };
                e.pos = match e.src {
                    NONE => NONE,
                    INIT => 0,
                    s => self.evs[s as usize].pos,
                };
            }
            EventKind::Write { loc, .. } => {
                e.loc = self.loc_slot(*loc);
                if let Some(p) = g.mo(*loc).iter().position(|&x| x == id) {
                    e.pos = p as u32 + 1;
                    self.shift_positions(e.loc, e.pos, true);
                }
            }
            _ => {}
        }
        // hb view: the po-predecessor's, plus the sw sources'.
        let w = self.w;
        self.pred[k * w..(k + 1) * w].fill(0);
        if e.po_pred != NONE {
            self.add_view(k, e.po_pred as usize);
        }
        let (class, mode, src, po_pred) = (e.class, e.mode, e.src, e.po_pred);
        self.add_masks(k, &e);
        self.threads[t].push(k as u32);
        self.evs.push(e);
        if class == Class::Read && mode.is_acquire() {
            self.acquire_from(k, src);
        } else if class == Class::Fence && mode.is_acquire() {
            // Reads since the previous acquire fence (earlier ones are in
            // that fence's view; acquire reads carry their own).
            let mut r = po_pred;
            while r != NONE {
                let re = &self.evs[r as usize];
                if re.class == Class::Fence && re.mode.is_acquire() {
                    break;
                }
                let (next, is_plain_read, rsrc) =
                    (re.po_pred, re.class == Class::Read && !re.mode.is_acquire(), re.src);
                if is_plain_read {
                    self.acquire_from(k, rsrc);
                }
                r = next;
            }
        }
        k
    }

    // ---- delta checks --------------------------------------------------

    /// The axioms restricted to the pairs involving the new event `k`, in
    /// the full check's order.
    fn check_event(&mut self, g: &ExecutionGraph, k: usize) -> Result<(), Axiom> {
        let w = self.w;
        let e = &self.evs[k];
        if e.class == Class::Write {
            if e.rmw_write {
                let r = &self.evs[e.po_pred as usize];
                if e.pos == NONE || r.pos == NONE || e.pos != r.pos + 1 {
                    return Err(Axiom::Atomicity);
                }
            }
            // A write landing between an RMW's source and its write part.
            if e.pos != NONE {
                let loc = self.locs[e.loc as usize];
                if let Some(next) = g.mo(loc).get(e.pos as usize) {
                    let (nt, ni) = (next.thread().unwrap(), next.index().unwrap());
                    let nk = self.threads[nt as usize][ni as usize];
                    if self.evs[nk as usize].rmw_write {
                        return Err(Axiom::Atomicity);
                    }
                }
            }
        }
        // irreflexive(hb ; eco): nothing in e's view may be eco-after e.
        if e.pos != NONE {
            let view = &self.pred[k * w..][..w];
            let mask = &self.loc_mask[e.loc as usize * w..][..w];
            for (word, (v, m)) in view.iter().zip(mask).enumerate() {
                let mut bits = v & m;
                while bits != 0 {
                    let a = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let p = self.evs[a].pos;
                    if p != NONE && p > e.pos {
                        return Err(Axiom::Coherence);
                    }
                }
            }
        }
        if self.psc_delta(k) {
            Ok(())
        } else {
            Err(Axiom::Psc)
        }
    }

    /// Add the `psc` edges through `k` to the closure; `false` on a cycle.
    fn psc_delta(&mut self, k: usize) -> bool {
        let w = self.w;
        let e = &self.evs[k];
        let (sc, fence, pos, loc) = (e.is_sc_node(), e.class == Class::Fence, e.pos, e.loc);
        // F1: the SC fences hb-before e (e joins their L sets).
        let mut f1 = std::mem::take(&mut self.set_a);
        f1.clear();
        f1.extend(self.pred[k * w..][..w].iter().zip(&self.scf_mask).map(|(p, f)| p & f));
        if !sc && is_empty(&f1) {
            self.set_a = f1;
            return true;
        }
        let es = if sc { self.add_sc_node(k) } else { NONE };
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        let mut y = std::mem::take(&mut self.set_b);
        let mut b = std::mem::take(&mut self.set_c);
        for set in [&mut y, &mut b] {
            set.clear();
            set.resize(w, 0);
        }
        if pos != NONE {
            let key = self.evs[k].key();
            // Y: the eco-successors of e; B ⊆ Y: the writes among them
            // (e's scb-successors, by mo or fr).
            for x in iter_set_bits(&self.loc_mask[loc as usize * w..][..w]) {
                let xe = &self.evs[x];
                if xe.pos != NONE && xe.key() > key {
                    insert(&mut y, x);
                    if xe.class == Class::Write {
                        insert(&mut b, x);
                    }
                }
            }
            // Out of L(f1) ∋ e and (e SC) out of e: to the SC writes in B
            // and to the SC fences whose R set (hb-predecessors) meets B
            // (psc_base) or Y (psc_F, from the fences in F1 only).
            for x in iter_set_bits(&b).filter(|&x| has(&self.sc_mask, x)) {
                let t = self.evs[x].sc_slot;
                edges.extend(iter_set_bits(&f1).map(|s1| (self.evs[s1].sc_slot, t)));
                if sc {
                    edges.push((es, t));
                }
            }
            if !is_empty(&y) {
                for f2 in iter_set_bits(&self.scf_mask) {
                    let r2 = &self.pred[f2 * w..][..w];
                    let base = intersects(r2, &b);
                    if base || intersects(r2, &y) {
                        let t = self.evs[f2].sc_slot;
                        edges.extend(iter_set_bits(&f1).map(|s1| (self.evs[s1].sc_slot, t)));
                        if sc && base {
                            edges.push((es, t));
                        }
                    }
                }
            }
        }
        if sc {
            // Into e: from every SC node whose L set meets U, the
            // scb-predecessors of e's R set — plus, for a fence, the
            // psc_F sources.
            let (u, sources) = (&mut y, &mut b);
            if fence {
                self.fence_in_sets(k, u, sources);
            } else {
                sources.fill(0);
                self.access_in_set(k, u);
            }
            for (s, (x, m)) in sources.iter_mut().zip(u.iter().zip(&self.sc_mask)) {
                *s |= x & m;
            }
            for a in iter_set_bits(u) {
                let view = &self.pred[a * w..][..w];
                for (s, (p, f)) in sources.iter_mut().zip(view.iter().zip(&self.scf_mask)) {
                    *s |= p & f;
                }
            }
            edges.extend(iter_set_bits(sources).map(|s1| (self.evs[s1].sc_slot, es)));
        }
        let ok = edges.iter().all(|&(u, v)| self.add_edge(u as usize, v as usize));
        self.set_a = f1;
        self.set_b = y;
        self.set_c = b;
        self.edges = edges;
        ok
    }

    /// U for an SC access `e`: `(po \ po_loc) ∪ hb|loc ∪ mo ∪ fr` into `e`.
    fn access_in_set(&self, k: usize, u: &mut [u64]) {
        let w = self.w;
        let e = &self.evs[k];
        let view = &self.pred[k * w..][..w];
        let thread = &self.thread_mask[e.thread as usize * w..][..w];
        let loc = &self.loc_mask[e.loc as usize * w..][..w];
        for (i, x) in u.iter_mut().enumerate() {
            *x = (view[i] & thread[i] & !loc[i]) | (view[i] & loc[i]);
        }
        if e.class == Class::Write && e.pos != NONE {
            for x in iter_set_bits(loc) {
                let p = self.evs[x].pos;
                if x != k && p != NONE && p < e.pos {
                    insert(u, x);
                }
            }
        }
    }

    /// For an SC fence `e`: U, the scb-predecessors of `{e} ∪ hb⁻¹(e)`,
    /// and into `sources` the SC fences with a `psc_F` edge into `e`
    /// (`hb`, or `hb ; eco ; hb`).
    fn fence_in_sets(&mut self, k: usize, u: &mut [u64], sources: &mut [u64]) {
        let w = self.w;
        let e_thread = self.evs[k].thread as usize;
        let mut thr = std::mem::take(&mut self.thresholds);
        thr.clear();
        thr.resize(self.locs.len(), (0, 0));
        let view = &self.pred[k * w..][..w];
        let thread = &self.thread_mask[e_thread * w..][..w];
        for i in 0..w {
            u[i] = view[i] & thread[i];
            sources[i] = view[i] & self.scf_mask[i];
        }
        for b in iter_set_bits(view) {
            let be = &self.evs[b];
            let bview = &self.pred[b * w..][..w];
            let bthread = &self.thread_mask[be.thread as usize * w..][..w];
            if be.loc == NONE {
                for i in 0..w {
                    u[i] |= bview[i] & bthread[i];
                }
                continue;
            }
            let bloc = &self.loc_mask[be.loc as usize * w..][..w];
            for i in 0..w {
                u[i] |= (bview[i] & bthread[i] & !bloc[i]) | (bview[i] & bloc[i]);
            }
            if be.pos != NONE {
                // (mo ∪ fr into b, eco into b) as key thresholds.
                let t = &mut thr[be.loc as usize];
                if be.class == Class::Write {
                    t.0 = t.0.max(2 * be.pos);
                }
                t.1 = t.1.max(be.key());
            }
        }
        for (l, &(mo_fr, eco)) in thr.iter().enumerate() {
            if eco == 0 {
                continue; // mo_fr ≤ eco
            }
            for x in iter_set_bits(&self.loc_mask[l * w..][..w]) {
                let xe = &self.evs[x];
                if xe.pos == NONE {
                    continue;
                }
                let kx = xe.key();
                if kx < mo_fr {
                    insert(u, x);
                }
                if kx < eco {
                    for (s, (p, f)) in
                        sources.iter_mut().zip(self.pred[x * w..][..w].iter().zip(&self.scf_mask))
                    {
                        *s |= p & f;
                    }
                }
            }
        }
        self.thresholds = thr;
    }

    /// Give SC event `k` a `psc` slot with an empty closure row.
    fn add_sc_node(&mut self, k: usize) -> u32 {
        let m = self.sc_nodes.len() + 1;
        if m > self.mw * 64 {
            let new = (m + SLACK).div_ceil(64);
            relayout(&mut self.reach, m - 1, self.mw, new);
            self.mw = new;
        }
        if self.reach.len() < m * self.mw {
            self.reach.resize((m + SLACK) * self.mw, 0);
        }
        self.reach[(m - 1) * self.mw..m * self.mw].fill(0);
        self.evs[k].sc_slot = (m - 1) as u32;
        self.sc_nodes.push(k as u32);
        (m - 1) as u32
    }

    /// Add `psc` edge `u → v` to the closure; `false` if it closes a cycle.
    fn add_edge(&mut self, u: usize, v: usize) -> bool {
        let mw = self.mw;
        if u == v || has(&self.reach[v * mw..][..mw], u) {
            return false;
        }
        if has(&self.reach[u * mw..][..mw], v) {
            return true;
        }
        let m = self.sc_nodes.len();
        let frame = self.frames.last_mut().expect("edges are added inside a push");
        if frame.saved.is_none() {
            frame.saved = Some((self.saved.len(), m as u32, mw as u32));
            self.saved.extend_from_slice(&self.reach[..m * mw]);
        }
        // Everything reaching u (and u) now reaches v and v's successors.
        let mut add = std::mem::take(&mut self.row_buf);
        add.clear();
        add.extend_from_slice(&self.reach[v * mw..][..mw]);
        insert(&mut add, v);
        for x in 0..m {
            let row = &mut self.reach[x * mw..][..mw];
            if x == u || has(row, u) {
                for (r, a) in row.iter_mut().zip(&add) {
                    *r |= a;
                }
            }
        }
        self.row_buf = add;
        true
    }
}
