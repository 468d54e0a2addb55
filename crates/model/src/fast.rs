//! The closure-free consistency fast path.
//!
//! The naive formulations in [`crate::axioms`] rebuild every relation from
//! scratch and lean on `O(n³/64)` Floyd–Warshall closures for each axiom.
//! This module computes the same predicates with on-demand algorithms:
//!
//! * an [`AxiomContext`] is built **once per graph** — the [`EventIndex`],
//!   the extended-modification-order position of every access, and
//!   per-location event masks — and threaded through all axiom checks;
//! * acyclicity axioms (`acyclic(po ∪ rf)`, the SC/TSO global orders, PSC)
//!   run DFS cycle detection over immediate-edge relations instead of
//!   closing them;
//! * the extended coherence order `eco = (rf ∪ mo ∪ fr)⁺` is materialized
//!   *directly in closed form* from mo positions: for same-location events
//!   `x, y`, `eco(x, y)` holds iff `pos(y) > pos(x)`, or `pos(y) = pos(x)`
//!   with `x` a write and `y` a read (i.e. `y` reads from `x`) — so no
//!   closure call is ever needed (soundness argument in DESIGN.md); rows
//!   are built with a word-level suffix-mask sweep per location;
//! * happens-before is closed with the word-level DAG closure
//!   [`Relation::close_acyclic`] (reverse-topological row unions), which
//!   simultaneously decides `irreflexive(hb)`;
//! * synchronizes-with is assembled from per-thread fence index lists and
//!   a bitset release-sequence fixpoint instead of quadratic rescans.
//!
//! Every predicate here is extensionally equal to its reference
//! counterpart; the differential test suite asserts this on randomized
//! graphs and on the whole lock catalog.

use vsync_graph::{
    iter_set_bits, EventId, EventIndex, EventKind, ExecutionGraph, Loc, Relation, RfSource,
};

/// Per-graph analysis cache shared by all fast axiom checks.
///
/// Built once per [`ExecutionGraph`]; all lookups afterwards are `O(1)`
/// array reads instead of `mo` scans.
pub struct AxiomContext<'g> {
    g: &'g ExecutionGraph,
    /// Dense index of the graph's events (init writes included).
    pub ix: EventIndex,
    n: usize,
    words: usize,
    /// Location accessed by each dense index (`None` for fences/errors).
    pub(crate) loc: Vec<Option<Loc>>,
    /// Extended-mo position: a write's own position (init = 0), a read's
    /// source position. `None` for pending reads, fences, errors, and
    /// writes that are not (yet) in `mo`.
    pub(crate) pos: Vec<Option<u32>>,
    /// Is the event a (possibly init) write?
    is_write: Vec<bool>,
    /// Is the event a read?
    is_read: Vec<bool>,
    /// Dense index of each read's rf source (`None` for `⊥`).
    pub(crate) src: Vec<Option<u32>>,
    /// Distinct locations (sorted) with flat per-location event masks:
    /// location `locs[k]`'s mask is `loc_masks[k*words .. (k+1)*words]`.
    pub(crate) locs: Vec<Loc>,
    loc_masks: Vec<u64>,
    /// RMW pairs (read part, write part) as dense indices.
    rmw_pairs: Vec<(usize, usize)>,
}

/// SC and TSO graphs with at most this many non-init events are cheaper
/// through the closure-based reference formulation: building the
/// per-graph [`AxiomContext`] (dense index, mo positions, per-location
/// masks) costs more than their tiny closures. VMM does not delegate:
/// `check_perf` measures its fast path at or below the reference at every
/// size, since the VMM reference closes several relations per check — and
/// inside revisit chains every VMM check is an incremental push anyway.
pub const SMALL_GRAPH_EVENTS: usize = 20;

/// Should an SC or TSO `is_consistent` delegate to its reference
/// formulation for this graph? (See [`SMALL_GRAPH_EVENTS`].)
#[inline]
pub(crate) fn below_fast_path_threshold(g: &ExecutionGraph) -> bool {
    let below = g.num_events() <= SMALL_GRAPH_EVENTS;
    attribution::count(below);
    below
}

/// Opt-in counters attributing consistency checks to the fast path vs the
/// closure-based reference checker ([`SMALL_GRAPH_EVENTS`] delegation),
/// and rejected VMM checks to the axiom that failed.
///
/// Process-global by necessity — `is_consistent` takes no context — so the
/// counters are only meaningful when one session runs at a time (the CLI's
/// `--metrics`, which snapshots a delta around its single session). Off by
/// default: a relaxed load or two per check when disabled. Checks answered by
/// the incremental chain checker ([`crate::IncrementalVmm`]) count as
/// fast-path checks.
pub mod attribution {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static REFERENCE: AtomicU64 = AtomicU64::new(0);
    static FAST: AtomicU64 = AtomicU64::new(0);
    static REJECTED: [AtomicU64; 4] =
        [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

    /// A VMM axiom, in the order the checkers test them; a rejected check
    /// is attributed to the first one that fails.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Axiom {
        /// RMW atomicity.
        Atomicity,
        /// Per-location coherence and `irreflexive(hb ; eco)`.
        Coherence,
        /// No-thin-air: `acyclic(po ∪ rf)` (which also bounds `hb`).
        Porf,
        /// The SC axiom `acyclic(psc)`.
        Psc,
    }

    #[inline]
    fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Count one check, answered by the reference checker or not.
    #[inline]
    pub(crate) fn count(reference: bool) {
        if enabled() {
            let counter = if reference { &REFERENCE } else { &FAST };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one check's verdict: a rejection is attributed to `axiom`.
    #[inline]
    pub(crate) fn verdict(result: Result<(), Axiom>) -> bool {
        match result {
            Ok(()) => true,
            Err(axiom) => {
                if enabled() {
                    REJECTED[axiom as usize].fetch_add(1, Ordering::Relaxed);
                }
                false
            }
        }
    }

    /// Turn the process-global counters on or off.
    pub fn set_checker_attribution(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Current `(fast_path, reference_checker)` consistency-check counts.
    /// Snapshot before and after a run and subtract to scope a delta.
    #[must_use]
    pub fn checker_attribution() -> (u64, u64) {
        (FAST.load(Ordering::Relaxed), REFERENCE.load(Ordering::Relaxed))
    }

    /// Rejected VMM consistency checks, by the first axiom that failed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Rejections {
        /// RMW atomicity violations.
        pub atomicity: u64,
        /// Coherence violations (per-location, or `hb ; eco` cycles).
        pub coherence: u64,
        /// `po ∪ rf` cycles.
        pub porf: u64,
        /// SC-axiom (`psc`) cycles.
        pub psc: u64,
    }

    impl Rejections {
        /// The counts accumulated since the `before` snapshot.
        #[must_use]
        pub fn since(&self, before: &Rejections) -> Rejections {
            Rejections {
                atomicity: self.atomicity - before.atomicity,
                coherence: self.coherence - before.coherence,
                porf: self.porf - before.porf,
                psc: self.psc - before.psc,
            }
        }
    }

    /// Current rejection counts (snapshot-and-subtract, like
    /// [`checker_attribution`]).
    #[must_use]
    pub fn rejections_by_axiom() -> Rejections {
        let get = |a: Axiom| REJECTED[a as usize].load(Ordering::Relaxed);
        Rejections {
            atomicity: get(Axiom::Atomicity),
            coherence: get(Axiom::Coherence),
            porf: get(Axiom::Porf),
            psc: get(Axiom::Psc),
        }
    }
}

impl<'g> AxiomContext<'g> {
    /// Build the context: one pass over the graph.
    pub fn new(g: &'g ExecutionGraph) -> Self {
        let ix = EventIndex::new(g);
        let n = ix.len();
        let words = n.div_ceil(64).max(1);
        let mut cx = AxiomContext {
            g,
            n,
            words,
            loc: vec![None; n],
            pos: vec![None; n],
            is_write: vec![false; n],
            is_read: vec![false; n],
            src: vec![None; n],
            locs: Vec::new(),
            loc_masks: Vec::new(),
            rmw_pairs: Vec::new(),
            ix,
        };
        // Init writes occupy indices 0..init_count, position 0 in their mo.
        // They are also exactly the distinct locations, already sorted.
        for i in 0..cx.ix.init_count() {
            let EventId::Init(l) = cx.ix.id_of(i) else { unreachable!() };
            cx.loc[i] = Some(l);
            cx.pos[i] = Some(0);
            cx.is_write[i] = true;
            cx.locs.push(l);
        }
        // Write positions come from the mo lists (position 1 onwards).
        for l in g.written_locs() {
            for (p, &w) in g.mo(l).iter().enumerate() {
                let idx = cx.ix.index_of(w);
                cx.pos[idx] = Some(p as u32 + 1);
            }
        }
        for (id, ev) in g.events() {
            let idx = cx.ix.index_of(id);
            match &ev.kind {
                EventKind::Write { loc, rmw, .. } => {
                    cx.loc[idx] = Some(*loc);
                    cx.is_write[idx] = true;
                    if *rmw {
                        // The language emits the read part immediately
                        // before the write part in the same thread.
                        cx.rmw_pairs.push((idx - 1, idx));
                    }
                }
                EventKind::Read { loc, rf, .. } => {
                    cx.loc[idx] = Some(*loc);
                    cx.is_read[idx] = true;
                    if let RfSource::Write(w) = rf {
                        let widx = cx.ix.index_of(*w);
                        cx.src[idx] = Some(widx as u32);
                        cx.pos[idx] = cx.pos[widx];
                    }
                }
                _ => {}
            }
        }
        cx.loc_masks = vec![0u64; cx.locs.len() * words];
        for (idx, l) in cx.loc.iter().enumerate() {
            if let Some(l) = l {
                let k = cx.loc_slot(*l).expect("every accessed location has an init event");
                cx.loc_masks[k * words + idx / 64] |= 1u64 << (idx % 64);
            }
        }
        cx
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g ExecutionGraph {
        self.g
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the context over an empty graph?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub(crate) fn loc_slot(&self, l: Loc) -> Option<usize> {
        self.locs.binary_search(&l).ok()
    }

    fn mask_of(&self, l: Loc) -> Option<&[u64]> {
        let k = self.loc_slot(l)?;
        Some(&self.loc_masks[k * self.words..(k + 1) * self.words])
    }

    /// `eco(x, y)` from positions alone (see module docs): same location,
    /// and either `pos(y) > pos(x)`, or equal positions with `x` a write
    /// and `y` a read.
    fn eco(&self, x: usize, y: usize) -> bool {
        if x == y || self.loc[x].is_none() || self.loc[x] != self.loc[y] {
            return false;
        }
        let (Some(px), Some(py)) = (self.pos[x], self.pos[y]) else { return false };
        py > px || (py == px && self.is_write[x] && self.is_read[y])
    }

    /// All eco rows as one flat bitset (`n × words`), built with one
    /// descending-position sweep per location: each event's row is the
    /// strictly-greater-position suffix mask, plus the same-position
    /// readers for writes.
    fn eco_rows(&self) -> Vec<u64> {
        let words = self.words;
        let mut rows = vec![0u64; self.n * words];
        let mut evs: Vec<(u32, usize)> = Vec::new();
        let mut gt = vec![0u64; words];
        let mut readers = vec![0u64; words];
        for k in 0..self.locs.len() {
            evs.clear();
            let mask = &self.loc_masks[k * words..(k + 1) * words];
            for idx in iter_set_bits(mask) {
                if let Some(p) = self.pos[idx] {
                    evs.push((p, idx));
                }
            }
            evs.sort_unstable();
            gt.iter_mut().for_each(|w| *w = 0);
            let mut i = evs.len();
            while i > 0 {
                let p = evs[i - 1].0;
                let mut j = i;
                while j > 0 && evs[j - 1].0 == p {
                    j -= 1;
                }
                readers.iter_mut().for_each(|w| *w = 0);
                for &(_, idx) in &evs[j..i] {
                    if self.is_read[idx] {
                        readers[idx / 64] |= 1u64 << (idx % 64);
                    }
                }
                for &(_, idx) in &evs[j..i] {
                    let row = &mut rows[idx * words..(idx + 1) * words];
                    for (w, r) in row.iter_mut().enumerate() {
                        *r = gt[w];
                        if self.is_write[idx] {
                            *r |= readers[w];
                        }
                    }
                }
                for &(_, idx) in &evs[j..i] {
                    gt[idx / 64] |= 1u64 << (idx % 64);
                }
                i = j;
            }
        }
        rows
    }

    /// The extended coherence order `eco = (rf ∪ mo ∪ fr)⁺`, materialized
    /// directly in closed form from positions — no closure call.
    pub fn eco_relation(&self) -> Relation {
        let rows = self.eco_rows();
        let mut eco = Relation::new(self.n);
        for a in 0..self.n {
            eco.union_row_into(a, &rows[a * self.words..(a + 1) * self.words]);
        }
        eco
    }

    /// The immediate program-order relation (init events before every
    /// thread's first event) — identical to [`crate::axioms::po_relation`].
    pub fn po_relation(&self) -> Relation {
        let g = self.g;
        let mut po = Relation::new(self.n);
        for init_idx in 0..self.ix.init_count() {
            for t in 0..g.num_threads() {
                if g.thread_len(t as u32) > 0 {
                    po.add(init_idx, self.ix.index_of(EventId::new(t as u32, 0)));
                }
            }
        }
        for t in 0..g.num_threads() {
            for i in 1..g.thread_len(t as u32) {
                po.add(
                    self.ix.index_of(EventId::new(t as u32, (i - 1) as u32)),
                    self.ix.index_of(EventId::new(t as u32, i as u32)),
                );
            }
        }
        po
    }

    /// The reads-from relation from the cached source indices.
    pub fn rf_relation(&self) -> Relation {
        let mut rf = Relation::new(self.n);
        for (r, s) in self.src.iter().enumerate() {
            if let Some(s) = s {
                rf.add(*s as usize, r);
            }
        }
        rf
    }

    /// The synchronizes-with relation (same semantics as
    /// [`crate::sw_relation`]) assembled from per-thread fence index lists
    /// and a bitset release-sequence fixpoint.
    pub fn sw_relation(&self) -> Relation {
        let g = self.g;
        let mut sw = Relation::new(self.n);
        // Per-thread ascending dense indices of ⊒rel / ⊒acq fences.
        let nt = g.num_threads();
        let mut rel_fences: Vec<Vec<usize>> = vec![Vec::new(); nt];
        let mut acq_fences: Vec<Vec<usize>> = vec![Vec::new(); nt];
        // All writes (idx, thread, po-index, is_release); all resolved
        // reads (idx, thread, po-index, src, is_acquire).
        let mut writes: Vec<(usize, usize, u32, bool)> = Vec::new();
        let mut reads: Vec<(usize, usize, u32, u32, bool)> = Vec::new();
        for (id, ev) in g.events() {
            let idx = self.ix.index_of(id);
            let (t, i) = (id.thread().unwrap() as usize, id.index().unwrap());
            match &ev.kind {
                EventKind::Fence { mode } => {
                    if mode.is_release() {
                        rel_fences[t].push(idx);
                    }
                    if mode.is_acquire() {
                        acq_fences[t].push(idx);
                    }
                }
                EventKind::Write { mode, .. } => {
                    writes.push((idx, t, i, mode.is_release()));
                }
                EventKind::Read { mode, .. } => {
                    if let Some(s) = self.src[idx] {
                        reads.push((idx, t, i, s, mode.is_acquire()));
                    }
                }
                _ => {}
            }
        }
        let idx_to_po = |idx: usize| self.ix.id_of(idx).index().unwrap();
        let mut rseq = vec![0u64; self.words];
        let mut sources: Vec<usize> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        for &(widx, wt, wi, wrel) in &writes {
            sources.clear();
            if wrel {
                sources.push(widx);
            }
            for &f in &rel_fences[wt] {
                if idx_to_po(f) < wi {
                    sources.push(f);
                }
            }
            if sources.is_empty() {
                continue;
            }
            // Release sequence of w: w plus the RMW writes reading
            // (transitively) from it — bitset fixpoint over the pairs.
            rseq.iter_mut().for_each(|w| *w = 0);
            rseq[widx / 64] |= 1u64 << (widx % 64);
            loop {
                let mut changed = false;
                for &(r, w2) in &self.rmw_pairs {
                    if rseq[w2 / 64] & (1u64 << (w2 % 64)) != 0 {
                        continue;
                    }
                    let Some(s) = self.src[r] else { continue };
                    let s = s as usize;
                    if rseq[s / 64] & (1u64 << (s % 64)) != 0 {
                        rseq[w2 / 64] |= 1u64 << (w2 % 64);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            // Acquire targets: readers of the release sequence.
            for &(ridx, rt, ri, s, racq) in &reads {
                if rseq[s as usize / 64] & (1u64 << (s % 64)) == 0 {
                    continue;
                }
                targets.clear();
                if racq {
                    targets.push(ridx);
                }
                for &f in &acq_fences[rt] {
                    if idx_to_po(f) > ri {
                        targets.push(f);
                    }
                }
                for &s in &sources {
                    for &t in &targets {
                        sw.add(s, t);
                    }
                }
            }
        }
        sw
    }

    /// Add the immediate modification order into `rel` (enough for
    /// acyclicity checks, where `mo⁺` and `mo` have the same cycles).
    fn add_mo_immediate(&self, rel: &mut Relation) {
        for l in self.g.written_locs() {
            let mut prev = self.ix.index_of(EventId::Init(l));
            for &w in self.g.mo(l) {
                let cur = self.ix.index_of(w);
                rel.add(prev, cur);
                prev = cur;
            }
        }
    }

    /// Add the from-read relation into `rel`: each resolved read to every
    /// write positioned after its source.
    fn add_fr(&self, rel: &mut Relation) {
        for (r, p) in self.pos.iter().enumerate() {
            let (true, Some(p)) = (self.is_read[r], p) else { continue };
            let l = self.loc[r].expect("read has a location");
            for (wpos, &w) in self.g.mo(l).iter().enumerate() {
                if wpos as u32 + 1 > *p {
                    rel.add(r, self.ix.index_of(w));
                }
            }
        }
    }

    /// RMW atomicity via positions: each RMW write must sit immediately
    /// after its read's source in the extended mo.
    pub fn atomicity_holds(&self) -> bool {
        self.rmw_pairs.iter().all(|&(r, w)| {
            matches!((self.pos[r], self.pos[w]), (Some(rp), Some(wp)) if wp == rp + 1)
        })
    }

    /// Per-location coherence (CoWW/CoWR/CoRW/CoRR) in one pass per
    /// thread: positions must be non-decreasing along each thread's
    /// same-location accesses, strictly increasing into writes.
    ///
    /// Checking only *adjacent* resolved accesses is complete: the pair
    /// constraint `pos(a) < pos(b)` (strict iff `b` writes) composes
    /// transitively along the subsequence (DESIGN.md).
    pub fn per_loc_coherent(&self) -> bool {
        let g = self.g;
        let mut last: Vec<(Loc, u32)> = Vec::with_capacity(8); // loc -> last pos
        for t in 0..g.num_threads() {
            last.clear();
            for i in 0..g.thread_len(t as u32) {
                let idx = self.ix.index_of(EventId::new(t as u32, i as u32));
                let (Some(l), Some(p)) = (self.loc[idx], self.pos[idx]) else { continue };
                match last.iter_mut().find(|(ll, _)| *ll == l) {
                    Some((_, prev)) => {
                        let ok = if self.is_write[idx] { *prev < p } else { *prev <= p };
                        if !ok {
                            return false;
                        }
                        *prev = p;
                    }
                    None => last.push((l, p)),
                }
            }
        }
        true
    }

    /// `acyclic(po ∪ rf)` (no-thin-air) via DFS — no closure.
    pub fn porf_acyclic(&self) -> bool {
        let mut porf = self.po_relation();
        porf.union_with(&self.rf_relation());
        porf.is_acyclic()
    }

    /// The SC global order `po ∪ rf ∪ mo ∪ fr` with immediate mo edges
    /// (same cycles as the closed version).
    pub fn sc_order(&self) -> Relation {
        let mut rel = self.po_relation();
        rel.union_with(&self.rf_relation());
        self.add_mo_immediate(&mut rel);
        self.add_fr(&mut rel);
        rel
    }

    /// The happens-before closure `hb = (po ∪ sw)⁺`, or `None` if `po ∪ sw`
    /// is cyclic (i.e. `hb` would be reflexive).
    pub fn hb_closure(&self, sw: &Relation) -> Option<Relation> {
        let mut hb = self.po_relation();
        hb.union_with(sw);
        hb.close_acyclic().then_some(hb)
    }

    /// RC11 coherence given the closed `hb`: no `hb` edge may be
    /// contradicted by `eco` — `irreflexive(hb ; eco)`. Only same-location
    /// successors can matter, so rows are masked by location first.
    pub fn coherent(&self, hb: &Relation) -> bool {
        let mut scratch = vec![0u64; self.words];
        for a in 0..self.n {
            let Some(l) = self.loc[a] else { continue };
            let Some(mask) = self.mask_of(l) else { continue };
            for (w, s) in scratch.iter_mut().enumerate() {
                *s = hb.row(a)[w] & mask[w];
            }
            if iter_set_bits(&scratch).any(|b| self.eco(b, a)) {
                return false;
            }
        }
        true
    }

    /// Per-event bitset rows of the same-thread po-successors (a reverse
    /// sweep per thread).
    fn thread_suffix_rows(&self) -> Vec<u64> {
        let words = self.words;
        let mut rows = vec![0u64; self.n * words];
        let g = self.g;
        for t in 0..g.num_threads() {
            let len = g.thread_len(t as u32);
            let mut suffix = vec![0u64; words];
            for i in (0..len).rev() {
                let idx = self.ix.index_of(EventId::new(t as u32, i as u32));
                rows[idx * words..(idx + 1) * words].copy_from_slice(&suffix);
                suffix[idx / 64] |= 1u64 << (idx % 64);
            }
        }
        rows
    }

    /// Per-event bitset rows of the same-location *writes* with strictly
    /// greater position: a write's closed-`mo` successors, a read's `fr`
    /// targets. Built with one descending sweep per location.
    fn writes_after_rows(&self) -> Vec<u64> {
        let words = self.words;
        let mut rows = vec![0u64; self.n * words];
        let g = self.g;
        for (k, &l) in self.locs.iter().enumerate() {
            // Suffix masks over [init, mo...]: suffix[p] = writes at pos > p.
            let mo = g.mo(l);
            let mut suffix = vec![0u64; (mo.len() + 1) * words];
            let mut acc = vec![0u64; words];
            for p in (0..=mo.len()).rev() {
                suffix[p * words..(p + 1) * words].copy_from_slice(&acc);
                let idx = if p == 0 {
                    self.ix.index_of(EventId::Init(l))
                } else {
                    self.ix.index_of(mo[p - 1])
                };
                acc[idx / 64] |= 1u64 << (idx % 64);
            }
            let mask = &self.loc_masks[k * words..(k + 1) * words];
            for idx in iter_set_bits(mask) {
                if let Some(p) = self.pos[idx] {
                    let p = (p as usize).min(mo.len());
                    rows[idx * words..(idx + 1) * words]
                        .copy_from_slice(&suffix[p * words..(p + 1) * words]);
                }
            }
        }
        rows
    }

    /// The `psc = psc_base ∪ psc_F` relation of the RC11 SC axiom over the
    /// SC events only (the only possible carriers of a `psc` cycle): their
    /// dense indices (ascending) and the `m × m` relation between them, or
    /// `None` when the graph has no SC events. The
    /// `scb = (po \ po_loc) ∪ hb|loc ∪ mo ∪ fr` rows are synthesized on
    /// demand from suffix masks — the `n × n` relation is never built.
    pub(crate) fn psc_relation(&self, hb: &Relation) -> Option<(Vec<usize>, Relation)> {
        let g = self.g;
        // Classify SC events once.
        let mut sc_fence = vec![false; self.n];
        let mut sc_nodes: Vec<usize> = Vec::new();
        for (id, ev) in g.events() {
            let sc = match &ev.kind {
                EventKind::Fence { mode } if mode.is_sc() => {
                    sc_fence[self.ix.index_of(id)] = true;
                    true
                }
                EventKind::Fence { .. } => false,
                EventKind::Read { mode, .. } | EventKind::Write { mode, .. } => mode.is_sc(),
                _ => false,
            };
            if sc {
                sc_nodes.push(self.ix.index_of(id));
            }
        }
        if sc_nodes.is_empty() {
            return None; // no SC events, axiom trivially holds
        }
        sc_nodes.sort_unstable();

        let words = self.words;
        let po_suffix = self.thread_suffix_rows();
        let writes_after = self.writes_after_rows();
        // scb_row(a) = (po-successors \ same-loc) ∪ (hb_row(a) ∩ loc(a))
        //            ∪ same-loc writes after a — written into `out`.
        let scb_row_into = |a: usize, out: &mut [u64]| {
            let posuf = &po_suffix[a * words..(a + 1) * words];
            match self.loc[a].and_then(|l| self.mask_of(l)) {
                Some(mask) => {
                    let wa = &writes_after[a * words..(a + 1) * words];
                    for (w, o) in out.iter_mut().enumerate() {
                        *o |= (posuf[w] & !mask[w]) | (hb.row(a)[w] & mask[w]) | wa[w];
                    }
                }
                None => {
                    for (w, o) in out.iter_mut().enumerate() {
                        *o |= posuf[w];
                    }
                }
            }
        };

        // Per SC node: L = {s} (∪ hb-successors for fences),
        //              R = {s} (∪ hb-predecessors for fences) as a bitset.
        let m = sc_nodes.len();
        let mut r_sets: Vec<u64> = vec![0u64; m * words];
        for (k, &s) in sc_nodes.iter().enumerate() {
            r_sets[k * words + s / 64] |= 1u64 << (s % 64);
        }
        for a in 0..self.n {
            for (k, &s) in sc_nodes.iter().enumerate() {
                if sc_fence[s] && hb.has(a, s) {
                    r_sets[k * words + a / 64] |= 1u64 << (a % 64);
                }
            }
        }
        let mut psc = Relation::new(m);
        let mut reach = vec![0u64; words];
        for (k1, &s1) in sc_nodes.iter().enumerate() {
            // X = ∪_{a ∈ L(s1)} scb_row(a)
            reach.iter_mut().for_each(|w| *w = 0);
            scb_row_into(s1, &mut reach);
            if sc_fence[s1] {
                for a in hb.successors(s1) {
                    scb_row_into(a, &mut reach);
                }
            }
            for k2 in 0..m {
                let rset = &r_sets[k2 * words..(k2 + 1) * words];
                if reach.iter().zip(rset).any(|(x, y)| x & y != 0) {
                    psc.add(k1, k2);
                }
            }
        }

        // psc_F = [Fsc] ; (hb ∪ hb;eco;hb) ; [Fsc]. The eco rows are only
        // materialized when SC fences actually exist.
        let fences: Vec<(usize, usize)> = sc_nodes
            .iter()
            .enumerate()
            .filter(|&(_, &s)| sc_fence[s])
            .map(|(k, &s)| (k, s))
            .collect();
        if !fences.is_empty() {
            let eco_rows = self.eco_rows();
            for &(k1, f1) in &fences {
                // Z = ∪_{a ∈ hb.row(f1)} eco_row(a): everything hb;eco
                // after f1.
                reach.iter_mut().for_each(|w| *w = 0);
                for a in hb.successors(f1) {
                    let row = &eco_rows[a * self.words..(a + 1) * self.words];
                    for (w, r) in reach.iter_mut().enumerate() {
                        *r |= row[w];
                    }
                }
                for &(k2, f2) in &fences {
                    if hb.has(f1, f2) {
                        psc.add(k1, k2);
                        continue;
                    }
                    // hb;eco;hb: some b ∈ Z with hb(b, f2)?
                    if iter_set_bits(&reach).any(|b| hb.has(b, f2)) {
                        psc.add(k1, k2);
                    }
                }
            }
        }
        Some((sc_nodes, psc))
    }

    /// The TSO global order: `ppo ∪ rfe ∪ mo ∪ fr`, where `ppo` drops
    /// unfenced write→read pairs and `rfe` is external reads-from.
    pub fn tso_order(
        &self,
        wr_ordered: impl Fn(&ExecutionGraph, u32, usize, usize) -> bool,
    ) -> Relation {
        let g = self.g;
        let mut ghb = Relation::new(self.n);
        self.add_mo_immediate(&mut ghb);
        self.add_fr(&mut ghb);
        // External reads-from only (init counts as external).
        for (r, s) in self.src.iter().enumerate() {
            let Some(s) = s else { continue };
            let w = self.ix.id_of(*s as usize);
            let rid = self.ix.id_of(r);
            if w.thread() != rid.thread() {
                ghb.add(*s as usize, r);
            }
        }
        // Preserved program order.
        for init_idx in 0..self.ix.init_count() {
            for t in 0..g.num_threads() {
                if g.thread_len(t as u32) > 0 {
                    ghb.add(init_idx, self.ix.index_of(EventId::new(t as u32, 0)));
                }
            }
        }
        for t in 0..g.num_threads() {
            let evs = g.thread_events(t as u32);
            for i in 0..evs.len() {
                for j in i + 1..evs.len() {
                    let keep = if evs[i].kind.is_write() && evs[j].kind.is_read() {
                        wr_ordered(g, t as u32, i, j)
                    } else {
                        true
                    };
                    if keep {
                        ghb.add(
                            self.ix.index_of(EventId::new(t as u32, i as u32)),
                            self.ix.index_of(EventId::new(t as u32, j as u32)),
                        );
                    }
                }
            }
        }
        ghb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms;
    use std::collections::BTreeMap;
    use vsync_graph::Mode;

    fn w(loc: u64, val: u64) -> EventKind {
        EventKind::Write { loc, val, mode: Mode::Rlx, rmw: false }
    }

    fn r(loc: u64, rf: RfSource) -> EventKind {
        EventKind::Read { loc, mode: Mode::Rlx, rf, rmw: false, awaiting: false }
    }

    fn sample() -> ExecutionGraph {
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        g.push_event(1, r(1, RfSource::Write(w1)));
        g.push_event(1, r(2, RfSource::Write(EventId::Init(2))));
        g
    }

    #[test]
    fn positions_match_mo_position() {
        let g = sample();
        let cx = AxiomContext::new(&g);
        for (i, id) in cx.ix.iter() {
            let expected = match id {
                EventId::Init(_) => Some(0),
                _ => match &g.event(id).kind {
                    EventKind::Write { .. } => g.mo_position(id),
                    EventKind::Read { rf: RfSource::Write(src), .. } => g.mo_position(*src),
                    _ => None,
                },
            };
            assert_eq!(cx.pos[i].map(|p| p as usize), expected, "position of {id}");
        }
    }

    #[test]
    fn eco_fast_equals_closed_reference() {
        let g = sample();
        let cx = AxiomContext::new(&g);
        let eco_ref = axioms::eco_relation(&g, &cx.ix);
        let eco_fast = cx.eco_relation();
        for a in 0..cx.len() {
            for b in 0..cx.len() {
                assert_eq!(
                    eco_fast.has(a, b),
                    eco_ref.has(a, b),
                    "eco({}, {})",
                    cx.ix.id_of(a),
                    cx.ix.id_of(b)
                );
            }
        }
    }

    #[test]
    fn eco_rows_match_pairwise_predicate() {
        let g = sample();
        let cx = AxiomContext::new(&g);
        let eco = cx.eco_relation();
        for a in 0..cx.len() {
            for b in 0..cx.len() {
                assert_eq!(eco.has(a, b), cx.eco(a, b), "({a}, {b})");
            }
        }
    }

    #[test]
    fn sw_fast_equals_reference() {
        // A graph exercising release fences, acquire fences and an RMW
        // release sequence.
        let (d, f) = (1, 2);
        let mut g = ExecutionGraph::new(3, BTreeMap::new());
        let wd = g.push_event(0, w(d, 1));
        g.insert_mo(d, wd, 0);
        g.push_event(0, EventKind::Fence { mode: Mode::Rel });
        let wf = g.push_event(0, EventKind::Write { loc: f, val: 1, mode: Mode::Rel, rmw: false });
        g.insert_mo(f, wf, 0);
        g.push_event(
            1,
            EventKind::Read { loc: f, mode: Mode::Rlx, rf: RfSource::Write(wf), rmw: true, awaiting: false },
        );
        let wu = g.push_event(1, EventKind::Write { loc: f, val: 2, mode: Mode::Rlx, rmw: true });
        g.insert_mo(f, wu, 1);
        g.push_event(2, r(f, RfSource::Write(wu)));
        g.push_event(2, EventKind::Fence { mode: Mode::Acq });
        g.push_event(2, r(d, RfSource::Write(EventId::Init(d))));
        let cx = AxiomContext::new(&g);
        let fast = cx.sw_relation();
        let naive = crate::sw_relation(&g, &cx.ix);
        for a in 0..cx.len() {
            for b in 0..cx.len() {
                assert_eq!(
                    fast.has(a, b),
                    naive.has(a, b),
                    "sw({}, {})",
                    cx.ix.id_of(a),
                    cx.ix.id_of(b)
                );
            }
        }
    }

    #[test]
    fn fast_structural_axioms_agree() {
        let g = sample();
        let cx = AxiomContext::new(&g);
        assert_eq!(cx.atomicity_holds(), axioms::atomicity_holds(&g));
        assert_eq!(cx.per_loc_coherent(), axioms::per_loc_coherent(&g));
    }

    #[test]
    fn coherence_fast_catches_corr_violation() {
        // T1 reads w2 then w1 (older): CoRR violation.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(0, w(1, 1));
        g.insert_mo(1, w1, 0);
        let w2 = g.push_event(0, w(1, 2));
        g.insert_mo(1, w2, 1);
        g.push_event(1, r(1, RfSource::Write(w2)));
        g.push_event(1, r(1, RfSource::Write(w1)));
        let cx = AxiomContext::new(&g);
        assert!(!cx.per_loc_coherent());
        assert!(!axioms::per_loc_coherent(&g));
    }
}
