//! Revisit-driven reads-from exploration ([`SearchMode::Revisit`], the
//! default) — the stateless-optimal counterpart of the enumerate-and-dedup
//! drivers in [`crate::explorer`].
//!
//! The enumerate engine materializes every extension candidate as a fresh
//! graph, pushes it, and lets the global dedup set discard the duplicates
//! after the fact: on contended programs the overwhelming majority of
//! constructed graphs are clones that are hashed once and thrown away.
//! This module keeps the *same* search tree but walks it as chains of
//! in-place extensions:
//!
//! * A work item is a materialized **chain root** (initially the empty
//!   graph; later, admitted alternates and revisit children). Processing
//!   an item runs a depth-first **chain**: at every step the engine
//!   replays the program, checks the graph, and — instead of cloning one
//!   child per candidate — speculatively applies each candidate to the
//!   current graph ([`ExecutionGraph::push_event`] /
//!   [`ExecutionGraph::insert_mo`]), checks consistency, and undoes it
//!   ([`ExecutionGraph::pop_event`] / [`ExecutionGraph::remove_mo`]).
//!   The chain then continues *in place* with the last viable candidate
//!   (exactly the child the LIFO enumerate driver would pop next) and
//!   admits the remaining viable candidates as new work items.
//! * Admission is **hash-before-materialize**: every candidate — forward
//!   alternate or revisit child — is hashed through a [`GraphView`] of
//!   the speculative graph (a restriction plus an rf override, encoded
//!   without building anything) and cloned only if its orbit has never
//!   been admitted before. Duplicate orbits cost one encoding, zero
//!   constructions.
//! * Backward revisits (the W-step of the paper's Fig. 6) are computed
//!   once per mo placement during the speculative scan — including
//!   placements that are themselves inconsistent, since the revisit
//!   restriction can remove the inconsistency — and never regenerated
//!   when the continuation placement is re-applied.
//!
//! Two global sets partition the dedup duties: `visited` gates
//! *materializations* (admitted roots), `leaves` counts *terminal*
//! contents (complete and blocked graphs) exactly once each. They must be
//! distinct: a revisit child that happens to be a leaf would otherwise
//! collide with its own admission hash and be dropped uncounted. Under
//! thread symmetry both sets hash modulo the program's symmetry partition
//! ([`ExploreEncoder`]), and first arrivals are normalized to their orbit
//! representative exactly as the enumerate engine does — so verdicts,
//! `complete_executions` (orbit counts) and counterexample messages are
//! identical across search modes and worker counts.
//!
//! The savings show up in [`ExploreStats::constructed`]: the enumerate
//! engine constructs one graph per push (plus the initial graph), this
//! engine one per *admitted* item — on qspinlock-3t an order of magnitude
//! fewer (see BENCH_explore.json and DESIGN.md §12).
//!
//! [`SearchMode::Revisit`]: crate::verdict::SearchMode::Revisit
//! [`ExploreStats::constructed`]: crate::verdict::ExploreStats::constructed
//! [`ExploreEncoder`]: vsync_graph::ExploreEncoder

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vsync_graph::{
    EventId, EventKind, ExecutionGraph, ExploreEncoder, GraphView, Loc, Mode, RfSource, ThreadId,
};
use vsync_lang::{BlockedAwait, PendingOp, ReadDesc, ReplayOutcome, ThreadStatus};
use vsync_model::{CheckerKind, IncrementalVmm, MemoryModel, ModelKind};

use crate::explorer::{
    degraded, failed_final_check, min_source_pos, panic_payload, relock, stats_delta,
    BudgetTracker, Engine, Pacer, SeenSet, SharedStats, WorkQueue, CHECK_PERIOD,
};
use crate::failpoint;
use crate::stagnancy::is_stagnant_with;
use crate::telemetry::PhaseTracker;
use crate::verdict::{
    AmcResult, Counterexample, EngineError, EnginePhase, ExploreStats, Inconclusive, StopReason,
    Verdict,
};

/// Dedup probe: returns `true` iff the hash was never seen before.
type Probe<'a> = dyn FnMut(u128) -> bool + 'a;

/// Driver callback run once per chain step, *before* the step's work:
/// transfers the previous step's admitted children to the frontier and
/// performs the cooperative control checks (budget, cancellation,
/// deadline, step ceiling). A `Some` return stops the run.
type Tick<'a> =
    dyn FnMut(&mut ExploreStats, &mut Vec<ExecutionGraph>) -> Option<StopReason> + 'a;

/// How a chain ended.
enum ChainEnd {
    /// The chain ran to a leaf (or died at a check); exploration continues
    /// with the next work item.
    Done,
    /// A terminal verdict that ends the whole exploration.
    Verdict(Verdict),
    /// A control check stopped the run mid-chain (budget / cancellation /
    /// deadline / step ceiling).
    Stopped(StopReason),
}

/// A worker's consistency checker for its chains. The VMM fast path runs
/// incrementally ([`IncrementalVmm`]): the chain root is checked in full,
/// every in-chain push against only the constraints involving the new
/// event. SC, TSO and the reference checkers check every graph in full
/// (`push` is a full check, `pop` a no-op).
struct ChainChecker {
    model: &'static dyn MemoryModel,
    incremental: Option<IncrementalVmm>,
}

impl ChainChecker {
    /// Check a chain root in full.
    fn reset(&mut self, g: &ExecutionGraph) -> bool {
        match &mut self.incremental {
            Some(inc) => inc.reset(g),
            None => self.model.is_consistent(g),
        }
    }

    /// Check `g`, the chain's graph plus the newest event; keep the event
    /// until [`ChainChecker::pop`].
    fn push(&mut self, g: &ExecutionGraph) -> bool {
        match &mut self.incremental {
            Some(inc) => inc.push(g),
            None => self.model.is_consistent(g),
        }
    }

    fn pop(&mut self) {
        if let Some(inc) = &mut self.incremental {
            inc.pop();
        }
    }

    /// Keep the continuation candidate, which an earlier `push` accepted
    /// and popped again (not a new check).
    fn reapply(&mut self, g: &ExecutionGraph) {
        if let Some(inc) = &mut self.incremental {
            inc.reapply(g);
        }
    }

    /// Does the checker's state still describe `g`?
    fn matches(&self, g: &ExecutionGraph) -> bool {
        self.incremental.as_ref().is_none_or(|inc| inc.matches(g))
    }

    /// Stagnancy of the leaf `g`. Each blocked read is resolved on the
    /// chain state — unless the leaf was relabeled to its orbit
    /// representative, which the state does not describe.
    fn is_stagnant(
        &mut self,
        g: &mut ExecutionGraph,
        blocked: &[&BlockedAwait],
        relabeled: bool,
    ) -> bool {
        match &mut self.incremental {
            Some(inc) if !relabeled => is_stagnant_with(g, blocked, &mut |g2, read| {
                inc.suspend(read);
                let ok = inc.push(g2);
                inc.pop();
                inc.resume();
                ok
            }),
            _ => {
                let model = self.model;
                is_stagnant_with(g, blocked, &mut |g2, _| model.is_consistent(g2))
            }
        }
    }
}

/// Scratch state for one chain; admitted children end up in `out`.
struct ChainCtx<'s> {
    stats: &'s mut ExploreStats,
    out: &'s mut Vec<ExecutionGraph>,
    executions: &'s mut Vec<ExecutionGraph>,
    /// The run's budget tracker, so failpoint-injected allocation
    /// failures can force exhaustion from any stage.
    budget: &'s BudgetTracker,
    /// Engine phase for panic attribution and (when profiling is on)
    /// wall-clock accrual, exactly as in the enumerate drivers.
    phase: &'s PhaseTracker,
    /// Per-worker symmetry-aware view hasher.
    enc: &'s mut ExploreEncoder,
    /// Per-worker consistency checker, in step with the chain's graph.
    checker: &'s mut ChainChecker,
    dedup: bool,
}

impl ChainCtx<'_> {
    /// Record a failpoint hit; a synthetic allocation failure is reported
    /// as memory-budget exhaustion. Compiles to nothing without the
    /// `failpoints` feature.
    #[inline]
    fn failpoint(&self, site: &'static str) {
        if failpoint::hit(site).is_oom() {
            self.budget.force(StopReason::MemoryBudget);
        }
    }
}

impl<'p> Engine<'p> {
    /// Run one chain to exhaustion: replay, check, extend in place,
    /// admitting non-continuation candidates through the `visited` probe
    /// and counting terminal graphs through the `leaves` probe.
    fn run_chain(
        &self,
        mut g: ExecutionGraph,
        ctx: &mut ChainCtx<'_>,
        visited: &mut Probe<'_>,
        leaves: &mut Probe<'_>,
        tick: &mut Tick<'_>,
    ) -> ChainEnd {
        let mut root = true;
        loop {
            ctx.phase.set(EnginePhase::Driver);
            if let Some(r) = tick(ctx.stats, ctx.out) {
                return ChainEnd::Stopped(r);
            }
            // Replay first: it repairs derived read flags, which the
            // consistency check depends on.
            ctx.phase.set(EnginePhase::Replay);
            ctx.failpoint("explore.replay");
            let rep = vsync_lang::replay_with_budget(self.prog, &mut g, self.config.step_budget);
            if let Some(f) = rep.fault() {
                return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
            }
            ctx.stats.events += g.num_events() as u64;
            if rep.wasteful {
                ctx.stats.wasteful += 1;
                return ChainEnd::Done;
            }
            // Candidates carry their exact derived flags, so replaying an
            // in-place continuation must not rewrite a checked event.
            debug_assert!(root || ctx.checker.matches(&g), "replay rewrote a pushed event");
            if root {
                root = false;
                // Chain roots are materialized without a consistency
                // check — revisit children in particular can be
                // inconsistent even when built from consistent parents —
                // so check once here, after replay repaired the flags.
                // In-place continuations were already checked by the
                // speculative scan that chose them.
                ctx.phase.set(EnginePhase::Consistency);
                ctx.failpoint("explore.consistency");
                if !ctx.checker.reset(&g) {
                    ctx.stats.inconsistent += 1;
                    return ChainEnd::Done;
                }
            }
            if rep.errored() {
                let (_, msg) = g.error().expect("errored replay has an error event");
                let message = format!("assertion failed: {msg}");
                return ChainEnd::Verdict(Verdict::Safety(Counterexample { graph: g, message }));
            }
            let next_ready = rep.ready_threads().next();
            match next_ready {
                Some(t) => {
                    ctx.phase.set(EnginePhase::Extend);
                    ctx.failpoint("explore.extend");
                    if g.thread_len(t) >= self.config.max_events_per_thread {
                        return ChainEnd::Verdict(Verdict::Fault(format!(
                            "thread {t} exceeded {} events — unbounded non-await loop? \
                             (Bounded-Length principle)",
                            self.config.max_events_per_thread
                        )));
                    }
                    let ThreadStatus::Ready(op) = &rep.threads[t as usize] else { unreachable!() };
                    let extended = match op {
                        PendingOp::Fence { mode } => {
                            self.chain_simple(&mut g, t, EventKind::Fence { mode: *mode }, ctx)
                        }
                        PendingOp::Error { msg } => {
                            self.chain_simple(&mut g, t, EventKind::Error { msg: msg.clone() }, ctx)
                        }
                        PendingOp::Read { loc, mode, desc, prev_rf } => {
                            self.chain_read(&mut g, t, *loc, *mode, *desc, *prev_rf, ctx, visited)
                        }
                        PendingOp::Write { loc, val, mode, rmw } => {
                            self.chain_write(&mut g, t, *loc, *val, *mode, *rmw, ctx, visited)
                        }
                    };
                    if !extended {
                        return ChainEnd::Done;
                    }
                }
                None => return self.chain_leaf(g, rep, ctx, leaves),
            }
        }
    }

    /// Terminal graph: count its orbit once through `leaves`, then run the
    /// complete-execution checks or the stagnancy analysis.
    fn chain_leaf(
        &self,
        mut g: ExecutionGraph,
        mut rep: ReplayOutcome,
        ctx: &mut ChainCtx<'_>,
        leaves: &mut Probe<'_>,
    ) -> ChainEnd {
        let mut relabeled = false;
        if ctx.dedup {
            // Leaf counting is a view probe, like admission — `Probe`, not
            // `Dedup`, so revisit-engine hash work is attributed to the
            // hash-before-materialize scheme that motivates it.
            ctx.phase.set(EnginePhase::Probe);
            ctx.failpoint("explore.dedup");
            let (h, permuted) = ctx.enc.hash_view(&GraphView::full(&g));
            ctx.stats.probes += ctx.enc.take_probes();
            if !leaves(h) {
                // Distinct chains can converge on the same terminal
                // content; only the first arrival is counted/checked.
                if permuted {
                    ctx.stats.symmetry_pruned += 1;
                } else {
                    ctx.stats.duplicates += 1;
                }
                return ChainEnd::Done;
            }
            if permuted {
                // First arrival of its orbit in non-canonical form:
                // normalize so counterexamples and collected executions
                // are the orbit representatives the enumerate engine
                // reports.
                let perm =
                    ctx.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
                g = g.permute_threads(perm);
                relabeled = true;
                rep = vsync_lang::replay_with_budget(self.prog, &mut g, self.config.step_budget);
                if let Some(f) = rep.fault() {
                    return ChainEnd::Verdict(Verdict::Fault(f.to_owned()));
                }
            }
        }
        let blocked: Vec<_> = rep.blocked().collect();
        if blocked.is_empty() {
            ctx.phase.set(EnginePhase::FinalCheck);
            ctx.failpoint("explore.final");
            ctx.stats.complete_executions += 1;
            if let Some(msg) = failed_final_check(self.prog, &g) {
                return ChainEnd::Verdict(Verdict::Safety(Counterexample {
                    graph: g,
                    message: msg,
                }));
            }
            if self.config.collect_executions {
                ctx.executions.push(g);
            }
        } else {
            ctx.phase.set(EnginePhase::Stagnancy);
            ctx.failpoint("explore.stagnancy");
            ctx.stats.blocked_graphs += 1;
            if ctx.checker.is_stagnant(&mut g, &blocked, relabeled) {
                let polls: Vec<String> =
                    blocked.iter().map(|b| format!("{}@{:#x}", b.read, b.loc)).collect();
                let message = format!(
                    "await never terminates: blocked read(s) {} cannot \
                     observe any new write",
                    polls.join(", ")
                );
                return ChainEnd::Verdict(Verdict::AwaitTermination(Counterexample {
                    graph: g,
                    message,
                }));
            }
            // Non-stagnant blocked graphs are exploration artifacts;
            // their real continuations are siblings.
        }
        ChainEnd::Done
    }

    /// Single-candidate step (fence / error event): extend in place, no
    /// admission. SC fences can still create consistency violations, so
    /// the step is checked like any other.
    fn chain_simple(
        &self,
        g: &mut ExecutionGraph,
        t: ThreadId,
        kind: EventKind,
        ctx: &mut ChainCtx<'_>,
    ) -> bool {
        g.push_event(t, kind);
        ctx.phase.set(EnginePhase::Consistency);
        ctx.failpoint("explore.consistency");
        if !ctx.checker.push(g) {
            ctx.stats.inconsistent += 1;
            return false;
        }
        true
    }

    /// R-step: branch over every rf candidate (plus `⊥` for await reads),
    /// continuing in place with the last viable one.
    #[allow(clippy::too_many_arguments)]
    fn chain_read(
        &self,
        g: &mut ExecutionGraph,
        t: ThreadId,
        loc: Loc,
        mode: Mode,
        desc: ReadDesc,
        prev_rf: Option<RfSource>,
        ctx: &mut ChainCtx<'_>,
        visited: &mut Probe<'_>,
    ) -> bool {
        // Candidates in the enumerate engine's push order (`⊥` last), so
        // the in-place continuation — the last viable candidate — is the
        // child the LIFO driver would pop first.
        let min_pos = min_source_pos(g, t, loc);
        let mut sources: Vec<EventId> = vec![EventId::Init(loc)];
        sources.extend(g.mo(loc).iter().copied());
        let mut cands: Vec<EventKind> = Vec::with_capacity(sources.len() + 1);
        for (pos, w) in sources.into_iter().enumerate() {
            if pos < min_pos {
                continue; // per-location coherence rules this source out
            }
            if desc.is_await() && prev_rf == Some(RfSource::Write(w)) {
                continue; // wasteful repeat (Def. 2) — never generated
            }
            // The event carries its exact derived flags (from the
            // candidate source's value), so the speculative check below
            // equals the one the enumerate engine runs after replaying
            // the materialized child.
            let writes = desc.write_on(g.write_value(w)).is_some();
            cands.push(EventKind::Read {
                loc,
                mode,
                rf: RfSource::Write(w),
                rmw: writes,
                awaiting: desc.is_await(),
            });
        }
        if desc.is_await() {
            // The potential AT violation: no incoming rf-edge (yet).
            cands.push(EventKind::Read {
                loc,
                mode,
                rf: RfSource::Bottom,
                rmw: false,
                awaiting: true,
            });
        }
        // Viability scan: speculative push → model check → undo. The
        // checker keeps the last candidate when it is viable: it is then
        // the continuation.
        let mut viable: Vec<usize> = Vec::with_capacity(cands.len());
        let last = cands.len().saturating_sub(1);
        ctx.phase.set(EnginePhase::Consistency);
        for (i, kind) in cands.iter().enumerate() {
            g.push_event(t, kind.clone());
            ctx.failpoint("explore.consistency");
            let ok = ctx.checker.push(g);
            if !(ok && i == last) {
                ctx.checker.pop();
            }
            g.pop_event(t);
            if ok {
                viable.push(i);
            } else {
                ctx.stats.inconsistent += 1;
            }
        }
        ctx.phase.set(EnginePhase::Extend);
        let Some((&cont, alternates)) = viable.split_last() else {
            return false;
        };
        for &i in alternates {
            g.push_event(t, cands[i].clone());
            self.admit(&GraphView::full(g), &mut || g.clone(), false, ctx, visited);
            g.pop_event(t);
        }
        g.push_event(t, cands[cont].clone());
        if cont != last {
            ctx.checker.reapply(g);
        }
        true
    }

    /// W-step: place the write in mo (all positions for plain writes; the
    /// atomicity-forced slot for RMW write parts), generate backward
    /// revisits once per placement, and continue in place with the last
    /// viable placement.
    #[allow(clippy::too_many_arguments)]
    fn chain_write(
        &self,
        g: &mut ExecutionGraph,
        t: ThreadId,
        loc: Loc,
        val: u64,
        mode: Mode,
        rmw: bool,
        ctx: &mut ChainCtx<'_>,
        visited: &mut Probe<'_>,
    ) -> bool {
        let positions: Vec<usize> = if rmw {
            // The write part must land immediately after its read's source.
            let read_id = EventId::new(t, g.thread_len(t) as u32 - 1);
            let src = match g.rf(read_id) {
                RfSource::Write(w) => w,
                RfSource::Bottom => unreachable!("rmw write part with unresolved read"),
            };
            let pos = match src {
                EventId::Init(_) => 0,
                _ => g.mo(loc).iter().position(|x| *x == src).expect("source in mo") + 1,
            };
            vec![pos]
        } else {
            (0..=g.mo(loc).len()).collect()
        };
        // Pass 1 — per placement: generate its revisit children (even
        // when the placed graph itself is inconsistent: the revisit
        // restriction can remove the inconsistency), check the
        // placement's own viability, undo — except that, as in the
        // R-step, the checker keeps the last placement when it is viable.
        let mut viable: Vec<usize> = Vec::with_capacity(positions.len());
        let last = *positions.last().expect("a write has a placement");
        for &pos in &positions {
            let wid = g.push_event(t, EventKind::Write { loc, val, mode, rmw });
            g.insert_mo(loc, wid, pos);
            self.chain_revisits(g, wid, loc, ctx, visited);
            ctx.phase.set(EnginePhase::Consistency);
            ctx.failpoint("explore.consistency");
            let ok = ctx.checker.push(g);
            if !(ok && pos == last) {
                ctx.checker.pop();
            }
            if ok {
                viable.push(pos);
            } else {
                ctx.stats.inconsistent += 1;
            }
            ctx.phase.set(EnginePhase::Extend);
            g.remove_mo(loc, pos);
            g.pop_event(t);
        }
        // Pass 2 — admit every viable placement but the last as an
        // alternate; continue in place with the last. Revisits were all
        // generated in pass 1 and must not be regenerated here.
        let Some((&cont, alternates)) = viable.split_last() else {
            return false;
        };
        for &pos in alternates {
            let wid = g.push_event(t, EventKind::Write { loc, val, mode, rmw });
            g.insert_mo(loc, wid, pos);
            self.admit(&GraphView::full(g), &mut || g.clone(), false, ctx, visited);
            g.remove_mo(loc, pos);
            g.pop_event(t);
        }
        let wid = g.push_event(t, EventKind::Write { loc, val, mode, rmw });
        g.insert_mo(loc, wid, cont);
        if cont != last {
            ctx.checker.reapply(g);
        }
        true
    }

    /// Backward revisits of one speculative write placement (`wid` is the
    /// newest event of `g`): re-point every same-location read outside the
    /// write's porf-prefix, restricting the graph to the porf-prefixes of
    /// the write and the read. Each candidate is hashed as a [`GraphView`]
    /// — duplicate orbits are rejected before any graph is built.
    fn chain_revisits(
        &self,
        g: &ExecutionGraph,
        wid: EventId,
        loc: Loc,
        ctx: &mut ChainCtx<'_>,
        visited: &mut Probe<'_>,
    ) {
        ctx.phase.set(EnginePhase::Revisit);
        ctx.failpoint("explore.revisit");
        let prefix_w = g.porf_prefix_set([wid]);
        for (r, rloc, rf) in g.reads().collect::<Vec<_>>() {
            if rloc != loc || r == wid || prefix_w.contains(r) {
                continue;
            }
            match rf {
                RfSource::Bottom => {
                    // Resolution of a pending await read: no deletion
                    // needed, the blocked thread has no successors.
                    let view = GraphView::with_rf(g, r, wid);
                    self.admit(
                        &view,
                        &mut || {
                            let mut c = g.clone();
                            c.set_rf(r, RfSource::Write(wid));
                            c
                        },
                        true,
                        ctx,
                        visited,
                    );
                }
                RfSource::Write(old) if old != wid => {
                    // Standard revisit: keep only the porf-prefixes of
                    // the new write and of the read, re-point the read.
                    let mut keep = prefix_w.clone();
                    keep.union_with(&g.porf_prefix_set([r]));
                    let lens = keep.prefix_lens();
                    let view = GraphView::restricted(g, &lens, r, wid);
                    self.admit(
                        &view,
                        &mut || {
                            let mut c = g.restrict_set(&keep);
                            c.set_rf(r, RfSource::Write(wid));
                            c
                        },
                        true,
                        ctx,
                        visited,
                    );
                }
                RfSource::Write(_) => {}
            }
        }
    }

    /// Admit one candidate work item: hash its view, and only if its
    /// orbit was never admitted before, materialize it (normalized to the
    /// orbit representative) into `ctx.out`. This is where `constructed`
    /// diverges from the enumerate engine: duplicates cost an encoding,
    /// not a graph.
    fn admit(
        &self,
        view: &GraphView<'_>,
        materialize: &mut dyn FnMut() -> ExecutionGraph,
        revisit: bool,
        ctx: &mut ChainCtx<'_>,
        visited: &mut Probe<'_>,
    ) {
        if revisit {
            ctx.stats.revisits += 1;
        }
        if !ctx.dedup {
            ctx.stats.pushed += 1;
            ctx.stats.constructed += 1;
            ctx.out.push(materialize());
            return;
        }
        // Restore the caller's phase on the way out: admit is called from
        // both the Extend scans and the Revisit generator, and the hash
        // probe itself is what `Probe` attributes.
        let caller_phase = ctx.phase.get();
        ctx.phase.set(EnginePhase::Probe);
        ctx.failpoint("explore.dedup");
        let (h, permuted) = ctx.enc.hash_view(view);
        ctx.stats.probes += ctx.enc.take_probes();
        if !visited(h) {
            if permuted {
                ctx.stats.symmetry_pruned += 1;
            } else {
                ctx.stats.duplicates += 1;
            }
            ctx.phase.set(caller_phase);
            return;
        }
        let mut child = materialize();
        if permuted {
            // First arrival of its orbit, but not in canonical form:
            // normalize so successor generation (which extends the first
            // ready thread — not a relabeling-invariant choice) stays a
            // function of the orbit.
            let perm = ctx.enc.chosen_perm().expect("permuted hash implies a chosen relabeling");
            child = child.permute_threads(perm);
        }
        ctx.stats.pushed += 1;
        ctx.stats.constructed += 1;
        ctx.out.push(child);
        ctx.phase.set(caller_phase);
    }

    fn chain_checker(&self) -> ChainChecker {
        let incremental = (self.config.model == ModelKind::Vmm
            && self.config.checker == CheckerKind::Fast)
            .then(IncrementalVmm::new);
        ChainChecker { model: self.model, incremental }
    }

    /// The sequential revisit driver: a LIFO stack of chain roots. Each
    /// chain runs under `catch_unwind`, so a panic anywhere in the engine
    /// degrades to [`Verdict::Error`] instead of unwinding out of the
    /// library.
    pub(crate) fn run_revisit_sequential(&self) -> AmcResult {
        let phase = PhaseTracker::new(self.control.profile);
        let mut r = self.run_revisit_sequential_inner(&phase);
        r.stats.phases.merge(&phase.take_profile());
        r
    }

    /// [`Engine::run_revisit_sequential`]'s body; the wrapper owns the
    /// [`PhaseTracker`] so the accumulated profile lands in the result's
    /// stats no matter which of the return paths is taken.
    fn run_revisit_sequential_inner(&self, phase: &PhaseTracker) -> AmcResult {
        let mut stats = ExploreStats::default();
        let mut executions: Vec<ExecutionGraph> = Vec::new();
        let mut visited: SeenSet = SeenSet::default();
        let mut leaves: SeenSet = SeenSet::default();
        let budget = BudgetTracker::new(&self.config.budget);
        let initial = self.initial_graph();
        stats.constructed = 1; // the initial graph
        budget.charge(&initial);
        let mut stack = vec![initial];
        let mut children: Vec<ExecutionGraph> = Vec::new();
        let mut pacer = Pacer::new(self.control, 1, None, 0);
        let mut enc = ExploreEncoder::new(self.partition.as_ref());
        let mut checker = self.chain_checker();
        let max_graphs = self.config.max_graphs;
        while let Some(g) = stack.pop() {
            budget.release(&g);
            phase.set(EnginePhase::Driver);
            let end = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = ChainCtx {
                    stats: &mut stats,
                    out: &mut children,
                    executions: &mut executions,
                    budget: &budget,
                    phase,
                    enc: &mut enc,
                    checker: &mut checker,
                    dedup: self.config.dedup,
                };
                let mut visited_probe = |h: u128| {
                    let fresh = visited.insert(h);
                    if fresh {
                        budget.note_dedup_entry();
                    }
                    fresh
                };
                let mut leaf_probe = |h: u128| {
                    let fresh = leaves.insert(h);
                    if fresh {
                        budget.note_dedup_entry();
                    }
                    fresh
                };
                let mut tick = |stats: &mut ExploreStats, out: &mut Vec<ExecutionGraph>| {
                    // Transfer the previous step's children before the
                    // control checks, so a mid-chain stop accounts them
                    // as dropped frontier instead of losing them.
                    for c in out.iter() {
                        budget.charge(c);
                    }
                    stack.append(out);
                    if let Some(reason) = budget.exceeded() {
                        return Some(reason);
                    }
                    if let Some(r) = pacer.poll(phase, stats, || *stats) {
                        return Some(r);
                    }
                    stats.popped += 1;
                    if max_graphs != 0 && stats.popped > max_graphs {
                        return Some(StopReason::MaxGraphs);
                    }
                    if failpoint::hit("explore.pop").is_oom() {
                        budget.force(StopReason::MemoryBudget);
                    }
                    None
                };
                self.run_chain(g, &mut ctx, &mut visited_probe, &mut leaf_probe, &mut tick)
            }));
            match end {
                Ok(ChainEnd::Verdict(v)) => return AmcResult { verdict: v, stats, executions },
                Ok(ChainEnd::Stopped(r)) => {
                    let dropped = stack.len() as u64 + children.len() as u64;
                    children.clear();
                    return degraded(r, stats, stats.popped, dropped, executions);
                }
                Ok(ChainEnd::Done) => {
                    for c in &children {
                        budget.charge(c);
                    }
                    if let Some(reason) = budget.exceeded() {
                        let dropped = stack.len() as u64 + children.len() as u64;
                        return degraded(reason, stats, stats.popped, dropped, executions);
                    }
                    stack.append(&mut children);
                }
                Err(payload) => {
                    // Counters touched mid-chain stay as they are: partial
                    // stats are better than none. Half-generated children
                    // must not leak into the frontier, though.
                    children.clear();
                    let e = EngineError {
                        phase: phase.get(),
                        thread: None,
                        payload: panic_payload(payload),
                    };
                    return AmcResult { verdict: Verdict::Error(e), stats, executions };
                }
            }
        }
        AmcResult { verdict: Verdict::Verified, stats, executions }
    }

    /// The parallel revisit driver: `workers` threads over the shared
    /// injector queue. A worker's chain injects admitted children into
    /// the queue at every step ([`WorkQueue::push_children`]), so peers
    /// pick up alternates while the chain is still running; `max_graphs`
    /// counts chain *steps* through a shared atomic so the explored-work
    /// ceiling means the same thing at every worker count.
    pub(crate) fn run_revisit_parallel(&self, workers: usize) -> AmcResult {
        const SHARDS: usize = 64;
        let budget = BudgetTracker::new(&self.config.budget);
        let initial = self.initial_graph();
        budget.charge(&initial);
        let queue = WorkQueue::new(initial);
        let visited: Vec<Mutex<SeenSet>> =
            (0..SHARDS).map(|_| Mutex::new(SeenSet::default())).collect();
        let leaves: Vec<Mutex<SeenSet>> =
            (0..SHARDS).map(|_| Mutex::new(SeenSet::default())).collect();
        let shared = SharedStats::default();
        let gate = Mutex::new(Instant::now());
        let steps = AtomicU64::new(0);

        let worker = |index: usize| {
            // See run_parallel: a panic outside the catch_unwind below
            // must not leave peers asleep on the condvar.
            struct PanicGuard<'a>(&'a WorkQueue);
            impl Drop for PanicGuard<'_> {
                fn drop(&mut self) {
                    if std::thread::panicking() {
                        self.0.abort();
                    }
                }
            }
            let _guard = PanicGuard(&queue);
            let mut stats = ExploreStats::default();
            let mut executions = Vec::new();
            let mut children: Vec<ExecutionGraph> = Vec::new();
            let mut pacer = Pacer::new(self.control, workers, Some(&gate), index);
            let mut enc = ExploreEncoder::new(self.partition.as_ref());
            let mut checker = self.chain_checker();
            let mut flushed = ExploreStats::default();
            let mut since_flush = 0u64;
            let phase = PhaseTracker::new(self.control.profile);
            loop {
                // Cancellation point before popping: a token fired ahead
                // of the run interrupts every worker deterministically,
                // with zero steps processed.
                if let Some(r) = pacer.poll(&phase, &stats, || shared.snapshot()) {
                    let (_, dropped) = queue.snapshot();
                    queue.finish(Verdict::Inconclusive(Inconclusive {
                        reason: r,
                        explored: steps.load(Ordering::Relaxed),
                        frontier_dropped: dropped,
                    }));
                    break;
                }
                let Some((g, _)) = queue.pop() else {
                    break;
                };
                budget.release(&g);
                phase.set(EnginePhase::Driver);
                let end = catch_unwind(AssertUnwindSafe(|| {
                    let mut ctx = ChainCtx {
                        stats: &mut stats,
                        out: &mut children,
                        executions: &mut executions,
                        budget: &budget,
                        phase: &phase,
                        enc: &mut enc,
                        checker: &mut checker,
                        dedup: self.config.dedup,
                    };
                    let mut visited_probe = |h: u128| {
                        let fresh = relock(&visited[(h as usize) % SHARDS]).insert(h);
                        if fresh {
                            budget.note_dedup_entry();
                        }
                        fresh
                    };
                    let mut leaf_probe = |h: u128| {
                        let fresh = relock(&leaves[(h as usize) % SHARDS]).insert(h);
                        if fresh {
                            budget.note_dedup_entry();
                        }
                        fresh
                    };
                    let mut tick = |stats: &mut ExploreStats, out: &mut Vec<ExecutionGraph>| {
                        for c in out.iter() {
                            budget.charge(c);
                        }
                        queue.push_children(out);
                        if let Some(reason) = budget.exceeded() {
                            return Some(reason);
                        }
                        // Batch-flush local counters so progress
                        // snapshots trail the true totals by at most
                        // CHECK_PERIOD steps per worker.
                        since_flush += 1;
                        if since_flush >= CHECK_PERIOD {
                            since_flush = 0;
                            shared.add(&stats_delta(stats, &flushed));
                            flushed = *stats;
                        }
                        // Count the step before the cancellation point —
                        // the parallel driver's pre-pop poll already
                        // guarantees pre-fired tokens and zero deadlines
                        // stop with zero steps, and a mid-chain stop
                        // should account the step it interrupted (as the
                        // enumerate driver does for its popped item).
                        stats.popped += 1;
                        let total = steps.fetch_add(1, Ordering::Relaxed) + 1;
                        if self.config.max_graphs != 0 && total > self.config.max_graphs {
                            return Some(StopReason::MaxGraphs);
                        }
                        if let Some(r) = pacer.poll(&phase, stats, || shared.snapshot()) {
                            return Some(r);
                        }
                        if failpoint::hit("explore.pop").is_oom() {
                            budget.force(StopReason::MemoryBudget);
                        }
                        None
                    };
                    self.run_chain(g, &mut ctx, &mut visited_probe, &mut leaf_probe, &mut tick)
                }));
                match end {
                    Ok(ChainEnd::Verdict(v)) => {
                        queue.finish(v);
                        break;
                    }
                    Ok(ChainEnd::Stopped(r)) => {
                        let (_, dropped) = queue.snapshot();
                        queue.finish(Verdict::Inconclusive(Inconclusive {
                            reason: r,
                            explored: steps.load(Ordering::Relaxed),
                            frontier_dropped: dropped + children.len() as u64,
                        }));
                        children.clear();
                        break;
                    }
                    Ok(ChainEnd::Done) => {
                        for c in &children {
                            budget.charge(c);
                        }
                        if let Some(reason) = budget.exceeded() {
                            let (_, dropped) = queue.snapshot();
                            queue.finish(Verdict::Inconclusive(Inconclusive {
                                reason,
                                explored: steps.load(Ordering::Relaxed),
                                frontier_dropped: dropped + children.len() as u64,
                            }));
                            children.clear();
                            break;
                        }
                        queue.push_children(&mut children);
                        queue.finish_item();
                    }
                    Err(payload) => {
                        // The chain's half-generated children die with it;
                        // finishing the queue stops the peers.
                        children.clear();
                        queue.finish(Verdict::Error(EngineError {
                            phase: phase.get(),
                            thread: Some(index),
                            payload: panic_payload(payload),
                        }));
                        break;
                    }
                }
            }
            stats.phases.merge(&phase.take_profile());
            (stats, executions)
        };

        let results: Vec<(ExploreStats, Vec<ExecutionGraph>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|i| scope.spawn(move || worker(i))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        queue.finish(Verdict::Error(EngineError {
                            phase: EnginePhase::Driver,
                            thread: None,
                            payload: panic_payload(payload),
                        }));
                        (ExploreStats::default(), Vec::new())
                    })
                })
                .collect()
        });

        let mut stats = ExploreStats::default();
        let mut executions = Vec::new();
        for (s, mut e) in results {
            stats.merge(&s);
            executions.append(&mut e);
        }
        stats.constructed += 1; // the initial graph, built by the driver
        let verdict = queue.into_verdict();
        if let Verdict::Inconclusive(i) = &verdict {
            stats.frontier_dropped = i.frontier_dropped;
        }
        AmcResult { verdict, stats, executions }
    }
}
