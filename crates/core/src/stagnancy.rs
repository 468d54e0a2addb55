//! Await-termination (stagnancy) analysis.
//!
//! When exploration reaches a graph with no runnable threads but with
//! blocked await reads (`⊥` reads-from edges), AMC must decide whether the
//! missing edges "could not be resolved except through a wasteful
//! execution" (paper §1.3). If so, the graph is *stagnant* and witnesses an
//! await-termination violation (paper Lemmas 12/13: stagnant graphs extend
//! to the infinite executions of `G∞`, and vice versa).

use vsync_graph::{EventId, EventKind, ExecutionGraph, RfSource};
use vsync_lang::BlockedAwait;
use vsync_model::MemoryModel;

/// Is this no-runnable-threads graph stagnant?
///
/// Every blocked read must be *stuck*: for every available write `w` to its
/// location, resolving the read with `w` is either inconsistent with the
/// memory model or a wasteful repeat of the previous iteration. If some
/// blocked read could still make progress, the graph is an exploration
/// artifact — the progressing continuation lives in a sibling branch — and
/// must not be reported.
pub fn is_stagnant(
    g: &ExecutionGraph,
    blocked: &[&BlockedAwait],
    model: &dyn MemoryModel,
) -> bool {
    is_stagnant_with(&mut g.clone(), blocked, &mut |g2, _| model.is_consistent(g2))
}

/// Can no available write unblock this read with a non-wasteful,
/// model-consistent iteration?
pub fn is_stuck(g: &ExecutionGraph, b: &BlockedAwait, model: &dyn MemoryModel) -> bool {
    is_stuck_with(&mut g.clone(), b, &mut |g2, _| model.is_consistent(g2))
}

/// Decides whether a resolution is consistent: called with the graph in
/// which the blocked read (the second argument) reads its candidate
/// write, followed by the RMW write part when the await would exit and
/// write.
pub(crate) type ResolutionCheck<'a> = dyn FnMut(&ExecutionGraph, EventId) -> bool + 'a;

/// [`is_stagnant`] resolving each blocked read in place on `g` (restored
/// before returning), with `consistent` deciding each resolution.
pub(crate) fn is_stagnant_with(
    g: &mut ExecutionGraph,
    blocked: &[&BlockedAwait],
    consistent: &mut ResolutionCheck<'_>,
) -> bool {
    !blocked.is_empty() && blocked.iter().all(|b| is_stuck_with(g, b, consistent))
}

fn is_stuck_with(
    g: &mut ExecutionGraph,
    b: &BlockedAwait,
    consistent: &mut ResolutionCheck<'_>,
) -> bool {
    let mut candidates: Vec<EventId> = vec![EventId::Init(b.loc)];
    candidates.extend(g.mo(b.loc).iter().copied());
    for w in candidates {
        let v = g.write_value(w);
        if !resolution_consistent(g, b, w, consistent) {
            continue; // this write can never be observed here
        }
        if b.desc.exits(v) {
            return false; // the await could exit: thread can progress
        }
        if b.prev_rf != Some(RfSource::Write(w)) {
            // A fresh (non-wasteful) iteration is possible; its
            // continuation is explored in a sibling branch.
            return false;
        }
        // Reading w again would repeat the previous iteration: wasteful,
        // does not constitute progress (paper Def. 2).
    }
    true
}

/// Would `rf(b.read) = w` (plus the RMW write part, if the await would exit
/// and write) yield a model-consistent graph? Applies the resolution to
/// `g`, asks `consistent`, and undoes it.
fn resolution_consistent(
    g: &mut ExecutionGraph,
    b: &BlockedAwait,
    w: EventId,
    consistent: &mut ResolutionCheck<'_>,
) -> bool {
    let EventKind::Read { rf, rmw, awaiting, .. } = g.event(b.read).kind else {
        unreachable!("blocked await {} is a read", b.read)
    };
    let writes = b.desc.write_on(g.write_value(w));
    g.set_rf(b.read, RfSource::Write(w));
    g.set_read_flags(b.read, writes.is_some(), true);
    let ok = match writes {
        None => consistent(g, b.read),
        // Atomicity pre-check: at most one RMW may read from w.
        Some(_) if g.rmw_reader_of(w) != Some(b.read) => false,
        Some(new_val) => {
            let thread = b.read.thread().expect("blocked read is a regular event");
            let wid = g.push_event(
                thread,
                EventKind::Write { loc: b.loc, val: new_val, mode: b.mode, rmw: true },
            );
            // Place the write part immediately after w in mo (atomicity).
            let ins = match w {
                EventId::Init(_) => 0,
                _ => g.mo(b.loc).iter().position(|x| *x == w).expect("w is in mo") + 1,
            };
            g.insert_mo(b.loc, wid, ins);
            let ok = consistent(g, b.read);
            g.remove_mo(b.loc, ins);
            g.pop_event(thread);
            ok
        }
    };
    g.set_rf(b.read, rf);
    g.set_read_flags(b.read, rmw, awaiting);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vsync_graph::Mode;
    use vsync_lang::{Cmp, ReadDesc, ResolvedTest};
    use vsync_model::Vmm;

    const X: u64 = 0x10;

    fn await_eq(rhs: u64) -> ReadDesc {
        ReadDesc::AwaitLoad { exit: ResolvedTest { mask: u64::MAX, cmp: Cmp::Eq, rhs } }
    }

    fn pending_read(g: &mut ExecutionGraph, t: u32) -> EventId {
        g.push_event(
            t,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Bottom, rmw: false, awaiting: true },
        )
    }

    #[test]
    fn single_thread_awaiting_never_written_value_is_stuck() {
        // x stays 0; await x == 1. First iteration read init(0), second is ⊥.
        let mut g = ExecutionGraph::new(1, BTreeMap::new());
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(X)), rmw: false, awaiting: true },
        );
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(1),
            prev_rf: Some(RfSource::Write(EventId::Init(X))),
        };
        assert!(is_stuck(&g, &b, &Vmm));
        assert!(is_stagnant(&g, &[&b], &Vmm));
    }

    #[test]
    fn resolvable_await_is_not_stuck() {
        // Another thread wrote 1: the await could exit.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(1, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w, 0);
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait { read: r, loc: X, mode: Mode::Rlx, desc: await_eq(1), prev_rf: None };
        assert!(!is_stuck(&g, &b, &Vmm));
    }

    #[test]
    fn fresh_failed_iteration_counts_as_progress() {
        // Await x == 2; available: init(0) [read last time] and w(1) [fresh].
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w = g.push_event(1, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w, 0);
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(X)), rmw: false, awaiting: true },
        );
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(2),
            prev_rf: Some(RfSource::Write(EventId::Init(X))),
        };
        // Reading w(1) loops but is non-wasteful: not stuck.
        assert!(!is_stuck(&g, &b, &Vmm));
    }

    #[test]
    fn coherence_forbidden_sources_do_not_help() {
        // Thread read w2 (mo-later) previously; init and w1 are forbidden by
        // coherence; re-reading w2 is wasteful. Stuck.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        let w1 = g.push_event(1, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w1, 0);
        let w2 = g.push_event(1, EventKind::Write { loc: X, val: 3, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w2, 1);
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(w2), rmw: false, awaiting: true },
        );
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(5),
            prev_rf: Some(RfSource::Write(w2)),
        };
        assert!(is_stuck(&g, &b, &Vmm));
    }

    #[test]
    fn await_rmw_blocked_on_taken_rmw_source() {
        // await_cas(x: 0 -> 1) but another RMW already consumed init(0):
        // resolving to init violates atomicity; no other write has value 0.
        let mut g = ExecutionGraph::new(2, BTreeMap::new());
        g.push_event(
            1,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(EventId::Init(X)), rmw: true, awaiting: false },
        );
        let w = g.push_event(1, EventKind::Write { loc: X, val: 7, mode: Mode::Rlx, rmw: true });
        g.insert_mo(X, w, 0);
        let r = pending_read(&mut g, 0);
        let b = BlockedAwait {
            read: r,
            loc: X,
            mode: Mode::Rlx,
            desc: ReadDesc::AwaitCas { expected: 0, new: 1 },
            prev_rf: Some(RfSource::Write(w)),
        };
        assert!(is_stuck(&g, &b, &Vmm));
    }

    #[test]
    fn stagnant_requires_all_blocked_stuck() {
        let mut g = ExecutionGraph::new(3, BTreeMap::new());
        let w = g.push_event(2, EventKind::Write { loc: X, val: 1, mode: Mode::Rlx, rmw: false });
        g.insert_mo(X, w, 0);
        // Thread 0: stuck await (waits for 9, only 0/1 available, read both).
        g.push_event(
            0,
            EventKind::Read { loc: X, mode: Mode::Rlx, rf: RfSource::Write(w), rmw: false, awaiting: true },
        );
        let r0 = pending_read(&mut g, 0);
        let b0 = BlockedAwait {
            read: r0,
            loc: X,
            mode: Mode::Rlx,
            desc: await_eq(9),
            prev_rf: Some(RfSource::Write(w)),
        };
        // Thread 1: resolvable await (waits for 1, w available).
        let r1 = pending_read(&mut g, 1);
        let b1 = BlockedAwait { read: r1, loc: X, mode: Mode::Rlx, desc: await_eq(1), prev_rf: None };
        assert!(is_stuck(&g, &b0, &Vmm));
        assert!(!is_stuck(&g, &b1, &Vmm));
        assert!(!is_stagnant(&g, &[&b0, &b1], &Vmm));
        assert!(is_stagnant(&g, &[&b0], &Vmm));
        assert!(!is_stagnant(&g, &[], &Vmm));
    }
}
