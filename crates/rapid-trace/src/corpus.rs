//! The checker's reference corpus: a tiny two-processor protocol
//! fixture, a clean trace of it, a recovered trace, and a catalog of
//! hand-corrupted traces each falsifying one Theorem-1 obligation.
//!
//! The corpus started life inside `check`'s unit tests; it is public so
//! the integration suites (the whole negative corpus rejected post hoc,
//! flat-ring round-trips) exercise the *same* negative cases instead of
//! inventing weaker ones. Not intended for production use.

use crate::check::{MsgSpec, ProtocolSpec};
use crate::event::{Event, ProcTrace, ProtoState, TraceConfig, TraceSet, NO_OFFSET};
use crate::ViolationKind;
use rapid_core::graph::TaskGraph;
use rapid_core::schedule::Schedule;

/// Two processors, one volatile flowing P0 -> P1: P1 MAP-allocates
/// object 1, notifies P0, P0 writes it, P1's task reads it.
pub fn tiny() -> (TaskGraph, Schedule, ProtocolSpec) {
    use rapid_core::graph::TaskGraphBuilder;
    use rapid_core::schedule::Assignment;
    let mut b = TaskGraphBuilder::new();
    let d0 = b.add_object(2); // owned by P0, written there
    let d1 = b.add_object(3); // owned by P0, read on P1 => volatile on P1
    let t0 = b.add_task(1.0, &[], &[d0]);
    let t1 = b.add_task(1.0, &[d0], &[d1]);
    let t2 = b.add_task(1.0, &[d1], &[]);
    b.add_edge(t0, t1);
    b.add_edge(t1, t2);
    let g = match b.build() {
        Ok(g) => g,
        Err(e) => panic!("tiny graph is valid by construction: {e:?}"),
    };
    let assign = Assignment { task_proc: vec![0, 0, 1], owner: vec![0, 0], nprocs: 2 };
    let sched = Schedule { assign, order: vec![vec![t0, t1], vec![t2]] };
    let spec = ProtocolSpec {
        nprocs: 2,
        // msg 0: t1's write of d1, presented to P1.
        msgs: vec![MsgSpec { src_proc: 0, dst_proc: 1, objs: vec![1] }],
        in_msgs: vec![vec![], vec![], vec![0]],
        out_msgs: vec![vec![], vec![0], vec![]],
        capacity: 16,
        perm_units: vec![5, 0],
    };
    (g, sched, spec)
}

/// A clean trace of [`tiny`]: P1 allocates d1 and notifies P0 before P0
/// puts; every obligation holds.
pub fn clean_traces() -> TraceSet {
    let cfg = TraceConfig::default();
    let mut p0 = ProcTrace::new(0, cfg);
    p0.state(0, ProtoState::Setup);
    p0.state(1, ProtoState::Rec);
    p0.rec(2, Event::TaskBegin { task: 0, pos: 0 });
    p0.rec(3, Event::TaskEnd { task: 0 });
    p0.state(3, ProtoState::Exe); // Rec->Exe->Snd->Rec around each task
    p0.state(4, ProtoState::Snd);
    p0.state(5, ProtoState::Rec);
    p0.rec(6, Event::PkgRecv { src: 1, seq: 0, objs: vec![1] });
    p0.rec(7, Event::TaskBegin { task: 1, pos: 1 });
    p0.rec(8, Event::TaskEnd { task: 1 });
    p0.state(8, ProtoState::Exe);
    p0.state(9, ProtoState::Snd);
    p0.rec(10, Event::SendOk { msg: 0 });
    p0.state(11, ProtoState::End);
    p0.state(12, ProtoState::Done);
    let mut p1 = ProcTrace::new(1, cfg);
    p1.state(0, ProtoState::Setup);
    p1.state(1, ProtoState::Map);
    p1.rec(1, Event::MapBegin { pos: 0 });
    p1.rec(2, Event::Alloc { obj: 1, units: 3, offset: 0 });
    p1.rec(3, Event::PkgSend { dst: 0, seq: 0, objs: vec![1] });
    p1.rec(4, Event::MapEnd { pos: 0, next_map: 1, in_use: 3, arena_high: 3 });
    p1.state(5, ProtoState::Rec);
    p1.rec(6, Event::MsgRecv { msg: 0 });
    p1.rec(7, Event::TaskBegin { task: 2, pos: 0 });
    p1.rec(8, Event::TaskEnd { task: 2 });
    p1.state(8, ProtoState::Exe);
    p1.state(9, ProtoState::Snd);
    p1.state(10, ProtoState::End);
    p1.state(11, ProtoState::Done);
    TraceSet::new(vec![p0, p1])
}

/// Rebuild the clean trace with one event substituted/injected by
/// `edit(proc, ts, event) -> Option<Event>` (None drops the event).
pub fn mutate<F: Fn(u32, u64, &Event) -> Option<Event>>(edit: F) -> TraceSet {
    let base = clean_traces();
    let cfg = TraceConfig::default();
    let procs = base
        .procs
        .iter()
        .map(|t| {
            let mut nt = ProcTrace::new(t.proc, cfg);
            for (ts, ev) in t.iter() {
                if let Some(e) = edit(t.proc, *ts, ev) {
                    nt.rec(*ts, e);
                }
            }
            nt
        })
        .collect();
    TraceSet::new(procs)
}

/// P1's trace with an EXE-phase recovery spliced in: the task begins,
/// faults, the window rolls back to pos 0, and the replay re-runs
/// REC/EXE cleanly. With the rollback recorded the trace must pass.
pub fn recovered_traces() -> TraceSet {
    let base = clean_traces();
    let cfg = TraceConfig::default();
    let mut p1 = ProcTrace::new(1, cfg);
    p1.state(0, ProtoState::Setup);
    p1.state(1, ProtoState::Map);
    p1.rec(1, Event::MapBegin { pos: 0 });
    p1.rec(2, Event::Alloc { obj: 1, units: 3, offset: 0 });
    p1.rec(3, Event::PkgSend { dst: 0, seq: 0, objs: vec![1] });
    p1.rec(4, Event::MapEnd { pos: 0, next_map: 1, in_use: 3, arena_high: 3 });
    p1.state(5, ProtoState::Rec);
    p1.rec(6, Event::MsgRecv { msg: 0 });
    p1.rec(7, Event::TaskBegin { task: 2, pos: 0 });
    p1.state(7, ProtoState::Exe);
    // Task body faulted: roll the window back and re-execute it.
    p1.rec(8, Event::WindowRollback { pos: 0, attempt: 1 });
    p1.state(9, ProtoState::Rec);
    p1.rec(10, Event::MsgRecv { msg: 0 });
    p1.rec(11, Event::TaskBegin { task: 2, pos: 0 });
    p1.rec(12, Event::TaskEnd { task: 2 });
    p1.state(12, ProtoState::Exe);
    p1.state(13, ProtoState::Snd);
    p1.state(14, ProtoState::End);
    p1.state(15, ProtoState::Done);
    TraceSet::new(vec![base.procs[0].clone(), p1])
}

/// The negative corpus: every hand-corrupted trace of [`tiny`] the
/// checker's unit tests reject, with the violation kind each must
/// produce. `tests/trace_tiers.rs` runs the whole catalog through the
/// post-hoc checker.
pub fn corrupted() -> Vec<(&'static str, TraceSet, ViolationKind)> {
    let mut cases = Vec::new();
    cases.push((
        "write-before-address",
        mutate(
            |p, _, e| {
                if p == 0 && matches!(e, Event::PkgRecv { .. }) {
                    None
                } else {
                    Some(e.clone())
                }
            },
        ),
        ViolationKind::WriteBeforeAddress,
    ));
    cases.push((
        "double-free",
        mutate(|p, _, e| {
            if p == 1 && matches!(e, Event::MapEnd { .. }) {
                return Some(Event::Free { obj: 9, units: 1, offset: NO_OFFSET });
            }
            Some(e.clone())
        }),
        ViolationKind::DoubleFree,
    ));
    cases.push((
        "cap-overflow",
        mutate(|_, _, e| {
            if let Event::Alloc { obj, offset, .. } = e {
                Some(Event::Alloc { obj: *obj, units: 99, offset: *offset })
            } else {
                Some(e.clone())
            }
        }),
        ViolationKind::CapExceeded,
    ));
    cases.push((
        "mailbox-clobber",
        {
            let bad = mutate(|p, _, e| {
                if p == 1 && matches!(e, Event::MapEnd { .. }) {
                    return None; // make room: drop MapEnd, add sends below
                }
                Some(e.clone())
            });
            let mut procs = bad.procs;
            procs[1].rec(20, Event::PkgSend { dst: 0, seq: 1, objs: vec![1] });
            procs[1].rec(21, Event::PkgSend { dst: 0, seq: 2, objs: vec![1] });
            TraceSet::new(procs)
        },
        ViolationKind::MailboxClobber,
    ));
    cases.push((
        "package-content-mismatch",
        mutate(|p, _, e| {
            if p == 0 {
                if let Event::PkgRecv { src, seq, .. } = e {
                    // Receiver read different contents than were sent —
                    // the slot was overwritten mid-read.
                    return Some(Event::PkgRecv { src: *src, seq: *seq, objs: vec![1, 7] });
                }
            }
            Some(e.clone())
        }),
        ViolationKind::MailboxClobber,
    ));
    cases.push((
        "accounting-mismatch",
        mutate(|_, _, e| {
            if let Event::MapEnd { pos, next_map, arena_high, .. } = e {
                Some(Event::MapEnd {
                    pos: *pos,
                    next_map: *next_map,
                    in_use: 7, // replay computes 3
                    arena_high: *arena_high,
                })
            } else {
                Some(e.clone())
            }
        }),
        ViolationKind::AccountingMismatch,
    ));
    cases.push((
        "task-before-recv",
        mutate(
            |p, _, e| {
                if p == 1 && matches!(e, Event::MsgRecv { .. }) {
                    None
                } else {
                    Some(e.clone())
                }
            },
        ),
        ViolationKind::MissingRecv,
    ));
    cases.push((
        "out-of-order-tasks",
        mutate(|p, _, e| {
            if p == 0 {
                if let Event::TaskBegin { task, pos } = e {
                    // Swap the ids of t0 and t1.
                    return Some(Event::TaskBegin { task: 1 - *task, pos: *pos });
                }
            }
            Some(e.clone())
        }),
        ViolationKind::OrderViolation,
    ));
    cases.push((
        "illegal-transition",
        mutate(|p, _, e| {
            if p == 0 && matches!(e, Event::State(ProtoState::Exe)) {
                return Some(Event::State(ProtoState::Map)); // Rec -> Map
            }
            Some(e.clone())
        }),
        ViolationKind::IllegalTransition,
    ));
    cases.push((
        "overlapping-buffers",
        mutate(|p, _, e| {
            if p == 1 && matches!(e, Event::MapEnd { .. }) {
                return Some(Event::Alloc { obj: 5, units: 2, offset: 1 });
            }
            Some(e.clone())
        }),
        ViolationKind::OverlappingAlloc,
    ));
    cases.push((
        "phantom-message",
        mutate(
            |p, _, e| {
                if p == 0 && matches!(e, Event::SendOk { .. }) {
                    None
                } else {
                    Some(e.clone())
                }
            },
        ),
        ViolationKind::PhantomMessage,
    ));
    cases.push((
        "duplicate-send",
        {
            // A re-executed SND state sends again what it already sent.
            let base = clean_traces();
            let mut p0 = ProcTrace::new(0, TraceConfig::default());
            for (ts, ev) in base.procs[0].iter() {
                p0.rec(*ts, ev.clone());
                if matches!(ev, Event::SendOk { .. }) {
                    p0.rec(*ts, ev.clone());
                }
            }
            TraceSet::new(vec![p0, base.procs[1].clone()])
        },
        ViolationKind::DuplicateSend,
    ));
    cases.push((
        "reexecution-without-rollback",
        {
            let base = recovered_traces();
            let cfg = TraceConfig::default();
            let mut p1 = ProcTrace::new(1, cfg);
            for (ts, ev) in base.procs[1].iter() {
                if !matches!(ev, Event::WindowRollback { .. }) {
                    p1.rec(*ts, ev.clone());
                }
            }
            TraceSet::new(vec![base.procs[0].clone(), p1])
        },
        ViolationKind::IllegalTransition,
    ));
    cases.push((
        "schedule-overrun",
        {
            let base = recovered_traces();
            let cfg = TraceConfig::default();
            let mut tasks_only = ProcTrace::new(1, cfg);
            for (ts, ev) in base.procs[1].iter() {
                if !matches!(ev, Event::WindowRollback { .. } | Event::State(_)) {
                    tasks_only.rec(*ts, ev.clone());
                }
            }
            TraceSet::new(vec![base.procs[0].clone(), tasks_only])
        },
        ViolationKind::OrderViolation,
    ));
    cases
}
