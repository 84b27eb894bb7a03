//! The replayable trace invariant checker: Theorem 1, machine-checked.
//!
//! The paper proves the REC/EXE/SND/MAP/END protocol with RA/CQ servicing
//! is deadlock-free and data-consistent, and that execution under active
//! memory management never exceeds the per-processor cap. A recorded
//! [`TraceSet`] lets us *check* the obligations that proof rests on,
//! rather than trusting end-state equality:
//!
//! 1. **No remote write before the matching address package** (the
//!    paper's Fact I): a [`Event::SendOk`] may only name destination
//!    objects that are permanent on the destination or whose address
//!    arrived in an earlier [`Event::PkgRecv`] from that destination,
//!    and each message is sent exactly once: a re-executed window must
//!    not publish a put twice.
//! 2. **Single-slot mailboxes are never clobbered**: per (src, dst)
//!    pair, package sequence numbers on both sides count 0, 1, 2, …;
//!    matching sequence numbers carry identical object lists; and at
//!    most one package is ever in flight.
//! 3. **Volatile lifetime discipline**: every volatile is allocated at
//!    most once, freed at most once, freed only after its static last
//!    use, and never re-allocated; live buffers (when the executor
//!    records real offsets) never overlap.
//! 4. **Memory cap and accounting**: replayed live units never exceed
//!    the capacity, and every [`Event::MapEnd`]'s reported `in_use`
//!    equals the checker's independent replay — the same counting
//!    `memreq::min_mem` builds its per-MAP profile from.
//! 5. **Protocol-state legality and schedule conformance**: state
//!    transitions follow the five-state machine, tasks execute exactly
//!    in the processor's scheduled order, and a task begins only after
//!    the REC state observed all of its incoming messages.
//!
//! Recovered runs replay under the same rules: a
//! [`Event::WindowRollback`] rewinds the replay cursor to the window's
//! first position (its rolled-back allocations having been retired via
//! [`Event::AllocRollback`]), after which the re-executed window must
//! discharge every obligation again — re-running tasks out of schedule
//! order, or without a recorded rollback, is still a violation.
//!
//! Ordering is per-processor program order plus the pairwise sequence
//! matching of (2) — exactly what a distributed trace can promise
//! without a global clock.

use crate::event::{Event, ProcTrace, ProtoState, TraceSet, TraceTier, NO_OFFSET};
use rapid_core::graph::{ObjId, TaskGraph};
use rapid_core::liveness::Liveness;
use rapid_core::schedule::Schedule;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// One message of the protocol plan, in plain data form (so the checker
/// does not depend on the runtime crate; the runtime provides a
/// converter from its plan).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgSpec {
    /// Processor of the producing task.
    pub src_proc: u32,
    /// Destination processor.
    pub dst_proc: u32,
    /// Objects the message carries (empty for pure synchronization).
    pub objs: Vec<u32>,
}

/// Everything the checker needs to know about the protocol plan a trace
/// was recorded under.
#[derive(Clone, Debug)]
pub struct ProtocolSpec {
    /// Number of processors.
    pub nprocs: usize,
    /// All run-time messages, by message id.
    pub msgs: Vec<MsgSpec>,
    /// `in_msgs[t]`: message ids task `t` must receive before running.
    pub in_msgs: Vec<Vec<u32>>,
    /// `out_msgs[t]`: message ids task `t` emits after running.
    pub out_msgs: Vec<Vec<u32>>,
    /// Per-processor memory capacity in allocation units.
    pub capacity: u64,
    /// Per-processor permanent footprint in allocation units.
    pub perm_units: Vec<u64>,
}

/// A typed invariant violation. Each variant names the Theorem-1
/// obligation it falsifies; the checker returns the first violation it
/// finds (traces replay deterministically, so one is enough to bisect).
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The trace ring wrapped; a replay with missing prefix events can
    /// prove nothing.
    Incomplete {
        /// Processor whose ring dropped events.
        proc: u32,
        /// Events lost.
        dropped: u64,
    },
    /// A message's RMA puts ran before the destination address of one of
    /// its objects was received (Fact I of the Theorem 1 proof).
    WriteBeforeAddress {
        /// Sending processor.
        proc: u32,
        /// Message id.
        msg: u32,
        /// Object whose destination address was never received.
        obj: u32,
    },
    /// The single-slot mailbox discipline was broken on a (src, dst)
    /// pair: out-of-order sequence numbers, mismatched package contents,
    /// or more than one package in flight.
    MailboxClobber {
        /// Sending processor.
        src: u32,
        /// Receiving processor.
        dst: u32,
        /// Sequence number at which the discipline broke.
        seq: u32,
        /// What exactly went wrong.
        detail: String,
    },
    /// A volatile was allocated while already live.
    DoubleAlloc {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
    },
    /// A volatile was freed while not live (double free, or free of a
    /// never-allocated object).
    DoubleFree {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
    },
    /// A volatile was freed at a MAP at or before its static last use.
    FreeBeforeLastUse {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
        /// Position of the MAP that freed it.
        map_pos: u32,
        /// Static last-use position from the liveness analysis.
        last_use: u32,
    },
    /// Replayed live units exceeded the per-processor capacity.
    CapExceeded {
        /// Processor.
        proc: u32,
        /// Live units after the offending allocation.
        in_use: u64,
        /// The capacity.
        capacity: u64,
    },
    /// Two live buffers overlapped in the arena (executors recording
    /// real offsets only).
    OverlappingAlloc {
        /// Processor.
        proc: u32,
        /// Newly allocated object.
        obj: u32,
        /// Already-live object it overlaps.
        other: u32,
    },
    /// A `MapEnd`'s reported `in_use` disagreed with the checker's
    /// independent replay of the alloc/free events.
    AccountingMismatch {
        /// Processor.
        proc: u32,
        /// Position of the MAP.
        map_pos: u32,
        /// What the executor reported.
        reported: u64,
        /// What the replay computed.
        replayed: u64,
    },
    /// Tasks did not execute in the processor's scheduled order.
    OrderViolation {
        /// Processor.
        proc: u32,
        /// Task the trace executed.
        got: u32,
        /// Task the schedule expected at that point (`u32::MAX` when the
        /// trace ran more tasks than the schedule has).
        expected: u32,
    },
    /// A task began before the REC state observed one of its incoming
    /// messages.
    MissingRecv {
        /// Processor.
        proc: u32,
        /// Task that began early.
        task: u32,
        /// Message id that had not been observed.
        msg: u32,
    },
    /// A message was observed by its receiver but never sent by its
    /// source (or received/sent by the wrong processor).
    PhantomMessage {
        /// Message id.
        msg: u32,
        /// What exactly went wrong.
        detail: String,
    },
    /// A message was sent twice: a put published more than once (a
    /// recovered window re-ran a send that had already completed).
    DuplicateSend {
        /// Sending processor.
        proc: u32,
        /// Message id.
        msg: u32,
    },
    /// A protocol-state transition outside the five-state machine.
    IllegalTransition {
        /// Processor.
        proc: u32,
        /// State before.
        from: ProtoState,
        /// State after.
        to: ProtoState,
    },
}

/// The discriminant of a [`Violation`], independent of its payload.
///
/// `rapid-verify` findings each name the `ViolationKind` they mirror, so
/// the static and dynamic layers are differentially checkable: a plan the
/// static verifier rejects with a finding of kind `K` is exactly a plan
/// whose (forced) execution would record a violation of kind `K` — or
/// stall before it could (the deadlock finding, whose dynamic counterpart
/// is `ExecError::Stalled`, maps to [`ViolationKind::MissingRecv`], the
/// obligation a deadlocked receive can never discharge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// [`Violation::Incomplete`].
    Incomplete,
    /// [`Violation::WriteBeforeAddress`].
    WriteBeforeAddress,
    /// [`Violation::MailboxClobber`].
    MailboxClobber,
    /// [`Violation::DoubleAlloc`].
    DoubleAlloc,
    /// [`Violation::DoubleFree`].
    DoubleFree,
    /// [`Violation::FreeBeforeLastUse`].
    FreeBeforeLastUse,
    /// [`Violation::CapExceeded`].
    CapExceeded,
    /// [`Violation::OverlappingAlloc`].
    OverlappingAlloc,
    /// [`Violation::AccountingMismatch`].
    AccountingMismatch,
    /// [`Violation::OrderViolation`].
    OrderViolation,
    /// [`Violation::MissingRecv`].
    MissingRecv,
    /// [`Violation::PhantomMessage`].
    PhantomMessage,
    /// [`Violation::DuplicateSend`].
    DuplicateSend,
    /// [`Violation::IllegalTransition`].
    IllegalTransition,
}

impl Violation {
    /// The payload-free discriminant of this violation.
    pub fn kind(&self) -> ViolationKind {
        match self {
            Violation::Incomplete { .. } => ViolationKind::Incomplete,
            Violation::WriteBeforeAddress { .. } => ViolationKind::WriteBeforeAddress,
            Violation::MailboxClobber { .. } => ViolationKind::MailboxClobber,
            Violation::DoubleAlloc { .. } => ViolationKind::DoubleAlloc,
            Violation::DoubleFree { .. } => ViolationKind::DoubleFree,
            Violation::FreeBeforeLastUse { .. } => ViolationKind::FreeBeforeLastUse,
            Violation::CapExceeded { .. } => ViolationKind::CapExceeded,
            Violation::OverlappingAlloc { .. } => ViolationKind::OverlappingAlloc,
            Violation::AccountingMismatch { .. } => ViolationKind::AccountingMismatch,
            Violation::OrderViolation { .. } => ViolationKind::OrderViolation,
            Violation::MissingRecv { .. } => ViolationKind::MissingRecv,
            Violation::PhantomMessage { .. } => ViolationKind::PhantomMessage,
            Violation::DuplicateSend { .. } => ViolationKind::DuplicateSend,
            Violation::IllegalTransition { .. } => ViolationKind::IllegalTransition,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Incomplete { proc, dropped } => {
                write!(f, "P{proc}: trace ring dropped {dropped} events; replay impossible")
            }
            Violation::WriteBeforeAddress { proc, msg, obj } => write!(
                f,
                "P{proc}: msg {msg} put object {obj} before its destination address was received"
            ),
            Violation::MailboxClobber { src, dst, seq, detail } => {
                write!(f, "mailbox P{src}->P{dst} clobbered at seq {seq}: {detail}")
            }
            Violation::DoubleAlloc { proc, obj } => {
                write!(f, "P{proc}: object {obj} allocated while already live")
            }
            Violation::DoubleFree { proc, obj } => {
                write!(f, "P{proc}: object {obj} freed while not live")
            }
            Violation::FreeBeforeLastUse { proc, obj, map_pos, last_use } => write!(
                f,
                "P{proc}: object {obj} freed at MAP pos {map_pos} but its last use is position {last_use}"
            ),
            Violation::CapExceeded { proc, in_use, capacity } => {
                write!(f, "P{proc}: {in_use} live units exceed capacity {capacity}")
            }
            Violation::OverlappingAlloc { proc, obj, other } => {
                write!(f, "P{proc}: buffer of object {obj} overlaps live object {other}")
            }
            Violation::AccountingMismatch { proc, map_pos, reported, replayed } => write!(
                f,
                "P{proc}: MAP at pos {map_pos} reported {reported} units in use, replay says {replayed}"
            ),
            Violation::OrderViolation { proc, got, expected } => {
                write!(f, "P{proc}: executed task {got}, schedule expected {expected}")
            }
            Violation::MissingRecv { proc, task, msg } => {
                write!(f, "P{proc}: task {task} began before receiving msg {msg}")
            }
            Violation::PhantomMessage { msg, detail } => {
                write!(f, "msg {msg}: {detail}")
            }
            Violation::DuplicateSend { proc, msg } => {
                write!(f, "P{proc}: msg {msg} sent twice")
            }
            Violation::IllegalTransition { proc, from, to } => {
                write!(f, "P{proc}: illegal state transition {from:?} -> {to:?}")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// What a clean replay established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReport {
    /// Tasks executed per processor.
    pub tasks_run: Vec<usize>,
    /// Replayed peak live units per processor.
    pub peak_mem: Vec<u64>,
    /// MAPs replayed per processor.
    pub maps: Vec<u32>,
    /// Every processor ran its full scheduled order.
    pub complete: bool,
}

/// Replay `traces` against the schedule and protocol spec, asserting the
/// Theorem-1 obligations. Returns the first violation found, or a
/// [`TraceReport`] summarizing the clean replay.
///
/// The trace is assumed Full-tier; for traces recorded at a reduced tier use
/// [`check_tier`], which relaxes exactly the obligations the tier cannot
/// witness.
pub fn check(
    g: &TaskGraph,
    sched: &Schedule,
    spec: &ProtocolSpec,
    traces: &TraceSet,
) -> Result<TraceReport, Violation> {
    check_tier(g, sched, spec, traces, TraceTier::Full)
}

/// [`check`] for a trace recorded at an explicit sampling tier. At
/// [`TraceTier::Skeleton`] the receive-side package drains are
/// legitimately absent, so the write-before-address obligation and the
/// at-most-one-in-flight mailbox bound are skipped; every other
/// obligation is asserted unchanged.
pub fn check_tier(
    g: &TaskGraph,
    sched: &Schedule,
    spec: &ProtocolSpec,
    traces: &TraceSet,
    tier: TraceTier,
) -> Result<TraceReport, Violation> {
    let mut replay = Replay::new(g, sched, spec.clone(), tier);
    for trace in &traces.procs {
        if trace.dropped() > 0 {
            replay.note_dropped(trace.proc, trace.dropped());
        } else {
            for (_, ev) in trace.iter() {
                replay.feed(trace.proc, ev);
            }
        }
    }
    replay.finish()
}

/// One processor's incremental replay state (the per-processor locals of
/// the post-hoc checker, lifted into a struct).
struct ProcReplay {
    state: Option<ProtoState>,
    in_use: u64,
    peak: u64,
    live: HashSet<u32>,
    ever_freed: HashSet<u32>,
    /// offset -> (len, obj) for live buffers with real offsets.
    placed: BTreeMap<u64, (u64, u32)>,
    /// (src proc, obj) addresses received.
    known: HashSet<(u32, u32)>,
    /// Message ids observed in REC.
    recvd: HashSet<u32>,
    cur_map_pos: Option<u32>,
    next_task: usize,
    maps: u32,
}

/// The incremental Theorem-1 replay behind [`check_tier`]. Feed events
/// per processor in program order (any interleaving across processors),
/// then `finish` for the cross-processor obligations and the report.
///
/// The replay latches the *first* violation and ignores further input.
/// Cross-processor tables use ordered maps so the finish-time verdict is
/// deterministic even when several pairs are in violation.
struct Replay<'a> {
    sched: &'a Schedule,
    spec: ProtocolSpec,
    tier: TraceTier,
    lv: Liveness,
    procs: Vec<ProcReplay>,
    pkg_sends: BTreeMap<(u32, u32), Vec<Vec<u32>>>,
    pkg_recvs: BTreeMap<(u32, u32), Vec<Vec<u32>>>,
    msgs_sent: BTreeSet<u32>,
    msgs_recvd: BTreeSet<u32>,
    error: Option<Violation>,
}

impl<'a> Replay<'a> {
    fn new(g: &TaskGraph, sched: &'a Schedule, spec: ProtocolSpec, tier: TraceTier) -> Self {
        let lv = Liveness::analyze(g, sched);
        let procs = (0..spec.nprocs)
            .map(|p| ProcReplay {
                state: None,
                in_use: spec.perm_units[p],
                peak: spec.perm_units[p],
                live: HashSet::new(),
                ever_freed: HashSet::new(),
                placed: BTreeMap::new(),
                known: HashSet::new(),
                recvd: HashSet::new(),
                cur_map_pos: None,
                next_task: 0,
                maps: 0,
            })
            .collect();
        Replay {
            sched,
            spec,
            tier,
            lv,
            procs,
            pkg_sends: BTreeMap::new(),
            pkg_recvs: BTreeMap::new(),
            msgs_sent: BTreeSet::new(),
            msgs_recvd: BTreeSet::new(),
            error: None,
        }
    }

    /// Processor `proc`'s ring dropped `n` records: a replay with a
    /// missing prefix proves nothing, so this latches `Incomplete`.
    fn note_dropped(&mut self, proc: u32, n: u64) {
        if n > 0 && self.error.is_none() {
            self.error = Some(Violation::Incomplete { proc, dropped: n });
        }
    }

    /// Feed one event of processor `proc`'s trace, in program order.
    fn feed(&mut self, proc: u32, ev: &Event) {
        if self.error.is_some() {
            return;
        }
        if let Err(v) = self.apply(proc, ev) {
            self.error = Some(v);
        }
    }

    fn apply(&mut self, p: u32, ev: &Event) -> Result<(), Violation> {
        let pr = &mut self.procs[p as usize];
        let pl = &self.lv.procs[p as usize];
        let order = &self.sched.order[p as usize];
        match ev {
            Event::State(s) => {
                if let Some(prev) = pr.state {
                    if !prev.may_precede(*s) {
                        return Err(Violation::IllegalTransition { proc: p, from: prev, to: *s });
                    }
                }
                pr.state = Some(*s);
            }
            Event::MapBegin { pos } => {
                pr.cur_map_pos = Some(*pos);
                pr.maps += 1;
            }
            Event::Free { obj, units, offset } => {
                if !pr.live.remove(obj) {
                    return Err(Violation::DoubleFree { proc: p, obj: *obj });
                }
                if let Ok(k) = pl.volatile.binary_search(&ObjId(*obj)) {
                    let (_, last) = pl.volatile_span[k];
                    let map_pos = pr.cur_map_pos.unwrap_or(0);
                    if map_pos <= last {
                        return Err(Violation::FreeBeforeLastUse {
                            proc: p,
                            obj: *obj,
                            map_pos,
                            last_use: last,
                        });
                    }
                }
                pr.ever_freed.insert(*obj);
                pr.in_use = pr.in_use.saturating_sub(*units);
                if *offset != NO_OFFSET {
                    pr.placed.remove(offset);
                }
            }
            Event::Alloc { obj, units, offset } => {
                if pr.live.contains(obj) || pr.ever_freed.contains(obj) {
                    return Err(Violation::DoubleAlloc { proc: p, obj: *obj });
                }
                pr.live.insert(*obj);
                pr.in_use += units;
                pr.peak = pr.peak.max(pr.in_use);
                if pr.in_use > self.spec.capacity {
                    return Err(Violation::CapExceeded {
                        proc: p,
                        in_use: pr.in_use,
                        capacity: self.spec.capacity,
                    });
                }
                if *offset != NO_OFFSET {
                    // Overlap iff a live range starts inside ours or the
                    // predecessor range reaches into us.
                    let end = offset + units;
                    if let Some((_, &(_, other))) = pr.placed.range(*offset..end).next() {
                        return Err(Violation::OverlappingAlloc { proc: p, obj: *obj, other });
                    }
                    if let Some((&o, &(len, other))) = pr.placed.range(..*offset).next_back() {
                        if o + len > *offset {
                            return Err(Violation::OverlappingAlloc { proc: p, obj: *obj, other });
                        }
                    }
                    pr.placed.insert(*offset, (*units, *obj));
                }
            }
            Event::AllocRollback { obj, units } => {
                if !pr.live.remove(obj) {
                    return Err(Violation::DoubleFree { proc: p, obj: *obj });
                }
                pr.in_use = pr.in_use.saturating_sub(*units);
                pr.placed.retain(|_, &mut (_, o)| o != *obj);
            }
            Event::MapEnd { pos, in_use: reported, .. } => {
                if *reported != pr.in_use {
                    return Err(Violation::AccountingMismatch {
                        proc: p,
                        map_pos: *pos,
                        reported: *reported,
                        replayed: pr.in_use,
                    });
                }
                pr.cur_map_pos = None;
            }
            Event::PkgSend { dst, seq, objs } => {
                let sends = self.pkg_sends.entry((p, *dst)).or_default();
                if *seq as usize != sends.len() {
                    return Err(Violation::MailboxClobber {
                        src: p,
                        dst: *dst,
                        seq: *seq,
                        detail: format!("send seq {seq} but {} sends recorded", sends.len()),
                    });
                }
                sends.push(objs.clone());
            }
            Event::PkgRecv { src, seq, objs } => {
                let recvs = self.pkg_recvs.entry((*src, p)).or_default();
                if *seq as usize != recvs.len() {
                    return Err(Violation::MailboxClobber {
                        src: *src,
                        dst: p,
                        seq: *seq,
                        detail: format!("recv seq {seq} but {} recvs recorded", recvs.len()),
                    });
                }
                recvs.push(objs.clone());
                for obj in objs {
                    pr.known.insert((*src, *obj));
                }
            }
            Event::SendOk { msg } => {
                let m =
                    self.spec.msgs.get(*msg as usize).ok_or_else(|| Violation::PhantomMessage {
                        msg: *msg,
                        detail: "message id outside the protocol plan".into(),
                    })?;
                if m.src_proc != p {
                    return Err(Violation::PhantomMessage {
                        msg: *msg,
                        detail: format!("sent by P{p} but planned from P{}", m.src_proc),
                    });
                }
                // Fact I needs the receive-side package drains, which a
                // Skeleton trace legitimately lacks.
                if self.tier >= TraceTier::Full {
                    for &obj in &m.objs {
                        let permanent = self.sched.assign.owner_of(ObjId(obj)) == m.dst_proc;
                        if !permanent && !pr.known.contains(&(m.dst_proc, obj)) {
                            return Err(Violation::WriteBeforeAddress { proc: p, msg: *msg, obj });
                        }
                    }
                }
                if !self.msgs_sent.insert(*msg) {
                    return Err(Violation::DuplicateSend { proc: p, msg: *msg });
                }
            }
            Event::SendSuspend { .. } | Event::CqRetry { .. } => {}
            Event::MsgRecv { msg } => {
                match self.spec.msgs.get(*msg as usize) {
                    Some(m) if m.dst_proc == p => {}
                    Some(m) => {
                        return Err(Violation::PhantomMessage {
                            msg: *msg,
                            detail: format!("observed on P{p} but destined for P{}", m.dst_proc),
                        })
                    }
                    None => {
                        return Err(Violation::PhantomMessage {
                            msg: *msg,
                            detail: "message id outside the protocol plan".into(),
                        })
                    }
                }
                pr.recvd.insert(*msg);
                self.msgs_recvd.insert(*msg);
            }
            Event::TaskBegin { task, .. } => {
                match order.get(pr.next_task) {
                    Some(t) if t.0 == *task => {}
                    other => {
                        return Err(Violation::OrderViolation {
                            proc: p,
                            got: *task,
                            expected: other.map_or(u32::MAX, |t| t.0),
                        })
                    }
                }
                for &mid in &self.spec.in_msgs[*task as usize] {
                    if !pr.recvd.contains(&mid) {
                        return Err(Violation::MissingRecv { proc: p, task: *task, msg: mid });
                    }
                }
                pr.next_task += 1;
            }
            Event::WindowRollback { pos, .. } => {
                // Recovery rewind: the window starting at `pos` was
                // abandoned and will re-execute. Rewind the schedule
                // cursor and forget the protocol state (the worker
                // legally re-enters REC or stays in MAP); received
                // messages stay received — arrival flags survive a
                // rollback by design.
                pr.next_task = (*pos as usize).min(pr.next_task);
                pr.state = None;
            }
            Event::TaskEnd { .. } | Event::MailboxBusy { .. } | Event::Fault { .. } => {}
        }
        Ok(())
    }

    /// Run the cross-processor obligations and produce the report.
    fn finish(self) -> Result<TraceReport, Violation> {
        if let Some(v) = self.error {
            return Err(v);
        }
        // Pairwise mailbox discipline: contents match per sequence
        // number, and at most one package is ever in flight. At Skeleton
        // tier the receive side is unrecorded, so only the content check
        // (vacuously) and the send-side sequencing already done apply.
        for (&(src, dst), sends) in &self.pkg_sends {
            let empty = Vec::new();
            let recvs = self.pkg_recvs.get(&(src, dst)).unwrap_or(&empty);
            for (k, (s, r)) in sends.iter().zip(recvs.iter()).enumerate() {
                if s != r {
                    return Err(Violation::MailboxClobber {
                        src,
                        dst,
                        seq: k as u32,
                        detail: format!("package contents diverge: sent {s:?}, received {r:?}"),
                    });
                }
            }
            if self.tier >= TraceTier::Full && sends.len() > recvs.len() + 1 {
                return Err(Violation::MailboxClobber {
                    src,
                    dst,
                    seq: recvs.len() as u32,
                    detail: format!(
                        "{} packages sent but only {} received: >1 in flight through a single slot",
                        sends.len(),
                        recvs.len()
                    ),
                });
            }
        }
        // Orphan recvs: packages received on a pair that never sent any.
        for (&(src, dst), recvs) in &self.pkg_recvs {
            let sent = self.pkg_sends.get(&(src, dst)).map_or(0, |s| s.len());
            if recvs.len() > sent {
                return Err(Violation::MailboxClobber {
                    src,
                    dst,
                    seq: sent as u32,
                    detail: format!("{} packages received but only {sent} sent", recvs.len()),
                });
            }
        }
        // Every observed message must have been sent by its source.
        for &mid in &self.msgs_recvd {
            if !self.msgs_sent.contains(&mid) {
                return Err(Violation::PhantomMessage {
                    msg: mid,
                    detail: "observed by receiver but never sent".into(),
                });
            }
        }
        let tasks_run: Vec<usize> = self.procs.iter().map(|pr| pr.next_task).collect();
        let peak_mem: Vec<u64> = self.procs.iter().map(|pr| pr.peak).collect();
        let maps: Vec<u32> = self.procs.iter().map(|pr| pr.maps).collect();
        let complete = (0..self.spec.nprocs).all(|p| tasks_run[p] == self.sched.order[p].len());
        Ok(TraceReport { tasks_run, peak_mem, maps, complete })
    }
}

// ---------------------------------------------------------------------
// Canonical protocol skeleton: the timing-independent projection of a
// trace used by the differential threaded-vs-DES conformance tests.
// ---------------------------------------------------------------------

/// A timing-independent protocol event. Two executors running the same
/// schedule under the same MAP planner must produce identical skeleton
/// sequences per processor, even though suspension, retry and arrival
/// timing differ run to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanonEvent {
    /// A MAP with its free and allocation waves (planner order).
    Map {
        /// Position the MAP ran before.
        pos: u32,
        /// Freed objects, in planner order.
        frees: Vec<u32>,
        /// Allocated objects, in planner order.
        allocs: Vec<u32>,
    },
    /// An address package hand-off (deterministic: one per destination
    /// per MAP, contents fixed by the planner).
    PkgSend {
        /// Destination processor.
        dst: u32,
        /// Carried object ids.
        objs: Vec<u32>,
    },
    /// The REC state observed a message (plan order).
    Recv {
        /// Message id.
        msg: u32,
    },
    /// A task executed.
    Task {
        /// Task id.
        task: u32,
    },
    /// The SND state first attempted a message (whether it completed
    /// immediately or parked on the suspended queue is timing, not
    /// protocol).
    SendInit {
        /// Message id.
        msg: u32,
    },
    /// A recovery rollback rewound the processor to `pos` for attempt
    /// `attempt`. Seeded recovery is deterministic, so two runs of the
    /// same (seed, scenario, plan) must agree on their rollbacks too.
    Rollback {
        /// Order position the window rewound to.
        pos: u32,
        /// Re-execution attempt number.
        attempt: u32,
    },
}

/// Project one processor's trace onto its canonical skeleton.
pub fn skeleton(trace: &ProcTrace) -> Vec<CanonEvent> {
    let mut out = Vec::new();
    let mut cur_map: Option<(u32, Vec<u32>, Vec<u32>)> = None;
    let mut suspended: HashSet<u32> = HashSet::new();
    let mut initiated: HashSet<u32> = HashSet::new();
    for (_, ev) in trace.iter() {
        match ev {
            Event::MapBegin { pos } => cur_map = Some((*pos, Vec::new(), Vec::new())),
            Event::Free { obj, .. } => {
                if let Some((_, frees, _)) = cur_map.as_mut() {
                    frees.push(*obj);
                }
            }
            Event::Alloc { obj, .. } => {
                if let Some((_, _, allocs)) = cur_map.as_mut() {
                    allocs.push(*obj);
                }
            }
            Event::AllocRollback { obj, .. } => {
                if let Some((_, _, allocs)) = cur_map.as_mut() {
                    allocs.retain(|o| o != obj);
                }
            }
            Event::MapEnd { .. } => {
                if let Some((pos, frees, allocs)) = cur_map.take() {
                    out.push(CanonEvent::Map { pos, frees, allocs });
                }
            }
            Event::PkgSend { dst, objs, .. } => {
                out.push(CanonEvent::PkgSend { dst: *dst, objs: objs.clone() })
            }
            Event::MsgRecv { msg } => out.push(CanonEvent::Recv { msg: *msg }),
            Event::TaskBegin { task, .. } => out.push(CanonEvent::Task { task: *task }),
            Event::SendOk { msg } if initiated.insert(*msg) && !suspended.contains(msg) => {
                out.push(CanonEvent::SendInit { msg: *msg });
            }
            Event::SendSuspend { msg, .. } if suspended.insert(*msg) && initiated.insert(*msg) => {
                out.push(CanonEvent::SendInit { msg: *msg });
            }
            Event::WindowRollback { pos, attempt } => {
                out.push(CanonEvent::Rollback { pos: *pos, attempt: *attempt });
            }
            _ => {}
        }
    }
    out
}

/// Project a whole trace set: one skeleton per processor.
pub fn skeletons(traces: &TraceSet) -> Vec<Vec<CanonEvent>> {
    traces.procs.iter().map(skeleton).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{clean_traces, mutate, recovered_traces, tiny};
    use crate::event::{TraceConfig, NO_OFFSET};

    #[test]
    fn violation_kind_strips_payload() {
        assert_eq!(Violation::DoubleFree { proc: 1, obj: 2 }.kind(), ViolationKind::DoubleFree);
        assert_eq!(
            Violation::CapExceeded { proc: 0, in_use: 9, capacity: 8 }.kind(),
            ViolationKind::CapExceeded
        );
        assert_eq!(
            Violation::MailboxClobber { src: 0, dst: 1, seq: 3, detail: String::new() }.kind(),
            Violation::MailboxClobber { src: 9, dst: 9, seq: 9, detail: "x".into() }.kind(),
            "kinds compare payload-free"
        );
    }

    #[test]
    fn clean_trace_passes() {
        let (g, sched, spec) = tiny();
        let report = check(&g, &sched, &spec, &clean_traces()).expect("clean trace must pass");
        assert!(report.complete);
        assert_eq!(report.tasks_run, vec![2, 1]);
        assert_eq!(report.maps, vec![0, 1]);
        assert_eq!(report.peak_mem, vec![5, 3]);
    }

    #[test]
    fn write_before_address_is_rejected() {
        // Drop P0's PkgRecv: the SendOk now writes blind.
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 0 && matches!(e, Event::PkgRecv { .. }) {
                None
            } else {
                Some(e.clone())
            }
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::WriteBeforeAddress { proc: 0, msg: 0, obj: 1 }) => {}
            other => panic!("expected WriteBeforeAddress, got {other:?}"),
        }
    }

    #[test]
    fn double_free_is_rejected() {
        // P1 frees d1 twice (never even allocated a second time).
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 1 {
                if let Event::MapEnd { .. } = e {
                    // Splice a double free right before MapEnd by
                    // replacing MapEnd with Free; accounting never gets
                    // checked because the free fails first.
                    return Some(Event::Free { obj: 9, units: 1, offset: NO_OFFSET });
                }
            }
            Some(e.clone())
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::DoubleFree { proc: 1, obj: 9 }) => {}
            other => panic!("expected DoubleFree, got {other:?}"),
        }
    }

    #[test]
    fn cap_overflow_is_rejected() {
        // Inflate the allocation beyond capacity 16.
        let (g, sched, spec) = tiny();
        let bad = mutate(|_, _, e| {
            if let Event::Alloc { obj, offset, .. } = e {
                Some(Event::Alloc { obj: *obj, units: 99, offset: *offset })
            } else {
                Some(e.clone())
            }
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::CapExceeded { proc: 1, in_use: 99, capacity: 16 }) => {}
            other => panic!("expected CapExceeded, got {other:?}"),
        }
    }

    #[test]
    fn mailbox_clobber_is_rejected() {
        // P1 deposits a second package without P0 draining the first:
        // two sends, one recv => >1 in flight through a single slot.
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 1 {
                if let Event::MapEnd { .. } = e {
                    return None; // make room: drop MapEnd, add sends below
                }
            }
            Some(e.clone())
        });
        let mut procs = bad.procs;
        procs[1].rec(20, Event::PkgSend { dst: 0, seq: 1, objs: vec![1] });
        procs[1].rec(21, Event::PkgSend { dst: 0, seq: 2, objs: vec![1] });
        let bad = TraceSet::new(procs);
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::MailboxClobber { src: 1, dst: 0, .. }) => {}
            other => panic!("expected MailboxClobber, got {other:?}"),
        }
    }

    #[test]
    fn package_content_mismatch_is_rejected() {
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 0 {
                if let Event::PkgRecv { src, seq, .. } = e {
                    // Receiver read different contents than were sent —
                    // the slot was overwritten mid-read.
                    return Some(Event::PkgRecv { src: *src, seq: *seq, objs: vec![1, 7] });
                }
            }
            Some(e.clone())
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::MailboxClobber { src: 1, dst: 0, seq: 0, .. }) => {}
            other => panic!("expected content-mismatch MailboxClobber, got {other:?}"),
        }
    }

    #[test]
    fn accounting_mismatch_is_rejected() {
        let (g, sched, spec) = tiny();
        let bad = mutate(|_, _, e| {
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
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::AccountingMismatch { proc: 1, reported: 7, replayed: 3, .. }) => {}
            other => panic!("expected AccountingMismatch, got {other:?}"),
        }
    }

    #[test]
    fn task_before_recv_is_rejected() {
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 1 && matches!(e, Event::MsgRecv { .. }) {
                None
            } else {
                Some(e.clone())
            }
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::MissingRecv { proc: 1, task: 2, msg: 0 }) => {}
            other => panic!("expected MissingRecv, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_tasks_are_rejected() {
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 0 {
                if let Event::TaskBegin { task, pos } = e {
                    // Swap the ids of t0 and t1.
                    return Some(Event::TaskBegin { task: 1 - *task, pos: *pos });
                }
            }
            Some(e.clone())
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::OrderViolation { proc: 0, got: 1, expected: 0 }) => {}
            other => panic!("expected OrderViolation, got {other:?}"),
        }
    }

    #[test]
    fn illegal_state_transition_is_rejected() {
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 0 {
                if let Event::State(ProtoState::Exe) = e {
                    return Some(Event::State(ProtoState::Map)); // Rec -> Map: illegal
                }
            }
            Some(e.clone())
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::IllegalTransition {
                proc: 0,
                from: ProtoState::Rec,
                to: ProtoState::Map,
            }) => {}
            other => panic!("expected IllegalTransition, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_buffers_are_rejected() {
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 1 {
                if let Event::MapEnd { .. } = e {
                    return Some(Event::Alloc { obj: 5, units: 2, offset: 1 });
                }
            }
            Some(e.clone())
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::OverlappingAlloc { proc: 1, obj: 5, other: 1 }) => {}
            other => panic!("expected OverlappingAlloc, got {other:?}"),
        }
    }

    #[test]
    fn wrapped_ring_is_rejected() {
        let (g, sched, spec) = tiny();
        let base = clean_traces();
        let mut small = ProcTrace::new(0, TraceConfig::with_capacity(4));
        for (ts, ev) in base.procs[0].iter() {
            small.rec(*ts, ev.clone());
        }
        let traces = TraceSet::new(vec![small, base.procs[1].clone()]);
        match check(&g, &sched, &spec, &traces) {
            Err(Violation::Incomplete { proc: 0, .. }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn phantom_message_is_rejected() {
        // Receiver observes a message the sender never sent.
        let (g, sched, spec) = tiny();
        let bad = mutate(|p, _, e| {
            if p == 0 && matches!(e, Event::SendOk { .. }) {
                None
            } else {
                Some(e.clone())
            }
        });
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::PhantomMessage { msg: 0, .. }) => {}
            other => panic!("expected PhantomMessage, got {other:?}"),
        }
    }

    #[test]
    fn recovered_window_replay_passes() {
        let (g, sched, spec) = tiny();
        let report =
            check(&g, &sched, &spec, &recovered_traces()).expect("recovered trace must pass");
        assert!(report.complete, "rewind + replay still covers the full order");
        assert_eq!(report.tasks_run, vec![2, 1]);
    }

    #[test]
    fn reexecution_without_rollback_is_rejected() {
        // Same re-executed window, but with the WindowRollback event
        // stripped: the EXE→REC re-entry is an illegal transition, and
        // even with the states stripped too, the second TaskBegin
        // overruns the schedule.
        let (g, sched, spec) = tiny();
        let base = recovered_traces();
        let cfg = TraceConfig::default();
        let mut p1 = ProcTrace::new(1, cfg);
        let mut tasks_only = ProcTrace::new(1, cfg);
        for (ts, ev) in base.procs[1].iter() {
            if !matches!(ev, Event::WindowRollback { .. }) {
                p1.rec(*ts, ev.clone());
                if !matches!(ev, Event::State(_)) {
                    tasks_only.rec(*ts, ev.clone());
                }
            }
        }
        let bad = TraceSet::new(vec![base.procs[0].clone(), p1]);
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::IllegalTransition {
                proc: 1,
                from: ProtoState::Exe,
                to: ProtoState::Rec,
            }) => {}
            other => panic!("expected IllegalTransition, got {other:?}"),
        }
        let bad = TraceSet::new(vec![base.procs[0].clone(), tasks_only]);
        match check(&g, &sched, &spec, &bad) {
            Err(Violation::OrderViolation { proc: 1, got: 2, expected: u32::MAX }) => {}
            other => panic!("expected OrderViolation, got {other:?}"),
        }
    }

    #[test]
    fn map_phase_rollback_reallocates_cleanly() {
        // A MAP-phase retry: allocations are rolled back via
        // AllocRollback and re-made inside the same MAP. The re-made
        // allocation must not count as a DoubleAlloc, and the skeleton
        // of the retried MAP must equal the fault-free one (plus the
        // recorded rollback).
        let (g, sched, spec) = tiny();
        let base = clean_traces();
        let cfg = TraceConfig::default();
        let mut p1 = ProcTrace::new(1, cfg);
        p1.state(0, ProtoState::Setup);
        p1.state(1, ProtoState::Map);
        p1.rec(1, Event::MapBegin { pos: 0 });
        p1.rec(2, Event::Alloc { obj: 1, units: 3, offset: 0 });
        p1.rec(3, Event::AllocRollback { obj: 1, units: 3 });
        p1.rec(4, Event::WindowRollback { pos: 0, attempt: 1 });
        p1.rec(5, Event::Alloc { obj: 1, units: 3, offset: 0 });
        p1.rec(6, Event::PkgSend { dst: 0, seq: 0, objs: vec![1] });
        p1.rec(7, Event::MapEnd { pos: 0, next_map: 1, in_use: 3, arena_high: 3 });
        p1.state(8, ProtoState::Rec);
        p1.rec(9, Event::MsgRecv { msg: 0 });
        p1.rec(10, Event::TaskBegin { task: 2, pos: 0 });
        p1.rec(11, Event::TaskEnd { task: 2 });
        p1.state(11, ProtoState::Exe);
        p1.state(12, ProtoState::Snd);
        p1.state(13, ProtoState::End);
        p1.state(14, ProtoState::Done);
        let traces = TraceSet::new(vec![base.procs[0].clone(), p1.clone()]);
        check(&g, &sched, &spec, &traces).expect("retried MAP must pass");
        let canon = skeleton(&p1);
        assert!(canon.contains(&CanonEvent::Rollback { pos: 0, attempt: 1 }));
        assert!(
            canon.contains(&CanonEvent::Map { pos: 0, frees: vec![], allocs: vec![1] }),
            "rolled-back allocs must not linger in the canonical MAP"
        );
    }

    #[test]
    fn skeleton_is_timing_independent() {
        // An immediate send and a suspended-then-retried send project to
        // the same SendInit; alloc/free/task structure is preserved.
        let cfg = TraceConfig::default();
        let mut immediate = ProcTrace::new(0, cfg);
        immediate.rec(0, Event::MapBegin { pos: 0 });
        immediate.rec(1, Event::Alloc { obj: 4, units: 1, offset: 0 });
        immediate.rec(2, Event::MapEnd { pos: 0, next_map: 2, in_use: 1, arena_high: 1 });
        immediate.rec(3, Event::TaskBegin { task: 0, pos: 0 });
        immediate.rec(4, Event::SendOk { msg: 3 });
        let mut retried = ProcTrace::new(0, cfg);
        retried.rec(0, Event::MapBegin { pos: 0 });
        retried.rec(1, Event::Alloc { obj: 4, units: 1, offset: 64 });
        retried.rec(2, Event::MapEnd { pos: 0, next_map: 2, in_use: 1, arena_high: 1 });
        retried.rec(3, Event::TaskBegin { task: 0, pos: 0 });
        retried.rec(4, Event::SendSuspend { msg: 3, missing: 4 });
        retried.rec(9, Event::CqRetry { msg: 3 });
        retried.rec(9, Event::SendOk { msg: 3 });
        assert_eq!(skeleton(&immediate), skeleton(&retried));
        assert_eq!(
            skeleton(&immediate),
            vec![
                CanonEvent::Map { pos: 0, frees: vec![], allocs: vec![4] },
                CanonEvent::Task { task: 0 },
                CanonEvent::SendInit { msg: 3 },
            ]
        );
    }
}
