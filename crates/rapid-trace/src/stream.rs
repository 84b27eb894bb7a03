//! The streaming invariant checker: the same Theorem-1 replay as
//! [`crate::check::check`], consumable one event at a time while the run
//! is still in flight.
//!
//! [`StreamChecker`] holds the per-processor replay state of the post-hoc
//! checker in incremental form; `check()` itself is a thin wrapper that
//! feeds a finished [`TraceSet`](crate::event::TraceSet) through it, so
//! the two can never disagree — a streaming verdict *is* a post-hoc
//! verdict, reached earlier.
//!
//! [`LiveDrain`] couples the checker to live [`FlatRing`]s: each `poll`
//! claims the unread span of every ring (seqlock epoch claim, writer
//! never blocked), decodes the records and feeds them. Cross-processor
//! obligations (mailbox pairing, phantom messages) are deferred to
//! [`StreamChecker::finish`], because per-processor streams carry no
//! global order — exactly the discipline the post-hoc checker follows.
//!
//! The checker latches the *first* violation and ignores further input,
//! matching the post-hoc checker's early return. Cross-processor tables
//! use ordered maps so the finish-time verdict is deterministic even
//! when several pairs are in violation.

use crate::event::{Event, ProtoState, TraceTier, Ts};
use crate::record::{RecordStream, Step};
use crate::ring::FlatRing;
use crate::{ProtocolSpec, TraceReport, Violation};
use rapid_core::graph::{ObjId, TaskGraph};
use rapid_core::liveness::Liveness;
use rapid_core::schedule::Schedule;
use std::collections::{BTreeMap, BTreeSet, HashSet};

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

/// Streaming Theorem-1 checker. Feed events per processor in program
/// order (any interleaving across processors), then [`finish`] for the
/// cross-processor obligations and the report.
///
/// [`finish`]: StreamChecker::finish
pub struct StreamChecker<'a> {
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

impl<'a> StreamChecker<'a> {
    /// Checker for a run of `spec` under `sched`, recorded at `tier`.
    ///
    /// The tier matters: a Skeleton trace legitimately lacks
    /// receive-side package drains, so the address-known obligation
    /// (Fact I) and the in-flight mailbox bound cannot be asserted and
    /// are skipped; everything else holds at both tiers.
    pub fn new(g: &TaskGraph, sched: &'a Schedule, spec: ProtocolSpec, tier: TraceTier) -> Self {
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
        StreamChecker {
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

    /// First violation latched so far, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.error.as_ref()
    }

    /// True while no violation has been latched.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Processor `proc`'s ring dropped `n` records: a replay with a
    /// missing prefix proves nothing, so this latches `Incomplete`.
    pub fn note_dropped(&mut self, proc: u32, n: u64) {
        if n > 0 && self.error.is_none() {
            self.error = Some(Violation::Incomplete { proc, dropped: n });
        }
    }

    /// Feed one event of processor `proc`'s trace, in program order.
    pub fn feed(&mut self, proc: u32, _ts: Ts, ev: &Event) {
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
                if *offset != crate::event::NO_OFFSET {
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
                if *offset != crate::event::NO_OFFSET {
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
                self.msgs_sent.insert(*msg);
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
    pub fn finish(self) -> Result<TraceReport, Violation> {
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

/// Couples a [`StreamChecker`] to live per-worker rings: each [`poll`]
/// claims whatever the writers have published since the last poll,
/// decodes it and feeds the checker.
///
/// [`poll`]: LiveDrain::poll
pub struct LiveDrain<'a> {
    checker: StreamChecker<'a>,
    cursors: Vec<u64>,
    streams: Vec<RecordStream>,
    buf: Vec<[u64; 4]>,
}

impl<'a> LiveDrain<'a> {
    /// Drain-and-check driver over `checker` (one cursor per processor).
    pub fn new(checker: StreamChecker<'a>) -> Self {
        let n = checker.spec.nprocs;
        LiveDrain {
            checker,
            cursors: vec![0; n],
            streams: (0..n).map(|_| RecordStream::new()).collect(),
            buf: Vec::new(),
        }
    }

    /// True while no violation has been latched.
    pub fn ok(&self) -> bool {
        self.checker.ok()
    }

    /// Claim and check every ring's unread span. Returns true when any
    /// new record was consumed (callers back off when idle).
    pub fn poll(&mut self, rings: &[FlatRing]) -> bool {
        self.drain(rings, false)
    }

    fn drain(&mut self, rings: &[FlatRing], quiesced: bool) -> bool {
        let mut progressed = false;
        for (p, ring) in rings.iter().enumerate() {
            let claim = if quiesced {
                ring.claim_quiesced(self.cursors[p], &mut self.buf)
            } else {
                ring.claim(self.cursors[p], &mut self.buf)
            };
            if claim.next == self.cursors[p] && claim.dropped == 0 {
                continue;
            }
            progressed = true;
            self.cursors[p] = claim.next;
            if claim.dropped > 0 {
                // The writer lapped us: any half-assembled chain is lost
                // with the overwritten records.
                let lost = claim.dropped + self.streams[p].gap();
                self.checker.note_dropped(ring.proc, lost);
            }
            for i in 0..self.buf.len() {
                match self.streams[p].feed(self.buf[i]) {
                    Step::Event(ts, ev) => self.checker.feed(ring.proc, ts, &ev),
                    Step::Consumed => {}
                    Step::Orphan => self.checker.note_dropped(ring.proc, 1),
                }
            }
        }
        progressed
    }

    /// Final drain (the writers must have quiesced, so the exact-epoch
    /// claim applies) plus the cross-processor checks.
    pub fn finish(mut self, rings: &[FlatRing]) -> Result<TraceReport, Violation> {
        while self.drain(rings, true) {}
        for (p, rs) in self.streams.iter_mut().enumerate() {
            let lost = rs.finish();
            if lost > 0 {
                self.checker.note_dropped(p as u32, lost);
            }
        }
        self.checker.finish()
    }
}
