//! The protocol core: the five-state machine of the paper's Figure 3(b)
//! (REC / EXE / SND / MAP / END with the RA and CQ service operations),
//! written once and stepped by both executors.
//!
//! [`ProcCore`] is one processor's resumable run of the protocol. It owns
//! everything that *is* protocol: the position in the order and the MAP
//! window, the replay of the MAPs planned for it and the address packages
//! they carry, the dense address tables, the suspended-send queue, the
//! rollback of a failed task in an armed run, the fault sites and every
//! trace hook. It knows nothing about time, threads or buffers: those it reaches
//! through an [`Env`] (statically dispatched, one per driver) and through
//! its driver's [`Port`].
//!
//! What a MAP frees, allocates, where, and whom it tells is decided before
//! the run ([`crate::maps`]): the core is handed its processor's
//! [`PlannedMap`]s and, where buffers are real, the offset of every
//! volatile, and a MAP is a walk down the next row: free wave, place the
//! planned row, notify. No allocator and no window planner runs here, so
//! nothing can go wrong while placing; what can fail during a run is a task
//! body, which an armed run heals by putting the task's checkpoint back and
//! running it again, at most [`WINDOW_ATTEMPTS`] times per window.
//!
//! [`ProcCore::step`] advances the machine until a MAP or a task is
//! complete ([`Step::Progress`]), until it cannot go on ([`Step::Blocked`],
//! naming what it waits [`On`]) or until the processor has nothing left
//! to do ([`Step::Done`]). A blocked core is resumed by calling `step`
//! again; [`ProcCore::service`] (RA + CQ) is what a driver runs in
//! between, which is what breaks the circular-wait chains in the Theorem 1
//! proof. The threaded driver polls `step` under its wait (spin, yield,
//! woken park) and watchdog; the DES driver calls it from the event heap and returns to
//! the heap on `Blocked`.
//!
//! ## Hot-path layout
//!
//! - **Address resolution is O(1) array indexing.** Two dense tables are
//!   seeded with the deterministic permanent layout: `local` (object id →
//!   offset of its buffer on this processor) and `known`
//!   (`proc * num_objects + obj` → offset on that processor, filled in by
//!   RA packages).
//! - **CQ retry is incremental.** A send that is missing a destination
//!   address parks on the id of the first missing object; an incoming
//!   address package wakes exactly the parked sends its entries unblock
//!   (the two-watched-literal trick: a retried send that is still blocked
//!   re-parks on its next missing object).
//! - **One address package per destination.** A MAP's notifications are
//!   planned sorted by destination, so one package per collaborating
//!   processor is assembled in a reusable buffer and handed to
//!   [`Port::send_package`] — no allocation in steady state.

use crate::maps::{ExecError, PlannedMap, RtPlan};
use crate::recover::WINDOW_ATTEMPTS;
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_machine::fault::{FaultSite, ProcFaults};
use rapid_machine::machine::Port;
use rapid_machine::mailbox::AddrEntry;
use rapid_trace::{FlatWriter, ProtoState, NO_OFFSET};
use std::time::Duration;

/// Sentinel for "address not (yet) known" in the dense tables. Not
/// `u64::MAX`: that is [`rapid_trace::NO_OFFSET`], the address an
/// environment without real buffers hands out.
pub(crate) const NO_ADDR: u64 = u64::MAX - 1;

/// A modelled cost the protocol incurs. Real threads pay these by doing
/// the work; the DES adds them to its virtual clock. A rollback is the one
/// that only threads act on: the DES never arms recovery.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cost {
    /// A MAP begins: `objects` buffers are freed or allocated.
    Map { objects: usize },
    /// An address package of `entries` entries was handed off toward `dst`.
    AddrPkg { dst: u32, entries: usize },
    /// One address package from `src` was read (the RA operation).
    Ra { src: usize },
    /// A task is about to index `accesses` objects through the address
    /// tables.
    Lookup { accesses: usize },
    /// Message `mid`, which has arrived, is consumed by the task about to
    /// run.
    Recv { mid: u32 },
    /// The task at `pos` failed and runs again as its window's
    /// re-execution `attempt`: put the last checkpoint's contents back.
    Rollback { pos: u32, attempt: u32 },
}

/// What a protocol core needs from the machine it runs on.
pub(crate) trait Env {
    /// A fresh trace timestamp in nanoseconds (wall clock since the run's
    /// epoch, or virtual time).
    fn now(&mut self) -> u64;
    /// The last timestamp [`Env::now`] returned, where reading the clock
    /// costs something; the current time where it does not.
    fn recent(&self) -> u64;
    /// Account one modelled cost (see [`Cost`] for which driver acts on
    /// which).
    fn charge(&mut self, cost: Cost);
    /// Hold the next operation of fault site `site` back by `by`.
    fn delay(&mut self, site: FaultSite, by: Duration);
    /// Put message `mid`: copy its objects to their `remote` offsets
    /// (indexed by object id) and signal arrival.
    fn put(&mut self, mid: u32, remote: &[u64]);
    /// Has message `mid` arrived?
    fn arrived(&mut self, mid: u32) -> bool;
    /// Run task `t` on the buffers at the `local` offsets. A body that
    /// fails comes back as the typed error to report or recover from; a
    /// run armed for recovery first photographs what the task writes.
    fn run_task(&mut self, t: TaskId, local: &[u64]) -> Result<(), ExecError>;
    /// The core entered a new state (stall diagnostics).
    fn publish(&mut self, d: Diag);
}

/// One processor's published state: what a stall snapshot shows of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Diag {
    /// Protocol state last entered.
    pub state: ProtoState,
    /// Position in the processor's order.
    pub pos: u32,
    /// Sends parked on a missing remote address.
    pub suspended: u32,
}

/// What a blocked core is waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum On {
    /// MAP: the address slot toward this processor is still occupied.
    Mailbox(u32),
    /// MAP: an injected fault refused a package hand-off; nothing but a
    /// retry ends it, so retry after servicing.
    Refused,
    /// REC: this message has not arrived.
    Msg(u32),
    /// END: suspended sends are still owed.
    Drain,
}

/// Result of one [`ProcCore::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// A MAP completed, a task ran and its messages were sent or
    /// suspended, or a failed task was rolled back.
    Progress,
    /// Nothing can move until what is named happens.
    Blocked(On),
    /// Every task ran and every message owed was put.
    Done,
}

/// What is the same for every processor of a run.
#[derive(Clone, Copy)]
pub(crate) struct CoreSpec<'e> {
    pub g: &'e TaskGraph,
    pub sched: &'e Schedule,
    pub plan: &'e RtPlan,
    /// [`permanent_layout`](crate::maps::permanent_layout) of the schedule.
    pub perm_off: &'e [u64],
    /// `maps[p]`: the MAPs processor `p` performs, in order.
    pub maps: &'e [Vec<PlannedMap>],
    /// `offsets[p][d]`: where volatile `d` lives on processor `p`, read
    /// both where a MAP places `d` and where it announces it. Empty where
    /// no buffer is real and every address is [`NO_OFFSET`].
    pub offsets: &'e [Vec<u64>],
    /// Armed for recovery: checkpoint every task and roll a failed one
    /// back.
    pub armed: bool,
}

/// Where `step` resumes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    MapPlan,
    MapNotify,
    Task,
    End,
    Done,
}

/// Run `f` on the recorder, when there is one: every record site is a
/// single `Option` branch, so untraced runs keep the untraced hot path.
#[inline]
fn trace<'e>(tr: &mut Option<FlatWriter<'e>>, f: impl FnOnce(&mut FlatWriter<'e>)) {
    if let Some(w) = tr.as_mut() {
        f(w);
    }
}

/// One processor's run of the protocol (see the module docs).
pub(crate) struct ProcCore<'e, P: Port> {
    p: usize,
    nobj: usize,
    spec: CoreSpec<'e>,
    order: &'e [TaskId],
    port: P,
    /// The MAPs planned for this processor, how many of them are done,
    /// and the most units their counting has had in use.
    maps: &'e [PlannedMap],
    maps_done: usize,
    peak: u64,
    /// Object id → planned offset of its volatile buffer here (empty:
    /// [`NO_OFFSET`] throughout).
    offsets: &'e [u64],
    state: State,
    /// Protocol state last entered (traced and published).
    at: ProtoState,
    pos: u32,
    next_map: u32,
    /// Object id → offset of its buffer on this processor ([`NO_ADDR`]
    /// when not resident). Permanent entries are seeded once; volatile
    /// entries are set and cleared by MAPs.
    local: Vec<u64>,
    /// `proc * nobj + obj` → offset of the object's buffer on `proc`.
    /// Permanent entries are seeded from the deterministic layout;
    /// volatile entries arrive in RA packages.
    known: Vec<u64>,
    /// `waiters[obj]`: suspended message ids parked on `obj`'s address.
    /// Each suspended message is parked in exactly one list (its first
    /// missing object).
    waiters: Vec<Vec<u32>>,
    /// Scratch: messages woken by the current RA round.
    woken: Vec<u32>,
    /// Number of currently suspended sends, and of sends ever suspended.
    suspended: usize,
    suspended_ever: usize,
    faults: Option<ProcFaults>,
    tr: Option<FlatWriter<'e>>,
    /// The MAP in progress (`maps[maps_done]`): the next notification to
    /// send, whether its package is assembled and whether its busy slot
    /// was reported.
    notify_i: usize,
    pkg_ready: bool,
    busy_told: bool,
    /// Reusable address-package buffer, and a scratch object-id list for
    /// package trace records.
    pkg_buf: Vec<AddrEntry>,
    pkg_ids: Vec<u32>,
    /// Address packages sent toward / drained from each processor so far
    /// (trace sequence numbers).
    pkg_send_seq: Vec<u32>,
    pkg_recv_seq: Vec<u32>,
    /// Start of the current allocation window and the re-executions it
    /// has consumed.
    window_start: u32,
    window_attempts: u32,
}

impl<'e, P: Port> ProcCore<'e, P> {
    /// Processor `p`'s core, in `Setup`, about to run its first MAP.
    pub(crate) fn new<E: Env>(
        spec: CoreSpec<'e>,
        p: usize,
        port: P,
        faults: Option<ProcFaults>,
        tr: Option<FlatWriter<'e>>,
        env: &mut E,
    ) -> Self {
        let CoreSpec { g, sched, plan, .. } = spec;
        let nobj = g.num_objects();
        let nprocs = sched.assign.nprocs;
        let mut local = vec![NO_ADDR; nobj];
        let mut known = vec![NO_ADDR; nprocs * nobj];
        for d in g.objects() {
            let o = sched.assign.owner_of(d) as usize;
            known[o * nobj + d.idx()] = spec.perm_off[d.idx()];
            if o == p {
                local[d.idx()] = spec.perm_off[d.idx()];
            }
        }
        let mut tr = tr;
        trace(&mut tr, |w| w.state(env.now(), ProtoState::Setup));
        ProcCore {
            p,
            nobj,
            spec,
            order: &sched.order[p],
            port,
            maps: &spec.maps[p],
            maps_done: 0,
            peak: plan.perm_units[p],
            offsets: spec.offsets.get(p).map_or(&[], |o| o),
            state: State::MapPlan,
            at: ProtoState::Setup,
            pos: 0,
            next_map: 0,
            local,
            known,
            waiters: vec![Vec::new(); nobj],
            woken: Vec::new(),
            suspended: 0,
            suspended_ever: 0,
            faults,
            tr,
            notify_i: 0,
            pkg_ready: false,
            busy_told: false,
            pkg_buf: Vec::new(),
            pkg_ids: Vec::new(),
            pkg_send_seq: vec![0; nprocs],
            pkg_recv_seq: vec![0; nprocs],
            window_start: 0,
            window_attempts: 0,
        }
    }

    /// Original RAPID instead of active memory management: all `resident`
    /// units (permanent and volatile) are allocated up front and every
    /// address was exchanged before the run, so no MAP is ever due (its
    /// driver plans none) and no send ever waits.
    pub(crate) fn preallocated(mut self, resident: u64) -> Self {
        self.peak = resident;
        self.next_map = u32::MAX;
        self.known.fill(0);
        self.state = if self.order.is_empty() { State::End } else { State::Task };
        self
    }

    /// This core's comm endpoint.
    pub(crate) fn port(&mut self) -> &mut P {
        &mut self.port
    }

    /// Has [`ProcCore::step`] returned [`Step::Done`]?
    pub(crate) fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Tasks of this processor's order that have not completed.
    pub(crate) fn remaining(&self) -> usize {
        self.order.len() - self.pos as usize
    }

    /// MAPs performed so far.
    pub(crate) fn maps_done(&self) -> u32 {
        self.maps_done as u32
    }

    /// Peak units in use so far, by the plan's counting.
    pub(crate) fn peak(&self) -> u64 {
        self.peak
    }

    /// Sends that waited in the suspended queue at least once.
    pub(crate) fn suspended_ever(&self) -> usize {
        self.suspended_ever
    }

    /// Enter protocol state `s`: trace the transition and publish it.
    fn enter<E: Env>(&mut self, env: &mut E, s: ProtoState) {
        if self.at == s {
            return;
        }
        self.at = s;
        trace(&mut self.tr, |w| w.state(env.now(), s));
        env.publish(Diag { state: s, pos: self.pos, suspended: self.suspended as u32 });
    }

    /// The processor leaves the protocol (after [`Step::Done`] and
    /// whatever its driver does while still in END).
    pub(crate) fn retire<E: Env>(&mut self, env: &mut E) {
        self.enter(env, ProtoState::Done);
    }

    /// Consult a delay fault site and hold the operation back if it fires.
    fn delayed<E: Env>(
        &mut self,
        env: &mut E,
        site: FaultSite,
        draw: fn(&mut ProcFaults) -> Option<Duration>,
    ) {
        if let Some(by) = self.faults.as_mut().and_then(draw) {
            trace(&mut self.tr, |w| w.fault(env.recent(), site));
            env.delay(site, by);
        }
    }

    fn internal(&self, detail: String) -> ExecError {
        ExecError::Internal { proc: self.p as u32, detail }
    }

    /// Advance the state machine (see the module docs).
    pub(crate) fn step<E: Env>(&mut self, env: &mut E) -> Result<Step, ExecError> {
        loop {
            match self.state {
                State::MapPlan => self.map_plan(env)?,
                State::MapNotify => {
                    if let Some(on) = self.map_notify(env) {
                        return Ok(Step::Blocked(on));
                    }
                    self.map_end(env);
                    return Ok(Step::Progress);
                }
                State::Task => return self.task(env),
                State::End => {
                    // END may not retire while the suspended queue holds
                    // anything: those puts are owed to peers in REC.
                    self.enter(env, ProtoState::End);
                    if self.suspended > 0 {
                        return Ok(Step::Blocked(On::Drain));
                    }
                    self.state = State::Done;
                }
                State::Done => return Ok(Step::Done),
            }
        }
    }

    /// MAP, first part: take the next planned window, run its free wave
    /// and place its allocations, each at its planned offset. That they
    /// fit, contiguously, was settled when the plan was made.
    fn map_plan<E: Env>(&mut self, env: &mut E) -> Result<(), ExecError> {
        let g = self.spec.g;
        let pos = self.pos;
        // A new allocation window begins here: it gets a fresh
        // re-execution budget (rollbacks never rewind across a MAP, so the
        // previous window's spend is settled).
        self.window_start = pos;
        self.window_attempts = 0;
        self.enter(env, ProtoState::Map);
        trace(&mut self.tr, |w| w.map_begin(env.recent(), pos));
        let Some(m) = self.maps.get(self.maps_done).filter(|m| m.pos == pos) else {
            return Err(self.internal(format!("no MAP was planned at position {pos}")));
        };
        env.charge(Cost::Map { objects: m.frees.len() + m.allocs.len() });
        for &d in &m.frees {
            let off = std::mem::replace(&mut self.local[d.idx()], NO_ADDR);
            if off == NO_ADDR {
                return Err(self.internal(format!("MAP frees {d:?}, which is not resident")));
            }
            trace(&mut self.tr, |w| w.free(env.recent(), d.0, g.obj_size(d), off));
        }
        for &d in &m.allocs {
            let off = self.offsets.get(d.idx()).copied().unwrap_or(NO_OFFSET);
            self.local[d.idx()] = off;
            trace(&mut self.tr, |w| w.alloc(env.recent(), d.0, g.obj_size(d), off));
        }
        self.notify_i = 0;
        self.state = State::MapNotify;
        Ok(())
    }

    /// MAP, second part: tell every processor that will put into a buffer
    /// this MAP placed where it is, read from the same offset column as
    /// the placing. Notifications are planned sorted by (destination,
    /// object), so one linear walk assembles one package per destination.
    fn map_notify<E: Env>(&mut self, env: &mut E) -> Option<On> {
        let (notifies, offsets) = (&self.maps[self.maps_done].notifies, self.offsets);
        while let Some(first) = notifies.get(self.notify_i) {
            let dst = first.dst;
            let group = &notifies[self.notify_i..];
            let entries = group.iter().take_while(|n| n.dst == dst).count();
            if !self.pkg_ready {
                self.pkg_buf.clear();
                for n in &group[..entries] {
                    let offset = offsets.get(n.obj as usize).copied().unwrap_or(NO_OFFSET);
                    self.pkg_buf.push(AddrEntry { obj: n.obj, offset });
                }
                self.delayed(env, FaultSite::MailboxDelay, ProcFaults::mailbox_delay);
                self.pkg_ready = true;
                self.busy_told = false;
            }
            // An injected rejection is traced like a slot the receiver has
            // not drained yet, but no drain ends it: it is a refusal.
            let refused = self.faults.as_mut().is_some_and(ProcFaults::mailbox_reject);
            if refused {
                trace(&mut self.tr, |w| w.fault(env.recent(), FaultSite::MailboxReject));
            }
            if refused || !self.port.send_package(dst as usize, &mut self.pkg_buf) {
                if !std::mem::replace(&mut self.busy_told, true) {
                    trace(&mut self.tr, |w| w.mailbox_busy(env.recent(), dst));
                }
                return Some(if refused { On::Refused } else { On::Mailbox(dst) });
            }
            env.charge(Cost::AddrPkg { dst, entries });
            if let Some(w) = self.tr.as_mut() {
                // The hand-off consumed the buffer; the plan still has the ids.
                self.pkg_ids.clear();
                self.pkg_ids.extend(group[..entries].iter().map(|n| n.obj));
                let seq = &mut self.pkg_send_seq[dst as usize];
                w.pkg_send(env.recent(), dst, *seq, &self.pkg_ids);
                *seq += 1;
            }
            self.pkg_ready = false;
            self.notify_i += entries;
        }
        None
    }

    /// MAP, last part: the window is provisioned and announced.
    fn map_end<E: Env>(&mut self, env: &mut E) {
        let m = &self.maps[self.maps_done];
        let (pos, next_map) = (self.pos, m.next_map);
        self.next_map = next_map;
        self.maps_done += 1;
        self.peak = self.peak.max(m.in_use);
        let (in_use, peak) = (m.in_use, self.peak);
        trace(&mut self.tr, |w| w.map_end(env.now(), pos, next_map, in_use, peak));
        // A processor with an empty order performs this one empty MAP
        // and goes straight to END.
        self.state = if pos as usize == self.order.len() { State::End } else { State::Task };
    }

    /// REC, EXE and SND of the task at `pos`; a failed task of an armed
    /// run is rolled back instead, to run again.
    fn task<E: Env>(&mut self, env: &mut E) -> Result<Step, ExecError> {
        let CoreSpec { g, plan, .. } = self.spec;
        let t = self.order[self.pos as usize];
        // REC: wait for every incoming message.
        self.enter(env, ProtoState::Rec);
        let inbox = &plan.in_msgs[t.idx()];
        if let Some(&mid) = inbox.iter().find(|&&mid| !env.arrived(mid)) {
            return Ok(Step::Blocked(On::Msg(mid)));
        }
        for &mid in inbox {
            env.charge(Cost::Recv { mid });
            trace(&mut self.tr, |w| w.msg_recv(env.now(), mid));
        }
        // EXE.
        env.charge(Cost::Lookup { accesses: g.reads(t).len() + g.writes(t).len() });
        self.enter(env, ProtoState::Exe);
        self.delayed(env, FaultSite::TaskJitter, ProcFaults::task_jitter);
        let pos = self.pos;
        trace(&mut self.tr, |w| w.task_begin(env.now(), t.0, pos));
        if let Err(cause) = env.run_task(t, &self.local) {
            if !self.spec.armed {
                return Err(cause);
            }
            if self.window_attempts >= WINDOW_ATTEMPTS {
                return Err(ExecError::Unrecoverable {
                    proc: self.p as u32,
                    pos: self.window_start,
                    attempts: self.window_attempts,
                    cause: Box::new(cause),
                });
            }
            // Roll back the failed task alone and run it again. Everything
            // before it stands: it sent nothing yet, and nothing it reads
            // has changed, as every writer of what it reads waits for it.
            self.window_attempts += 1;
            let attempt = self.window_attempts;
            env.charge(Cost::Rollback { pos, attempt });
            trace(&mut self.tr, |w| w.window_rollback(env.now(), pos, attempt));
            return Ok(Step::Progress);
        }
        trace(&mut self.tr, |w| w.task_end(env.now(), t.0));
        // SND.
        self.enter(env, ProtoState::Snd);
        for &mid in &plan.out_msgs[t.idx()] {
            self.send_or_suspend(env, mid);
        }
        self.pos += 1;
        self.state = if self.pos as usize == self.order.len() {
            State::End
        } else if self.pos == self.next_map {
            State::MapPlan
        } else {
            State::Task
        };
        Ok(Step::Progress)
    }

    /// Try to send message `mid`; on failure returns the id of the first
    /// object whose destination address is still unknown.
    fn try_send<E: Env>(&mut self, env: &mut E, mid: u32) -> Result<(), u32> {
        let plan = self.spec.plan;
        let base = plan.msgs[mid as usize].dst_proc as usize * self.nobj;
        if let Some(d) = plan.objs(mid).iter().find(|d| self.known[base + d.idx()] == NO_ADDR) {
            return Err(d.0);
        }
        // Injected put delay: hold this message back so it lands late and
        // reordered relative to the fault-free interleaving.
        self.delayed(env, FaultSite::PutDelay, ProcFaults::put_delay);
        env.put(mid, &self.known[base..base + self.nobj]);
        trace(&mut self.tr, |w| w.send_ok(env.recent(), mid));
        Ok(())
    }

    /// SND: send `mid` now, or park it on its first missing address.
    fn send_or_suspend<E: Env>(&mut self, env: &mut E, mid: u32) {
        if let Err(missing) = self.try_send(env, mid) {
            trace(&mut self.tr, |w| w.send_suspend(env.recent(), mid, missing));
            self.waiters[missing as usize].push(mid);
            self.suspended += 1;
            self.suspended_ever += 1;
        }
    }

    /// RA + incremental CQ: drain incoming address packages, then retry
    /// exactly the parked sends the new addresses may unblock, in the
    /// order they were suspended. Returns `true` if any package arrived or
    /// any suspended send completed.
    pub(crate) fn service<E: Env>(&mut self, env: &mut E) -> bool {
        let nobj = self.nobj;
        let ProcCore { known, waiters, woken, tr, pkg_recv_seq, pkg_ids, .. } = self;
        let drained = self.port.drain(|src, pkg| {
            env.charge(Cost::Ra { src });
            if let Some(w) = tr.as_mut() {
                pkg_ids.clear();
                pkg_ids.extend(pkg.iter().map(|e| e.obj));
                w.pkg_recv(env.recent(), src as u32, pkg_recv_seq[src], pkg_ids);
                pkg_recv_seq[src] += 1;
            }
            for e in pkg {
                known[src * nobj + e.obj as usize] = e.offset;
                woken.append(&mut waiters[e.obj as usize]);
            }
        });
        let mut progress = drained > 0;
        let mut woken = std::mem::take(&mut self.woken);
        // Suspension order is SND order: by the sending task's position,
        // then by message id within the task.
        let plan = self.spec.plan;
        woken.sort_unstable_by_key(|&m| (plan.pos[plan.msgs[m as usize].src_task.idx()], m));
        for &mid in &woken {
            trace(&mut self.tr, |w| w.cq_retry(env.recent(), mid));
            match self.try_send(env, mid) {
                Ok(()) => {
                    self.suspended -= 1;
                    progress = true;
                }
                // Still blocked: re-park on the next missing address.
                Err(missing) => self.waiters[missing as usize].push(mid),
            }
        }
        woken.clear();
        self.woken = woken;
        progress
    }
}
