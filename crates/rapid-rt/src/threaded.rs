//! The threaded executor: real concurrency, real buffers.
//!
//! One OS thread per simulated processor. Each processor owns a
//! fixed-capacity [`RmaHeap`]; permanent objects are laid out identically
//! and deterministically on every processor's heap (so their addresses are
//! globally known without notification, as in RAPID), while volatile
//! buffers are allocated at MAPs from a real first-fit [`Arena`] and their
//! offsets travel to the data producers through single-slot address
//! mailboxes. Data moves with one-sided `put`s into the destination heap;
//! per-message arrival flags give the release/acquire happens-before edge
//! `SHMEM_PUT` + flag polling gave on the T3D.
//!
//! The thread body is the five-state machine of the paper's Figure 3(b);
//! the RA (read address packages) and CQ (check suspended queue) service
//! operations run in every blocking wait, which is what breaks the
//! circular-wait chains in the Theorem 1 proof. Stress tests run many
//! random graphs at exactly `MIN_MEM` capacity to exercise that argument
//! under real interleavings.
//!
//! ## Hot-path layout
//!
//! The per-task fast path is hash-free and scan-free:
//!
//! - **Address resolution is O(1) array indexing.** Each worker keeps two
//!   dense tables seeded with the deterministic permanent layout: `local`
//!   (object id → offset in this processor's arena) and `known`
//!   (`proc * num_objects + obj` → offset on that processor, filled in by
//!   RA packages). `resolve`, `try_send` and MAP alloc/free are plain
//!   array hits.
//! - **CQ retry is incremental.** A send that is missing a destination
//!   address parks on the id of the first missing object; an incoming
//!   address package wakes exactly the parked sends its entries unblock,
//!   instead of re-scanning every suspended message's full object list on
//!   every service call (the two-watched-literal trick: a retried send
//!   that is still blocked re-parks on its next missing object).
//! - **Blocking waits use tiered backoff** ([`Backoff`]: bounded spin
//!   hints → `yield_now` → short bounded parks) instead of an
//!   unconditional `yield_now` per poll, and reset to the spin tier on
//!   every observed progress. With the aggregating backend the backoff
//!   is flush-aware: buffered address packages are pushed toward their
//!   destinations before the first yield surrenders the core.
//! - **Address packages are batched.** A MAP's notifications arrive
//!   pre-sorted by destination, so the worker assembles one package per
//!   collaborating processor in a reusable buffer and performs one
//!   [`Port::send_package`] hand-off each — no per-entry contention, no
//!   allocation in steady state.
//! - **The comm backend is pluggable.** The protocol is written once
//!   against the [`Machine`]/[`Port`] surface; [`Backend::Direct`] is
//!   the paper-faithful single-slot scheme (senders block on a full
//!   slot), [`Backend::Aggregating`] coalesces logical packages per
//!   destination into batched hand-offs and never blocks the sender.
//!   The END state retires only once the port's buffers are drained, so
//!   the Theorem-1 obligations survive aggregation.
//! - **Workers can pin to cores.** [`ThreadedExecutor::with_pinning`]
//!   assigns workers to physical cores NUMA-aware (see
//!   [`rapid_machine::affinity`]) so the per-processor arena and RMA
//!   working sets stop migrating between caches.
//!
//! ## Run lifecycle
//!
//! The schedule is built once and run many times, so what a run needs is
//! split by how long it lives. The executor keeps, from one run to the
//! next: the protocol plan; the worker threads (a
//! [`rapid_machine::pool::WorkerPool`], one thread per processor, started
//! by the first run and sent home when the executor is dropped; the thread
//! that calls `run` sleeps meanwhile); one [`RmaHeap`] per processor (`p × capacity × 8` bytes held
//! between runs); and the trace rings. Built per run, because they are
//! small and their initial state *is* the protocol's initial state: arrival
//! flags, state boards, arenas, address tables and mailboxes.
//!
//! Each worker's `Setup` state re-zeroes the prefix of its own heap that
//! the previous run's arena reached, so buffers start zeroed on every run;
//! its `End` state copies the permanent objects it owns out of its heap, so
//! the gather runs on `p` threads inside the parallel section. A run that
//! fails gives its heaps back to the allocator instead of keeping them.

use crate::inspector::{ProcDiag, StallSnapshot, StateBoard, WorkerState};
// sync-audit: the only Relaxed atomics in this module are the recovery
// diagnostics counters (`RecoveryLog`) — monotonic telemetry read after the
// workers join or for best-effort stall reports, never a publication edge.
// All cross-thread payload hand-offs go through the Release/Acquire
// FlagBoard and mailbox protocols, model-checked by `rapid_sync::models`
// (`sentguard`, `mailbox`; see DESIGN.md §16).

use crate::maps::{AccessOp, AccessViolation, ExecError, MapPlanner, RtPlan};
use crate::recover::RecoveryPolicy;
use rapid_core::graph::{ObjId, TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_machine::affinity;
use rapid_machine::arena::{Arena, ArenaError};
use rapid_machine::backoff::{Backoff, Retry};
use rapid_machine::fault::{FaultPlan, FaultSite, ProcFaults};
use rapid_machine::machine::{AggregatingMachine, DirectMachine, Machine, Port, SendOutcome};
use rapid_machine::mailbox::AddrEntry;
use rapid_machine::pool::WorkerPool;
use rapid_machine::rma::{FlagBoard, RmaHeap};
use rapid_trace::{
    decode_ring, FlatRing, FlatWriter, LiveDrain, ProcMetrics, ProcTrace, ProtoState,
    StreamChecker, TraceConfig, TraceReport, TraceSet, TraceTier, Violation,
};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as AtOrd};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel for "address not (yet) known" in the dense tables.
const NO_ADDR: u64 = u64::MAX;
/// Sentinel for "object not in this task's access set".
const NO_SLOT: u32 = u32::MAX;
/// Bounded retries of a MAP-time arena allocation that failed with
/// [`ArenaError::Fragmented`] before the window-truncation ladder kicks in.
const FRAG_RETRIES: u32 = 8;
/// Default stall watchdog when `RAPID_WATCHDOG_MS` is unset or invalid.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Parse the `RAPID_WATCHDOG_MS` override: a positive integer number of
/// milliseconds; anything else falls back to [`DEFAULT_WATCHDOG`]. Pure so
/// it is testable without mutating process environment in parallel tests.
fn parse_watchdog_ms(var: Option<&str>) -> Duration {
    match var.and_then(|s| s.trim().parse::<u64>().ok()) {
        Some(ms) if ms > 0 => Duration::from_millis(ms),
        _ => DEFAULT_WATCHDOG,
    }
}

/// Render a caught panic payload for [`ExecError::WorkerPanicked`].
fn panic_payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// The buffers a task may touch while running: shared views of the objects
/// it reads, exclusive views of the objects it writes (an object both read
/// and written appears once, in the write set).
///
/// Lookups go through a dense per-object slot table precomputed when the
/// context is assembled, so [`TaskCtx::read`] / [`TaskCtx::write`] are
/// O(1) — no linear scan of the access set.
pub struct TaskCtx<'h> {
    reads: Vec<(u32, &'h [f64])>,
    writes: Vec<(u32, &'h mut [f64])>,
    /// Object id → `(slot << 1) | is_write`, [`NO_SLOT`] when absent.
    /// Pooled by the executor across tasks: entries touched by this task
    /// are reset when the context is dismantled.
    slots: Vec<u32>,
}

impl<'h> TaskCtx<'h> {
    /// Build a context, indexing the access sets into `slots` (a scratch
    /// table of at least `num_objects` entries, all [`NO_SLOT`]).
    fn assemble(
        reads: Vec<(u32, &'h [f64])>,
        writes: Vec<(u32, &'h mut [f64])>,
        mut slots: Vec<u32>,
    ) -> Self {
        for (i, &(o, _)) in reads.iter().enumerate() {
            slots[o as usize] = (i as u32) << 1;
        }
        for (i, (o, _)) in writes.iter().enumerate() {
            slots[*o as usize] = ((i as u32) << 1) | 1;
        }
        TaskCtx { reads, writes, slots }
    }

    /// Tear the context down, resetting the touched slot entries and
    /// returning the pooled parts for the next task.
    #[allow(clippy::type_complexity)]
    fn dismantle(mut self) -> (Vec<(u32, &'h [f64])>, Vec<(u32, &'h mut [f64])>, Vec<u32>) {
        for &(o, _) in &self.reads {
            self.slots[o as usize] = NO_SLOT;
        }
        for (o, _) in &self.writes {
            self.slots[*o as usize] = NO_SLOT;
        }
        self.reads.clear();
        self.writes.clear();
        (self.reads, self.writes, self.slots)
    }

    /// Buffer of a read object. If the task does not read `d` (or also
    /// writes it — use [`TaskCtx::write`]), panics with a typed
    /// [`AccessViolation`] payload; the threaded executor catches it at
    /// the task boundary and returns
    /// [`ExecError::AccessViolation`] instead of aborting the process.
    ///
    /// The returned borrow is tied to the underlying heap (`'h`), not to
    /// the context, so it can be held across a later [`TaskCtx::write`]
    /// call — read and write buffers are always distinct objects.
    #[inline]
    pub fn read(&self, d: ObjId) -> &'h [f64] {
        let e = self.slots.get(d.idx()).copied().unwrap_or(NO_SLOT);
        if e == NO_SLOT || e & 1 == 1 {
            std::panic::panic_any(AccessViolation { obj: d, op: AccessOp::Read });
        }
        self.reads[(e >> 1) as usize].1
    }

    /// Mutable buffer of a written object (reads the previous content for
    /// read-modify-write tasks). If the task does not write `d`, panics
    /// with a typed [`AccessViolation`] payload (see [`TaskCtx::read`]).
    #[inline]
    pub fn write(&mut self, d: ObjId) -> &mut [f64] {
        let e = self.slots.get(d.idx()).copied().unwrap_or(NO_SLOT);
        if e == NO_SLOT || e & 1 == 0 {
            std::panic::panic_any(AccessViolation { obj: d, op: AccessOp::Write });
        }
        &mut *self.writes[(e >> 1) as usize].1
    }

    /// Ids of read-only objects, in access-set order.
    pub fn read_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.reads.iter().map(|&(o, _)| ObjId(o))
    }

    /// Ids of written objects, in access-set order.
    pub fn write_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.writes.iter().map(|&(o, _)| ObjId(o))
    }
}

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedOutcome {
    /// MAPs performed per processor.
    pub maps: Vec<u32>,
    /// Peak units in use per processor (counting accounting, matching the
    /// DES executor and `MEM_REQ`).
    pub peak_mem: Vec<u64>,
    /// Real arena high-water mark per processor (includes fragmentation).
    pub arena_peak: Vec<u64>,
    /// Final contents of every object, gathered from the owners' heaps.
    pub objects: Vec<Vec<f64>>,
    /// Wall-clock duration of the parallel section: from the hand-off to
    /// the workers until the last of them has left its `End` state, which
    /// includes re-zeroing the heaps (`Setup`) and the owner-side gather
    /// of `objects` (`End`).
    pub wall: Duration,
    /// Recorded event traces, when [`ThreadedExecutor::with_tracing`] was
    /// enabled at a tier other than [`TraceTier::Off`] (one ring per
    /// processor, decoded from the flat binary recording).
    pub trace: Option<TraceSet>,
    /// Per-processor aggregates replayed from the trace (present exactly
    /// when `trace` is).
    pub metrics: Option<Vec<ProcMetrics>>,
    /// Verdict of the concurrent streaming checker, when
    /// [`ThreadedExecutor::with_streaming_check`] was armed: the same
    /// typed result the post-hoc [`rapid_trace::check`] replay produces.
    pub stream_verdict: Option<Result<TraceReport, Violation>>,
}

/// Comm-backend selection for the threaded executor (see the module
/// docs; both run the identical protocol code behind [`Machine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Paper-faithful single-slot address mailboxes: a sender whose
    /// destination slot is still occupied blocks in MAP
    /// (service-and-retry) until the receiver drains it.
    Direct,
    /// Native fast path: logical packages coalesce in per-destination
    /// sender-side buffers and travel as one physical batch. Senders
    /// never block; `threshold` is the entry count above which a
    /// destination buffer is opportunistically flushed on send.
    Aggregating {
        /// Entries per destination buffer before an eager flush.
        threshold: usize,
    },
}

/// The threaded executor.
pub struct ThreadedExecutor<'a> {
    g: &'a TaskGraph,
    sched: &'a Schedule,
    plan: RtPlan,
    capacity: u64,
    /// Watchdog: poison the run if no local progress (task completion,
    /// address arrival, or message hand-off) happens within this duration.
    /// Defaults to 30 s, overridable through the `RAPID_WATCHDOG_MS`
    /// environment variable or [`ThreadedExecutor::with_watchdog`].
    pub watchdog: Duration,
    backend: Backend,
    pinning: bool,
    faults: Option<FaultPlan>,
    tracing: Option<TraceConfig>,
    recovery: Option<RecoveryPolicy>,
    streaming: bool,
    /// What outlives a run (see "Run lifecycle" in the module docs).
    /// Locked for the whole of a run: concurrent runs on one executor
    /// take turns.
    kept: Mutex<Kept>,
}

/// The run resources an executor keeps between runs.
#[derive(Default)]
struct Kept {
    /// The worker threads, started by the first run.
    pool: Option<WorkerPool>,
    /// One heap per processor, parked by the last run if it succeeded
    /// (empty otherwise).
    heaps: Vec<RmaHeap>,
    /// Per parked heap, the prefix that run may have written: its arena's
    /// high-water mark. Everything above is still the allocator's zeros.
    dirty: Vec<u64>,
    /// Rings of the previous traced run: on this machine class a multi-MB
    /// ring allocation (mmap + munmap per run) can cost more than the
    /// recording itself.
    rings: Vec<FlatRing>,
}

/// What one worker hands back when it leaves the protocol.
#[derive(Default)]
struct WorkerOut {
    maps: u32,
    /// Peak units in use, counting accounting.
    peak_units: u64,
    arena_peak: u64,
    /// How far up its heap this worker's arena ever reached.
    arena_high: u64,
    /// Final contents of the objects this worker owns, in id order
    /// (empty when the worker bailed out).
    owned: Vec<Vec<f64>>,
    /// This worker's ring, decoded, with its aggregate metrics.
    trace: Option<(ProcTrace, ProcMetrics)>,
}

impl<'a> ThreadedExecutor<'a> {
    /// Prepare an executor. Requires an owner-compute schedule (every
    /// writer of an object runs on its owner) so that final object values
    /// live in the owners' permanent buffers.
    pub fn new(g: &'a TaskGraph, sched: &'a Schedule, capacity: u64) -> Self {
        assert!(
            rapid_sched::assign::is_owner_compute(g, &sched.assign),
            "threaded executor requires an owner-compute schedule"
        );
        let plan = RtPlan::new(g, sched);
        let watchdog = parse_watchdog_ms(std::env::var("RAPID_WATCHDOG_MS").ok().as_deref());
        ThreadedExecutor {
            g,
            sched,
            plan,
            capacity,
            watchdog,
            backend: Backend::Direct,
            pinning: false,
            faults: None,
            tracing: None,
            recovery: None,
            streaming: false,
            kept: Mutex::new(Kept::default()),
        }
    }

    /// The protocol plan this executor runs. Pair with
    /// [`RtPlan::trace_spec`] to build the [`rapid_trace::ProtocolSpec`]
    /// the invariant checker replays a recorded trace against.
    pub fn plan(&self) -> &RtPlan {
        &self.plan
    }

    /// Record a per-processor event trace during the run (builder form).
    /// Recording goes through the flat binary rings: each worker writes
    /// fixed-width records with a single unsynchronized cursor bump, and
    /// decodes its own ring back into the typed [`rapid_trace::Event`]
    /// schema before its thread returns. The config's
    /// [`TraceTier`] picks how much is captured; `TraceTier::Off`
    /// behaves exactly like not calling this at all (no rings, no
    /// trace in the outcome). Every record site is a single `Option`
    /// branch, so runs without tracing keep the untraced hot path.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> Self {
        self.tracing = Some(cfg);
        self
    }

    /// Check the Theorem-1 obligations *while the run executes* (builder
    /// form): a dedicated checker thread claims each worker's flat ring
    /// via seqlock-style epoch claims, replays the events through the
    /// same [`StreamChecker`] core the post-hoc [`rapid_trace::check`]
    /// uses, and delivers its verdict in
    /// [`ThreadedOutcome::stream_verdict`]. Requires
    /// [`ThreadedExecutor::with_tracing`] at a tier other than
    /// [`TraceTier::Off`]; otherwise the verdict is `None`.
    pub fn with_streaming_check(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Override the stall watchdog (builder form; takes precedence over
    /// the `RAPID_WATCHDOG_MS` default read by [`ThreadedExecutor::new`]).
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Select the comm backend (builder form; defaults to
    /// [`Backend::Direct`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for the aggregating backend with the given flush
    /// threshold (entries per destination buffer; see
    /// [`rapid_machine::machine::DEFAULT_AGG_THRESHOLD`]).
    pub fn with_aggregation(self, threshold: usize) -> Self {
        self.with_backend(Backend::Aggregating { threshold })
    }

    /// Pin each worker thread to a physical core, NUMA-aware (builder
    /// form). When the host has fewer distinct cores than workers the
    /// plan degrades to floating threads, which is always safe. A worker
    /// thread pins itself once, when it starts; the affinity of the
    /// thread that calls `run` is never touched.
    pub fn with_pinning(mut self, pinning: bool) -> Self {
        self.pinning = pinning;
        // Threads started under the other setting leave here; the next
        // run starts new ones.
        self.kept.get_mut().unwrap_or_else(|p| p.into_inner()).pool = None;
        self
    }

    /// Inject a deterministic, seeded fault plan (chaos testing): mailbox
    /// send rejection/delay, RMA put delay, transient allocation failure
    /// and per-task worker jitter. Without a plan every injection site is
    /// a single `Option` branch, so the fault-free hot path is unchanged.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arm self-healing window recovery (builder form): site-level
    /// retries under the policy's budgets, a checkpoint of every
    /// allocation window's write set, and window-granular rollback &
    /// re-execution on a task panic or access violation. A window still
    /// failing when its budget is exhausted surfaces
    /// [`ExecError::Unrecoverable`] naming the spent budget. Without
    /// this call every recovery site is a single `Option` branch and no
    /// checkpoint is captured — the fault-free hot path is unchanged.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Run the schedule, applying `body` to every task. Object buffers
    /// start zeroed, on the first run and on every later one.
    ///
    /// The processors run on the executor's own threads while the caller
    /// sleeps, and the call does not return — with a result, an error or
    /// a caught panic — before all of them have left the run. Concurrent
    /// calls on one executor are safe and take turns: each holds the
    /// executor's threads and heaps from start to end (so a task body
    /// must not call `run` on the executor it is running on).
    pub fn run<F>(&self, body: F) -> Result<ThreadedOutcome, ExecError>
    where
        F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
    {
        self.run_with_init(body, |_, _| {})
    }

    /// Run the schedule with owner-side data initialization: before the
    /// protocol starts, each processor fills the permanent buffers of the
    /// objects it owns with `init(obj, buf)` — the RAPID convention where
    /// irregular data is resident before the executor stage (it is *not*
    /// part of the task graph, so it does not constrain DTS slicing).
    ///
    /// Note: `init` affects only the owners' permanent copies. An object
    /// that is read remotely before ever being written would see zeros on
    /// the reading processor; dependence-complete graphs produced by the
    /// builders in this workspace always write an object before any
    /// remote read.
    pub fn run_with_init<F, I>(&self, body: F, init: I) -> Result<ThreadedOutcome, ExecError>
    where
        F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
        I: Fn(ObjId, &mut [f64]) + Sync,
    {
        // Monomorphize the protocol over the chosen backend: the worker
        // code below is compiled once per machine type with no dynamic
        // dispatch on the hot path.
        let nprocs = self.sched.assign.nprocs;
        match self.backend {
            Backend::Direct => self.run_on(&DirectMachine::new(nprocs), body, init),
            Backend::Aggregating { threshold } => {
                self.run_on(&AggregatingMachine::with_threshold(nprocs, threshold), body, init)
            }
        }
    }

    /// The backend-generic run: everything protocol happens here,
    /// against the [`Machine`]/[`Port`] surface only.
    fn run_on<M, F, I>(&self, machine: &M, body: F, init: I) -> Result<ThreadedOutcome, ExecError>
    where
        M: Machine,
        F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
        I: Fn(ObjId, &mut [f64]) + Sync,
    {
        let nprocs = self.sched.assign.nprocs;
        let g = self.g;
        let sched = self.sched;

        // Deterministic permanent layout: objects in id order, bump
        // allocated from 0 on the owner's heap.
        let mut perm_off = vec![0u64; g.num_objects()];
        {
            let mut cursor = vec![0u64; nprocs];
            for d in g.objects() {
                let o = sched.assign.owner_of(d) as usize;
                perm_off[d.idx()] = cursor[o];
                cursor[o] += g.obj_size(d);
                if cursor[o] > self.capacity {
                    return Err(ExecError::NonExecutable {
                        proc: o as u32,
                        position: 0,
                        needed: cursor[o],
                        capacity: self.capacity,
                    });
                }
            }
        }

        // Everything the executor keeps between runs, for the whole run:
        // a second `run` on this executor waits here.
        let mut kept = self.kept.lock().unwrap_or_else(|p| p.into_inner());
        let Kept { pool, heaps, dirty, rings: ring_pool } = &mut *kept;
        let pool = match pool {
            Some(pool) => pool,
            None => {
                let pins =
                    if self.pinning { affinity::assign_cores(nprocs) } else { vec![None; nprocs] };
                pool.insert(WorkerPool::start(&pins).map_err(|e| ExecError::Internal {
                    proc: 0,
                    detail: format!("cannot start the worker threads: {e}"),
                })?)
            }
        };

        // The parked heaps leave `kept` for the run and return only if it
        // succeeds: after a failure nothing vouches for what was written
        // where, so the next run starts from the allocator's zeros.
        let (run_heaps, run_dirty) = if heaps.is_empty() {
            ((0..nprocs).map(|_| RmaHeap::new(self.capacity)).collect(), vec![0; nprocs])
        } else {
            (std::mem::take(heaps), std::mem::take(dirty))
        };

        let flags = FlagBoard::new(self.plan.msgs.len());
        let state = StateBoard::new(nprocs);
        let recov = RecovBoard::new(nprocs);
        let poison = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let error = &error;

        // Flat binary recording: one ring per worker, sized with ~25%
        // headroom over the configured event capacity so object-list
        // continuation records do not eat into the event budget. Rings
        // from a previous run on this executor are reset and reused when
        // they still fit the configuration.
        let tier = self.tracing.map_or(TraceTier::Off, |tc| tc.tier);
        let rings: Option<Vec<FlatRing>> = (tier != TraceTier::Off).then(|| {
            let cap = self.tracing.map_or(0, |tc| tc.capacity);
            let want = cap + cap / 4;
            let mut pooled = std::mem::take(ring_pool);
            let fits = pooled.len() == nprocs
                && pooled.iter().enumerate().all(|(p, r)| {
                    r.proc == p as u32 && r.capacity_records() == FlatRing::rounded_capacity(want)
                });
            if fits {
                for r in &mut pooled {
                    r.reset();
                }
                pooled
            } else {
                (0..nprocs).map(|p| FlatRing::new(p as u32, want)).collect()
            }
        });
        let rings_ref: Option<&[FlatRing]> = rings.as_deref();

        let epoch = Instant::now();
        let shared = Shared {
            g,
            sched,
            plan: &self.plan,
            capacity: self.capacity,
            perm_off: &perm_off,
            heaps: &run_heaps,
            dirty: &run_dirty,
            flags: &flags,
            machine,
            state: &state,
            poison: &poison,
            watchdog: self.watchdog,
            faults: self.faults.as_ref(),
            rings: rings_ref,
            tier,
            recovery: self.recovery,
            recov: &recov,
            epoch,
            body: &body,
            init: &init,
        };
        let shared = &shared;

        let fail = move |e: ExecError| {
            // First error wins; a poisoned lock just means another worker
            // panicked while reporting — recover and keep its error.
            let mut slot = error.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(e);
            }
            shared.poison.store(true, AtOrd::Release);
        };
        let fail = &fail;

        // The parallel section, on the pool's threads while this one
        // sleeps. Task-body panics are caught inside the worker; a
        // share that comes back as a panic therefore means the worker
        // itself died (an executor bug). Poison the run and surface it as
        // a typed error instead of aborting the process.
        let mut run_workers = || -> Vec<WorkerOut> {
            pool.run(|p| worker(p, shared, fail))
                .into_iter()
                .enumerate()
                .map(|(p, share)| {
                    share.unwrap_or_else(|payload| {
                        fail(ExecError::WorkerPanicked {
                            proc: p as u32,
                            task: None,
                            payload: panic_payload_str(payload.as_ref()),
                        });
                        WorkerOut::default()
                    })
                })
                .collect()
        };
        let (mut per_proc, stream_verdict) = match (self.streaming, rings_ref) {
            (true, Some(rs)) => {
                // Quiesce signal for the streaming checker: raised after
                // every worker has left the run, so its final drain sees
                // quiesced rings.
                let quiesced = AtomicBool::new(false);
                let quiesced = &quiesced;
                std::thread::scope(|scope| {
                    let checker = scope.spawn(move || {
                        let spec = self.plan.trace_spec(self.capacity);
                        let mut drain = LiveDrain::new(StreamChecker::new(g, sched, spec, tier));
                        while !quiesced.load(AtOrd::Acquire) {
                            if !drain.poll(rs) {
                                // Idle: nothing new published. Sleep rather
                                // than spin so the checker core does not
                                // perturb the measured run.
                                std::thread::sleep(Duration::from_micros(50));
                            }
                        }
                        drain.finish(rs)
                    });
                    let per_proc = run_workers();
                    quiesced.store(true, AtOrd::Release);
                    let verdict = match checker.join() {
                        Ok(v) => Some(v),
                        Err(payload) => {
                            fail(ExecError::WorkerPanicked {
                                proc: nprocs as u32,
                                task: None,
                                payload: panic_payload_str(payload.as_ref()),
                            });
                            None
                        }
                    };
                    (per_proc, verdict)
                })
            }
            _ => (run_workers(), None),
        };
        let wall = epoch.elapsed();

        if poison.load(AtOrd::Acquire) {
            return Err(error
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or(ExecError::Stalled { remaining: 0, snapshot: None }));
        }

        // Each owner copied its objects out, in id order, before it left
        // `End`; deal them back into one id-ordered list.
        let mut owned: Vec<_> =
            per_proc.iter_mut().map(|w| std::mem::take(&mut w.owned).into_iter()).collect();
        let objects: Vec<Vec<f64>> = g
            .objects()
            .map(|d| owned[sched.assign.owner_of(d) as usize].next().unwrap_or_default())
            .collect();

        *dirty = per_proc.iter().map(|w| w.arena_high).collect();
        *heaps = run_heaps;

        let maps = per_proc.iter().map(|w| w.maps).collect();
        let peak_mem = per_proc.iter().map(|w| w.peak_units).collect();
        let arena_peak = per_proc.iter().map(|w| w.arena_peak).collect();
        // Each worker decoded its own ring (and aggregated its metrics)
        // in parallel before it left the run.
        let (trace, metrics) = match rings {
            Some(rs) => {
                let (procs, ms) = per_proc.into_iter().filter_map(|w| w.trace).unzip();
                // Park the rings for the next run on this executor.
                *ring_pool = rs;
                (Some(TraceSet::new(procs)), Some(ms))
            }
            None => (None, None),
        };

        Ok(ThreadedOutcome {
            maps,
            peak_mem,
            arena_peak,
            objects,
            wall,
            trace,
            metrics,
            stream_verdict,
        })
    }
}

/// Execute the schedule sequentially (one buffer per object) — the
/// reference the threaded executor is validated against.
pub fn run_sequential<F>(g: &TaskGraph, body: F) -> Vec<Vec<f64>>
where
    F: Fn(TaskId, &mut TaskCtx<'_>),
{
    run_sequential_with_init(g, body, |_, _| {})
}

/// [`run_sequential`] with data initialization (mirrors
/// [`ThreadedExecutor::run_with_init`]).
pub fn run_sequential_with_init<F, I>(g: &TaskGraph, body: F, init: I) -> Vec<Vec<f64>>
where
    F: Fn(TaskId, &mut TaskCtx<'_>),
    I: Fn(ObjId, &mut [f64]),
{
    let mut bufs: Vec<Vec<f64>> = g.objects().map(|d| vec![0.0; g.obj_size(d) as usize]).collect();
    for (i, buf) in bufs.iter_mut().enumerate() {
        init(ObjId(i as u32), buf);
    }
    // `TaskGraphBuilder::build` rejects cycles, so a constructed graph
    // always topo-sorts; return the initialized (untouched) buffers
    // rather than panicking if that invariant ever breaks.
    let Some(order) = rapid_core::algo::topo_sort(g) else { return bufs };
    let mut slots = vec![NO_SLOT; g.num_objects()];
    for t in order {
        // Split-borrow the buffers: writes mutably, reads shared.
        let writes_ids = g.writes(t);
        let mut writes: Vec<(u32, &mut [f64])> = Vec::with_capacity(writes_ids.len());
        let mut reads: Vec<(u32, &[f64])> = Vec::new();
        // SAFETY: object ids are distinct within each set and across the
        // two sets (reads that are also written are dropped below), and
        // `bufs` outlives the ctx; we hand out one &mut per distinct id.
        let base = bufs.as_mut_ptr();
        for &d in writes_ids {
            let slice = unsafe { &mut *base.add(d as usize) };
            writes.push((d, slice.as_mut_slice()));
        }
        for &d in g.reads(t) {
            if writes_ids.binary_search(&d).is_err() {
                let slice = unsafe { &*base.add(d as usize) };
                reads.push((d, slice.as_slice()));
            }
        }
        let mut ctx = TaskCtx::assemble(reads, writes, slots);
        body(t, &mut ctx);
        slots = ctx.dismantle().2;
    }
    bufs
}

/// Everything the workers share by reference — one immutable bundle so
/// the worker signature stays small.
struct Shared<'e, F, I, M> {
    g: &'e TaskGraph,
    sched: &'e Schedule,
    plan: &'e RtPlan,
    capacity: u64,
    perm_off: &'e [u64],
    heaps: &'e [RmaHeap],
    /// Per heap, the prefix the previous run on it may have written.
    dirty: &'e [u64],
    flags: &'e FlagBoard,
    machine: &'e M,
    state: &'e StateBoard,
    poison: &'e AtomicBool,
    watchdog: Duration,
    faults: Option<&'e FaultPlan>,
    /// Flat recording rings, one per worker (`None` when tracing is off).
    rings: Option<&'e [FlatRing]>,
    /// Sampling tier the rings record at.
    tier: TraceTier,
    recovery: Option<RecoveryPolicy>,
    recov: &'e RecovBoard,
    /// Epoch of the parallel section; trace timestamps are nanoseconds
    /// since this instant.
    epoch: Instant,
    body: &'e F,
    init: &'e I,
}

/// Lock-free recovery telemetry the workers publish for stall snapshots:
/// per-processor MAP-phase retry / EXE-phase rollback counters plus the
/// most recent recovery. Written only on the (rare) recovery paths;
/// unarmed runs never touch it.
struct RecovBoard {
    /// `[MAP-phase retries, EXE-phase rollbacks]` per processor.
    counts: Vec<[AtomicU32; 2]>,
    /// Packed `proc << 48 | pos << 16 | attempt`; `u64::MAX` = none yet.
    last: AtomicU64,
}

impl RecovBoard {
    fn new(nprocs: usize) -> Self {
        RecovBoard {
            counts: (0..nprocs).map(|_| [AtomicU32::new(0), AtomicU32::new(0)]).collect(),
            last: AtomicU64::new(u64::MAX),
        }
    }

    /// Record one recovery on `p` (relaxed: diagnostics only).
    fn note(&self, p: usize, map_phase: bool, pos: u32, attempt: u32) {
        self.counts[p][usize::from(!map_phase)].fetch_add(1, AtOrd::Relaxed);
        let packed =
            ((p as u64) << 48) | ((pos as u64 & 0xFFFF_FFFF) << 16) | (attempt as u64 & 0xFFFF);
        self.last.store(packed, AtOrd::Relaxed);
    }

    /// `(total MAP retries, total window rollbacks)` across processors.
    fn totals(&self) -> (u32, u32) {
        self.counts.iter().fold((0, 0), |(r, rb), c| {
            (r + c[0].load(AtOrd::Relaxed), rb + c[1].load(AtOrd::Relaxed))
        })
    }

    /// Most recent recovery as `(proc, window position, attempt)`.
    fn last_recovery(&self) -> Option<(u32, u32, u32)> {
        let w = self.last.load(AtOrd::Relaxed);
        (w != u64::MAX).then_some((
            (w >> 48) as u32,
            ((w >> 16) & 0xFFFF_FFFF) as u32,
            w as u32 & 0xFFFF,
        ))
    }
}

/// Worker-owned tracer: the flat binary writer over this processor's
/// ring, plus the run epoch its timestamps are relative to. Wrapped in
/// `Option` everywhere it is consulted, so the untraced hot path pays
/// one predictable branch.
///
/// The clock is *cached*: only protocol-state transitions, MAP
/// boundaries and rollbacks always refresh it (`Instant::elapsed` is a
/// few tens of ns — comparable to the flat record write itself, and
/// much more than that inside a VM). Task boundaries and message
/// receipts refresh only at [`TraceTier::Full`], where per-task
/// timeline spans are worth the clock reads; at Skeleton they reuse the
/// last refreshed timestamp. High-frequency noise records (alloc/free
/// waves, package traffic, CQ retries, fault markers) always reuse it.
/// The dwell metrics depend only on state transitions, and the checker
/// ignores timestamps entirely, so the cache never changes a verdict.
struct Tr<'e> {
    w: FlatWriter<'e>,
    ring: &'e FlatRing,
    t0: Instant,
    last_ts: u64,
}

impl<'e> Tr<'e> {
    fn new(ring: &'e FlatRing, tier: TraceTier, t0: Instant) -> Self {
        Tr { w: ring.writer(tier), ring, t0, last_ts: 0 }
    }

    /// Refresh and return the cached timestamp.
    #[inline]
    fn now(&mut self) -> u64 {
        self.last_ts = self.t0.elapsed().as_nanos() as u64;
        self.last_ts
    }

    /// Does the tier record the Full-only events? Callers skip argument
    /// preparation (object-id collection) when it does not.
    #[inline]
    fn full(&self) -> bool {
        self.w.tier() == TraceTier::Full
    }

    #[inline]
    fn state(&mut self, s: ProtoState) {
        let ts = self.now();
        self.w.state(ts, s);
    }

    #[inline]
    fn map_begin(&mut self, pos: u32) {
        let ts = self.now();
        self.w.map_begin(ts, pos);
    }

    #[inline]
    fn map_end(&mut self, pos: u32, next_map: u32, in_use: u64, arena_high: u64) {
        let ts = self.now();
        self.w.map_end(ts, pos, next_map, in_use, arena_high);
    }

    #[inline]
    fn free(&mut self, obj: u32, units: u64, offset: u64) {
        self.w.free(self.last_ts, obj, units, offset);
    }

    #[inline]
    fn alloc(&mut self, obj: u32, units: u64, offset: u64) {
        self.w.alloc(self.last_ts, obj, units, offset);
    }

    #[inline]
    fn alloc_rollback(&mut self, obj: u32, units: u64) {
        self.w.alloc_rollback(self.last_ts, obj, units);
    }

    #[inline]
    fn window_rollback(&mut self, pos: u32, attempt: u32) {
        let ts = self.now();
        self.w.window_rollback(ts, pos, attempt);
    }

    #[inline]
    fn pkg_send(&mut self, dst: u32, seq: u32, objs: &[u32]) {
        self.w.pkg_send(self.last_ts, dst, seq, objs);
    }

    #[inline]
    fn pkg_recv(&mut self, src: u32, seq: u32, objs: &[u32]) {
        self.w.pkg_recv(self.last_ts, src, seq, objs);
    }

    #[inline]
    fn mailbox_busy(&mut self, dst: u32) {
        self.w.mailbox_busy(self.last_ts, dst);
    }

    #[inline]
    fn send_ok(&mut self, msg: u32) {
        self.w.send_ok(self.last_ts, msg);
    }

    #[inline]
    fn send_suspend(&mut self, msg: u32, missing: u32) {
        self.w.send_suspend(self.last_ts, msg, missing);
    }

    #[inline]
    fn cq_retry(&mut self, msg: u32) {
        self.w.cq_retry(self.last_ts, msg);
    }

    #[inline]
    fn msg_recv(&mut self, msg: u32) {
        let ts = if self.full() { self.now() } else { self.last_ts };
        self.w.msg_recv(ts, msg);
    }

    #[inline]
    fn task_begin(&mut self, task: u32, pos: u32) {
        let ts = if self.full() { self.now() } else { self.last_ts };
        self.w.task_begin(ts, task, pos);
    }

    #[inline]
    fn task_end(&mut self, task: u32) {
        let ts = if self.full() { self.now() } else { self.last_ts };
        self.w.task_end(ts, task);
    }

    #[inline]
    fn fault(&mut self, site: FaultSite) {
        self.w.fault(self.last_ts, site);
    }

    /// Decode this worker's quiesced ring into the typed trace and its
    /// aggregate metrics. Runs on the worker's own thread so the decode
    /// work of all processors proceeds in parallel.
    fn finish(self) -> (ProcTrace, ProcMetrics) {
        // Consuming `self` retires the writer; the ring is quiesced.
        let Tr { ring, .. } = self;
        let t = decode_ring(ring);
        let m = ProcMetrics::from_trace(&t);
        (t, m)
    }
}

/// Progress pacing for a worker's blocking waits: tiered backoff plus the
/// stall watchdog's progress timestamp. The watchdog measures time since
/// the last *local progress* (task completion, address arrival, suspended
/// send completing, or a mailbox hand-off) — not total wall time, so long
/// runs that keep making progress are never falsely poisoned.
struct Pacer {
    backoff: Backoff,
    last_progress: Instant,
}

impl Pacer {
    fn new() -> Self {
        Pacer { backoff: Backoff::new(), last_progress: Instant::now() }
    }

    /// Record progress: reset the backoff tier and the watchdog clock.
    #[inline]
    fn mark(&mut self) {
        self.backoff.reset();
        self.last_progress = Instant::now();
    }

    /// Has the watchdog period elapsed with no progress?
    #[inline]
    fn stalled(&self, watchdog: Duration) -> bool {
        self.last_progress.elapsed() > watchdog
    }

    /// Wait once, escalating the backoff tier. Aggregation-aware: at the
    /// spin→yield boundary the port's buffered packages are flushed —
    /// this worker is about to surrender the core, so anything parked in
    /// its sender-side buffers must move toward its destination first. A
    /// successful flush is watchdog progress.
    #[inline]
    fn wait<P: Port>(&mut self, port: &mut P) {
        let mut flushed = false;
        self.backoff.wait_flushing(|| flushed = port.flush());
        if flushed {
            self.mark();
        }
    }
}

/// Per-worker communication state: the dense address tables plus the
/// indexed suspended-send queue, built around this worker's comm
/// [`Port`].
struct Net<'e, P: Port> {
    p: usize,
    nobj: usize,
    plan: &'e RtPlan,
    g: &'e TaskGraph,
    heaps: &'e [RmaHeap],
    flags: &'e FlagBoard,
    port: P,
    /// Object id → offset of its buffer on this processor ([`NO_ADDR`]
    /// when not resident). Permanent entries are seeded once; volatile
    /// entries are set/cleared by MAP alloc/free.
    local: Vec<u64>,
    /// `proc * nobj + obj` → offset of the object's buffer on `proc`.
    /// Permanent entries are seeded from the deterministic layout;
    /// volatile entries arrive via RA packages.
    known: Vec<u64>,
    /// `waiters[obj]`: suspended message ids parked on `obj`'s address.
    /// Each suspended message is parked in exactly one list (its first
    /// missing object).
    waiters: Vec<Vec<u32>>,
    /// Scratch: messages woken by the current RA batch.
    woken: Vec<u32>,
    /// Number of currently suspended sends.
    suspended: usize,
    /// Deterministic fault injector for this processor, when chaos runs
    /// enable one ([`ThreadedExecutor::with_faults`]).
    faults: Option<ProcFaults>,
    /// Event recorder, when [`ThreadedExecutor::with_tracing`] is on.
    tr: Option<Tr<'e>>,
    /// Scratch object-id list for Full-tier `PkgRecv` records (reused,
    /// no allocation in steady state).
    obj_scratch: Vec<u32>,
    /// `pkg_send_seq[dst]`: address packages deposited toward `dst` so
    /// far (trace sequence numbers; only maintained while tracing).
    pkg_send_seq: Vec<u32>,
    /// `pkg_recv_seq[src]`: address packages drained from `src` so far.
    pkg_recv_seq: Vec<u32>,
    /// `sent[msg]`: message already completed (flag raised). Maintained
    /// only when window recovery is armed (empty otherwise): a rolled
    /// back window re-enters its SND states, and a completed message
    /// must not be re-sent — the bytes would be identical, but arrival
    /// flags and the receiver's consumption are one-shot.
    sent: Vec<bool>,
}

impl<'e, P: Port> Net<'e, P> {
    fn new<F, I, M>(p: usize, sh: &Shared<'e, F, I, M>, port: P) -> Self
    where
        M: Machine,
    {
        let nobj = sh.g.num_objects();
        let nprocs = sh.sched.assign.nprocs;
        let mut local = vec![NO_ADDR; nobj];
        let mut known = vec![NO_ADDR; nprocs * nobj];
        // Seed both tables with the globally-known permanent layout.
        for d in sh.g.objects() {
            let o = sh.sched.assign.owner_of(d) as usize;
            known[o * nobj + d.idx()] = sh.perm_off[d.idx()];
            if o == p {
                local[d.idx()] = sh.perm_off[d.idx()];
            }
        }
        Net {
            p,
            nobj,
            plan: sh.plan,
            g: sh.g,
            heaps: sh.heaps,
            flags: sh.flags,
            port,
            local,
            known,
            waiters: vec![Vec::new(); nobj],
            woken: Vec::new(),
            suspended: 0,
            faults: sh.faults.map(|f| f.for_proc(p)),
            tr: None,
            obj_scratch: Vec::new(),
            pkg_send_seq: vec![0; nprocs],
            pkg_recv_seq: vec![0; nprocs],
            sent: Vec::new(),
        }
    }

    /// Offset of object `d`'s buffer on this processor.
    #[inline]
    fn resolve(&self, d: ObjId) -> u64 {
        let off = self.local[d.idx()];
        debug_assert_ne!(off, NO_ADDR, "volatile {d:?} not allocated on P{}", self.p);
        off
    }

    /// Try to send message `mid`; on failure returns the id of the first
    /// object whose destination address is still unknown.
    fn try_send(&mut self, mid: u32) -> Result<(), u32> {
        let msg = &self.plan.msgs[mid as usize];
        let base = msg.dst_proc as usize * self.nobj;
        for &d in &msg.objs {
            if self.known[base + d.idx()] == NO_ADDR {
                return Err(d.0);
            }
        }
        // Injected put delay: hold this message back so it lands late and
        // reordered relative to the fault-free interleaving.
        if let Some(f) = self.faults.as_mut() {
            if let Some(d) = f.put_delay() {
                if let Some(tr) = self.tr.as_mut() {
                    tr.fault(FaultSite::PutDelay);
                }
                std::thread::sleep(d);
            }
        }
        for &d in &msg.objs {
            let len = self.g.obj_size(d);
            let remote = self.known[base + d.idx()];
            let local = self.resolve(d);
            // SAFETY (module protocol): we produced this object (our task
            // wrote it and no later writer has run — dependence
            // completeness), and the destination buffer is exclusively
            // ours to fill until we raise the flag.
            unsafe {
                let src = self.heaps[self.p].slice(local, len);
                self.heaps[msg.dst_proc as usize].put(remote, src);
            }
        }
        self.flags.raise(mid as usize);
        if let Some(s) = self.sent.get_mut(mid as usize) {
            *s = true;
        }
        if let Some(tr) = self.tr.as_mut() {
            tr.send_ok(mid);
        }
        Ok(())
    }

    /// SND: send `mid` now, or park it on its first missing address.
    /// No-op for a message that already completed (only possible when a
    /// recovered window re-runs its SND states).
    fn send_or_suspend(&mut self, mid: u32) {
        if self.sent.get(mid as usize).copied().unwrap_or(false) {
            return;
        }
        if let Err(missing) = self.try_send(mid) {
            if let Some(tr) = self.tr.as_mut() {
                tr.send_suspend(mid, missing);
            }
            self.waiters[missing as usize].push(mid);
            self.suspended += 1;
        }
    }

    /// RA + incremental CQ: drain incoming address packages (one batched
    /// callback per source, covering every logical package the run
    /// carries), then retry exactly the parked sends the new addresses
    /// may unblock. Every service round is also a flush opportunity for
    /// packages buffered in this worker's port (eventual delivery under
    /// aggregation). Returns `true` if any package arrived, any buffered
    /// batch was handed off, or any suspended send completed.
    fn service(&mut self) -> bool {
        let nobj = self.nobj;
        let known = &mut self.known;
        let waiters = &mut self.waiters;
        let woken = &mut self.woken;
        let tr = &mut self.tr;
        let recv_seq = &mut self.pkg_recv_seq;
        let scratch = &mut self.obj_scratch;
        let drained = self.port.drain_batched(|src, entries, seg_ends| {
            let base = src * nobj;
            for e in entries {
                known[base + e.obj as usize] = e.offset;
                woken.append(&mut waiters[e.obj as usize]);
            }
            if let Some(tr) = tr.as_mut() {
                // One PkgRecv per *logical* package: a physical batch
                // replays exactly like the unbatched package sequence.
                // PkgRecv is a Full-only record; at Skeleton only the
                // sequence numbers advance (the send side carries them).
                let full = tr.full();
                let mut start = 0usize;
                for &end in seg_ends {
                    let seq = recv_seq[src];
                    recv_seq[src] = seq + 1;
                    if full {
                        scratch.clear();
                        scratch.extend(entries[start..end as usize].iter().map(|e| e.obj));
                        tr.pkg_recv(src as u32, seq, scratch);
                    }
                    start = end as usize;
                }
            }
        });
        let mut progress = drained > 0;
        if self.port.pending() > 0 && self.port.flush() {
            progress = true;
        }
        while let Some(mid) = self.woken.pop() {
            if let Some(tr) = self.tr.as_mut() {
                tr.cq_retry(mid);
            }
            match self.try_send(mid) {
                Ok(()) => {
                    self.suspended -= 1;
                    progress = true;
                }
                // Still blocked: re-park on the next missing address.
                Err(missing) => self.waiters[missing as usize].push(mid),
            }
        }
        progress
    }
}

/// One processor's run of the protocol, on its pool thread. The trace
/// comes back already decoded from this worker's flat ring (with its
/// aggregate metrics) and the owned objects already copied out, so both
/// run in parallel across workers.
fn worker<F, I, M>(
    p: usize,
    sh: &Shared<'_, F, I, M>,
    fail: &(impl Fn(ExecError) + Sync),
) -> WorkerOut
where
    F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
    I: Fn(ObjId, &mut [f64]) + Sync,
    M: Machine,
{
    let g = sh.g;
    let sched = sh.sched;
    let plan = sh.plan;
    let heaps = sh.heaps;
    let flags = sh.flags;

    let mut tr = sh.rings.map(|rs| Tr::new(&rs[p], sh.tier, sh.epoch));
    if let Some(tr) = tr.as_mut() {
        tr.state(ProtoState::Setup);
    }
    sh.state.publish(p, WorkerState::Setup, 0, 0);
    // A heap parked by the previous run is dirty up to that run's arena
    // high-water mark; above it the allocator's zeros were never touched.
    // This thread pinned itself when it started, so a fresh heap's pages
    // are first touched (below, by `init` and by the tasks) on its node.
    // SAFETY: setup phase — the only way into this heap from another
    // thread is a put to an address this worker has announced, and it
    // announces none before its first MAP; the previous run's threads
    // all left before this run was handed out.
    unsafe { heaps[p].slice_mut(0, sh.dirty[p]) }.fill(0.0);
    let mut arena = Arena::new(sh.capacity);
    // Reproduce the deterministic permanent layout and load resident data.
    for d in g.objects() {
        if sched.assign.owner_of(d) as usize == p {
            match arena.alloc(g.obj_size(d)) {
                Ok(off) => {
                    debug_assert_eq!(off, sh.perm_off[d.idx()]);
                    // SAFETY: setup phase — no other thread touches our
                    // permanent buffers before the protocol starts (the
                    // first remote put needs an address package or a
                    // write by our own tasks).
                    (sh.init)(d, unsafe { heaps[p].slice_mut(off, g.obj_size(d)) });
                }
                Err(_) => {
                    fail(ExecError::NonExecutable {
                        proc: p as u32,
                        position: 0,
                        needed: plan.perm_units[p],
                        capacity: sh.capacity,
                    });
                    return WorkerOut { trace: tr.map(Tr::finish), ..WorkerOut::default() };
                }
            }
        }
    }

    let mut planner = MapPlanner::new(p as u32, sh.capacity, plan.perm_units[p]);
    let mut net = Net::new(p, sh, sh.machine.port(p));
    net.tr = tr;

    // Pooled task-context parts (no allocation in steady state).
    let mut ctx_reads: Vec<(u32, &[f64])> = Vec::new();
    let mut ctx_writes: Vec<(u32, &mut [f64])> = Vec::new();
    let mut slots = vec![NO_SLOT; g.num_objects()];
    // Reusable address-package buffer for MAP notifications, plus the
    // object-id shadow the tracer records after the (buffer-consuming)
    // hand-off completes.
    let mut pkg_buf: Vec<AddrEntry> = Vec::new();
    let mut pkg_ids: Vec<u32> = Vec::new();

    let order = &sched.order[p];
    let mut pos: u32 = 0;
    let mut next_map: u32 = 0;
    let mut pacer = Pacer::new();

    // Self-healing state (armed by [`ThreadedExecutor::with_recovery`];
    // everything below stays empty — and every consulting site a single
    // predictable branch — on unarmed runs).
    let recovery = sh.recovery;
    let mut window_start: u32 = 0;
    let mut window_attempts: u32 = 0;
    // Pre-window contents of the current window's write set, for
    // EXE-phase rollback: `(obj, units, offset, start in ckpt_data)`.
    let mut ckpt: Vec<(u32, u64, u64, usize)> = Vec::new();
    let mut ckpt_data: Vec<f64> = Vec::new();
    let mut ckpt_seen: Vec<bool> =
        if recovery.is_some() { vec![false; g.num_objects()] } else { Vec::new() };
    if recovery.is_some() {
        net.sent = vec![false; plan.msgs.len()];
    }

    // Leave the protocol with `$owned` as the gathered objects.
    macro_rules! leave {
        ($owned:expr) => {
            return WorkerOut {
                maps: planner.maps(),
                peak_units: planner.peak(),
                arena_peak: arena.peak(),
                arena_high: arena.high_water(),
                owned: $owned,
                trace: net.tr.take().map(Tr::finish),
            }
        };
    }
    macro_rules! bail {
        () => {
            leave!(Vec::new())
        };
    }

    macro_rules! spin_service {
        () => {
            if sh.poison.load(AtOrd::Acquire) {
                bail!();
            }
            if net.service() {
                pacer.mark();
            } else {
                if pacer.stalled(sh.watchdog) {
                    fail(ExecError::Stalled {
                        remaining: order.len() - pos as usize,
                        snapshot: Some(Box::new(build_snapshot(
                            p,
                            sh,
                            net.tr.as_ref().map(|t| t.ring),
                        ))),
                    });
                    bail!();
                }
                pacer.wait(&mut net.port);
            }
        };
    }

    while (pos as usize) < order.len() {
        // MAP state.
        if pos == next_map {
            // A new allocation window begins here: it gets a fresh
            // re-execution budget (EXE-phase rollbacks never rewind
            // across a MAP, so the previous window's spend is settled).
            window_start = pos;
            window_attempts = 0;
            sh.state.publish(p, WorkerState::Map, pos, net.suspended as u32);
            if let Some(tr) = net.tr.as_mut() {
                tr.state(ProtoState::Map);
                tr.map_begin(pos);
            }
            let mut action = match planner.run_map(g, sched, plan, pos) {
                Ok(a) => a,
                Err(e) => {
                    fail(e);
                    bail!();
                }
            };
            for d in &action.frees {
                let off = net.local[d.idx()];
                if off == NO_ADDR {
                    fail(ExecError::Internal {
                        proc: p as u32,
                        detail: format!("MAP free of {d:?} but no live buffer is recorded"),
                    });
                    bail!();
                }
                net.local[d.idx()] = NO_ADDR;
                if let Err(e) = arena.free(off) {
                    fail(ExecError::Internal {
                        proc: p as u32,
                        detail: format!("MAP free of {d:?} at offset {off} rejected: {e:?}"),
                    });
                    bail!();
                }
                if let Some(tr) = net.tr.as_mut() {
                    tr.free(d.0, g.obj_size(*d), off);
                }
            }
            // Place the planned allocations in the real arena. The
            // counting planner guarantees the units fit, but a first-fit
            // arena can still be transiently fragmented (and the fault
            // layer can pretend it is). Degradation ladder: retry with
            // bounded backoff while servicing RA/CQ, then truncate the
            // allocation window at the first *lookahead* position that
            // cannot be placed — those objects roll back and are
            // re-planned by the (now earlier) next MAP, whose free wave
            // may have coalesced room. Only the task at `pos` itself
            // failing to place is a hard `Fragmented` error.
            let mut truncated = false;
            let alloc_budget = recovery.map_or(FRAG_RETRIES, |r| r.retry.alloc_attempts);
            'wave: loop {
                // Index of the alloc whose failure is *hard* — the task
                // at `pos` itself cannot be placed — this wave attempt.
                let mut hard_fail: Option<usize> = None;
                for (ai, &d) in action.allocs.iter().enumerate() {
                    let size = g.obj_size(d);
                    let mut retry = Retry::new(alloc_budget);
                    let off = loop {
                        let injected = net.faults.as_mut().is_some_and(|f| f.alloc_fails());
                        if injected {
                            if let Some(tr) = net.tr.as_mut() {
                                tr.fault(FaultSite::AllocFail);
                            }
                        } else {
                            match arena.alloc(size) {
                                Ok(off) => break Some(off),
                                Err(ArenaError::Fragmented { .. }) => {}
                                Err(_) => {
                                    fail(ExecError::NonExecutable {
                                        proc: p as u32,
                                        position: pos,
                                        needed: planner.in_use(),
                                        capacity: sh.capacity,
                                    });
                                    bail!();
                                }
                            }
                        }
                        if sh.poison.load(AtOrd::Acquire) {
                            bail!();
                        }
                        // Keep servicing RA/CQ between attempts so the
                        // system keeps evolving while we wait (Theorem 1).
                        if net.service() {
                            pacer.mark();
                        }
                        if !retry.again() {
                            break None;
                        }
                    };
                    match off {
                        Some(off) => {
                            net.local[d.idx()] = off;
                            if let Some(tr) = net.tr.as_mut() {
                                tr.alloc(d.0, size, off);
                            }
                        }
                        None if action.alloc_pos[ai] == pos => {
                            hard_fail = Some(ai);
                            break;
                        }
                        None => {
                            // The failing object and everything after it
                            // were never placed, so no Alloc events were
                            // recorded for them — the trace replay's
                            // accounting stays consistent with the planner
                            // rollback without any compensating event.
                            for &dd in &action.allocs[ai..] {
                                planner.rollback_alloc(g, dd);
                            }
                            action.next_map = action.alloc_pos[ai];
                            truncated = true;
                            break;
                        }
                    }
                }
                let Some(ai) = hard_fail else { break 'wave };
                let requested = g.obj_size(action.allocs[ai]);
                let frag = ExecError::Fragmented {
                    proc: p as u32,
                    requested,
                    largest: arena.largest_free(),
                };
                match recovery.map(|r| r.retry.window_attempts) {
                    Some(budget) if window_attempts < budget => {
                        // MAP-phase window retry: undo this attempt's
                        // arena placements and re-run the wave. The
                        // planner accounting is untouched (the same
                        // objects are re-placed below) and the arena
                        // free-list restores, so the re-placed offsets —
                        // and hence the recovered trace — depend only on
                        // the fault seed and the plan. No task ran yet,
                        // so no content checkpoint is needed here.
                        window_attempts += 1;
                        for &dd in &action.allocs[..ai] {
                            let off = net.local[dd.idx()];
                            if off == NO_ADDR {
                                continue;
                            }
                            net.local[dd.idx()] = NO_ADDR;
                            if let Err(e) = arena.free(off) {
                                fail(ExecError::Internal {
                                    proc: p as u32,
                                    detail: format!(
                                        "recovery rollback of {dd:?} at offset {off} rejected: {e:?}"
                                    ),
                                });
                                bail!();
                            }
                            if let Some(tr) = net.tr.as_mut() {
                                tr.alloc_rollback(dd.0, g.obj_size(dd));
                            }
                        }
                        if let Some(tr) = net.tr.as_mut() {
                            tr.window_rollback(pos, window_attempts);
                        }
                        sh.recov.note(p, true, pos, window_attempts);
                        // One service round between attempts: an injected
                        // fault stream drains its budget, a genuinely
                        // fragmented arena gets a chance to coalesce.
                        if net.service() {
                            pacer.mark();
                        }
                        continue 'wave;
                    }
                    Some(budget) => {
                        fail(ExecError::Unrecoverable {
                            proc: p as u32,
                            pos,
                            attempts: budget,
                            cause: Box::new(frag),
                        });
                        bail!();
                    }
                    None => {
                        fail(frag);
                        bail!();
                    }
                }
            }
            if truncated {
                // Rolled-back objects have no address; their notifications
                // are re-issued by the MAP that re-plans them.
                action.notifies.retain(|n| net.local[n.obj as usize] != NO_ADDR);
            }
            next_map = action.next_map;
            // Fill in offsets; notifications arrive pre-sorted by
            // (destination, object), so one linear walk assembles one
            // package per destination.
            for n in &mut action.notifies {
                n.offset = net.local[n.obj as usize];
            }
            let mut i = 0;
            while i < action.notifies.len() {
                let dst = action.notifies[i].dst;
                pkg_buf.clear();
                while i < action.notifies.len() && action.notifies[i].dst == dst {
                    let n = action.notifies[i];
                    pkg_buf.push(AddrEntry { obj: n.obj, offset: n.offset });
                    i += 1;
                }
                let tracing_pkg = net.tr.is_some();
                if tracing_pkg {
                    pkg_ids.clear();
                    pkg_ids.extend(pkg_buf.iter().map(|e| e.obj));
                }
                if let Some(f) = net.faults.as_mut() {
                    if let Some(delay) = f.mailbox_delay() {
                        if let Some(tr) = net.tr.as_mut() {
                            tr.fault(FaultSite::MailboxDelay);
                        }
                        std::thread::sleep(delay);
                    }
                }
                let mut reported_busy = false;
                loop {
                    // An injected rejection is handled exactly like a slot
                    // the receiver has not drained yet.
                    let rejected = net.faults.as_mut().is_some_and(|f| f.mailbox_reject());
                    if rejected {
                        if let Some(tr) = net.tr.as_mut() {
                            tr.fault(FaultSite::MailboxReject);
                        }
                    } else {
                        // Delivered and Buffered both complete the logical
                        // hand-off (the port owns the entries from here);
                        // only Busy — the direct backend's full slot —
                        // makes this MAP block and service-retry.
                        match net.port.send_package(dst as usize, &mut pkg_buf) {
                            SendOutcome::Delivered | SendOutcome::Buffered => break,
                            SendOutcome::Busy => {}
                        }
                    }
                    if !reported_busy {
                        reported_busy = true;
                        if let Some(tr) = net.tr.as_mut() {
                            tr.mailbox_busy(dst);
                        }
                    }
                    // Blocked in MAP: keep servicing RA/CQ so the system
                    // keeps evolving (Theorem 1).
                    spin_service!();
                }
                if tracing_pkg {
                    let seq = net.pkg_send_seq[dst as usize];
                    net.pkg_send_seq[dst as usize] = seq + 1;
                    if let Some(tr) = net.tr.as_mut() {
                        tr.pkg_send(dst, seq, &pkg_ids);
                    }
                }
                pacer.mark();
            }
            // Hand any coalesced batches over eagerly: under aggregation
            // the sends above never block, so one flush attempt at MAP
            // end bounds notification latency by the MAP itself without
            // re-introducing the per-package blocking of the direct
            // backend (a busy slot just leaves the batch parked for the
            // service-loop and pre-park flushes).
            if net.port.pending() > 0 {
                net.port.flush();
            }
            if let Some(tr) = net.tr.as_mut() {
                tr.map_end(pos, next_map, planner.in_use(), arena.peak());
            }
            // Photograph the window's write set before any of its tasks
            // run: bodies may read-modify-write their local permanents,
            // so EXE-phase rollback must restore pre-window contents.
            // Volatiles are deliberately *not* captured — they are filled
            // by remote puts that survive a rollback (flags stay raised),
            // and this worker's tasks never write them (owner-compute).
            if recovery.is_some() {
                ckpt.clear();
                ckpt_data.clear();
                let end = (next_map as usize).min(order.len());
                for &wt in &order[pos as usize..end] {
                    for &w in g.writes(wt) {
                        if ckpt_seen[w as usize] {
                            continue;
                        }
                        ckpt_seen[w as usize] = true;
                        let d = ObjId(w);
                        let off = net.local[d.idx()];
                        let len = g.obj_size(d);
                        let start = ckpt_data.len();
                        // SAFETY: our own permanent buffer (owner-compute
                        // makes this worker its only writer), read before
                        // any task of this window has run.
                        ckpt_data.extend_from_slice(unsafe { heaps[p].slice(off, len) });
                        ckpt.push((w, len, off, start));
                    }
                }
                for &(w, ..) in &ckpt {
                    ckpt_seen[w as usize] = false;
                }
            }
        }

        let t = order[pos as usize];
        // REC state: wait for every incoming message.
        sh.state.publish(p, WorkerState::Rec, pos, net.suspended as u32);
        if let Some(tr) = net.tr.as_mut() {
            tr.state(ProtoState::Rec);
        }
        for &mid in &plan.in_msgs[t.idx()] {
            if flags.is_raised(mid as usize) {
                if let Some(tr) = net.tr.as_mut() {
                    tr.msg_recv(mid);
                }
                continue; // fast path: already arrived
            }
            while !flags.is_raised(mid as usize) {
                spin_service!();
            }
            if let Some(tr) = net.tr.as_mut() {
                tr.msg_recv(mid);
            }
            pacer.mark();
        }

        // EXE state.
        {
            sh.state.publish(p, WorkerState::Exe, pos, net.suspended as u32);
            if let Some(tr) = net.tr.as_mut() {
                tr.state(ProtoState::Exe);
            }
            // Injected worker stall: desynchronizes the interleaving.
            if let Some(f) = net.faults.as_mut() {
                if let Some(stall) = f.task_jitter() {
                    if let Some(tr) = net.tr.as_mut() {
                        tr.fault(FaultSite::TaskJitter);
                    }
                    std::thread::sleep(stall);
                }
            }
            let writes_ids = g.writes(t);
            for &d in writes_ids {
                let d = ObjId(d);
                let off = net.resolve(d);
                // SAFETY (module protocol): this task is the unique writer
                // of `d` at this point of the dependence-complete
                // schedule; readers have either consumed earlier versions
                // or are ordered after us.
                ctx_writes.push((d.0, unsafe { heaps[p].slice_mut(off, g.obj_size(d)) }));
            }
            for &d in g.reads(t) {
                if writes_ids.binary_search(&d).is_ok() {
                    continue;
                }
                let d = ObjId(d);
                let off = net.resolve(d);
                // SAFETY: arrival flags have been observed with Acquire;
                // no writer may touch this buffer until tasks ordered
                // after us run.
                ctx_reads.push((d.0, unsafe { heaps[p].slice(off, g.obj_size(d)) }));
            }
            let mut ctx = TaskCtx::assemble(
                std::mem::take(&mut ctx_reads),
                std::mem::take(&mut ctx_writes),
                std::mem::take(&mut slots),
            );
            if let Some(tr) = net.tr.as_mut() {
                tr.task_begin(t.0, pos);
            }
            // A panicking body must not abort the process: catch it at the
            // task boundary, poison the run, and let every worker exit
            // through the normal failure path. An [`AccessViolation`]
            // payload (raised by the ctx accessors) keeps its type.
            let body_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (sh.body)(t, &mut ctx);
            }));
            // Reclaim the pooled context parts (and reset the slot table)
            // on both paths — a recovered window re-assembles contexts.
            let body_err = body_ok.err();
            (ctx_reads, ctx_writes, slots) = ctx.dismantle();
            if let Some(payload) = body_err {
                let cause = match payload.downcast::<AccessViolation>() {
                    Ok(v) => {
                        ExecError::AccessViolation { proc: p as u32, task: t, obj: v.obj, op: v.op }
                    }
                    Err(other) => ExecError::WorkerPanicked {
                        proc: p as u32,
                        task: Some(t),
                        payload: panic_payload_str(other.as_ref()),
                    },
                };
                let Some(pol) = recovery else {
                    fail(cause);
                    bail!();
                };
                if window_attempts >= pol.retry.window_attempts {
                    fail(ExecError::Unrecoverable {
                        proc: p as u32,
                        pos: window_start,
                        attempts: window_attempts,
                        cause: Box::new(cause),
                    });
                    bail!();
                }
                window_attempts += 1;
                // Quiesce before restoring: a send suspended (or a
                // package batch still buffered) earlier in this window
                // must complete *now*, while the written buffers hold
                // the values it is supposed to carry — a put firing
                // after the restore would ship pre-window bytes.
                while net.suspended > 0 || net.port.pending() > 0 {
                    spin_service!();
                }
                // Restore the pre-window contents of the window's write
                // set; everything else (volatile allocations, arrival
                // flags, received addresses, completed sends) is still
                // valid and is deliberately kept.
                for &(_, len, off, start) in &ckpt {
                    // SAFETY: the same exclusive local permanents the
                    // checkpoint read; no remote writer exists
                    // (owner-compute) and no local task is running.
                    unsafe { heaps[p].slice_mut(off, len) }
                        .copy_from_slice(&ckpt_data[start..start + len as usize]);
                }
                if let Some(tr) = net.tr.as_mut() {
                    tr.window_rollback(window_start, window_attempts);
                }
                sh.recov.note(p, false, window_start, window_attempts);
                pos = window_start;
                pacer.mark();
                continue;
            }
            if let Some(tr) = net.tr.as_mut() {
                tr.task_end(t.0);
            }
        }

        // SND state.
        sh.state.publish(p, WorkerState::Snd, pos, net.suspended as u32);
        if let Some(tr) = net.tr.as_mut() {
            tr.state(ProtoState::Snd);
        }
        for &mid in &plan.out_msgs[t.idx()] {
            net.send_or_suspend(mid);
        }
        if net.service() {
            pacer.mark();
        }
        pos += 1;
        pacer.mark();
    }

    // END state: drain the suspended queue AND this port's aggregation
    // buffers — a buffered address package that never got flushed would
    // strand a peer's suspended send forever, so END may not retire
    // while `pending() > 0` (the aggregation half of the Theorem-1
    // obligations).
    if let Some(tr) = net.tr.as_mut() {
        tr.state(ProtoState::End);
    }
    while net.suspended > 0 || net.port.pending() > 0 {
        sh.state.publish(p, WorkerState::End, pos, net.suspended as u32);
        spin_service!();
    }
    // Still END: gather. Every task of this processor has run and every
    // message it owed has been put, so its permanent objects are final.
    let owned: Vec<Vec<f64>> = g
        .objects()
        .filter(|&d| sched.assign.owner_of(d) as usize == p)
        .map(|d| {
            // SAFETY: owner-compute makes this worker's tasks the only
            // writers of the object, and they are done; remote puts only
            // ever land in volatile buffers, never in a permanent one.
            unsafe { heaps[p].slice(sh.perm_off[d.idx()], g.obj_size(d)) }.to_vec()
        })
        .collect();
    sh.state.publish(p, WorkerState::Done, pos, 0);
    if let Some(tr) = net.tr.as_mut() {
        tr.state(ProtoState::Done);
    }
    leave!(owned)
}

/// Assemble the stall diagnostic from the shared introspection surfaces:
/// every worker's published state, suspended-send depth, and the
/// occupancy of every address-mailbox slot — plus, when the reporting
/// worker traces, the tail of its event ring (what it was doing right
/// before the silence). Called (rarely — watchdog expiry only) by the
/// worker that detected the stall.
fn build_snapshot<F, I, M: Machine>(
    reporter: usize,
    sh: &Shared<'_, F, I, M>,
    ring: Option<&FlatRing>,
) -> StallSnapshot {
    // The reporter's own writer is idle while it builds this snapshot,
    // so decoding its ring here (rare path: watchdog expiry only) sees a
    // quiesced ring.
    let trace: Option<ProcTrace> = ring.map(decode_ring);
    let nprocs = sh.sched.assign.nprocs;
    let board = sh.machine.board();
    let procs = (0..nprocs)
        .map(|q| {
            let (state, pos, suspended) = sh.state.read(q);
            let mailbox_full_to = board
                .map(|b| {
                    (0..nprocs)
                        .filter(|&r| r != q && b.slot(q, r).is_full())
                        .map(|r| r as u32)
                        .collect()
                })
                .unwrap_or_default();
            ProcDiag {
                proc: q as u32,
                state,
                pos,
                order_len: sh.sched.order[q].len() as u32,
                suspended_sends: suspended,
                mailbox_full_to,
                buffered_pkgs: sh.machine.pending_hint(q) as u32,
            }
        })
        .collect();
    let recent_events = trace
        .as_ref()
        .map(|t| {
            t.tail(16)
                .into_iter()
                .map(|(ts, ev)| format!("{:.3}ms {ev:?}", ts as f64 / 1e6))
                .collect()
        })
        .unwrap_or_default();
    let (recovery_retries, recovery_rollbacks) = sh.recov.totals();
    StallSnapshot {
        reporter: reporter as u32,
        watchdog_ms: sh.watchdog.as_millis() as u64,
        msgs_arrived: sh.flags.raised_count(),
        msgs_total: sh.plan.msgs.len(),
        procs,
        recent_events,
        recovery_retries,
        recovery_rollbacks,
        last_recovery: sh.recov.last_recovery(),
        quarantined: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;
    use rapid_core::schedule::CostModel;

    /// A deterministic task body: every written buffer cell becomes
    /// `task_id + 1 + Σ(read buffers) + previous content`.
    fn test_body(t: TaskId, ctx: &mut TaskCtx<'_>) {
        let acc: f64 = ctx.reads.iter().flat_map(|(_, s)| s.iter()).sum();
        for (_, w) in ctx.writes.iter_mut() {
            for x in w.iter_mut() {
                *x += t.0 as f64 + 1.0 + acc;
            }
        }
    }

    #[test]
    fn figure2_threaded_matches_sequential() {
        let g = fixtures::figure2_dag();
        for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
            let exec = ThreadedExecutor::new(&g, &sched, 64);
            let out = exec.run(test_body).unwrap();
            let reference = run_sequential(&g, test_body);
            assert_eq!(out.objects, reference);
            assert_eq!(out.maps, vec![1, 1]);
        }
    }

    #[test]
    fn figure2_threaded_at_exact_min_mem() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm);
        let out = exec.run(test_body).unwrap();
        assert_eq!(out.objects, run_sequential(&g, test_body));
        assert!(out.peak_mem.iter().all(|&pk| pk <= mm));
        assert!(out.maps.iter().any(|&m| m > 1), "tight memory forces extra MAPs");
    }

    #[test]
    fn below_min_mem_fails_cleanly() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm - 1);
        match exec.run(test_body) {
            Err(ExecError::NonExecutable { .. }) => {}
            other => panic!("expected NonExecutable, got {other:?}"),
        }
    }

    #[test]
    fn random_graph_stress_at_min_mem() {
        // The deadlock-freedom (Theorem 1) stress: random irregular graphs
        // on 4 threads at exactly MIN_MEM, MPO order.
        for seed in 0..8u64 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = rapid_sched::assign::cyclic_owner_map(g.num_objects(), 4);
            let assign = rapid_sched::assign::owner_compute_assignment(&g, &owner, 4);
            let sched = rapid_sched::mpo::mpo_order(&g, &assign, &CostModel::unit());
            let mm = min_mem(&g, &sched).min_mem;
            let exec = ThreadedExecutor::new(&g, &sched, mm);
            match exec.run(test_body) {
                Ok(out) => {
                    assert_eq!(
                        out.objects,
                        run_sequential(&g, test_body),
                        "seed {seed}: results differ"
                    );
                }
                // A first-fit arena may fragment at exactly MIN_MEM with
                // mixed object sizes; that is a resource failure, not a
                // protocol failure.
                Err(ExecError::Fragmented { .. }) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }

    #[test]
    fn sequential_reference_accumulates_updates() {
        // w(d)=1; two chained updates add 2 and 3 => 6 per cell... the
        // body adds t+1 each time: t0 writes 1, t1 adds 2, t2 adds 3.
        let mut b = rapid_core::graph::TaskGraphBuilder::new();
        let d = b.add_object(3);
        let t0 = b.add_task(1.0, &[], &[d]);
        let t1 = b.add_task(1.0, &[], &[d]);
        let t2 = b.add_task(1.0, &[], &[d]);
        b.add_edge(t0, t1);
        b.add_edge(t1, t2);
        let g = b.build().unwrap();
        let out = run_sequential(&g, test_body);
        assert_eq!(out[0], vec![6.0, 6.0, 6.0]);
        let _ = (t0, t1, t2);
    }

    #[test]
    fn ctx_accessors_panic_on_wrong_set() {
        let mut b = rapid_core::graph::TaskGraphBuilder::new();
        let dr = b.add_object(1);
        let dw = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[dr]);
        let t1 = b.add_task(1.0, &[dr], &[dw]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        run_sequential(&g, |t, ctx| {
            if t == t1 {
                // Correct accesses work and are index-resolved.
                assert_eq!(ctx.read(dr).len(), 1);
                assert_eq!(ctx.write(dw).len(), 1);
                // Wrong-set accesses panic.
                assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.read(dw);
                }))
                .is_err());
                let unknown = ObjId(999);
                assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.read(unknown);
                }))
                .is_err());
            }
        });
    }

    /// Watchdog regression (satellite): a run whose *total* wall time far
    /// exceeds the watchdog must complete as long as every individual
    /// wait keeps seeing progress. Before the fix, `deadline` was
    /// computed once up front and any sufficiently long run was falsely
    /// poisoned as `Stalled`.
    #[test]
    fn long_steady_run_outlives_watchdog() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        // A two-processor ping-pong chain: task i (on proc i % 2) writes
        // object i and reads object i-1, so every task waits on the
        // previous one across the machine.
        let k = 30usize;
        let mut b = TaskGraphBuilder::new();
        let objs: Vec<_> = (0..k).map(|_| b.add_object(1)).collect();
        let mut tasks = Vec::new();
        for i in 0..k {
            let reads: Vec<_> = if i == 0 { vec![] } else { vec![objs[i - 1]] };
            let t = b.add_task(1.0, &reads, &[objs[i]]);
            if i > 0 {
                b.add_edge(tasks[i - 1], t);
            }
            tasks.push(t);
        }
        let g = b.build().unwrap();
        let assign = Assignment {
            task_proc: (0..k as u32).map(|i| i % 2).collect(),
            owner: (0..k as u32).map(|i| i % 2).collect(),
            nprocs: 2,
        };
        let order = vec![
            tasks.iter().copied().step_by(2).collect(),
            tasks.iter().copied().skip(1).step_by(2).collect(),
        ];
        let sched = Schedule { assign, order };
        let mut exec = ThreadedExecutor::new(&g, &sched, 64);
        // Each task sleeps 10 ms: total runtime ≈ 300 ms >> 120 ms
        // watchdog, while each single wait stays well under it.
        exec.watchdog = Duration::from_millis(120);
        let out = exec
            .run(|t, ctx| {
                std::thread::sleep(Duration::from_millis(10));
                test_body(t, ctx)
            })
            .expect("steady progress must never trip the watchdog");
        assert!(out.wall > exec.watchdog, "test must outlive the watchdog");
        assert_eq!(out.objects, run_sequential(&g, test_body));
    }

    /// Pooled-ring reuse regression (satellite): a traced run whose rings
    /// wrapped must not leak its overwrite epoch into the next run on the
    /// same executor. The pool resets every ring on reuse; without the
    /// reset the second run's decoder would derive a huge phantom drop
    /// count from the stale head (and could claim the previous run's
    /// records as its own). A single-processor chain makes the event
    /// stream fully deterministic, so the two runs must decode
    /// identically — totals, drop counts, and the retained events.
    #[test]
    fn pooled_rings_reset_between_traced_runs() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        let k = 12usize;
        let mut b = TaskGraphBuilder::new();
        let objs: Vec<_> = (0..k).map(|_| b.add_object(1)).collect();
        let mut tasks = Vec::new();
        for i in 0..k {
            let reads: Vec<_> = if i == 0 { vec![] } else { vec![objs[i - 1]] };
            let t = b.add_task(1.0, &reads, &[objs[i]]);
            if i > 0 {
                b.add_edge(tasks[i - 1], t);
            }
            tasks.push(t);
        }
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0; k], owner: vec![0; k], nprocs: 1 };
        let sched = Schedule { assign, order: vec![tasks.clone()] };
        let exec = ThreadedExecutor::new(&g, &sched, 64)
            .with_tracing(TraceConfig { capacity: 8, tier: TraceTier::Full });
        let out1 = exec.run(test_body).unwrap();
        let t1 = out1.trace.expect("tracing was enabled");
        assert!(t1.dropped() > 0, "capacity 8 must wrap on this workload");
        // Second run reuses the pooled rings (same proc set and capacity).
        let out2 = exec.run(test_body).unwrap();
        let t2 = out2.trace.expect("tracing was enabled");
        assert_eq!(out2.objects, out1.objects);
        for (p1, p2) in t1.procs.iter().zip(t2.procs.iter()) {
            assert_eq!(
                p2.total(),
                p1.total(),
                "proc {}: stale overwrite epoch leaked into the reused ring",
                p1.proc
            );
            assert_eq!(p2.dropped(), p1.dropped(), "proc {}: phantom drops", p1.proc);
            let e1: Vec<_> = p1.iter().map(|(_, e)| e.clone()).collect();
            let e2: Vec<_> = p2.iter().map(|(_, e)| e.clone()).collect();
            assert_eq!(e1, e2, "proc {}: stale records decoded", p1.proc);
        }
    }

    /// Heap reuse: a run that succeeds parks its heaps with the prefix it
    /// dirtied, a run that fails gives them up, and either way the next
    /// run starts from zeroed buffers.
    #[test]
    fn heaps_are_parked_after_success_and_dropped_after_failure() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm);
        let parked = || {
            let kept = exec.kept.lock().unwrap();
            (kept.heaps.len(), kept.dirty.clone())
        };
        assert_eq!(parked(), (0, vec![]), "nothing is allocated before the first run");
        let reference = run_sequential(&g, test_body);
        assert_eq!(exec.run(test_body).unwrap().objects, reference);
        let (n, dirty) = parked();
        assert_eq!(n, 2);
        assert!(dirty.iter().all(|&d| d > 0 && d <= mm), "dirty prefixes {dirty:?} of {mm}");
        let failed = exec.run_with_init(|_, _| panic!("boom"), |_, buf| buf.fill(f64::NAN));
        assert!(matches!(failed, Err(ExecError::WorkerPanicked { .. })));
        assert_eq!(parked(), (0, vec![]), "a failed run must not park its heaps");
        assert_eq!(exec.run(test_body).unwrap().objects, reference);
        assert_eq!(parked().0, 2);
    }

    /// A wait with no observable progress for longer than the watchdog
    /// must still be detected: the progress-based deadline forgives long
    /// runs, not long silences.
    #[test]
    fn genuine_stall_is_detected() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(1);
        let d1 = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d0]);
        let t1 = b.add_task(1.0, &[d0], &[d1]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0, 1], owner: vec![0, 1], nprocs: 2 };
        let sched = Schedule { assign, order: vec![vec![t0], vec![t1]] };
        let mut exec = ThreadedExecutor::new(&g, &sched, 16);
        // P0 holds the d0 message hostage for far longer than the
        // watchdog; P1's REC wait sees zero progress in that window.
        exec.watchdog = Duration::from_millis(60);
        let out = exec.run(|t, ctx| {
            if t == t0 {
                std::thread::sleep(Duration::from_millis(500));
            }
            test_body(t, ctx)
        });
        match out {
            Err(ExecError::Stalled { snapshot, .. }) => {
                let snap = snapshot.expect("watchdog failure carries a diagnostic snapshot");
                assert_eq!(snap.procs.len(), 2);
                assert_eq!(snap.watchdog_ms, 60);
                // The render must be usable in a panic message.
                assert!(snap.to_string().contains("P0"));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_env_override_parses() {
        assert_eq!(parse_watchdog_ms(None), DEFAULT_WATCHDOG);
        assert_eq!(parse_watchdog_ms(Some("250")), Duration::from_millis(250));
        assert_eq!(parse_watchdog_ms(Some(" 90000 ")), Duration::from_millis(90000));
        assert_eq!(parse_watchdog_ms(Some("0")), DEFAULT_WATCHDOG);
        assert_eq!(parse_watchdog_ms(Some("-5")), DEFAULT_WATCHDOG);
        assert_eq!(parse_watchdog_ms(Some("soon")), DEFAULT_WATCHDOG);
    }

    #[test]
    fn watchdog_builder_overrides_default() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let exec = ThreadedExecutor::new(&g, &sched, 64).with_watchdog(Duration::from_millis(1234));
        assert_eq!(exec.watchdog, Duration::from_millis(1234));
        let out = exec.run(test_body).unwrap();
        assert_eq!(out.objects, run_sequential(&g, test_body));
    }

    #[test]
    fn task_panic_is_reported_not_propagated() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let exec = ThreadedExecutor::new(&g, &sched, 64);
        let out = exec.run(|t, ctx| {
            if t == TaskId(3) {
                panic!("boom in task body");
            }
            test_body(t, ctx)
        });
        match out {
            Err(ExecError::WorkerPanicked { task: Some(t), payload, .. }) => {
                assert_eq!(t, TaskId(3));
                assert!(payload.contains("boom"), "payload was {payload:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn access_violation_is_typed_not_swallowed() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let victim = ObjId(0);
        let exec = ThreadedExecutor::new(&g, &sched, 64);
        let out = exec.run(move |t, ctx| {
            if t == TaskId(5) {
                // t5 does not write d1: wrong-set access.
                ctx.write(victim);
            }
            test_body(t, ctx)
        });
        match out {
            Err(ExecError::AccessViolation { task, obj, op, .. }) => {
                assert_eq!(task, TaskId(5));
                assert_eq!(obj, victim);
                assert_eq!(op, AccessOp::Write);
            }
            other => panic!("expected AccessViolation, got {other:?}"),
        }
    }

    #[test]
    fn faulted_run_matches_reference() {
        // Smoke-level chaos (the full matrix lives in tests/chaos_stress.rs):
        // every scenario on the Figure 2 DAG must still produce the
        // sequential result.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let reference = run_sequential(&g, test_body);
        for (name, plan) in FaultPlan::scenarios(17) {
            let exec = ThreadedExecutor::new(&g, &sched, 64).with_faults(plan);
            let out = exec.run(test_body).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.objects, reference, "{name}: results differ");
        }
    }

    #[test]
    fn armed_recovery_is_invisible_on_clean_runs() {
        // Arming recovery on a fault-free run must change nothing
        // observable: same results, same protocol skeleton, and not a
        // single rollback event in the trace.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let run = |armed: bool| {
            let mut exec = ThreadedExecutor::new(&g, &sched, mm)
                .with_tracing(rapid_trace::TraceConfig::default());
            if armed {
                exec = exec.with_recovery(crate::recover::RecoveryPolicy::new());
            }
            exec.run(test_body).expect("clean run")
        };
        let plain = run(false);
        let armed = run(true);
        assert_eq!(armed.objects, plain.objects);
        assert_eq!(armed.maps, plain.maps);
        let tr = armed.trace.as_ref().expect("tracing enabled");
        assert!(
            tr.procs.iter().flat_map(|p| p.iter()).all(|(_, e)| !matches!(
                e,
                rapid_trace::Event::WindowRollback { .. }
                    | rapid_trace::Event::AllocRollback { .. }
            )),
            "clean armed run must record no recovery events"
        );
        assert_eq!(
            rapid_trace::skeletons(tr),
            rapid_trace::skeletons(plain.trace.as_ref().expect("tracing enabled")),
            "arming recovery must not perturb the protocol skeleton"
        );
    }
}
