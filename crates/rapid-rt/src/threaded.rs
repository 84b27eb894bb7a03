//! The threaded executor: real concurrency, real buffers.
//!
//! One OS thread per simulated processor. A permanent object lives on its
//! owner for the whole run, as its own buffer, and is never the target of
//! a put. Each processor also owns a fixed-capacity [`RmaHeap`] for its
//! volatiles, the copies of remote objects its tasks read: they come and go
//! at MAPs, at the offsets a best-fit arena gave them
//! when the executor was built ([`AddressPlan`]: the allocator runs once,
//! at plan time, and every run replays its answers), and those offsets
//! travel to the data producers through single-slot address mailboxes.
//! Data moves with one-sided `put`s into the destination heap;
//! per-message arrival flags give the release/acquire happens-before edge
//! `SHMEM_PUT` + flag polling gave on the T3D.
//!
//! Each thread drives one `ProcCore` (`core.rs`) — the five-state
//! machine of the paper's Figure 3(b), shared with the DES — through a
//! thread-side environment: heaps and arrival flags, the task body
//! under `catch_unwind`, the wall clock. Whenever the core is blocked the
//! driver loop checks for a poisoned run, runs the RA (read address
//! packages) and CQ (check suspended queue) service operations — which is
//! what breaks the circular-wait chains in the Theorem 1 proof — looks at
//! the stall watchdog and pauses. Stress tests run many random graphs at
//! exactly `MIN_MEM` capacity to exercise that argument under real
//! interleavings.
//!
//! ## Thread-side hot path
//!
//! - **A wait ends when its event does.** A blocked worker spins, yields
//!   for a few tens of microseconds, then parks ([`Wait`]). The peer that
//!   makes what it waits for happen — raises an arrival flag toward it
//!   (`put`), hands it an address package or drains its package from a slot
//!   (the ports) — or that poisons the run, looks at the worker's
//!   [`rapid_machine::wait::Sleepers`] cell and unparks it. Before the core
//!   is given away, to a yield or to a park, the protocol gets one more
//!   round. Every park is bounded, so RA, CQ and the watchdog keep running;
//!   the watchdog reads the wait's own clock, which a wait that ends in the
//!   spin tier never starts.
//! - **Address packages go through one slot per pair.** The core talks to
//!   a [`rapid_machine::machine::Port`] over the [`DirectMachine`]'s
//!   mailbox board: the paper's unbuffered scheme, in which a sender blocks
//!   on a slot its receiver has not drained (see [`rapid_machine::machine`]
//!   for why a fault-free sender never does).
//!
//! ## Run lifecycle
//!
//! The schedule is built once and run many times, so what a run needs is
//! split by how long it lives. The executor keeps, from one run to the
//! next: the protocol plan and the address plan (every MAP of every
//! processor with its offsets; a schedule the cap or fragmentation rules
//! out is known here, and `run` reports it without starting a worker); the
//! worker threads (a
//! [`rapid_machine::pool::WorkerPool`], one thread per processor, started
//! by the first run and sent home when the executor is dropped; the thread
//! that calls `run` sleeps meanwhile); one [`RmaHeap`] of volatiles per
//! processor; and the trace rings. Built per run, because they are small
//! and their initial state *is* the protocol's initial state: arrival
//! flags, state boards, address tables and mailboxes.
//!
//! The permanents are built per run too, because they are the run's
//! result. Each worker's `Setup` state allocates a zeroed buffer for every
//! object it owns (a `calloc`: pages no task writes are never faulted in)
//! and `init` fills it; tasks, checkpoints and rollbacks use it in place
//! and puts read from it; its `End` state hands the buffers over as they
//! are, and they become [`ThreadedOutcome::objects`] without a copy. The
//! heap keeps its layout ([`AddressPlan`]: permanents below `perm_off`'s
//! extent, volatiles above) but only the volatile part is ever touched, and
//! a kept heap is not re-zeroed: every volatile a task reads is filled by a
//! put first, except one no message fills (an object read remotely that
//! nobody writes), which the task reads as a zeroed buffer of its own. A
//! run that fails gives its heaps back to the allocator instead of keeping
//! them.

use crate::core::{CoreSpec, Cost, Diag, Env, On, ProcCore, Step, NO_ADDR};
use crate::inspector::{ProcDiag, StallSnapshot, StateBoard};
// sync-audit: the only Relaxed atomics in this module are the recovery
// diagnostics counters (`RecovBoard`) — monotonic telemetry read after the
// workers join or for best-effort stall reports, never a publication edge.
// All cross-thread payload hand-offs go through the Release/Acquire
// FlagBoard and mailbox protocols, whose shipping types are model-checked
// by `rapid-machine`'s `flag_model` and `mailbox_model` tests (see
// DESIGN.md §16).

use crate::maps::{AccessOp, AccessViolation, AddressPlan, ExecError, RtPlan};
use rapid_core::graph::{ObjId, TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_machine::fault::{FaultPlan, FaultSite};
use rapid_machine::machine::{DirectMachine, DirectPort};
use rapid_machine::pool::WorkerPool;
use rapid_machine::rma::{FlagBoard, RmaHeap};
use rapid_machine::wait::Wait;
use rapid_trace::{decode_ring, FlatRing, ProcMetrics, ProcTrace, TraceConfig, TraceSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as AtOrd};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The stall watchdog unless [`ThreadedExecutor::with_watchdog`] sets one.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

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
/// Both lists ascend by object id, as the graph's access sets do, so
/// [`TaskCtx::read`] / [`TaskCtx::write`] are a binary search of the
/// task's own list.
pub struct TaskCtx<'h> {
    reads: Vec<(u32, &'h [f64])>,
    writes: Vec<(u32, &'h mut [f64])>,
}

impl<'h> TaskCtx<'h> {
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
        match self.reads.binary_search_by_key(&d.0, |&(o, _)| o) {
            Ok(i) => self.reads[i].1,
            Err(_) => std::panic::panic_any(AccessViolation { obj: d, op: AccessOp::Read }),
        }
    }

    /// Mutable buffer of a written object (reads the previous content for
    /// read-modify-write tasks). If the task does not write `d`, panics
    /// with a typed [`AccessViolation`] payload (see [`TaskCtx::read`]).
    #[inline]
    pub fn write(&mut self, d: ObjId) -> &mut [f64] {
        match self.writes.binary_search_by_key(&d.0, |&(o, _)| o) {
            Ok(i) => &mut *self.writes[i].1,
            Err(_) => std::panic::panic_any(AccessViolation { obj: d, op: AccessOp::Write }),
        }
    }

    /// Ids of read-only objects, ascending.
    pub fn read_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.reads.iter().map(|&(o, _)| ObjId(o))
    }

    /// Ids of written objects, ascending.
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
    /// Peak units in use per processor in the arena the offsets came from
    /// ([`AddressPlan::peak`]; a run that completes reproduces it).
    pub arena_peak: Vec<u64>,
    /// Final contents of every object, in id order: the owners' permanent
    /// buffers themselves, which the tasks wrote in place. The outcome owns
    /// them; a later run on the executor allocates its own.
    pub objects: Vec<Vec<f64>>,
    /// Wall-clock duration of the parallel section: from the hand-off to
    /// the workers until the last of them has left its `End` state, which
    /// includes allocating and loading the permanents (`Setup`).
    pub wall: Duration,
    /// Recorded event traces, when [`ThreadedExecutor::with_tracing`] was
    /// called (one ring per processor, decoded from the flat binary
    /// recording).
    pub trace: Option<TraceSet>,
    /// Per-processor aggregates replayed from the trace (present exactly
    /// when `trace` is).
    pub metrics: Option<Vec<ProcMetrics>>,
}

/// The threaded executor.
pub struct ThreadedExecutor<'a> {
    g: &'a TaskGraph,
    sched: &'a Schedule,
    plan: RtPlan,
    /// Where every buffer of a run lives, or why no run can start.
    addresses: Result<AddressPlan, ExecError>,
    capacity: u64,
    /// Watchdog: poison the run if no local progress (task completion,
    /// address arrival, or message hand-off) happens within this duration.
    /// Defaults to 30 s; see [`ThreadedExecutor::with_watchdog`].
    watchdog: Duration,
    faults: Option<FaultPlan>,
    tracing: Option<TraceConfig>,
    /// Armed for recovery ([`ThreadedExecutor::with_recovery`]).
    armed: bool,
    /// Per processor, the volatiles it reads that no message fills.
    unfilled: Vec<Vec<ObjId>>,
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
    /// One heap of volatiles per processor, parked by the last run if it
    /// succeeded (empty otherwise). A parked heap holds that run's
    /// volatiles; nothing reads one before a put of the next run fills it.
    heaps: Vec<RmaHeap>,
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
    /// [`ThreadEnv::own`] as the worker left it: at the id of every object
    /// it owns, that object's final contents (empty when the worker bailed
    /// out).
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
        let addresses = plan.address_plan(g, sched, capacity);
        let unfilled = unfilled_volatiles(&plan);
        ThreadedExecutor {
            g,
            sched,
            plan,
            addresses,
            capacity,
            watchdog: DEFAULT_WATCHDOG,
            faults: None,
            tracing: None,
            armed: false,
            unfilled,
            kept: Mutex::new(Kept::default()),
        }
    }

    /// The protocol plan this executor runs. Pair with
    /// [`RtPlan::trace_spec`] to build the [`rapid_trace::ProtocolSpec`]
    /// the invariant checker replays a recorded trace against.
    pub fn plan(&self) -> &RtPlan {
        &self.plan
    }

    /// The address plan every run replays, or the error every run returns
    /// instead of starting a worker ([`ExecError::NonExecutable`], or
    /// [`ExecError::Fragmented`] where a best-fit arena has no contiguous
    /// buffer for some MAP's own task): known since
    /// [`ThreadedExecutor::new`].
    pub fn address_plan(&self) -> Result<&AddressPlan, &ExecError> {
        self.addresses.as_ref()
    }

    /// Record a per-processor event trace during the run (builder form).
    /// Recording goes through the flat binary rings: each worker writes
    /// fixed-width records with a single unsynchronized cursor bump, and
    /// decodes its own ring back into the typed [`rapid_trace::Event`]
    /// schema before its thread returns. Every record site is a single
    /// `Option` branch, so runs without tracing keep the untraced hot
    /// path.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> Self {
        self.tracing = Some(cfg);
        self
    }

    /// Override the stall watchdog (builder form; 30 s otherwise).
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Inject a deterministic, seeded fault plan (chaos testing): mailbox
    /// send rejection/delay, RMA put delay and per-task worker jitter.
    /// Without a plan every injection site is a single `Option` branch, so
    /// the fault-free hot path is unchanged.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arm recovery (builder form): a checkpoint of every task's write
    /// set, and rollback & re-execution of a task whose body panics or
    /// violates its access set. A window still failing after
    /// [`WINDOW_ATTEMPTS`](crate::recover::WINDOW_ATTEMPTS) re-executions
    /// surfaces [`ExecError::Unrecoverable`]. Without this call every
    /// recovery site is a single branch and no checkpoint is captured —
    /// the fault-free hot path is unchanged.
    pub fn with_recovery(mut self) -> Self {
        self.armed = true;
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
    /// `init` receives a zeroed buffer, on the first run and on every later
    /// one (each run allocates its permanents afresh, and they become the
    /// outcome's `objects`), so it writes only the nonzeros.
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
        let nprocs = self.sched.assign.nprocs;
        let g = self.g;
        let sched = self.sched;

        let addresses = self.addresses.as_ref().map_err(Clone::clone)?;

        // Everything the executor keeps between runs, for the whole run:
        // a second `run` on this executor waits here.
        let mut kept = self.kept.lock().unwrap_or_else(|p| p.into_inner());
        let Kept { pool, heaps, rings: ring_pool } = &mut *kept;
        let pool = match pool {
            Some(pool) => pool,
            None => pool.insert(WorkerPool::start(nprocs).map_err(|e| ExecError::Internal {
                proc: 0,
                detail: format!("cannot start the worker threads: {e}"),
            })?),
        };

        // The parked heaps leave `kept` for the run and return only if it
        // succeeds: nothing a failed run left behind outlives it.
        let run_heaps: Vec<RmaHeap> = if heaps.is_empty() {
            (0..nprocs).map(|_| RmaHeap::new(self.capacity)).collect()
        } else {
            std::mem::take(heaps)
        };

        // The machine's ports wake whom they hand a package to or drain a
        // slot of, this module whom it raises a flag toward.
        let machine = DirectMachine::new(nprocs);
        let flags = FlagBoard::new(self.plan.msgs.len());
        let state = StateBoard::new(nprocs);
        let recov = RecovBoard::default();
        let poison = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let error = &error;

        // Flat binary recording: one ring per worker, of
        // `TraceConfig::ring_records`. Rings from a previous run on this
        // executor are reset and reused when they still fit the
        // configuration.
        let rings: Option<Vec<FlatRing>> = self.tracing.map(|tc| {
            let want = tc.ring_records();
            let mut pooled = std::mem::take(ring_pool);
            let fits = pooled.len() == nprocs
                && pooled
                    .iter()
                    .enumerate()
                    .all(|(p, r)| r.proc == p as u32 && r.capacity_records() == want as u64);
            if fits {
                for r in &mut pooled {
                    r.reset();
                }
                pooled
            } else {
                (0..nprocs).map(|p| FlatRing::new(p as u32, want)).collect()
            }
        });

        let epoch = Instant::now();
        let shared = Shared {
            spec: CoreSpec {
                g,
                sched,
                plan: &self.plan,
                perm_off: &addresses.perm_off,
                maps: &addresses.placement.per_proc,
                offsets: &addresses.offsets,
                armed: self.armed,
            },
            heaps: &run_heaps,
            unfilled: &self.unfilled,
            flags: &flags,
            machine: &machine,
            state: &state,
            poison: &poison,
            watchdog: self.watchdog,
            faults: self.faults.as_ref(),
            rings: rings.as_deref(),
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
            // What a parked worker waits for may never come now.
            shared.machine.sleepers().wake_all();
        };
        let fail = &fail;

        // The parallel section, on the pool's threads while this one
        // sleeps. Task-body panics are caught inside the worker; a
        // share that comes back as a panic therefore means the worker
        // itself died (an executor bug). Poison the run and surface it as
        // a typed error instead of aborting the process.
        let mut per_proc: Vec<WorkerOut> = pool
            .run(|p| drive(p, shared, fail))
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
            .collect();
        let wall = epoch.elapsed();

        if poison.load(AtOrd::Acquire) {
            return Err(error
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or(ExecError::Stalled { remaining: 0, snapshot: None }));
        }

        // Each owner handed its permanents back as they are: they are the
        // results, and change hands without a copy.
        let objects: Vec<Vec<f64>> = g
            .objects()
            .map(|d| {
                let owner = sched.assign.owner_of(d) as usize;
                std::mem::take(&mut per_proc[owner].owned[d.idx()])
            })
            .collect();

        *heaps = run_heaps;

        let maps = per_proc.iter().map(|w| w.maps).collect();
        let peak_mem = per_proc.iter().map(|w| w.peak_units).collect();
        let arena_peak = addresses.peak.clone();
        // Each worker decoded its own ring (and replayed it into its metrics)
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

        Ok(ThreadedOutcome { maps, peak_mem, arena_peak, objects, wall, trace, metrics })
    }
}

/// Execute the graph sequentially (one buffer per object), lowest ready
/// task id first — the reference the threaded executor is validated
/// against.
pub fn run_sequential<F>(g: &TaskGraph, body: F) -> Vec<Vec<f64>>
where
    F: Fn(TaskId, &mut TaskCtx<'_>),
{
    run_sequential_with_init(g, body, |_, _| {})
}

/// [`run_sequential`] with data initialization (mirrors
/// [`ThreadedExecutor::run_with_init`]): `init` receives a zeroed buffer.
pub fn run_sequential_with_init<F, I>(g: &TaskGraph, body: F, init: I) -> Vec<Vec<f64>>
where
    F: Fn(TaskId, &mut TaskCtx<'_>),
    I: Fn(ObjId, &mut [f64]),
{
    let mut bufs: Vec<Vec<f64>> = g.objects().map(|d| vec![0.0; g.obj_size(d) as usize]).collect();
    for (i, buf) in bufs.iter_mut().enumerate() {
        init(ObjId(i as u32), buf);
    }
    // Kahn's algorithm taking the lowest ready task id: task-id order
    // wherever ids are topological, as on every sparse generator.
    // `TaskGraphBuilder::build` rejects cycles, so every task runs.
    let mut indeg: Vec<u32> = g.tasks().map(|t| g.preds(t).len() as u32).collect();
    let mut ready: BinaryHeap<Reverse<u32>> =
        g.tasks().filter(|t| indeg[t.idx()] == 0).map(|t| Reverse(t.0)).collect();
    while let Some(Reverse(t)) = ready.pop() {
        let t = TaskId(t);
        // Split-borrow the buffers: writes mutably, reads shared.
        let writes_ids = g.writes(t);
        let mut writes: Vec<(u32, &mut [f64])> = Vec::with_capacity(writes_ids.len());
        let mut reads: Vec<(u32, &[f64])> = Vec::new();
        let base = bufs.as_mut_ptr();
        for &d in writes_ids {
            // SAFETY: write ids are distinct and in bounds, and `bufs`
            // outlives the ctx, so this is the one `&mut` to buffer `d`.
            let slice = unsafe { &mut *base.add(d as usize) };
            writes.push((d, slice.as_mut_slice()));
        }
        for &d in g.reads(t) {
            if writes_ids.binary_search(&d).is_err() {
                // SAFETY: `d` is in bounds and not written by `t` (checked
                // just above), so no `&mut` to buffer `d` exists.
                let slice = unsafe { &*base.add(d as usize) };
                reads.push((d, slice.as_slice()));
            }
        }
        body(t, &mut TaskCtx { reads, writes });
        for &s in g.succs(t) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    bufs
}

/// Per processor, each volatile no message toward it carries (no sender
/// watches its address), such as an object nobody writes, read remotely.
/// It is read before anything is put into it, so what the task reads is
/// zeros, from a buffer of the worker's own.
pub(crate) fn unfilled_volatiles(plan: &RtPlan) -> Vec<Vec<ObjId>> {
    let procs = plan.lv.procs.iter().enumerate();
    procs
        .map(|(p, lv)| {
            // Both lists ascend: one merge walk.
            let mut watched = plan.watchers.watched(p as u32).iter().peekable();
            let unwatched = move |d: &ObjId| {
                while watched.next_if(|&&w| w < d.0).is_some() {}
                watched.peek() != Some(&&d.0)
            };
            lv.volatile.iter().copied().filter(unwatched).collect()
        })
        .collect()
}

/// Everything the workers share by reference — one immutable bundle so
/// the worker signature stays small.
struct Shared<'e, F, I> {
    /// What every processor's protocol core is built from.
    spec: CoreSpec<'e>,
    /// The volatiles, one heap per processor.
    heaps: &'e [RmaHeap],
    /// [`unfilled_volatiles`] of the schedule.
    unfilled: &'e [Vec<ObjId>],
    flags: &'e FlagBoard,
    /// The address slots, and who is parked, for whoever ends its wait
    /// (see [`rapid_machine::wait`]).
    machine: &'e DirectMachine,
    state: &'e StateBoard,
    poison: &'e AtomicBool,
    watchdog: Duration,
    faults: Option<&'e FaultPlan>,
    /// Flat recording rings, one per worker (`None` when tracing is off).
    rings: Option<&'e [FlatRing]>,
    recov: &'e RecovBoard,
    /// Epoch of the parallel section; trace timestamps are nanoseconds
    /// since this instant.
    epoch: Instant,
    body: &'e F,
    init: &'e I,
}

/// Lock-free recovery telemetry the workers publish for stall snapshots:
/// the rollbacks so far plus the most recent one. Written only on the
/// (rare) recovery path; unarmed runs never touch it.
#[derive(Default)]
struct RecovBoard {
    /// Rollbacks across processors.
    rollbacks: AtomicU32,
    /// Packed `proc << 48 | pos << 16 | attempt`; 0 = none yet (a first
    /// rollback is attempt 1, so no record packs to 0).
    last: AtomicU64,
}

impl RecovBoard {
    /// Record one rollback on `p` (relaxed: diagnostics only).
    fn note(&self, p: usize, pos: u32, attempt: u32) {
        self.rollbacks.fetch_add(1, AtOrd::Relaxed);
        let packed =
            ((p as u64) << 48) | ((pos as u64 & 0xFFFF_FFFF) << 16) | (attempt as u64 & 0xFFFF);
        self.last.store(packed, AtOrd::Relaxed);
    }

    /// Most recent rollback as `(proc, task position, attempt)`.
    fn last_recovery(&self) -> Option<(u32, u32, u32)> {
        let w = self.last.load(AtOrd::Relaxed);
        (w != 0).then_some(((w >> 48) as u32, ((w >> 16) & 0xFFFF_FFFF) as u32, w as u32 & 0xFFFF))
    }
}

/// The thread-side environment of one worker's protocol core: its
/// permanents and its heap, the arrival flags, the task body, the wall
/// clock and the boards other workers read.
struct ThreadEnv<'e, F, I> {
    p: usize,
    sh: &'e Shared<'e, F, I>,
    /// The clock is *cached*: `Instant::elapsed` is a few tens of ns —
    /// comparable to a flat trace record write, and much more than that
    /// inside a VM — so the core reads it only where [`Env::now`] says.
    last_ts: u64,
    /// Object id → this worker's own buffer of it: the permanent of every
    /// object it owns, a zeroed buffer for each of its
    /// [`unfilled_volatiles`], empty for the rest (which live in the heap).
    /// Under owner-compute every write, every put's source and every
    /// checkpoint is a permanent. A zero-size object reads as an empty
    /// slice from here or from the heap alike.
    own: Vec<Vec<f64>>,
    /// Pooled task-context parts (no allocation in steady state).
    ctx_reads: Vec<(u32, &'e [f64])>,
    ctx_writes: Vec<(u32, &'e mut [f64])>,
    /// Contents of the running task's write set before it ran, for
    /// rollback: `(obj, start in ckpt_data)`. Stays empty on runs not
    /// armed for recovery.
    ckpt: Vec<(u32, usize)>,
    ckpt_data: Vec<f64>,
}

impl<'e, F, I> ThreadEnv<'e, F, I> {
    /// Offset of volatile `d`'s buffer in this processor's heap.
    #[inline]
    fn resolve(&self, local: &[u64], d: ObjId) -> u64 {
        let off = local[d.idx()];
        debug_assert_ne!(off, NO_ADDR, "volatile {d:?} not allocated on P{}", self.p);
        off
    }

    /// The permanent `d`, which this processor owns.
    #[inline]
    fn permanent(&mut self, d: u32) -> &mut Vec<f64> {
        debug_assert_eq!(
            self.sh.spec.sched.assign.owner[d as usize] as usize, self.p,
            "P{} asked for the permanent of an object it does not own",
            self.p
        );
        &mut self.own[d as usize]
    }
}

impl<F, I> Env for ThreadEnv<'_, F, I>
where
    F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
{
    #[inline]
    fn now(&mut self) -> u64 {
        self.last_ts = self.sh.epoch.elapsed().as_nanos() as u64;
        self.last_ts
    }

    #[inline]
    fn recent(&self) -> u64 {
        self.last_ts
    }

    fn delay(&mut self, _: FaultSite, by: Duration) {
        std::thread::sleep(by);
    }

    fn put(&mut self, mid: u32, remote: &[u64]) {
        let sh = self.sh;
        let plan = sh.spec.plan;
        let dst_proc = plan.msgs[mid as usize].dst_proc as usize;
        let dst = &sh.heaps[dst_proc];
        for &d in plan.objs(mid) {
            // A task of ours wrote `d`, so it is one of our permanents.
            let src = self.permanent(d.0);
            // SAFETY: per the module protocol, the destination buffer is
            // exclusively ours to fill until we raise the flag.
            unsafe { dst.put(remote[d.idx()], src) };
        }
        self.sh.flags.raise(mid as usize);
        self.sh.machine.sleepers().wake(dst_proc);
    }

    #[inline]
    fn arrived(&mut self, mid: u32) -> bool {
        self.sh.flags.is_raised(mid as usize)
    }

    fn run_task(&mut self, t: TaskId, local: &[u64]) -> Result<(), ExecError> {
        let (g, heap) = (self.sh.spec.g, &self.sh.heaps[self.p]);
        let writes_ids = g.writes(t);
        // Bodies may read-modify-write their permanents: photograph what
        // this one writes, so that a failed attempt can be undone. Only
        // permanents are written (owner-compute); the volatiles it reads
        // were filled by puts whose flags stay raised.
        if self.sh.spec.armed {
            self.ckpt.clear();
            self.ckpt_data.clear();
            for &w in writes_ids {
                self.ckpt.push((w, self.ckpt_data.len()));
                self.ckpt_data.extend_from_slice(&self.own[w as usize]);
            }
        }
        for &d in writes_ids {
            let buf = self.permanent(d);
            // SAFETY: a permanent is touched by its owner's thread alone,
            // and this task is the one running there. The view is dropped
            // when the context is cleared after the task, before the buffer can be.
            let view = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr(), buf.len()) };
            self.ctx_writes.push((d, view));
        }
        for &d in g.reads(t) {
            if writes_ids.binary_search(&d).is_ok() {
                continue;
            }
            let buf = &self.own[d as usize];
            let view = if buf.is_empty() {
                let d = ObjId(d);
                // SAFETY: arrival flags have been observed with Acquire;
                // no writer may touch this volatile until tasks ordered
                // after us run.
                unsafe { heap.slice(self.resolve(local, d), g.obj_size(d)) }
            } else {
                // SAFETY: as for a write, and no task writes it meanwhile.
                unsafe { std::slice::from_raw_parts(buf.as_ptr(), buf.len()) }
            };
            self.ctx_reads.push((d, view));
        }
        let mut ctx = TaskCtx {
            reads: std::mem::take(&mut self.ctx_reads),
            writes: std::mem::take(&mut self.ctx_writes),
        };
        // A panicking body must not abort the process: catch it at the
        // task boundary and hand it to the protocol as a typed error, to
        // recover from or to poison the run with. An [`AccessViolation`]
        // payload (raised by the ctx accessors) keeps its type.
        let body_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (self.sh.body)(t, &mut ctx);
        }));
        // Reclaim the pooled context lists on both paths — a rolled back
        // task builds its context again.
        let TaskCtx { mut reads, mut writes } = ctx;
        reads.clear();
        writes.clear();
        (self.ctx_reads, self.ctx_writes) = (reads, writes);
        body_ok.map_err(|payload| match payload.downcast::<AccessViolation>() {
            Ok(v) => {
                ExecError::AccessViolation { proc: self.p as u32, task: t, obj: v.obj, op: v.op }
            }
            Err(other) => ExecError::WorkerPanicked {
                proc: self.p as u32,
                task: Some(t),
                payload: panic_payload_str(other.as_ref()),
            },
        })
    }

    /// Threads pay every cost by doing the work; a rollback puts the
    /// failed task's checkpoint back.
    #[inline]
    fn charge(&mut self, cost: Cost) {
        if let Cost::Rollback { pos, attempt } = cost {
            for &(w, start) in &self.ckpt {
                let buf = &mut self.own[w as usize];
                let len = buf.len();
                buf.copy_from_slice(&self.ckpt_data[start..start + len]);
            }
            self.sh.recov.note(self.p, pos, attempt);
        }
    }

    #[inline]
    fn publish(&mut self, d: Diag) {
        self.sh.state.publish(self.p, d);
    }
}

/// One processor's run of the protocol, on its pool thread: allocate and
/// load its permanents, drive the protocol core to its end, hand the
/// permanents back. The trace comes back already decoded from this
/// worker's flat ring (with its aggregate metrics), so decoding runs in
/// parallel across workers.
fn drive<'e, F, I>(
    p: usize,
    sh: &'e Shared<'e, F, I>,
    fail: &(impl Fn(ExecError) + Sync),
) -> WorkerOut
where
    F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
    I: Fn(ObjId, &mut [f64]) + Sync,
{
    let CoreSpec { g, sched, .. } = sh.spec;
    let ring = sh.rings.map(|rs| &rs[p]);
    let mut env = ThreadEnv {
        p,
        sh,
        last_ts: 0,
        own: Vec::new(),
        ctx_reads: Vec::new(),
        ctx_writes: Vec::new(),
        ckpt: Vec::new(),
        ckpt_data: Vec::new(),
    };
    // The core starts in `Setup`, which is ours: everything up to its
    // first step is traced as that state.
    let mut core = ProcCore::new(
        sh.spec,
        p,
        sh.machine.port(p),
        sh.faults.map(|f| f.for_proc(p)),
        ring.map(|r| r.writer()),
        &mut env,
    );
    // Leave the protocol, handing `owned` back. The ring's writer is idle
    // from here on, so decoding it on this worker's own thread (all
    // processors in parallel) sees a quiesced ring.
    let leave = |core: ProcCore<'_, DirectPort<'_>>, owned| WorkerOut {
        maps: core.maps_done(),
        peak_units: core.peak(),
        owned,
        trace: ring.map(|r| {
            let t = decode_ring(r);
            let m = ProcMetrics::from_trace(&t);
            (t, m)
        }),
    };

    // Our permanents, zeroed by the allocator (`vec![0.0; n]` is a
    // `calloc`: a large one arrives as lazily mapped zero pages, first
    // touched on this thread, and pages no task writes are never faulted
    // in), loaded with the resident data. The heap needs nothing: every
    // volatile is filled by a put before a task reads it, except the
    // unfilled ones, which read as zeroed buffers of our own.
    env.own = vec![Vec::new(); g.num_objects()];
    for d in g.objects().filter(|&d| sched.assign.owner_of(d) as usize == p) {
        let mut buf = vec![0.0; g.obj_size(d) as usize];
        (sh.init)(d, &mut buf);
        env.own[d.idx()] = buf;
    }
    for &d in &sh.unfilled[p] {
        env.own[d.idx()] = vec![0.0; g.obj_size(d) as usize];
    }

    // The stall watchdog reads this wait's own clock: time since the last
    // *local progress* (a task or MAP completing, an address package
    // arriving or leaving, a suspended send completing), not total wall
    // time, so a long run that keeps making progress is never poisoned.
    let mut wait = Wait::new(sh.machine.sleepers(), p);
    // What the core was last blocked on: being blocked on something else
    // means the earlier wait ended, which is progress.
    let mut waiting: Option<On> = None;
    // A step taken during a wait's last look (below), still to be acted on.
    let mut looked = None;
    loop {
        match looked.take().unwrap_or_else(|| core.step(&mut env)) {
            Ok(Step::Progress) => {
                core.service(&mut env);
                wait.reset();
                waiting = None;
            }
            // Blocked: keep servicing RA/CQ so the system keeps evolving
            // (Theorem 1).
            Ok(Step::Blocked(on)) => {
                if sh.poison.load(AtOrd::Acquire) {
                    return leave(core, Vec::new());
                }
                let moved_on = waiting.replace(on) != Some(on);
                if core.service(&mut env) || moved_on {
                    wait.reset();
                } else if wait.waited() > sh.watchdog {
                    fail(ExecError::Stalled {
                        remaining: core.remaining(),
                        snapshot: Some(Box::new(build_snapshot(p, sh, ring))),
                    });
                    return leave(core, Vec::new());
                } else {
                    // Before the core is given away — to a yield, and
                    // again, announced as a sleeper, to a park — the
                    // protocol gets one more round.
                    wait.pause(|| {
                        if sh.poison.load(AtOrd::Acquire) {
                            return true;
                        }
                        let step = core.step(&mut env);
                        let still = matches!(step, Ok(Step::Blocked(o)) if o == on);
                        looked = Some(step);
                        !still || core.service(&mut env)
                    });
                }
            }
            Ok(Step::Done) => break,
            Err(e) => {
                fail(e);
                return leave(core, Vec::new());
            }
        }
    }
    // END: every task of this processor has run and every message it owed
    // has been put, so its permanents are final. They leave as they are.
    core.retire(&mut env);
    leave(core, std::mem::take(&mut env.own))
}

/// Assemble the stall diagnostic from the shared introspection surfaces:
/// every worker's published state, suspended-send depth, and the
/// occupancy of every address-mailbox slot — plus, when the reporting
/// worker traces, the tail of its event ring (what it was doing right
/// before the silence). Called (rarely — watchdog expiry only) by the
/// worker that detected the stall, whose own ring writer is idle
/// meanwhile.
fn build_snapshot<F, I>(
    reporter: usize,
    sh: &Shared<'_, F, I>,
    ring: Option<&FlatRing>,
) -> StallSnapshot {
    let nprocs = sh.spec.sched.assign.nprocs;
    let board = sh.machine.board();
    let procs = (0..nprocs)
        .map(|q| {
            let d = sh.state.read(q);
            let mailbox_full_to = (0..nprocs)
                .filter(|&r| r != q && board.slot(q, r).is_full())
                .map(|r| r as u32)
                .collect();
            ProcDiag {
                proc: q as u32,
                state: d.state,
                pos: d.pos,
                order_len: sh.spec.sched.order[q].len() as u32,
                suspended_sends: d.suspended,
                mailbox_full_to,
            }
        })
        .collect();
    StallSnapshot {
        recovery_rollbacks: sh.recov.rollbacks.load(AtOrd::Relaxed),
        last_recovery: sh.recov.last_recovery(),
        ..StallSnapshot::new(
            reporter as u32,
            sh.watchdog.as_millis() as u64,
            sh.flags.raised_count(),
            sh.spec.plan.msgs.len(),
            procs,
            ring,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;

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

    /// A chain of `k` tasks dealt round-robin over `nprocs` processors:
    /// task i writes object i, owned where the task runs, and reads object
    /// i-1, so each task waits on the one before it.
    fn chain(k: usize, nprocs: usize) -> (TaskGraph, Schedule) {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::Assignment;
        let mut b = TaskGraphBuilder::new();
        let objs: Vec<_> = (0..k).map(|_| b.add_object(1)).collect();
        let mut tasks: Vec<TaskId> = Vec::new();
        for i in 0..k {
            let reads: Vec<_> = if i == 0 { vec![] } else { vec![objs[i - 1]] };
            let t = b.add_task(1.0, &reads, &[objs[i]]);
            if i > 0 {
                b.add_edge(tasks[i - 1], t);
            }
            tasks.push(t);
        }
        let on = |i: usize| (i % nprocs) as u32;
        let assign = Assignment {
            task_proc: (0..k).map(on).collect(),
            owner: (0..k).map(on).collect(),
            nprocs,
        };
        let order =
            (0..nprocs).map(|p| tasks.iter().copied().skip(p).step_by(nprocs).collect()).collect();
        (b.build().unwrap(), Schedule { assign, order })
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
        // `t1` reads `dw` too: an object both read and written is written.
        let t1 = b.add_task(1.0, &[dr, dw], &[dw]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        run_sequential(&g, |t, ctx| {
            if t == t1 {
                // Correct accesses work.
                assert_eq!(ctx.read(dr).len(), 1);
                assert_eq!(ctx.write(dw).len(), 1);
                // Wrong-set accesses panic.
                assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.read(dw);
                }))
                .is_err());
                assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.write(dr);
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
        // A two-processor ping-pong chain: every task waits on the
        // previous one across the machine.
        let (g, sched) = chain(30, 2);
        // Each task sleeps 10 ms: total runtime ≈ 300 ms >> 120 ms
        // watchdog, while each single wait stays well under it.
        let exec = ThreadedExecutor::new(&g, &sched, 64).with_watchdog(Duration::from_millis(120));
        let out = exec
            .run(|t, ctx| {
                std::thread::sleep(Duration::from_millis(10));
                test_body(t, ctx)
            })
            .expect("steady progress must never trip the watchdog");
        assert!(out.wall > exec.watchdog, "test must outlive the watchdog");
        assert_eq!(out.objects, run_sequential(&g, test_body));
    }

    /// The Theorem-1 chain through a parked worker: P0 sleeps in REC on a
    /// message P1 cannot send before P0 has read P1's address package and
    /// completed the send it had to suspend. Nothing is raised toward P0
    /// until then, so what gets it to run RA and CQ is the package alone
    /// (its hand-off unparks P0; a park's bound would, a millisecond later).
    #[test]
    fn a_worker_parked_in_rec_serves_an_address_package() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        use rapid_trace::ProtoState;
        let mut b = TaskGraphBuilder::new();
        // P0 owns w, x, z; P1 owns s, y and a big d that leaves it room
        // for one of the volatile copies of w and x at a time.
        let [w, x, z] = [4, 4, 1].map(|n| b.add_object(n));
        let [s, y, d] = [1, 1, 8].map(|n| b.add_object(n));
        let tw = b.add_task(1.0, &[], &[w]);
        let ta = b.add_task(1.0, &[], &[x]);
        let ts = b.add_task(1.0, &[w], &[s, d]);
        let tc = b.add_task(1.0, &[x], &[y]);
        let tb = b.add_task(1.0, &[y], &[z]);
        for (from, to) in [(tw, ts), (ta, tc), (tc, tb)] {
            b.add_edge(from, to);
        }
        let g = b.build().unwrap();
        let assign =
            Assignment { task_proc: vec![0, 0, 1, 1, 0], owner: vec![0, 0, 0, 1, 1, 1], nprocs: 2 };
        let sched = Schedule { assign, order: vec![vec![tw, ta, tb], vec![ts, tc]] };
        let cap = min_mem(&g, &sched).min_mem;
        // P1's first task holds everything up for far longer than a wait
        // yields: P0, blocked in REC for y, is parked when P1's second MAP
        // places x and announces it.
        let hold = Duration::from_millis(40);
        let body = |t: TaskId, ctx: &mut TaskCtx<'_>| {
            if t == ts {
                std::thread::sleep(hold);
            }
            test_body(t, ctx)
        };
        let out = ThreadedExecutor::new(&g, &sched, cap)
            .with_tracing(TraceConfig::default())
            .run(body)
            .expect("the chain resolves");
        assert_eq!(out.objects, run_sequential(&g, test_body));
        assert_eq!(out.maps, vec![1, 2], "x is placed by a MAP of its own, after the hold");
        let p0 = &out.metrics.as_ref().expect("traced")[0];
        assert!(p0.suspended_peak >= 1 && p0.cq_retries >= 1, "x waited in P0's CQ: {p0:?}");
        assert!(
            Duration::from_nanos(p0.dwell_ns[ProtoState::Rec.idx()]) > hold / 2,
            "P0 sat out the hold in REC: {p0:?}"
        );
        assert!(out.wall < hold + Duration::from_secs(2), "and got out of it: {:?}", out.wall);
    }

    /// Eight workers on however few cores pass one token round and round:
    /// at any time one of them can run and seven wait. A waiter that kept
    /// its core for a scheduler timeslice before letting the runnable one
    /// on would make every hop cost milliseconds.
    #[test]
    fn oversubscribed_waits_hand_the_core_over() {
        let (nprocs, hops) = (8usize, 400usize);
        let (g, sched) = chain(hops, nprocs);
        let exec = ThreadedExecutor::new(&g, &sched, min_mem(&g, &sched).min_mem);
        let reference = run_sequential(&g, test_body);
        let fastest = (0..5)
            .map(|_| {
                let out = exec.run(test_body).expect("the token comes round");
                assert_eq!(out.objects, reference);
                out.wall
            })
            .min()
            .expect("five runs");
        eprintln!("oversubscribed ring: {hops} hops on {nprocs} workers in {fastest:?}");
        assert!(fastest < Duration::from_millis(400), "{fastest:?} for {hops} hops");
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
        let (g, sched) = chain(12, 1);
        let exec = ThreadedExecutor::new(&g, &sched, 64).with_tracing(TraceConfig { capacity: 8 });
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

    /// Heap reuse: a run that succeeds parks its heaps with the volatiles
    /// it left in them, a run that fails gives them up, and either way the
    /// next run computes the same objects.
    #[test]
    fn heaps_are_parked_after_success_and_dropped_after_failure() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm);
        let parked = || exec.kept.lock().unwrap().heaps.len();
        assert_eq!(parked(), 0, "nothing is allocated before the first run");
        let reference = run_sequential(&g, test_body);
        assert_eq!(exec.run(test_body).unwrap().objects, reference);
        assert_eq!(parked(), 2);
        // A parked heap is used as it is: every volatile is put before it
        // is read.
        assert_eq!(exec.run(test_body).unwrap().objects, reference);
        let failed = exec.run_with_init(|_, _| panic!("boom"), |_, buf| buf.fill(f64::NAN));
        assert!(matches!(failed, Err(ExecError::WorkerPanicked { .. })));
        assert_eq!(parked(), 0, "a failed run must not park its heaps");
        assert_eq!(exec.run(test_body).unwrap().objects, reference);
        assert_eq!(parked(), 2);
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
        // P0 holds the d0 message hostage for far longer than the
        // watchdog; P1's REC wait sees zero progress in that window.
        let exec = ThreadedExecutor::new(&g, &sched, 16).with_watchdog(Duration::from_millis(60));
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
        // Smoke-level chaos (the full matrix is tests/protocol_sweep.rs):
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
                exec = exec.with_recovery();
            }
            exec.run(test_body).expect("clean run")
        };
        let plain = run(false);
        let armed = run(true);
        assert_eq!(armed.objects, plain.objects);
        assert_eq!(armed.maps, plain.maps);
        let tr = armed.trace.as_ref().expect("tracing enabled");
        assert!(
            tr.procs
                .iter()
                .flat_map(|p| p.iter())
                .all(|(_, e)| !matches!(e, rapid_trace::Event::WindowRollback { .. })),
            "clean armed run must record no recovery events"
        );
        assert_eq!(
            rapid_trace::skeletons(tr),
            rapid_trace::skeletons(plain.trace.as_ref().expect("tracing enabled")),
            "arming recovery must not perturb the protocol skeleton"
        );
    }
}
