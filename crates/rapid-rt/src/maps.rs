//! The shared protocol plan: everything both executors precompute from a
//! schedule before running the active-memory-management protocol.
//!
//! - **Messages** — one per (task, destination processor) pair with at
//!   least one cross-processor dependence edge; it carries the objects
//!   written by the source task and read by the destination tasks (data
//!   presending), or nothing (a pure synchronization message for
//!   cross-processor control edges such as anti-dependence chains).
//! - **Address watchers** — for every volatile object of every processor,
//!   the set of processors that will RMA-put into its buffer and therefore
//!   must be notified of its address when a MAP allocates it.
//! - **Liveness** — first-use rows and lifetime spans per processor
//!   (computed once, `O(Σ access sets)`, the paper's static data-flow
//!   analysis).
//!
//! MAP planning itself ([`MapPlanner`]) is also shared, and done before
//! the run: which volatiles to free, how far ahead the allocation window
//! extends, which address packages to emit. [`RtPlan::place_maps`] walks
//! it down every processor's order by counting alone (the [`MapPlacement`]
//! the verifier and the DES consume); [`RtPlan::address_plan`] is the same
//! walk with a best-fit [`Arena`] beside it, so that every allocation and
//! notification has its offset (what the threaded executor replays).

use rapid_core::graph::{Csr, ObjId, ProcId, TaskGraph, TaskId};
use rapid_core::liveness::Liveness;
use rapid_core::schedule::Schedule;
use rapid_machine::arena::{Arena, ArenaError, FitPolicy};
use rapid_trace::NO_OFFSET;

/// Address watchers in dense, hash-free form: for every volatile object of
/// every processor, the processors that will RMA-put into its buffer and
/// therefore must be notified of its address when a MAP allocates it.
///
/// Per allocating processor, its watched objects ascending and, as row `k`
/// of a [`Csr`], the senders of the `k`-th ascending: the MAP-time query is
/// a binary search over them, with no hashing anywhere in the runtime.
#[derive(Debug, Default)]
pub struct WatcherTable {
    /// `per_proc[p]`: the watched objects of `p` and their senders.
    per_proc: Vec<(Vec<u32>, Csr<ProcId>)>,
}

impl WatcherTable {
    /// Processors that must learn the address of volatile `obj` on `p`
    /// (empty for unwatched objects).
    pub fn of(&self, p: ProcId, obj: u32) -> &[ProcId] {
        let (objs, senders) = &self.per_proc[p as usize];
        match objs.binary_search(&obj) {
            Ok(k) => &senders[k],
            Err(_) => &[],
        }
    }

    /// The objects of `p` some other processor puts into, ascending.
    pub(crate) fn watched(&self, p: ProcId) -> &[u32] {
        &self.per_proc[p as usize].0
    }
}

/// A run-time message: data present from one task's processor to one
/// destination processor. What it carries and who waits on it are rows of
/// the plan: [`RtPlan::objs`] and [`RtPlan::dst_tasks`].
#[derive(Clone, Debug)]
pub struct Message {
    /// Dense message id (index into [`RtPlan::msgs`] and the flag board).
    pub id: u32,
    /// Producing task.
    pub src_task: TaskId,
    /// Processor of the producing task.
    pub src_proc: ProcId,
    /// Destination processor.
    pub dst_proc: ProcId,
    /// Total size of the carried objects in allocation units.
    pub units: u64,
}

/// Precomputed protocol metadata for one schedule.
#[derive(Debug)]
pub struct RtPlan {
    /// All run-time messages.
    pub msgs: Vec<Message>,
    /// Row `mid`: the objects message `mid` carries.
    msg_objs: Csr<ObjId>,
    /// Row `mid`: the tasks waiting on message `mid`.
    msg_dst: Csr<TaskId>,
    /// `in_msgs[t]`: message ids task `t` must receive before running.
    pub in_msgs: Csr,
    /// `out_msgs[t]`: message ids task `t` emits after running.
    pub out_msgs: Csr,
    /// Liveness (volatile lifetimes) per processor.
    pub lv: Liveness,
    /// Dense watcher table: which processors must learn the address of
    /// each volatile object when a MAP allocates it (the procs that put
    /// into it).
    pub watchers: WatcherTable,
    /// Position of every task in its processor's order.
    pub pos: Vec<u32>,
    /// Per-processor total size of permanent objects.
    pub perm_units: Vec<u64>,
}

impl RtPlan {
    /// Build the plan for `sched` over `g`.
    pub fn new(g: &TaskGraph, sched: &Schedule) -> RtPlan {
        let assign = &sched.assign;
        let lv = Liveness::analyze(g, sched);
        let pos = sched.positions();

        let mut msgs: Vec<Message> = Vec::new();
        let (mut msg_objs, mut msg_dst, mut out_msgs): (Csr<ObjId>, Csr<TaskId>, Csr) =
            Default::default();
        let mut in_lens = vec![0u32; g.num_tasks()];
        // Per allocating processor, one `(object << 32) | sender` key per
        // put of a volatile: the watcher table once sorted.
        let mut puts: Vec<Vec<u64>> = vec![Vec::new(); assign.nprocs];
        // Coalesce each task's cross-proc out-edges by (destination
        // processor, carried object set). Edges carrying *different* sets
        // must stay separate messages: merging a pure-sync edge with a
        // data edge would make an early destination task wait on a buffer
        // it only allocates at a later MAP, breaking the Fact-I invariant
        // of the Theorem 1 proof ("if a processor is waiting for receiving
        // a data object, the local address must have already been
        // notified").
        // One scratch pair reused across tasks: the carried object sets
        // laid end to end, and one `(destination, set range, reader)` row
        // per cross-processor edge.
        let mut sets: Vec<u32> = Vec::new();
        let mut edges: Vec<(ProcId, usize, usize, TaskId)> = Vec::new();
        for t in g.tasks() {
            sets.clear();
            edges.clear();
            let sp = assign.proc_of(t);
            let ws = g.writes(t);
            for &s in g.succs(t) {
                let s = TaskId(s);
                let dp = assign.proc_of(s);
                if dp == sp {
                    continue;
                }
                // Objects this edge carries: writes(t) ∩ reads(s), both
                // sorted, so the intersection is sorted and canonical.
                let (rs, start) = (g.reads(s), sets.len());
                sets.extend(ws.iter().copied().filter(|d| rs.binary_search(d).is_ok()));
                edges.push((dp, start, sets.len(), s));
            }
            // Deterministic message order: by (destination, object set),
            // readers ascending within a message (a stable sort of edges
            // pushed in ascending reader order). Every row is appended in
            // place: ids ascend with the sending task, so `out_msgs` is
            // built as it goes and every `in_msgs` row comes out ascending.
            let key = |e: &(ProcId, usize, usize, TaskId)| (e.0, &sets[e.1..e.2]);
            edges.sort_by(|a, b| key(a).cmp(&key(b)));
            for group in edges.chunk_by(|a, b| key(a) == key(b)) {
                let (dp, objs) = key(&group[0]);
                let id = msgs.len() as u32;
                for &d in objs {
                    msg_objs.push(ObjId(d));
                    if assign.owner_of(ObjId(d)) != dp {
                        puts[dp as usize].push(u64::from(d) << 32 | u64::from(sp));
                    }
                }
                msg_objs.end_row();
                // `succs` holds each reader once.
                for &(_, _, _, reader) in group {
                    msg_dst.push(reader);
                    in_lens[reader.idx()] += 1;
                }
                msg_dst.end_row();
                out_msgs.push(id);
                let units = objs.iter().map(|&d| g.obj_size(ObjId(d))).sum();
                msgs.push(Message { id, src_task: t, src_proc: sp, dst_proc: dp, units });
            }
            out_msgs.end_row();
        }
        let in_msgs = Csr::deal(
            in_lens,
            msg_dst.rows().zip(0u32..).flat_map(|(r, id)| r.iter().map(move |dt| (dt.idx(), id))),
        );

        let mut watchers = WatcherTable::default();
        for mut keys in puts {
            keys.sort_unstable();
            keys.dedup();
            let (mut objs, mut senders) = (Vec::new(), Csr::default());
            for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                objs.push((run[0] >> 32) as u32);
                run.iter().for_each(|&k| senders.push(k as ProcId));
                senders.end_row();
            }
            watchers.per_proc.push((objs, senders));
        }

        let mut perm_units = vec![0u64; assign.nprocs];
        for d in g.objects() {
            perm_units[assign.owner_of(d) as usize] += g.obj_size(d);
        }

        RtPlan { msgs, msg_objs, msg_dst, in_msgs, out_msgs, lv, watchers, pos, perm_units }
    }

    /// Objects message `mid` carries: written by its source task, read by
    /// at least one of its destination tasks, ascending. Empty for a pure
    /// synchronization message.
    pub fn objs(&self, mid: u32) -> &[ObjId] {
        &self.msg_objs[mid as usize]
    }

    /// Destination tasks waiting on message `mid`, ascending.
    pub fn dst_tasks(&self, mid: u32) -> &[TaskId] {
        &self.msg_dst[mid as usize]
    }

    /// Messages carrying data (non-empty object list).
    pub fn data_msg_count(&self) -> usize {
        self.msg_objs.rows().filter(|r| !r.is_empty()).count()
    }

    /// The plain-data protocol description the trace invariant checker
    /// replays against ([`rapid_trace::check::check`]). `capacity` is the
    /// per-processor memory cap the run executed under.
    pub fn trace_spec(&self, capacity: u64) -> rapid_trace::ProtocolSpec {
        rapid_trace::ProtocolSpec {
            nprocs: self.perm_units.len(),
            msgs: self
                .msgs
                .iter()
                .map(|m| rapid_trace::MsgSpec {
                    src_proc: m.src_proc,
                    dst_proc: m.dst_proc,
                    objs: self.objs(m.id).iter().map(|d| d.0).collect(),
                })
                .collect(),
            in_msgs: self.in_msgs.rows().map(<[u32]>::to_vec).collect(),
            out_msgs: self.out_msgs.rows().map(<[u32]>::to_vec).collect(),
            capacity,
            perm_units: self.perm_units.clone(),
        }
    }

    /// Precompute the full MAP placement of this plan under `capacity`
    /// with the given window policy: [`MapPlanner`] run to completion for
    /// every processor (MAP decisions depend only on the static order and
    /// the counting allocation state). Fails with
    /// [`ExecError::NonExecutable`] at the first window whose immediate
    /// task cannot be provisioned (Definition 6).
    pub fn place_maps(
        &self,
        g: &TaskGraph,
        sched: &Schedule,
        capacity: u64,
        window: MapWindow,
    ) -> Result<MapPlacement, ExecError> {
        let mut per_proc = Vec::with_capacity(sched.order.len());
        for p in 0..sched.order.len() {
            per_proc.push(self.walk_proc(g, sched, p as ProcId, capacity, window, None)?);
        }
        Ok(MapPlacement { capacity, window, per_proc })
    }

    /// The complete MAP walk of one processor under `capacity`: by
    /// counting alone, or with `placer` also through an arena.
    fn walk_proc(
        &self,
        g: &TaskGraph,
        sched: &Schedule,
        p: ProcId,
        capacity: u64,
        window: MapWindow,
        mut placer: Option<&mut Placer>,
    ) -> Result<Vec<PlannedMap>, ExecError> {
        let mut planner = MapPlanner::new(g, self, p, capacity);
        let mut rows: Vec<PlannedMap> = Vec::new();
        let mut pos = 0u32;
        loop {
            let mut m = planner.run_map(g, sched, self, pos, window)?;
            if let Some(placer) = placer.as_deref_mut() {
                placer.place(g, &mut planner, &mut m)?;
            }
            pos = m.next_map;
            rows.push(m);
            if pos as usize >= sched.order[p as usize].len() {
                break;
            }
        }
        Ok(rows)
    }

    /// The address plan under `capacity`: [`MapPlanner`] and an [`Arena`]
    /// of policy `fit` walked together (the executors pass
    /// [`FitPolicy::BestFit`]; first-fit exists for the ablation bench),
    /// the permanent objects as the arena's reserved prefix.
    ///
    /// Where the arena cannot place a *lookahead* allocation contiguously,
    /// the window is cut right before the task that introduces it: every
    /// object of that task and everything after it go back to the planner
    /// and are planned again by the MAP now due there, after its free wave
    /// has had a chance to coalesce room. A MAP therefore allocates, and
    /// announces, only what a task of its own window uses. Only the task
    /// at the MAP's own position
    /// failing to place is an error — [`ExecError::Fragmented`], or
    /// [`ExecError::NonExecutable`] where counting already refuses — for
    /// the lowest processor it happens on.
    pub fn address_plan(
        &self,
        g: &TaskGraph,
        sched: &Schedule,
        capacity: u64,
        window: MapWindow,
        fit: FitPolicy,
    ) -> Result<AddressPlan, ExecError> {
        let nprocs = sched.order.len();
        if let Some(o) = (0..nprocs).find(|&o| self.perm_units[o] > capacity) {
            return Err(ExecError::NonExecutable {
                proc: o as ProcId,
                position: 0,
                needed: self.perm_units[o],
                capacity,
            });
        }
        let mut plan = AddressPlan {
            placement: MapPlacement { capacity, window, per_proc: Vec::new() },
            perm_off: permanent_layout(g, sched),
            ..AddressPlan::default()
        };
        for p in 0..nprocs {
            let mut placer = Placer {
                arena: Arena::with_reserved(capacity, self.perm_units[p], fit),
                offsets: vec![NO_OFFSET; g.num_objects()],
                cuts: 0,
            };
            let rows =
                self.walk_proc(g, sched, p as ProcId, capacity, window, Some(&mut placer))?;
            plan.placement.per_proc.push(rows);
            // Not the arena's marks: those also count what a cut gave back.
            let ends = g.objects().zip(&placer.offsets).filter(|(_, &off)| off != NO_OFFSET);
            let high_water =
                ends.map(|(d, off)| off + g.obj_size(d)).fold(self.perm_units[p], u64::max);
            plan.high_water.push(high_water);
            plan.offsets.push(placer.offsets);
            plan.cuts.push(placer.cuts);
        }
        plan.peak = plan.placement.peaks(&self.perm_units);
        Ok(plan)
    }

    /// Estimated storage for the dependence structure itself, in
    /// allocation units (8-byte words): edges, access sets, message
    /// tables and liveness tables. The paper's §6 observes this overhead
    /// at 18–50 % of total memory on its test problems and calls
    /// distributing it future work; this estimator lets the benches report
    /// the same ratio for our workloads.
    pub fn control_units(&self, g: &rapid_core::graph::TaskGraph) -> u64 {
        // Two 4-byte ids per edge (succs + preds mirrors), one per access
        // entry (reads + writes + the two transposes), three words per
        // message record plus its object/destination rows, and a first
        // and a last use per volatile.
        let edge_words = 2 * g.num_edges() as u64;
        let access_entries: u64 =
            g.tasks().map(|t| 2 * (g.reads(t).len() + g.writes(t).len()) as u64).sum();
        let msg_words =
            (3 * self.msgs.len() + self.msg_objs.num_edges() + self.msg_dst.num_edges()) as u64;
        let live_words: u64 = self.lv.procs.iter().map(|pl| 2 * pl.volatile.len() as u64).sum();
        // Two 4-byte entries per unit (one unit = 8 bytes).
        (edge_words + access_entries + msg_words + live_words).div_ceil(2)
    }
}

/// One address notification a MAP must emit: tell `dst` that `obj` now
/// lives at `offset` on the allocating processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Notify {
    /// Processor to notify.
    pub dst: ProcId,
    /// Object id.
    pub obj: u32,
    /// Buffer offset in the allocating processor's arena: the object's
    /// entry in an [`AddressPlan`], [`NO_OFFSET`] in the counting rows of
    /// [`RtPlan::place_maps`].
    pub offset: u64,
}

/// One statically planned MAP window: what the executors replay at `pos`,
/// plus the resulting arena occupancy. Part of the checkable
/// [`MapPlacement`] artifact consumed by `rapid-verify`.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedMap {
    /// Order position the MAP precedes (frees happen here).
    pub pos: u32,
    /// Volatile objects freed by this MAP's free wave (dead before `pos`).
    pub frees: Vec<ObjId>,
    /// Volatile objects allocated by this window, in allocation order.
    pub allocs: Vec<ObjId>,
    /// `alloc_pos[i]`: the order position whose task first uses
    /// `allocs[i]` — which window step introduced the allocation, and
    /// where the address walk cuts the window if it cannot place it
    /// contiguously ([`RtPlan::address_plan`]).
    pub alloc_pos: Vec<u32>,
    /// Position (exclusive) up to which tasks are covered: the next MAP
    /// goes right before this position.
    pub next_map: u32,
    /// Address notifications the MAP emits, sorted by (destination,
    /// object); see [`Notify::offset`] for what the offsets are.
    pub notifies: Vec<Notify>,
    /// Units in use after this window's allocations. Occupancy is
    /// monotone within a window, so this is the window's high-water mark
    /// — the quantity `rapid-verify` checks against the capacity and the
    /// DES trace's `MapEnd` events report dynamically.
    pub in_use: u64,
}

/// The complete static MAP placement of a plan: every window every
/// processor will execute, precomputed. MAP decisions are purely local
/// and deterministic (free wave + greedy window over the static order),
/// so the placement is exact — it is the "plan artifact" `rapid-verify`
/// analyses, the negative tests corrupt and the DES replays.
///
/// The counting placement of [`RtPlan::place_maps`] knows nothing of
/// contiguity. The threaded executor replays the one inside its
/// [`AddressPlan`]: the same, but for a window cut short wherever
/// fragmentation stopped a lookahead allocation ([`AddressPlan::cuts`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapPlacement {
    /// Per-processor capacity the placement was computed for.
    pub capacity: u64,
    /// Window policy used.
    pub window: MapWindow,
    /// `per_proc[p]`: the MAP windows of processor `p`, in execution
    /// order. A processor with an empty order still performs one (empty)
    /// MAP before terminating, matching the managed executors.
    pub per_proc: Vec<Vec<PlannedMap>>,
}

impl MapPlacement {
    /// Total number of MAPs across all processors.
    pub fn total_maps(&self) -> usize {
        self.per_proc.iter().map(|w| w.len()).sum()
    }

    /// Per-processor arena high-water of the placement: the maximum
    /// window occupancy, at least the permanent size (`perm[p]`) for
    /// processors whose windows allocate nothing.
    pub fn peaks(&self, perm_units: &[u64]) -> Vec<u64> {
        self.per_proc
            .iter()
            .zip(perm_units)
            .map(|(ws, &pu)| ws.iter().map(|w| w.in_use).fold(pu, u64::max))
            .collect()
    }
}

/// Where every buffer of a run lives, decided before the run
/// ([`RtPlan::address_plan`]). The threaded executor builds one when it is
/// constructed and every run replays it, so no allocator and no window
/// planner runs beside the peer's waits, and the arena occupancy of a run
/// is this plan's by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AddressPlan {
    /// The MAPs as they will be performed. [`Notify::offset`]s are real;
    /// a window the arena could not follow to its counted end is cut.
    pub placement: MapPlacement,
    /// [`permanent_layout`]: object id → offset on the owner's heap.
    pub perm_off: Vec<u64>,
    /// `offsets[p][d]`: offset of volatile `d`'s buffer on processor `p`,
    /// for its one lifetime there ([`NO_OFFSET`] for every other object).
    pub offsets: Vec<Vec<u64>>,
    /// Per processor, the most units ever in use (permanents included).
    pub peak: Vec<u64>,
    /// Per processor, one past the highest unit any buffer covers: the
    /// prefix of the heap a run can write.
    pub high_water: Vec<u64>,
    /// Per processor, the windows cut short of their counted end.
    pub cuts: Vec<u32>,
}

/// The arena side of the address walk of one processor.
struct Placer {
    arena: Arena,
    /// Object id → offset, for the objects placed so far.
    offsets: Vec<u64>,
    cuts: u32,
}

impl Placer {
    /// Carry out on the arena the MAP `m` that `planner` just planned and
    /// committed (see [`RtPlan::address_plan`]).
    fn place(
        &mut self,
        g: &TaskGraph,
        planner: &mut MapPlanner,
        m: &mut PlannedMap,
    ) -> Result<(), ExecError> {
        let proc = planner.proc;
        let internal = |detail| ExecError::Internal { proc, detail };
        for &d in &m.frees {
            let off = self.offsets[d.idx()];
            self.arena
                .free(off)
                .map_err(|e| internal(format!("MAP free of {d:?} at {off} rejected: {e}")))?;
        }
        for i in 0..m.allocs.len() {
            let d = m.allocs[i];
            match self.arena.alloc(g.obj_size(d)) {
                Ok(off) => self.offsets[d.idx()] = off,
                Err(ArenaError::Fragmented { .. }) if m.alloc_pos[i] != m.pos => {
                    // Cut before the task that uses `d`, not in the middle
                    // of it: what was just placed for that same task goes
                    // back too, or this MAP would announce buffers none of
                    // its tasks reads.
                    let cut = m.alloc_pos[i];
                    let keep = m.alloc_pos.partition_point(|&at| at < cut);
                    for &dd in &m.allocs[keep..i] {
                        let off = std::mem::replace(&mut self.offsets[dd.idx()], NO_OFFSET);
                        self.arena.free(off).map_err(|e| {
                            internal(format!("cut cannot give {dd:?} at {off} back: {e}"))
                        })?;
                    }
                    for &dd in &m.allocs[keep..] {
                        planner.rollback_alloc(g, dd);
                    }
                    m.next_map = cut;
                    m.allocs.truncate(keep);
                    m.alloc_pos.truncate(keep);
                    m.notifies.retain(|n| planner.is_allocated(ObjId(n.obj)));
                    m.in_use = planner.in_use;
                    self.cuts += 1;
                    break;
                }
                Err(ArenaError::Fragmented { requested, largest }) => {
                    return Err(ExecError::Fragmented { proc, requested, largest })
                }
                // Counting said the units are there.
                Err(e) => return Err(internal(format!("MAP alloc of {d:?} rejected: {e}"))),
            }
        }
        for n in &mut m.notifies {
            n.offset = self.offsets[n.obj as usize];
        }
        Ok(())
    }
}

/// The deterministic permanent layout: objects in id order, bump
/// allocated from 0 on the owner's heap, so their addresses are globally
/// known without notification, as in RAPID.
pub fn permanent_layout(g: &TaskGraph, sched: &Schedule) -> Vec<u64> {
    let mut cursor = vec![0u64; sched.assign.nprocs];
    g.objects()
        .map(|d| {
            let c = &mut cursor[sched.assign.owner_of(d) as usize];
            *c += g.obj_size(d);
            *c - g.obj_size(d)
        })
        .collect()
}

/// Which access-set lookup a task body attempted when it violated its
/// declared access set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOp {
    /// [`TaskCtx::read`](crate::threaded::TaskCtx::read) of an object not
    /// in the task's read-only set.
    Read,
    /// [`TaskCtx::write`](crate::threaded::TaskCtx::write) of an object
    /// not in the task's write set.
    Write,
}

/// The panic payload raised by [`TaskCtx`](crate::threaded::TaskCtx)
/// accessors on a wrong-set access. The threaded executor catches it at
/// the task boundary and converts it into
/// [`ExecError::AccessViolation`]; in the sequential reference it unwinds
/// like any panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessViolation {
    /// Object the body asked for.
    pub obj: ObjId,
    /// Which accessor it used.
    pub op: AccessOp,
}

impl std::fmt::Display for AccessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            AccessOp::Read => write!(f, "task does not read-only {:?}", self.obj),
            AccessOp::Write => write!(f, "task does not write {:?}", self.obj),
        }
    }
}

/// Errors shared by the executors.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The schedule cannot run under the memory constraint: at some MAP,
    /// even after freeing every dead volatile, the very next task's
    /// objects do not fit (the paper's `∞` entries, Definition 6).
    NonExecutable {
        /// Processor that failed.
        proc: ProcId,
        /// Position of the task that could not be provisioned.
        position: u32,
        /// Units that would be needed in use simultaneously.
        needed: u64,
        /// The per-processor capacity.
        capacity: u64,
    },
    /// The event loop stalled with unfinished tasks — a protocol bug
    /// (Theorem 1 says this cannot happen); surfaced for debugging rather
    /// than panicking.
    Stalled {
        /// Tasks that never ran.
        remaining: usize,
        /// Diagnostic snapshot: every processor's state and position,
        /// taken by the worker whose watchdog fired (threaded executor)
        /// or when the event heap ran dry (DES).
        snapshot: Option<Box<crate::inspector::StallSnapshot>>,
    },
    /// A MAP's own task cannot be given a contiguous buffer (enough free
    /// units but no block large enough): found by the address walk before
    /// the run ([`RtPlan::address_plan`]), or, with `largest` 0, an
    /// injected allocation failure that outlasted its retries.
    Fragmented {
        /// Processor that failed.
        proc: ProcId,
        /// Requested units.
        requested: u64,
        /// Largest contiguous free block at the time of failure.
        largest: u64,
    },
    /// A task body panicked, or a worker thread died outside a task body
    /// (`task` is then `None`). The run is poisoned and every other
    /// worker exits cleanly instead of the whole process aborting.
    WorkerPanicked {
        /// Processor whose worker panicked.
        proc: ProcId,
        /// Task whose body panicked, when the panic was raised inside one.
        task: Option<TaskId>,
        /// Stringified panic payload (`"<non-string payload>"` when the
        /// payload was neither `&str` nor `String`).
        payload: String,
    },
    /// A runtime invariant the protocol proof relies on was violated
    /// (e.g. a planned free did not match a live arena block). Surfaced as
    /// a typed error through the normal failure path so a buggy build
    /// poisons the run instead of panicking a worker thread.
    Internal {
        /// Processor that detected the violation.
        proc: ProcId,
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// A task body accessed an object outside its declared access set —
    /// caught at the task boundary and surfaced through the normal
    /// failure path instead of aborting the process.
    AccessViolation {
        /// Processor whose task violated its access set.
        proc: ProcId,
        /// The violating task.
        task: TaskId,
        /// Object the body asked for.
        obj: ObjId,
        /// Which accessor it used.
        op: AccessOp,
    },
    /// Recovery gave up: a window kept failing until its re-execution
    /// budget was exhausted. Carries the underlying error so the cause
    /// of the *last* attempt is never lost, and names the budget so
    /// operators can tell a too-small budget from a hard fault.
    Unrecoverable {
        /// Processor whose window could not be recovered.
        proc: ProcId,
        /// Order position the failing window starts at.
        pos: u32,
        /// Re-execution attempts consumed (the exhausted budget).
        attempts: u32,
        /// The failure of the final attempt.
        cause: Box<ExecError>,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NonExecutable { proc, position, needed, capacity } => write!(
                f,
                "non-executable under memory constraint: P{proc} task #{position} needs {needed} units, capacity {capacity}"
            ),
            ExecError::Stalled { remaining, snapshot } => {
                write!(f, "execution stalled with {remaining} tasks remaining")?;
                if let Some(s) = snapshot {
                    write!(f, "\n{s}")?;
                }
                Ok(())
            }
            ExecError::Fragmented { proc, requested, largest } => write!(
                f,
                "arena fragmentation on P{proc}: {requested} units unavailable (largest contiguous block {largest})"
            ),
            ExecError::WorkerPanicked { proc, task, payload } => match task {
                Some(t) => write!(f, "task {t:?} on P{proc} panicked: {payload}"),
                None => write!(f, "worker thread of P{proc} panicked: {payload}"),
            },
            ExecError::Internal { proc, detail } => {
                write!(f, "internal runtime invariant violated on P{proc}: {detail}")
            }
            ExecError::AccessViolation { proc, task, obj, op } => {
                write!(
                    f,
                    "access violation in task {task:?} on P{proc}: {}",
                    AccessViolation { obj: *obj, op: *op }
                )
            }
            ExecError::Unrecoverable { proc, pos, attempts, cause } => write!(
                f,
                "unrecoverable: window at P{proc} pos {pos} still failing after {attempts} re-execution attempts (budget exhausted); last cause: {cause}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// How far ahead a MAP allocates (ablation knob; the paper's scheme is
/// greedy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MapWindow {
    /// Allocate for as many upcoming tasks as fit (paper §3.3: "the
    /// allocation will stop after `T_k` if space for `T_{k+1}` cannot be
    /// allocated").
    #[default]
    Greedy,
    /// Allocate only the immediate next task's objects — a MAP before
    /// every task. Minimizes resident volatile space between MAPs at the
    /// cost of the maximum number of allocation points.
    Single,
}

/// Per-processor MAP planner: owns the set of currently-allocated
/// volatiles (by counting, not offsets) and plans each MAP in turn. It
/// runs before the run, inside the walks of [`RtPlan::place_maps`] and
/// [`RtPlan::address_plan`]; the executors replay what it planned.
///
/// Its state is dense: one membership flag and one static last use per
/// object, plus the allocated volatiles in no particular order, so an
/// allocation is a push, a membership test one read, and a free wave one
/// pass over what is allocated (its frees sorted by object id after).
#[derive(Debug)]
pub struct MapPlanner {
    proc: ProcId,
    capacity: u64,
    /// `last[d]`: the static last use of volatile `d` on this processor,
    /// `u32::MAX` (never freed) for any other object.
    last: Vec<u32>,
    /// `resident[d]`: is volatile `d` currently allocated?
    resident: Vec<bool>,
    /// The currently allocated volatiles, in no particular order.
    allocated: Vec<ObjId>,
    /// Units in use by permanents + allocated volatiles.
    in_use: u64,
}

impl MapPlanner {
    /// Planner for processor `p` of `plan` with the given capacity;
    /// permanents are allocated immediately.
    pub fn new(g: &TaskGraph, plan: &RtPlan, p: ProcId, capacity: u64) -> MapPlanner {
        let pl = &plan.lv.procs[p as usize];
        let mut last = vec![u32::MAX; g.num_objects()];
        for (d, &(_, l)) in pl.volatile.iter().zip(&pl.volatile_span) {
            last[d.idx()] = l;
        }
        MapPlanner {
            proc: p,
            capacity,
            last,
            resident: vec![false; g.num_objects()],
            allocated: Vec::new(),
            in_use: plan.perm_units[p as usize],
        }
    }

    /// Is volatile `d` currently allocated?
    fn is_allocated(&self, d: ObjId) -> bool {
        self.resident[d.idx()]
    }

    /// Plan and commit the MAP at position `pos` of this processor's
    /// order. Frees volatiles dead before `pos`, then extends the
    /// allocation window as `window` says; fails if the task at `pos`
    /// itself cannot be provisioned (Definition 6).
    pub fn run_map(
        &mut self,
        g: &TaskGraph,
        sched: &Schedule,
        plan: &RtPlan,
        pos: u32,
        window: MapWindow,
    ) -> Result<PlannedMap, ExecError> {
        let p = self.proc as usize;
        let pl = &plan.lv.procs[p];
        let order = &sched.order[p];

        // Free volatiles whose last use is strictly before `pos`. Only
        // objects from this processor's volatile set ever enter
        // `allocated`, and anything else would keep `u32::MAX` and stay.
        let (last, resident) = (&self.last, &mut self.resident);
        let mut frees = Vec::new();
        self.allocated.retain(|&d| {
            let dead = last[d.idx()] < pos;
            if dead {
                frees.push(d);
                resident[d.idx()] = false;
            }
            !dead
        });
        frees.sort_unstable();
        for &d in &frees {
            self.in_use -= g.obj_size(d);
        }

        // Extend the allocation window: walk tasks pos.. and allocate each
        // task's missing volatiles; stop before the first task that does
        // not fit (paper §3.3: "the allocation will stop after T_k if
        // space for T_{k+1} cannot be allocated").
        let mut allocs: Vec<ObjId> = Vec::new();
        let mut alloc_pos: Vec<u32> = Vec::new();
        let mut next_map = pos;
        for j in pos as usize..order.len() {
            // Volatiles first used at position j are exactly the ones this
            // task introduces (anything used earlier is already allocated
            // or was newly allocated in this window).
            let new_here = pl.first_use[j].iter().filter(|d| !self.resident[d.idx()]);
            let add: u64 = new_here.clone().map(|&d| g.obj_size(d)).sum();
            if self.in_use + add > self.capacity {
                if j as u32 == pos {
                    // The immediate next task does not fit: non-executable.
                    return Err(ExecError::NonExecutable {
                        proc: self.proc,
                        position: pos,
                        needed: self.in_use + add,
                        capacity: self.capacity,
                    });
                }
                break;
            }
            let start = allocs.len();
            allocs.extend(new_here);
            for &d in &allocs[start..] {
                self.resident[d.idx()] = true;
                alloc_pos.push(j as u32);
            }
            self.allocated.extend_from_slice(&allocs[start..]);
            self.in_use += add;
            next_map = j as u32 + 1;
            if window == MapWindow::Single {
                break;
            }
        }

        // Address notifications for freshly allocated volatiles, pre-sorted
        // by (destination, object) so executors can batch one package per
        // destination with a single linear walk.
        let mut notifies = Vec::new();
        for &d in &allocs {
            for &w in plan.watchers.of(self.proc, d.0) {
                notifies.push(Notify { dst: w, obj: d.0, offset: NO_OFFSET });
            }
        }
        notifies.sort_unstable_by_key(|n| (n.dst, n.obj));

        Ok(PlannedMap { pos, frees, allocs, alloc_pos, next_map, notifies, in_use: self.in_use })
    }

    /// Undo one allocation committed by the most recent
    /// [`MapPlanner::run_map`]: remove `d` from the allocated set and
    /// release its units. The address walk calls this when its arena
    /// cannot place a planned *lookahead* allocation — the object is
    /// planned again by the next MAP.
    fn rollback_alloc(&mut self, g: &TaskGraph, d: ObjId) {
        if std::mem::take(&mut self.resident[d.idx()]) {
            // The latest allocations sit at the end.
            if let Some(k) = self.allocated.iter().rposition(|&x| x == d) {
                self.allocated.swap_remove(k);
            }
            self.in_use -= g.obj_size(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;

    /// `RtPlan::new` groups a task's cross-processor edges by sorting one
    /// scratch list. The definition it has to reproduce — ids, order,
    /// contents — is the map it replaced: one message per (destination,
    /// carried object set), keys in ascending order, readers ascending.
    /// The watcher rows and the unfilled volatiles are read off the same
    /// messages, by their definitions.
    #[test]
    fn messages_are_the_grouping_by_destination_and_object_set() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, CostModel};
        let mut unfilled_seen = 0;
        for seed in 0..8u64 {
            let spec = fixtures::RandomGraphSpec {
                objects: 20,
                tasks: 80,
                max_reads: 4,
                update_prob: 0.4,
                ..Default::default()
            };
            let g = fixtures::random_irregular_graph(seed, &spec);
            let p = 2 + seed as usize % 3;
            let owner = rapid_sched::cyclic_owner_map(g.num_objects(), p);
            let assign = rapid_sched::owner_compute_assignment(&g, &owner, p);
            let sched = rapid_sched::mpo_order(&g, &assign, &CostModel::unit());
            unfilled_seen += check_plan_tables(&format!("seed {seed}"), &g, &sched);
        }
        assert_eq!(unfilled_seen, 0, "every object a random graph reads was written first");
        // `z` is never written and read on P1, beside `x`, which P0 writes
        // into P1's own permanent (not owner-compute): nobody watches `x`,
        // and on P0 it is a volatile no message fills, as `z` is on P1.
        let mut b = TaskGraphBuilder::new();
        let (x, z, y) = (b.add_object(1), b.add_object(2), b.add_object(1));
        let w = b.add_task(1.0, &[], &[x]);
        let r = b.add_task(1.0, &[x, z], &[y]);
        b.add_edge(w, r);
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0, 1], owner: vec![1, 0, 1], nprocs: 2 };
        let sched = Schedule { assign, order: vec![vec![w], vec![r]] };
        assert_eq!(check_plan_tables("unwritten read", &g, &sched), 2);
    }

    /// Check every message, per-task table, watcher row and unfilled
    /// volatile of `sched`'s plan against its definition; returns how many
    /// unfilled volatiles there are.
    fn check_plan_tables(label: &str, g: &TaskGraph, sched: &Schedule) -> usize {
        use std::collections::BTreeMap;
        let plan = RtPlan::new(g, sched);
        let mut want: Vec<(TaskId, ProcId, Vec<u32>, Vec<TaskId>)> = Vec::new();
        for t in g.tasks() {
            let mut by_key: BTreeMap<(ProcId, Vec<u32>), Vec<TaskId>> = BTreeMap::new();
            for &s in g.succs(t) {
                let dp = sched.assign.proc_of(TaskId(s));
                if dp != sched.assign.proc_of(t) {
                    let objs: Vec<u32> = g
                        .writes(t)
                        .iter()
                        .copied()
                        .filter(|d| g.reads(TaskId(s)).contains(d))
                        .collect();
                    by_key.entry((dp, objs)).or_default().push(TaskId(s));
                }
            }
            for ((dp, objs), mut readers) in by_key {
                readers.sort_unstable();
                readers.dedup();
                want.push((t, dp, objs, readers));
            }
        }
        assert_eq!(plan.msgs.len(), want.len(), "{label}");
        for (m, (t, dp, objs, readers)) in plan.msgs.iter().zip(&want) {
            let got: Vec<u32> = plan.objs(m.id).iter().map(|d| d.0).collect();
            assert_eq!(
                (m.src_task, m.dst_proc, &got[..], plan.dst_tasks(m.id)),
                (*t, *dp, &objs[..], &readers[..]),
                "{label}"
            );
            assert_eq!(m.units, objs.iter().map(|&d| g.obj_size(ObjId(d))).sum::<u64>());
        }
        // The per-task tables are the same relation, ids ascending.
        for t in g.tasks() {
            let outs: Vec<u32> =
                plan.msgs.iter().filter(|m| m.src_task == t).map(|m| m.id).collect();
            let ins: Vec<u32> = (0..plan.msgs.len() as u32)
                .filter(|&mid| plan.dst_tasks(mid).contains(&t))
                .collect();
            let got = (&plan.out_msgs[t.idx()], &plan.in_msgs[t.idx()]);
            assert_eq!(got, (&outs[..], &ins[..]), "{label}");
        }
        let carries =
            |m: &Message, p: ProcId, d: ObjId| m.dst_proc == p && plan.objs(m.id).contains(&d);
        let unfilled = crate::threaded::unfilled_volatiles(&plan);
        for p in 0..sched.assign.nprocs as ProcId {
            // Watchers of `d` on `p`: the sorted senders of the messages
            // that carry `d` to `p`, which does not own it.
            let mut watched = Vec::new();
            for d in g.objects().filter(|&d| sched.assign.owner_of(d) != p) {
                let mut senders: Vec<ProcId> =
                    plan.msgs.iter().filter(|m| carries(m, p, d)).map(|m| m.src_proc).collect();
                senders.sort_unstable();
                senders.dedup();
                assert_eq!(plan.watchers.of(p, d.0), &senders[..], "{label} P{p} {d:?}");
                if !senders.is_empty() {
                    watched.push(d.0);
                }
            }
            assert_eq!(plan.watchers.watched(p), &watched[..], "{label} P{p}");
            for d in g.objects().filter(|&d| sched.assign.owner_of(d) == p) {
                assert_eq!(plan.watchers.of(p, d.0), &[] as &[ProcId], "{label}: own {d:?}");
            }
            // Unfilled: the volatiles of `p` no message toward `p` carries.
            let pl = &plan.lv.procs[p as usize];
            let want: Vec<ObjId> = pl
                .volatile
                .iter()
                .copied()
                .filter(|&d| !plan.msgs.iter().any(|m| carries(m, p, d)))
                .collect();
            assert_eq!(unfilled[p as usize], want, "{label} P{p}");
        }
        unfilled.iter().map(Vec::len).sum()
    }

    #[test]
    fn plan_messages_of_figure2() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let plan = RtPlan::new(&g, &sched);
        // Every volatile object on P1 (d1, d3, d5, d7) and P0 (d8) must be
        // carried by some message.
        for (p, want) in [(1u32, vec![0u32, 2, 4, 6]), (0u32, vec![7u32])] {
            for d in want {
                assert!(
                    plan.msgs
                        .iter()
                        .any(|m| m.dst_proc == p && plan.objs(m.id).contains(&ObjId(d))),
                    "d{} must flow to P{p}",
                    d + 1
                );
            }
        }
        // Address watchers: P1's four volatiles are all put by P0 and vice
        // versa for d8.
        for d in [0u32, 2, 4, 6] {
            assert_eq!(plan.watchers.of(1, d), &[0]);
        }
        assert_eq!(plan.watchers.of(0, 7), &[1]);
        assert_eq!(plan.watchers.of(0, 0), &[] as &[u32], "unwatched object");
        // Messages from one task to one proc are coalesced: T[1] (writes
        // d1, read by T[1,2] and T[1,4] on P1) sends exactly one message.
        let t1 = fixtures::figure2_task(&g, "T[1]");
        let from_t1: Vec<_> = plan.msgs.iter().filter(|m| m.src_task == t1).collect();
        assert_eq!(from_t1.len(), 1);
        assert_eq!(plan.dst_tasks(from_t1[0].id).len(), 2);
        assert_eq!(from_t1[0].units, 1);
    }

    #[test]
    fn sync_only_messages_have_no_objects() {
        // A cross-proc edge carrying no written-and-read object becomes a
        // pure sync message.
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(2);
        let d1 = b.add_object(2);
        let t0 = b.add_task(1.0, &[], &[d0]);
        let t1 = b.add_task(1.0, &[], &[d1]);
        b.add_edge(t0, t1); // ordering only: t1 does not read d0
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0, 1], owner: vec![0, 1], nprocs: 2 };
        let sched = Schedule { assign, order: vec![vec![t0], vec![t1]] };
        let plan = RtPlan::new(&g, &sched);
        assert_eq!(plan.msgs.len(), 1);
        assert!(plan.objs(0).is_empty());
        assert_eq!(plan.msgs[0].units, 0);
        assert_eq!(plan.data_msg_count(), 0);
        assert!((0..2).all(|p| plan.watchers.watched(p).is_empty()));
    }

    #[test]
    fn control_units_scale_with_structure() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let plan = RtPlan::new(&g, &sched);
        let ctrl = plan.control_units(&g);
        // At least one word per edge, bounded by a small multiple of the
        // total structure.
        assert!(ctrl >= g.num_edges() as u64);
        let upper = 4
            * (g.num_edges()
                + g.tasks().map(|t| g.reads(t).len() + g.writes(t).len()).sum::<usize>()
                + plan.msgs.len() * 8) as u64;
        assert!(ctrl <= upper, "{ctrl} > {upper}");
        // A larger graph has a larger structure.
        let big = fixtures::random_irregular_graph(
            1,
            &fixtures::RandomGraphSpec { tasks: 200, objects: 50, ..Default::default() },
        );
        let owner = rapid_sched::assign::cyclic_owner_map(big.num_objects(), 2);
        let assign = rapid_sched::assign::owner_compute_assignment(&big, &owner, 2);
        let bsched =
            rapid_sched::rcp::rcp_order(&big, &assign, &rapid_core::schedule::CostModel::unit());
        let bplan = RtPlan::new(&big, &bsched);
        assert!(bplan.control_units(&big) > ctrl);
    }

    #[test]
    fn map_planner_window_and_frees() {
        // P1 of figure2 schedule (c) with capacity 8: the planner must
        // split the order into at least two windows and free d3/d5 at the
        // second MAP, as in the paper's Figure 3(a) walkthrough.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let plan = RtPlan::new(&g, &sched);
        let mut mp = MapPlanner::new(&g, &plan, 1, 8);
        let first = mp.run_map(&g, &sched, &plan, 0, MapWindow::Greedy).unwrap();
        assert!(first.frees.is_empty());
        let k = first.next_map;
        assert!(k < sched.order[1].len() as u32, "one MAP cannot cover all");
        let second = mp.run_map(&g, &sched, &plan, k, MapWindow::Greedy).unwrap();
        assert!(!second.frees.is_empty(), "second MAP must recycle volatiles");
        assert!(first.in_use <= 8 && second.in_use <= 8);
    }

    #[test]
    fn map_planner_detects_non_executable() {
        // Capacity 7 < MIN_MEM 8 of schedule (c): some MAP must fail.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let plan = RtPlan::new(&g, &sched);
        let mut mp = MapPlanner::new(&g, &plan, 1, 7);
        let mut pos = 0u32;
        let mut failed = false;
        while (pos as usize) < sched.order[1].len() {
            match mp.run_map(&g, &sched, &plan, pos, MapWindow::Greedy) {
                Ok(a) => pos = a.next_map,
                Err(ExecError::NonExecutable { capacity: 7, .. }) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(failed);
    }

    #[test]
    fn placement_matches_core_window_peaks() {
        // The placement artifact and rapid-core's window-peak analysis
        // are independent implementations of the same greedy policy; they
        // must agree window for window.
        let g = fixtures::figure2_dag();
        for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
            let plan = RtPlan::new(&g, &sched);
            let cap = rapid_core::memreq::min_mem(&g, &sched).min_mem;
            let placement = plan.place_maps(&g, &sched, cap, MapWindow::Greedy).unwrap();
            let wr = rapid_core::memreq::window_peaks(&g, &sched, cap).unwrap();
            assert_eq!(placement.per_proc.len(), wr.windows.len());
            for p in 0..placement.per_proc.len() {
                let rows = &placement.per_proc[p];
                assert_eq!(rows.len(), wr.windows[p].len(), "P{p} window counts");
                for (pm, wp) in rows.iter().zip(&wr.windows[p]) {
                    assert_eq!((pm.pos, pm.next_map, pm.in_use), (wp.pos, wp.next_map, wp.peak));
                }
                // Windows tile the order contiguously.
                let mut pos = 0u32;
                for pm in rows {
                    assert_eq!(pm.pos, pos);
                    pos = pm.next_map;
                }
                assert_eq!(pos as usize, sched.order[p].len());
            }
            assert_eq!(placement.peaks(&plan.perm_units), wr.peak);
            // One unit below MIN_MEM the placement must fail.
            assert!(matches!(
                plan.place_maps(&g, &sched, cap - 1, MapWindow::Greedy),
                Err(ExecError::NonExecutable { .. })
            ));
        }
    }

    #[test]
    fn placement_replays_planner_actions() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let plan = RtPlan::new(&g, &sched);
        let placement = plan.place_maps(&g, &sched, 8, MapWindow::Greedy).unwrap();
        // Replaying the planner step by step yields the same actions.
        for p in 0..2u32 {
            let mut mp = MapPlanner::new(&g, &plan, p, 8);
            for pm in &placement.per_proc[p as usize] {
                let a = mp.run_map(&g, &sched, &plan, pm.pos, MapWindow::Greedy).unwrap();
                assert_eq!(&a, pm);
            }
        }
        assert!(placement.total_maps() >= 3, "cap 8 must split P1's order");
    }

    #[test]
    fn map_planner_single_map_with_ample_memory() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let plan = RtPlan::new(&g, &sched);
        for p in 0..2u32 {
            let mut mp = MapPlanner::new(&g, &plan, p, 1000);
            let a = mp.run_map(&g, &sched, &plan, 0, MapWindow::Greedy).unwrap();
            assert_eq!(a.next_map as usize, sched.order[p as usize].len());
        }
    }
}
