//! The ordering simulation shared by RCP, MPO and DTS.
//!
//! All three orderings "simulate the execution of tasks following task
//! dependencies" (paper §4.1) and differ only in which ready task a
//! processor picks next. [`simulate_ordering_heap`] owns the loop; a
//! [`HeapPolicy`] supplies a priority key per task. Each step is
//! O(log V), with no rescans and no stale entries:
//!
//! - **Processor selection** is a min-heap on `(idle time, proc id)` with
//!   lazy deletion: an entry is pushed whenever a processor becomes
//!   selectable or its clock moves while selectable, and an entry popped
//!   with a key that no longer matches the processor's current clock (or
//!   a processor with nothing selectable) is simply discarded. Every
//!   selectable processor always owns at least one entry carrying its
//!   *current* clock, so the first valid pop is the earliest-idle
//!   processor, ties broken by processor id. There are only `p` of them.
//! - **Task selection** is a per-processor indexed max-heap on
//!   `(policy key, ¬task id)` holding exactly the selectable tasks, one
//!   entry each, with every task's slot recorded. When a task's key
//!   changes, the policy reports it *dirty* and its entry is re-keyed in
//!   place, sifted up or down as the key rose or fell; a pop is always
//!   live.
//! - **Slice gating** (DTS) is structural: ready tasks of a future slice
//!   are *parked* in a per-processor min-heap keyed by slice and drained
//!   into the active heap when the processor's lowest incomplete slice
//!   reaches them, so eligibility costs a heap transfer instead of a
//!   filter pass per step. Ungated policies report a single slice and
//!   never park.
//! - **Communication costs** are computed once per edge
//!   ([`algo::edge_costs`]); the bottom levels and the arrival times both
//!   read that array.
//!
//! Every policy must order for order match its straight-scan reference
//! twin, the paper's pseudo-code transcribed — the crate's `sim` tests
//! prove it on random DAGs, ties included.

use rapid_core::algo::{self, OrdF64};
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// View of the simulation state exposed to policies.
pub struct SimCtx<'a> {
    /// The task graph being ordered.
    pub g: &'a TaskGraph,
    /// The fixed task→processor assignment.
    pub assign: &'a Assignment,
    /// Static bottom levels (critical-path priorities) with communication
    /// costs charged on cross-processor edges.
    pub blevel: &'a [f64],
}

/// A pick rule for the ordering simulation: a totally ordered *priority
/// key* per task (higher runs first; ties always break toward the smaller
/// task id) plus incremental maintenance hooks, so the simulator can keep
/// ready tasks in heaps instead of rescanning them.
pub trait HeapPolicy {
    /// Priority key type; higher keys are picked first.
    type Key: Ord + Copy;

    /// Current priority key of task `t`. Must be O(1): anything derived
    /// from the task's surroundings has to be maintained incrementally in
    /// [`HeapPolicy::on_scheduled`].
    fn key(&self, t: TaskId, ctx: &SimCtx<'_>) -> Self::Key;

    /// Slice of task `t` for eligibility gating; tasks only run when
    /// their slice is the lowest incomplete slice of their processor.
    /// Ungated policies keep the default single slice.
    fn slice_of(&self, _t: TaskId) -> u32 {
        0
    }

    /// Number of slices [`HeapPolicy::slice_of`] may return.
    fn num_slices(&self) -> u32 {
        1
    }

    /// Hook invoked after `t` is scheduled. Push every task whose key may
    /// have changed, in either direction, into `dirty`; the simulator
    /// re-keys the selectable ones (scheduled, not-yet-ready or parked
    /// tasks in `dirty` are ignored, so over-reporting is harmless).
    fn on_scheduled(&mut self, _t: TaskId, _ctx: &SimCtx<'_>, _dirty: &mut Vec<TaskId>) {}
}

/// Run the ordering simulation and return the per-processor orders, in
/// O((V + E + Σ key updates) log V).
///
/// At every step the processor with the earliest idle time among those
/// having a selectable task schedules the task with the highest key
/// (Figure 4, lines 2–3). Task start times honour both the processor
/// clock and message arrival times from remote predecessors; these
/// predicted times drive the simulation but only the resulting *order* is
/// returned — run-time behaviour is the executor's business.
pub fn simulate_ordering_heap<P: HeapPolicy>(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    policy: &mut P,
) -> Schedule {
    let edge_cost = algo::edge_costs(g, cost, Some(assign));
    let blevel = algo::bottom_levels_from(g, &edge_cost);
    let n = g.num_tasks();
    let nprocs = assign.nprocs;
    let nslices = policy.num_slices().max(1) as usize;
    let ctx = SimCtx { g, assign, blevel: &blevel };
    let mut state: Vec<TaskState> = g
        .tasks()
        .map(|t| TaskState { arrival: 0.0, indeg: g.preds(t).len() as u32, slot: NOT_ACTIVE })
        .collect();

    // Unscheduled tasks per (proc, slice) and the lowest incomplete slice
    // per processor — the generic form of the reference DTS gating state.
    let mut remaining = vec![0u32; nprocs * nslices];
    for t in g.tasks() {
        remaining[assign.proc_of(t) as usize * nslices + policy.slice_of(t) as usize] += 1;
    }
    let mut lowest: Vec<u32> = (0..nprocs)
        .map(|p| {
            let row = &remaining[p * nslices..(p + 1) * nslices];
            row.iter().position(|&c| c > 0).unwrap_or(nslices) as u32
        })
        .collect();

    // Selectable (ready ∧ eligible ∧ unscheduled) tasks per processor.
    let mut active: Vec<ReadyHeap<P::Key>> = (0..nprocs).map(|_| ReadyHeap::default()).collect();
    // Ready tasks of future slices, min-heap by slice.
    let mut parked: Vec<BinaryHeap<Reverse<(u32, u32)>>> =
        (0..nprocs).map(|_| BinaryHeap::new()).collect();
    let mut clock = vec![0.0f64; nprocs];
    // Lazy-deletion processor heap on (idle time, proc id).
    let mut procs: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();

    let mut order: Vec<Vec<TaskId>> = vec![Vec::new(); nprocs];
    let mut done = 0usize;
    let mut dirty: Vec<TaskId> = Vec::new();

    // Seed the ready structures with the DAG's sources.
    for t in g.tasks() {
        if state[t.idx()].indeg == 0 {
            let p = assign.proc_of(t) as usize;
            let s = policy.slice_of(t);
            if s == lowest[p] {
                if active[p].is_empty() {
                    procs.push(Reverse((OrdF64(clock[p]), p as u32)));
                }
                active[p].push(policy.key(t, &ctx), t.0, &mut state);
            } else {
                parked[p].push(Reverse((s, t.0)));
            }
        }
    }

    while done < n {
        // Earliest-idle selectable processor (reference lines 2–3).
        let p = loop {
            // A task graph is a DAG (builder-enforced), so while tasks
            // remain some processor is selectable and owns a live entry.
            let Some(&Reverse((k, p))) = procs.peek() else {
                unreachable!("ordering simulation stalled: no selectable processor")
            };
            if active[p as usize].is_empty() || k != OrdF64(clock[p as usize]) {
                procs.pop();
                continue;
            }
            break p as usize;
        };
        // Its highest-priority task; the heap holds no stale entry.
        let Some(t) = active[p].pop(&mut state) else {
            unreachable!("selectable processor has no active task")
        };
        let t = TaskId(t);

        let start = clock[p].max(state[t.idx()].arrival);
        let end = start + g.weight(t);
        clock[p] = end;
        order[p].push(t);
        done += 1;

        // Retire t from its slice; advancing the lowest incomplete slice
        // drains newly eligible parked tasks into the active heap.
        let ts = policy.slice_of(t) as usize;
        remaining[p * nslices + ts] -= 1;
        if remaining[p * nslices + ts] == 0 && lowest[p] as usize == ts {
            let row = &remaining[p * nslices..(p + 1) * nslices];
            lowest[p] = row
                .iter()
                .skip(ts)
                .position(|&c| c > 0)
                .map(|off| (ts + off) as u32)
                .unwrap_or(nslices as u32);
            while let Some(&Reverse((s, u))) = parked[p].peek() {
                if s != lowest[p] {
                    break;
                }
                parked[p].pop();
                active[p].push(policy.key(TaskId(u), &ctx), u, &mut state);
            }
        }

        // Policy bookkeeping *before* successors compute their keys, so
        // arrivals see the same allocation state as the reference's
        // lazy pick-time evaluation.
        policy.on_scheduled(t, &ctx, &mut dirty);
        for u in dirty.drain(..) {
            if state[u.idx()].slot != NOT_ACTIVE {
                let q = assign.proc_of(u) as usize;
                active[q].rekey(u.0, policy.key(u, &ctx), &mut state);
            }
        }

        // Release successors.
        for (&s, &comm) in g.succs(t).iter().zip(&edge_cost[t.idx()]) {
            let s = TaskId(s);
            let st = &mut state[s.idx()];
            if end + comm > st.arrival {
                st.arrival = end + comm;
            }
            st.indeg -= 1;
            if st.indeg == 0 {
                let q = assign.proc_of(s) as usize;
                let sl = policy.slice_of(s);
                if sl == lowest[q] {
                    if active[q].is_empty() {
                        procs.push(Reverse((OrdF64(clock[q]), q as u32)));
                    }
                    active[q].push(policy.key(s, &ctx), s.0, &mut state);
                } else {
                    parked[q].push(Reverse((sl, s.0)));
                }
            }
        }

        // p's clock moved (and its active set may have refilled): restore
        // the processor-heap invariant with a fresh entry.
        if !active[p].is_empty() {
            procs.push(Reverse((OrdF64(clock[p]), p as u32)));
        }
    }
    Schedule { assign: assign.clone(), order }
}

/// What the simulation tracks per task, in one record: the data-ready
/// time, the predecessors still to run, and the task's position in its
/// processor's active heap.
#[derive(Clone, Copy)]
struct TaskState {
    arrival: f64,
    indeg: u32,
    slot: u32,
}

/// `slot` of a task that is in no active heap.
const NOT_ACTIVE: u32 = u32::MAX;

/// One processor's selectable tasks: a binary max-heap on
/// `(key, ¬task id)`. Each task's position lives in its [`TaskState`]
/// record, in a table every processor's heap shares (a task is only ever
/// in its own processor's).
struct ReadyHeap<K> {
    items: Vec<(K, u32)>,
}

impl<K> Default for ReadyHeap<K> {
    fn default() -> Self {
        ReadyHeap { items: Vec::new() }
    }
}

impl<K: Ord + Copy> ReadyHeap<K> {
    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Does `a` run before `b`?
    #[inline]
    fn before(a: &(K, u32), b: &(K, u32)) -> bool {
        match a.0.cmp(&b.0) {
            std::cmp::Ordering::Equal => a.1 < b.1,
            o => o.is_gt(),
        }
    }

    fn push(&mut self, key: K, t: u32, state: &mut [TaskState]) {
        self.items.push((key, t));
        self.sift_up(self.items.len() - 1, state);
    }

    fn pop(&mut self, state: &mut [TaskState]) -> Option<u32> {
        if self.items.is_empty() {
            return None;
        }
        let top = self.items.swap_remove(0).1;
        state[top as usize].slot = NOT_ACTIVE;
        if !self.items.is_empty() {
            // The element moved to the root almost always belongs near the
            // bottom: walk the hole down along the better children (one
            // comparison a level), then sift the element up from there.
            let (item, len) = (self.items[0], self.items.len());
            let mut i = 0;
            let mut child = 1;
            while child + 1 < len {
                // Branch-free: which child runs first is a coin toss.
                child += usize::from(Self::before(&self.items[child + 1], &self.items[child]));
                self.items[i] = self.items[child];
                state[self.items[i].1 as usize].slot = i as u32;
                i = child;
                child = 2 * i + 1;
            }
            if child + 1 == len {
                self.items[i] = self.items[child];
                state[self.items[i].1 as usize].slot = i as u32;
                i = child;
            }
            self.items[i] = item;
            self.sift_up(i, state);
        }
        Some(top)
    }

    /// Give task `t` (in this heap) the key `key`, moving it whichever
    /// way the key went.
    fn rekey(&mut self, t: u32, key: K, state: &mut [TaskState]) {
        let i = state[t as usize].slot as usize;
        let old = std::mem::replace(&mut self.items[i].0, key);
        if key > old {
            self.sift_up(i, state);
        } else if key < old {
            self.sift_down(i, state);
        }
    }

    fn sift_up(&mut self, mut i: usize, state: &mut [TaskState]) {
        let item = self.items[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(&item, &self.items[parent]) {
                break;
            }
            self.items[i] = self.items[parent];
            state[self.items[i].1 as usize].slot = i as u32;
            i = parent;
        }
        self.items[i] = item;
        state[item.1 as usize].slot = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, state: &mut [TaskState]) {
        let item = self.items[i];
        let len = self.items.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && Self::before(&self.items[child + 1], &self.items[child]) {
                child += 1;
            }
            if !Self::before(&self.items[child], &item) {
                break;
            }
            self.items[i] = self.items[child];
            state[self.items[i].1 as usize].slot = i as u32;
            i = child;
        }
        self.items[i] = item;
        state[item.1 as usize].slot = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_ordering_reference, OrderPolicy};
    use rapid_core::fixtures;
    use rapid_core::graph::ProcId;

    /// FIFO by task id: smallest ready id first (key = ¬id, constant).
    struct FifoHeap;
    impl HeapPolicy for FifoHeap {
        type Key = Reverse<u32>;
        fn key(&self, t: TaskId, _ctx: &SimCtx<'_>) -> Reverse<u32> {
            Reverse(t.0)
        }
    }

    /// Reference twin: smallest ready task id.
    struct FifoRef;
    impl OrderPolicy for FifoRef {
        fn pick(&mut self, _p: ProcId, ready: &[TaskId], _ctx: &SimCtx<'_>) -> usize {
            ready.iter().enumerate().min_by_key(|&(_, &t)| t).map(|(i, _)| i).unwrap()
        }
    }

    fn random_case(seed: u64, nprocs: usize) -> (TaskGraph, Assignment) {
        let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
        let owner = crate::assign::cyclic_owner_map(g.num_objects(), nprocs);
        let a = crate::assign::owner_compute_assignment(&g, &owner, nprocs);
        (g, a)
    }

    #[test]
    fn heap_fifo_matches_reference_fifo() {
        for seed in 0..8 {
            let (g, a) = random_case(seed, 3);
            let cost = CostModel::unit();
            let h = simulate_ordering_heap(&g, &a, &cost, &mut FifoHeap);
            let r = simulate_ordering_reference(&g, &a, &cost, &mut FifoRef);
            assert!(h.is_valid(&g), "seed {seed}");
            assert_eq!(h.order, r.order, "seed {seed}");
        }
    }

    /// A policy whose keys fall: each scheduled task demotes every task
    /// sharing an object with it, so busy objects' tasks sink. The heap
    /// and reference forms share one state.
    struct Demote {
        hits: Vec<u32>,
    }

    impl Demote {
        fn key_of(&self, t: TaskId, ctx: &SimCtx<'_>) -> (Reverse<u32>, OrdF64) {
            (Reverse(self.hits[t.idx()]), OrdF64(ctx.blevel[t.idx()]))
        }

        fn demote(&mut self, t: TaskId, ctx: &SimCtx<'_>, mut dirty: impl FnMut(TaskId)) {
            for d in ctx.g.accesses(t) {
                for &u in ctx.g.accessors(d) {
                    self.hits[u as usize] += 1;
                    dirty(TaskId(u));
                }
            }
        }
    }

    impl HeapPolicy for Demote {
        type Key = (Reverse<u32>, OrdF64);
        fn key(&self, t: TaskId, ctx: &SimCtx<'_>) -> Self::Key {
            self.key_of(t, ctx)
        }
        fn on_scheduled(&mut self, t: TaskId, ctx: &SimCtx<'_>, dirty: &mut Vec<TaskId>) {
            self.demote(t, ctx, |u| dirty.push(u));
        }
    }

    impl OrderPolicy for Demote {
        fn pick(&mut self, _p: ProcId, ready: &[TaskId], ctx: &SimCtx<'_>) -> usize {
            let best = ready.iter().max_by_key(|&&t| (self.key_of(t, ctx), Reverse(t)));
            ready.iter().position(|t| Some(t) == best).unwrap()
        }
        fn on_scheduled(&mut self, t: TaskId, ctx: &SimCtx<'_>) {
            self.demote(t, ctx, |_| ());
        }
    }

    #[test]
    fn falling_keys_match_their_straight_scan_twin() {
        for (seed, nprocs) in (0..12).map(|s| (s, 1 + s as usize % 4)) {
            let (g, a) = random_case(seed, nprocs);
            let cost = CostModel::unit();
            let fresh = || Demote { hits: vec![0; g.num_tasks()] };
            let h = simulate_ordering_heap(&g, &a, &cost, &mut fresh());
            let r = simulate_ordering_reference(&g, &a, &cost, &mut fresh());
            assert_eq!(h.order, r.order, "seed {seed}");
        }
    }

    #[test]
    fn rekeying_moves_both_ways() {
        let mut state = vec![TaskState { arrival: 0.0, indeg: 0, slot: NOT_ACTIVE }; 8];
        let mut h = ReadyHeap::default();
        for t in 0..8u32 {
            h.push(t % 3, t, &mut state);
        }
        h.rekey(7, 9, &mut state); // up past everything
        h.rekey(2, 0, &mut state); // down among the lowest
        h.rekey(5, 2, &mut state); // unchanged
        let mut popped = Vec::new();
        while let Some(t) = h.pop(&mut state) {
            popped.push(t);
        }
        assert_eq!(popped, [7, 5, 1, 4, 0, 2, 3, 6]);
        assert!(state.iter().all(|s| s.slot == NOT_ACTIVE));
    }

    #[test]
    fn heap_sim_valid_on_figure2() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let s = simulate_ordering_heap(&g, &assign, &CostModel::unit(), &mut FifoHeap);
        assert!(s.is_valid(&g));
        assert_eq!(s.order[0].len(), 6);
        assert_eq!(s.order[1].len(), 14);
    }
}
