//! Heap-driven ordering simulation — the production counterpart of the
//! straight-scan [`crate::sim::simulate_ordering_reference`].
//!
//! The reference simulator rescans every processor's ready list on every
//! step and asks its policy to rescan every candidate per pick, which is
//! O(steps × ready × |access set|) for MPO. This module replaces both
//! scans with priority heaps and incremental key maintenance:
//!
//! - **Processor selection** is a min-heap on `(idle time, proc id)` with
//!   lazy deletion: an entry is pushed whenever a processor becomes
//!   selectable or its clock moves while selectable, and an entry popped
//!   with a key that no longer matches the processor's current clock (or
//!   a processor with nothing selectable) is simply discarded. The heap
//!   invariant is that every selectable processor always owns at least
//!   one entry carrying its *current* clock, so the first valid pop is
//!   exactly the reference's linear-scan minimum, ties broken by
//!   processor id.
//! - **Task selection** is a per-processor max-heap on
//!   `(policy key, ¬task id)` with the same lazy-deletion discipline:
//!   when a task's key changes, the policy reports it *dirty* and a fresh
//!   entry is pushed; popped entries whose key differs from the task's
//!   current key (or whose task is already scheduled) are discarded.
//!   Keys in this codebase only ever increase (MPO's memory priority is
//!   monotone), so a stale entry can never shadow a live one.
//! - **Slice gating** (DTS) is structural: ready tasks of a future slice
//!   are *parked* in a per-processor min-heap keyed by slice and drained
//!   into the active heap when the processor's lowest incomplete slice
//!   reaches them, so eligibility costs a heap transfer instead of a
//!   filter pass per step. Ungated policies report a single slice and
//!   never park.
//!
//! Every policy must order for order match its reference twin —
//! `tests/ordering_equiv.rs` proves it on random DAGs, ties included.

use crate::sim::SimCtx;
use rapid_core::algo::{self, OrdF64};
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pick rule for the heap-driven ordering simulation.
///
/// Where [`crate::sim::OrderPolicy`] picks by scanning a ready slice, a
/// `HeapPolicy` exposes a totally ordered *priority key* per task (higher
/// runs first; ties always break toward the smaller task id) plus
/// incremental maintenance hooks, so the simulator can keep ready tasks
/// in heaps instead of rescanning them.
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
    /// have changed into `dirty`; the simulator reinserts the ones that
    /// are ready and eligible with their fresh keys (scheduled or
    /// not-yet-ready tasks in `dirty` are ignored, so over-reporting is
    /// harmless).
    fn on_scheduled(&mut self, _t: TaskId, _ctx: &SimCtx<'_>, _dirty: &mut Vec<TaskId>) {}
}

/// Run the heap-driven ordering simulation and return the per-processor
/// orders. Produces the *identical* schedule to
/// [`crate::sim::simulate_ordering_reference`] under the matching
/// [`crate::sim::OrderPolicy`], in
/// O((V + E + Σ key updates) log V) instead of the reference's
/// per-step rescans.
pub fn simulate_ordering_heap<P: HeapPolicy>(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    policy: &mut P,
) -> Schedule {
    let blevel = algo::bottom_levels(g, cost, Some(assign));
    simulate_ordering_heap_with(g, assign, cost, policy, &blevel)
}

/// [`simulate_ordering_heap`] with caller-provided bottom levels, so a
/// planner that already computed them does not pay the O(V + E) pass
/// again. `blevel` must equal
/// `algo::bottom_levels(g, cost, Some(assign))` for the schedule to
/// match the reference simulators.
pub fn simulate_ordering_heap_with<P: HeapPolicy>(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    policy: &mut P,
    blevel: &[f64],
) -> Schedule {
    let n = g.num_tasks();
    let nprocs = assign.nprocs;
    let nslices = policy.num_slices().max(1) as usize;
    let mut arrival = vec![0.0f64; n];
    let mut indeg: Vec<u32> = (0..n).map(|t| g.preds(TaskId(t as u32)).len() as u32).collect();
    let mut scheduled = vec![false; n];

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

    // Active (selectable) ready tasks per processor, max-heap by key.
    let mut active: Vec<BinaryHeap<(P::Key, Reverse<u32>)>> =
        (0..nprocs).map(|_| BinaryHeap::new()).collect();
    // Ready tasks of future slices, min-heap by slice.
    let mut parked: Vec<BinaryHeap<Reverse<(u32, u32)>>> =
        (0..nprocs).map(|_| BinaryHeap::new()).collect();
    // Number of selectable (ready ∧ eligible ∧ unscheduled) tasks per
    // processor; the processor heap's validity criterion.
    let mut avail = vec![0u32; nprocs];
    let mut clock = vec![0.0f64; nprocs];
    // Lazy-deletion processor heap on (idle time, proc id).
    let mut procs: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();

    let mut order: Vec<Vec<TaskId>> = vec![Vec::new(); nprocs];
    let mut done = 0usize;
    let mut dirty: Vec<TaskId> = Vec::new();

    // Seed the ready structures with the DAG's sources.
    for t in g.tasks() {
        if indeg[t.idx()] == 0 {
            let p = assign.proc_of(t) as usize;
            let s = policy.slice_of(t);
            if s == lowest[p] {
                let ctx = SimCtx { g, assign, blevel, arrival: &arrival };
                active[p].push((policy.key(t, &ctx), Reverse(t.0)));
                if avail[p] == 0 {
                    procs.push(Reverse((OrdF64(clock[p]), p as u32)));
                }
                avail[p] += 1;
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
            if avail[p as usize] == 0 || k != OrdF64(clock[p as usize]) {
                procs.pop();
                continue;
            }
            break p as usize;
        };
        // Highest-priority live entry of p's active heap.
        let t = loop {
            let ctx = SimCtx { g, assign, blevel, arrival: &arrival };
            // `avail[p] > 0` was just checked, so the heap holds at least
            // one live entry for this processor.
            let Some((key, Reverse(t))) = active[p].pop() else {
                unreachable!("selectable processor has no active task entry")
            };
            let t = TaskId(t);
            if scheduled[t.idx()] || key != policy.key(t, &ctx) {
                continue;
            }
            break t;
        };

        let start = clock[p].max(arrival[t.idx()]);
        let end = start + g.weight(t);
        clock[p] = end;
        order[p].push(t);
        scheduled[t.idx()] = true;
        avail[p] -= 1;
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
                let ctx = SimCtx { g, assign, blevel, arrival: &arrival };
                active[p].push((policy.key(TaskId(u), &ctx), Reverse(u)));
                avail[p] += 1;
            }
        }

        // Policy bookkeeping *before* successors compute their keys, so
        // arrivals see the same allocation state as the reference's
        // lazy pick-time evaluation.
        {
            let ctx = SimCtx { g, assign, blevel, arrival: &arrival };
            policy.on_scheduled(t, &ctx, &mut dirty);
        }
        for u in dirty.drain(..) {
            if scheduled[u.idx()] || indeg[u.idx()] != 0 {
                continue;
            }
            let q = assign.proc_of(u) as usize;
            if policy.slice_of(u) == lowest[q] {
                // Fresh entry with the updated key; the old entry dies by
                // lazy deletion. Selectability (avail) is unchanged.
                let ctx = SimCtx { g, assign, blevel, arrival: &arrival };
                active[q].push((policy.key(u, &ctx), Reverse(u.0)));
            }
        }

        // Release successors.
        for &s in g.succs(t) {
            let s = TaskId(s);
            let comm = algo::edge_comm_cost(g, cost, Some(assign), t, s);
            let a = end + comm;
            if a > arrival[s.idx()] {
                arrival[s.idx()] = a;
            }
            indeg[s.idx()] -= 1;
            if indeg[s.idx()] == 0 {
                let q = assign.proc_of(s) as usize;
                let sl = policy.slice_of(s);
                if sl == lowest[q] {
                    let ctx = SimCtx { g, assign, blevel, arrival: &arrival };
                    active[q].push((policy.key(s, &ctx), Reverse(s.0)));
                    if avail[q] == 0 {
                        procs.push(Reverse((OrdF64(clock[q]), q as u32)));
                    }
                    avail[q] += 1;
                } else {
                    parked[q].push(Reverse((sl, s.0)));
                }
            }
        }

        // p's clock moved (and its active set may have refilled): restore
        // the processor-heap invariant with a fresh entry.
        if avail[p] > 0 {
            procs.push(Reverse((OrdF64(clock[p]), p as u32)));
        }
    }
    Schedule { assign: assign.clone(), order }
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

    #[test]
    fn heap_fifo_matches_reference_fifo() {
        for seed in 0..8 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = crate::assign::cyclic_owner_map(g.num_objects(), 3);
            let a = crate::assign::owner_compute_assignment(&g, &owner, 3);
            let cost = CostModel::unit();
            let h = simulate_ordering_heap(&g, &a, &cost, &mut FifoHeap);
            let r = simulate_ordering_reference(&g, &a, &cost, &mut FifoRef);
            assert!(h.is_valid(&g), "seed {seed}");
            assert_eq!(h.order, r.order, "seed {seed}");
        }
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
