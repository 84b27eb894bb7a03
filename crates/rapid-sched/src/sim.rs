//! Shared machinery for the ordering heuristics: a deterministic
//! list-scheduling simulation over a fixed task→processor assignment.
//!
//! All three orderings (RCP, MPO, DTS) "simulate the execution of tasks
//! following task dependencies" (paper §4.1) and differ only in which ready
//! task a processor picks next. [`simulate_ordering_reference`] owns the
//! simulation loop; an [`OrderPolicy`] supplies the pick rule.
//!
//! This straight-scan simulator is the *reference implementation*, kept —
//! like the kernels' naive loops — as the tests' oracle. Production
//! ordering goes through the heap-driven
//! [`crate::heapsim::simulate_ordering_heap`], which produces
//! order-for-order identical schedules (proven by
//! `tests/ordering_equiv.rs`) without the per-step rescans.

use rapid_core::algo;
use rapid_core::graph::{ProcId, TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};

pub use rapid_core::algo::OrdF64;

/// View of the simulation state exposed to policies.
pub struct SimCtx<'a> {
    /// The task graph being ordered.
    pub g: &'a TaskGraph,
    /// The fixed task→processor assignment.
    pub assign: &'a Assignment,
    /// Static bottom levels (critical-path priorities) with communication
    /// costs charged on cross-processor edges.
    pub blevel: &'a [f64],
    /// Earliest data-ready time of each task (valid once ready).
    pub arrival: &'a [f64],
}

/// A pick rule for the ordering simulation.
pub trait OrderPolicy {
    /// Choose the next task for processor `p` among `ready` (non-empty,
    /// every entry assigned to `p` with all predecessors scheduled).
    /// Returns an index into `ready`.
    fn pick(&mut self, p: ProcId, ready: &[TaskId], ctx: &SimCtx<'_>) -> usize;

    /// May processor `p` run task `t` now? Policies that gate execution
    /// (DTS slice order) override this; ineligible tasks stay ready but
    /// unpickable.
    fn eligible(&self, _p: ProcId, _t: TaskId, _ctx: &SimCtx<'_>) -> bool {
        true
    }

    /// Hook invoked after `t` is scheduled (e.g. MPO volatile allocation).
    fn on_scheduled(&mut self, _t: TaskId, _ctx: &SimCtx<'_>) {}
}

/// Run the straight-scan ordering simulation and return the
/// per-processor orders.
///
/// At every step the processor with the earliest idle time among those
/// having an eligible ready task schedules the task its policy picks
/// (Figure 4, lines 2–3). Task start times honour both the processor
/// clock and message arrival times from remote predecessors; these
/// predicted times drive the simulation but only the resulting *order* is
/// returned — run-time behaviour is the executor's business.
///
/// Complexity is O(steps × ready-list length × pick cost): every step
/// rescans the processors and the chosen processor's ready list. Use
/// [`crate::heapsim::simulate_ordering_heap`] outside of validation.
pub fn simulate_ordering_reference<P: OrderPolicy>(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    policy: &mut P,
) -> Schedule {
    let n = g.num_tasks();
    let blevel = algo::bottom_levels(g, cost, Some(assign));
    let mut arrival = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];
    let mut indeg: Vec<u32> = (0..n).map(|t| g.preds(TaskId(t as u32)).len() as u32).collect();
    let mut ready: Vec<Vec<TaskId>> = vec![Vec::new(); assign.nprocs];
    for t in g.tasks() {
        if indeg[t.idx()] == 0 {
            ready[assign.proc_of(t) as usize].push(t);
        }
    }
    let mut clock = vec![0.0f64; assign.nprocs];
    let mut order: Vec<Vec<TaskId>> = vec![Vec::new(); assign.nprocs];
    let mut scheduled = 0usize;
    while scheduled < n {
        // Processor with the earliest idle time among those that can act.
        let mut best: Option<(OrdF64, usize)> = None;
        for p in 0..assign.nprocs {
            if ready[p].is_empty() {
                continue;
            }
            let ctx = SimCtx { g, assign, blevel: &blevel, arrival: &arrival };
            if !ready[p].iter().any(|&t| policy.eligible(p as ProcId, t, &ctx)) {
                continue;
            }
            let key = OrdF64(clock[p]);
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, p));
            }
        }
        // A task graph is a DAG (builder-enforced) and slice gates follow
        // the slice topological order, so some processor can always act.
        let Some((_, p)) = best else {
            unreachable!("ordering simulation stalled: no processor has an eligible ready task")
        };
        // Restrict the policy's view to eligible tasks.
        let ctx = SimCtx { g, assign, blevel: &blevel, arrival: &arrival };
        let eligible: Vec<TaskId> =
            ready[p].iter().copied().filter(|&t| policy.eligible(p as ProcId, t, &ctx)).collect();
        let t = eligible[policy.pick(p as ProcId, &eligible, &ctx)];
        let Some(pos) = ready[p].iter().position(|&x| x == t) else {
            unreachable!("picked task is not in the ready list")
        };
        ready[p].swap_remove(pos);

        let start = clock[p].max(arrival[t.idx()]);
        let end = start + g.weight(t);
        finish[t.idx()] = end;
        clock[p] = end;
        order[p].push(t);
        scheduled += 1;
        policy.on_scheduled(t, &SimCtx { g, assign, blevel: &blevel, arrival: &arrival });
        for &s in g.succs(t) {
            let s = TaskId(s);
            let comm = algo::edge_comm_cost(g, cost, Some(assign), t, s);
            let a = end + comm;
            if a > arrival[s.idx()] {
                arrival[s.idx()] = a;
            }
            indeg[s.idx()] -= 1;
            if indeg[s.idx()] == 0 {
                ready[assign.proc_of(s) as usize].push(s);
            }
        }
    }
    Schedule { assign: assign.clone(), order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;

    /// FIFO policy: always pick the first ready task.
    struct Fifo;
    impl OrderPolicy for Fifo {
        fn pick(&mut self, _p: ProcId, _ready: &[TaskId], _ctx: &SimCtx<'_>) -> usize {
            0
        }
    }

    #[test]
    fn fifo_produces_valid_schedule() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let s = simulate_ordering_reference(&g, &assign, &CostModel::unit(), &mut Fifo);
        assert!(s.is_valid(&g));
        assert_eq!(s.order[0].len(), 6);
        assert_eq!(s.order[1].len(), 14);
    }

    #[test]
    fn fifo_on_random_graphs_is_valid() {
        for seed in 0..6 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = crate::assign::cyclic_owner_map(g.num_objects(), 3);
            let a = crate::assign::owner_compute_assignment(&g, &owner, 3);
            let s = simulate_ordering_reference(&g, &a, &CostModel::unit(), &mut Fifo);
            assert!(s.is_valid(&g), "seed {seed}");
        }
    }
}
