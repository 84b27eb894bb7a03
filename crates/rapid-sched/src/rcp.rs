//! RCP — the time-efficient baseline ordering (ref. [20] of the paper,
//! Yang & Gerasoulis *List Scheduling with and without Communication
//! Delays*).
//!
//! Tasks are ordered "in the order of importance based on the critical
//! path information" (paper §4): each processor always runs its ready task
//! with the highest bottom level (longest path to an exit task, message
//! delays included). Time-efficient, but volatile objects may stay alive
//! for long stretches, so it is not memory-scalable (Figure 7).

use crate::heapsim::{simulate_ordering_heap, HeapPolicy, SimCtx};
use rapid_core::algo::OrdF64;
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};

/// The key is the static bottom level, so no incremental maintenance is
/// needed — every ready task is pushed once.
struct RcpPolicy;

impl HeapPolicy for RcpPolicy {
    type Key = OrdF64;

    #[inline]
    fn key(&self, t: TaskId, ctx: &SimCtx<'_>) -> OrdF64 {
        OrdF64(ctx.blevel[t.idx()])
    }
}

/// Order the tasks of each processor by the RCP rule.
pub fn rcp_order(g: &TaskGraph, assign: &Assignment, cost: &CostModel) -> Schedule {
    simulate_ordering_heap(g, assign, cost, &mut RcpPolicy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;
    use rapid_core::schedule::evaluate;

    #[test]
    fn rcp_is_valid_and_memory_hungry_on_figure2() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let s = rcp_order(&g, &assign, &CostModel::unit());
        assert!(s.is_valid(&g));
        let rep = min_mem(&g, &s);
        // The paper's RCP schedule of Figure 2(b) (preserved verbatim as
        // `fixtures::figure2_schedule_b`) needs 9 units; our RCP run on the
        // reconstruction can land anywhere at or above the DTS optimum of
        // 7 — the figure's exact interleaving depended on timing details
        // the reconstruction does not pin down.
        assert!(rep.min_mem >= 7, "RCP MIN_MEM = {}", rep.min_mem);
        assert_eq!(min_mem(&g, &fixtures::figure2_schedule_b()).min_mem, 9);
    }

    #[test]
    fn rcp_prefers_critical_path() {
        // Two independent chains on one processor: a long-bottom-level
        // chain head must run before a short one.
        use rapid_core::graph::TaskGraphBuilder;
        let mut b = TaskGraphBuilder::new();
        let d: Vec<_> = (0..4).map(|_| b.add_object(1)).collect();
        let long0 = b.add_task(1.0, &[], &[d[0]]);
        let long1 = b.add_task(5.0, &[d[0]], &[d[1]]);
        let short0 = b.add_task(1.0, &[], &[d[2]]);
        let short1 = b.add_task(1.0, &[d[2]], &[d[3]]);
        b.add_edge(long0, long1);
        b.add_edge(short0, short1);
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0, 0, 0, 0], owner: vec![0, 0, 0, 0], nprocs: 1 };
        let s = rcp_order(&g, &assign, &CostModel::unit());
        assert_eq!(s.order[0][0], long0);
    }

    #[test]
    fn rcp_makespan_no_worse_than_fifo_on_figure2() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let cost = CostModel::unit();
        let rcp = rcp_order(&g, &assign, &cost);
        let pt = evaluate(&g, &cost, &rcp).makespan;
        // The DAG has a 14-task chain... not quite: P1 executes 14 unit
        // tasks sequentially, so 14 is a lower bound; RCP should stay close.
        assert!(pt >= 14.0);
        assert!(pt <= 20.0, "RCP makespan {pt} unexpectedly poor");
    }
}
