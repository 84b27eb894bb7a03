//! The one policy dispatcher of the ordering stage.
//!
//! [`plan_parallel`] is a `match` over the four named entry points and
//! nothing else. Planning runs on one thread, as the paper's inspector
//! does (DESIGN.md §13, "Why planning is single-threaded", has the
//! measurement). The function name and its fifth argument are what
//! `benchmark/` compiles against.

use crate::dts::{dts_order, dts_order_merged};
use crate::mpo::mpo_order;
use crate::rcp::rcp_order;
use rapid_core::graph::TaskGraph;
use rapid_core::schedule::{Assignment, CostModel, Schedule};

/// Which ordering heuristic [`plan_parallel`] should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPolicy {
    /// Critical-path list scheduling (time-efficient baseline).
    Rcp,
    /// Memory-priority guided ordering (paper §4.1).
    Mpo,
    /// Data-access directed time-slicing over raw DCG slices (paper §4.2).
    Dts,
    /// DTS with Figure-6 slice merging under a per-processor memory
    /// capacity (allocation units, including permanent objects).
    DtsMerged {
        /// Per-processor memory capacity in allocation units.
        capacity: u64,
    },
}

/// Order `g` under `policy`: [`rcp_order`], [`mpo_order`], [`dts_order`]
/// or [`dts_order_merged`]. The fifth argument was a thread count; it is
/// ignored and stays only until `benchmark/` stops passing it.
pub fn plan_parallel(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    policy: PlanPolicy,
    _: usize,
) -> Schedule {
    match policy {
        PlanPolicy::Rcp => rcp_order(g, assign, cost),
        PlanPolicy::Mpo => mpo_order(g, assign, cost),
        PlanPolicy::Dts => dts_order(g, assign, cost),
        PlanPolicy::DtsMerged { capacity } => dts_order_merged(g, assign, cost, capacity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{cyclic_owner_map, owner_compute_assignment};
    use rapid_core::fixtures::{random_irregular_graph, RandomGraphSpec};

    fn case(seed: u64) -> (TaskGraph, Assignment) {
        let spec = RandomGraphSpec { objects: 60, tasks: 400, ..RandomGraphSpec::default() };
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let a = owner_compute_assignment(&g, &owner, 4);
        (g, a)
    }

    #[test]
    fn plan_parallel_is_the_named_entry_point_of_every_policy() {
        let cost = CostModel::unit();
        for seed in 0..5u64 {
            let (g, a) = case(seed);
            let cap = 64;
            let seqs = [
                (PlanPolicy::Rcp, rcp_order(&g, &a, &cost)),
                (PlanPolicy::Mpo, mpo_order(&g, &a, &cost)),
                (PlanPolicy::Dts, dts_order(&g, &a, &cost)),
                (PlanPolicy::DtsMerged { capacity: cap }, dts_order_merged(&g, &a, &cost, cap)),
            ];
            for (policy, seq) in &seqs {
                let planned = plan_parallel(&g, &a, &cost, *policy, 1);
                assert_eq!(planned.order, seq.order, "seed {seed} policy {policy:?}");
            }
        }
    }
}
