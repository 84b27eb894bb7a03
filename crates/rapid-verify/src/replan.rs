//! The `Replanner` shim and the plan hash.
//!
//! Every plan is a cold plan: the merged-DTS order under the capacity
//! ([`plan_parallel`]), the protocol plan ([`RtPlan::new`]), the greedy
//! MAP placement and the full [`verify`]. [`Replanner`] runs exactly that
//! pipeline at each capacity it is given and caches nothing. It stays only
//! until `benchmark/` stops naming it, like `rapid_rt::MapWindow`.

use crate::verify::{place_or_reject, verify, VerifyReport};
use rapid_core::graph::TaskGraph;
use rapid_core::schedule::{Assignment, CostModel, Schedule};
use rapid_rt::{MapPlacement, RtPlan};
use rapid_sched::{plan_parallel, PlanPolicy};

/// A placement and its verification report.
#[derive(Clone, Debug)]
pub struct Planned {
    /// The MAP placement under the requested capacity; no windows when
    /// none exists.
    pub placement: MapPlacement,
    /// The verification report for the placement.
    pub report: VerifyReport,
}

/// Plans `(g, assign)` cold at every capacity it is asked for.
pub struct Replanner<'g> {
    g: &'g TaskGraph,
    assign: &'g Assignment,
    cost: &'g CostModel,
    sched: Schedule,
}

impl<'g> Replanner<'g> {
    /// Plan `(g, assign)` under `capacity`. The fifth argument was a thread
    /// count; it is ignored and stays only until `benchmark/` stops passing
    /// it.
    pub fn new(
        g: &'g TaskGraph,
        assign: &'g Assignment,
        cost: &'g CostModel,
        capacity: u64,
        _: usize,
    ) -> (Replanner<'g>, Planned) {
        let (sched, planned) = cold_plan(g, assign, cost, capacity);
        (Replanner { g, assign, cost, sched }, planned)
    }

    /// The merged-DTS schedule of the latest plan.
    pub fn sched(&self) -> &Schedule {
        &self.sched
    }

    /// Plan again under `capacity`, from the graph up.
    pub fn replan_capacity(&mut self, capacity: u64) -> Planned {
        let planned;
        (self.sched, planned) = cold_plan(self.g, self.assign, self.cost, capacity);
        planned
    }
}

/// `plan_parallel(.., DtsMerged { capacity }, _)` → [`RtPlan::new`] →
/// greedy placement → [`verify`].
fn cold_plan(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    capacity: u64,
) -> (Schedule, Planned) {
    let sched = plan_parallel(g, assign, cost, PlanPolicy::DtsMerged { capacity }, 1);
    let plan = RtPlan::new(g, &sched);
    let planned = match place_or_reject(g, &sched, &plan, capacity) {
        Ok(placement) => Planned { report: verify(g, &sched, &plan, &placement), placement },
        Err(report) => {
            Planned { placement: MapPlacement { capacity, per_proc: Vec::new() }, report }
        }
    };
    (sched, planned)
}

/// FNV-1a hash of a complete plan — orders, placement windows, frees,
/// allocs and notifies — for cheap determinism checks across runs and
/// hosts (two planner invocations on the same inputs must agree).
pub fn plan_hash(sched: &Schedule, placement: &MapPlacement) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ord in &sched.order {
        put(ord.len() as u64);
        for &t in ord {
            put(t.0 as u64);
        }
    }
    put(placement.capacity);
    for wins in &placement.per_proc {
        put(wins.len() as u64);
        for w in wins {
            put(w.pos as u64);
            put(w.next_map as u64);
            put(w.in_use);
            for d in &w.frees {
                put(d.0 as u64);
            }
            for d in &w.allocs {
                put(d.0 as u64);
            }
            for n in &w.notifies {
                put(n.dst as u64);
                put(n.obj as u64);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;
    use rapid_core::fixtures::{random_irregular_graph, RandomGraphSpec};
    use rapid_core::memreq::min_mem;
    use rapid_sched::{cyclic_owner_map, dts_order, owner_compute_assignment};

    /// A random case plus a capacity known to be feasible: twice the
    /// MIN_MEM of the unmerged DTS order.
    fn case(seed: u64) -> (TaskGraph, Assignment, u64) {
        let spec = RandomGraphSpec { objects: 60, tasks: 400, ..RandomGraphSpec::default() };
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let a = owner_compute_assignment(&g, &owner, 4);
        let probe = dts_order(&g, &a, &CostModel::unit());
        let cap = 2 * min_mem(&g, &probe).min_mem;
        (g, a, cap)
    }

    #[test]
    fn a_replan_is_rejected_only_for_capacity() {
        let cost = CostModel::unit();
        let (g, a, cap) = case(1);
        let (mut rp, cold) = Replanner::new(&g, &a, &cost, cap, 1);
        assert!(cold.report.accepted(), "{:?}", cold.report.findings);
        let floor = min_mem(&g, rp.sched()).min_mem;
        for new_cap in [2 * cap, floor, cap + 7, floor.saturating_sub(2).max(1)] {
            let re = rp.replan_capacity(new_cap);
            assert_eq!(re.placement.capacity, new_cap);
            // A rejection is a capacity verdict, never an internal
            // inconsistency.
            assert!(
                re.report.findings.iter().all(|f| matches!(f, Finding::CapacityExceeded { .. })),
                "cap {new_cap}: {:?}",
                re.report.findings
            );
        }
    }

    #[test]
    fn plan_hash_is_stable_and_input_sensitive() {
        let cost = CostModel::unit();
        let (g, a, cap) = case(3);
        let (r1, p1) = Replanner::new(&g, &a, &cost, cap, 1);
        let (r2, p2) = Replanner::new(&g, &a, &cost, cap, 1);
        assert_eq!(plan_hash(r1.sched(), &p1.placement), plan_hash(r2.sched(), &p2.placement));
        let (r3, p3) = Replanner::new(&g, &a, &cost, cap + 32, 1);
        assert_ne!(plan_hash(r1.sched(), &p1.placement), plan_hash(r3.sched(), &p3.placement));
    }
}
