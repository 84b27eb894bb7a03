//! Incremental replanning: plan once, replan capacity changes cheaply.
//!
//! A cold merged-DTS plan walks the whole pipeline — DCG, bottom levels,
//! per-slice `H`, Figure-6 merge, ordering simulation, protocol plan, MAP
//! placement, verification. Of these, only the merge, the MAP placement
//! and the capacity-affected analyses actually *read* the memory
//! capacity. [`Replanner`] caches everything upstream of the capacity —
//! the DCG, the bottom levels, the per-slice `H` vector, the order, and
//! the protocol plan.
//!
//! The cached order stays valid at any capacity — slices only *guide*
//! the ordering simulation; the order itself is a plain precedence-
//! respecting schedule — so a capacity-only replan first re-places the
//! MAPs of the cached order under the new capacity and re-verifies just
//! the capacity-affected obligations ([`crate::verify_placement`]; see
//! its docs for the exact phase set and why skipping the rest is sound).
//! Only when that fails (a tighter capacity demanding finer slices) does
//! the replanner fall back to the cold pipeline below the cached DCG,
//! bottom levels and `H`: re-merge, re-order, place, fully verify.
//! Nothing here reads a run's measurements: the plan is made before the
//! run, from the graph, the assignment and the cap.

use crate::verify::{place_or_reject, verify, verify_placement, VerifyReport};
use rapid_core::algo::{bottom_levels_from, edge_costs};
use rapid_core::dcg::Dcg;
use rapid_core::graph::{Csr, TaskGraph};
use rapid_core::schedule::{Assignment, CostModel, Schedule};
use rapid_rt::{MapPlacement, MapWindow, RtPlan};
use rapid_sched::{avail_volatile, dts_order_with_levels, merge_slices_from_h, slice_h};

/// The capacity-dependent outcome of a plan or replan. The schedule and
/// protocol plan it belongs to live in the [`Replanner`]'s cache
/// ([`Replanner::sched`], [`Replanner::plan`]) — they are shared across
/// replans, not cloned per outcome.
#[derive(Clone, Debug)]
pub struct Planned {
    /// The MAP placement under the requested capacity.
    pub placement: MapPlacement,
    /// The verification report for the placement.
    pub report: VerifyReport,
    /// True when this replan reused the cached order (capacity-only fast
    /// path); false on a cold plan or an ordering-fallback replan.
    pub incremental: bool,
}

/// Caches the capacity-independent planning artifacts of a merged-DTS
/// plan so capacity-only replans skip the DCG, bottom-level, `H` and —
/// on the fast path — the ordering-simulation work.
pub struct Replanner<'g> {
    g: &'g TaskGraph,
    assign: &'g Assignment,
    dcg: Dcg,
    levels: Levels,
    sched: Schedule,
    plan: RtPlan,
}

/// What depends on the assignment but not on the capacity.
struct Levels {
    edge_cost: Csr<f64>,
    blevel: Vec<f64>,
    /// Per raw-slice volatile requirement `H(R, L_i)` (Definition 7).
    h: Vec<u64>,
}

impl<'g> Replanner<'g> {
    /// Cold-plan `(g, assign)` under `capacity`, caching every
    /// capacity-independent artifact. The fifth argument was a thread
    /// count; it is ignored and stays only until `benchmark/` stops
    /// passing it.
    pub fn new(
        g: &'g TaskGraph,
        assign: &'g Assignment,
        cost: &'g CostModel,
        capacity: u64,
        _: usize,
    ) -> (Replanner<'g>, Planned) {
        let dcg = Dcg::build(g);
        let edge_cost = edge_costs(g, cost, Some(assign));
        let blevel = bottom_levels_from(g, &edge_cost);
        let levels = Levels { edge_cost, blevel, h: slice_h(g, assign, &dcg) };
        let avail = avail_volatile(g, assign, capacity);
        let (sched, plan, planned) = cold_plan(g, assign, &dcg, &levels, avail, capacity);
        (Replanner { g, assign, dcg, levels, sched, plan }, planned)
    }

    /// The cached merged-DTS schedule the latest outcome was placed for.
    pub fn sched(&self) -> &Schedule {
        &self.sched
    }

    /// The cached protocol plan for [`Replanner::sched`].
    pub fn plan(&self) -> &RtPlan {
        &self.plan
    }

    /// Replan for a new capacity. Fast path: the cached order is
    /// capacity-agnostic, so re-place and re-verify it directly.
    /// Fallback (placement of the old order infeasible or rejected):
    /// re-merge the cached `H` under the new volatile budget and
    /// re-simulate the ordering over the new slices from the cached DCG
    /// and bottom levels, then place and fully verify.
    pub fn replan_capacity(&mut self, capacity: u64) -> Planned {
        // Try the cached order first: placement + incremental verify.
        if let Ok(placement) =
            self.plan.place_maps(self.g, &self.sched, capacity, MapWindow::Greedy)
        {
            let report = verify_placement(self.g, &self.sched, &self.plan, &placement);
            if report.accepted() {
                return Planned { placement, report, incremental: true };
            }
        }
        // Fallback: new slices demand a new order; everything upstream
        // of the merge is still cached.
        let avail = avail_volatile(self.g, self.assign, capacity);
        let (sched, plan, planned) =
            cold_plan(self.g, self.assign, &self.dcg, &self.levels, avail, capacity);
        self.sched = sched;
        self.plan = plan;
        planned
    }
}

/// The one cold pipeline below the levels: Figure-6 merge of `H` under
/// `avail`, ordering simulation over the merged slices, protocol plan,
/// MAP placement and full verification under `capacity`.
fn cold_plan(
    g: &TaskGraph,
    assign: &Assignment,
    dcg: &Dcg,
    levels: &Levels,
    avail: u64,
    capacity: u64,
) -> (Schedule, RtPlan, Planned) {
    let (merged_of, nmerged) = merge_slices_from_h(&levels.h, avail);
    let slice_of_task: Vec<u32> =
        g.tasks().map(|t| merged_of[dcg.slice_of_task[t.idx()] as usize]).collect();
    let sched = dts_order_with_levels(
        g,
        assign,
        &slice_of_task,
        nmerged,
        &levels.blevel,
        &levels.edge_cost,
    );
    let plan = RtPlan::new(g, &sched);
    let planned = match place_or_reject(g, &sched, &plan, capacity) {
        Ok(placement) => {
            let report = verify(g, &sched, &plan, &placement);
            Planned { placement, report, incremental: false }
        }
        Err(report) => Planned {
            placement: MapPlacement { capacity, per_proc: Vec::new() },
            report,
            incremental: false,
        },
    };
    (sched, plan, planned)
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
    use rapid_sched::{cyclic_owner_map, dts_order, dts_order_merged, owner_compute_assignment};

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
    fn cold_plan_is_dts_order_merged() {
        let cost = CostModel::unit();
        for seed in 0..3u64 {
            let (g, a, cap) = case(seed);
            let (rp, planned) = Replanner::new(&g, &a, &cost, cap, 1);
            let seq = dts_order_merged(&g, &a, &cost, cap);
            assert_eq!(rp.sched().order, seq.order, "seed {seed}");
            assert!(planned.report.accepted(), "seed {seed}: {:?}", planned.report.findings);
            assert!(!planned.incremental);
        }
    }

    #[test]
    fn capacity_replan_is_verified_and_matches_cold() {
        let cost = CostModel::unit();
        let (g, a, cap) = case(1);
        let (mut rp, cold) = Replanner::new(&g, &a, &cost, cap, 1);
        assert!(cold.report.accepted(), "{:?}", cold.report.findings);
        // The cached order's own feasibility floor: replans at or above
        // it stay on the fast path; below it they fall back (or report
        // infeasibility, exactly like a cold plan would).
        let floor = min_mem(&g, rp.sched()).min_mem;
        for new_cap in [2 * cap, floor, cap + 7, floor.saturating_sub(2).max(1)] {
            let re = rp.replan_capacity(new_cap);
            assert_eq!(re.placement.capacity, new_cap);
            if re.report.accepted() {
                // Whatever path was taken, the accepted placement must
                // survive the *full* analysis set against the cached
                // schedule and plan.
                let full = crate::verify(&g, rp.sched(), rp.plan(), &re.placement);
                assert!(full.accepted(), "cap {new_cap}: {:?}", full.findings);
            } else {
                // Rejection must be a capacity verdict, never an
                // internal inconsistency.
                assert!(
                    re.report
                        .findings
                        .iter()
                        .all(|f| matches!(f, Finding::CapacityExceeded { .. })),
                    "cap {new_cap}: {:?}",
                    re.report.findings
                );
            }
        }
    }

    #[test]
    fn growing_capacity_takes_the_incremental_path() {
        let cost = CostModel::unit();
        let (g, a, cap) = case(2);
        let (mut rp, cold) = Replanner::new(&g, &a, &cost, cap, 1);
        assert!(cold.report.accepted(), "{:?}", cold.report.findings);
        // More memory can always host the cached order.
        let re = rp.replan_capacity(2 * cap);
        assert!(re.incremental, "growing capacity must reuse the cached order");
        assert!(re.report.accepted());
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
