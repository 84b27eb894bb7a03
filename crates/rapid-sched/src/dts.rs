//! DTS — data-access directed time-slicing (paper §4.2) and the
//! slice-merging refinement (Figure 6).
//!
//! DTS slices the computation by data-access patterns: the strongly
//! connected components of the data connection graph (DCG), in topological
//! order, form slices; on every processor tasks execute slice by slice, so
//! each volatile object has a short life span. Within a slice ready tasks
//! are picked by critical-path priority. Theorem 2 bounds the per-processor
//! space of a DTS schedule by `S1/p + h` where `h = max_i H(R, L_i)`.
//!
//! When the available memory `AVAIL_MEM` is known, consecutive slices are
//! merged while their combined volatile requirement fits (Figure 6), giving
//! the scheduler more critical-path freedom and recovering most of RCP's
//! time efficiency (Table 7).

use crate::heapsim::{simulate_ordering_heap, simulate_ordering_heap_with, HeapPolicy, SimCtx};
use rapid_core::algo::OrdF64;
use rapid_core::dcg::{Dcg, VolatileScratch};
use rapid_core::graph::{Csr, TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};

/// The slice gating lives in the simulator's parked/active heap machinery
/// (`heapsim` parks ready tasks of future slices and drains them when the
/// processor's lowest incomplete slice advances), so eligibility is a
/// heap transfer instead of a per-step filter pass. Within a slice the
/// key is the static critical-path priority, exactly as RCP.
struct DtsPolicy<'s> {
    slice_of_task: &'s [u32],
    num_slices: u32,
}

impl HeapPolicy for DtsPolicy<'_> {
    type Key = OrdF64;

    #[inline]
    fn key(&self, t: TaskId, ctx: &SimCtx<'_>) -> OrdF64 {
        OrdF64(ctx.blevel[t.idx()])
    }

    #[inline]
    fn slice_of(&self, t: TaskId) -> u32 {
        self.slice_of_task[t.idx()]
    }

    #[inline]
    fn num_slices(&self) -> u32 {
        self.num_slices
    }
}

/// Order tasks by DTS over the raw (unmerged) slices of the DCG.
pub fn dts_order(g: &TaskGraph, assign: &Assignment, cost: &CostModel) -> Schedule {
    let dcg = Dcg::build(g);
    dts_order_with(g, assign, cost, &dcg.slice_of_task, dcg.num_slices)
}

/// Order tasks by DTS over an explicit task→slice map (used after
/// merging).
pub fn dts_order_with(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    slice_of_task: &[u32],
    num_slices: u32,
) -> Schedule {
    let mut policy = DtsPolicy { slice_of_task, num_slices };
    simulate_ordering_heap(g, assign, cost, &mut policy)
}

/// [`dts_order_with`] over the edge costs and bottom levels a caller
/// already holds (see [`simulate_ordering_heap_with`]); the replanner
/// caches them across capacities.
pub fn dts_order_with_levels(
    g: &TaskGraph,
    assign: &Assignment,
    slice_of_task: &[u32],
    num_slices: u32,
    blevel: &[f64],
    edge_cost: &Csr<f64>,
) -> Schedule {
    let mut policy = DtsPolicy { slice_of_task, num_slices };
    simulate_ordering_heap_with(g, assign, &mut policy, blevel, edge_cost)
}

/// Per-slice `H(R, L_i)` (Definition 7) for every slice, through the
/// O(1)-membership scratch — linear in the accesses of each slice. This
/// is the vector the Figure-6 merge walks; the cap-only replanner caches
/// it to re-merge under a new capacity without touching the DCG.
pub fn slice_h(g: &TaskGraph, assign: &Assignment, dcg: &Dcg) -> Vec<u64> {
    let mut scratch = VolatileScratch::new(g.num_objects());
    (0..dcg.num_slices)
        .map(|l| dcg.max_volatile_space_scratch(g, assign, l, &mut scratch))
        .collect()
}

/// The greedy walk of Figure 6 over a precomputed per-slice `H` vector:
/// merge consecutive slices while the sum of their volatile requirements
/// stays within `avail_volatile`. Returns the merged slice id of every
/// original slice and the number of merged slices.
pub fn merge_slices_from_h(h: &[u64], avail_volatile: u64) -> (Vec<u32>, u32) {
    let k = h.len();
    let mut merged_of = vec![0u32; k];
    if k == 0 {
        return (merged_of, 0);
    }
    let mut space_req = h[0];
    let mut cur = 0u32;
    merged_of[0] = 0;
    for i in 1..k {
        if space_req + h[i] <= avail_volatile {
            merged_of[i] = cur;
            space_req += h[i];
        } else {
            cur += 1;
            merged_of[i] = cur;
            space_req = h[i];
        }
    }
    (merged_of, cur + 1)
}

/// The slice-merging algorithm of Figure 6: walk the slices in topological
/// order and merge consecutive slices while the sum of their `H(R, L_i)`
/// volatile requirements stays within `avail_volatile` (the memory left
/// after permanent objects). Returns the merged slice id of every original
/// slice and the number of merged slices.
pub fn merge_slices(
    g: &TaskGraph,
    assign: &Assignment,
    dcg: &Dcg,
    avail_volatile: u64,
) -> (Vec<u32>, u32) {
    merge_slices_from_h(&slice_h(g, assign, dcg), avail_volatile)
}

/// Volatile budget left under a per-processor `capacity` once permanent
/// objects are accounted: `capacity - max_p perm(p)` as in Theorem 2.
pub fn avail_volatile(g: &TaskGraph, assign: &Assignment, capacity: u64) -> u64 {
    let mut perm = vec![0u64; assign.nprocs];
    for d in g.objects() {
        perm[assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let max_perm = perm.iter().copied().max().unwrap_or(0);
    capacity.saturating_sub(max_perm)
}

/// DTS with slice merging under a per-processor memory `capacity` (in
/// allocation units, *including* permanent objects — the volatile budget is
/// `capacity - max_p perm(p)` as in Theorem 2's accounting).
pub fn dts_order_merged(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    capacity: u64,
) -> Schedule {
    let dcg = Dcg::build(g);
    let avail = avail_volatile(g, assign, capacity);
    let (merged_of, nmerged) = merge_slices(g, assign, &dcg, avail);
    let slice_of_task: Vec<u32> =
        g.tasks().map(|t| merged_of[dcg.slice_of_task[t.idx()] as usize]).collect();
    dts_order_with(g, assign, cost, &slice_of_task, nmerged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpo::mpo_order;
    use crate::rcp::rcp_order;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;
    use rapid_core::schedule::evaluate;

    #[test]
    fn dts_hits_theorem2_bound_on_figure2() {
        // Figure 5(b): the DTS schedule of the Figure-2 DAG has
        // MIN_MEM = 7 (vs 9 for RCP and 8 for MPO).
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let s = dts_order(&g, &assign, &CostModel::unit());
        assert!(s.is_valid(&g));
        let rep = min_mem(&g, &s);
        assert_eq!(rep.min_mem, 7);
    }

    #[test]
    fn paper_memory_ordering_rcp_mpo_dts() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let cost = CostModel::unit();
        let mm = |s: &Schedule| min_mem(&g, s).min_mem;
        let rcp = mm(&rcp_order(&g, &assign, &cost));
        let mpo = mm(&mpo_order(&g, &assign, &cost));
        let dts = mm(&dts_order(&g, &assign, &cost));
        assert!(rcp >= mpo && mpo >= dts, "rcp={rcp} mpo={mpo} dts={dts}");
        assert_eq!(dts, 7);
    }

    #[test]
    fn theorem2_bound_holds_on_random_graphs() {
        // peak(p) <= perm(p) + h for every processor of a DTS schedule.
        for seed in 0..10 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = crate::assign::cyclic_owner_map(g.num_objects(), 3);
            let assign = crate::assign::owner_compute_assignment(&g, &owner, 3);
            let dcg = Dcg::build(&g);
            let h = dcg.theorem2_h(&g, &assign);
            let s = dts_order(&g, &assign, &CostModel::unit());
            assert!(s.is_valid(&g), "seed {seed}");
            let rep = min_mem(&g, &s);
            for p in 0..assign.nprocs {
                assert!(
                    rep.peak[p] <= rep.perm[p] + h,
                    "seed {seed}: peak {} > perm {} + h {h} on P{p}",
                    rep.peak[p],
                    rep.perm[p]
                );
            }
        }
    }

    #[test]
    fn merging_with_infinite_memory_collapses_to_one_slice() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let dcg = Dcg::build(&g);
        let (merged, n) = merge_slices(&g, &assign, &dcg, u64::MAX);
        assert_eq!(n, 1);
        assert!(merged.iter().all(|&m| m == 0));
    }

    #[test]
    fn merging_with_zero_memory_keeps_all_slices() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let dcg = Dcg::build(&g);
        let (_, n) = merge_slices(&g, &assign, &dcg, 0);
        assert_eq!(n, dcg.num_slices);
    }

    #[test]
    fn merged_dts_is_faster_but_hungrier() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let cost = CostModel::unit();
        let strict = dts_order(&g, &assign, &cost);
        let merged = dts_order_merged(&g, &assign, &cost, u64::MAX);
        assert!(merged.is_valid(&g));
        let pt_strict = evaluate(&g, &cost, &strict).makespan;
        let pt_merged = evaluate(&g, &cost, &merged).makespan;
        assert!(pt_merged <= pt_strict + 1e-9, "merged {pt_merged} vs strict {pt_strict}");
        // With unlimited capacity merged-DTS degenerates to RCP ordering.
        let rcp = rcp_order(&g, &assign, &cost);
        let pt_rcp = evaluate(&g, &cost, &rcp).makespan;
        assert!((pt_merged - pt_rcp).abs() < 1e-9);
    }

    #[test]
    fn merged_dts_respects_capacity_on_random_graphs() {
        for seed in 0..8 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = crate::assign::cyclic_owner_map(g.num_objects(), 3);
            let assign = crate::assign::owner_compute_assignment(&g, &owner, 3);
            // Capacity: strict-DTS requirement + a small slack; merged DTS
            // must stay within it (merging only happens when it fits).
            let strict = dts_order(&g, &assign, &CostModel::unit());
            let cap = min_mem(&g, &strict).min_mem + 2;
            let s = dts_order_merged(&g, &assign, &CostModel::unit(), cap);
            assert!(s.is_valid(&g), "seed {seed}");
            let rep = min_mem(&g, &s);
            assert!(
                rep.min_mem <= cap,
                "seed {seed}: merged DTS needs {} > cap {cap}",
                rep.min_mem
            );
        }
    }
}
