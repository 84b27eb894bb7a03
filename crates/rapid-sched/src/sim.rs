//! The straight-scan reference orderings, the tests' oracles.
//!
//! [`simulate_ordering_reference`] transcribes the paper's simulation
//! (Figure 4) literally: every step rescans the processors for the
//! earliest idle one and asks an [`OrderPolicy`] to rescan that
//! processor's ready list. Each ordering's pick rule is restated here the
//! same way — RCP's critical path, MPO's memory priority recounted over
//! the whole access set, DTS's slice gate as a filter — and the tests
//! below demand that the production heap simulation
//! ([`crate::heapsim`]) reproduce every order exactly, tie breaks
//! included.

use crate::dts::{avail_volatile, merge_slices_from_h};
use crate::heapsim::SimCtx;
use rapid_core::algo::{self, OrdF64};
use rapid_core::dcg::Dcg;
use rapid_core::graph::{ProcId, TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};

/// A pick rule for the straight-scan simulation.
pub(crate) trait OrderPolicy {
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
/// per-processor orders: O(steps × ready-list length × pick cost).
pub(crate) fn simulate_ordering_reference<P: OrderPolicy>(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    policy: &mut P,
) -> Schedule {
    let n = g.num_tasks();
    let blevel = algo::bottom_levels(g, cost, Some(assign));
    let ctx = SimCtx { g, assign, blevel: &blevel };
    let mut arrival = vec![0.0f64; n];
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
            if !ready[p].iter().any(|&t| policy.eligible(p as ProcId, t, &ctx)) {
                continue;
            }
            let key = OrdF64(clock[p]);
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, p));
            }
        }
        let Some((_, p)) = best else { unreachable!("ordering simulation stalled") };
        // Restrict the policy's view to eligible tasks.
        let eligible: Vec<TaskId> =
            ready[p].iter().copied().filter(|&t| policy.eligible(p as ProcId, t, &ctx)).collect();
        let t = eligible[policy.pick(p as ProcId, &eligible, &ctx)];
        let Some(pos) = ready[p].iter().position(|&x| x == t) else { unreachable!("not ready") };
        ready[p].swap_remove(pos);

        let end = clock[p].max(arrival[t.idx()]) + g.weight(t);
        clock[p] = end;
        order[p].push(t);
        scheduled += 1;
        policy.on_scheduled(t, &ctx);
        for &s in g.succs(t) {
            let s = TaskId(s);
            let a = end + algo::edge_comm_cost(g, cost, Some(assign), t, s);
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

/// Index of the ready task with the highest `key`, ties to the smaller id.
fn argmax<K: PartialOrd>(ready: &[TaskId], key: impl Fn(TaskId) -> K) -> usize {
    let mut best = 0;
    for (i, &t) in ready.iter().enumerate().skip(1) {
        let (k, kb) = (key(t), key(ready[best]));
        if k > kb || (k == kb && t < ready[best]) {
            best = i;
        }
    }
    best
}

/// RCP: the highest bottom level.
struct RcpPolicy;

impl OrderPolicy for RcpPolicy {
    fn pick(&mut self, _p: ProcId, ready: &[TaskId], ctx: &SimCtx<'_>) -> usize {
        argmax(ready, |t| ctx.blevel[t.idx()])
    }
}

/// MPO: the largest fraction of allocated objects, recounted at every
/// pick, then the highest bottom level.
struct MpoPolicy {
    /// `allocated[obj * nprocs + p]`: volatile copy of `obj` on `p`.
    allocated: Vec<bool>,
    nprocs: usize,
}

impl MpoPolicy {
    /// Memory priority of `t` on processor `p`: allocated objects over
    /// total objects accessed (permanents count as allocated).
    fn mem_priority(&self, p: ProcId, t: TaskId, ctx: &SimCtx<'_>) -> f64 {
        let (mut total, mut have) = (0u32, 0u32);
        for d in ctx.g.accesses(t) {
            total += 1;
            if ctx.assign.owner_of(d) == p || self.allocated[d.idx() * self.nprocs + p as usize] {
                have += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            have as f64 / total as f64
        }
    }
}

impl OrderPolicy for MpoPolicy {
    fn pick(&mut self, p: ProcId, ready: &[TaskId], ctx: &SimCtx<'_>) -> usize {
        argmax(ready, |t| (self.mem_priority(p, t, ctx), ctx.blevel[t.idx()]))
    }

    fn on_scheduled(&mut self, t: TaskId, ctx: &SimCtx<'_>) {
        // Figure 4, line 4: allocate every volatile object T_x uses.
        let p = ctx.assign.proc_of(t);
        for d in ctx.g.accesses(t) {
            if ctx.assign.owner_of(d) != p {
                self.allocated[d.idx() * self.nprocs + p as usize] = true;
            }
        }
    }
}

/// DTS: only the lowest incomplete slice of a processor may run; within
/// it, the highest bottom level.
struct DtsPolicy<'s> {
    slice_of_task: &'s [u32],
    /// `remaining[p][l]`: unscheduled tasks of slice `l` on processor `p`.
    remaining: Vec<Vec<u32>>,
    /// Lowest incomplete slice per processor.
    lowest: Vec<usize>,
}

impl OrderPolicy for DtsPolicy<'_> {
    fn eligible(&self, p: ProcId, t: TaskId, _ctx: &SimCtx<'_>) -> bool {
        self.slice_of_task[t.idx()] as usize == self.lowest[p as usize]
    }

    fn pick(&mut self, _p: ProcId, ready: &[TaskId], ctx: &SimCtx<'_>) -> usize {
        argmax(ready, |t| ctx.blevel[t.idx()])
    }

    fn on_scheduled(&mut self, t: TaskId, ctx: &SimCtx<'_>) {
        let p = ctx.assign.proc_of(t) as usize;
        let r = &mut self.remaining[p];
        r[self.slice_of_task[t.idx()] as usize] -= 1;
        while self.lowest[p] < r.len() && r[self.lowest[p]] == 0 {
            self.lowest[p] += 1;
        }
    }
}

pub(crate) fn rcp_order_reference(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
) -> Schedule {
    simulate_ordering_reference(g, assign, cost, &mut RcpPolicy)
}

pub(crate) fn mpo_order_reference(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
) -> Schedule {
    let allocated = vec![false; g.num_objects() * assign.nprocs];
    simulate_ordering_reference(
        g,
        assign,
        cost,
        &mut MpoPolicy { allocated, nprocs: assign.nprocs },
    )
}

pub(crate) fn dts_order_with_reference(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    slice_of_task: &[u32],
    num_slices: u32,
) -> Schedule {
    let mut remaining = vec![vec![0u32; num_slices as usize]; assign.nprocs];
    for t in g.tasks() {
        remaining[assign.proc_of(t) as usize][slice_of_task[t.idx()] as usize] += 1;
    }
    let lowest =
        remaining.iter().map(|r| r.iter().position(|&c| c > 0).unwrap_or(r.len())).collect();
    let mut policy = DtsPolicy { slice_of_task, remaining, lowest };
    simulate_ordering_reference(g, assign, cost, &mut policy)
}

pub(crate) fn dts_order_reference(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
) -> Schedule {
    let dcg = Dcg::build(g);
    dts_order_with_reference(g, assign, cost, &dcg.slice_of_task, dcg.num_slices)
}

/// The Figure-6 merge over `H` evaluated by the quadratic
/// [`Dcg::max_volatile_space`], whose membership test scans the volatile
/// set.
pub(crate) fn merge_slices_reference(
    g: &TaskGraph,
    assign: &Assignment,
    dcg: &Dcg,
    avail_volatile: u64,
) -> (Vec<u32>, u32) {
    let h: Vec<u64> = (0..dcg.num_slices).map(|l| dcg.max_volatile_space(g, assign, l)).collect();
    merge_slices_from_h(&h, avail_volatile)
}

/// Merged DTS composed of the reference merge and the reference
/// simulation.
pub(crate) fn dts_order_merged_reference(
    g: &TaskGraph,
    assign: &Assignment,
    cost: &CostModel,
    capacity: u64,
) -> Schedule {
    let dcg = Dcg::build(g);
    let avail = avail_volatile(g, assign, capacity);
    let (merged_of, nmerged) = merge_slices_reference(g, assign, &dcg, avail);
    let slice_of_task: Vec<u32> =
        g.tasks().map(|t| merged_of[dcg.slice_of_task[t.idx()] as usize]).collect();
    dts_order_with_reference(g, assign, cost, &slice_of_task, nmerged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{cyclic_owner_map, owner_compute_assignment};
    use crate::{dts_order, dts_order_merged, merge_slices, mpo_order, rcp_order};
    use rapid_core::fixtures::{self, RandomGraphSpec};

    /// Order-for-order equality, per processor.
    fn assert_same_orders(heap: &Schedule, reference: &Schedule, what: &str, seed: u64) {
        assert_eq!(heap.order.len(), reference.order.len(), "{what}, seed {seed}: processors");
        for (p, (h, r)) in heap.order.iter().zip(&reference.order).enumerate() {
            assert_eq!(h, r, "{what}, seed {seed}: order differs on processor {p}");
        }
    }

    fn check_all(seed: u64, spec: &RandomGraphSpec, nprocs: usize) {
        let g = fixtures::random_irregular_graph(seed, spec);
        let owner = cyclic_owner_map(g.num_objects(), nprocs);
        let a = owner_compute_assignment(&g, &owner, nprocs);
        let cost = CostModel::unit();
        let cases = [
            ("rcp", rcp_order(&g, &a, &cost), rcp_order_reference(&g, &a, &cost)),
            ("mpo", mpo_order(&g, &a, &cost), mpo_order_reference(&g, &a, &cost)),
            ("dts", dts_order(&g, &a, &cost), dts_order_reference(&g, &a, &cost)),
        ];
        for (what, heap, reference) in &cases {
            assert!(heap.is_valid(&g), "{what} heap invalid, seed {seed}");
            assert_same_orders(heap, reference, what, seed);
        }
    }

    #[test]
    fn heap_matches_reference_on_default_random_graphs() {
        for seed in 0..40 {
            check_all(seed, &RandomGraphSpec::default(), 4);
        }
    }

    #[test]
    fn heap_matches_reference_on_wide_graphs() {
        // Wide graphs keep many tasks ready at once, stressing pick tie
        // breaks and in-place re-keying in the per-processor heaps.
        let spec = RandomGraphSpec {
            objects: 60,
            tasks: 200,
            max_obj_size: 3,
            max_reads: 4,
            update_prob: 0.2,
            accum_prob: 0.1,
            max_weight: 2.0,
        };
        for seed in 100..120 {
            check_all(seed, &spec, 8);
        }
    }

    #[test]
    fn heap_matches_reference_with_heavy_ties() {
        // Unit weights + few distinct objects collapse most priority keys
        // to identical values, so almost every pick is decided by the
        // task-id tie break — any asymmetry between the two simulators
        // shows here.
        let spec = RandomGraphSpec {
            objects: 8,
            tasks: 150,
            max_obj_size: 1,
            max_reads: 2,
            update_prob: 0.5,
            accum_prob: 0.0,
            max_weight: 1.0,
        };
        for seed in 200..220 {
            check_all(seed, &spec, 3);
        }
    }

    #[test]
    fn heap_matches_reference_on_single_processor() {
        // nprocs = 1 degenerates the processor heap to a single entry and
        // makes every object local (no volatile allocations for MPO).
        for seed in 300..310 {
            check_all(seed, &RandomGraphSpec::default(), 1);
        }
    }

    /// Large-graph smoke test (~50k tasks). Debug builds take too long on
    /// the O(ready · accesses) reference scans, so this only runs in
    /// release mode (`cargo test --release -p rapid-sched sim::`).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn heap_matches_reference_on_large_graph() {
        let spec = RandomGraphSpec {
            objects: 12_000,
            tasks: 50_000,
            max_obj_size: 4,
            max_reads: 3,
            update_prob: 0.35,
            accum_prob: 0.05,
            max_weight: 4.0,
        };
        check_all(4242, &spec, 16);
    }

    #[test]
    fn merged_reference_matches_fast_path() {
        let cost = CostModel::unit();
        let spec = RandomGraphSpec { objects: 60, tasks: 400, ..RandomGraphSpec::default() };
        for seed in 0..5u64 {
            let g = fixtures::random_irregular_graph(seed, &spec);
            let a = owner_compute_assignment(&g, &cyclic_owner_map(g.num_objects(), 4), 4);
            let dcg = Dcg::build(&g);
            for cap in [32u64, 64, 256] {
                let avail = avail_volatile(&g, &a, cap);
                assert_eq!(
                    merge_slices(&g, &a, &dcg, avail),
                    merge_slices_reference(&g, &a, &dcg, avail),
                    "seed {seed} cap {cap}"
                );
                let fast = dts_order_merged(&g, &a, &cost, cap);
                let reference = dts_order_merged_reference(&g, &a, &cost, cap);
                assert_eq!(fast.order, reference.order, "seed {seed} cap {cap}");
            }
        }
    }

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
            let g = fixtures::random_irregular_graph(seed, &RandomGraphSpec::default());
            let owner = cyclic_owner_map(g.num_objects(), 3);
            let a = owner_compute_assignment(&g, &owner, 3);
            let s = simulate_ordering_reference(&g, &a, &CostModel::unit(), &mut Fifo);
            assert!(s.is_valid(&g), "seed {seed}");
        }
    }
}
