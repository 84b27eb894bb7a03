//! MPO — memory-priority guided ordering (paper §4.1, Figure 4).
//!
//! The heuristic simulates execution following task dependencies. When a
//! task is scheduled, all volatile objects it needs are allocated on its
//! processor. At each cycle the processor with the earliest idle time
//! schedules its ready task with the highest *memory priority* — the
//! number of the task's objects already allocated divided by the total
//! number of objects the task needs (permanent objects count as always
//! allocated, matching the paper's worked example where `T[3,10]` has
//! priority 1 because `d3` and `d10` "are all available locally").
//! Ties break by critical-path (bottom level) priority.
//!
//! The goal is to reference volatile objects as early as possible after
//! they materialize, shortening their lifetimes and reducing `MIN_MEM`.

use crate::heapsim::{simulate_ordering_heap, HeapPolicy, SimCtx};
use rapid_core::algo::OrdF64;
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::{Assignment, CostModel, Schedule};

/// MPO with *incremental* memory priorities.
///
/// The paper's rule recomputes `have/total` over every ready task's whole
/// access set at every pick. Here each task carries a `have` counter of
/// its accesses currently satisfied on its processor (local objects plus
/// volatile copies allocated so far). When a task's scheduling allocates
/// a volatile object, only the tasks that actually access that object —
/// found through the graph's object→tasks reverse index
/// ([`TaskGraph::accessors`], built once in O(Σ access sets)) — get their
/// counters bumped and are reported dirty, to be re-keyed in place. An
/// allocation therefore costs O(|accessors|·log V) instead of a full
/// ready-list rescan.
struct MpoPolicy {
    /// `allocated[d * nprocs + p]`: volatile copy of `d` present on `p`.
    allocated: Vec<bool>,
    nprocs: usize,
    /// Per task: accesses currently satisfied on the task's processor,
    /// and all its accesses.
    have_total: Vec<(u32, u32)>,
}

impl MpoPolicy {
    fn new(g: &TaskGraph, assign: &Assignment) -> Self {
        let have_total = g
            .tasks()
            .map(|t| {
                let p = assign.proc_of(t);
                g.accesses(t).fold((0, 0), |(have, total), d| {
                    (have + u32::from(assign.owner_of(d) == p), total + 1)
                })
            })
            .collect();
        MpoPolicy {
            allocated: vec![false; g.num_objects() * assign.nprocs],
            nprocs: assign.nprocs,
            have_total,
        }
    }
}

impl HeapPolicy for MpoPolicy {
    type Key = (OrdF64, OrdF64);

    #[inline]
    fn key(&self, t: TaskId, ctx: &SimCtx<'_>) -> (OrdF64, OrdF64) {
        // The paper's memory priority bit for bit: the same integer
        // counts, the same division.
        let (have, total) = self.have_total[t.idx()];
        let pri = if total == 0 { 1.0 } else { have as f64 / total as f64 };
        (OrdF64(pri), OrdF64(ctx.blevel[t.idx()]))
    }

    fn on_scheduled(&mut self, t: TaskId, ctx: &SimCtx<'_>, dirty: &mut Vec<TaskId>) {
        // Figure 4, line 4: allocate all volatile objects T_x uses that
        // are not yet allocated on its processor; each *first* allocation
        // bumps exactly the local accessors of that object.
        let p = ctx.assign.proc_of(t);
        for d in ctx.g.accesses(t) {
            if ctx.assign.owner_of(d) != p {
                let slot = d.idx() * self.nprocs + p as usize;
                if !self.allocated[slot] {
                    self.allocated[slot] = true;
                    for &u in ctx.g.accessors(d) {
                        if ctx.assign.proc_of(TaskId(u)) == p {
                            self.have_total[u as usize].0 += 1;
                            dirty.push(TaskId(u));
                        }
                    }
                }
            }
        }
    }
}

/// Order the tasks of each processor by the MPO heuristic.
pub fn mpo_order(g: &TaskGraph, assign: &Assignment, cost: &CostModel) -> Schedule {
    simulate_ordering_heap(g, assign, cost, &mut MpoPolicy::new(g, assign))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rcp::rcp_order;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;

    #[test]
    fn mpo_saves_memory_on_figure2() {
        let g = fixtures::figure2_dag();
        let assign = fixtures::figure2_assignment();
        let cost = CostModel::unit();
        let mpo = mpo_order(&g, &assign, &cost);
        assert!(mpo.is_valid(&g));
        let rcp = rcp_order(&g, &assign, &cost);
        let mm_mpo = min_mem(&g, &mpo).min_mem;
        let mm_rcp = min_mem(&g, &rcp).min_mem;
        assert!(mm_mpo <= mm_rcp, "MPO ({mm_mpo}) must not need more memory than RCP ({mm_rcp})");
        // The paper's MPO schedule for this DAG needs 8 units.
        assert!(mm_mpo <= 8, "MPO MIN_MEM = {mm_mpo}");
    }

    #[test]
    fn mpo_reuses_allocated_volatiles_first() {
        // One processor reads remote objects a and b; after the first
        // a-reader runs, the second a-reader must be preferred over the
        // b-reader even though the b-reader has a higher bottom level.
        use rapid_core::graph::TaskGraphBuilder;
        let mut b = TaskGraphBuilder::new();
        let da = b.add_object(1);
        let db = b.add_object(1);
        let o: Vec<_> = (0..4).map(|_| b.add_object(1)).collect();
        let wa = b.add_task(1.0, &[], &[da]);
        let wb = b.add_task(1.0, &[], &[db]);
        let ra1 = b.add_task(1.0, &[da], &[o[0]]);
        let ra2 = b.add_task(1.0, &[da], &[o[1]]);
        let rb = b.add_task(1.0, &[db], &[o[2]]);
        let tail = b.add_task(5.0, &[o[2]], &[o[3]]); // makes rb critical
        b.add_edge(wa, ra1);
        b.add_edge(wa, ra2);
        b.add_edge(wb, rb);
        b.add_edge(rb, tail);
        let g = b.build().unwrap();
        let assign = Assignment {
            task_proc: vec![0, 0, 1, 1, 1, 1],
            owner: vec![0, 0, 1, 1, 1, 1],
            nprocs: 2,
        };
        let cost = CostModel::unit();
        let mpo = mpo_order(&g, &assign, &cost);
        let pos = |t: TaskId| mpo.order[1].iter().position(|&x| x == t).unwrap();
        // Once one a-reader has run (allocating da), the other a-reader has
        // memory priority 1 vs rb's 0.5 (db not yet allocated) — so the two
        // a-readers must be adjacent.
        assert_eq!(pos(ra2).abs_diff(pos(ra1)), 1, "order {:?}", mpo.order[1]);

        // RCP would instead run rb (bottom level 7+) before the second
        // a-reader.
        let rcp = rcp_order(&g, &assign, &cost);
        let rpos = |t: TaskId| rcp.order[1].iter().position(|&x| x == t).unwrap();
        assert!(rpos(rb) < rpos(ra1).max(rpos(ra2)), "order {:?}", rcp.order[1]);
    }

    #[test]
    fn mpo_valid_on_random_graphs() {
        for seed in 0..6 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = crate::assign::cyclic_owner_map(g.num_objects(), 4);
            let a = crate::assign::owner_compute_assignment(&g, &owner, 4);
            let s = mpo_order(&g, &a, &CostModel::unit());
            assert!(s.is_valid(&g), "seed {seed}");
        }
    }
}
