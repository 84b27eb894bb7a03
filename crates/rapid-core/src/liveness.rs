//! Volatile-object lifetime analysis (paper Definition 4 and §3.3).
//!
//! For a fixed per-processor execution order, a volatile object is *alive*
//! at a position if it is accessed there, or has been accessed before and
//! will be accessed again later; otherwise it is *dead* (obsolete). Dead
//! points are computed statically by a linear sweep over each processor's
//! order ("the dead point information can be statically calculated by
//! performing a data flow analysis on a given DAG with a complexity
//! proportional to the size of the graph").

use crate::graph::{Csr, ObjId, TaskGraph};
use crate::schedule::Schedule;

/// Lifetime information for one processor's task order.
#[derive(Clone, Debug, Default)]
pub struct ProcLiveness {
    /// `first_use[i]`: volatile objects whose first local access is at
    /// position `i` of the order (sorted by object id).
    pub first_use: Csr<ObjId>,
    /// `dead_after[i]`: volatile objects whose last local access is at
    /// position `i`; their space may be recycled at any later MAP.
    pub dead_after: Csr<ObjId>,
    /// Every volatile object of the processor (sorted).
    pub volatile: Vec<ObjId>,
    /// `volatile_span[k] = (first, last)` positions for `volatile[k]`.
    pub volatile_span: Vec<(u32, u32)>,
}

/// Lifetime information for a whole schedule.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// One entry per processor.
    pub procs: Vec<ProcLiveness>,
}

impl Liveness {
    /// Compute lifetimes for `sched`. Complexity is O(Σ access-set sizes).
    pub fn analyze(g: &TaskGraph, sched: &Schedule) -> Liveness {
        let m = g.num_objects();
        let mut first = vec![u32::MAX; m];
        let mut last = vec![u32::MAX; m];
        let mut procs = Vec::with_capacity(sched.order.len());
        for (p, ord) in sched.order.iter().enumerate() {
            // Reset only the slots we will touch (objects of this proc).
            let mut touched: Vec<ObjId> = Vec::new();
            for (i, &t) in ord.iter().enumerate() {
                for d in g.accesses(t) {
                    if sched.assign.owner_of(d) == p as u32 {
                        continue; // permanent on this processor
                    }
                    if first[d.idx()] == u32::MAX {
                        first[d.idx()] = i as u32;
                        touched.push(d);
                    }
                    last[d.idx()] = i as u32;
                }
            }
            touched.sort_unstable();
            // Dealt in ascending object order, so every row comes out sorted.
            let pl = ProcLiveness {
                first_use: Csr::group(
                    ord.len(),
                    touched.iter().map(|&d| (first[d.idx()] as usize, d)),
                ),
                dead_after: Csr::group(
                    ord.len(),
                    touched.iter().map(|&d| (last[d.idx()] as usize, d)),
                ),
                volatile_span: touched.iter().map(|&d| (first[d.idx()], last[d.idx()])).collect(),
                volatile: touched,
            };
            // Clear scratch for next processor.
            for &d in &pl.volatile {
                first[d.idx()] = u32::MAX;
                last[d.idx()] = u32::MAX;
            }
            procs.push(pl);
        }
        Liveness { procs }
    }

    /// Is volatile object `d` alive at position `pos` on processor `p`?
    /// (Definition 4.) Returns `false` for objects that are not volatile on
    /// `p`.
    pub fn is_alive(&self, p: usize, d: ObjId, pos: u32) -> bool {
        let pl = &self.procs[p];
        match pl.volatile.binary_search(&d) {
            Ok(k) => {
                let (f, l) = pl.volatile_span[k];
                f <= pos && pos <= l
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::graph::TaskGraphBuilder;
    use crate::graph::TaskId;
    use crate::schedule::{Assignment, Schedule};

    #[test]
    fn spans_on_simple_pipeline() {
        // P1 runs three tasks reading remote objects a (twice) and b (once).
        let mut b = TaskGraphBuilder::new();
        let da = b.add_object(2);
        let db = b.add_object(3);
        let dx = b.add_object(1);
        let dy = b.add_object(1);
        let dz = b.add_object(1);
        let w0 = b.add_task(1.0, &[], &[da]);
        let w1 = b.add_task(1.0, &[], &[db]);
        let r0 = b.add_task(1.0, &[da], &[dx]);
        let r1 = b.add_task(1.0, &[db], &[dy]);
        let r2 = b.add_task(1.0, &[da], &[dz]);
        b.add_edge(w0, r0);
        b.add_edge(w0, r2);
        b.add_edge(w1, r1);
        let g = b.build().unwrap();
        let assign =
            Assignment { task_proc: vec![0, 0, 1, 1, 1], owner: vec![0, 0, 1, 1, 1], nprocs: 2 };
        let sched = Schedule { assign, order: vec![vec![w0, w1], vec![r0, r1, r2]] };
        let lv = Liveness::analyze(&g, &sched);
        let p1 = &lv.procs[1];
        assert_eq!(p1.volatile, vec![da, db]);
        // a first used at pos 0, last at pos 2; b only at pos 1.
        assert_eq!(p1.volatile_span, vec![(0, 2), (1, 1)]);
        assert_eq!(p1.first_use[0], vec![da]);
        assert_eq!(p1.first_use[1], vec![db]);
        assert_eq!(p1.dead_after[1], vec![db]);
        assert_eq!(p1.dead_after[2], vec![da]);
        assert!(lv.is_alive(1, da, 1));
        assert!(!lv.is_alive(1, db, 2));
        assert!(!lv.is_alive(1, dx, 0), "permanent objects are not tracked");
        // P0 has no volatiles.
        assert!(lv.procs[0].volatile.is_empty());
    }

    #[test]
    fn figure2_rcp_dead_points() {
        // Paper §3.2: in the schedule of Figure 2(b), on P1 volatile d3 is
        // dead after T[3,10] and d5 dead after T[5,10].
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let lv = Liveness::analyze(&g, &sched);
        let p1 = &lv.procs[1];
        let pos_of = |t: TaskId| sched.order[1].iter().position(|&x| x == t).unwrap() as u32;
        let d3 = fixtures::obj(3);
        let d5 = fixtures::obj(5);
        let t_3_10 = fixtures::figure2_task(&g, "T[3,10]");
        let t_5_10 = fixtures::figure2_task(&g, "T[5,10]");
        let k3 = p1.volatile.binary_search(&d3).unwrap();
        let k5 = p1.volatile.binary_search(&d5).unwrap();
        assert_eq!(p1.volatile_span[k3].1, pos_of(t_3_10));
        assert_eq!(p1.volatile_span[k5].1, pos_of(t_5_10));
    }
}
