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
    /// Every volatile object of the processor (sorted).
    pub volatile: Vec<ObjId>,
    /// `volatile_span[k] = (first, last)` positions for `volatile[k]`;
    /// after `last` the object is dead and its space may be recycled at
    /// any later MAP.
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
        // `span[d]`: first and last position of `d` on the processor swept.
        let mut span = vec![(u32::MAX, u32::MAX); g.num_objects()];
        let mut procs = Vec::with_capacity(sched.order.len());
        for (p, ord) in sched.order.iter().enumerate() {
            // Objects first met in the sweep, in the order they were met:
            // the `first_use` rows laid end to end. A task's accesses come
            // sorted, so each row does too.
            let mut first_use = Csr::default();
            let mut touched: Vec<ObjId> = Vec::new();
            for (i, &t) in ord.iter().enumerate() {
                for d in g.accesses(t) {
                    if sched.assign.owner_of(d) == p as u32 {
                        continue; // permanent on this processor
                    }
                    let s = &mut span[d.idx()];
                    if s.0 == u32::MAX {
                        s.0 = i as u32;
                        touched.push(d);
                        first_use.push(d);
                    }
                    s.1 = i as u32;
                }
                first_use.end_row();
            }
            touched.sort_unstable();
            let volatile_span = touched.iter().map(|&d| span[d.idx()]).collect();
            // Clear scratch for next processor.
            for &d in &touched {
                span[d.idx()] = (u32::MAX, u32::MAX);
            }
            procs.push(ProcLiveness { first_use, volatile: touched, volatile_span });
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
        assert!(lv.is_alive(1, da, 1));
        assert!(!lv.is_alive(1, db, 2));
        assert!(!lv.is_alive(1, dx, 0), "permanent objects are not tracked");
        // P0 has no volatiles.
        assert!(lv.procs[0].volatile.is_empty());
    }

    /// Every row `analyze` emits is what a brute-force scan of each
    /// position finds: per processor, the first and last local access of
    /// every object it does not own. `min_mem` is the replay of those rows
    /// with each volatile freed right after its last use.
    #[test]
    fn rows_are_a_brute_force_scan() {
        use crate::fixtures::SplitMix64;
        use crate::memreq::{min_mem, MemReport};
        let (mut idle_procs, mut bare_tasks) = (0, 0);
        for seed in 0..80u64 {
            let mut rng = SplitMix64(seed);
            let nprocs = 1 + seed as usize % 4;
            let m = 1 + rng.below(12) as usize;
            let owner: Vec<u32> = (0..m).map(|_| rng.below(nprocs as u64) as u32).collect();
            // The last processor of every third multi-processor case runs nothing.
            let busy = if nprocs > 1 && seed % 3 == 0 { nprocs - 1 } else { nprocs };
            let mut b = TaskGraphBuilder::new();
            let objs: Vec<ObjId> = (0..m).map(|_| b.add_object(1 + rng.below(4))).collect();
            let pick = |rng: &mut SplitMix64, ok: &dyn Fn(usize) -> bool| -> Vec<ObjId> {
                let draws: Vec<usize> =
                    (0..rng.below(4)).map(|_| rng.below(m as u64) as usize).collect();
                draws.into_iter().filter(|&d| ok(d)).map(|d| objs[d]).collect()
            };
            let mut task_proc = Vec::new();
            for _ in 0..rng.below(30) {
                let p = rng.below(busy as u64) as u32;
                // Owner-compute: a task writes only objects its processor owns.
                let writes = pick(&mut rng, &|d| owner[d] == p);
                let mut reads = pick(&mut rng, &|_| true);
                reads.retain(|d| !writes.contains(d));
                bare_tasks += usize::from(reads.is_empty() && writes.is_empty());
                b.add_task(1.0, &reads, &writes);
                task_proc.push(p);
            }
            let g = b.build().unwrap();
            let mut order = vec![Vec::new(); nprocs];
            for t in g.tasks() {
                order[task_proc[t.idx()] as usize].push(t);
            }
            for ord in &mut order {
                for i in (1..ord.len()).rev() {
                    ord.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            idle_procs += order.iter().filter(|o| o.is_empty()).count();
            let sched = Schedule { assign: Assignment { task_proc, owner, nprocs }, order };
            let lv = Liveness::analyze(&g, &sched);

            let mut want = MemReport {
                perm: Vec::new(),
                vola_total: Vec::new(),
                peak: Vec::new(),
                min_mem: 0,
                tot_no_recycle: 0,
                s1: g.seq_space(),
            };
            for (p, ord) in sched.order.iter().enumerate() {
                let span = |d: ObjId| -> Option<(u32, u32)> {
                    if sched.assign.owner_of(d) == p as u32 {
                        return None;
                    }
                    let touches = |&i: &usize| {
                        g.reads(ord[i]).contains(&d.0) || g.writes(ord[i]).contains(&d.0)
                    };
                    let hits: Vec<u32> = (0..ord.len()).filter(touches).map(|i| i as u32).collect();
                    Some((*hits.first()?, *hits.last()?))
                };
                let volatile: Vec<ObjId> = g.objects().filter(|&d| span(d).is_some()).collect();
                let spans: Vec<(u32, u32)> = volatile.iter().map(|&d| span(d).unwrap()).collect();
                let pl = &lv.procs[p];
                assert_eq!(
                    (&pl.volatile, &pl.volatile_span),
                    (&volatile, &spans),
                    "seed {seed} P{p}"
                );
                assert_eq!(pl.first_use.len(), ord.len(), "seed {seed} P{p}");
                // Object `d` with span `s` is first used (end 0) or last
                // used (end 1) at position `i`.
                let at = |i: u32, end: usize| {
                    let hit = move |(_, s): &(&ObjId, &(u32, u32))| [s.0, s.1][end] == i;
                    volatile.iter().zip(&spans).filter(hit).map(|(&d, _)| d)
                };
                let perm: u64 = g
                    .objects()
                    .filter(|&d| sched.assign.owner_of(d) == p as u32)
                    .map(|d| g.obj_size(d))
                    .sum();
                let (mut cur, mut peak) = (perm, perm);
                for i in 0..ord.len() as u32 {
                    let row: Vec<ObjId> = at(i, 0).collect();
                    assert_eq!(&pl.first_use[i as usize], &row[..], "seed {seed} P{p} pos {i}");
                    cur += row.iter().map(|&d| g.obj_size(d)).sum::<u64>();
                    peak = peak.max(cur);
                    cur -= at(i, 1).map(|d| g.obj_size(d)).sum::<u64>();
                }
                let vola: u64 = volatile.iter().map(|&d| g.obj_size(d)).sum();
                want.perm.push(perm);
                want.vola_total.push(vola);
                want.peak.push(peak);
                want.min_mem = want.min_mem.max(peak);
                want.tot_no_recycle = want.tot_no_recycle.max(perm + vola);
            }
            assert_eq!(min_mem(&g, &sched), want, "seed {seed}");
        }
        assert!(
            idle_procs > 0 && bare_tasks > 0,
            "{idle_procs} idle processors, {bare_tasks} bare tasks"
        );
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
