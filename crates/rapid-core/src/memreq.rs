//! Memory-requirement analysis: `MEM_REQ`, `MIN_MEM` (paper Definitions
//! 5–6) and the memory metrics used throughout the evaluation (the `TOT`
//! baseline of §5.1, the memory-scalability ratio of §5.2, and the Table-1
//! usage-over-`S1/p` ratio).

use crate::graph::TaskGraph;
use crate::liveness::Liveness;
use crate::schedule::Schedule;

/// Memory analysis of one schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemReport {
    /// Total size of permanent objects per processor.
    pub perm: Vec<u64>,
    /// Total size of volatile objects per processor (the space the original
    /// RAPID allocates up front, with no recycling).
    pub vola_total: Vec<u64>,
    /// Peak of `MEM_REQ(T, P)` over the tasks of each processor
    /// (Definition 5), i.e. the space needed *with* ideal recycling.
    pub peak: Vec<u64>,
    /// `MIN_MEM`: max over processors of `peak` (Definition 6).
    pub min_mem: u64,
    /// `TOT` (§5.1): max over processors of `perm + vola_total` — the
    /// space needed for the schedule without any recycling.
    pub tot_no_recycle: u64,
    /// Sequential space requirement `S1` (sum of all object sizes).
    pub s1: u64,
}

impl MemReport {
    /// Per-processor space with no recycling: `perm[p] + vola_total[p]`.
    pub fn no_recycle(&self, p: usize) -> u64 {
        self.perm[p] + self.vola_total[p]
    }

    /// Table-1 metric: average over processors of
    /// `(perm + vola_total) / (S1 / p)`.
    pub fn avg_usage_ratio(&self) -> f64 {
        let p = self.perm.len();
        let ideal = self.s1 as f64 / p as f64;
        let sum: f64 = (0..p).map(|x| self.no_recycle(x) as f64 / ideal).sum();
        sum / p as f64
    }

    /// Memory scalability of §5.2: `S1 / S_p^A` where `S_p^A` is the per
    /// processor requirement (peak with recycling).
    pub fn scalability(&self) -> f64 {
        if self.min_mem == 0 {
            return f64::INFINITY;
        }
        self.s1 as f64 / self.min_mem as f64
    }
}

/// Compute the memory report of a schedule.
///
/// The peak follows Definition 5: at every task `T_w` of processor `P_x`,
/// `MEM_REQ(T_w, P_x)` is the full permanent size of `P_x` plus the sizes of
/// volatile objects alive at `T_w` (Definition 4). The sweep allocates each
/// volatile at its first local use and frees it right after its last use.
pub fn min_mem(g: &TaskGraph, sched: &Schedule) -> MemReport {
    let lv = Liveness::analyze(g, sched);
    let nprocs = sched.order.len();
    let mut perm = vec![0u64; nprocs];
    for d in g.objects() {
        perm[sched.assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let mut vola_total = vec![0u64; nprocs];
    let mut peak = vec![0u64; nprocs];
    for p in 0..nprocs {
        let pl = &lv.procs[p];
        vola_total[p] = pl.volatile.iter().map(|&d| g.obj_size(d)).sum();
        // Units freed right after each position: every volatile's last use.
        let mut freed = vec![0u64; sched.order[p].len()];
        for (&d, &(_, l)) in pl.volatile.iter().zip(&pl.volatile_span) {
            freed[l as usize] += g.obj_size(d);
        }
        let mut cur = perm[p];
        let mut pk = cur; // a processor with no tasks still holds its permanents
        for (i, &f) in freed.iter().enumerate() {
            cur += pl.first_use[i].iter().map(|&d| g.obj_size(d)).sum::<u64>();
            pk = pk.max(cur);
            cur -= f;
        }
        peak[p] = pk;
    }
    let min_mem = peak.iter().copied().max().unwrap_or(0);
    let tot_no_recycle = (0..nprocs).map(|p| perm[p] + vola_total[p]).max().unwrap_or(0);
    MemReport { perm, vola_total, peak, min_mem, tot_no_recycle, s1: g.seq_space() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn figure2_schedule_b_numbers() {
        // Paper §3.2: for Figure 2(b), MEM_REQ(T[d8,d9], P0) = 7,
        // MEM_REQ(T[d7,d8], P1) = 9 and MIN_MEM = 9.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let rep = min_mem(&g, &sched);
        assert_eq!(rep.perm[0], 6);
        assert_eq!(rep.perm[1], 5);
        assert_eq!(rep.peak[0], 7);
        assert_eq!(rep.peak[1], 9);
        assert_eq!(rep.min_mem, 9);
        assert_eq!(rep.s1, 11);
    }

    #[test]
    fn figure2_schedule_c_numbers() {
        // Paper §3.2: for Figure 2(c) MIN_MEM = 8 because the lifetimes of
        // volatiles d7 and d3 are disjoint on P1.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let rep = min_mem(&g, &sched);
        assert_eq!(rep.min_mem, 8);
    }

    #[test]
    fn no_recycle_tot_dominates_peak() {
        let g = fixtures::figure2_dag();
        for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
            let rep = min_mem(&g, &sched);
            assert!(rep.tot_no_recycle >= rep.min_mem);
            // P1 holds 5 permanents + 4 volatiles = 9 with no recycling.
            assert_eq!(rep.tot_no_recycle, 9);
        }
    }

    #[test]
    fn scalability_and_ratio_metrics() {
        let g = fixtures::figure2_dag();
        let rep = min_mem(&g, &fixtures::figure2_schedule_c());
        // S1 = 11, MIN_MEM = 8.
        assert!((rep.scalability() - 11.0 / 8.0).abs() < 1e-12);
        // Average no-recycle usage over S1/p = ((7/5.5) + (9/5.5)) / 2.
        let expect = ((7.0 / 5.5) + (9.0 / 5.5)) / 2.0;
        assert!((rep.avg_usage_ratio() - expect).abs() < 1e-12);
    }
}
