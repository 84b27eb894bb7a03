//! Memory-requirement analysis: `MEM_REQ`, `MIN_MEM` (paper Definitions
//! 5–6) and the memory metrics used throughout the evaluation (the `TOT`
//! baseline of §5.1, the memory-scalability ratio of §5.2, and the Table-1
//! usage-over-`S1/p` ratio).

use crate::graph::{ObjId, TaskGraph};
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

    /// Is the schedule executable when each processor has `capacity`
    /// allocation units (Definition 6)?
    pub fn executable_under(&self, capacity: u64) -> bool {
        self.min_mem <= capacity
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
    min_mem_with(g, sched, &lv)
}

/// Same as [`min_mem`] but reusing an existing liveness analysis.
pub fn min_mem_with(g: &TaskGraph, sched: &Schedule, lv: &Liveness) -> MemReport {
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

/// One greedy MAP window of a processor's order, with its predicted arena
/// occupancy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowPeak {
    /// Order position the MAP precedes (frees happen here).
    pub pos: u32,
    /// Exclusive end of the window: the next MAP goes right before this
    /// position (`order.len()` for the last window).
    pub next_map: u32,
    /// Units in use after the window's allocations. Occupancy is
    /// monotone within a window (frees happen only at window starts), so
    /// this *is* the window's high-water mark.
    pub peak: u64,
}

/// Per-MAP-window peak analysis: the *achievable-at-MAPs* counterpart of
/// the ideal-recycling Definition-5 peak. See [`window_peaks`].
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// Greedy MAP windows per processor. A processor with an empty order
    /// still gets one (empty) window, matching the managed executors.
    pub windows: Vec<Vec<WindowPeak>>,
    /// Per-processor high-water under this placement: the maximum window
    /// peak (at least the permanent size, for processors with no tasks).
    pub peak: Vec<u64>,
    /// Static `MIN_MEM`-under-MAPs: the smallest capacity for which the
    /// greedy placement succeeds on every processor. For greedy windows
    /// this *equals* Definition-6 [`MemReport::min_mem`]: a MAP fails only
    /// on its immediate task, whose requirement after the free wave is
    /// exactly `MEM_REQ(T, P)` (the in-use set at a window start is the
    /// Definition-4 live set), and a window can never extend past a
    /// position whose `MEM_REQ` exceeds the capacity — so the first MAP at
    /// the peak position is the binding constraint.
    pub min_mem_at_maps: u64,
}

/// First greedy MAP window that cannot be provisioned under a capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InfeasibleWindow {
    /// Processor whose MAP failed.
    pub proc: usize,
    /// Order position of the task that could not be provisioned.
    pub position: u32,
    /// Units that would be in use simultaneously.
    pub needed: u64,
    /// The per-processor capacity.
    pub capacity: u64,
    /// Volatile objects live across the failing MAP (allocated before it
    /// and not freed by its free wave), sorted by id. Together with the
    /// permanents and the task's own first uses these make up `needed`.
    pub live: Vec<ObjId>,
}

impl std::fmt::Display for InfeasibleWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P{} task #{} needs {} units, capacity {} (live volatiles: {:?})",
            self.proc, self.position, self.needed, self.capacity, self.live
        )
    }
}

/// Compute the greedy MAP windows of `sched` under `capacity` and the
/// exact arena occupancy of each window.
///
/// The sweep replays the paper's §3.3 allocation policy per processor: a
/// MAP at position `pos` first frees every volatile whose last use is
/// strictly before `pos`, then allocates the first uses of `pos`,
/// `pos+1`, … until the next task's objects no longer fit; the window
/// fails ([`InfeasibleWindow`]) iff the task at `pos` itself cannot be
/// provisioned (the `∞` entries of Definition 6).
///
/// Two different "peaks" come out of this analysis, and the distinction
/// matters for sizing the arena:
///
/// * the **ideal-recycling peak** of Definition 5 ([`MemReport::peak`])
///   frees each volatile immediately after its last use — it is the
///   occupancy lower bound of *any* MAP placement, and its max over
///   processors ([`MemReport::min_mem`]) is the feasibility threshold;
/// * the **achievable-at-MAPs peak** ([`WindowReport::peak`]) accounts
///   for the greedy window's lookahead allocation and for frees deferred
///   to window starts — between MAPs it can sit well above the
///   Definition-5 curve (the slack is what buys fewer MAPs and fewer
///   address packages).
///
/// The feasibility *thresholds* nevertheless coincide (see
/// [`WindowReport::min_mem_at_maps`]): lowering the capacity towards
/// `min_mem` shrinks the windows, and the placement only becomes
/// infeasible one unit below it.
pub fn window_peaks(
    g: &TaskGraph,
    sched: &Schedule,
    capacity: u64,
) -> Result<WindowReport, InfeasibleWindow> {
    let lv = Liveness::analyze(g, sched);
    window_peaks_with(g, sched, &lv, capacity)
}

/// Same as [`window_peaks`] but reusing an existing liveness analysis.
pub fn window_peaks_with(
    g: &TaskGraph,
    sched: &Schedule,
    lv: &Liveness,
    capacity: u64,
) -> Result<WindowReport, InfeasibleWindow> {
    let nprocs = sched.order.len();
    let mut perm = vec![0u64; nprocs];
    for d in g.objects() {
        perm[sched.assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let mut windows = Vec::with_capacity(nprocs);
    let mut peak = Vec::with_capacity(nprocs);
    for (p, &pu) in perm.iter().enumerate() {
        let pl = &lv.procs[p];
        let order_len = sched.order[p].len();
        let mut allocated: Vec<ObjId> = Vec::new();
        let mut in_use = pu;
        let mut pk = in_use;
        let mut rows = Vec::new();
        let mut pos = 0u32;
        // A processor with an empty order still performs one (empty) MAP
        // before terminating, exactly like the managed executors.
        loop {
            // Free wave: drop volatiles dead strictly before `pos`.
            allocated.retain(|&d| {
                let Ok(k) = pl.volatile.binary_search(&d) else {
                    return true;
                };
                if pl.volatile_span[k].1 < pos {
                    in_use -= g.obj_size(d);
                    false
                } else {
                    true
                }
            });
            // Greedy window: allocate first uses until the next task's
            // objects no longer fit.
            let mut next_map = pos;
            for j in pos as usize..order_len {
                let add: u64 = pl.first_use[j]
                    .iter()
                    .filter(|d| allocated.binary_search(d).is_err())
                    .map(|&d| g.obj_size(d))
                    .sum();
                if in_use + add > capacity {
                    if j as u32 == pos {
                        return Err(InfeasibleWindow {
                            proc: p,
                            position: pos,
                            needed: in_use + add,
                            capacity,
                            live: allocated,
                        });
                    }
                    break;
                }
                for &d in &pl.first_use[j] {
                    let k = allocated.partition_point(|&x| x < d);
                    if allocated.get(k) != Some(&d) {
                        allocated.insert(k, d);
                    }
                }
                in_use += add;
                pk = pk.max(in_use);
                next_map = j as u32 + 1;
            }
            rows.push(WindowPeak { pos, next_map, peak: in_use });
            pos = next_map;
            if pos as usize >= order_len {
                break;
            }
        }
        windows.push(rows);
        peak.push(pk);
    }
    let min_mem_at_maps = min_mem_with(g, sched, lv).min_mem;
    Ok(WindowReport { windows, peak, min_mem_at_maps })
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
        assert!(rep.executable_under(8));
        assert!(!rep.executable_under(7));
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
    fn window_peaks_match_min_mem_threshold() {
        let g = fixtures::figure2_dag();
        for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
            let rep = min_mem(&g, &sched);
            // Feasible at exactly MIN_MEM…
            let wr = window_peaks(&g, &sched, rep.min_mem).expect("feasible at MIN_MEM");
            assert_eq!(wr.min_mem_at_maps, rep.min_mem);
            for p in 0..2 {
                assert!(wr.peak[p] <= rep.min_mem);
                assert!(wr.peak[p] >= rep.peak[p], "window peak below ideal-recycling peak");
                // Windows tile the order contiguously.
                let mut pos = 0u32;
                for w in &wr.windows[p] {
                    assert_eq!(w.pos, pos);
                    assert!(w.next_map > pos || sched.order[p].is_empty());
                    assert!(w.peak <= rep.min_mem);
                    pos = w.next_map;
                }
                assert_eq!(pos as usize, sched.order[p].len());
                assert_eq!(wr.peak[p], wr.windows[p].iter().map(|w| w.peak).max().unwrap());
            }
            // …and infeasible one unit below, with the live set reported.
            let err = window_peaks(&g, &sched, rep.min_mem - 1).unwrap_err();
            assert_eq!(err.capacity, rep.min_mem - 1);
            assert_eq!(err.needed, rep.min_mem);
            assert!(err.needed > err.capacity);
        }
    }

    #[test]
    fn ample_capacity_gives_one_window_per_proc() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let wr = window_peaks(&g, &sched, 1000).unwrap();
        for p in 0..2 {
            assert_eq!(wr.windows[p].len(), 1);
            // One window never frees: its peak is perm + all volatiles.
            let rep = min_mem(&g, &sched);
            assert_eq!(wr.peak[p], rep.no_recycle(p));
        }
    }

    #[test]
    fn min_mem_unchanged_by_window_analysis() {
        // The satellite contract: adding window peaks must keep the
        // Definition-6 numbers bit-identical (paper §3.2 values).
        let g = fixtures::figure2_dag();
        assert_eq!(min_mem(&g, &fixtures::figure2_schedule_b()).min_mem, 9);
        assert_eq!(min_mem(&g, &fixtures::figure2_schedule_c()).min_mem, 8);
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
