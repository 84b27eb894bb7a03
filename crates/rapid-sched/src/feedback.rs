//! Metrics-fed feedback planning: close the loop from a recorded run
//! back into the planner.
//!
//! A traced run yields per-processor [`ProcMetrics`]; this pass turns
//! them into a deterministic rebalancing decision. A processor whose
//! EXE-state dwell exceeds the machine mean by the configured margin is
//! *hot*; the pass then
//!
//! 1. picks **write-groups** — sets of objects transitively co-written
//!    by some task, the unit below which ownership cannot move without
//!    splitting a task across owners under the owner-compute rule — and
//!    greedily migrates the heaviest groups off hot processors onto the
//!    coldest, and
//! 2. reports a **volatile-budget scale** (`avail_scale_permille`) the
//!    replanner applies when re-merging DTS slices, so the replanned
//!    schedule MAPs more often with smaller windows while the machine is
//!    running hot.
//!
//! Everything is integer arithmetic over the metrics (permille
//! thresholds, u128 proportional transfers), and every tie is broken by
//! id, so the same metrics produce the same [`FeedbackPlan`] on any
//! host, any run.

use rapid_core::graph::{ProcId, TaskGraph};
use rapid_core::schedule::Assignment;
use rapid_trace::{ProcMetrics, ProtoState};

/// Feedback tuning knobs. All thresholds are integer permille so the
/// decision is bit-reproducible across hosts.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackConfig {
    /// A processor is hot when its EXE dwell exceeds
    /// `mean * hot_permille / 1000` (default 1200 = 20% above mean).
    pub hot_permille: u32,
    /// Migrate at most this many write-groups per pass (default 4);
    /// feedback is meant to be applied repeatedly, small steps at a time.
    pub max_moves: usize,
    /// Volatile-budget scale the replanner applies while any processor
    /// is hot (default 750 = windows re-merged at 75% of the budget, so
    /// the replanned schedule MAPs more often with smaller windows).
    pub shrink_permille: u32,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig { hot_permille: 1200, max_moves: 4, shrink_permille: 750 }
    }
}

/// One object migration decided by [`feedback_plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjMove {
    /// The object changing owner.
    pub obj: u32,
    /// Its current owner.
    pub from: ProcId,
    /// Its new owner.
    pub to: ProcId,
}

/// The deterministic outcome of a feedback pass.
#[derive(Clone, Debug)]
pub struct FeedbackPlan {
    /// Per-processor EXE dwell (ns) the decision was based on.
    pub load: Vec<u64>,
    /// Which processors exceeded the hot threshold.
    pub hot: Vec<bool>,
    /// Object migrations, whole write-groups at a time, each group's
    /// members contiguous and in ascending object id.
    pub moves: Vec<ObjMove>,
    /// Volatile-budget scale for the replan: `shrink_permille` when any
    /// processor was hot, 1000 otherwise.
    pub avail_scale_permille: u32,
}

impl FeedbackPlan {
    /// Did the pass decide to change anything at all?
    pub fn is_rebalance(&self) -> bool {
        !self.moves.is_empty() || self.avail_scale_permille != 1000
    }
}

/// Plain path-halving union-find over object ids.
struct Uf(Vec<u32>);

impl Uf {
    fn new(n: usize) -> Self {
        Uf((0..n as u32).collect())
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            let gp = self.0[self.0[x as usize] as usize];
            self.0[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: group representatives are stable ids.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi as usize] = lo;
        }
    }
}

/// Decide a rebalancing from one traced run's metrics.
///
/// `metrics` must have one entry per processor of `assign` (as produced
/// by `ProcMetrics::from_traces` over a full- or skeleton-tier trace;
/// the EXE dwell the decision reads survives the skeleton projection).
/// The returned moves keep the owner-compute rule intact: objects
/// co-written by any task move together or not at all, and a group is
/// only a candidate while all its members share one owner.
pub fn feedback_plan(
    g: &TaskGraph,
    assign: &Assignment,
    metrics: &[ProcMetrics],
    cfg: &FeedbackConfig,
) -> FeedbackPlan {
    let n = assign.nprocs;
    assert_eq!(metrics.len(), n, "one ProcMetrics per processor");
    let exe = ProtoState::Exe.idx();
    let load: Vec<u64> = metrics.iter().map(|m| m.dwell_ns[exe]).collect();
    let total: u64 = load.iter().sum();
    let mean = if n == 0 { 0 } else { total / n as u64 };
    let is_hot =
        |l: u64| n > 1 && mean > 0 && l as u128 * 1000 > mean as u128 * cfg.hot_permille as u128;
    let hot: Vec<bool> = load.iter().map(|&l| is_hot(l)).collect();
    if !hot.iter().any(|&h| h) {
        return FeedbackPlan { load, hot, moves: Vec::new(), avail_scale_permille: 1000 };
    }

    // Write-groups: the migration unit under owner-compute.
    let mut uf = Uf::new(g.num_objects());
    for t in g.tasks() {
        for w in g.writes(t).windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    // Charge each task's weight to the group of its first written object
    // (the same anchor `owner_compute_assignment` places the task by).
    // Weights are scaled to integers once so all later arithmetic is
    // exact.
    let mut gweight = vec![0u64; g.num_objects()];
    for t in g.tasks() {
        if let Some(&w0) = g.writes(t).first() {
            let r = uf.find(w0);
            gweight[r as usize] += (g.weight(t) * 1000.0).round() as u64;
        }
    }
    // Group membership and per-group owner consensus. A group whose
    // members currently live on different owners is not a candidate —
    // migrating it would be a repair, not a rebalance.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); g.num_objects()];
    for o in 0..g.num_objects() as u32 {
        let r = uf.find(o);
        members[r as usize].push(o);
    }
    let mut wsum = vec![0u64; n]; // anchored weight per owner
    let mut cands: Vec<(u64, u32, ProcId)> = Vec::new();
    for r in 0..g.num_objects() {
        if members[r].is_empty() {
            continue;
        }
        let own = assign.owner[members[r][0] as usize];
        if members[r].iter().any(|&o| assign.owner[o as usize] != own) {
            continue;
        }
        wsum[own as usize] += gweight[r];
        if hot[own as usize] && gweight[r] > 0 {
            cands.push((gweight[r], r as u32, own));
        }
    }
    // Heaviest group first; object id breaks ties, so the order — and
    // therefore the plan — is a pure function of (graph, metrics, cfg).
    cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut est = load.clone();
    let mut moves: Vec<ObjMove> = Vec::new();
    let mut groups_moved = 0usize;
    for (w, r, from) in cands {
        if groups_moved >= cfg.max_moves {
            break;
        }
        if !is_hot(est[from as usize]) {
            continue; // earlier moves already cooled this processor
        }
        let Some(to) =
            (0..n as ProcId).filter(|&q| q != from).min_by_key(|&q| (est[q as usize], q))
        else {
            break;
        };
        // Proportional estimate of the dwell this group accounts for.
        let transfer = if wsum[from as usize] == 0 {
            0
        } else {
            (est[from as usize] as u128 * w as u128 / wsum[from as usize] as u128) as u64
        };
        if transfer == 0 || est[to as usize] + transfer >= est[from as usize] {
            continue; // the move would not reduce the imbalance
        }
        est[from as usize] -= transfer;
        est[to as usize] += transfer;
        wsum[from as usize] -= w;
        wsum[to as usize] += w;
        for &o in &members[r as usize] {
            moves.push(ObjMove { obj: o, from, to });
        }
        groups_moved += 1;
    }
    FeedbackPlan { load, hot, moves, avail_scale_permille: cfg.shrink_permille }
}

/// Apply a plan's moves to an owner map (the replanner feeds the result
/// back through `owner_compute_assignment`).
pub fn apply_moves(owner: &[ProcId], moves: &[ObjMove]) -> Vec<ProcId> {
    let mut owner = owner.to_vec();
    for m in moves {
        owner[m.obj as usize] = m.to;
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::owner_compute_assignment;
    use rapid_core::graph::TaskGraphBuilder;

    /// 2 procs; proc 0 owns objects {0,1,2} written by heavy tasks,
    /// proc 1 owns {3} with one light task.
    fn skewed() -> (rapid_core::graph::TaskGraph, Assignment) {
        let mut b = TaskGraphBuilder::new();
        let d: Vec<_> = (0..4).map(|_| b.add_object(1)).collect();
        let t0 = b.add_task(8.0, &[], &[d[0]]);
        let t1 = b.add_task(8.0, &[d[0]], &[d[1]]);
        let t2 = b.add_task(8.0, &[d[1]], &[d[2]]);
        let t3 = b.add_task(1.0, &[d[2]], &[d[3]]);
        b.add_edge(t0, t1);
        b.add_edge(t1, t2);
        b.add_edge(t2, t3);
        let g = b.build().unwrap();
        let owner = vec![0, 0, 0, 1];
        let a = owner_compute_assignment(&g, &owner, 2);
        (g, a)
    }

    fn metrics_with_exe(dwell: &[u64]) -> Vec<ProcMetrics> {
        dwell
            .iter()
            .enumerate()
            .map(|(p, &d)| {
                let mut m = ProcMetrics { proc: p as u32, ..ProcMetrics::default() };
                m.dwell_ns[ProtoState::Exe.idx()] = d;
                m
            })
            .collect()
    }

    #[test]
    fn balanced_metrics_change_nothing() {
        let (g, a) = skewed();
        let fb = feedback_plan(&g, &a, &metrics_with_exe(&[100, 100]), &FeedbackConfig::default());
        assert!(!fb.is_rebalance());
        assert_eq!(fb.avail_scale_permille, 1000);
        assert!(fb.moves.is_empty());
    }

    #[test]
    fn hot_proc_sheds_a_write_group_to_the_coldest() {
        let (g, a) = skewed();
        let fb = feedback_plan(&g, &a, &metrics_with_exe(&[2400, 100]), &FeedbackConfig::default());
        assert_eq!(fb.hot, vec![true, false]);
        assert_eq!(fb.avail_scale_permille, 750);
        assert!(!fb.moves.is_empty(), "a group must migrate off the hot proc");
        assert!(fb.moves.iter().all(|m| m.from == 0 && m.to == 1));
        // The migrated objects form whole write-groups: each task's
        // writes stay co-owned.
        let owner = apply_moves(&a.owner, &fb.moves);
        for t in g.tasks() {
            let ws = g.writes(t);
            assert!(
                ws.windows(2).all(|w| owner[w[0] as usize] == owner[w[1] as usize]),
                "task {t:?} writes split across owners"
            );
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_its_inputs() {
        let (g, a) = skewed();
        let m = metrics_with_exe(&[5000, 50]);
        let f1 = feedback_plan(&g, &a, &m, &FeedbackConfig::default());
        let f2 = feedback_plan(&g, &a, &m, &FeedbackConfig::default());
        assert_eq!(f1.moves, f2.moves);
        assert_eq!(f1.load, f2.load);
        assert_eq!(f1.hot, f2.hot);
    }
}
