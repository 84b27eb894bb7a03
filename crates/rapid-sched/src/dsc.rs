//! DSC — Dominant Sequence Clustering (ref. \[21\] of the paper: Yang &
//! Gerasoulis, *DSC: Scheduling Parallel Tasks on An Unbounded Number of
//! Processors*).
//!
//! DSC is the general-DAG locality-clustering stage of the paper's
//! two-stage mapping (the sparse workloads use the owner-compute rule
//! instead). Tasks are examined in descending `tlevel + blevel` priority;
//! an examined task is merged into the cluster of one of its predecessors
//! when zeroing that incoming edge reduces the task's start time
//! (`tlevel`), otherwise it opens its own cluster. Clusters execute their
//! tasks sequentially in examination order.

use rapid_core::algo;
use rapid_core::algo::OrdF64;
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::CostModel;
use std::collections::BinaryHeap;

/// Result of DSC clustering.
#[derive(Clone, Debug)]
pub struct DscResult {
    /// Cluster id of every task (dense, `0..num_clusters`).
    pub cluster_of: Vec<u32>,
    /// Number of clusters produced.
    pub num_clusters: u32,
    /// The parallel-time estimate of the clustered graph (makespan on an
    /// unbounded number of processors, one per cluster).
    pub parallel_time: f64,
}

/// Run DSC on `g` under the given cost model.
pub fn dsc_cluster(g: &TaskGraph, cost: &CostModel) -> DscResult {
    let n = g.num_tasks();
    let blevel = algo::bottom_levels(g, cost, None);

    // Cluster state: each cluster is a sequence of tasks; `cluster_finish`
    // is the completion time of its last task.
    let mut cluster_of: Vec<u32> = (0..n as u32).collect(); // provisional: own cluster
    let mut cluster_finish: Vec<f64> = vec![0.0; n];
    let mut examined = vec![false; n];
    let mut tlevel = vec![0.0f64; n];
    let mut unexamined_preds: Vec<u32> =
        (0..n).map(|t| g.preds(TaskId(t as u32)).len() as u32).collect();

    // Free tasks (all predecessors examined), by descending priority.
    let mut heap: BinaryHeap<(OrdF64, std::cmp::Reverse<u32>)> = BinaryHeap::new();
    for t in 0..n as u32 {
        if unexamined_preds[t as usize] == 0 {
            heap.push((OrdF64(blevel[t as usize]), std::cmp::Reverse(t)));
        }
    }

    let mut next_cluster = 0u32;
    let mut finish = vec![0.0f64; n];
    while let Some((_, std::cmp::Reverse(t))) = heap.pop() {
        let ti = t as usize;
        if examined[ti] {
            continue;
        }
        examined[ti] = true;

        // Start time if t opens its own cluster: bounded by message
        // arrivals from all predecessors.
        let mut own_start = 0.0f64;
        for &q in g.preds(TaskId(t)) {
            let c = algo::edge_comm_cost(g, cost, None, TaskId(q), TaskId(t));
            own_start = own_start.max(finish[q as usize] + c);
        }

        // Candidate merges: append t to the cluster of a predecessor,
        // zeroing that edge. Arrival from the chosen predecessor becomes
        // finish[q] (no comm) but t must also wait for the cluster's last
        // task and for the other predecessors' messages.
        let mut best: Option<(f64, u32)> = None;
        for &q in g.preds(TaskId(t)) {
            let cq = cluster_of[q as usize];
            let mut start = cluster_finish[cq as usize].max(finish[q as usize]);
            for &r in g.preds(TaskId(t)) {
                if cluster_of[r as usize] == cq {
                    start = start.max(finish[r as usize]);
                } else {
                    let c = algo::edge_comm_cost(g, cost, None, TaskId(r), TaskId(t));
                    start = start.max(finish[r as usize] + c);
                }
            }
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, cq));
            }
        }

        let (start, cluster) = match best {
            // DSC acceptance criterion: merge only if it does not increase
            // the start time.
            Some((s, c)) if s <= own_start => (s, c),
            _ => {
                let c = next_cluster;
                next_cluster += 1;
                // Reuse slot c for bookkeeping — cluster ids are compacted
                // below, use a fresh id space.
                (own_start, n as u32 + c)
            }
        };
        cluster_of[ti] = cluster;
        tlevel[ti] = start;
        finish[ti] = start + g.weight(TaskId(t));
        // `cluster_finish` is indexed by raw cluster id; grow lazily for
        // freshly opened clusters (ids n..).
        if cluster as usize >= cluster_finish.len() {
            cluster_finish.resize(cluster as usize + 1, 0.0);
        }
        cluster_finish[cluster as usize] = finish[ti];

        for &s in g.succs(TaskId(t)) {
            unexamined_preds[s as usize] -= 1;
            if unexamined_preds[s as usize] == 0 {
                heap.push((OrdF64(blevel[s as usize]), std::cmp::Reverse(s)));
            }
        }
    }

    // Compact cluster ids.
    let mut remap = std::collections::HashMap::new();
    let mut compact = vec![0u32; n];
    for t in 0..n {
        let next = remap.len() as u32;
        let id = *remap.entry(cluster_of[t]).or_insert(next);
        compact[t] = id;
    }
    let parallel_time = finish.iter().copied().fold(0.0f64, f64::max);
    DscResult { cluster_of: compact, num_clusters: remap.len() as u32, parallel_time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;
    use rapid_core::graph::TaskGraphBuilder;

    #[test]
    fn chain_collapses_to_one_cluster() {
        // A linear chain with communication should be fully zeroed.
        let mut b = TaskGraphBuilder::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..6 {
            let d = b.add_object(1);
            let reads: Vec<_> = prev
                .map(|_| rapid_core::graph::ObjId(b.num_objects() as u32 - 2))
                .into_iter()
                .collect();
            let t = b.add_task(1.0, &reads, &[d]);
            if let Some(p) = prev {
                b.add_edge(p, t);
            }
            prev = Some(t);
        }
        let g = b.build().unwrap();
        let r = dsc_cluster(&g, &CostModel::unit());
        assert_eq!(r.num_clusters, 1);
        assert!((r.parallel_time - 6.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_stay_separate() {
        let mut b = TaskGraphBuilder::new();
        for _ in 0..5 {
            let d = b.add_object(1);
            b.add_task(2.0, &[], &[d]);
        }
        let g = b.build().unwrap();
        let r = dsc_cluster(&g, &CostModel::unit());
        assert_eq!(r.num_clusters, 5);
        assert!((r.parallel_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fork_join_zeroes_critical_edge() {
        // t0 -> {t1 heavy, t2 light} -> t3. DSC must put t0 and t1
        // together; t2 may stay apart (its message overlaps t1's work).
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(10);
        let d1 = b.add_object(10);
        let d2 = b.add_object(10);
        let d3 = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d0]);
        let t1 = b.add_task(8.0, &[d0], &[d1]);
        let t2 = b.add_task(1.0, &[d0], &[d2]);
        let t3 = b.add_task(1.0, &[d1, d2], &[d3]);
        b.add_edge(t0, t1);
        b.add_edge(t0, t2);
        b.add_edge(t1, t3);
        b.add_edge(t2, t3);
        let g = b.build().unwrap();
        let r = dsc_cluster(&g, &CostModel { latency: 2.0, per_unit: 0.1 });
        assert_eq!(r.cluster_of[t0.idx()], r.cluster_of[t1.idx()]);
        // t3 should join the cluster delivering its latest message (t1's).
        assert_eq!(r.cluster_of[t3.idx()], r.cluster_of[t1.idx()]);
        // Parallel time beats the fully sequential 11 units.
        assert!(r.parallel_time < 11.0);
    }

    #[test]
    fn dsc_end_to_end_assignment_is_valid() {
        let g = fixtures::figure2_dag();
        let r = dsc_cluster(&g, &CostModel::unit());
        assert!(r.num_clusters >= 1);
        let a = crate::assign::assignment_from_clusters(&g, &r.cluster_of, 2);
        let s = crate::rcp::rcp_order(&g, &a, &CostModel::unit());
        assert!(s.is_valid(&g));
    }

    #[test]
    fn dsc_never_worse_than_sequential_on_random_graphs() {
        for seed in 0..6 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let r = dsc_cluster(&g, &CostModel::unit());
            let seq: f64 = g.tasks().map(|t| g.weight(t)).sum();
            assert!(r.parallel_time <= seq + 1e-9, "seed {seed}");
        }
    }
}
