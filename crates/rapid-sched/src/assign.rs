//! Cluster-to-processor assignment: the owner-compute rule and
//! load-balanced mapping of clusters onto physical processors.

use rapid_core::graph::{ProcId, TaskGraph, TaskId};
use rapid_core::schedule::Assignment;

/// The cyclic object mapping used in the paper's Figure 2 example: the
/// owner of `d_i` (0-based id `i`) is `i mod p`.
pub fn cyclic_owner_map(num_objects: usize, nprocs: usize) -> Vec<ProcId> {
    (0..num_objects).map(|i| (i % nprocs) as ProcId).collect()
}

/// Owner-compute assignment (paper §4): all tasks that modify the same
/// object form one cluster, placed on the object's owner processor.
///
/// A task writing several objects follows the owner of its first written
/// object; a task writing nothing follows the owner of its first read
/// object (or processor 0 if it accesses nothing).
pub fn owner_compute_assignment(g: &TaskGraph, owner: &[ProcId], nprocs: usize) -> Assignment {
    assert_eq!(owner.len(), g.num_objects());
    assert!(owner.iter().all(|&p| (p as usize) < nprocs));
    let task_proc = g
        .tasks()
        .map(|t| {
            if let Some(&d) = g.writes(t).first() {
                owner[d as usize]
            } else if let Some(&d) = g.reads(t).first() {
                owner[d as usize]
            } else {
                0
            }
        })
        .collect();
    Assignment { task_proc, owner: owner.to_vec(), nprocs }
}

/// Map `nclusters` clusters onto `nprocs` processors with the
/// longest-processing-time (LPT) heuristic: clusters are sorted by
/// descending total work and greedily placed on the least-loaded
/// processor. Returns `cluster -> processor`.
pub fn lpt_cluster_map(cluster_work: &[f64], nprocs: usize) -> Vec<ProcId> {
    let mut idx: Vec<usize> = (0..cluster_work.len()).collect();
    idx.sort_by(|&a, &b| cluster_work[b].total_cmp(&cluster_work[a]).then(a.cmp(&b)));
    let mut load = vec![0.0f64; nprocs];
    let mut map = vec![0 as ProcId; cluster_work.len()];
    for c in idx {
        // `min_by` over `0..nprocs` is None only for nprocs == 0, and a
        // zero-processor machine has no clusters to place either.
        let Some(p) = (0..nprocs).min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
        else {
            unreachable!("nprocs > 0")
        };
        map[c] = p as ProcId;
        load[p] += cluster_work[c];
    }
    map
}

/// Build a full [`Assignment`] from a task clustering: clusters are mapped
/// to processors by LPT on total task weight; each object is owned by the
/// processor of its first writer (falling back to its first reader, then
/// round-robin for untouched objects).
pub fn assignment_from_clusters(g: &TaskGraph, cluster_of: &[u32], nprocs: usize) -> Assignment {
    let nclusters = cluster_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut work = vec![0.0f64; nclusters];
    for t in g.tasks() {
        work[cluster_of[t.idx()] as usize] += g.weight(t);
    }
    let cmap = lpt_cluster_map(&work, nprocs);
    let task_proc: Vec<ProcId> = g.tasks().map(|t| cmap[cluster_of[t.idx()] as usize]).collect();
    let mut owner = vec![ProcId::MAX; g.num_objects()];
    for d in g.objects() {
        if let Some(&w) = g.writers(d).first() {
            owner[d.idx()] = task_proc[w as usize];
        } else if let Some(&r) = g.readers(d).first() {
            owner[d.idx()] = task_proc[r as usize];
        }
    }
    for (i, o) in owner.iter_mut().enumerate() {
        if *o == ProcId::MAX {
            *o = (i % nprocs) as ProcId;
        }
    }
    Assignment { task_proc, owner, nprocs }
}

/// Convenience: does every task whose writes include `d` run on `d`'s
/// owner? (The owner-compute property; DTS's Theorem 2 requires it.)
pub fn is_owner_compute(g: &TaskGraph, assign: &Assignment) -> bool {
    for d in g.objects() {
        for &w in g.writers(d) {
            if assign.proc_of(TaskId(w)) != assign.owner_of(d) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;

    #[test]
    fn cyclic_map_matches_paper() {
        let owner = cyclic_owner_map(11, 2);
        // d1 (index 0) on P0, d2 on P1, ...
        assert_eq!(owner, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn owner_compute_matches_figure2() {
        let g = fixtures::figure2_dag();
        let owner = fixtures::figure2_owner_map(2);
        let a = owner_compute_assignment(&g, &owner, 2);
        let reference = fixtures::figure2_assignment();
        assert_eq!(a.task_proc, reference.task_proc);
        assert!(is_owner_compute(&g, &a));
        // 6 tasks on P0, 14 on P1.
        let by = a.tasks_by_proc();
        assert_eq!(by[0].len(), 6);
        assert_eq!(by[1].len(), 14);
    }

    #[test]
    fn lpt_balances() {
        let work = [10.0, 9.0, 1.0, 1.0, 1.0];
        let map = lpt_cluster_map(&work, 2);
        let mut load = [0.0f64; 2];
        for (c, &p) in map.iter().enumerate() {
            load[p as usize] += work[c];
        }
        // Perfect split is 11/11.
        assert!((load[0] - 11.0).abs() < 1e-9 && (load[1] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_assignment_owner_consistency() {
        let g = fixtures::figure2_dag();
        // One cluster per written object id: mimics owner-compute.
        let cluster_of: Vec<u32> = g.tasks().map(|t| g.writes(t)[0]).collect();
        let a = assignment_from_clusters(&g, &cluster_of, 2);
        assert_eq!(a.nprocs, 2);
        // Every object with a writer is owned by its writer's processor.
        assert!(is_owner_compute(&g, &a));
    }
}
