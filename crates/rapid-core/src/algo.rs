//! Graph algorithms shared across the workspace: topological sorting,
//! strongly connected components (Tarjan), and critical-path levels with
//! communication costs.

use crate::graph::{Csr, TaskGraph, TaskId};
use crate::schedule::{Assignment, CostModel};

/// Totally ordered `f64` wrapper for priority keys (`total_cmp`
/// semantics). Shared by the scheduling heaps (`rapid-sched`) and the
/// discrete-event executor's event queue (`rapid-rt`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Kahn topological sort. Returns `None` if the graph has a cycle.
pub fn topo_sort(g: &TaskGraph) -> Option<Vec<TaskId>> {
    let n = g.num_tasks();
    let mut indeg: Vec<u32> = (0..n).map(|t| g.preds(TaskId(t as u32)).len() as u32).collect();
    let mut queue: Vec<TaskId> =
        (0..n as u32).map(TaskId).filter(|t| indeg[t.idx()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let t = queue[head];
        head += 1;
        order.push(t);
        for &s in g.succs(t) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push(TaskId(s));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Tarjan's strongly-connected-components algorithm over a generic CSR
/// adjacency. Returns `(component_of, num_components)`; component ids are
/// assigned in **reverse topological order** of the condensation (a
/// component's id is greater than those of components it can reach... more
/// precisely, Tarjan emits components in reverse topological order, so we
/// re-number them so that component ids form a valid topological order of
/// the condensation: if there is an edge from component `a` to component
/// `b`, then `a < b`).
pub fn tarjan_scc(adj: &Csr) -> (Vec<u32>, u32) {
    let n = adj.len();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSEEN; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut ncomp = 0u32;

    // Iterative Tarjan: frame = (node, next child position).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNSEEN {
            continue;
        }
        call.push((start, 0));
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            let row = adj.row(v as usize);
            if *ci < row.len() {
                let w = row[*ci];
                *ci += 1;
                if index[w as usize] == UNSEEN {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    // Tarjan emits SCCs in reverse topological order; flip ids so that
    // edges go from smaller to larger component id.
    for c in comp.iter_mut() {
        *c = ncomp - 1 - *c;
    }
    (comp, ncomp)
}

/// Bottom level of every task: the length of the longest path from the task
/// to an exit task, **including** the task's own weight and inter-task
/// communication costs on the path (as used by the RCP priority in the
/// paper's Figure 2 discussion: the path `T[7,8], T[8], T[8,9]` has length 4
/// with unit weights because one message delay is included).
///
/// Communication cost of an edge `(a, b)` is charged only when the two
/// tasks are mapped to different processors under `assign`; pass
/// `None` to charge every edge (the machine-independent variant used before
/// mapping).
pub fn bottom_levels(g: &TaskGraph, cost: &CostModel, assign: Option<&Assignment>) -> Vec<f64> {
    bottom_levels_from(g, &edge_costs(g, cost, assign))
}

/// [`bottom_levels`] over edge costs already computed by [`edge_costs`].
pub fn bottom_levels_from(g: &TaskGraph, edge_cost: &Csr<f64>) -> Vec<f64> {
    let order = topo_sort(g).expect("bottom_levels requires a DAG");
    let mut bl = vec![0.0f64; g.num_tasks()];
    for &t in order.iter().rev() {
        let mut best = 0.0f64;
        for (&s, &comm) in g.succs(t).iter().zip(&edge_cost[t.idx()]) {
            let cand = comm + bl[s as usize];
            if cand > best {
                best = cand;
            }
        }
        bl[t.idx()] = g.weight(t) + best;
    }
    bl
}

/// [`edge_comm_cost`] of every dependence edge, computed once: row `t`
/// is aligned with `g.succs(t)`. The ordering simulation and the
/// bottom levels it starts from both read it.
pub fn edge_costs(g: &TaskGraph, cost: &CostModel, assign: Option<&Assignment>) -> Csr<f64> {
    g.map_succs(|a, b| edge_comm_cost(g, cost, assign, a, b))
}

/// Communication cost charged on a dependence edge `(a, b)`: the cost of
/// shipping the objects written by `a` and read by `b`, or 0 when both
/// tasks live on the same processor.
pub fn edge_comm_cost(
    g: &TaskGraph,
    cost: &CostModel,
    assign: Option<&Assignment>,
    a: TaskId,
    b: TaskId,
) -> f64 {
    if let Some(asg) = assign {
        if asg.proc_of(a) == asg.proc_of(b) {
            return 0.0;
        }
    }
    let units = transfer_units(g, a, b);
    if units == 0 {
        // Pure control dependence across processors still pays latency.
        cost.latency
    } else {
        cost.message_cost(units)
    }
}

/// Number of allocation units carried by the message on edge `(a, b)`:
/// total size of objects written by `a` and read by `b`.
pub fn transfer_units(g: &TaskGraph, a: TaskId, b: TaskId) -> u64 {
    let wa = g.writes(a);
    let rb = g.reads(b);
    let mut units = 0u64;
    let (mut i, mut j) = (0, 0);
    while i < wa.len() && j < rb.len() {
        match wa[i].cmp(&rb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                units += g.obj_size(crate::graph::ObjId(wa[i]));
                i += 1;
                j += 1;
            }
        }
    }
    units
}

/// Depth of the DAG: number of tasks on the longest chain.
pub fn dag_depth(g: &TaskGraph) -> usize {
    let order = topo_sort(g).expect("dag_depth requires a DAG");
    let mut depth = vec![1usize; g.num_tasks()];
    let mut best = 0;
    for &t in &order {
        for &s in g.succs(t) {
            depth[s as usize] = depth[s as usize].max(depth[t.idx()] + 1);
        }
        best = best.max(depth[t.idx()]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;

    fn chain(n: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let d = b.add_object(1);
        let mut prev = None;
        for _ in 0..n {
            let t = b.add_task(1.0, &[], &[d]);
            if let Some(p) = prev {
                b.add_edge(p, t);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn topo_sort_chain() {
        let g = chain(5);
        let order = topo_sort(&g).unwrap();
        assert_eq!(order.iter().map(|t| t.0).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn depth_of_chain() {
        assert_eq!(dag_depth(&chain(7)), 7);
    }

    #[test]
    fn bottom_levels_chain_with_comm() {
        // Two tasks connected by a data-carrying edge; unit cost model
        // charges 1 for the message when no assignment is given.
        let mut b = TaskGraphBuilder::new();
        let d = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d]);
        let t1 = b.add_task(1.0, &[d], &[]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        let bl = bottom_levels(&g, &CostModel::unit(), None);
        assert!((bl[t1.idx()] - 1.0).abs() < 1e-12);
        assert!((bl[t0.idx()] - 3.0).abs() < 1e-12); // 1 + comm 1 + 1
        let ec = edge_costs(&g, &CostModel::unit(), None);
        assert_eq!(&ec[t0.idx()], &[1.0]);
        assert_eq!(bottom_levels_from(&g, &ec), bl);
    }

    #[test]
    fn tarjan_on_cycle_and_dag() {
        // 0 -> 1 -> 2 -> 0 forms one SCC; 3 alone; edge 2 -> 3.
        let lists = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let csr = Csr::from_lists(&lists);
        let (comp, n) = tarjan_scc(&csr);
        assert_eq!(n, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
        // Edge from the cycle component to node 3's component must go from
        // a smaller id to a larger id.
        assert!(comp[2] < comp[3]);
    }

    #[test]
    fn tarjan_ids_form_topo_order() {
        // Pure DAG: 0->1, 0->2, 1->3, 2->3.
        let lists = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let csr = Csr::from_lists(&lists);
        let (comp, n) = tarjan_scc(&csr);
        assert_eq!(n, 4);
        for (v, row) in lists.iter().enumerate() {
            for &w in row {
                assert!(comp[v] < comp[w as usize], "edge {v}->{w} violates comp order");
            }
        }
    }

    #[test]
    fn ordf64_total_order() {
        let mut v = vec![OrdF64(3.0), OrdF64(1.0), OrdF64(2.0)];
        v.sort();
        assert_eq!(v, vec![OrdF64(1.0), OrdF64(2.0), OrdF64(3.0)]);
        assert!(OrdF64(f64::NEG_INFINITY) < OrdF64(0.0));
    }

    #[test]
    fn transfer_units_counts_written_and_read() {
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(3);
        let d1 = b.add_object(5);
        let t0 = b.add_task(1.0, &[], &[d0, d1]);
        let t1 = b.add_task(1.0, &[d1], &[]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        assert_eq!(transfer_units(&g, t0, t1), 5);
    }
}
