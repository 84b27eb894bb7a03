//! The data connection graph (DCG) and computation slices (paper §4.2).
//!
//! The DCG has one node per data object that has *associated* tasks; its
//! edges capture the temporal order of data accesses. Construction rules
//! (quoted from the paper):
//!
//! 1. If a task `T_x` uses but does not modify object `d_i`, or `T_x` only
//!    modifies `d_i` and does not use any other object, `T_x` is
//!    *associated* with node `d_i`.
//! 2. A task associated with multiple nodes induces doubly-directed edges
//!    among those nodes, making them strongly connected.
//! 3. A directed edge `d_i -> d_j` is added whenever a task dependence
//!    edge `(T_x, T_y)` exists with `T_x` associated with `d_i` and `T_y`
//!    associated with `d_j`.
//!
//! The strongly connected components of the DCG, topologically ordered,
//! are the *slices* of the DTS ordering: every task appears in exactly one
//! slice, and executing tasks slice by slice bounds the simultaneous
//! volatile footprint (Theorem 2).

use crate::graph::{Csr, ObjId, ProcId, TaskGraph, TaskId};
use crate::schedule::Assignment;

/// The data connection graph and its slice decomposition.
#[derive(Clone, Debug)]
pub struct Dcg {
    /// DCG node index of each object, or `u32::MAX` when the object has no
    /// associated task and therefore no node.
    pub node_of_obj: Vec<u32>,
    /// Object behind each DCG node.
    pub obj_of_node: Vec<ObjId>,
    /// DCG adjacency (deduplicated, sorted).
    pub adj: Csr,
    /// Slice (SCC of the DCG, numbered in topological order) of each node.
    pub slice_of_node: Vec<u32>,
    /// Number of slices.
    pub num_slices: u32,
    /// Slice of each task (`u32::MAX` for tasks with no association —
    /// possible only for tasks with empty access sets; they are attached
    /// to slice 0 by [`Dcg::build`], so in practice always valid).
    pub slice_of_task: Vec<u32>,
    /// Tasks of each slice, ascending task id.
    pub slice_tasks: Vec<Vec<TaskId>>,
    /// Objects of each slice (the data nodes in the SCC), ascending.
    pub slice_objs: Vec<Vec<ObjId>>,
}

impl Dcg {
    /// Build the DCG of `g` and decompose it into slices.
    pub fn build(g: &TaskGraph) -> Dcg {
        let m = g.num_objects();
        let n = g.num_tasks();

        // Rule 1: task associations.
        let mut assoc: Vec<Vec<ObjId>> = vec![Vec::new(); n];
        for (t, out) in assoc.iter_mut().enumerate() {
            let t = TaskId(t as u32);
            let writes = g.writes(t);
            // Objects read but not written: "uses but does not modify".
            for &d in g.reads(t) {
                if writes.binary_search(&d).is_err() {
                    out.push(ObjId(d));
                }
            }
            if out.is_empty() {
                // "only modifies d_i and does not use any other objects":
                // associate with the written objects (updates count as
                // uses-and-modifies, so a pure updater is associated with
                // the updated object as well — it reads it).
                for &d in writes {
                    out.push(ObjId(d));
                }
            }
        }

        // Number the DCG nodes: objects with at least one association,
        // first touch in task-id order.
        let mut node_of_obj = vec![u32::MAX; m];
        let mut obj_of_node = Vec::new();
        for a in &assoc {
            for &d in a {
                if node_of_obj[d.idx()] == u32::MAX {
                    node_of_obj[d.idx()] = obj_of_node.len() as u32;
                    obj_of_node.push(d);
                }
            }
        }
        let nn = obj_of_node.len();

        // Rules 2 and 3: edges. The paper's construction is a clique over
        // each task's association set (rule 2) and the full product
        // `assoc(T_x) × assoc(T_y)` per task edge (rule 3) — both
        // quadratic in the association sizes. We emit a *linear* edge set
        // with the identical condensation: a directed cycle through each
        // association set makes its nodes strongly connected with |assoc|
        // edges instead of |assoc|², and one representative edge
        // `first(T_x) → first(T_y)` per task edge implies every product
        // pair's reachability through those cycles. Total edges pushed is
        // ≤ Σ|assoc| + |task edges|, so construction is O(V + E).
        //
        // A stamp array dedups same-source runs in O(1); each row is then
        // sorted and deduplicated, so it ends as the set of its targets.
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nn];
        let mut mark = vec![u32::MAX; nn];
        let mut push_edge = |u: u32, v: u32| {
            if u != v && mark[v as usize] != u {
                mark[v as usize] = u;
                lists[u as usize].push(v);
            }
        };
        for (t, a) in assoc.iter().enumerate() {
            // Rule 2: cycle through the association set (same SCC as the
            // paper's clique).
            if a.len() > 1 {
                for i in 0..a.len() {
                    push_edge(node_of_obj[a[i].idx()], node_of_obj[a[(i + 1) % a.len()].idx()]);
                }
            }
            // Rule 3: one representative edge per projected task edge;
            // the rule-2 cycles extend it to every association pair.
            if let Some(&di) = a.first() {
                for &s in g.succs(TaskId(t as u32)) {
                    if let Some(&dj) = assoc[s as usize].first() {
                        push_edge(node_of_obj[di.idx()], node_of_obj[dj.idx()]);
                    }
                }
            }
        }
        for l in &mut lists {
            l.sort_unstable();
            l.dedup();
        }
        let adj = Csr::from_lists(&lists);

        // Slices: SCCs in topological order (Tarjan's numbering defines
        // the slice order).
        let (raw_slice, raw_n) = crate::algo::tarjan_scc(&adj);

        // The topological order among SCCs must also respect task edges
        // between slices (a topological order of slices is imposed "by
        // dependencies among corresponding strongly connected components").
        // Tarjan's numbering already satisfies DCG-edge order; task edges
        // always project onto DCG edges (rule 3) unless an endpoint has no
        // association, so the numbering is consistent.

        let node_slice = |d: ObjId| raw_slice[node_of_obj[d.idx()] as usize];
        let mut slice_of_task = vec![u32::MAX; n];
        let mut slice_tasks = vec![Vec::new(); raw_n as usize];
        for (t, a) in assoc.iter().enumerate() {
            // A task with an empty access set attaches to the first slice.
            let sl = a.first().map_or(0, |&d0| node_slice(d0));
            // Rule 2 guarantees all associated nodes share the SCC.
            debug_assert!(a.iter().all(|&d| node_slice(d) == sl));
            slice_of_task[t] = sl;
            slice_tasks[sl as usize].push(TaskId(t as u32));
        }
        let mut slice_objs = vec![Vec::new(); raw_n as usize];
        for (node, &sl) in raw_slice.iter().enumerate() {
            slice_objs[sl as usize].push(obj_of_node[node]);
        }
        for v in &mut slice_objs {
            v.sort_unstable();
        }

        Dcg {
            node_of_obj,
            obj_of_node,
            adj,
            slice_of_node: raw_slice,
            num_slices: raw_n,
            slice_of_task,
            slice_tasks,
            slice_objs,
        }
    }

    /// Volatile space requirement `V_{P_x}(R, L)` of Definition 7: the
    /// space for volatile objects used when executing the tasks of slice
    /// `l` on processor `px` under assignment `assign`.
    pub fn volatile_space(&self, g: &TaskGraph, assign: &Assignment, l: u32, px: ProcId) -> u64 {
        let mut seen: Vec<ObjId> = Vec::new();
        for &t in &self.slice_tasks[l as usize] {
            if assign.proc_of(t) != px {
                continue;
            }
            for d in g.accesses(t) {
                if assign.owner_of(d) != px && !seen.contains(&d) {
                    seen.push(d);
                }
            }
        }
        seen.iter().map(|&d| g.obj_size(d)).sum()
    }

    /// [`Dcg::volatile_space`] with an O(1)-membership scratch instead of
    /// the linear `seen` scan — same result, linear in the slice's
    /// accesses. This is the form the planner uses: on large inputs a
    /// single dominant slice makes the scan quadratic (every access pays
    /// a pass over the volatile set), which is the planner's bottleneck
    /// at 10⁶ tasks.
    pub fn volatile_space_scratch(
        &self,
        g: &TaskGraph,
        assign: &Assignment,
        l: u32,
        px: ProcId,
        scratch: &mut VolatileScratch,
    ) -> u64 {
        let epoch = scratch.bump();
        let mut total = 0u64;
        for &t in &self.slice_tasks[l as usize] {
            if assign.proc_of(t) != px {
                continue;
            }
            for d in g.accesses(t) {
                if assign.owner_of(d) != px && scratch.stamp[d.idx()] != epoch {
                    scratch.stamp[d.idx()] = epoch;
                    total += g.obj_size(d);
                }
            }
        }
        total
    }

    /// `H(R, L)` of Definition 7: the maximum over processors of the
    /// volatile space requirement of slice `l`.
    pub fn max_volatile_space(&self, g: &TaskGraph, assign: &Assignment, l: u32) -> u64 {
        (0..assign.nprocs as ProcId)
            .map(|p| self.volatile_space(g, assign, l, p))
            .max()
            .unwrap_or(0)
    }

    /// [`Dcg::max_volatile_space`] through a reusable
    /// [`VolatileScratch`] — identical result, linear cost.
    pub fn max_volatile_space_scratch(
        &self,
        g: &TaskGraph,
        assign: &Assignment,
        l: u32,
        scratch: &mut VolatileScratch,
    ) -> u64 {
        (0..assign.nprocs as ProcId)
            .map(|p| self.volatile_space_scratch(g, assign, l, p, scratch))
            .max()
            .unwrap_or(0)
    }

    /// `h = max_i H(R, L_i)` of Theorem 2.
    pub fn theorem2_h(&self, g: &TaskGraph, assign: &Assignment) -> u64 {
        (0..self.num_slices).map(|l| self.max_volatile_space(g, assign, l)).max().unwrap_or(0)
    }

    /// True when the DCG itself is acyclic, i.e. every slice holds exactly
    /// one data node (the premise of Corollary 1).
    pub fn is_acyclic(&self) -> bool {
        self.num_slices as usize == self.obj_of_node.len()
    }
}

/// Reusable epoch-stamped membership scratch for
/// [`Dcg::volatile_space_scratch`]: one `u32` per object, reset in O(1)
/// per query by bumping the epoch.
#[derive(Clone, Debug)]
pub struct VolatileScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VolatileScratch {
    /// Scratch for a graph with `num_objects` objects.
    pub fn new(num_objects: usize) -> VolatileScratch {
        VolatileScratch { stamp: vec![0; num_objects], epoch: 0 }
    }

    fn bump(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::graph::TaskGraphBuilder;

    #[test]
    fn figure5_dcg_nodes_and_order() {
        // Paper Figure 5(a): the DCG of the Figure-2 DAG has nodes for
        // d1, d3, d4, d5, d7, d8, d2 and is itself a DAG; the slice order
        // d1 -> d3 -> d4 -> d5 -> d7 -> d8 -> d2 is a valid topological
        // order.
        let g = fixtures::figure2_dag();
        let dcg = Dcg::build(&g);
        let names = [1u32, 2, 3, 4, 5, 7, 8];
        for i in names {
            assert_ne!(
                dcg.node_of_obj[fixtures::obj(i).idx()],
                u32::MAX,
                "d{i} must be a DCG node"
            );
        }
        for i in [6u32, 9, 10, 11] {
            assert_eq!(
                dcg.node_of_obj[fixtures::obj(i).idx()],
                u32::MAX,
                "d{i} must not be a DCG node"
            );
        }
        assert_eq!(dcg.obj_of_node.len(), 7);
        assert!(dcg.is_acyclic());
        assert_eq!(dcg.num_slices, 7);
        // Slice numbering is a topological order; check the paper's
        // precedence facts: d1 before d3, d3 before d4, d4 before d5,
        // d5 before d7, d7 before d8 and d2 last among its predecessors.
        let sl = |i: u32| dcg.slice_of_node[dcg.node_of_obj[fixtures::obj(i).idx()] as usize];
        assert!(sl(1) < sl(3));
        assert!(sl(3) < sl(4));
        assert!(sl(4) < sl(5));
        assert!(sl(5) < sl(7));
        assert!(sl(7) < sl(8));
        assert!(sl(4) < sl(2) && sl(5) < sl(2) && sl(7) < sl(2));
    }

    #[test]
    fn every_task_in_exactly_one_slice() {
        let g = fixtures::figure2_dag();
        let dcg = Dcg::build(&g);
        let total: usize = dcg.slice_tasks.iter().map(Vec::len).sum();
        assert_eq!(total, g.num_tasks());
    }

    #[test]
    fn multi_read_task_strongly_connects_nodes() {
        // A task reading two objects makes their nodes one SCC (rule 2).
        let mut b = TaskGraphBuilder::new();
        let da = b.add_object(1);
        let db = b.add_object(1);
        let dc = b.add_object(1);
        let w0 = b.add_task(1.0, &[], &[da]);
        let w1 = b.add_task(1.0, &[], &[db]);
        let r = b.add_task(1.0, &[da, db], &[dc]);
        b.add_edge(w0, r);
        b.add_edge(w1, r);
        let g = b.build().unwrap();
        let dcg = Dcg::build(&g);
        let na = dcg.node_of_obj[da.idx()];
        let nb = dcg.node_of_obj[db.idx()];
        assert_eq!(dcg.slice_of_node[na as usize], dcg.slice_of_node[nb as usize]);
        assert!(!dcg.is_acyclic());
    }

    #[test]
    fn dcg_edge_count_is_linear_in_input() {
        // The construction must stay O(V + E): edges ≤ Σ|assoc| (rule-2
        // cycles) + task edges (one representative each), never the
        // quadratic clique/product blowup.
        for seed in 0..8 {
            let spec = fixtures::RandomGraphSpec {
                objects: 40,
                tasks: 200,
                max_reads: 6,
                ..Default::default()
            };
            let g = fixtures::random_irregular_graph(seed, &spec);
            let dcg = Dcg::build(&g);
            let assoc_total: usize = g
                .tasks()
                .map(|t| g.accesses(t).filter(|&d| dcg.node_of_obj[d.idx()] != u32::MAX).count())
                .sum();
            let bound = assoc_total + g.num_edges();
            assert!(
                dcg.adj.num_edges() <= bound,
                "seed {seed}: {} DCG edges > linear bound {bound}",
                dcg.adj.num_edges()
            );
        }
    }

    #[test]
    fn multi_assoc_cycle_matches_clique_semantics() {
        // Three objects associated with one task must land in one SCC via
        // the linear cycle construction, exactly as the paper's clique.
        let mut b = TaskGraphBuilder::new();
        let ds: Vec<_> = (0..3).map(|_| b.add_object(1)).collect();
        let out = b.add_object(1);
        let ws: Vec<_> = ds.iter().map(|&d| b.add_task(1.0, &[], &[d])).collect();
        let r = b.add_task(1.0, &ds, &[out]);
        for &w in &ws {
            b.add_edge(w, r);
        }
        let g = b.build().unwrap();
        let dcg = Dcg::build(&g);
        let s0 = dcg.slice_of_node[dcg.node_of_obj[ds[0].idx()] as usize];
        for &d in &ds[1..] {
            assert_eq!(dcg.slice_of_node[dcg.node_of_obj[d.idx()] as usize], s0);
        }
        // Writers' slices precede the readers' merged slice.
        for &w in &ws {
            assert!(dcg.slice_of_task[w.idx()] <= dcg.slice_of_task[r.idx()]);
        }
    }

    #[test]
    fn scratch_volatile_space_matches_plain() {
        let spec = fixtures::RandomGraphSpec { objects: 40, tasks: 200, ..Default::default() };
        for seed in 0..4 {
            let g = fixtures::random_irregular_graph(seed, &spec);
            let dcg = Dcg::build(&g);
            let owner: Vec<ProcId> = (0..g.num_objects()).map(|i| (i % 3) as ProcId).collect();
            let task_proc: Vec<ProcId> = g
                .tasks()
                .map(|t| owner[g.writes(t).first().copied().unwrap_or(0) as usize])
                .collect();
            let assign = Assignment { task_proc, owner, nprocs: 3 };
            let mut scratch = VolatileScratch::new(g.num_objects());
            for l in 0..dcg.num_slices {
                for p in 0..3 {
                    assert_eq!(
                        dcg.volatile_space_scratch(&g, &assign, l, p, &mut scratch),
                        dcg.volatile_space(&g, &assign, l, p),
                        "seed {seed} slice {l} proc {p}"
                    );
                }
                assert_eq!(
                    dcg.max_volatile_space_scratch(&g, &assign, l, &mut scratch),
                    dcg.max_volatile_space(&g, &assign, l)
                );
            }
        }
    }

    #[test]
    fn theorem2_h_on_figure2() {
        // Under the paper's assignment each slice uses at most one unit of
        // volatile space on any processor, so h = 1 (Corollary 1 applies:
        // the DCG is acyclic and objects are unit-size).
        let g = fixtures::figure2_dag();
        let dcg = Dcg::build(&g);
        let assign = fixtures::figure2_assignment();
        assert!(dcg.is_acyclic());
        assert_eq!(dcg.theorem2_h(&g, &assign), 1);
    }

    #[test]
    fn volatile_space_counts_only_remote_objects() {
        let g = fixtures::figure2_dag();
        let dcg = Dcg::build(&g);
        let assign = fixtures::figure2_assignment();
        // Slice of d4: its tasks run on P1 and read d4, which P1 owns; no
        // volatile space needed anywhere.
        let l4 = dcg.slice_of_node[dcg.node_of_obj[fixtures::obj(4).idx()] as usize];
        assert_eq!(dcg.max_volatile_space(&g, &assign, l4), 0);
        // Slice of d8 needs one unit on P0 (readers of d8 live there).
        let l8 = dcg.slice_of_node[dcg.node_of_obj[fixtures::obj(8).idx()] as usize];
        assert_eq!(dcg.volatile_space(&g, &assign, l8, 0), 1);
        assert_eq!(dcg.volatile_space(&g, &assign, l8, 1), 0);
    }
}
