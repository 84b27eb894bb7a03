//! Shared fixtures: the worked example of the paper's Figure 2 and
//! deterministic random-graph generators used by tests and benches across
//! the workspace.
//!
//! ## The Figure 2 reconstruction
//!
//! The paper shows (but does not list edge-by-edge) a DAG with 20 tasks and
//! 11 data objects `d1..d11`, a cyclic object mapping on two processors and
//! owner-compute task clustering. The reconstruction here satisfies every
//! fact the text states:
//!
//! - `PERM(P0) = {d1,d3,d5,d7,d9,d11}`, `PERM(P1) = {d2,d4,d6,d8,d10}`,
//!   `VOLA(P0) = {d8}`, `VOLA(P1) = {d1,d3,d5,d7}`;
//! - tasks `T[3,10]`, `T[5,10]`, `T[7,8]`, `T[8]`, `T[8,9]` exist with the
//!   stated read/write sets, and the path `T[7,8] -> T[8] -> T[8,9]` has
//!   bottom level 4 under unit costs (one message delay included);
//! - for schedule (b) (the RCP-style order): `MEM_REQ(T[8,9], P0) = 7`,
//!   `MEM_REQ(T[7,8], P1) = 9`, `MIN_MEM = 9`, and on `P1` volatile `d3`
//!   dies after `T[3,10]` and `d5` after `T[5,10]`;
//! - for schedule (c) (the MPO-style order): `MIN_MEM = 8`, and the
//!   lifetimes of volatiles `d7` and `d3` are disjoint on `P1`;
//! - the DCG (Figure 5(a)) has exactly the seven nodes
//!   `d1,d3,d4,d5,d7,d8,d2`, is acyclic, and
//!   `d1 -> d3 -> d4 -> d5 -> d7 -> d8 -> d2` is a valid topological order;
//!   the DTS schedule has `MIN_MEM = 7`.

use crate::graph::{ObjId, TaskGraph, TaskGraphBuilder, TaskId};
use crate::schedule::{Assignment, Schedule};

/// Object id for the paper's name `d<i>` (1-based): `obj(1)` is `d1`.
pub fn obj(i: u32) -> ObjId {
    assert!(i >= 1);
    ObjId(i - 1)
}

/// Build the 20-task, 11-object DAG of Figure 2(a).
///
/// Task labels follow the paper's notation: `T[i,j]` reads `d_i` and
/// updates `d_j`; `T[j]` updates `d_j`.
pub fn figure2_dag() -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    for _ in 0..11 {
        b.add_object(1);
    }
    let t = |b: &mut TaskGraphBuilder, label: &str, r: Option<u32>, w: u32| -> TaskId {
        b.add_task_labeled(label, 1.0, r.map(obj).as_slice(), &[obj(w)])
    };
    // P0 tasks (owner-compute on odd objects).
    let a1 = t(&mut b, "T[1]", None, 1);
    let a2 = t(&mut b, "T[3]", None, 3);
    let a3 = t(&mut b, "T[5]", None, 5);
    let a4 = t(&mut b, "T[1,7]", Some(1), 7);
    let a5 = t(&mut b, "T[8,9]", Some(8), 9);
    let a6 = t(&mut b, "T[8,11]", Some(8), 11);
    // P1 tasks (even objects).
    let b1 = t(&mut b, "T[1,2]", Some(1), 2);
    let b2 = t(&mut b, "T[1,4]", Some(1), 4);
    let b3 = t(&mut b, "T[3,4]", Some(3), 4);
    let b4 = t(&mut b, "T[3,10]", Some(3), 10);
    let b5 = t(&mut b, "T[4,6]", Some(4), 6);
    let b6 = t(&mut b, "T[5,6]", Some(5), 6);
    let b7 = t(&mut b, "T[5,10]", Some(5), 10);
    let b8 = t(&mut b, "T[7,8]", Some(7), 8);
    let b9 = t(&mut b, "T[8]", None, 8);
    let b10 = t(&mut b, "T[7,10]", Some(7), 10);
    let b11 = t(&mut b, "T[2,10]", Some(2), 10);
    let b12 = t(&mut b, "T[2,6]", Some(2), 6);
    let b13 = t(&mut b, "T[4,2]", Some(4), 2);
    let b14 = t(&mut b, "T[4,10]", Some(4), 10);

    // True dependencies: writer -> readers.
    for (w, rs) in [
        (a1, vec![a4, b1, b2]), // d1
        (a2, vec![b3, b4]),     // d3
        (a3, vec![b6, b7]),     // d5
        (a4, vec![b8, b10]),    // d7
    ] {
        for r in rs {
            b.add_edge(w, r);
        }
    }
    // d4: update chain b2 -> b3, readers after the final update.
    b.add_edge(b2, b3);
    for r in [b5, b13, b14] {
        b.add_edge(b3, r);
    }
    // d2: update chain b1 -> b13, readers after.
    b.add_edge(b1, b13);
    for r in [b11, b12] {
        b.add_edge(b13, r);
    }
    // d8: update chain b8 -> b9, readers after.
    b.add_edge(b8, b9);
    b.add_edge(b9, a5);
    b.add_edge(b9, a6);
    // d6: update chain b5 -> b6 -> b12.
    b.add_edge(b5, b6);
    b.add_edge(b6, b12);
    // d10: update chain b4 -> b14 -> b7 -> b10 -> b11.
    b.add_edge(b4, b14);
    b.add_edge(b14, b7);
    b.add_edge(b7, b10);
    b.add_edge(b10, b11);

    let g = b.build().expect("figure 2 DAG is well-formed");
    debug_assert_eq!(g.num_tasks(), 20);
    debug_assert_eq!(g.num_objects(), 11);
    g
}

/// Cyclic owner map of Figure 2: the owner of `d_i` is `(i-1) mod p`.
pub fn figure2_owner_map(p: u32) -> Vec<u32> {
    (0..11).map(|j| j % p).collect()
}

/// Owner-compute assignment of the Figure 2 example on two processors.
pub fn figure2_assignment() -> Assignment {
    let g = figure2_dag();
    let owner = figure2_owner_map(2);
    let task_proc = g.tasks().map(|t| owner[g.writes(t)[0] as usize]).collect();
    Assignment { task_proc, owner, nprocs: 2 }
}

/// Find a Figure-2 task by its paper label, e.g. `"T[3,10]"`.
pub fn figure2_task(g: &TaskGraph, label: &str) -> TaskId {
    g.tasks()
        .find(|&t| g.task_label(t) == label)
        .unwrap_or_else(|| panic!("no task labeled {label}"))
}

fn sched_from_labels(p0: &[&str], p1: &[&str]) -> Schedule {
    let g = figure2_dag();
    let assign = figure2_assignment();
    let order = vec![
        p0.iter().map(|l| figure2_task(&g, l)).collect(),
        p1.iter().map(|l| figure2_task(&g, l)).collect(),
    ];
    let s = Schedule { assign, order };
    debug_assert!(s.is_valid(&g));
    s
}

/// The RCP-style schedule of Figure 2(b): `MIN_MEM = 9`; on `P1`, `T[7,8]`
/// runs while all four volatiles are alive.
pub fn figure2_schedule_b() -> Schedule {
    sched_from_labels(
        &["T[1]", "T[3]", "T[5]", "T[1,7]", "T[8,9]", "T[8,11]"],
        &[
            "T[1,4]", "T[3,4]", "T[4,6]", "T[5,6]", "T[7,8]", "T[1,2]", "T[3,10]", "T[4,10]",
            "T[5,10]", "T[7,10]", "T[8]", "T[4,2]", "T[2,10]", "T[2,6]",
        ],
    )
}

/// The MPO-style schedule of Figure 2(c): `MIN_MEM = 8`; volatiles `d3` and
/// `d7` have disjoint lifetimes on `P1`.
pub fn figure2_schedule_c() -> Schedule {
    sched_from_labels(
        &["T[1]", "T[3]", "T[5]", "T[1,7]", "T[8,9]", "T[8,11]"],
        &[
            "T[1,4]", "T[3,4]", "T[4,6]", "T[5,6]", "T[3,10]", "T[1,2]", "T[4,10]", "T[5,10]",
            "T[7,8]", "T[7,10]", "T[8]", "T[4,2]", "T[2,10]", "T[2,6]",
        ],
    )
}

// ---------------------------------------------------------------------------
// Deterministic random DAG generation (no external RNG dependency).
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, deterministic, high-quality 64-bit generator. Used so
/// that core fixtures stay dependency-free and fully reproducible.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift reduction (Lemire); bias is negligible here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parameters for [`random_irregular_graph`].
#[derive(Clone, Debug)]
pub struct RandomGraphSpec {
    /// Number of logical data objects.
    pub objects: usize,
    /// Number of tasks in the sequential trace.
    pub tasks: usize,
    /// Maximum object size in allocation units (sizes drawn in `1..=max`).
    pub max_obj_size: u64,
    /// Maximum reads per task (1..=max).
    pub max_reads: usize,
    /// Probability that a task's output access is an in-place update of an
    /// existing object rather than a def of a fresh value.
    pub update_prob: f64,
    /// Probability that an in-place update is marked *commuting*
    /// (`AccessKind::Accum`); 0 disables commuting entirely.
    pub accum_prob: f64,
    /// Maximum task weight (weights drawn in `1.0..=max`).
    pub max_weight: f64,
}

impl Default for RandomGraphSpec {
    fn default() -> Self {
        RandomGraphSpec {
            objects: 24,
            tasks: 60,
            max_obj_size: 4,
            max_reads: 3,
            update_prob: 0.35,
            accum_prob: 0.0,
            max_weight: 4.0,
        }
    }
}

/// Generate a random irregular task graph by replaying a random sequential
/// trace through [`crate::ddg::TraceBuilder`]. The result is guaranteed to
/// be a dependence-complete DAG with mixed granularities, resembling the
/// partitioned sparse codes the paper targets.
pub fn random_irregular_graph(seed: u64, spec: &RandomGraphSpec) -> TaskGraph {
    use crate::ddg::{AccessKind, TraceBuilder};
    let mut rng = SplitMix64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut tb = TraceBuilder::new();
    let objs: Vec<ObjId> =
        (0..spec.objects).map(|_| tb.add_object(1 + rng.below(spec.max_obj_size))).collect();
    let mut written: Vec<ObjId> = Vec::new();
    // O(1) membership alongside the ordered list, so generation stays
    // linear at the bench sizes (10⁵⁺ tasks).
    let mut is_written = vec![false; spec.objects];
    let mut acc: Vec<(ObjId, AccessKind)> = Vec::new();
    for i in 0..spec.tasks {
        let weight = 1.0 + rng.unit_f64() * (spec.max_weight - 1.0);
        acc.clear();
        // Reads come from already-written objects to keep the trace causal.
        if !written.is_empty() {
            let nr = 1 + rng.below(spec.max_reads as u64) as usize;
            for _ in 0..nr.min(written.len()) {
                let d = written[rng.below(written.len() as u64) as usize];
                acc.push((d, AccessKind::Read));
            }
        }
        // One output object: update an existing one or def a fresh one.
        let out = objs[(i * 7 + rng.below(3) as usize) % objs.len()];
        let kind = if !written.is_empty() && rng.unit_f64() < spec.update_prob {
            if rng.unit_f64() < spec.accum_prob {
                AccessKind::Accum
            } else {
                AccessKind::Update
            }
        } else {
            AccessKind::Write
        };
        // Don't both read and write the same logical object unless updating.
        acc.retain(|&(d, _)| d != out);
        acc.push((out, kind));
        tb.add_task(weight, &acc);
        if !is_written[out.idx()] {
            is_written[out.idx()] = true;
            written.push(out);
        }
    }
    let (g, _) = tb.build().expect("random trace builds a DAG");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::schedule::CostModel;

    #[test]
    fn figure2_shape() {
        let g = figure2_dag();
        assert_eq!(g.num_tasks(), 20);
        assert_eq!(g.num_objects(), 11);
        assert!(g.is_dependence_complete());
        assert_eq!(g.seq_space(), 11);
    }

    #[test]
    fn figure2_volatile_sets() {
        let g = figure2_dag();
        let assign = figure2_assignment();
        let (perm0, vola0) = assign.perm_vola(&g, 0);
        let (perm1, vola1) = assign.perm_vola(&g, 1);
        let ids = |v: &[ObjId]| v.iter().map(|d| d.0 + 1).collect::<Vec<_>>();
        assert_eq!(ids(&perm0), vec![1, 3, 5, 7, 9, 11]);
        assert_eq!(ids(&perm1), vec![2, 4, 6, 8, 10]);
        assert_eq!(ids(&vola0), vec![8]);
        assert_eq!(ids(&vola1), vec![1, 3, 5, 7]);
    }

    #[test]
    fn figure2_critical_path_fact() {
        // Paper: "T[7,8] has a longer path ... the path is T[7,8], T[8],
        // T[8,9] with length 4 because communication delay is also
        // included".
        let g = figure2_dag();
        let assign = figure2_assignment();
        let bl = algo::bottom_levels(&g, &CostModel::unit(), Some(&assign));
        let t78 = figure2_task(&g, "T[7,8]");
        assert!(bl[t78.idx()] >= 4.0 - 1e-9, "bottom level {}", bl[t78.idx()]);
        // The exact quoted path: T[7,8](1) + T[8](1) + comm(1) + T[8,9](1).
        let t8 = figure2_task(&g, "T[8]");
        let t89 = figure2_task(&g, "T[8,9]");
        assert!(g.has_edge(t78, t8));
        assert!(g.has_edge(t8, t89));
    }

    #[test]
    fn schedules_are_valid() {
        let g = figure2_dag();
        assert!(figure2_schedule_b().is_valid(&g));
        assert!(figure2_schedule_c().is_valid(&g));
    }

    #[test]
    fn random_graphs_are_dags_and_complete() {
        for seed in 0..8 {
            let g = random_irregular_graph(seed, &RandomGraphSpec::default());
            assert!(algo::topo_sort(&g).is_some());
            assert!(g.is_dependence_complete(), "seed {seed}");
            assert!(g.num_tasks() > 0);
        }
    }

    #[test]
    fn random_graphs_with_commuting_marks() {
        let spec = RandomGraphSpec { accum_prob: 0.8, update_prob: 0.7, ..Default::default() };
        let mut any_group = false;
        for seed in 0..8 {
            let g = random_irregular_graph(seed, &spec);
            assert!(algo::topo_sort(&g).is_some());
            assert!(g.is_dependence_complete(), "seed {seed}");
            any_group |= g.tasks().any(|t| g.commute_group(t).is_some());
        }
        assert!(any_group, "no commuting group across 8 seeds");
    }

    #[test]
    fn splitmix_determinism() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64(7);
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            let f = r.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
