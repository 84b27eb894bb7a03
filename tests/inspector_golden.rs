//! The inspector's outputs, pinned at benchmark scale.
//!
//! The inspector runs before the executor: it orders the matrix
//! (`order::min_degree`), computes the static symbolic structure
//! (`symbolic::lu_static_symbolic`, the George–Ng `AᵀA` bound) and
//! extracts the task graph (`taskgen::cholesky_2d_model`,
//! `taskgen::lu_1d_model`, `fixtures::random_irregular_graph`, all through
//! `ddg::TraceBuilder` and `graph::TaskGraphBuilder`). Every plan, every
//! `plan_hash` and every DES row downstream is a function of these
//! outputs, so each is hashed here on the benchmark's own inputs and must
//! stay bit for bit what it was when the values were recorded.
//!
//! A graph digest covers the successor and predecessor rows, the read and
//! write sets, the reader, writer and accessor rows, every weight's bits,
//! every object size, every label and every commute group.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::TaskGraph;
use rapid::sparse::{gen, order, symbolic, taskgen, SparseMatrix};

/// FNV-1a, 64-bit, over little-endian encodings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed row, so that row boundaries are hashed too.
    fn row(&mut self, row: &[u32]) {
        self.u64(row.len() as u64);
        for &v in row {
            self.bytes(&v.to_le_bytes());
        }
    }
}

fn perm_digest(perm: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.row(perm);
    h.0
}

fn cols_digest(cols: &[Vec<u32>]) -> u64 {
    let mut h = Fnv::new();
    h.u64(cols.len() as u64);
    for c in cols {
        h.row(c);
    }
    h.0
}

fn graph_digest(g: &TaskGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.num_tasks() as u64);
    h.u64(g.num_objects() as u64);
    for t in g.tasks() {
        h.row(g.succs(t));
        h.row(g.preds(t));
        h.row(g.reads(t));
        h.row(g.writes(t));
        h.u64(g.weight(t).to_bits());
        let label = g.task_label(t);
        h.u64(label.len() as u64);
        h.bytes(label.as_bytes());
        h.u64(g.commute_group(t).map_or(u64::MAX, u64::from));
    }
    for d in g.objects() {
        h.row(g.readers(d));
        h.row(g.writers(d));
        h.row(g.accessors(d));
        h.u64(g.obj_size(d));
    }
    h.0
}

/// `chol-large`'s matrix: the FEM grid, permuted by minimum degree.
fn chol_large_matrix(seed: u64) -> SparseMatrix {
    let a = gen::bcsstk_like(36, 36, 3, seed);
    a.permute_sym(&order::min_degree(&a))
}

#[track_caller]
fn pin(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: measured {got:#018x}, recorded {want:#018x}");
}

#[test]
fn min_degree_permutation_small() {
    let a = gen::bcsstk_like(6, 6, 3, 1997);
    pin(
        "min_degree(bcsstk_like(6, 6, 3, 1997))",
        perm_digest(&order::min_degree(&a)),
        0x16a6_2613_c61b_bef9,
    );
}

#[test]
fn min_degree_permutation_at_benchmark_scale() {
    // `bcsstk_like`'s pattern does not depend on the seed, only its values
    // do, so both seeds order the same graph.
    for (seed, want) in [(1997, 0xccee_475a_cd3a_0504), (53, 0xccee_475a_cd3a_0504)] {
        let a = gen::bcsstk_like(36, 36, 3, seed);
        let what = format!("min_degree(bcsstk_like(36, 36, 3, {seed}))");
        pin(&what, perm_digest(&order::min_degree(&a)), want);
    }
}

#[test]
fn lu_static_structure_at_benchmark_scale() {
    for (seed, want) in [(1997, 0x2356_b3cb_23a8_b76a), (53, 0x2a70_2830_7afa_24ff)] {
        let a = gen::goodwin_like(2400, 16, 1, seed);
        let what = format!("lu_static_symbolic(goodwin_like(2400, 16, 1, {seed}))");
        pin(&what, cols_digest(&symbolic::lu_static_symbolic(&a).cols), want);
    }
}

#[test]
fn cholesky_graph_at_benchmark_scale() {
    let m = taskgen::cholesky_2d_model(&chol_large_matrix(1997), 24, 2);
    pin("cholesky_2d_model(chol-large, 24, 2)", graph_digest(&m.graph), 0xd590_1cfe_4f85_ca2a);
}

#[test]
fn lu_graph_at_benchmark_scale() {
    let m = taskgen::lu_1d_model(&gen::goodwin_like(2400, 16, 1, 1997), 24, 2, true);
    // Re-recorded when numeric panels went from full height to their static
    // row extent: only the object sizes moved.
    pin("lu_1d_model(lu-panel, 24, 2, true)", graph_digest(&m.graph), 0x7ecf_2664_4806_c2a9);
}

#[test]
fn irregular_graph_at_benchmark_scale() {
    let spec = RandomGraphSpec { objects: 5000, tasks: 50_000, ..RandomGraphSpec::default() };
    pin(
        "random_irregular_graph(1997, 5000 / 50000)",
        graph_digest(&random_irregular_graph(1997, &spec)),
        0xac90_79f6_4271_2518,
    );
}

#[test]
fn commuting_graphs() {
    // The benchmark's graphs carry no commute group; these do.
    let chol = taskgen::cholesky_2d_model_commuting(&gen::grid2d_laplacian(12, 12), 4, 4);
    pin(
        "cholesky_2d_model_commuting(grid 12 x 12, 4, 4)",
        graph_digest(&chol.graph),
        0x4bb7_29b9_180a_87b8,
    );
    let spec = RandomGraphSpec {
        objects: 200,
        tasks: 2000,
        update_prob: 0.7,
        accum_prob: 0.8,
        ..RandomGraphSpec::default()
    };
    pin(
        "random_irregular_graph(7, accum)",
        graph_digest(&random_irregular_graph(7, &spec)),
        0xf36c_c617_fa25_0250,
    );
}
