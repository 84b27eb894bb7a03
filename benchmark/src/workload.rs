//! The four workloads: how each input is generated from the seed, its
//! ordering policy and memory cap, its task body, and its correctness
//! oracle. `README.md` gives the reasons at length.

use crate::spans::Spans;
use rapid_core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid_core::graph::{ObjId, ProcId, TaskGraph, TaskId};
use rapid_rt::threaded::TaskCtx;
use rapid_sched::assign::cyclic_owner_map;
use rapid_sparse::taskgen::{self, CholeskyModel, LuModel};
use rapid_sparse::{gen, order, refsolve, SparseMatrix};

use crate::host::WORKERS;

/// Which ordering the workload plans with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Mpo,
    /// DTS, then the Figure-6 slice merge under the workload's cap.
    DtsMerged,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Chol { grid: usize, block_w: usize },
    Lu { n: usize, band: usize, block_w: usize },
    Irregular { objects: usize, tasks: usize },
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub policy: Policy,
    /// Cap = `MIN_MEM + (TOT - MIN_MEM) / slack_div`; `None` is `TOT`,
    /// one MAP per processor.
    pub slack_div: Option<u64>,
    kind: Kind,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "chol-large",
        why: "paper-scale 2-D block Cholesky (n=3888, ~208k tasks): kernels and planning dominate, protocol does little",
        policy: Policy::Mpo,
        slack_div: Some(4),
        kind: Kind::Chol { grid: 36, block_w: 24 },
    },
    Spec {
        name: "chol-small",
        why: "265-task Cholesky at TOT: per-run thread spawn, heap and board set-up dominate, kernels and messages do little",
        policy: Policy::Mpo,
        slack_div: None,
        kind: Kind::Chol { grid: 6, block_w: 9 },
    },
    Spec {
        name: "lu-panel",
        why: "1-D LU with 2400x24 panels under merged DTS: few large tasks and messages, so put bandwidth and arena set-up matter",
        policy: Policy::DtsMerged,
        slack_div: Some(4),
        kind: Kind::Lu { n: 2400, band: 16, block_w: 24 },
    },
    Spec {
        name: "irregular-tight",
        why: "50k near-empty tasks at 5% memory slack: MAPs, address packages, suspended sends and flag waits do all the work",
        policy: Policy::Mpo,
        slack_div: Some(20),
        kind: Kind::Irregular { objects: 5000, tasks: 50000 },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub type Body<'a> = Box<dyn Fn(TaskId, &mut TaskCtx<'_>) + Sync + 'a>;
pub type Init<'a> = Box<dyn Fn(ObjId, &mut [f64]) + Sync + 'a>;

enum Data {
    Chol { a: SparseMatrix, model: CholeskyModel },
    Lu { a: SparseMatrix, model: LuModel },
    Irregular { g: TaskGraph, owner: Vec<ProcId> },
}

/// A generated input: the matrix (where there is one) and its task graph.
pub struct Problem {
    data: Data,
}

/// The near-empty body of the irregular workload (the one
/// `rapid-bench`'s executor section uses): sum what is read, add it into
/// what is written.
fn sum_reads_add_into_writes(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let mut acc = t.0 as f64;
    for d in ctx.read_ids().collect::<Vec<_>>() {
        acc += ctx.read(d).iter().sum::<f64>();
    }
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for x in ctx.write(d) {
            *x += acc;
        }
    }
}

impl Problem {
    /// Generate the workload's input from `seed`, with a span around each
    /// `rapid-sparse` stage (for the irregular workload `sparse.gen` is the
    /// random-graph generator of `rapid-core`; it has no other stage).
    pub fn generate(spec: &Spec, seed: u64, sp: &mut Spans) -> Problem {
        let data = match spec.kind {
            Kind::Chol { grid, block_w } => {
                let a = sp.span("sparse.gen", || gen::bcsstk_like(grid, grid, 3, seed));
                let a = sp.span("sparse.order", || a.permute_sym(&order::min_degree(&a)));
                let model =
                    sp.span("sparse.taskgen", || taskgen::cholesky_2d_model(&a, block_w, WORKERS));
                Data::Chol { a, model }
            }
            Kind::Lu { n, band, block_w } => {
                let a = sp.span("sparse.gen", || gen::goodwin_like(n, band, 1, seed));
                let model =
                    sp.span("sparse.taskgen", || taskgen::lu_1d_model(&a, block_w, WORKERS, true));
                Data::Lu { a, model }
            }
            Kind::Irregular { objects, tasks } => {
                let g = sp.span("sparse.gen", || {
                    let spec = RandomGraphSpec { objects, tasks, ..RandomGraphSpec::default() };
                    random_irregular_graph(seed, &spec)
                });
                let owner = cyclic_owner_map(g.num_objects(), WORKERS);
                Data::Irregular { g, owner }
            }
        };
        Problem { data }
    }

    pub fn graph(&self) -> &TaskGraph {
        match &self.data {
            Data::Chol { model, .. } => &model.graph,
            Data::Lu { model, .. } => &model.graph,
            Data::Irregular { g, .. } => g,
        }
    }

    /// Owner processor of every object.
    pub fn owner(&self) -> &[ProcId] {
        match &self.data {
            Data::Chol { model, .. } => &model.owner,
            Data::Lu { model, .. } => &model.owner,
            Data::Irregular { owner, .. } => owner,
        }
    }

    pub fn body(&self) -> Body<'_> {
        match &self.data {
            Data::Chol { model, .. } => Box::new(model.body()),
            Data::Lu { model, .. } => Box::new(model.body()),
            Data::Irregular { .. } => Box::new(sum_reads_add_into_writes),
        }
    }

    pub fn init(&self) -> Init<'_> {
        match &self.data {
            Data::Chol { a, model } => Box::new(model.init(a)),
            Data::Lu { a, model } => Box::new(model.init(a)),
            Data::Irregular { .. } => Box::new(|_, _| {}),
        }
    }

    /// Block width of the factorization, where there is one: the size the
    /// kernel microbenchmarks run at.
    pub fn block_w(&self) -> Option<usize> {
        match &self.data {
            Data::Chol { model, .. } => Some(model.pattern.part.max_width()),
            Data::Lu { model, .. } => Some(model.colpat.part.max_width()),
            Data::Irregular { .. } => None,
        }
    }

    /// Rows of a factored panel (`getrf`'s `m`): the whole column for 1-D
    /// LU, one block for the 2-D Cholesky.
    pub fn panel_rows(&self) -> Option<usize> {
        match &self.data {
            Data::Lu { model, .. } => Some(model.n),
            _ => self.block_w(),
        }
    }

    /// The numeric oracle on final object contents: relative residual and
    /// the tolerance it must meet. `None` where the workload has no
    /// matrix; it is then checked bitwise against the serial run only.
    pub fn residual(&self, objects: &[Vec<f64>]) -> Option<(f64, f64)> {
        match &self.data {
            Data::Chol { a, model } => Some((cholesky_residual(a, model, objects), 1e-10)),
            Data::Lu { a, model } => {
                let b: Vec<f64> = (0..a.ncols).map(|i| 1.0 + (i as f64 * 0.31).cos()).collect();
                let x = model.solve(objects, &b);
                Some((refsolve::rel_residual(a, &x, &b), 1e-9))
            }
            Data::Irregular { .. } => None,
        }
    }
}

/// `‖L(Lᵀx) − Ax‖ / ‖Ax‖` straight from the block objects, O(nnz(L)):
/// `extract_l` + `cholesky_defect` are dense and unusable at n = 3888.
fn cholesky_residual(a: &SparseMatrix, model: &CholeskyModel, objects: &[Vec<f64>]) -> f64 {
    let n = model.n;
    let x: Vec<f64> = (0..n).map(|i| 2.0 + (i as f64 * 0.17).sin()).collect();
    // Visit every entry L[r][c] (r >= c) of every block with its value.
    let for_each_entry = |f: &mut dyn FnMut(usize, usize, f64)| {
        for (d, &(i, j)) in model.block_of_obj.iter().enumerate() {
            let rows = model.pattern.part.range(i as usize);
            let cols = model.pattern.part.range(j as usize);
            let h = rows.len();
            for (cq, c) in cols.enumerate() {
                for (rq, r) in rows.clone().enumerate().filter(|&(_, r)| r >= c) {
                    f(r, c, objects[d][cq * h + rq]);
                }
            }
        }
    };
    let mut y = vec![0.0; n];
    for_each_entry(&mut |r, c, v| y[c] += v * x[r]);
    let mut z = vec![0.0; n];
    for_each_entry(&mut |r, c, v| z[r] += v * y[c]);
    let ax = a.spmv(&x);
    let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
    norm(&mut z.iter().zip(&ax).map(|(p, q)| p - q)) / norm(&mut ax.iter().copied())
}

/// Bitwise equality of two object sets (`==` on `f64` would let `-0.0`
/// pass for `0.0` and fail equal NaNs).
pub fn bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
