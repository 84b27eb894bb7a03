//! Task-graph builders: the paper's two workloads as RAPID computations.
//!
//! - [`cholesky_2d_model`] — 2-D block sparse Cholesky (paper §5, workload
//!   1): data objects are the nonzero blocks of the factor pattern on a
//!   2-D cyclic processor grid; tasks are block factorizations, panel
//!   scalings and trailing updates with flop-accurate weights.
//! - [`lu_1d_model`] — sparse LU with partial pivoting under static
//!   symbolic factorization and 1-D column-block mapping (workload 2):
//!   data objects are whole column blocks (so pivoting and row swaps stay
//!   processor-local), tasks are panel factorizations and panel-panel
//!   updates.
//!
//! Both builders emit the task trace through [`rapid_core::ddg`], so the
//! resulting graphs are dependence-complete by construction, and both
//! provide *numeric bodies* for the threaded executor plus extraction and
//! verification helpers.

use crate::blockpart::{
    supernode_partition, BlockPartition, BlockPattern, ColBlockPattern, ProcGrid,
};
use crate::csc::SparseMatrix;
use crate::kernels;
use crate::symbolic::{cholesky_symbolic, lu_static_symbolic, CholSymbolic};
use rapid_core::ddg::{AccessKind, TraceBuilder};
use rapid_core::graph::{ObjId, ProcId, TaskGraph, TaskId};
use rapid_rt::threaded::TaskCtx;

// ---------------------------------------------------------------------------
// 2-D block Cholesky
// ---------------------------------------------------------------------------

/// What a Cholesky task does. Data loading is not a task: blocks are
/// resident on their owners before execution (see
/// [`CholeskyModel::init`]), matching RAPID — and keeping initialization
/// out of the DCG, whose slices would otherwise collapse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CholTask {
    /// Factor diagonal block (k, k) in place.
    Fact {
        /// Elimination step.
        k: u32,
    },
    /// Scale panel block (i, k) by the factored diagonal.
    Scale {
        /// Block row.
        i: u32,
        /// Elimination step.
        k: u32,
    },
    /// Trailing update of block (i, j) by panel blocks (i, k) and (j, k).
    Update {
        /// Block row.
        i: u32,
        /// Block column.
        j: u32,
        /// Elimination step.
        k: u32,
    },
}

/// The 2-D block Cholesky workload.
pub struct CholeskyModel {
    /// The task-dependence graph.
    pub graph: TaskGraph,
    /// Block pattern (closed under block updates).
    pub pattern: BlockPattern,
    /// Object of the first present block of each block column; the others
    /// follow in `pattern.block_cols` order (see [`CholeskyModel::obj`]).
    col_first: Vec<u32>,
    /// Block of each object.
    pub block_of_obj: Vec<(u32, u32)>,
    /// Kind of each task.
    pub kinds: Vec<CholTask>,
    /// Owner processor of each object (2-D cyclic grid).
    pub owner: Vec<ProcId>,
    /// The processor grid.
    pub grid: ProcGrid,
    /// Matrix dimension.
    pub n: usize,
}

/// Build the 2-D block Cholesky model of SPD matrix `a` with block width
/// `block_w` on `nprocs` processors. Trailing updates are kept in a total
/// order; see [`cholesky_2d_model_commuting`] for the marked-commuting
/// variant.
pub fn cholesky_2d_model(a: &SparseMatrix, block_w: usize, nprocs: usize) -> CholeskyModel {
    cholesky_2d_model_with(a, |_| BlockPartition::uniform(a.ncols, block_w), nprocs, false)
}

/// [`cholesky_2d_model`] with the trailing updates of each block marked
/// as *commuting* (paper §2): `Update(i,j,k1)` and `Update(i,j,k2)` add
/// independent outer products into block (i,j), so they may execute in
/// any order. The scheduler gains ready-task freedom; under owner-compute
/// all updaters of a block share its owner, so the relaxation is safe on
/// the threaded executor (updates still serialize on that processor).
pub fn cholesky_2d_model_commuting(
    a: &SparseMatrix,
    block_w: usize,
    nprocs: usize,
) -> CholeskyModel {
    cholesky_2d_model_with(a, |_| BlockPartition::uniform(a.ncols, block_w), nprocs, true)
}

/// [`cholesky_2d_model`] over *supernodal* blocks: column blocks follow
/// the factor's supernode structure (split at `max_w` columns) instead of
/// a uniform cut, giving denser block columns — the partition the paper's
/// reference \[14\] codes use.
pub fn cholesky_2d_model_supernodal(
    a: &SparseMatrix,
    max_w: usize,
    nprocs: usize,
) -> CholeskyModel {
    cholesky_2d_model_with(a, |sym| supernode_partition(sym, max_w), nprocs, false)
}

fn cholesky_2d_model_with(
    a: &SparseMatrix,
    part: impl FnOnce(&CholSymbolic) -> BlockPartition,
    nprocs: usize,
    commuting: bool,
) -> CholeskyModel {
    let n = a.ncols;
    let sym = cholesky_symbolic(a);
    let mut pattern = BlockPattern::from_cholesky(&sym, part(&sym));
    let nb = pattern.part.num_blocks();

    // Close the block pattern under block updates: (i,k) and (j,k) present
    // with i >= j > k forces (i,j).
    for k in 0..nb {
        let col: Vec<u32> = pattern.block_cols[k].clone();
        for (x, &jb) in col.iter().enumerate() {
            if jb as usize <= k {
                continue;
            }
            for &ib in &col[x..] {
                if ib as usize <= k {
                    continue;
                }
                let target = &mut pattern.block_cols[jb as usize];
                if target.binary_search(&ib).is_err() {
                    let pos = target.partition_point(|&v| v < ib);
                    target.insert(pos, ib);
                }
            }
        }
    }

    let grid = ProcGrid::new(nprocs);
    let mut tb = TraceBuilder::new();
    let mut col_first = Vec::with_capacity(nb);
    let mut block_of_obj = Vec::new();
    let mut owner = Vec::new();
    for j in 0..nb as u32 {
        col_first.push(block_of_obj.len() as u32);
        for &i in &pattern.block_cols[j as usize] {
            let size = (pattern.part.width(i as usize) * pattern.part.width(j as usize)) as u64;
            tb.add_object(size);
            block_of_obj.push((i, j));
            owner.push(grid.owner(i, j));
        }
    }
    let obj = |i: u32, j: u32| block_obj(&pattern, &col_first, i, j);

    let mut kinds = Vec::new();
    // Right-looking block factorization. Blocks hold the values of A at
    // start (owner-side initialization), so the first access of each
    // block is an update of resident data.
    for k in 0..nb as u32 {
        let wk = pattern.part.width(k as usize) as f64;
        let dk = obj(k, k);
        tb.add_task_labeled(
            format_args!("Fact({k})"),
            (wk * wk * wk) / 3.0,
            &[(dk, AccessKind::Update)],
        );
        kinds.push(CholTask::Fact { k });
        let col: Vec<u32> =
            pattern.block_cols[k as usize].iter().copied().filter(|&i| i > k).collect();
        for &i in &col {
            let hi = pattern.part.width(i as usize) as f64;
            let dik = obj(i, k);
            tb.add_task_labeled(
                format_args!("Scale({i},{k})"),
                hi * wk * wk,
                &[(dk, AccessKind::Read), (dik, AccessKind::Update)],
            );
            kinds.push(CholTask::Scale { i, k });
        }
        for (x, &j) in col.iter().enumerate() {
            for &i in &col[x..] {
                let hi = pattern.part.width(i as usize) as f64;
                let wj = pattern.part.width(j as usize) as f64;
                let (dik, djk, dij) = (obj(i, k), obj(j, k), obj(i, j));
                let upd = if commuting { AccessKind::Accum } else { AccessKind::Update };
                let acc = [(dik, AccessKind::Read), (dij, upd), (djk, AccessKind::Read)];
                let acc = if i == j { &acc[..2] } else { &acc[..] };
                tb.add_task_labeled(format_args!("Update({i},{j},{k})"), 2.0 * hi * wj * wk, acc);
                kinds.push(CholTask::Update { i, j, k });
            }
        }
    }
    let (graph, _) =
        tb.build().unwrap_or_else(|e| unreachable!("cholesky trace builds by construction: {e:?}"));
    debug_assert_eq!(graph.num_tasks(), kinds.len());
    debug_assert_eq!(graph.num_objects(), block_of_obj.len());
    CholeskyModel { graph, pattern, col_first, block_of_obj, kinds, owner, grid, n }
}

/// Object of present block (i, j): objects are created block column by
/// block column, each in `pattern.block_cols` order.
fn block_obj(pattern: &BlockPattern, col_first: &[u32], i: u32, j: u32) -> ObjId {
    let pos = pattern.block_cols[j as usize]
        .binary_search(&i)
        .unwrap_or_else(|_| unreachable!("block ({i}, {j}) is not in the pattern"));
    ObjId(col_first[j as usize] + pos as u32)
}

impl CholeskyModel {
    /// Object holding present block (i, j).
    pub fn obj(&self, i: u32, j: u32) -> ObjId {
        block_obj(&self.pattern, &self.col_first, i, j)
    }

    /// Owner-side data initialization: load each block with `A`'s values.
    pub fn init<'m>(&'m self, a: &'m SparseMatrix) -> impl Fn(ObjId, &mut [f64]) + Sync + 'm {
        move |d: ObjId, buf: &mut [f64]| {
            let (i, j) = self.block_of_obj[d.idx()];
            self.load_block(a, i, j, buf);
        }
    }

    /// Numeric task body executing the factorization on dense blocks.
    pub fn body<'m>(&'m self) -> impl Fn(TaskId, &mut TaskCtx<'_>) + Sync + 'm {
        move |t: TaskId, ctx: &mut TaskCtx<'_>| match self.kinds[t.idx()] {
            CholTask::Fact { k } => {
                let w = self.pattern.part.width(k as usize);
                let buf = self.obj_buf_mut(ctx, k, k);
                if let Err(p) = kernels::potrf(buf, w) {
                    // Panic is the body's typed-failure channel: the
                    // executor surfaces it as `WorkerPanicked`.
                    panic!("Fact({k}): diagonal block is not SPD (pivot {p})");
                }
            }
            CholTask::Scale { i, k } => {
                let h = self.pattern.part.width(i as usize);
                let w = self.pattern.part.width(k as usize);
                let l = ctx.read(self.obj(k, k));
                let buf = self.obj_buf_mut(ctx, i, k);
                kernels::trsm_rlt(buf, h, l, w);
            }
            CholTask::Update { i, j, k } => {
                let hi = self.pattern.part.width(i as usize);
                let wj = self.pattern.part.width(j as usize);
                let wk = self.pattern.part.width(k as usize);
                let aik = ctx.read(self.obj(i, k));
                let bjk = if i == j { aik } else { ctx.read(self.obj(j, k)) };
                let buf = self.obj_buf_mut(ctx, i, j);
                kernels::gemm_nt_sub(buf, hi, wj, aik, bjk, wk);
            }
        }
    }

    fn obj_buf_mut<'c>(&self, ctx: &'c mut TaskCtx<'_>, i: u32, j: u32) -> &'c mut [f64] {
        ctx.write(self.obj(i, j))
    }

    /// Load block (i, j) of `a` into a zeroed dense column-major buffer.
    fn load_block(&self, a: &SparseMatrix, i: u32, j: u32, buf: &mut [f64]) {
        let rr = self.pattern.part.range(i as usize);
        let cr = self.pattern.part.range(j as usize);
        let h = rr.len();
        // The buffer arrives zeroed (a `calloc`ed permanent on the threaded
        // executor), so nothing here zeroes it again. A `fill(0.0)` used to
        // be the pages' first touch on a shared heap; against `calloc`, five
        // alternated 25 s `chol-large` pairs (seed 1997, 2 vCPUs) read
        // `solve_s` 0.370 → 0.357 s and `setup_s` 0.674 → 0.631 s (medians)
        // without it, `exec_s` 0.199 → 0.196 s.
        for (cq, c) in cr.enumerate() {
            let rows = a.col_rows(c);
            let lo = rows.partition_point(|&r| (r as usize) < rr.start);
            for (x, &rv) in rows.iter().enumerate().skip(lo) {
                let r = rv as usize;
                if r >= rr.end {
                    break;
                }
                buf[cq * h + (r - rr.start)] = a.col_values(c)[x];
            }
        }
    }

    /// Assemble the dense lower factor `L` from the final object
    /// contents (small matrices; verification helper).
    pub fn extract_l(&self, objects: &[Vec<f64>]) -> Vec<f64> {
        let n = self.n;
        let mut l = vec![0.0; n * n];
        for (d, &(i, j)) in self.block_of_obj.iter().enumerate() {
            let rr = self.pattern.part.range(i as usize);
            let cr = self.pattern.part.range(j as usize);
            let h = rr.len();
            for (cq, c) in cr.clone().enumerate() {
                for (rq, r) in rr.clone().enumerate() {
                    if r >= c {
                        l[c * n + r] = objects[d][cq * h + rq];
                    }
                }
            }
        }
        l
    }
}

// ---------------------------------------------------------------------------
// 1-D column-block LU with partial pivoting
// ---------------------------------------------------------------------------

/// What an LU task does. Panels are resident on their owners before
/// execution (see [`LuModel::init`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuTask {
    /// Factor panel `k` with partial pivoting.
    Fact {
        /// Column block.
        k: u32,
    },
    /// Update panel `j` by factored panel `k` (swap, U solve, GEMM).
    Update {
        /// Source panel.
        k: u32,
        /// Updated panel.
        j: u32,
    },
}

/// The 1-D column-block LU workload.
pub struct LuModel {
    /// The task-dependence graph.
    pub graph: TaskGraph,
    /// Column-block structure of the static symbolic factorization.
    pub colpat: ColBlockPattern,
    /// Object of each column block.
    pub obj_of_block: Vec<ObjId>,
    /// Kind of each task.
    pub kinds: Vec<LuTask>,
    /// Owner of each object (cyclic over column blocks).
    pub owner: Vec<ProcId>,
    /// Matrix dimension.
    pub n: usize,
    /// Panels stored at their static row extent (numeric mode) or
    /// compressed sizes (simulation mode)?
    pub numeric: bool,
    /// Static row extent, lower end: panel `k` is zero at rows `< row_lo[k]`
    /// before, during and after the run. It is the least `range(d).start`
    /// over `colpat.deps[k]` (where `Update(d, k)` starts writing), or
    /// `range(k).start` without dependencies; no structural row of the
    /// block's columns lies above it.
    pub row_lo: Vec<usize>,
    /// Static row extent, upper end: panel `k` is zero at rows `>= row_hi[k]`
    /// before, during and after the run (closed over `colpat.deps`).
    pub row_hi: Vec<usize>,
}

/// Where a numeric LU panel's values sit in its object: rows `lo..hi` of
/// each of its `w` columns, column-major with stride `hi - lo`, then `w`
/// pivot slots. Rows outside `lo..hi` are zero and not stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanelLayout {
    /// First stored row.
    pub lo: usize,
    /// One past the last stored row.
    pub hi: usize,
    /// Columns.
    pub w: usize,
}

impl PanelLayout {
    /// Stored rows per column: the column stride.
    pub fn height(self) -> usize {
        self.hi - self.lo
    }

    /// Object size in units: the stored columns, then one pivot per column.
    pub fn size(self) -> usize {
        (self.height() + 1) * self.w
    }

    /// Index of (row `r`, column `q`) in the stored columns.
    pub fn at(self, r: usize, q: usize) -> usize {
        debug_assert!((self.lo..self.hi).contains(&r) && q < self.w, "({r}, {q}) outside {self:?}");
        q * self.height() + (r - self.lo)
    }

    /// An object's stored columns and its pivot slots.
    pub fn split(self, obj: &[f64]) -> (&[f64], &[f64]) {
        obj.split_at(self.height() * self.w)
    }

    /// [`PanelLayout::split`], mutably.
    pub fn split_mut(self, obj: &mut [f64]) -> (&mut [f64], &mut [f64]) {
        obj.split_at_mut(self.height() * self.w)
    }
}

/// Build the 1-D column-block LU model. With `numeric = true` panel `k` is
/// stored at its static row extent (see [`PanelLayout`]: `row_hi[k] -
/// row_lo[k]` rows of `w` columns plus `w` pivot slots), so the threaded
/// executor can run real partial pivoting on every row that can hold a
/// nonzero; with `numeric = false` object sizes are the compressed
/// structural nonzero counts, matching the paper's memory accounting for
/// the simulation experiments.
pub fn lu_1d_model(a: &SparseMatrix, block_w: usize, nprocs: usize, numeric: bool) -> LuModel {
    let n = a.ncols;
    let lu = lu_static_symbolic(a);
    let part = BlockPartition::uniform(n, block_w);
    let colpat = ColBlockPattern::from_lu(&lu, part);
    let nb = colpat.part.num_blocks();
    // The rows each block can hold a nonzero in. `Update(k, j)` swaps and
    // adds rows from `range(k).start` down to `row_hi[k]`, so `row_hi` is
    // closed over the update graph, and `row_lo[j]` is where the first block
    // of the sorted `deps[j]` starts. No structural row of block `j` lies
    // above that: a row above `range(j).start` puts its block in `deps[j]`.
    let row_lo: Vec<usize> = (0..nb)
        .map(|j| {
            let first = colpat.deps[j].first().map(|&k| k as usize);
            colpat.part.range(first.unwrap_or(j)).start
        })
        .collect();
    let mut row_hi = vec![0usize; nb];
    for j in 0..nb {
        let own = colpat.part.range(j).filter_map(|c| lu.cols[c].last()).max();
        let deps = colpat.deps[j].iter().map(|&k| row_hi[k as usize]).max();
        row_hi[j] = own.map_or(0, |&r| r as usize + 1).max(deps.unwrap_or(0));
    }

    let mut tb = TraceBuilder::new();
    let mut obj_of_block = Vec::with_capacity(nb);
    let mut owner = Vec::with_capacity(nb);
    for k in 0..nb {
        let w = colpat.part.width(k);
        let size = if numeric {
            PanelLayout { lo: row_lo[k], hi: row_hi[k], w }.size() as u64
        } else {
            colpat.nnz[k]
        };
        obj_of_block.push(tb.add_object(size.max(1)));
        owner.push((k % nprocs) as ProcId);
    }

    let mut kinds = Vec::new();
    // Panel dependencies: updates from earlier panels, then factor.
    // Emit in elimination order: Fact(k), then Update(k, j) for j > k.
    for k in 0..nb as u32 {
        let w = colpat.part.width(k as usize) as f64;
        let rows_k = colpat.nnz[k as usize] as f64 / w;
        tb.add_task_labeled(
            format_args!("Fact({k})"),
            w * w * rows_k,
            &[(obj_of_block[k as usize], AccessKind::Update)],
        );
        kinds.push(LuTask::Fact { k });
        for j in (k as usize + 1)..nb {
            if colpat.deps[j].binary_search(&k).is_ok() {
                let wj = colpat.part.width(j) as f64;
                let rows_j = colpat.nnz[j] as f64 / wj;
                tb.add_task_labeled(
                    format_args!("Update({k},{j})"),
                    2.0 * w * wj * rows_j,
                    &[
                        (obj_of_block[k as usize], AccessKind::Read),
                        (obj_of_block[j], AccessKind::Update),
                    ],
                );
                kinds.push(LuTask::Update { k, j: j as u32 });
            }
        }
    }
    let (graph, _) =
        tb.build().unwrap_or_else(|e| unreachable!("lu trace builds by construction: {e:?}"));
    debug_assert_eq!(graph.num_tasks(), kinds.len());
    LuModel { graph, colpat, obj_of_block, kinds, owner, n, numeric, row_lo, row_hi }
}

impl LuModel {
    /// Where panel `k`'s rows and pivots sit in its object (numeric mode).
    pub fn layout(&self, k: usize) -> PanelLayout {
        PanelLayout { lo: self.row_lo[k], hi: self.row_hi[k], w: self.colpat.part.width(k) }
    }

    /// Owner-side data initialization: load each panel, handed over zeroed
    /// by both drivers, with `A`'s columns (numeric mode only).
    pub fn init<'m>(&'m self, a: &'m SparseMatrix) -> impl Fn(ObjId, &mut [f64]) + Sync + 'm {
        assert!(self.numeric, "numeric init needs stored panels");
        let mut block_of_obj = vec![usize::MAX; self.graph.num_objects()];
        for (k, d) in self.obj_of_block.iter().enumerate() {
            block_of_obj[d.idx()] = k;
        }
        move |d: ObjId, buf: &mut [f64]| {
            let k = block_of_obj[d.idx()];
            let lay = self.layout(k);
            for (q, c) in self.colpat.part.range(k).enumerate() {
                for (&r, &v) in a.col_rows(c).iter().zip(a.col_values(c)) {
                    buf[lay.at(r as usize, q)] = v;
                }
            }
        }
    }

    /// Numeric task body: panels at their static row extent, with true
    /// partial pivoting. The model must have been built with
    /// `numeric = true`.
    pub fn body<'m>(&'m self) -> impl Fn(TaskId, &mut TaskCtx<'_>) + Sync + 'm {
        assert!(self.numeric, "numeric body needs stored panels");
        move |t: TaskId, ctx: &mut TaskCtx<'_>| match self.kinds[t.idx()] {
            LuTask::Fact { k } => {
                let lay = self.layout(k as usize);
                let (w, hi) = (lay.w, lay.hi);
                let col0 = self.colpat.part.range(k as usize).start;
                let (panel, piv) = lay.split_mut(ctx.write(self.obj_of_block[k as usize]));
                // Partial pivoting restricted to rows >= current column;
                // rows >= hi are zero, stay zero and are not stored (see
                // `LuModel::row_hi`).
                for q in 0..w {
                    let c = col0 + q;
                    let (mut best, mut bestv) = (c, panel[lay.at(c, q)].abs());
                    for i in c + 1..hi {
                        let v = panel[lay.at(i, q)].abs();
                        if v > bestv {
                            best = i;
                            bestv = v;
                        }
                    }
                    assert!(bestv > 0.0, "zero pivot at column {c}");
                    piv[q] = best as f64;
                    if best != c {
                        for cc in 0..w {
                            panel.swap(lay.at(c, cc), lay.at(best, cc));
                        }
                    }
                    let d = panel[lay.at(c, q)];
                    for i in c + 1..hi {
                        panel[lay.at(i, q)] /= d;
                    }
                    for cc in q + 1..w {
                        let u = panel[lay.at(c, cc)];
                        if u == 0.0 {
                            continue;
                        }
                        for i in c + 1..hi {
                            panel[lay.at(i, cc)] -= panel[lay.at(i, q)] * u;
                        }
                    }
                }
            }
            LuTask::Update { k, j } => {
                let kr = self.colpat.part.range(k as usize);
                let (lk, lj) = (self.layout(k as usize), self.layout(j as usize));
                let (kpanel, piv) = lk.split(ctx.read(self.obj_of_block[k as usize]));
                let (panel, _) = lj.split_mut(ctx.write(self.obj_of_block[j as usize]));
                // Apply panel k's pivots. They lie in `kr.start..lk.hi`, which
                // panel j stores: `row_lo[j] <= kr.start` and `lk.hi <= lj.hi`.
                for (q, &pv) in piv.iter().enumerate() {
                    let c = kr.start + q;
                    let p = pv as usize;
                    if p != c {
                        for cc in 0..lj.w {
                            panel.swap(lj.at(c, cc), lj.at(p, cc));
                        }
                    }
                }
                // U block: solve the unit lower triangle of panel k's
                // diagonal block against rows kr of panel j.
                kernels::trsm_llu(
                    &mut panel[lj.at(kr.start, 0)..],
                    lj.height(),
                    lj.w,
                    &kpanel[lk.at(kr.start, 0)..],
                    lk.height(),
                    lk.w,
                );
                // Trailing product: rows below panel k's block, down to its
                // static extent (panel k is zero below it).
                for cc in 0..lj.w {
                    for q in 0..lk.w {
                        let u = panel[lj.at(kr.start + q, cc)];
                        if u == 0.0 {
                            continue;
                        }
                        for i in kr.end..lk.hi {
                            panel[lj.at(i, cc)] -= kpanel[lk.at(i, q)] * u;
                        }
                    }
                }
            }
        }
    }

    /// Solve `A x = b` with the distributed factors produced by a numeric
    /// run (`objects` from the executor outcome).
    pub fn solve(&self, objects: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        assert!(self.numeric);
        let mut x = b.to_vec();
        let nb = self.colpat.part.num_blocks();
        // Forward: apply each panel's pivots then eliminate with its L.
        for k in 0..nb {
            let kr = self.colpat.part.range(k);
            let lay = self.layout(k);
            let (panel, piv) = lay.split(&objects[self.obj_of_block[k].idx()]);
            for (q, &pv) in piv.iter().enumerate() {
                let c = kr.start + q;
                let p = pv as usize;
                if p != c {
                    x.swap(c, p);
                }
            }
            for (q, c) in kr.enumerate() {
                let v = x[c];
                for i in c + 1..lay.hi {
                    x[i] -= panel[lay.at(i, q)] * v;
                }
            }
        }
        // Backward: U solve, panels in reverse.
        for k in (0..nb).rev() {
            let kr = self.colpat.part.range(k);
            let lay = self.layout(k);
            let (panel, _) = lay.split(&objects[self.obj_of_block[k].idx()]);
            for (q, c) in kr.enumerate().rev() {
                x[c] /= panel[lay.at(c, q)];
                let v = x[c];
                for i in lay.lo..c {
                    x[i] -= panel[lay.at(i, q)] * v;
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::refsolve;
    use rapid_core::schedule::{CostModel, Schedule};
    use rapid_rt::threaded::{run_sequential_with_init, ThreadedExecutor};
    use rapid_sched::assign::owner_compute_assignment;

    #[test]
    fn cholesky_model_shape() {
        let a = gen::grid2d_laplacian(6, 6);
        let m = cholesky_2d_model(&a, 6, 4);
        assert!(m.graph.num_tasks() > m.pattern.part.num_blocks() * 2);
        assert!(m.graph.is_dependence_complete());
        // Owner map spans the grid.
        assert!(m.owner.contains(&0));
        assert!(m.owner.contains(&3));
    }

    #[test]
    fn cholesky_sequential_numeric_is_correct() {
        let a = gen::bcsstk_like(4, 3, 2, 9); // n = 24
        let m = cholesky_2d_model(&a, 5, 4);
        let objects = run_sequential_with_init(&m.graph, m.body(), m.init(&a));
        let l = m.extract_l(&objects);
        assert!(
            refsolve::cholesky_defect(&a, &l) < 1e-8,
            "defect {}",
            refsolve::cholesky_defect(&a, &l)
        );
    }

    #[test]
    fn cholesky_threaded_matches_reference() {
        let a = gen::grid2d_laplacian(5, 5); // n = 25
        let m = cholesky_2d_model(&a, 4, 4);
        let assign = owner_compute_assignment(&m.graph, &m.owner, 4);
        let sched = rapid_sched::mpo::mpo_order(&m.graph, &assign, &CostModel::unit());
        let cap = rapid_core::memreq::min_mem(&m.graph, &sched).tot_no_recycle + 64;
        let exec = ThreadedExecutor::new(&m.graph, &sched, cap);
        let out = exec.run_with_init(m.body(), m.init(&a)).unwrap();
        let l = m.extract_l(&out.objects);
        assert!(refsolve::cholesky_defect(&a, &l) < 1e-8);
    }

    #[test]
    fn commuting_model_relaxes_update_order() {
        let a = gen::grid2d_laplacian(8, 8);
        let strict = cholesky_2d_model(&a, 4, 4);
        let commuting = cholesky_2d_model_commuting(&a, 4, 4);
        assert_eq!(strict.graph.num_tasks(), commuting.graph.num_tasks());
        // Find a block with two trailing updates: strict chains them,
        // commuting leaves them unordered and marked.
        let mut checked = false;
        for t1 in strict.graph.tasks() {
            let CholTask::Update { i, j, k: k1 } = strict.kinds[t1.idx()] else {
                continue;
            };
            for &s2 in strict.graph.succs(t1) {
                let t2 = rapid_core::graph::TaskId(s2);
                if let CholTask::Update { i: i2, j: j2, k: k2 } = strict.kinds[t2.idx()] {
                    if (i2, j2) == (i, j) && k2 != k1 {
                        // Same tasks exist at the same indices in the
                        // commuting model (identical trace order).
                        assert!(!commuting.graph.has_edge(t1, t2));
                        assert!(commuting.graph.commutes(t1, t2));
                        checked = true;
                    }
                }
            }
        }
        assert!(checked, "no chained block-update pair found");
        assert!(commuting.graph.is_dependence_complete());
        // At least one commuting group exists (some block gets >= 2
        // trailing updates).
        assert!(commuting.graph.tasks().any(|t| commuting.graph.commute_group(t).is_some()));
    }

    #[test]
    fn commuting_model_numeric_still_correct() {
        let a = gen::bcsstk_like(4, 4, 2, 13);
        let m = cholesky_2d_model_commuting(&a, 8, 4);
        let assign = owner_compute_assignment(&m.graph, &m.owner, 4);
        let sched = rapid_sched::mpo::mpo_order(&m.graph, &assign, &CostModel::unit());
        let cap = rapid_core::memreq::min_mem(&m.graph, &sched).tot_no_recycle + 64;
        let exec = ThreadedExecutor::new(&m.graph, &sched, cap);
        let out = exec.run_with_init(m.body(), m.init(&a)).unwrap();
        let l = m.extract_l(&out.objects);
        assert!(refsolve::cholesky_defect(&a, &l) < 1e-8);
    }

    #[test]
    fn supernodal_model_numeric_correct() {
        let a = gen::bcsstk_like(5, 4, 3, 21);
        let m = cholesky_2d_model_supernodal(&a, 10, 4);
        // Non-uniform partition in play.
        let widths: Vec<usize> =
            (0..m.pattern.part.num_blocks()).map(|b| m.pattern.part.width(b)).collect();
        assert!(widths.iter().any(|&w| w != widths[0]) || widths.len() == 1);
        let objects = run_sequential_with_init(&m.graph, m.body(), m.init(&a));
        let l = m.extract_l(&objects);
        assert!(refsolve::cholesky_defect(&a, &l) < 1e-8);
    }

    #[test]
    fn supernodal_partition_tracks_uniform_cost() {
        // Supernodal blocks align with the factor structure; their count
        // and total dense storage stay comparable to the uniform cut at
        // the same width cap while avoiding splits through supernodes.
        let a = gen::bcsstk_like(6, 6, 3, 2);
        let a = a.permute_sym(&crate::order::min_degree(&a));
        let uni = cholesky_2d_model(&a, 12, 4);
        let sup = cholesky_2d_model_supernodal(&a, 12, 4);
        let units =
            |m: &CholeskyModel| -> u64 { m.graph.objects().map(|d| m.graph.obj_size(d)).sum() };
        assert!(
            (sup.graph.num_objects() as f64) < 1.5 * uni.graph.num_objects() as f64,
            "supernodal {} vs uniform {}",
            sup.graph.num_objects(),
            uni.graph.num_objects()
        );
        assert!(
            (units(&sup) as f64) < 1.5 * units(&uni) as f64,
            "supernodal {} units vs uniform {}",
            units(&sup),
            units(&uni)
        );
        assert!(sup.pattern.part.max_width() <= 12);
    }

    #[test]
    fn lu_model_shape() {
        let a = gen::goodwin_like(60, 4, 1, 2);
        let m = lu_1d_model(&a, 8, 4, false);
        assert!(m.graph.is_dependence_complete());
        // 1-D mapping: fewer, larger objects.
        assert_eq!(m.graph.num_objects(), m.colpat.part.num_blocks());
        // Every non-Init task is a Fact or an Update on the right panel.
        let nb = m.colpat.part.num_blocks();
        let facts = m.kinds.iter().filter(|k| matches!(k, LuTask::Fact { .. })).count();
        assert_eq!(facts, nb);
    }

    #[test]
    fn lu_sequential_numeric_small_residual() {
        let a = gen::goodwin_like(48, 4, 1, 6);
        let m = lu_1d_model(&a, 6, 2, true);
        let objects = run_sequential_with_init(&m.graph, m.body(), m.init(&a));
        let b: Vec<f64> = (0..48).map(|i| 1.0 + (i as f64 * 0.23).cos()).collect();
        let x = m.solve(&objects, &b);
        let r = refsolve::rel_residual(&a, &x, &b);
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn lu_threaded_matches_reference() {
        let a = gen::goodwin_like(40, 3, 1, 8);
        let m = lu_1d_model(&a, 5, 4, true);
        let assign = owner_compute_assignment(&m.graph, &m.owner, 4);
        let sched = rapid_sched::rcp::rcp_order(&m.graph, &assign, &CostModel::unit());
        let sched = Schedule { assign: sched.assign, order: sched.order };
        let cap = rapid_core::memreq::min_mem(&m.graph, &sched).tot_no_recycle + 64;
        let exec = ThreadedExecutor::new(&m.graph, &sched, cap);
        let out = exec.run_with_init(m.body(), m.init(&a)).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.61).sin() + 2.0).collect();
        let x = m.solve(&out.objects, &b);
        let r = refsolve::rel_residual(&a, &x, &b);
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn lu_row_extents_close_over_the_update_graph() {
        // Block 0 = columns {0, 1}: column 0 couples it to block 1 (rows
        // 0 and 2 meet in column 2), column 1 alone reaches row 11. No
        // column of block 1 reaches past row 3, but `Update(0, 1)` applies
        // block 0's interchanges, which reach row 11.
        let n = 12;
        let mut t: Vec<(u32, u32, f64)> = (0..n as u32).map(|i| (i, i, 4.0)).collect();
        t.extend([(2, 0, 1.0), (0, 2, 1.0), (11, 1, 9.0)]);
        let a = SparseMatrix::from_triplets(n, n, &t);
        let m = lu_1d_model(&a, 2, 2, true);
        assert_eq!(m.colpat.deps[1], [0]);
        assert_eq!(m.row_hi, [12, 12, 6, 8, 10, 12]);
        // Blocks 2 to 4 store their diagonal blocks alone. Block 5 starts
        // at row 0: columns 1 and 11 share row 11 of `A`, so column 11 has
        // a structural U entry in row 1, and block 5 depends on block 0.
        assert_eq!(m.row_lo, [0, 0, 4, 6, 8, 0]);
        let objects = run_sequential_with_init(&m.graph, m.body(), m.init(&a));
        let (_, piv) = m.layout(0).split(&objects[m.obj_of_block[0].idx()]);
        assert_eq!(piv[1], 11.0, "column 1 pivots on row 11");
        let b = vec![1.0; n];
        assert!(refsolve::rel_residual(&a, &m.solve(&objects, &b), &b) < 1e-12);
    }

    #[test]
    fn lu_pivoting_actually_pivots() {
        // A matrix needing row interchanges: tiny diagonal, large
        // subdiagonal.
        let mut t = Vec::new();
        let n = 12;
        for i in 0..n as u32 {
            t.push((i, i, 1e-8));
            if i + 1 < n as u32 {
                t.push((i + 1, i, 5.0));
                t.push((i, i + 1, 3.0));
            }
        }
        let a = SparseMatrix::from_triplets(n, n, &t);
        let m = lu_1d_model(&a, 3, 2, true);
        let objects = run_sequential_with_init(&m.graph, m.body(), m.init(&a));
        // At least one pivot must differ from its own row.
        let mut pivoted = false;
        for k in 0..m.colpat.part.num_blocks() {
            let kr = m.colpat.part.range(k);
            let (_, piv) = m.layout(k).split(&objects[m.obj_of_block[k].idx()]);
            for (q, &pv) in piv.iter().enumerate() {
                if pv as usize != kr.start + q {
                    pivoted = true;
                }
            }
        }
        assert!(pivoted, "partial pivoting never triggered");
        let b = vec![1.0; n];
        let x = m.solve(&objects, &b);
        assert!(refsolve::rel_residual(&a, &x, &b) < 1e-9);
    }
}
