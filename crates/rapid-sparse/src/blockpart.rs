//! Block partitioning: uniform column blocks (1-D) and the 2-D block
//! grid over the Cholesky factor structure.
//!
//! The paper's Cholesky experiments use a 2-D block data mapping ("which
//! can expose more parallelism and give better scalability", ref. [14]);
//! the LU experiments use a 1-D column-block mapping so that partial
//! pivoting and row swaps stay processor-local.

use crate::symbolic::{CholSymbolic, LuSymbolic};
use rapid_core::graph::ProcId;

/// A uniform 1-D partition of `0..n` into blocks of width `w` (the last
/// block may be narrower).
#[derive(Clone, Debug)]
pub struct BlockPartition {
    /// `bounds[b]..bounds[b+1]` is block `b`.
    pub bounds: Vec<usize>,
}

impl BlockPartition {
    /// Uniform partition of `n` indices into blocks of width `w`.
    pub fn uniform(n: usize, w: usize) -> BlockPartition {
        assert!(w > 0);
        let mut bounds = Vec::with_capacity(n / w + 2);
        let mut i = 0;
        while i < n {
            bounds.push(i);
            i += w;
        }
        bounds.push(n);
        BlockPartition { bounds }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Index range of block `b`.
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.bounds[b]..self.bounds[b + 1]
    }

    /// Width of block `b`.
    pub fn width(&self, b: usize) -> usize {
        self.bounds[b + 1] - self.bounds[b]
    }

    /// The widest block (the paper's `w` of Corollary 2).
    pub fn max_width(&self) -> usize {
        (0..self.num_blocks()).map(|b| self.width(b)).max().unwrap_or(0)
    }

    /// Block containing index `i` (binary search; works for non-uniform
    /// partitions such as supernodes).
    pub fn block_of(&self, i: usize) -> usize {
        debug_assert!(self.bounds.last().is_some_and(|&n| i < n));
        self.bounds.partition_point(|&b| b <= i) - 1
    }

    /// [`Self::block_of`] for every index at once.
    fn blocks(&self) -> Vec<u32> {
        (0..self.num_blocks()).flat_map(|b| self.range(b).map(move |_| b as u32)).collect()
    }

    /// Build from explicit block boundaries (`bounds[0] == 0`, strictly
    /// increasing, last element = n).
    pub fn from_bounds(bounds: Vec<usize>) -> BlockPartition {
        assert!(bounds.len() >= 2 && bounds[0] == 0);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        BlockPartition { bounds }
    }
}

/// Partition columns into *supernodes*: maximal runs of consecutive
/// columns with nested factor structure (`parent[j] = j+1` and
/// `|struct(L_{j+1})| = |struct(L_j)| - 1`), split at `max_w` columns.
/// Supernodal blocks give denser, better-balanced block columns than a
/// uniform cut — the partition the paper's 2-D Cholesky codes actually
/// use (ref. [14], Rothberg & Schreiber).
pub fn supernode_partition(sym: &crate::symbolic::CholSymbolic, max_w: usize) -> BlockPartition {
    assert!(max_w > 0);
    let n = sym.n();
    // Pass 1: fundamental supernodes (split at max_w).
    let mut bounds = vec![0usize];
    let mut start = 0usize;
    for j in 0..n {
        let glue = j + 1 < n
            && j + 1 - start < max_w
            && sym.parent[j] == (j + 1) as u32
            && sym.l_cols[j + 1].len() + 1 == sym.l_cols[j].len();
        if !glue {
            bounds.push(j + 1);
            start = j + 1;
        }
    }
    // Pass 2: relaxed amalgamation — merge adjacent supernodes while the
    // combined width stays within max_w. Small supernodes are common in
    // the top of the elimination tree; leaving them separate explodes the
    // block count (real supernodal codes accept a few explicit zeros to
    // avoid that).
    let mut merged = vec![0usize];
    let mut i = 1;
    while i < bounds.len() {
        let mut end = bounds[i];
        while i + 1 < bounds.len() && bounds[i + 1] - merged.last().copied().unwrap_or(0) <= max_w {
            i += 1;
            end = bounds[i];
        }
        merged.push(end);
        i += 1;
    }
    BlockPartition { bounds: merged }
}

/// The nonzero block structure of a Cholesky factor over a 2-D block
/// grid: lower-triangular block (I, J), I ≥ J, is present when any
/// element of `L` falls inside it.
#[derive(Clone, Debug)]
pub struct BlockPattern {
    /// The partition (same in both dimensions).
    pub part: BlockPartition,
    /// For each block column `J`, the sorted list of block rows `I ≥ J`
    /// with a nonzero block.
    pub block_cols: Vec<Vec<u32>>,
}

impl BlockPattern {
    /// Build from a symbolic Cholesky structure.
    pub fn from_cholesky(sym: &CholSymbolic, part: BlockPartition) -> BlockPattern {
        let nb = part.num_blocks();
        let block = part.blocks();
        let mut block_cols: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut seen = vec![u32::MAX; nb]; // seen[bi] == bj: (bi, bj) is listed
        for (j, lj) in sym.l_cols.iter().enumerate() {
            let bj = block[j];
            for &r in lj {
                let bi = block[r as usize];
                if seen[bi as usize] != bj {
                    seen[bi as usize] = bj;
                    block_cols[bj as usize].push(bi);
                }
            }
        }
        for col in &mut block_cols {
            col.sort_unstable();
        }
        BlockPattern { part, block_cols }
    }

    /// Is block (I, J) present?
    pub fn has(&self, i: u32, j: u32) -> bool {
        self.block_cols[j as usize].binary_search(&i).is_ok()
    }
}

/// 1-D column-block structure for static LU: per column block, the total
/// structural nonzeros (object size) and the set of earlier blocks whose
/// panels update it.
#[derive(Clone, Debug)]
pub struct ColBlockPattern {
    /// The column partition.
    pub part: BlockPartition,
    /// Structural nonzeros per column block (compressed storage size).
    pub nnz: Vec<u64>,
    /// `deps[j]`: sorted earlier block indices `k < j` such that some
    /// column of block `j` has a structural nonzero in block `k`'s row
    /// range (the panel-update dependencies).
    pub deps: Vec<Vec<u32>>,
}

impl ColBlockPattern {
    /// Build from a static LU structure.
    pub fn from_lu(sym: &LuSymbolic, part: BlockPartition) -> ColBlockPattern {
        let nb = part.num_blocks();
        let block = part.blocks();
        let mut nnz = vec![0u64; nb];
        let mut deps: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut seen = vec![u32::MAX; nb]; // seen[bk] == bj: bk is a dep of bj
        for (c, col) in sym.cols.iter().enumerate() {
            let bj = block[c];
            nnz[bj as usize] += col.len() as u64;
            for &r in col {
                let bk = block[r as usize];
                if bk < bj && seen[bk as usize] != bj {
                    seen[bk as usize] = bj;
                    deps[bj as usize].push(bk);
                }
            }
        }
        for d in &mut deps {
            d.sort_unstable();
        }
        ColBlockPattern { part, nnz, deps }
    }
}

/// A 2-D processor grid: `p = rows × cols` with `rows ≈ √p`.
#[derive(Clone, Copy, Debug)]
pub struct ProcGrid {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
}

impl ProcGrid {
    /// The most square grid with `rows * cols == p`.
    pub fn new(p: usize) -> ProcGrid {
        assert!(p > 0);
        let mut rows = (p as f64).sqrt() as usize;
        while rows > 1 && !p.is_multiple_of(rows) {
            rows -= 1;
        }
        ProcGrid { rows: rows.max(1), cols: p / rows.max(1) }
    }

    /// Owner of block (i, j) under the cyclic 2-D mapping.
    pub fn owner(&self, i: u32, j: u32) -> ProcId {
        ((i as usize % self.rows) * self.cols + (j as usize % self.cols)) as ProcId
    }

    /// Total processors.
    pub fn nprocs(&self) -> usize {
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::symbolic::{cholesky_symbolic, lu_static_symbolic};

    #[test]
    fn uniform_partition() {
        let p = BlockPartition::uniform(10, 3);
        assert_eq!(p.num_blocks(), 4);
        assert_eq!(p.range(0), 0..3);
        assert_eq!(p.range(3), 9..10);
        assert_eq!(p.width(3), 1);
        assert_eq!(p.max_width(), 3);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(8), 2);
        assert_eq!(p.block_of(9), 3);
    }

    #[test]
    fn block_of_handles_non_uniform_bounds() {
        let p = BlockPartition::from_bounds(vec![0, 3, 4, 10]);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(2), 0);
        assert_eq!(p.block_of(3), 1);
        assert_eq!(p.block_of(4), 2);
        assert_eq!(p.block_of(9), 2);
        assert_eq!(p.max_width(), 6);
    }

    #[test]
    fn supernodes_cover_and_nest() {
        let a = gen::bcsstk_like(4, 4, 3, 3);
        let sym = cholesky_symbolic(&a);
        let part = supernode_partition(&sym, 8);
        // Partition covers all columns.
        assert_eq!(*part.bounds.first().unwrap(), 0);
        assert_eq!(*part.bounds.last().unwrap(), a.ncols);
        assert!(part.max_width() <= 8);
        // Amalgamation never crosses a column whose structure strictly
        // grows (a fundamental supernode head stays a head or is merged
        // wholly); every block is non-empty and within the cap, and FEM
        // matrices produce at least one multi-column block.
        assert!((0..part.num_blocks()).all(|b| part.width(b) >= 1));
        assert!((0..part.num_blocks()).any(|b| part.width(b) > 1));
    }

    #[test]
    fn block_pattern_covers_structure() {
        let a = gen::grid2d_laplacian(6, 5);
        let sym = cholesky_symbolic(&a);
        let bp = BlockPattern::from_cholesky(&sym, BlockPartition::uniform(30, 4));
        // Every element of L falls in a present block.
        for j in 0..sym.n() {
            let bj = bp.part.block_of(j) as u32;
            for &r in &sym.l_cols[j] {
                let bi = bp.part.block_of(r as usize) as u32;
                assert!(bp.has(bi, bj), "L({r},{j}) not covered");
            }
        }
        // Diagonal blocks always present.
        for b in 0..bp.part.num_blocks() as u32 {
            assert!(bp.has(b, b));
        }
    }

    #[test]
    fn col_block_pattern_deps_are_earlier() {
        let a = gen::goodwin_like(80, 5, 2, 1);
        let lu = lu_static_symbolic(&a);
        let cp = ColBlockPattern::from_lu(&lu, BlockPartition::uniform(80, 8));
        assert_eq!(cp.nnz.iter().sum::<u64>(), lu.nnz() as u64);
        for (j, deps) in cp.deps.iter().enumerate() {
            for &k in deps {
                assert!((k as usize) < j);
            }
        }
        // A banded matrix couples adjacent blocks.
        assert!(cp.deps[1].contains(&0));
    }

    #[test]
    fn proc_grid_shapes() {
        assert_eq!((ProcGrid::new(4).rows, ProcGrid::new(4).cols), (2, 2));
        assert_eq!((ProcGrid::new(8).rows, ProcGrid::new(8).cols), (2, 4));
        assert_eq!((ProcGrid::new(16).rows, ProcGrid::new(16).cols), (4, 4));
        assert_eq!((ProcGrid::new(7).rows, ProcGrid::new(7).cols), (1, 7));
        let g = ProcGrid::new(6);
        // Owners span all processors.
        let mut seen = [false; 6];
        for i in 0..6u32 {
            for j in 0..6u32 {
                seen[g.owner(i, j) as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
