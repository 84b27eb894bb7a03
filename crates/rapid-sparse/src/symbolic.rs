//! Symbolic factorization.
//!
//! - [`etree`] — the elimination tree of an SPD pattern (Liu's algorithm
//!   with path compression),
//! - [`cholesky_symbolic`] — the full structure of the Cholesky factor
//!   `L` (per-column row indices, diagonal included),
//! - [`lu_static_symbolic`] — the *static* symbolic factorization the
//!   paper uses for LU with partial pivoting (ref. \[6\], Fu & Yang SC'96):
//!   an over-estimated structure containing the nonzeros of `L+U` for
//!   **any** sequence of partial pivots, obtained as the Cholesky
//!   structure of the `AᵀA` pattern (the George–Ng bound). The
//!   over-estimation is what makes the dependence structure static and
//!   schedulable at the inspector stage.

use crate::csc::SparseMatrix;

/// Elimination tree: `parent[j]` is `j`'s parent, or `u32::MAX` for roots.
pub fn etree(a: &SparseMatrix) -> Vec<u32> {
    assert_eq!(a.nrows, a.ncols);
    let n = a.ncols;
    const NONE: u32 = u32::MAX;
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n {
        for &ri in a.col_rows(j) {
            let mut i = ri as usize;
            // Climb from i to the root of its current subtree, compressing.
            while i < j {
                let next = ancestor[i];
                ancestor[i] = j as u32;
                if next == NONE {
                    parent[i] = j as u32;
                    break;
                }
                i = next as usize;
            }
        }
    }
    parent
}

/// Symbolic Cholesky factorization result.
#[derive(Clone, Debug)]
pub struct CholSymbolic {
    /// Elimination tree parents.
    pub parent: Vec<u32>,
    /// Per-column row structure of `L`, sorted, including the diagonal.
    pub l_cols: Vec<Vec<u32>>,
}

impl CholSymbolic {
    /// Total nonzeros of `L` (diagonal included).
    pub fn l_nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum()
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.l_cols.len()
    }
}

/// Compute the full structure of the Cholesky factor of (the lower
/// triangle of) `a`. `a` must have a symmetric pattern.
pub fn cholesky_symbolic(a: &SparseMatrix) -> CholSymbolic {
    let n = a.ncols;
    let parent = etree(a);
    // struct(L_j) = { rows of A_{*j} at or below j } ∪ ⋃_{child c} (struct(L_c) \ {c})
    // Computed with the classic marker-based union in topological (column)
    // order.
    let mut l_cols: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (j, &p) in parent.iter().enumerate() {
        if p != u32::MAX {
            children[p as usize].push(j as u32);
        }
    }
    let mut mark = vec![u32::MAX; n];
    for j in 0..n {
        let mut rows: Vec<u32> = Vec::new();
        mark[j] = j as u32;
        rows.push(j as u32);
        for &r in a.col_rows(j) {
            if r as usize > j && mark[r as usize] != j as u32 {
                mark[r as usize] = j as u32;
                rows.push(r);
            }
        }
        for &c in &children[j] {
            for &r in &l_cols[c as usize] {
                if r as usize > j && mark[r as usize] != j as u32 {
                    mark[r as usize] = j as u32;
                    rows.push(r);
                }
            }
        }
        rows.sort_unstable();
        l_cols[j] = rows;
    }
    CholSymbolic { parent, l_cols }
}

/// Static symbolic LU structure: per-column row indices of `L+U` (the
/// whole column, sorted, diagonal included), valid for any partial-pivot
/// sequence.
#[derive(Clone, Debug)]
pub struct LuSymbolic {
    /// Per-column row structure of `L+U`.
    pub cols: Vec<Vec<u32>>,
}

impl LuSymbolic {
    /// Total structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.cols.len()
    }
}

/// Compute the static (over-estimated) LU structure of `a` via the
/// George–Ng bound: the union, over columns, of the Cholesky structure of
/// the `AᵀA` pattern, mirrored to cover both the `L` and `U` parts.
pub fn lu_static_symbolic(a: &SparseMatrix) -> LuSymbolic {
    let chol = cholesky_symbolic(&ata_pattern(a));
    // Column j of L+U: U part = columns k < j with j ∈ struct(L_k) of the
    // AᵀA factor (row j appears in k's column => U(k,j) may be nonzero),
    // L part = struct(L_j) itself (`l_cols[j][0] == j`). Columns k ascending
    // put every U entry of column j (all < j), sorted, before its L part.
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); a.ncols];
    for (k, lk) in chol.l_cols.iter().enumerate() {
        cols[k].extend_from_slice(lk);
        for &r in &lk[1..] {
            cols[r as usize].push(k as u32);
        }
    }
    LuSymbolic { cols }
}

/// The pattern of `AᵀA` (values all 1): columns `c1`, `c2` are coupled
/// when some row holds nonzeros in both. Column `c` is the union of the
/// rows of `Aᵀ` that column `c` of `A` touches, gathered under a marker and
/// then sorted on its own.
fn ata_pattern(a: &SparseMatrix) -> SparseMatrix {
    assert_eq!(a.nrows, a.ncols);
    let n = a.ncols;
    let t = a.transpose();
    let mut mark = vec![u32::MAX; n];
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx: Vec<u32> = Vec::new();
    col_ptr.push(0);
    for c in 0..n {
        let start = row_idx.len();
        for &r in a.col_rows(c) {
            for &c2 in t.col_rows(r as usize) {
                if mark[c2 as usize] != c as u32 {
                    mark[c2 as usize] = c as u32;
                    row_idx.push(c2);
                }
            }
        }
        row_idx[start..].sort_unstable();
        col_ptr.push(row_idx.len());
    }
    let values = vec![1.0; row_idx.len()];
    SparseMatrix { nrows: n, ncols: n, col_ptr, row_idx, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Reference: dense symbolic Cholesky by elimination.
    #[allow(clippy::needless_range_loop)] // symmetric m[r][c]/m[c][r] writes
    fn dense_fill(a: &SparseMatrix) -> Vec<Vec<bool>> {
        let n = a.ncols;
        let mut m = vec![vec![false; n]; n];
        for c in 0..n {
            for &r in a.col_rows(c) {
                m[r as usize][c] = true;
                m[c][r as usize] = true;
            }
        }
        for k in 0..n {
            for i in k + 1..n {
                if m[i][k] {
                    for j in k + 1..n {
                        if m[j][k] {
                            m[i][j] = true;
                            m[j][i] = true;
                        }
                    }
                }
            }
        }
        m
    }

    #[test]
    fn etree_of_chain() {
        // Tridiagonal matrix: parent[j] = j+1.
        let n = 6;
        let mut t = Vec::new();
        for i in 0..n as u32 {
            t.push((i, i, 2.0));
            if i + 1 < n as u32 {
                t.push((i + 1, i, -1.0));
                t.push((i, i + 1, -1.0));
            }
        }
        let a = SparseMatrix::from_triplets(n, n, &t);
        let p = etree(&a);
        for (j, &pj) in p.iter().enumerate().take(n - 1) {
            assert_eq!(pj, j as u32 + 1);
        }
        assert_eq!(p[n - 1], u32::MAX);
    }

    #[test]
    fn symbolic_matches_dense_elimination() {
        let a = gen::grid2d_laplacian(5, 4);
        let sym = cholesky_symbolic(&a);
        let dense = dense_fill(&a);
        for (j, lcol) in sym.l_cols.iter().enumerate() {
            let expect: Vec<u32> =
                (j..a.ncols).filter(|&i| dense[i][j]).map(|i| i as u32).collect();
            assert_eq!(*lcol, expect, "column {j}");
        }
    }

    #[test]
    fn symbolic_includes_original_and_diag() {
        let a = gen::bcsstk_like(4, 3, 2, 1);
        let sym = cholesky_symbolic(&a);
        for j in 0..a.ncols {
            assert_eq!(sym.l_cols[j][0], j as u32, "diagonal present first");
            for &r in a.col_rows(j) {
                if r as usize >= j {
                    assert!(sym.l_cols[j].binary_search(&r).is_ok());
                }
            }
        }
        assert!(sym.l_nnz() >= a.nnz() / 2);
    }

    #[test]
    fn george_ng_structure_matches_dense_reference() {
        for (what, a) in gen::small_patterns() {
            let n = a.ncols;
            let has = |r: usize, c: usize| a.col_rows(c).binary_search(&(r as u32)).is_ok();
            // Dense AᵀA: columns i and j meet in some row.
            let mut t = Vec::new();
            for j in 0..n {
                for i in (0..n).filter(|&i| (0..n).any(|r| has(r, i) && has(r, j))) {
                    t.push((i as u32, j as u32, 1.0));
                }
            }
            let ata = SparseMatrix::from_triplets(n, n, &t);
            let built = ata_pattern(&a);
            assert_eq!((&built.col_ptr, &built.row_idx), (&ata.col_ptr, &ata.row_idx), "{what}");
            // Column j of L+U: the filled AᵀA pattern of column j, mirrored
            // above the diagonal, diagonal always present.
            let fill = dense_fill(&ata);
            let lu = lu_static_symbolic(&a);
            for (j, col) in lu.cols.iter().enumerate() {
                let expect: Vec<u32> =
                    (0..n).filter(|&i| i == j || fill[i][j]).map(|i| i as u32).collect();
                assert_eq!(*col, expect, "{what}: column {j}");
            }
        }
    }

    #[test]
    fn lu_static_contains_a_pattern() {
        let a = gen::goodwin_like(60, 4, 2, 3);
        let lu = lu_static_symbolic(&a);
        for c in 0..a.ncols {
            for &r in a.col_rows(c) {
                assert!(
                    lu.cols[c].binary_search(&r).is_ok(),
                    "A({r},{c}) missing from static structure"
                );
            }
            assert!(lu.cols[c].binary_search(&(c as u32)).is_ok());
        }
        // Over-estimation: at least as many entries as A.
        assert!(lu.nnz() >= a.nnz());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // dense elimination reference
    fn lu_static_is_pivot_safe_on_small_dense_check() {
        // For any row permutation P, struct(LU of PA) ⊆ static struct.
        // Exhaustively check a tiny matrix over a few permutations with
        // dense elimination.
        let a = SparseMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 4.0),
                (1, 0, 1.0),
                (1, 1, 5.0),
                (2, 2, 6.0),
                (3, 2, 1.0),
                (0, 3, 1.0),
                (3, 3, 7.0),
                (2, 1, 1.0),
            ],
        );
        let stat = lu_static_symbolic(&a);
        let perms: Vec<Vec<usize>> =
            vec![vec![0, 1, 2, 3], vec![1, 0, 3, 2], vec![3, 2, 1, 0], vec![2, 3, 0, 1]];
        for p in perms {
            // Dense LU pattern of PA without pivoting.
            let n = 4;
            let mut m = vec![vec![false; n]; n];
            for c in 0..n {
                for &r in a.col_rows(c) {
                    m[p.iter().position(|&x| x == r as usize).unwrap()][c] = true;
                }
            }
            for k in 0..n {
                for i in k + 1..n {
                    if m[i][k] {
                        for j in k + 1..n {
                            if m[k][j] {
                                m[i][j] = true;
                            }
                        }
                    }
                }
            }
            for (i, row) in m.iter().enumerate() {
                for (j, &nz) in row.iter().enumerate() {
                    if nz {
                        // Entry (i, j) of LU of PA corresponds to original
                        // row p[i].
                        assert!(
                            stat.cols[j].binary_search(&(p[i] as u32)).is_ok()
                                || stat.cols[j].binary_search(&(i as u32)).is_ok(),
                            "perm {p:?}: ({i},{j}) outside static structure"
                        );
                    }
                }
            }
        }
    }
}
