//! Compressed-sparse-column matrices.
//!
//! The minimal sparse kernel substrate the factorization pipeline needs:
//! construction from triplets, transposition, pattern symmetrization,
//! matrix-vector products, and dense extraction for reference solvers.

/// A sparse matrix in compressed-sparse-column form. Row indices within a
/// column are sorted and unique.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Column pointers, length `ncols + 1`.
    pub col_ptr: Vec<usize>,
    /// Row indices, length `nnz`.
    pub row_idx: Vec<u32>,
    /// Numeric values, length `nnz`.
    pub values: Vec<f64>,
}

impl SparseMatrix {
    /// Build from unordered `(row, col, value)` triplets; duplicate
    /// entries are summed.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(u32, u32, f64)]) -> SparseMatrix {
        let mut entries: Vec<(u32, u32, f64)> = triplets.to_vec();
        entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx: Vec<u32> = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut k = 0usize;
        for c in 0..ncols as u32 {
            while k < entries.len() && entries[k].1 == c {
                let (r, _, v) = entries[k];
                if let (Some(&lr), Some(lv)) = (row_idx.last(), values.last_mut()) {
                    if lr == r && row_idx.len() > col_ptr[c as usize] {
                        *lv += v;
                        k += 1;
                        continue;
                    }
                }
                row_idx.push(r);
                values.push(v);
                k += 1;
            }
            col_ptr[c as usize + 1] = row_idx.len();
        }
        SparseMatrix { nrows, ncols, col_ptr, row_idx, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Row indices of column `c`.
    pub fn col_rows(&self, c: usize) -> &[u32] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Values of column `c`.
    pub fn col_values(&self, c: usize) -> &[f64] {
        &self.values[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// The stored value at `(r, c)`, or 0.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let rows = self.col_rows(c);
        match rows.binary_search(&(r as u32)) {
            Ok(i) => self.col_values(c)[i],
            Err(_) => 0.0,
        }
    }

    /// Transpose, by a counting sort on the row index: columns are visited
    /// in order, so every column of the result comes out sorted.
    pub fn transpose(&self) -> SparseMatrix {
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            col_ptr[r as usize + 1] += 1;
        }
        for r in 0..self.nrows {
            col_ptr[r + 1] += col_ptr[r];
        }
        let mut next = col_ptr.clone();
        let (mut row_idx, mut values) = (vec![0u32; self.nnz()], vec![0.0; self.nnz()]);
        for c in 0..self.ncols {
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                let slot = &mut next[r as usize];
                (row_idx[*slot], values[*slot]) = (c as u32, v);
                *slot += 1;
            }
        }
        SparseMatrix { nrows: self.ncols, ncols: self.nrows, col_ptr, row_idx, values }
    }

    /// Pattern-symmetrized matrix `A + Aᵀ` (values summed; used before
    /// symmetric orderings of unsymmetric matrices).
    pub fn symmetrized(&self) -> SparseMatrix {
        assert_eq!(self.nrows, self.ncols);
        let mut triplets = Vec::with_capacity(2 * self.nnz());
        for c in 0..self.ncols {
            for (i, &r) in self.col_rows(c).iter().enumerate() {
                let v = self.col_values(c)[i];
                triplets.push((r, c as u32, v));
                if r as usize != c {
                    triplets.push((c as u32, r, v));
                }
            }
        }
        SparseMatrix::from_triplets(self.nrows, self.ncols, &triplets)
    }

    /// Is the nonzero pattern symmetric?
    pub fn pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.col_ptr == t.col_ptr && self.row_idx == t.row_idx
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for (c, &xc) in x.iter().enumerate() {
            for (i, &r) in self.col_rows(c).iter().enumerate() {
                y[r as usize] += self.col_values(c)[i] * xc;
            }
        }
        y
    }

    /// Apply a symmetric permutation: returns `P A Pᵀ` where row/col `i`
    /// of the result is row/col `perm[i]` of `self`.
    pub fn permute_sym(&self, perm: &[u32]) -> SparseMatrix {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.ncols);
        let mut inv = vec![0u32; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        let mut triplets = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols {
            for (i, &r) in self.col_rows(c).iter().enumerate() {
                triplets.push((inv[r as usize], inv[c], self.col_values(c)[i]));
            }
        }
        SparseMatrix::from_triplets(self.nrows, self.ncols, &triplets)
    }

    /// Dense column-major copy (reference solvers; small matrices only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for c in 0..self.ncols {
            for (i, &r) in self.col_rows(c).iter().enumerate() {
                d[c * self.nrows + r as usize] = self.col_values(c)[i];
            }
        }
        d
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (2, 0, 4.0), (1, 1, 3.0), (0, 2, 2.0), (2, 2, 5.0)],
        )
    }

    #[test]
    fn construction_and_access() {
        let a = small();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.col_rows(2), &[0, 2]);
    }

    #[test]
    fn duplicates_sum() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 0), 3.5);
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn symmetrize_makes_pattern_symmetric() {
        // Drop the (2,0) entry of `small()` so the pattern is genuinely
        // unsymmetric: (0,2) present, (2,0) absent.
        let a = SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (1, 1, 3.0), (0, 2, 2.0), (2, 2, 5.0)],
        );
        assert!(!a.pattern_symmetric());
        let s = a.symmetrized();
        assert!(s.pattern_symmetric());
        assert_eq!(s.get(0, 2), 2.0);
        assert_eq!(s.get(2, 0), 2.0);
        // Values on symmetric positions sum.
        let b = small();
        assert!(b.pattern_symmetric(), "pattern of small() is symmetric");
        let sb = b.symmetrized();
        assert_eq!(sb.get(0, 2), 2.0 + 4.0);
        assert_eq!(sb.get(2, 0), 2.0 + 4.0);
    }

    #[test]
    fn permute_sym_roundtrip() {
        let a = small().symmetrized();
        let perm = [2u32, 0, 1];
        let p = a.permute_sym(&perm);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(p.get(i, j), a.get(perm[i] as usize, perm[j] as usize));
            }
        }
    }

    #[test]
    fn dense_extraction() {
        let a = small();
        let d = a.to_dense();
        assert_eq!(d[0], 1.0);
        assert_eq!(d[2], 4.0); // col 0, row 2
        assert_eq!(d[2 * 3], 2.0); // col 2, row 0
    }
}
