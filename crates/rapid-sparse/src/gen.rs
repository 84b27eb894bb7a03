//! Synthetic test-matrix generators.
//!
//! The paper evaluates on Harwell-Boeing matrices that are not shipped
//! with this repository: BCSSTK15 (n=3948), BCSSTK24 (n=3562) and BCSSTK33
//! (n=8738) from structural-engineering analysis, and GOODWIN (n=7320)
//! from a fluid-mechanics problem. The generators here produce matrices of
//! the same class and size (see DESIGN.md, substitution table):
//!
//! - [`bcsstk_like`] — a 2-D finite-element grid stencil with several
//!   degrees of freedom per node: symmetric positive definite with the
//!   banded-plus-blocky structure of the BCSSTK family;
//! - [`goodwin_like`] — an unsymmetric banded matrix with scattered
//!   off-band entries and a strong diagonal, like the GOODWIN fluid
//!   mechanics matrix;
//! - plain [`grid2d_laplacian`] / [`grid3d_laplacian`] stencils for unit
//!   tests and benches.
//!
//! All generators are deterministic in their seed.

use crate::csc::SparseMatrix;
use rapid_core::fixtures::SplitMix64;

/// 5-point Laplacian on an `nx × ny` grid: SPD, n = nx·ny.
pub fn grid2d_laplacian(nx: usize, ny: usize) -> SparseMatrix {
    let n = nx * ny;
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    let mut t = Vec::with_capacity(5 * n);
    for y in 0..ny {
        for x in 0..nx {
            let c = idx(x, y);
            t.push((c, c, 4.0));
            if x > 0 {
                t.push((idx(x - 1, y), c, -1.0));
            }
            if x + 1 < nx {
                t.push((idx(x + 1, y), c, -1.0));
            }
            if y > 0 {
                t.push((idx(x, y - 1), c, -1.0));
            }
            if y + 1 < ny {
                t.push((idx(x, y + 1), c, -1.0));
            }
        }
    }
    SparseMatrix::from_triplets(n, n, &t)
}

/// 7-point Laplacian on an `nx × ny × nz` grid.
pub fn grid3d_laplacian(nx: usize, ny: usize, nz: usize) -> SparseMatrix {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny * nx + y * nx + x) as u32;
    let mut t = Vec::with_capacity(7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let c = idx(x, y, z);
                t.push((c, c, 6.0));
                let mut nb = |r: u32| t.push((r, c, -1.0));
                if x > 0 {
                    nb(idx(x - 1, y, z));
                }
                if x + 1 < nx {
                    nb(idx(x + 1, y, z));
                }
                if y > 0 {
                    nb(idx(x, y - 1, z));
                }
                if y + 1 < ny {
                    nb(idx(x, y + 1, z));
                }
                if z > 0 {
                    nb(idx(x, y, z - 1));
                }
                if z + 1 < nz {
                    nb(idx(x, y, z + 1));
                }
            }
        }
    }
    SparseMatrix::from_triplets(n, n, &t)
}

/// A BCSSTK-like structural-engineering matrix: a 2-D FEM grid with
/// `dofs` degrees of freedom per node (the BCSSTK family stores stiffness
/// matrices with 3–6 dofs per node). The result is SPD with
/// `n = nx · ny · dofs`, diagonally dominant, and has dense `dofs × dofs`
/// coupling blocks along a 9-point neighbourhood — the same elimination
/// structure class as the paper's test matrices.
pub fn bcsstk_like(nx: usize, ny: usize, dofs: usize, seed: u64) -> SparseMatrix {
    let mut rng = SplitMix64(seed ^ 0xBC55_7515);
    let nodes = nx * ny;
    let n = nodes * dofs;
    let node = |x: usize, y: usize| y * nx + x;
    let mut t: Vec<(u32, u32, f64)> = Vec::new();
    let couple = |a: usize, b: usize, t: &mut Vec<(u32, u32, f64)>, rng: &mut SplitMix64| {
        // Dense dofs x dofs coupling block between nodes a and b.
        for i in 0..dofs {
            for j in 0..dofs {
                let v = -0.25 - 0.5 * rng.unit_f64();
                let (r, c) = ((a * dofs + i) as u32, (b * dofs + j) as u32);
                t.push((r, c, v));
                t.push((c, r, v));
            }
        }
    };
    for y in 0..ny {
        for x in 0..nx {
            let a = node(x, y);
            // 9-point neighbourhood, upper neighbours only (symmetrized).
            if x + 1 < nx {
                couple(a, node(x + 1, y), &mut t, &mut rng);
            }
            if y + 1 < ny {
                couple(a, node(x, y + 1), &mut t, &mut rng);
                if x + 1 < nx {
                    couple(a, node(x + 1, y + 1), &mut t, &mut rng);
                }
                if x > 0 {
                    couple(a, node(x - 1, y + 1), &mut t, &mut rng);
                }
            }
            // Intra-node block (symmetric part).
            for i in 0..dofs {
                for j in i + 1..dofs {
                    let v = 0.1 * rng.unit_f64();
                    let (r, c) = ((a * dofs + i) as u32, (a * dofs + j) as u32);
                    t.push((r, c, v));
                    t.push((c, r, v));
                }
            }
        }
    }
    // Strong diagonal for positive definiteness: row-sum dominance.
    let mut rowsum = vec![0.0f64; n];
    for &(r, _, v) in &t {
        rowsum[r as usize] += v.abs();
    }
    for (r, s) in rowsum.iter().enumerate() {
        t.push((r as u32, r as u32, s + 1.0));
    }
    SparseMatrix::from_triplets(n, n, &t)
}

/// A GOODWIN-like unsymmetric fluid-mechanics matrix: strong diagonal,
/// dense-ish band of half-width `band`, plus `scatter` random off-band
/// entries per column drawn from a *bounded* window (within `8·band` of
/// the diagonal — GOODWIN's couplings are irregular but localized;
/// unbounded scatter would make the static symbolic `AᵀA` fill dense).
/// Unsymmetric both in pattern and values.
pub fn goodwin_like(n: usize, band: usize, scatter: usize, seed: u64) -> SparseMatrix {
    let mut rng = SplitMix64(seed ^ 0x600D_817D);
    let mut t: Vec<(u32, u32, f64)> = Vec::with_capacity(n * (band + scatter + 1));
    let window = 8 * band;
    for c in 0..n {
        t.push((c as u32, c as u32, 10.0 + rng.unit_f64()));
        // Banded entries with ~60% fill inside the band, unsymmetric.
        let lo = c.saturating_sub(band);
        let hi = (c + band + 1).min(n);
        for r in lo..hi {
            if r != c && rng.unit_f64() < 0.6 {
                t.push((r as u32, c as u32, rng.unit_f64() - 0.5));
            }
        }
        for _ in 0..scatter {
            let wlo = c.saturating_sub(window);
            let whi = (c + window + 1).min(n);
            let r = wlo as u64 + rng.below((whi - wlo) as u64);
            if r as usize != c {
                t.push((r as u32, c as u32, 0.5 * (rng.unit_f64() - 0.5)));
            }
        }
    }
    SparseMatrix::from_triplets(n, n, &t)
}

#[cfg(test)]
/// 229 small seeded patterns for the ordering and symbolic oracles: FEM
/// grids, unsymmetric banded matrices, and sparse random patterns that
/// leave empty columns, missing diagonals and several components. Two 3-D
/// grids and two larger FEM grids are there for minimum degree's
/// supervariables: they merge mid-elimination, lose one member at a time
/// and see their elements absorbed.
pub(crate) fn small_patterns() -> Vec<(String, SparseMatrix)> {
    let mut out = Vec::new();
    for (nx, ny) in (1..=7).flat_map(|x| (1..=7).map(move |y| (x, y))) {
        out.push((format!("grid2d_laplacian({nx}, {ny})"), grid2d_laplacian(nx, ny)));
    }
    for (nx, ny, nz) in [(3, 3, 3), (4, 3, 2)] {
        out.push((format!("grid3d_laplacian({nx}, {ny}, {nz})"), grid3d_laplacian(nx, ny, nz)));
    }
    let fem = (1..=4).flat_map(|x| (1..=3).flat_map(move |y| (1..=3).map(move |d| (x, y, d))));
    for (nx, ny, d) in fem.chain([(5, 4, 3), (4, 4, 2)]) {
        out.push((format!("bcsstk_like({nx}, {ny}, {d}, 1997)"), bcsstk_like(nx, ny, d, 1997)));
    }
    for seed in 0..60u64 {
        let (n, band, scatter) = (1 + seed as usize % 40, 1 + seed as usize % 3, seed as usize % 3);
        let what = format!("goodwin_like({n}, {band}, {scatter}, {seed})");
        out.push((what, goodwin_like(n, band, scatter, seed)));
    }
    for seed in 0..80u64 {
        let mut rng = SplitMix64(seed);
        let n = rng.below(33) as usize;
        let nnz = if n == 0 { 0 } else { rng.below(2 * n as u64 + 1) as usize };
        let t: Vec<(u32, u32, f64)> = (0..nnz)
            .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32, 1.0))
            .collect();
        out.push((
            format!("random({seed}): n = {n}, {nnz} entries"),
            SparseMatrix::from_triplets(n, n, &t),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_shape() {
        let a = grid2d_laplacian(4, 3);
        assert_eq!(a.nrows, 12);
        assert!(a.pattern_symmetric());
        // Interior node has 5 entries, corner 3.
        assert_eq!(a.col_rows(0).len(), 3);
        assert_eq!(a.col_rows(5).len(), 5);
        assert_eq!(a.get(5, 5), 4.0);
    }

    #[test]
    fn grid3d_shape() {
        let a = grid3d_laplacian(3, 3, 3);
        assert_eq!(a.nrows, 27);
        assert!(a.pattern_symmetric());
        // Center node (1,1,1) has 7 entries.
        assert_eq!(a.col_rows(13).len(), 7);
    }

    #[test]
    fn bcsstk_like_is_spd_shaped() {
        let a = bcsstk_like(5, 4, 3, 7);
        assert_eq!(a.nrows, 60);
        assert!(a.pattern_symmetric());
        // Diagonal dominance (sufficient for positive definiteness here).
        for c in 0..a.ncols {
            let diag = a.get(c, c);
            let off: f64 = a
                .col_rows(c)
                .iter()
                .zip(a.col_values(c))
                .filter(|&(&r, _)| r as usize != c)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "column {c}: diag {diag} <= off {off}");
        }
        // Values are symmetric too.
        for c in 0..a.ncols {
            for (&r, &v) in a.col_rows(c).iter().zip(a.col_values(c)) {
                assert_eq!(a.get(c, r as usize), v);
            }
        }
    }

    #[test]
    fn goodwin_like_is_unsymmetric() {
        let a = goodwin_like(200, 8, 2, 3);
        assert_eq!(a.nrows, 200);
        assert!(!a.pattern_symmetric());
        for c in 0..a.ncols {
            assert!(a.get(c, c) >= 10.0);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(bcsstk_like(4, 4, 2, 11), bcsstk_like(4, 4, 2, 11));
        assert_eq!(goodwin_like(50, 4, 1, 9), goodwin_like(50, 4, 1, 9));
        assert_ne!(goodwin_like(50, 4, 1, 9).values, goodwin_like(50, 4, 1, 10).values);
    }
}
