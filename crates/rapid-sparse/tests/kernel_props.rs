//! Randomized tests for the dense block kernels: factorizations must
//! reconstruct their inputs for arbitrary well-conditioned matrices. The
//! tiled-versus-straight-loop comparisons are unit tests in `kernels.rs`.
//!
//! Cases come from a deterministic xorshift64* generator — no external
//! property-testing dependency; a failure names its case index.

use rapid_sparse::kernels;

const CASES: u64 = 64;

/// xorshift64* — deterministic, dependency-free test-data generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }

    /// Uniform in `[-1, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn mat(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.f64()).collect()
    }
}

/// Column-major `m × k` times `k × n`.
fn matmul(a: &[f64], m: usize, k: usize, b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for j in 0..n {
        for p in 0..k {
            for i in 0..m {
                c[j * m + i] += a[p * m + i] * b[j * k + p];
            }
        }
    }
    c
}

fn transpose(a: &[f64], m: usize, n: usize) -> Vec<f64> {
    let mut t = vec![0.0; m * n];
    for j in 0..n {
        for i in 0..m {
            t[i * n + j] = a[j * m + i];
        }
    }
    t
}

/// potrf on G·Gᵀ + n·I recovers a factor whose product reproduces the
/// input to rounding.
#[test]
fn potrf_reconstructs() {
    for case in 0..CASES {
        let mut r = Rng::new(case);
        let n = r.range(2, 12);
        let g = r.mat(n * n);
        // SPD by construction.
        let mut a = matmul(&g, n, n, &transpose(&g, n, n), n);
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        let a0 = a.clone();
        kernels::potrf(&mut a, n).expect("SPD must factor");
        // Reconstruct L·Lᵀ over the full matrix.
        for j in 0..n {
            for i in 0..n {
                let mut v = 0.0;
                for p in 0..=i.min(j) {
                    v += a[p * n + i] * a[p * n + j];
                }
                assert!(
                    (v - a0[j * n + i]).abs() < 1e-9 * (n as f64 + 1.0),
                    "case {case} ({i},{j}): {v} vs {}",
                    a0[j * n + i]
                );
            }
        }
    }
}

/// getrf with partial pivoting reconstructs P·A = L·U for any
/// diagonally-boosted matrix.
#[test]
fn getrf_reconstructs() {
    for case in 0..CASES {
        let mut r = Rng::new(case ^ 0xdead);
        let n = r.range(2, 10);
        let mut a0 = r.mat(n * n);
        for i in 0..n {
            a0[i * n + i] += 3.0;
        }
        let mut a = a0.clone();
        let mut piv = vec![0u32; n];
        kernels::getrf(&mut a, n, n, &mut piv).expect("nonsingular");
        for &p in &piv {
            assert!((p as usize) < n, "case {case}");
        }
        // laswp swaps rows of the whole block.
        let mut pa = a0;
        kernels::laswp(&mut pa, n, n, &piv);
        for j in 0..n {
            for i in 0..n {
                let mut v = 0.0;
                for p in 0..=j.min(i) {
                    let l = if i == p { 1.0 } else { a[p * n + i] };
                    v += l * a[j * n + p];
                }
                assert!((v - pa[j * n + i]).abs() < 1e-8, "case {case} ({i},{j})");
            }
        }
    }
}

/// trsm_rlt inverts multiplication by Lᵀ from the right.
#[test]
fn trsm_rlt_inverts() {
    for case in 0..CASES {
        let mut r = Rng::new(case ^ 0xbeef);
        let n = r.range(2, 8);
        let m = r.range(1, 6);
        let g = r.mat(n * n);
        let mut l = matmul(&g, n, n, &transpose(&g, n, n), n);
        for i in 0..n {
            l[i * n + i] += n as f64;
        }
        kernels::potrf(&mut l, n).expect("SPD");
        // potrf leaves the strictly upper triangle untouched; zero it so
        // the reconstruction below uses the factor only.
        for j in 1..n {
            for i in 0..j {
                l[j * n + i] = 0.0;
            }
        }
        let x0: Vec<f64> = (0..m * n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = matmul(&x0, m, n, &transpose(&l, n, n), n);
        let mut x = b;
        kernels::trsm_rlt(&mut x, m, &l, n);
        for (got, want) in x.iter().zip(&x0) {
            assert!((got - want).abs() < 1e-8, "case {case}");
        }
    }
}

/// gemm_nt_sub is linear: applying it twice subtracts twice.
#[test]
fn gemm_accumulates_linearly() {
    for case in 0..CASES {
        let mut r = Rng::new(case ^ 0xf00d);
        let (m, n, k) = (r.range(1, 6), r.range(1, 6), r.range(1, 6));
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut c1 = vec![1.0; m * n];
        kernels::gemm_nt_sub(&mut c1, m, n, &a, &b, k);
        let mut c2 = vec![1.0; m * n];
        kernels::gemm_nt_sub(&mut c2, m, n, &a, &b, k);
        kernels::gemm_nt_sub(&mut c2, m, n, &a, &b, k);
        for (x1, x2) in c1.iter().zip(&c2) {
            // c2 = 1 - 2·A·Bᵀ; c1 = 1 - A·Bᵀ => c2 - c1 = c1 - 1.
            assert!(((x2 - x1) - (x1 - 1.0)).abs() < 1e-12, "case {case}");
        }
    }
}
