//! Dense block kernels — the BLAS-3 substitutes the factorizations run on
//! column-major blocks.
//!
//! All kernels operate on column-major storage: entry `(i, j)` of an
//! `m × n` block lives at `j * m + i`. The GEMM-shaped kernels
//! ([`gemm_nt_sub`], [`gemm_nn_sub`]) and the blocked factorizations
//! ([`potrf_blocked`], [`getrf_blocked`]) run their O(n³) work in one
//! register-tiled engine; [`potrf_unblocked`] and [`getrf_unblocked`] are
//! the small-size dispatch. Straight-loop GEMMs and the straight-loop
//! [`trsm_rlt`] exist only as the unit tests' oracles.
//!
//! Both GEMM shapes funnel into the engine, which reads `B` in the
//! transposed (`gemm_nt`) layout: [`gemm_nn_sub`] pre-transposes its `B`
//! panel into a scratch buffer once per call, so the tiles always stream
//! both operands at unit stride. The engine cuts `C` into 4-column
//! strips and sweeps each strip's full rows with the widest tile the host
//! runs, then the narrower ones:
//!
//! 1. with the `simd` feature (on by default) on an x86-64 host with AVX2
//!    and FMA at run time: a 24 × 4 tile of twelve AVX-512F accumulators
//!    where `avx512f` is detected — twelve independent FMA chains cover
//!    the FMA latency, which four do not — then a 4 × 4 AVX2 tile for the
//!    rows left (all of them without AVX-512F). Both are one macro body
//!    over the vector type and its intrinsics;
//! 2. everywhere else, a scalar 4 × 4 tile of sixteen accumulators;
//! 3. the ragged edges (rows past the last full tile, columns past the
//!    last full strip) in scalar loops.
//!
//! Which tile covers a row never changes a bit: every full-tile element
//! starts at zero, accumulates `fma(A(i, p), B(p, j), acc)` over `p` in
//! order (`acc + A(i, p)·B(p, j)` on the scalar tiles) and is subtracted
//! from `C` once. So results depend on the host only through whether its
//! tiles fuse; the unit tests pin each path to an element-wise oracle
//! with `to_bits` equality.
//!
//! [`trsm_rlt`] updates a column at a time with unit-stride axpys; each
//! element still sees the straight per-element loop's multiplies,
//! subtracts and divide in that loop's order, so it too is bit for bit.

/// Rows/columns of the register micro-kernel tile.
const MR: usize = 4;
/// Column-panel width of the blocked factorizations.
const NB: usize = 32;

/// In-place Cholesky factorization of the lower triangle of a dense
/// `n × n` SPD block: `A = L·Lᵀ`, `L` replaces the lower triangle (the
/// strictly upper part is left untouched). Returns `Err(k)` if the
/// `k`-th pivot is not positive.
///
/// Dispatches on size: up to `2·NB` columns the straight-loop
/// [`potrf_unblocked`] is at least as fast (the whole factor fits in
/// cache and the panel bookkeeping buys nothing), so narrow problems
/// take it directly; larger ones go through [`potrf_blocked`].
pub fn potrf(a: &mut [f64], n: usize) -> Result<(), usize> {
    if n <= 2 * NB {
        return potrf_unblocked(a, n);
    }
    potrf_blocked(a, n)
}

/// Blocked right-looking Cholesky (same contract as [`potrf`], no size
/// dispatch): factor a column panel of width `NB` over its full
/// height, then apply the panel's rank-`nb` SYRK update to the trailing
/// lower triangle through the register-tiled micro-kernel. Identical
/// arithmetic graph to [`potrf_unblocked`] up to summation order.
pub fn potrf_blocked(a: &mut [f64], n: usize) -> Result<(), usize> {
    potrf_blocked_by(a, n, gemm_bt_tiles)
}

/// The signature of [`gemm_bt_tiles`]; the unit tests hand its oracle to
/// [`potrf_blocked_by`].
type TileEngine =
    fn(&mut [f64], usize, usize, usize, usize, &[f64], usize, usize, &[f64], usize, usize);

/// [`potrf_blocked`] with its SYRK strips run by `tiles`.
fn potrf_blocked_by(a: &mut [f64], n: usize, tiles: TileEngine) -> Result<(), usize> {
    debug_assert!(a.len() >= n * n);
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + NB).min(n);
        // Factor columns k0..k1 over their full height (diagonal block
        // factorization fused with the panel triangular solve; dot
        // products only span the current panel because earlier panels
        // already applied their trailing updates).
        for k in k0..k1 {
            let mut d = a[k * n + k];
            for p in k0..k {
                let l = a[p * n + k];
                d -= l * l;
            }
            if d <= 0.0 {
                return Err(k);
            }
            let d = d.sqrt();
            a[k * n + k] = d;
            for i in k + 1..n {
                let mut v = a[k * n + i];
                for p in k0..k {
                    v -= a[p * n + i] * a[p * n + k];
                }
                a[k * n + i] = v / d;
            }
        }
        syrk_ln_sub(a, n, k0, k1, tiles);
        k0 = k1;
    }
    Ok(())
}

/// Trailing SYRK of the blocked Cholesky: the lower triangle of
/// `A[k1.., k1..]` loses `P·Pᵀ`, where `P` is the factored panel
/// `A[k1.., k0..k1]` (full `n`-row stride). The strips below each
/// diagonal wedge go through the shared tile engine (the `A = B` SYRK
/// case of [`gemm_nt_sub`]); the wedge itself stays scalar.
fn syrk_ln_sub(a: &mut [f64], n: usize, k0: usize, k1: usize, tiles: TileEngine) {
    let mut j = k1;
    while j < n {
        let jn = (j + MR).min(n);
        // Diagonal wedge (tile crossing the diagonal): scalar loops.
        for c in j..jn {
            for i in c..jn {
                let mut v = a[c * n + i];
                for p in k0..k1 {
                    v -= a[p * n + i] * a[p * n + c];
                }
                a[c * n + i] = v;
            }
        }
        // Strips below the wedge: columns j..jn, rows jn..n. The panel
        // (columns < k1) is read-only and the strip lives in columns
        // ≥ k1, so splitting at column k1 separates the borrows.
        if jn < n {
            let (panel, trail) = a.split_at_mut(k1 * n);
            tiles(
                &mut trail[(j - k1) * n..],
                n,
                jn,
                n - jn,
                jn - j,
                &panel[k0 * n..],
                n,
                jn,
                &panel[k0 * n + j..],
                n,
                k1 - k0,
            );
        }
        j = jn;
    }
}

/// Straight-loop reference Cholesky (same contract as [`potrf`]).
pub fn potrf_unblocked(a: &mut [f64], n: usize) -> Result<(), usize> {
    debug_assert!(a.len() >= n * n);
    for k in 0..n {
        let mut d = a[k * n + k];
        for p in 0..k {
            let l = a[p * n + k];
            d -= l * l;
        }
        if d <= 0.0 {
            return Err(k);
        }
        let d = d.sqrt();
        a[k * n + k] = d;
        for i in k + 1..n {
            let mut v = a[k * n + i];
            for p in 0..k {
                v -= a[p * n + i] * a[p * n + k];
            }
            a[k * n + i] = v / d;
        }
    }
    Ok(())
}

/// Triangular solve `B := B · L⁻ᵀ` where `L` is the lower triangle of the
/// `n × n` block `l` and `B` is `m × n` (the Cholesky panel scaling).
///
/// Column `j` loses `B[:, p] · L(j, p)` for each `p < j` as a unit-stride
/// axpy, then is divided by `L(j, j)`: every element sees the multiplies,
/// subtracts and divide of the straight per-element loop in the same
/// order, so the result is bit for bit that loop's.
pub fn trsm_rlt(b: &mut [f64], m: usize, l: &[f64], n: usize) {
    debug_assert!(b.len() >= m * n && l.len() >= n * n);
    for j in 0..n {
        let (done, rest) = b.split_at_mut(j * m);
        let col = &mut rest[..m];
        for p in 0..j {
            let lv = l[p * n + j];
            for (x, &y) in col.iter_mut().zip(&done[p * m..p * m + m]) {
                *x -= y * lv;
            }
        }
        let d = l[j * n + j];
        for x in col.iter_mut() {
            *x /= d;
        }
    }
}

/// The straight per-element loop [`trsm_rlt`] must equal bit for bit.
#[cfg(test)]
fn trsm_rlt_naive(b: &mut [f64], m: usize, l: &[f64], n: usize) {
    for j in 0..n {
        let d = l[j * n + j];
        for i in 0..m {
            let mut v = b[j * m + i];
            for p in 0..j {
                v -= b[p * m + i] * l[p * n + j];
            }
            b[j * m + i] = v / d;
        }
    }
}

/// `C := C - A · Bᵀ` with `A` `m × k` and `B` `n × k`, `C` `m × n` (the
/// Cholesky trailing update; `A = B` gives the SYRK case).
///
/// Register-tiled: full tiles of `C` accumulate their inner product over
/// `k` in registers before a single subtract pass; ragged edges fall back
/// to the reference loops (see the module docs for the tiles).
pub fn gemm_nt_sub(c: &mut [f64], m: usize, n: usize, a: &[f64], b: &[f64], k: usize) {
    debug_assert!(c.len() >= m * n && a.len() >= m * k && b.len() >= n * k);
    gemm_bt_tiles(c, m, 0, m, n, a, m, 0, b, n, k);
}

/// The shared tile engine: `C[row0.., ..] -= A[arow0.., ..] · Bᵀ` over
/// `m × n` output entries summing `k` products, where `C` columns have
/// stride `cm`, `A` columns stride `am`, and `B` is stored transposed
/// (entry `(j, p)` of `Bᵀ`, i.e. `B(p, j)`, at `p * bn + j` — the
/// [`gemm_nt_sub`] operand layout). The full `MR`-column strips take the
/// widest vector tiles the host runs, then the 4 × 4 one; without them,
/// and on the ragged edges, everything is scalar (module docs).
#[allow(clippy::too_many_arguments)]
fn gemm_bt_tiles(
    c: &mut [f64],
    cm: usize,
    row0: usize,
    m: usize,
    n: usize,
    a: &[f64],
    am: usize,
    arow0: usize,
    b: &[f64],
    bn: usize,
    k: usize,
) {
    let mfull = m - m % MR;
    let nfull = n - n % MR;
    let vectored = fused_tiles();
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if vectored {
        // The sweeps index through raw pointers: their highest indices.
        assert!(
            mfull == 0
                || nfull == 0
                || (c.len() >= (nfull - 1) * cm + row0 + mfull
                    && (k == 0
                        || (a.len() >= (k - 1) * am + arow0 + mfull
                            && b.len() >= (k - 1) * bn + nfull))),
            "tile engine operands shorter than their extents"
        );
        // SAFETY: AVX2 and FMA (and AVX-512F for the zmm sweep) were just
        // verified present, and the assert above bounds every index of the
        // `mfull × nfull` block, inside which each sweep stays.
        unsafe {
            let wide = if is_x86_feature_detected!("avx512f") {
                tiles_zmm3(c, cm, row0, 0, mfull, nfull, a, am, arow0, b, bn, k)
            } else {
                0
            };
            tiles_ymm1(c, cm, row0, wide, mfull, nfull, a, am, arow0, b, bn, k);
        }
    }
    if !vectored {
        for j0 in (0..nfull).step_by(MR) {
            for i0 in (0..mfull).step_by(MR) {
                let mut acc = [[0.0f64; MR]; MR];
                for p in 0..k {
                    let ab = p * am + arow0 + i0;
                    let ac = &a[ab..ab + MR];
                    let bc = &b[p * bn + j0..p * bn + j0 + MR];
                    for (accj, &bv) in acc.iter_mut().zip(bc.iter()) {
                        for (s, &av) in accj.iter_mut().zip(ac.iter()) {
                            *s += av * bv;
                        }
                    }
                }
                for (jj, accj) in acc.iter().enumerate() {
                    let base = (j0 + jj) * cm + row0 + i0;
                    let col = &mut c[base..base + MR];
                    for (ci, &s) in col.iter_mut().zip(accj.iter()) {
                        *ci -= s;
                    }
                }
            }
        }
    }
    // Leftover rows under the full column tiles.
    if mfull < m {
        for j in 0..nfull {
            for p in 0..k {
                let bv = b[p * bn + j];
                if bv == 0.0 {
                    continue;
                }
                for i in mfull..m {
                    c[j * cm + row0 + i] -= a[p * am + arow0 + i] * bv;
                }
            }
        }
    }
    // Leftover columns: reference loops over the ragged right edge.
    for j in nfull..n {
        for p in 0..k {
            let bv = b[p * bn + j];
            if bv == 0.0 {
                continue;
            }
            for i in 0..m {
                c[j * cm + row0 + i] -= a[p * am + arow0 + i] * bv;
            }
        }
    }
}

/// Whether [`gemm_bt_tiles`] runs its full tiles on the fused vector
/// sweeps: the `simd` feature on an x86-64 host with AVX2 and FMA.
fn fused_tiles() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Generates one full-tile sweep of [`gemm_bt_tiles`]: each tile is `$r`
/// vectors of `$lanes` rows by `MR` columns, i.e. `$r · MR` accumulators,
/// each `$fmadd(A(i, p), B(p, j), acc)` over `p` in order from zero and
/// then subtracted from `C` once — the same operation sequence per element
/// for every instance, so which tile covers a row never changes its bits.
macro_rules! tile_sweep {
    ($name:ident, $feat:literal, $r:literal, $lanes:literal, $zero:ident, $load:ident,
     $store:ident, $set1:ident, $fmadd:ident, $sub:ident) => {
        /// Sweeps the rows `lo..` of the `mfull × nfull` block with whole
        /// tiles and returns the end of the rows covered.
        ///
        /// # Safety
        /// The caller must have verified the target features at run time,
        /// and the operands must hold every index of the block (`mfull` /
        /// `nfull` are multiples of [`MR`] not exceeding the extents).
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            c: &mut [f64],
            cm: usize,
            row0: usize,
            lo: usize,
            mfull: usize,
            nfull: usize,
            a: &[f64],
            am: usize,
            arow0: usize,
            b: &[f64],
            bn: usize,
            k: usize,
        ) -> usize {
            use std::arch::x86_64::*;
            const ROWS: usize = $r * $lanes;
            let hi = lo + (mfull - lo) / ROWS * ROWS;
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            for j0 in (0..nfull).step_by(MR) {
                for i0 in (lo..hi).step_by(ROWS) {
                    // SAFETY: caller contract — the tile lies inside the
                    // `mfull × nfull` block, so every `add` stays inside its
                    // slice for the unaligned loads/stores.
                    unsafe {
                        let mut acc = [[$zero(); $r]; MR];
                        for p in 0..k {
                            let ar = ap.add(p * am + arow0 + i0);
                            let mut av = [$zero(); $r];
                            for (v, x) in av.iter_mut().enumerate() {
                                *x = $load(ar.add(v * $lanes));
                            }
                            let br = bp.add(p * bn + j0);
                            for (jj, accj) in acc.iter_mut().enumerate() {
                                let bv = $set1(*br.add(jj));
                                for (s, &x) in accj.iter_mut().zip(av.iter()) {
                                    *s = $fmadd(x, bv, *s);
                                }
                            }
                        }
                        for (jj, accj) in acc.iter().enumerate() {
                            let cc = cp.add((j0 + jj) * cm + row0 + i0);
                            for (v, &s) in accj.iter().enumerate() {
                                let cv = cc.add(v * $lanes);
                                $store(cv, $sub($load(cv), s));
                            }
                        }
                    }
                }
            }
            hi
        }
    };
}

// Name, target features, vectors per column, lanes, intrinsics.
tile_sweep! { tiles_zmm3, "avx512f", 3, 8, _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd,
_mm512_set1_pd, _mm512_fmadd_pd, _mm512_sub_pd }
tile_sweep! { tiles_ymm1, "avx2,fma", 1, 4, _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd,
_mm256_set1_pd, _mm256_fmadd_pd, _mm256_sub_pd }

/// Straight-loop reference for [`gemm_nt_sub`] (same contract).
#[cfg(test)]
fn gemm_nt_sub_naive(c: &mut [f64], m: usize, n: usize, a: &[f64], b: &[f64], k: usize) {
    debug_assert!(c.len() >= m * n && a.len() >= m * k && b.len() >= n * k);
    for j in 0..n {
        for p in 0..k {
            let bv = b[p * n + j];
            if bv == 0.0 {
                continue;
            }
            let col = &mut c[j * m..j * m + m];
            let acol = &a[p * m..p * m + m];
            for i in 0..m {
                col[i] -= acol[i] * bv;
            }
        }
    }
}

/// In-place LU factorization with partial pivoting of an `m × n` panel
/// (`m ≥ n`): `P·A = L·U` with unit lower-triangular `L` below the
/// diagonal and `U` on/above it. `piv[j]` records the row swapped into
/// position `j`. Returns `Err(j)` on a zero pivot column.
///
/// Dispatches on size: the reference loops are pure unit-stride AXPY
/// streams, so on baseline SIMD codegen the blocked path's packing and
/// deferred-swap overhead only pays off once the trailing matrix falls
/// out of cache — below `16·NB` columns [`getrf_unblocked`] is taken
/// directly, above it [`getrf_blocked`].
pub fn getrf(a: &mut [f64], m: usize, n: usize, piv: &mut [u32]) -> Result<(), usize> {
    if n <= 16 * NB {
        return getrf_unblocked(a, m, n, piv);
    }
    getrf_blocked(a, m, n, piv)
}

/// Blocked right-looking LU (same contract as [`getrf`], no size
/// dispatch), with `NB`-wide column panels: the panel is factored with
/// the reference loops (pivot swaps deferred for the columns outside
/// it), the `U` block solves against the panel's unit-lower triangle,
/// and the trailing update packs the panel and `U` block into contiguous
/// scratch and runs the register-tiled [`gemm_nn_sub`].
pub fn getrf_blocked(a: &mut [f64], m: usize, n: usize, piv: &mut [u32]) -> Result<(), usize> {
    debug_assert!(a.len() >= m * n && piv.len() >= n && m >= n);
    // Packed copies of the panel's sub-diagonal block (L) and of the U
    // block for the trailing GEMM — packing both sidesteps the aliasing
    // of reading and writing `a` and gives the micro-kernel unit-stride
    // contiguous operands.
    let mut lpack: Vec<f64> = Vec::new();
    let mut upack: Vec<f64> = Vec::new();
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NB).min(n);
        let jb = j1 - j0;
        // Factor the panel a[j0..m, j0..j1]; swaps stay inside the panel.
        for j in j0..j1 {
            let (mut best, mut bestv) = (j, a[j * m + j].abs());
            for i in j + 1..m {
                let v = a[j * m + i].abs();
                if v > bestv {
                    best = i;
                    bestv = v;
                }
            }
            if bestv == 0.0 {
                return Err(j);
            }
            piv[j] = best as u32;
            if best != j {
                for c in j0..j1 {
                    a.swap(c * m + j, c * m + best);
                }
            }
            let d = a[j * m + j];
            for i in j + 1..m {
                a[j * m + i] /= d;
            }
            for c in j + 1..j1 {
                let u = a[c * m + j];
                if u == 0.0 {
                    continue;
                }
                for i in j + 1..m {
                    a[c * m + i] -= a[j * m + i] * u;
                }
            }
        }
        // Apply the panel's pivots to the columns outside it.
        for (j, &pv) in piv.iter().enumerate().take(j1).skip(j0) {
            let p = pv as usize;
            if p != j {
                for c in (0..j0).chain(j1..n) {
                    a.swap(c * m + j, c * m + p);
                }
            }
        }
        if j1 < n {
            // U block: a[j0..j1, j1..n] := L_panel⁻¹ · (unit lower).
            for c in j1..n {
                for j in j0..j1 {
                    let v = a[c * m + j];
                    if v == 0.0 {
                        continue;
                    }
                    for i in j + 1..j1 {
                        a[c * m + i] -= a[j * m + i] * v;
                    }
                }
            }
            // Trailing update a[j1..m, j1..n] -= L_below · U_block.
            let mt = m - j1;
            if mt > 0 {
                lpack.clear();
                for p in j0..j1 {
                    lpack.extend_from_slice(&a[p * m + j1..p * m + m]);
                }
                upack.clear();
                for c in j1..n {
                    upack.extend_from_slice(&a[c * m + j0..c * m + j1]);
                }
                gemm_nn_sub(&mut a[j1 * m..], m, j1, mt, n - j1, &lpack, mt, 0, &upack, jb, jb);
            }
        }
        j0 = j1;
    }
    Ok(())
}

/// Straight-loop reference LU with partial pivoting (same contract as
/// [`getrf`]; pivot choices may differ from the blocked path only on
/// exact magnitude ties introduced by reordered rounding).
pub fn getrf_unblocked(a: &mut [f64], m: usize, n: usize, piv: &mut [u32]) -> Result<(), usize> {
    debug_assert!(a.len() >= m * n && piv.len() >= n && m >= n);
    for j in 0..n {
        // Pivot search in column j, rows j..m.
        let (mut best, mut bestv) = (j, a[j * m + j].abs());
        for i in j + 1..m {
            let v = a[j * m + i].abs();
            if v > bestv {
                best = i;
                bestv = v;
            }
        }
        if bestv == 0.0 {
            return Err(j);
        }
        piv[j] = best as u32;
        if best != j {
            for c in 0..n {
                a.swap(c * m + j, c * m + best);
            }
        }
        let d = a[j * m + j];
        for i in j + 1..m {
            a[j * m + i] /= d;
        }
        for c in j + 1..n {
            let u = a[c * m + j];
            if u == 0.0 {
                continue;
            }
            for i in j + 1..m {
                a[c * m + i] -= a[j * m + i] * u;
            }
        }
    }
    Ok(())
}

/// Apply recorded panel pivots (from [`getrf`]) to an `m × n` block:
/// row `j` swaps with row `piv[j]`, in order.
pub fn laswp(b: &mut [f64], m: usize, n: usize, piv: &[u32]) {
    for (j, &p) in piv.iter().enumerate() {
        let p = p as usize;
        if p != j {
            for c in 0..n {
                b.swap(c * m + j, c * m + p);
            }
        }
    }
}

/// Triangular solve `B := L⁻¹ · B` where `L` is the unit lower triangle of
/// the first `k` rows of an `m × k` panel and `B` is `k × n` stored as the
/// top of an `m × n` block (the LU "compute U block" step).
pub fn trsm_llu(b: &mut [f64], m: usize, n: usize, l: &[f64], lm: usize, k: usize) {
    // Only the top `k` rows of each column are touched, so `b` and `l` may
    // be tails of larger panels that stop short of a whole last column.
    debug_assert!(b.len() + m >= m * n + k && l.len() + lm >= lm * k + k);
    for c in 0..n {
        for j in 0..k {
            let v = b[c * m + j];
            if v == 0.0 {
                continue;
            }
            for i in j + 1..k {
                b[c * m + i] -= l[j * lm + i] * v;
            }
        }
    }
}

/// `C := C - A · B` with `A` `m × k` (stored in an `am`-row panel), `B`
/// `k × n` (stored at the top of a `bm`-row block), `C` `m × n` (stored in
/// rows `row0..row0+m` of a `cm`-row block) — the LU trailing update.
///
/// The `B` panel is pre-transposed once into a scratch buffer so the
/// micro-kernel streams it at unit stride exactly like [`gemm_nt_sub`],
/// instead of walking `k` separate columns at stride `bm` per tile (the
/// access pattern that left this kernel ~3× behind `gemm_nt` at equal
/// sizes). The transpose is `O(k·n)` against the `O(m·n·k)` update.
///
/// `LuModel::body` does not call it: its `B` (a U block) is mostly zeros,
/// which the body's `u == 0.0` skip avoids and dense tiles cannot. On
/// `lu-panel` (seed 1997) 16 % of the U-block entries are nonzero, and
/// 18.8 of an `Update`'s 24 U columns are zero throughout.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_sub(
    c: &mut [f64],
    cm: usize,
    row0: usize,
    m: usize,
    n: usize,
    a: &[f64],
    am: usize,
    arow0: usize,
    b: &[f64],
    bm: usize,
    k: usize,
) {
    let mut bt = vec![0.0f64; k * n];
    for j in 0..n {
        let col = &b[j * bm..j * bm + k];
        for (p, &v) in col.iter().enumerate() {
            bt[p * n + j] = v;
        }
    }
    gemm_bt_tiles(c, cm, row0, m, n, a, am, arow0, &bt, n, k);
}

/// Straight-loop reference for [`gemm_nn_sub`] (same contract).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn gemm_nn_sub_naive(
    c: &mut [f64],
    cm: usize,
    row0: usize,
    m: usize,
    n: usize,
    a: &[f64],
    am: usize,
    arow0: usize,
    b: &[f64],
    bm: usize,
    k: usize,
) {
    for j in 0..n {
        for p in 0..k {
            let bv = b[j * bm + p];
            if bv == 0.0 {
                continue;
            }
            for i in 0..m {
                c[j * cm + row0 + i] -= a[p * am + arow0 + i] * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn potrf_recovers_factor() {
        // A = L0 L0ᵀ for a known L0.
        let n = 4;
        let l0 = [
            2.0, 1.0, 0.5, 0.25, // col 0
            0.0, 3.0, 1.0, 0.5, // col 1
            0.0, 0.0, 1.5, 0.75, // col 2
            0.0, 0.0, 0.0, 1.0, // col 3
        ];
        let a0 = matmul(&l0, n, n, &transpose(&l0, n, n), n);
        let mut a = a0.clone();
        potrf(&mut a, n).unwrap();
        for j in 0..n {
            for i in j..n {
                assert!((a[j * n + i] - l0[j * n + i]).abs() < 1e-12, "L({i},{j})");
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(potrf(&mut a, 2), Err(1));
    }

    #[test]
    fn trsm_rlt_solves() {
        let n = 3;
        let l = [2.0, 1.0, 0.5, 0.0, 3.0, 1.0, 0.0, 0.0, 1.5];
        let m = 2;
        let x0 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // m x n
                                                 // B = X0 · Lᵀ, solving should return X0.
        let b0 = matmul(&x0, m, n, &transpose(&l, n, n), n);
        let mut b = b0;
        trsm_rlt(&mut b, m, &l, n);
        for (got, want) in b.iter().zip(x0.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_nt_matches_reference() {
        let (m, n, k) = (3, 2, 4);
        let a: Vec<f64> = (0..m * k).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64).sin()).collect();
        let mut c = vec![1.0; m * n];
        gemm_nt_sub(&mut c, m, n, &a, &b, k);
        let reference = matmul(&a, m, k, &transpose(&b, n, k), n);
        for j in 0..n {
            for i in 0..m {
                assert!((c[j * m + i] - (1.0 - reference[j * m + i])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn getrf_reconstructs_pa() {
        let (m, n) = (5, 3);
        // A deterministic well-conditioned panel.
        let a0: Vec<f64> = (0..m * n)
            .map(|i| ((i * 7 + 3) % 11) as f64 + if i % (m + 1) == 0 { 10.0 } else { 0.0 })
            .collect();
        let mut a = a0.clone();
        let mut piv = vec![0u32; n];
        getrf(&mut a, m, n, &mut piv).unwrap();
        // Rebuild P·A0 from L and U and compare.
        let mut pa = a0.clone();
        laswp(&mut pa, m, n, &piv);
        for j in 0..n {
            for i in 0..m {
                // (L U)(i, j) = sum_p L(i,p) U(p,j), p <= min(i, j).
                let mut v = 0.0;
                for p in 0..=j.min(i) {
                    let l = if i == p { 1.0 } else { a[p * m + i] };
                    let u = a[j * m + p];
                    if i >= p {
                        v += l * u;
                    }
                }
                assert!((pa[j * m + i] - v).abs() < 1e-9, "PA({i},{j})");
            }
        }
    }

    #[test]
    fn getrf_detects_singularity() {
        let mut a = vec![0.0; 6]; // 3x2 of zeros
        let mut piv = vec![0u32; 2];
        assert_eq!(getrf(&mut a, 3, 2, &mut piv), Err(0));
    }

    /// xorshift64* PRNG — deterministic, dependency-free test data.
    fn rng(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    fn rand_vec(seed: &mut u64, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng(seed)).collect()
    }

    /// Sizes that cross every 24- and 4-row tile boundary and leave
    /// both ragged edges, and the depths they are swept at.
    const SIZES: [usize; 14] = [3, 4, 5, 11, 12, 13, 23, 24, 25, 28, 36, 37, 48, 52];
    const DEPTHS: [usize; 3] = [1, 7, 24];

    fn tile_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        SIZES.into_iter().flat_map(|m| {
            SIZES.into_iter().flat_map(move |n| DEPTHS.into_iter().map(move |k| (m, n, k)))
        })
    }

    /// SPD `G·Gᵀ + n·I` with a random `G`.
    fn spd(seed: &mut u64, n: usize) -> Vec<f64> {
        let gmat = rand_vec(seed, n * n);
        let mut a = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                let mut v = if i == j { n as f64 } else { 0.0 };
                for p in 0..n {
                    v += gmat[p * n + i] * gmat[p * n + j];
                }
                a[j * n + i] = v;
            }
        }
        a
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i}: {x} vs {y}");
        }
    }

    /// [`gemm_bt_tiles`]' specification, element by element (same
    /// arguments): a full-tile entry accumulates `A(i, p)·B(p, j)` over `p`
    /// from zero — one `mul_add` chain where the host's tiles fuse — and
    /// is subtracted once; a ragged-edge entry subtracts each product with
    /// a nonzero `B(p, j)` in turn.
    #[allow(clippy::too_many_arguments)]
    fn gemm_bt_oracle(
        c: &mut [f64],
        cm: usize,
        row0: usize,
        m: usize,
        n: usize,
        a: &[f64],
        am: usize,
        arow0: usize,
        b: &[f64],
        bn: usize,
        k: usize,
    ) {
        let fused = fused_tiles();
        let (mfull, nfull) = (m - m % MR, n - n % MR);
        for j in 0..n {
            for i in 0..m {
                let ci = &mut c[j * cm + row0 + i];
                let products = (0..k).map(|p| (a[p * am + arow0 + i], b[p * bn + j]));
                if i < mfull && j < nfull {
                    let acc = products.fold(0.0f64, |acc, (av, bv)| {
                        if fused {
                            av.mul_add(bv, acc)
                        } else {
                            acc + av * bv
                        }
                    });
                    *ci -= acc;
                } else {
                    for (av, bv) in products.filter(|&(_, bv)| bv != 0.0) {
                        *ci -= av * bv;
                    }
                }
            }
        }
    }

    #[test]
    fn tile_engine_is_its_oracle_bit_for_bit() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for (m, n, k) in tile_shapes() {
            let what = format!("{m}x{n}x{k}");
            let a = rand_vec(&mut seed, m * k);
            let bt = rand_vec(&mut seed, n * k);
            let c0 = rand_vec(&mut seed, m * n);
            let mut got = c0.clone();
            gemm_nt_sub(&mut got, m, n, &a, &bt, k);
            let mut want = c0;
            gemm_bt_oracle(&mut want, m, 0, m, n, &a, m, 0, &bt, n, k);
            assert_bits(&got, &want, &format!("gemm_nt {what}"));
            // Strided: C is rows 2.. of an (m+3)-row block, A rows 1.. of
            // an (m+2)-row panel, B the top of a (k+1)-row block.
            let (cm, row0, am, arow0, bm) = (m + 3, 2, m + 2, 1, k + 1);
            let a = rand_vec(&mut seed, am * k);
            let b = rand_vec(&mut seed, bm * n);
            let c0 = rand_vec(&mut seed, cm * n);
            let mut got = c0.clone();
            gemm_nn_sub(&mut got, cm, row0, m, n, &a, am, arow0, &b, bm, k);
            let bt: Vec<f64> = (0..k * n).map(|x| b[(x % n) * bm + x / n]).collect();
            let mut want = c0;
            gemm_bt_oracle(&mut want, cm, row0, m, n, &a, am, arow0, &bt, n, k);
            assert_bits(&got, &want, &format!("gemm_nn {what}"));
        }
        // The SYRK strips of the blocked Cholesky (panels of NB = 32).
        for n in SIZES.into_iter().chain([65, 100]) {
            let a = spd(&mut seed, n);
            let mut got = a.clone();
            let mut want = a;
            potrf_blocked(&mut got, n).unwrap();
            potrf_blocked_by(&mut want, n, gemm_bt_oracle).unwrap();
            assert_bits(&got, &want, &format!("potrf_blocked n={n}"));
        }
    }

    /// Each vector sweep alone covers a whole number of its tiles from the
    /// top and equals the oracle there — the 4-row AVX2 sweep over every
    /// full row, as on hosts without AVX-512F, included on those with it.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn each_vector_sweep_is_the_oracle_on_its_tiles() {
        type Sweep = unsafe fn(
            &mut [f64],
            usize,
            usize,
            usize,
            usize,
            usize,
            &[f64],
            usize,
            usize,
            &[f64],
            usize,
            usize,
        ) -> usize;
        if !fused_tiles() {
            return;
        }
        let mut sweeps: Vec<(&str, Sweep, usize)> = vec![("ymm1", tiles_ymm1, 4)];
        if is_x86_feature_detected!("avx512f") {
            sweeps.push(("zmm3", tiles_zmm3, 24));
        }
        let mut seed = 0x5eed;
        for (m, n, k) in tile_shapes() {
            let (mfull, nfull) = (m - m % MR, n - n % MR);
            let a = rand_vec(&mut seed, m * k);
            let bt = rand_vec(&mut seed, n * k);
            let c0 = rand_vec(&mut seed, m * n);
            let mut want = c0.clone();
            gemm_bt_oracle(&mut want, m, 0, m, n, &a, m, 0, &bt, n, k);
            for &(name, sweep, rows) in &sweeps {
                let mut got = c0.clone();
                // SAFETY: the sweep's features were detected above and the
                // operands are the packed `m × k`, `n × k` and `m × n`.
                let hi = unsafe { sweep(&mut got, m, 0, 0, mfull, nfull, &a, m, 0, &bt, n, k) };
                assert_eq!(hi, mfull / rows * rows, "{name} {m}x{n}x{k}");
                for j in 0..n {
                    for i in 0..m {
                        let x = j * m + i;
                        let w = if i < hi && j < nfull { want[x] } else { c0[x] };
                        assert_eq!(got[x].to_bits(), w.to_bits(), "{name} {m}x{n}x{k} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_rlt_is_its_straight_loop_bit_for_bit() {
        let mut seed = 99;
        for m in [1, 5, 24, 37] {
            for n in [1, 9, 24] {
                let mut l = rand_vec(&mut seed, n * n);
                for j in 0..n {
                    l[j * n + j] = 2.0 + l[j * n + j].abs();
                }
                let b0 = rand_vec(&mut seed, m * n);
                let mut got = b0.clone();
                let mut want = b0;
                trsm_rlt(&mut got, m, &l, n);
                trsm_rlt_naive(&mut want, m, &l, n);
                assert_bits(&got, &want, &format!("trsm_rlt {m}x{n}"));
            }
        }
    }

    #[test]
    fn tiled_gemms_match_naive_on_odd_sizes() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let odd =
            [(1, 1, 1), (3, 5, 7), (4, 4, 4), (5, 4, 3), (7, 9, 2), (13, 11, 17), (33, 34, 35)];
        for (m, n, k) in odd.into_iter().chain(tile_shapes()) {
            let a: Vec<f64> = (0..m * k).map(|_| rng(&mut seed)).collect();
            let bt: Vec<f64> = (0..n * k).map(|_| rng(&mut seed)).collect();
            let c0: Vec<f64> = (0..m * n).map(|_| rng(&mut seed)).collect();
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm_nt_sub(&mut c1, m, n, &a, &bt, k);
            gemm_nt_sub_naive(&mut c2, m, n, &a, &bt, k);
            for (x, y) in c1.iter().zip(c2.iter()) {
                assert!((x - y).abs() < 1e-10, "gemm_nt {m}x{n}x{k}");
            }
            let b: Vec<f64> = (0..k * n).map(|_| rng(&mut seed)).collect();
            let mut c1 = c0.clone();
            let mut c2 = c0;
            gemm_nn_sub(&mut c1, m, 0, m, n, &a, m, 0, &b, k, k);
            gemm_nn_sub_naive(&mut c2, m, 0, m, n, &a, m, 0, &b, k, k);
            for (x, y) in c1.iter().zip(c2.iter()) {
                assert!((x - y).abs() < 1e-10, "gemm_nn {m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn blocked_potrf_matches_unblocked_across_panel_boundary() {
        let mut seed = 42;
        // Sizes straddling the NB=32 panel width, including odd ones.
        for &n in &[1usize, 2, 5, 17, 31, 32, 33, 47, 64, 65, 70] {
            let a = spd(&mut seed, n);
            let mut blocked = a.clone();
            let mut naive = a;
            potrf_blocked(&mut blocked, n).unwrap();
            potrf_unblocked(&mut naive, n).unwrap();
            for j in 0..n {
                for i in j..n {
                    assert!(
                        (blocked[j * n + i] - naive[j * n + i]).abs() < 1e-10,
                        "n={n} L({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_getrf_reconstructs_pa_across_panel_boundary() {
        let mut seed = 7;
        // Drive the blocked path directly (panel factor, deferred swaps,
        // packed trailing GEMM) at sizes straddling the NB=32 panel
        // width — the public `getrf` would route most of these to the
        // unblocked dispatch.
        for &(m, n) in &[(1, 1), (5, 3), (47, 40), (65, 65), (100, 97), (110, 110), (130, 128)] {
            let a0: Vec<f64> = (0..m * n).map(|_| rng(&mut seed)).collect();
            let mut a = a0.clone();
            let mut piv = vec![0u32; n];
            getrf_blocked(&mut a, m, n, &mut piv).unwrap();
            // Rebuild P·A0 from L and U and compare.
            let mut pa = a0;
            laswp(&mut pa, m, n, &piv);
            for j in 0..n {
                for i in 0..m {
                    let mut v = 0.0;
                    for p in 0..=j.min(i) {
                        let l = if i == p { 1.0 } else { a[p * m + i] };
                        v += l * a[j * m + p];
                    }
                    assert!((pa[j * m + i] - v).abs() < 1e-9, "({m},{n}) PA({i},{j})");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // explicit col*lm+row indexing
    fn trsm_llu_solves_unit_lower() {
        let (lm, k) = (4, 3);
        // Unit lower triangular L in a 4x3 panel (rows 0..3 hold L).
        let mut l = vec![0.0; lm * k];
        l[0 * lm + 1] = 0.5;
        l[0 * lm + 2] = 0.25;
        l[1 * lm + 2] = 0.75;
        // X known, B = L X.
        let (m, n) = (4, 2);
        let x = [1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0]; // k x n at top of m-row block
        let mut b = vec![0.0; m * n];
        for c in 0..n {
            for i in 0..k {
                let mut v = x[c * m + i];
                for p in 0..i {
                    v += l[p * lm + i] * x[c * m + p];
                }
                b[c * m + i] = v;
            }
        }
        trsm_llu(&mut b, m, n, &l, lm, k);
        for c in 0..n {
            for i in 0..k {
                assert!((b[c * m + i] - x[c * m + i]).abs() < 1e-12);
            }
        }
    }
}
