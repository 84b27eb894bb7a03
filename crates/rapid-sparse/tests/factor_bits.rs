//! The threaded factorisations' results, pinned to the bit.
//!
//! - Cholesky: a hash of every object of a full-width-block factorisation,
//!   recorded before the tile engine's wide sweeps and the unit-stride
//!   `trsm_rlt` went in. Kernel rewrites must leave it where it is. The
//!   recorded value is what the fused (AVX2 + FMA) tiles produce, so the
//!   assertion runs only where they run: the `simd` feature on an x86-64
//!   host that reports `avx2` and `fma` at run time. Everywhere else the
//!   scalar tiles round each product separately and the test checks only
//!   that the factor is a factor.
//! - LU: a hash of every panel in dense coordinates, recorded while panels
//!   were still stored at full matrix height. Storage may move; the factor
//!   values and pivots may not. The LU body runs no fused tile, so this pin
//!   holds on every host.

use rapid_core::memreq::min_mem;
use rapid_core::schedule::CostModel;
use rapid_rt::threaded::ThreadedExecutor;
use rapid_sched::assign::owner_compute_assignment;
use rapid_sched::dts::{dts_order, dts_order_merged};
use rapid_sched::mpo::mpo_order;
use rapid_sparse::{gen, order, refsolve, taskgen};

/// FNV-1a over the little-endian bits of `values`.
fn fnv1a_values<'v>(values: impl IntoIterator<Item = &'v f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bits of every value, object by object.
fn fnv1a(objects: &[Vec<f64>]) -> u64 {
    fnv1a_values(objects.iter().flatten())
}

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

#[test]
fn full_width_block_cholesky_objects_are_unchanged() {
    // n = 432 in 24-wide blocks: the updates run whole 24 × 24 tiles.
    let a = gen::bcsstk_like(12, 12, 3, 1997);
    let a = a.permute_sym(&order::min_degree(&a));
    let model = taskgen::cholesky_2d_model(&a, 24, 2);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 2);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).tot_no_recycle;
    let out = ThreadedExecutor::new(&model.graph, &sched, cap)
        .run_with_init(model.body(), model.init(&a))
        .unwrap_or_else(|e| panic!("threaded Cholesky failed: {e}"));
    let defect = refsolve::cholesky_defect(&a, &model.extract_l(&out.objects));
    assert!(defect < 1e-10, "defect {defect}");
    if fused_tiles() {
        assert_eq!(fnv1a(&out.objects), 0x90d8_dbbc_17ae_ca14, "objects changed bits");
    }
}

/// Every LU panel in dense coordinates, panel by panel: each column over
/// all `n` rows, `+0.0` where the panel stores no row, then its pivots.
///
/// A panel's object is `h` stored rows per column plus one pivot slot per
/// column, and the stored rows end at the static extent `row_hi[k]`, or
/// cover the whole column when `h = n`. The layout is read from the object
/// alone, so the digest does not depend on how tall panels are stored.
fn lu_dense_digest(model: &taskgen::LuModel, objects: &[Vec<f64>]) -> u64 {
    let n = model.n;
    let mut dense = Vec::new();
    for (k, d) in model.obj_of_block.iter().enumerate() {
        let w = model.colpat.part.width(k);
        let obj = &objects[d.idx()];
        let h = obj.len() / w - 1;
        let lo = model.row_hi[k].saturating_sub(h);
        let (panel, piv) = obj.split_at(h * w);
        for col in panel.chunks(h) {
            dense.extend(std::iter::repeat_n(0.0, lo));
            dense.extend_from_slice(col);
            dense.extend(std::iter::repeat_n(0.0, n - lo - h));
        }
        dense.extend_from_slice(piv);
    }
    fnv1a_values(&dense)
}

#[test]
fn lu_panel_factors_and_pivots_are_unchanged() {
    // The `lu-panel` benchmark's matrix and plan: 24-wide panels on two
    // processors under merged DTS, at a quarter of the slack above MIN_MEM.
    let a = gen::goodwin_like(2400, 16, 1, 1997);
    let model = taskgen::lu_1d_model(&a, 24, 2, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 2);
    let cost = CostModel::unit();
    let rep = min_mem(&model.graph, &dts_order(&model.graph, &assign, &cost));
    let cap = rep.min_mem + (rep.tot_no_recycle - rep.min_mem) / 4;
    let sched = dts_order_merged(&model.graph, &assign, &cost, cap);
    let out = ThreadedExecutor::new(&model.graph, &sched, cap)
        .run_with_init(model.body(), model.init(&a))
        .unwrap_or_else(|e| panic!("threaded LU failed: {e}"));
    let b: Vec<f64> = (0..a.ncols).map(|i| 1.0 + (i as f64 * 0.31).cos()).collect();
    let r = refsolve::rel_residual(&a, &model.solve(&out.objects, &b), &b);
    assert!(r < 1e-9, "residual {r}");
    assert_eq!(
        lu_dense_digest(&model, &out.objects),
        0x97d0_94a8_801d_f3dd,
        "LU factors or pivots changed bits"
    );
}
