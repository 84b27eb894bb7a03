//! The threaded Cholesky's results, pinned to the bit: a hash of every
//! object of a full-width-block factorisation, recorded before the tile
//! engine's wide sweeps and the unit-stride `trsm_rlt` went in. Kernel
//! rewrites must leave it where it is.
//!
//! The recorded value is what the fused (AVX2 + FMA) tiles produce, so the
//! assertion runs only where they run: the `simd` feature on an x86-64 host
//! that reports `avx2` and `fma` at run time. Everywhere else the scalar
//! tiles round each product separately and the test checks only that the
//! factor is a factor.

use rapid_core::memreq::min_mem;
use rapid_core::schedule::CostModel;
use rapid_rt::threaded::ThreadedExecutor;
use rapid_sched::assign::owner_compute_assignment;
use rapid_sched::mpo::mpo_order;
use rapid_sparse::{gen, order, refsolve, taskgen};

/// FNV-1a over the little-endian bits of every value, object by object.
fn fnv1a(objects: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in objects.iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
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
