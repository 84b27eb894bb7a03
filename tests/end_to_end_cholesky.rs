//! End-to-end sparse Cholesky: matrix → ordering → symbolic → 2-D block
//! task graph → schedule (each heuristic) → threaded execution under a
//! memory constraint → numeric verification.

mod common;

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::sparse::{gen, order, refsolve, taskgen};

fn pipeline(a: &rapid::sparse::SparseMatrix, block_w: usize, nprocs: usize) {
    let model = taskgen::cholesky_2d_model(a, block_w, nprocs);
    let assign = owner_compute_assignment(&model.graph, &model.owner, nprocs);
    let cost = CostModel::unit();
    let schedules = vec![
        ("rcp", rcp_order(&model.graph, &assign, &cost)),
        ("mpo", mpo_order(&model.graph, &assign, &cost)),
        ("dts", dts_order(&model.graph, &assign, &cost)),
    ];
    for (name, sched) in schedules {
        assert!(sched.is_valid(&model.graph), "{name} invalid");
        let rep = min_mem(&model.graph, &sched);
        // Run exactly at the recycling requirement.
        let exec = ThreadedExecutor::new(&model.graph, &sched, rep.min_mem);
        let out = match exec.run_with_init(model.body(), model.init(a)) {
            Ok(out) => {
                assert!(
                    out.peak_mem.iter().all(|&pm| pm <= rep.min_mem),
                    "{name}: peak exceeds MIN_MEM"
                );
                out
            }
            // Mixed block sizes can fragment a best-fit arena at exactly
            // MIN_MEM, which the address plan knows; a small slack must always
            // suffice.
            Err(e @ rapid::rt::ExecError::Fragmented { .. }) => {
                common::assert_planned_rejection(name, &exec, &e);
                ThreadedExecutor::new(&model.graph, &sched, rep.min_mem + 256)
                    .run_with_init(model.body(), model.init(a))
                    .unwrap_or_else(|e| panic!("{name} with slack failed: {e}"))
            }
            Err(e) => panic!("{name} at MIN_MEM failed: {e}"),
        };
        let l = model.extract_l(&out.objects);
        let defect = refsolve::cholesky_defect(a, &l);
        assert!(defect < 1e-8, "{name}: defect {defect}");
    }
}

#[test]
fn grid_laplacian_all_heuristics() {
    let a = gen::grid2d_laplacian(7, 6);
    pipeline(&a, 6, 4);
}

#[test]
fn fem_matrix_with_min_degree_ordering() {
    let a = gen::bcsstk_like(5, 5, 3, 11);
    let perm = order::min_degree(&a);
    let a = a.permute_sym(&perm);
    pipeline(&a, 10, 4);
}

#[test]
fn fem_matrix_with_rcm_ordering() {
    let a = gen::bcsstk_like(6, 4, 2, 3);
    let perm = order::rcm(&a);
    let a = a.permute_sym(&perm);
    pipeline(&a, 8, 6);
}

#[test]
fn three_dimensional_grid() {
    let a = gen::grid3d_laplacian(4, 4, 3);
    pipeline(&a, 8, 4);
}

#[test]
fn memory_savings_are_real() {
    // The recycling requirement must be substantially below the
    // no-recycling footprint on a parallel run (the paper's whole point).
    let a = gen::bcsstk_like(6, 6, 3, 7);
    let model = taskgen::cholesky_2d_model(&a, 9, 8);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 8);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let rep = min_mem(&model.graph, &sched);
    assert!(
        (rep.min_mem as f64) < 0.8 * rep.tot_no_recycle as f64,
        "recycling saves only {} of {}",
        rep.tot_no_recycle - rep.min_mem,
        rep.tot_no_recycle
    );
}
