//! End-to-end sparse LU with partial pivoting: static symbolic
//! factorization, 1-D column blocks, threaded execution, residual checks
//! against the dense reference.

mod common;

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::sparse::{gen, refsolve, taskgen};

fn pipeline(a: &rapid::sparse::SparseMatrix, block_w: usize, nprocs: usize) {
    let model = taskgen::lu_1d_model(a, block_w, nprocs, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, nprocs);
    let cost = CostModel::unit();
    for (name, sched) in [
        ("rcp", rcp_order(&model.graph, &assign, &cost)),
        ("mpo", mpo_order(&model.graph, &assign, &cost)),
        ("dts", dts_order(&model.graph, &assign, &cost)),
    ] {
        let rep = min_mem(&model.graph, &sched);
        let exec = ThreadedExecutor::new(&model.graph, &sched, rep.min_mem);
        let out = match exec.run_with_init(model.body(), model.init(a)) {
            Ok(out) => out,
            // Dense panels of unequal widths can fragment a best-fit
            // arena at exactly MIN_MEM, which the address plan knows; retry with
            // slack, which must work.
            Err(e @ rapid::rt::ExecError::Fragmented { .. }) => {
                common::assert_planned_rejection(name, &exec, &e);
                ThreadedExecutor::new(&model.graph, &sched, rep.min_mem + 256)
                    .run_with_init(model.body(), model.init(a))
                    .unwrap_or_else(|e| panic!("{name} with slack failed: {e}"))
            }
            Err(e) => panic!("{name} at MIN_MEM failed: {e}"),
        };
        let n = a.ncols;
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let x = model.solve(&out.objects, &b);
        let r = refsolve::rel_residual(a, &x, &b);
        assert!(r < 1e-9, "{name}: residual {r}");
    }
}

#[test]
fn banded_unsymmetric() {
    let a = gen::goodwin_like(96, 5, 0, 21);
    pipeline(&a, 12, 4);
}

#[test]
fn with_scattered_entries() {
    let a = gen::goodwin_like(60, 4, 1, 5);
    pipeline(&a, 10, 3);
}

#[test]
fn pivoting_stays_processor_local() {
    // The whole point of the 1-D mapping: no messages are needed for
    // pivoting. Verify by checking that only panel objects (whole column
    // blocks) ever cross processors.
    let a = gen::goodwin_like(80, 6, 0, 2);
    let model = taskgen::lu_1d_model(&a, 16, 4, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = rcp_order(&model.graph, &assign, &CostModel::unit());
    let plan = rapid::rt::RtPlan::new(&model.graph, &sched);
    for msg in &plan.msgs {
        for &d in &msg.objs {
            assert!(model.obj_of_block.contains(&d), "non-panel object crossed processors");
        }
    }
}

#[test]
fn ill_conditioned_diagonal_needs_pivoting() {
    // Near-zero diagonal entries force interchanges; the residual stays
    // tiny only if pivoting works through the distributed panels.
    let n = 48;
    let mut t = Vec::new();
    for i in 0..n as u32 {
        t.push((i, i, if i % 3 == 0 { 1e-10 } else { 4.0 }));
        if i + 1 < n as u32 {
            t.push((i + 1, i, 2.0));
            t.push((i, i + 1, 1.0));
        }
        if i + 3 < n as u32 {
            t.push((i + 3, i, 0.5));
        }
    }
    let a = rapid::sparse::SparseMatrix::from_triplets(n, n, &t);
    pipeline(&a, 8, 3);
}
