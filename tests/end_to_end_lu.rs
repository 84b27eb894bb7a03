//! End-to-end sparse LU with partial pivoting: static symbolic
//! factorization, 1-D column blocks, threaded execution, residual checks
//! against the dense reference.

mod common;

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential_with_init;
use rapid::sparse::{gen, refsolve, taskgen, SparseMatrix};

fn pipeline(a: &SparseMatrix, block_w: usize, nprocs: usize) {
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
        for &d in plan.objs(msg.id) {
            assert!(model.obj_of_block.contains(&d), "non-panel object crossed processors");
        }
    }
}

/// Near-zero diagonal entries force interchanges.
fn ill_conditioned(n: usize) -> SparseMatrix {
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
    SparseMatrix::from_triplets(n, n, &t)
}

#[test]
fn ill_conditioned_diagonal_needs_pivoting() {
    // The residual stays tiny only if pivoting works through the
    // distributed panels.
    pipeline(&ill_conditioned(48), 8, 3);
}

/// The matrix of `rapid-sparse`'s `lu_pivoting_actually_pivots`: tiny
/// diagonal, large subdiagonal, so every column interchanges.
fn tiny_diagonal(n: usize) -> SparseMatrix {
    let mut t = Vec::new();
    for i in 0..n as u32 {
        t.push((i, i, 1e-8));
        if i + 1 < n as u32 {
            t.push((i + 1, i, 5.0));
            t.push((i, i + 1, 3.0));
        }
    }
    SparseMatrix::from_triplets(n, n, &t)
}

/// `a` with every odd column negated: its pivots come out negative.
fn negate_odd_columns(a: &SparseMatrix) -> SparseMatrix {
    let mut t = Vec::new();
    for c in 0..a.ncols {
        let sign = if c % 2 == 1 { -1.0 } else { 1.0 };
        for (&r, &v) in a.col_rows(c).iter().zip(a.col_values(c)) {
            t.push((r, c as u32, sign * v));
        }
    }
    SparseMatrix::from_triplets(a.nrows, a.ncols, &t)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The body cuts every `Fact` / `Update` loop at the static row extent
/// `LuModel::row_hi`. That is sound only if the panels are zero from there
/// down, and it is free only if it changes no value: the same model with
/// its extents overwritten by `n` runs the parent's full-height loops on
/// the same code.
#[test]
fn static_row_extents_cut_the_loops_and_change_no_value() {
    let mut cases: Vec<(String, SparseMatrix, usize)> = Vec::new();
    for seed in 0..20 {
        // (n, band, scatter, block_w): block_w divides n or not, scatter up to 3.
        for (n, band, scatter, block_w) in
            [(96, 5, 0, 12), (60, 4, 1, 10), (70, 3, 2, 8), (90, 2, 3, 7)]
        {
            let name =
                format!("goodwin n={n} band={band} scatter={scatter} w={block_w} seed={seed}");
            cases.push((name, gen::goodwin_like(n, band, scatter, seed), block_w));
        }
    }
    let neg = negate_odd_columns(&gen::goodwin_like(70, 3, 2, 99));
    cases.push(("goodwin, odd columns negated".into(), neg, 8));
    cases.push(("tiny diagonal".into(), tiny_diagonal(12), 3));
    cases.push(("tiny diagonal, w=5".into(), tiny_diagonal(33), 5));
    cases.push(("ill-conditioned".into(), ill_conditioned(48), 8));

    let mut rows_cut = 0;
    for (name, a, block_w) in &cases {
        let n = a.ncols;
        let model = taskgen::lu_1d_model(a, *block_w, 2, true);
        let nb = model.colpat.part.num_blocks();
        let seq = run_sequential_with_init(&model.graph, model.body(), model.init(a));
        let mut full = taskgen::lu_1d_model(a, *block_w, 2, true);
        full.row_hi = vec![n; nb];
        let seq_full = run_sequential_with_init(&full.graph, full.body(), full.init(a));

        for k in 0..nb {
            let (kr, hi) = (model.colpat.part.range(k), model.row_hi[k]);
            assert!(kr.end <= hi && hi <= n, "{name}: row_hi[{k}] = {hi} outside {}..={n}", kr.end);
            let closed = model.colpat.deps[k].iter().all(|&j| model.row_hi[j as usize] <= hi);
            assert!(closed, "{name}: row_hi[{k}] is below the extent of a panel that updates it");
            rows_cut += n - hi;
            let d = model.obj_of_block[k].idx();
            let (panel, piv) = seq[d].split_at(n * kr.len());
            let (panel_full, piv_full) = seq_full[d].split_at(n * kr.len());
            assert_eq!(piv, piv_full, "{name}: panel {k} pivots");
            for (q, (col, col_full)) in panel.chunks(n).zip(panel_full.chunks(n)).enumerate() {
                // (a) Zero from the extent down, pivoting or not ...
                assert!(
                    col[hi..].iter().all(|v| v.to_bits() == 0),
                    "{name}: panel {k} column {q} is not +0.0 from row {hi} down"
                );
                // ... where the full-height loops leave zeros too: `-0.0` in
                // an L column whose pivot was negative (`0.0 / d`).
                assert!(col_full[hi..].iter().all(|&v| v == 0.0), "{name}: panel {k} column {q}");
                // (b) Above it the cut changes no bit.
                assert_eq!(
                    bits(&col[..hi]),
                    bits(&col_full[..hi]),
                    "{name}: panel {k} column {q}: the cut changed the factors"
                );
            }
        }

        // (c) The factors solve the system, and the cut `solve` is the
        // full-height one.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let x = model.solve(&seq, &b);
        let r = refsolve::rel_residual(a, &x, &b);
        assert!(r < 1e-9, "{name}: residual {r}");
        assert_eq!(x, full.solve(&seq, &b), "{name}: the cut changed the solve");

        // (d) One body on both drivers: threaded equals sequential bit for bit.
        for p in [2, 3, 4] {
            let model = taskgen::lu_1d_model(a, *block_w, p, true);
            let assign = owner_compute_assignment(&model.graph, &model.owner, p);
            let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
            let cap = min_mem(&model.graph, &sched).tot_no_recycle + 64;
            let out = ThreadedExecutor::new(&model.graph, &sched, cap)
                .run_with_init(model.body(), model.init(a))
                .unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
            for (d, (thr, seq)) in out.objects.iter().zip(&seq).enumerate() {
                assert_eq!(
                    bits(thr),
                    bits(seq),
                    "{name} p={p}: object {d} differs from sequential"
                );
            }
        }
    }
    assert!(rows_cut > 0, "no extent is below n: the cut was never exercised");
}
