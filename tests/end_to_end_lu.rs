//! End-to-end sparse LU with partial pivoting: static symbolic
//! factorization, 1-D column blocks, threaded execution, residual checks
//! against the dense reference.

mod common;

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential_with_init;
use rapid::sparse::{gen, refsolve, symbolic, taskgen, SparseMatrix};

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

/// FNV-1a over every panel in dense coordinates, panel by panel: each
/// column over all `n` rows, `+0.0` where the panel stores no row, then
/// its pivots.
fn dense_digest(model: &taskgen::LuModel, objects: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (k, d) in model.obj_of_block.iter().enumerate() {
        let lay = model.layout(k);
        let (panel, piv) = lay.split(&objects[d.idx()]);
        for q in 0..lay.w {
            for r in 0..model.n {
                eat(if (lay.lo..lay.hi).contains(&r) { panel[lay.at(r, q)] } else { 0.0 });
            }
        }
        piv.iter().for_each(|&v| eat(v));
    }
    h
}

/// `dense_digest` of the sequential run of each case below, recorded while
/// every panel was stored at full height `n`: one row per seed of the four
/// generated shapes, in order.
const GOODWIN_DIGESTS: [[u64; 4]; 20] = [
    [0x3487_02d9_94a3_d259, 0xc827_77ec_fa12_fefd, 0x5837_3656_d5e3_c820, 0x5927_3267_76e2_6e63],
    [0x7929_0575_124e_750d, 0x5d98_5de2_b86e_ced2, 0x7fd4_64c0_af15_0631, 0x1d63_b88b_8127_4e2a],
    [0x4983_6a28_6ef6_81ab, 0xa326_fc17_39f6_defa, 0xa899_a005_bb34_dc16, 0xa63a_24b2_8dc5_9a18],
    [0x15e5_8b62_1fd0_b918, 0xf75d_e8ce_05f9_fdf0, 0x37cd_23db_379d_c20b, 0x99da_a292_ccbd_5597],
    [0x1cb3_a348_ef61_dbe4, 0x72c8_d678_816c_42e8, 0xc276_0e09_f200_e661, 0x1b3e_7468_ddeb_6d1e],
    [0xbccd_1898_c6c7_5ad6, 0x0672_4197_2c4e_21c0, 0xa075_7b5e_ba31_c83a, 0x1b1a_027f_187e_4ae3],
    [0x2719_c06e_b0e2_84c5, 0xa39e_7f3a_3e26_003a, 0x455c_7310_740f_adf1, 0x6b02_9a00_26b8_d788],
    [0x426b_08ec_d0b1_1f4d, 0xc5be_5065_f021_56eb, 0xf974_1ca5_5781_83ff, 0x353f_ba28_a795_cb42],
    [0x1342_dcf9_2172_b4ea, 0x271d_5750_ce03_39bf, 0xefc1_91dc_39f8_48d8, 0x61cd_eace_041a_9371],
    [0xf4ff_9ff4_278e_253e, 0x7acc_2439_5787_e193, 0x5139_18a1_c8c0_2ee0, 0xce17_a7a0_6379_1c42],
    [0x19b2_a82a_98c3_093f, 0x9194_c540_8f4a_2cad, 0xbae6_52e4_cfa0_136b, 0xb1e6_ea5f_fe96_0aed],
    [0xd4b5_f03d_ec92_c53c, 0x2a74_1722_d56b_4df8, 0x3f84_46e2_9211_4570, 0xf708_b827_0b2d_c3ac],
    [0x6bf0_af94_1136_3edd, 0x4371_38c3_5a07_bc5d, 0x3844_581d_2212_d40d, 0x8ed4_63e5_daec_90d0],
    [0x0ec6_ac05_59a8_aaca, 0x50fe_f4fb_4cdb_abfd, 0x3154_2bf4_0e25_3c20, 0x80b2_28ca_919d_49a6],
    [0xa1e4_a621_d729_14ba, 0x5e2d_6d52_0859_44ce, 0xc542_86e6_f8ea_12c8, 0xa7d1_632e_1547_909a],
    [0x2f44_0833_2911_6261, 0x9988_98a5_46da_0ed3, 0x7619_482a_8f71_0d0b, 0x9fd5_ca34_f676_b210],
    [0x79f1_3d36_69c0_1ce9, 0xbee1_7022_5bf7_c780, 0xeb1c_effd_fd18_ba75, 0x87af_59a6_dd19_1bf3],
    [0xc1ff_6513_bd49_755d, 0x8f68_ae67_f6ae_db60, 0x9d47_5199_53ef_f22f, 0xe989_0799_b7d9_8e9f],
    [0x1551_1c0f_658e_7362, 0x5598_7c05_730d_7007, 0x2d5e_7bd2_db2a_417f, 0xcf5b_4503_3858_bb1d],
    [0xaa96_2978_3918_c86a, 0x8d9b_8e42_4d11_f3dc, 0xc027_c6ef_fdd2_fa71, 0xd677_9b5b_a72a_1462],
];

/// The same for the four hand-built cases, in order.
const SPECIAL_DIGESTS: [u64; 4] =
    [0xe533_8343_1335_d327, 0x76b6_b768_6433_7025, 0x2fe8_3f87_6a40_4420, 0xc5e1_14c2_c9d1_423d];

/// Panels are stored at their static row extent `row_lo..row_hi`, and the
/// body cuts every `Fact` / `Update` loop there. That is sound only if no
/// row outside can hold a nonzero, and it is free only if it changes no
/// value: the dense-coordinate digest of each case's factors and pivots
/// equals the one recorded from full-height panels.
#[test]
fn static_row_extents_cut_the_loops_and_change_no_value() {
    let mut cases: Vec<(String, SparseMatrix, usize, u64)> = Vec::new();
    for (seed, want) in GOODWIN_DIGESTS.iter().enumerate() {
        // (n, band, scatter, block_w): block_w divides n or not, scatter up to 3.
        for ((n, band, scatter, block_w), &want) in
            [(96, 5, 0, 12), (60, 4, 1, 10), (70, 3, 2, 8), (90, 2, 3, 7)].into_iter().zip(want)
        {
            let name =
                format!("goodwin n={n} band={band} scatter={scatter} w={block_w} seed={seed}");
            cases.push((name, gen::goodwin_like(n, band, scatter, seed as u64), block_w, want));
        }
    }
    let neg = negate_odd_columns(&gen::goodwin_like(70, 3, 2, 99));
    let special = [
        ("goodwin, odd columns negated", neg, 8),
        ("tiny diagonal", tiny_diagonal(12), 3),
        ("tiny diagonal, w=5", tiny_diagonal(33), 5),
        ("ill-conditioned", ill_conditioned(48), 8),
    ];
    for ((name, a, block_w), want) in special.into_iter().zip(SPECIAL_DIGESTS) {
        cases.push((name.into(), a, block_w, want));
    }

    let (mut rows_cut_above, mut rows_cut_below) = (0, 0);
    for (name, a, block_w, want) in &cases {
        let n = a.ncols;
        let model = taskgen::lu_1d_model(a, *block_w, 2, true);
        let seq = run_sequential_with_init(&model.graph, model.body(), model.init(a));
        let lu = symbolic::lu_static_symbolic(a);

        // (a) The extents hold every row a panel can hold a nonzero in.
        for k in 0..model.colpat.part.num_blocks() {
            let (kr, lay) = (model.colpat.part.range(k), model.layout(k));
            let (lo, hi) = (lay.lo, lay.hi);
            assert!(lo <= kr.start && kr.end <= hi && hi <= n, "{name}: panel {k} {lay:?}");
            for &d in &model.colpat.deps[k] {
                let dep = model.layout(d as usize);
                let d_start = model.colpat.part.range(d as usize).start;
                assert!(dep.hi <= hi, "{name}: row_hi[{k}] is below panel {d}'s, which updates it");
                assert!(lo <= d_start, "{name}: row_lo[{k}] is below panel {d}'s first row");
            }
            let first = kr.clone().filter_map(|c| lu.cols[c].first()).min();
            assert!(first.is_none_or(|&r| lo <= r as usize), "{name}: row_lo[{k}] cuts L+U");
            assert_eq!(seq[model.obj_of_block[k].idx()].len(), lay.size(), "{name}: panel {k}");
            rows_cut_above += lo;
            rows_cut_below += n - hi;
        }

        // (b) The factors and pivots are the full-height ones, bit for bit.
        assert_eq!(dense_digest(&model, &seq), *want, "{name}: the extents changed the factors");

        // (c) The factors solve the system.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let r = refsolve::rel_residual(a, &model.solve(&seq, &b), &b);
        assert!(r < 1e-9, "{name}: residual {r}");

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
    assert!(rows_cut_above > 0, "no extent starts below row 0: the lower cut was never exercised");
    assert!(rows_cut_below > 0, "no extent is below n: the upper cut was never exercised");
}
