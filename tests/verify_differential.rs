//! The differential guarantee of the static verifier: plans it accepts
//! execute violation-free on *both* executors at exactly the verified
//! capacity, its per-processor static peaks equal the DES executor's
//! measured arena high-water, and plans it rejects for capacity are
//! exactly the ones the executors refuse to run.

mod common;

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::TaskGraph;
use rapid::core::memreq::{min_mem, window_peaks};
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, taskgen};

fn body(_t: TaskId, ctx: &mut TaskCtx<'_>) {
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for x in ctx.write(d).iter_mut() {
            *x += 1.0;
        }
    }
}

/// Accepted plan => both executors run trace-clean at `cap`, and the
/// static peaks equal the DES peaks. Returns false when the threaded
/// run hit arena fragmentation (a first-fit artifact the counting
/// verifier deliberately does not model) and was skipped.
fn accepted_plan_runs_clean(label: &str, g: &TaskGraph, sched: &Schedule, cap: u64) -> bool {
    let report = rapid::verify::verify_capacity(g, sched, cap);
    assert!(report.accepted(), "{label}: verifier rejected: {:?}", report.findings);

    let nprocs = sched.assign.nprocs;
    let des = DesExecutor::new(
        g,
        sched,
        DesConfig::managed(MachineConfig::unit(nprocs, cap)).with_tracing(TraceConfig::default()),
    )
    .run()
    .unwrap_or_else(|e| panic!("{label}: DES rejected an accepted plan: {e}"));
    assert_eq!(
        report.peak, des.peak_mem,
        "{label}: static window peaks diverge from DES arena high-water"
    );

    let thr_exec = ThreadedExecutor::new(g, sched, cap).with_tracing(TraceConfig::default());
    let spec = thr_exec.plan().trace_spec(cap);
    let des_trace = des.trace.as_ref().expect("DES tracing enabled");
    check(g, sched, &spec, des_trace)
        .unwrap_or_else(|v| panic!("{label}: DES trace violates the protocol: {v}"));

    match thr_exec.run(body) {
        Ok(out) => {
            let trace = out.trace.as_ref().expect("threaded tracing enabled");
            check(g, sched, &spec, trace)
                .unwrap_or_else(|v| panic!("{label}: threaded trace violates the protocol: {v}"));
            true
        }
        // Accepted by counting, yet not contiguously placeable: the one
        // rejection the verifier does not model, and the address plan's.
        Err(e @ ExecError::Fragmented { .. }) => {
            common::assert_planned_rejection(label, &thr_exec, &e);
            false
        }
        Err(e) => panic!("{label}: threaded executor rejected an accepted plan: {e}"),
    }
}

#[test]
fn accepted_random_plans_execute_clean_at_exact_capacity() {
    let spec = RandomGraphSpec { objects: 16, tasks: 40, max_obj_size: 1, ..Default::default() };
    let mut clean = 0;
    for seed in 0..10u64 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 3);
        let assign = owner_compute_assignment(&g, &owner, 3);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let mm = min_mem(&g, &sched).min_mem;
        if accepted_plan_runs_clean(&format!("random-{seed}"), &g, &sched, mm) {
            clean += 1;
        }

        // One unit below, the verifier and both executors agree the plan
        // is not executable (Definition 6).
        let rejected = rapid::verify::verify_capacity(&g, &sched, mm - 1);
        assert!(
            matches!(rejected.findings[..], [Finding::CapacityExceeded { needed, .. }] if needed == mm),
            "random-{seed}: expected CapacityExceeded needing {mm}, got {:?}",
            rejected.findings
        );
        let des_err =
            DesExecutor::new(&g, &sched, DesConfig::managed(MachineConfig::unit(3, mm - 1)))
                .run()
                .expect_err("DES must refuse below MIN_MEM");
        assert!(
            matches!(des_err, ExecError::NonExecutable { .. }),
            "random-{seed}: DES failed differently: {des_err}"
        );
        let thr_exec = ThreadedExecutor::new(&g, &sched, mm - 1);
        let thr_err = thr_exec.run(body).expect_err("threaded must refuse below MIN_MEM");
        assert!(
            matches!(thr_err, ExecError::NonExecutable { .. }),
            "random-{seed}: threaded failed differently: {thr_err}"
        );
        common::assert_planned_rejection(
            &format!("random-{seed} below MIN_MEM"),
            &thr_exec,
            &thr_err,
        );
    }
    assert!(clean >= 6, "only {clean}/10 seeds produced a fragmentation-free threaded run");
}

#[test]
fn fixture_static_peaks_match_des_high_water() {
    // Cholesky fixture with slack, LU fixture with slack: the verifier's
    // window peaks must equal both the memreq window analysis and the
    // DES executor's measured per-processor peaks.
    let a = gen::grid2d_laplacian(6, 5);
    let model = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    assert!(accepted_plan_runs_clean("cholesky", &model.graph, &sched, cap));
    let wp = window_peaks(&model.graph, &sched, cap).expect("feasible with slack");
    let report = rapid::verify::verify_capacity(&model.graph, &sched, cap);
    assert_eq!(report.peak, wp.peak, "verifier peaks diverge from memreq window analysis");

    let a = gen::goodwin_like(60, 4, 1, 5);
    let model = taskgen::lu_1d_model(&a, 10, 3, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 3);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    assert!(accepted_plan_runs_clean("lu", &model.graph, &sched, cap));
    let wp = window_peaks(&model.graph, &sched, cap).expect("feasible with slack");
    let report = rapid::verify::verify_capacity(&model.graph, &sched, cap);
    assert_eq!(report.peak, wp.peak, "verifier peaks diverge from memreq window analysis");
}

#[test]
fn ordering_policies_all_verify_at_their_min_mem() {
    // Whatever the ordering policy (RCP, MPO, DTS), the plan each one
    // produces must pass the verifier at its own MIN_MEM — the static
    // analyses hold for every planner output, not just MPO's.
    let spec = RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 2, ..Default::default() };
    for seed in [3u64, 11, 19] {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        for (name, sched) in [
            ("rcp", rcp_order(&g, &assign, &CostModel::unit())),
            ("mpo", mpo_order(&g, &assign, &CostModel::unit())),
            ("dts", dts_order(&g, &assign, &CostModel::unit())),
        ] {
            let mm = min_mem(&g, &sched).min_mem;
            let report = rapid::verify::verify_capacity(&g, &sched, mm);
            assert!(
                report.accepted(),
                "{name}/seed-{seed} rejected at its own MIN_MEM: {:?}",
                report.findings
            );
            assert_eq!(report.peak.iter().copied().max(), Some(mm));
        }
    }
}

#[test]
fn cold_plan_hash_of_the_planhash_fixture_is_pinned() {
    // `planhash 2000 2026` (crates/rapid-verify/src/bin/planhash.rs is
    // this fixture at any size): DCG, slice `H`, merged-DTS order, MAP
    // placement and verifier in one number. A plan that moves by one task
    // or one window moves it; CI pins the 20 000-task value.
    let (tasks, nprocs) = (2000usize, 8usize);
    let spec = RandomGraphSpec {
        objects: tasks / 4,
        tasks,
        max_obj_size: 4,
        max_reads: 3,
        update_prob: 0.35,
        accum_prob: 0.05,
        max_weight: 4.0,
    };
    let g = random_irregular_graph(2026, &spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let dcg = rapid::core::dcg::Dcg::build(&g);
    let hmax = rapid::sched::slice_h(&g, &assign, &dcg).into_iter().max().unwrap_or(0);
    let mut perm = vec![0u64; nprocs];
    for d in g.objects() {
        perm[assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let capacity = perm.iter().copied().max().unwrap_or(0) + 2 * hmax + 64;
    let cost = CostModel::unit();
    let (rp, planned) = rapid::verify::Replanner::new(&g, &assign, &cost, capacity, 1);
    assert!(planned.report.accepted(), "{:?}", planned.report.findings);
    assert_eq!(rapid::verify::plan_hash(rp.sched(), &planned.placement), 0x2fc9_d942_017a_a78e);
}
