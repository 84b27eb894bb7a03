//! Seeded chaos harness (the robustness tentpole): drive the threaded
//! executor through deterministic fault-injection scenarios — delayed and
//! reordered puts, rejected/delayed address-mailbox hand-offs, transient
//! arena allocation failures, per-task worker stalls — on random irregular
//! DAGs and the sparse Cholesky/LU end-to-end graphs.
//!
//! The contract under test is the hardened form of the paper's Theorem 1:
//! every faulted run must either complete with results identical to the
//! fault-free run, or fail with a *typed* resource error (`Fragmented`,
//! `NonExecutable`). It must never deadlock (`Stalled`), never corrupt
//! data, and never let a panic escape `run()`.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, refsolve, taskgen};
use rapid::trace::{chrome_trace_json, TraceConfig};
use std::time::Duration;

mod common;

/// Fault seeds per scenario. Each seed re-derives every per-site stream,
/// so the matrix covers `scenarios × FAULT_SEEDS` distinct injections.
const FAULT_SEEDS: u64 = 16;

fn body(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for (i, x) in ctx.write(d).iter_mut().enumerate() {
            *x = 0.5 * *x + acc + t.0 as f64 + i as f64 * 0.25;
        }
    }
}

/// Judge one chaos run: identical results, or a typed resource failure.
/// `Stalled` (a deadlock the watchdog broke) and any other error fail the
/// harness; a panic escaping `run()` would fail the test on its own.
fn judge(
    label: &str,
    result: Result<rapid::rt::threaded::ThreadedOutcome, ExecError>,
    reference: &[Vec<f64>],
) {
    match result {
        Ok(out) => {
            assert_eq!(out.objects, reference, "{label}: faulted run corrupted results");
        }
        Err(ExecError::Fragmented { .. }) | Err(ExecError::NonExecutable { .. }) => {}
        Err(e @ ExecError::Stalled { .. }) => panic!("{label}: deadlocked under faults: {e}"),
        Err(e) => panic!("{label}: unexpected failure: {e}"),
    }
}

#[test]
fn scenario_matrix_random_dags() {
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    // Slots the contention-heavy scenario found busy: an injected rejection
    // is the one way left into the blocking leg of Theorem 1, and the
    // matrix has to keep taking it.
    let mut contention_busy = 0;
    for graph_seed in [3u64, 44] {
        let g = random_irregular_graph(graph_seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        // Slack over MIN_MEM keeps genuine first-fit fragmentation out of
        // the way: the only failures left are injected ones.
        let cap = min_mem(&g, &sched).min_mem + 8;
        let reference = run_sequential(&g, body);
        for fault_seed in 0..FAULT_SEEDS {
            for (name, plan) in FaultPlan::scenarios(fault_seed) {
                let exec = ThreadedExecutor::new(&g, &sched, cap)
                    .with_faults(plan)
                    .with_tracing(TraceConfig::default());
                let spec = exec.plan().trace_spec(cap);
                let label = format!("graph {graph_seed} {name} seed {fault_seed}");
                let result = exec.run(body);
                common::judge_trace(&label, &g, &sched, &spec, &result);
                if name == "contention-heavy" {
                    // Rejections only delay: the run completes (and `judge`
                    // holds its result to the reference).
                    let out = result.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
                    let metrics = out.metrics.as_ref().expect("tracing was enabled");
                    contention_busy += metrics.iter().map(|m| m.mailbox_busy).sum::<u32>();
                }
                judge(&label, result, &reference);
            }
        }
    }
    assert!(contention_busy >= 1, "no rejected hand-off blocked a MAP");
}

#[test]
fn scenario_matrix_at_exact_min_mem() {
    // The hardest memory regime: exactly MIN_MEM, where the retry /
    // window-truncation ladder actually has to work. Typed `Fragmented`
    // failures are legitimate here; stalls and corruption are not.
    let spec = RandomGraphSpec { objects: 16, tasks: 40, ..Default::default() };
    let g = random_irregular_graph(7, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let mm = min_mem(&g, &sched).min_mem;
    let reference = run_sequential(&g, body);
    for fault_seed in 0..FAULT_SEEDS {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&g, &sched, mm)
                .with_faults(plan)
                .with_tracing(TraceConfig::default());
            let spec = exec.plan().trace_spec(mm);
            let label = format!("min-mem {name} seed {fault_seed}");
            let result = exec.run(body);
            common::judge_trace(&label, &g, &sched, &spec, &result);
            judge(&label, result, &reference);
        }
    }
}

#[test]
fn faulted_runs_are_reproducible() {
    // Same graph, same fault seed: both runs must land in the same place
    // (identical results; the draws per site are identical even though
    // wall-clock interleavings differ).
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(11, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 3);
    let assign = owner_compute_assignment(&g, &owner, 3);
    let sched = dts_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = run_sequential(&g, body);
    for fault_seed in [0u64, 9] {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            for round in 0..2 {
                let exec = ThreadedExecutor::new(&g, &sched, cap).with_faults(plan.clone());
                judge(
                    &format!("{name} seed {fault_seed} round {round}"),
                    exec.run(body),
                    &reference,
                );
            }
        }
    }
}

#[test]
fn faulted_traces_are_byte_identical_per_seed() {
    // Determinism regression: the DES is the executor with a defined
    // notion of time, so a seeded faulted run must not just reach the
    // same end state — its *entire event trace* must be byte-identical
    // across reruns, for every fault scenario.
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(11, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 3);
    let assign = owner_compute_assignment(&g, &owner, 3);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    for fault_seed in [0u64, 9] {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let run = || {
                // The DES models delay sites only; rejection-site knobs
                // must be stripped explicitly (with_faults refuses them).
                let cfg = DesConfig::managed(MachineConfig::unit(3, cap))
                    .with_faults(plan.delay_sites_only())
                    .expect("delay-only plan")
                    .with_tracing(TraceConfig::default());
                let out = DesExecutor::new(&g, &sched, cfg)
                    .run()
                    .unwrap_or_else(|e| panic!("{name} seed {fault_seed}: DES failed: {e}"));
                chrome_trace_json(out.trace.as_ref().expect("tracing enabled"), Some(&g))
            };
            assert_eq!(
                run(),
                run(),
                "{name} seed {fault_seed}: seeded rerun produced a different trace"
            );
        }
    }
}

#[test]
fn cholesky_end_to_end_under_faults() {
    // The full sparse-Cholesky pipeline under every scenario. The faulted
    // run must match a fault-free threaded baseline bitwise (the schedule
    // fixes the floating-point reduction order, so faults may only change
    // timing) and still factor the matrix.
    let a = gen::grid2d_laplacian(6, 5);
    let model = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    let baseline = ThreadedExecutor::new(&model.graph, &sched, cap)
        .run_with_init(model.body(), model.init(&a))
        .expect("fault-free baseline must run");
    let l = model.extract_l(&baseline.objects);
    assert!(refsolve::cholesky_defect(&a, &l) < 1e-8, "baseline must factor correctly");
    for fault_seed in 0..FAULT_SEEDS {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&model.graph, &sched, cap).with_faults(plan);
            judge(
                &format!("cholesky {name} seed {fault_seed}"),
                exec.run_with_init(model.body(), model.init(&a)),
                &baseline.objects,
            );
        }
    }
}

#[test]
fn lu_end_to_end_under_faults() {
    // Sparse LU with partial pivoting: pivot choices depend on data
    // values, so a fault that corrupted even one panel would cascade into
    // different pivots and a visibly different factorization.
    let a = gen::goodwin_like(60, 4, 1, 5);
    let model = taskgen::lu_1d_model(&a, 10, 3, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 3);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    let baseline = ThreadedExecutor::new(&model.graph, &sched, cap)
        .run_with_init(model.body(), model.init(&a))
        .expect("fault-free baseline must run");
    let n = a.ncols;
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let x = model.solve(&baseline.objects, &b);
    assert!(refsolve::rel_residual(&a, &x, &b) < 1e-9, "baseline must solve");
    for fault_seed in 0..FAULT_SEEDS {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&model.graph, &sched, cap).with_faults(plan);
            judge(
                &format!("lu {name} seed {fault_seed}"),
                exec.run_with_init(model.body(), model.init(&a)),
                &baseline.objects,
            );
        }
    }
}

#[test]
fn task_panic_under_faults_is_typed() {
    // A panicking task body plus active fault injection: the run must
    // still come down as a structured `WorkerPanicked`, with every other
    // worker exiting through the poison path instead of hanging.
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(5, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let victim = TaskId(17);
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_faults(FaultPlan::delay_heavy(2));
    let out = exec.run(move |t, ctx| {
        if t == victim {
            panic!("chaos: injected body panic");
        }
        body(t, ctx)
    });
    match out {
        Err(ExecError::WorkerPanicked { task: Some(t), payload, .. }) => {
            assert_eq!(t, victim);
            assert!(payload.contains("injected body panic"), "payload was {payload:?}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn access_violation_under_faults_is_typed() {
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(6, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let victim = TaskId(11);
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_faults(FaultPlan::mixed(3));
    let out = exec.run(move |t, ctx| {
        if t == victim {
            // Read an object that is (almost surely) not in this task's
            // access set; ObjId well out of range guarantees it.
            ctx.read(ObjId(10_000));
        }
        body(t, ctx)
    });
    match out {
        Err(ExecError::AccessViolation { task, obj, .. }) => {
            assert_eq!(task, victim);
            assert_eq!(obj, ObjId(10_000));
        }
        other => panic!("expected AccessViolation, got {other:?}"),
    }
}

#[test]
fn watchdog_snapshot_names_every_processor() {
    // A genuine stall (one worker holds a message hostage beyond the
    // watchdog) must produce the diagnostic snapshot with one row per
    // processor, not just the bare `Stalled`.
    let spec = RandomGraphSpec { objects: 10, tasks: 24, ..Default::default() };
    let g = random_irregular_graph(8, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 3);
    let assign = owner_compute_assignment(&g, &owner, 3);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_watchdog(Duration::from_millis(80));
    let out = exec.run(|t, ctx| {
        if t == TaskId(0) {
            std::thread::sleep(Duration::from_millis(600));
        }
        body(t, ctx)
    });
    match out {
        Err(ExecError::Stalled { snapshot: Some(snap), .. }) => {
            assert_eq!(snap.procs.len(), 3, "snapshot must cover every processor");
            assert_eq!(snap.watchdog_ms, 80);
            let rendered = snap.to_string();
            for p in 0..3 {
                assert!(rendered.contains(&format!("P{p}")), "snapshot must name P{p}");
            }
        }
        // The sleeping task may finish before a watchdog fires on loaded
        // machines only if no cross-processor wait exceeded 80 ms; with a
        // 600 ms hostage that cannot happen — any other outcome is a bug.
        other => panic!("expected Stalled with snapshot, got {other:?}"),
    }
}
