//! Correctness of the aggregating comm backend: per-destination message
//! coalescing must be *invisible* at the protocol level. An aggregated
//! threaded run has to produce (a) the same protocol-event skeleton as
//! the DES reference, (b) bitwise-identical numeric results to the
//! direct (single-slot) backend, (c) the same fault-tolerance contract
//! as the direct backend under the full chaos matrix, and (d) progress
//! even when the flush threshold is so large that only the service-loop
//! / pre-park / END-barrier flushes ever deliver anything.
//!
//! The one observable difference aggregation is *allowed* to make is
//! mailbox occupancy: more than one package may be in flight per
//! (src, dst) pair, so the replay checker's single-slot discipline is
//! relaxed via `ProtocolSpec::buffered_mailboxes` — exactly the switch
//! the DES `addr_buffering` ablation uses.

mod common;

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::TaskGraph;
use rapid::core::memreq::min_mem;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, refsolve, taskgen};
use rapid::trace::{check, chrome_trace_json, skeletons, TraceConfig, TraceSet};
use std::time::Duration;

/// Fault seeds per chaos scenario (matches `chaos_stress.rs`).
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

/// Export both traces for post-mortem inspection and return the paths.
fn dump_traces(label: &str, g: &TaskGraph, des: &TraceSet, thr: &TraceSet) -> String {
    let dir = std::path::Path::new("target/trace-failures");
    std::fs::create_dir_all(dir).expect("create dump dir");
    let d = dir.join(format!("agg-{label}-des.json"));
    let t = dir.join(format!("agg-{label}-threaded.json"));
    std::fs::write(&d, chrome_trace_json(des, Some(g))).expect("write DES trace");
    std::fs::write(&t, chrome_trace_json(thr, Some(g))).expect("write threaded trace");
    format!("{} / {}", d.display(), t.display())
}

/// Run one schedule through the DES reference and the *aggregating*
/// threaded backend; check both traces (the threaded one against the
/// buffered-mailbox relaxation) and compare their skeletons. Returns
/// false when the threaded executor's address plan rejects the capacity,
/// which it must have said before the run.
fn conform_aggregated(
    label: &str,
    g: &TaskGraph,
    sched: &Schedule,
    cap: u64,
    threshold: usize,
) -> bool {
    let nprocs = sched.assign.nprocs;
    let des_exec = DesExecutor::new(
        g,
        sched,
        DesConfig::managed(MachineConfig::unit(nprocs, cap)).with_tracing(TraceConfig::default()),
    );
    let des = des_exec.run().unwrap_or_else(|e| panic!("{label}: DES failed: {e}"));
    let thr_exec = ThreadedExecutor::new(g, sched, cap)
        .with_aggregation(threshold)
        .with_tracing(TraceConfig::default());
    let strict_spec = thr_exec.plan().trace_spec(cap);
    // Aggregation legitimately parks several packages per (src, dst)
    // pair; every other obligation stays in force.
    let mut buffered_spec = strict_spec.clone();
    buffered_spec.buffered_mailboxes = true;
    let thr = match thr_exec.run(body) {
        Ok(out) => out,
        Err(e @ ExecError::Fragmented { .. }) => {
            common::assert_planned_rejection(label, &thr_exec, &e);
            return false;
        }
        Err(e) => panic!("{label}: aggregated threaded failed: {e}"),
    };
    let des_trace = des.trace.as_ref().expect("DES tracing enabled");
    let thr_trace = thr.trace.as_ref().expect("threaded tracing enabled");

    if let Err(v) = check(g, sched, &strict_spec, des_trace) {
        let paths = dump_traces(label, g, des_trace, thr_trace);
        panic!("{label}: DES trace violates the protocol: {v}\ntraces: {paths}");
    }
    if let Err(v) = check(g, sched, &buffered_spec, thr_trace) {
        let paths = dump_traces(label, g, des_trace, thr_trace);
        panic!("{label}: aggregated trace violates the protocol: {v}\ntraces: {paths}");
    }

    assert_eq!(des.maps, thr.maps, "{label}: MAP counts diverge");
    let ds = skeletons(des_trace);
    let ts = skeletons(thr_trace);
    for p in 0..nprocs {
        if ds[p] != ts[p] {
            let paths = dump_traces(label, g, des_trace, thr_trace);
            let diff = ds[p].iter().zip(ts[p].iter()).position(|(a, b)| a != b).map_or_else(
                || format!("lengths {} vs {}", ds[p].len(), ts[p].len()),
                |i| {
                    format!(
                        "first divergence at {i}: des {:?} vs aggregated {:?}",
                        ds[p][i], ts[p][i]
                    )
                },
            );
            panic!("{label}: P{p} protocol skeletons diverge ({diff})\ntraces: {paths}");
        }
    }
    true
}

#[test]
fn aggregated_random_dags_match_des_skeleton() {
    // A small threshold forces mixed behaviour: some packages ride the
    // direct fast path, others coalesce and flush in batches.
    let spec = RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 1, ..Default::default() };
    let mut compared = 0;
    for seed in 0..12u64 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 3);
        let assign = owner_compute_assignment(&g, &owner, 3);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let cap = min_mem(&g, &sched).min_mem + 5;
        if conform_aggregated(&format!("random-{seed}"), &g, &sched, cap, 4) {
            compared += 1;
        }
    }
    assert!(compared >= 8, "only {compared}/12 seeds produced a comparable run");
}

#[test]
fn aggregated_fixtures_match_des_skeleton() {
    let a = gen::grid2d_laplacian(6, 5);
    let model = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    assert!(
        conform_aggregated("cholesky", &model.graph, &sched, cap, 64),
        "cholesky run must be comparable at MIN_MEM + 256"
    );

    let a = gen::goodwin_like(60, 4, 1, 5);
    let model = taskgen::lu_1d_model(&a, 10, 3, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 3);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    assert!(
        conform_aggregated("lu", &model.graph, &sched, cap, 64),
        "LU run must be comparable at MIN_MEM + 256"
    );
}

#[test]
fn aggregated_results_are_bitwise_identical_to_direct() {
    // The schedule fixes the floating-point reduction order, so batching
    // address packages may change *timing* only: every object buffer must
    // come back bit-for-bit equal to the direct backend's, across the
    // whole threshold ladder (1 = flush every package, MAX = flush only
    // from the service loop).
    let spec = RandomGraphSpec { objects: 20, tasks: 60, ..Default::default() };
    for seed in [2u64, 19, 31] {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let cap = min_mem(&g, &sched).min_mem + 8;
        let direct = ThreadedExecutor::new(&g, &sched, cap)
            .run(body)
            .unwrap_or_else(|e| panic!("seed {seed}: direct run failed: {e}"));
        let reference = run_sequential(&g, body);
        assert_eq!(direct.objects, reference, "seed {seed}: direct diverges from sequential");
        for threshold in [1usize, 4, 64, usize::MAX] {
            let agg = ThreadedExecutor::new(&g, &sched, cap)
                .with_aggregation(threshold)
                .run(body)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} threshold {threshold}: aggregated run failed: {e}")
                });
            assert_eq!(
                agg.objects, direct.objects,
                "seed {seed} threshold {threshold}: aggregation changed numeric results"
            );
        }
    }
}

#[test]
fn aggregated_cholesky_still_factors() {
    // End-to-end numeric check through the aggregating backend: the
    // factor must equal the direct backend's bitwise and still solve.
    let a = gen::grid2d_laplacian(6, 5);
    let model = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    let direct = ThreadedExecutor::new(&model.graph, &sched, cap)
        .run_with_init(model.body(), model.init(&a))
        .expect("direct baseline must run");
    let agg = ThreadedExecutor::new(&model.graph, &sched, cap)
        .with_aggregation(16)
        .run_with_init(model.body(), model.init(&a))
        .expect("aggregated run must run");
    assert_eq!(agg.objects, direct.objects, "aggregation changed the factorization");
    let l = model.extract_l(&agg.objects);
    assert!(refsolve::cholesky_defect(&a, &l) < 1e-8, "aggregated factor must be correct");
}

#[test]
fn chaos_matrix_with_aggregation() {
    // The full fault matrix (every scenario × FAULT_SEEDS seeds) on the
    // aggregating backend: identical results or a typed resource error,
    // never a stall, never corruption — and any successful run must
    // leave an invariant-clean trace behind (checked under the
    // buffered-mailbox relaxation).
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(3, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = run_sequential(&g, body);
    for fault_seed in 0..FAULT_SEEDS {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&g, &sched, cap)
                .with_aggregation(4)
                .with_faults(plan)
                .with_tracing(TraceConfig::default());
            let mut spec = exec.plan().trace_spec(cap);
            spec.buffered_mailboxes = true;
            let label = format!("agg {name} seed {fault_seed}");
            match exec.run(body) {
                Ok(out) => {
                    let trace = out.trace.as_ref().expect("tracing was enabled");
                    if let Err(v) = check(&g, &sched, &spec, trace) {
                        panic!("{label}: faulted run violated the protocol: {v}");
                    }
                    assert_eq!(out.objects, reference, "{label}: faulted run corrupted results");
                }
                Err(ExecError::Fragmented { .. }) | Err(ExecError::NonExecutable { .. }) => {}
                Err(e @ ExecError::Stalled { .. }) => {
                    panic!("{label}: deadlocked under faults: {e}")
                }
                Err(e) => panic!("{label}: unexpected failure: {e}"),
            }
        }
    }
}

#[test]
fn recovery_heals_transient_panic_under_aggregation() {
    // Window rollback × the flush ladder: a task that panics exactly once
    // per run must be healed by window-granular recovery even when its
    // window's packages are parked in aggregation buffers. The re-executed
    // window must neither duplicate a package that already flushed (the
    // per-message sent guard) nor lose one that was still parked — both
    // would show up as corrupted results or a checker violation.
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(3, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = run_sequential(&g, body);
    let victim = TaskId(17);
    for threshold in [1usize, 4, usize::MAX] {
        let armed = std::sync::atomic::AtomicBool::new(true);
        let exec = ThreadedExecutor::new(&g, &sched, cap)
            .with_aggregation(threshold)
            .with_recovery(rapid::rt::RecoveryPolicy::new())
            .with_tracing(TraceConfig::default());
        let mut spec = exec.plan().trace_spec(cap);
        spec.buffered_mailboxes = true;
        let out = exec
            .run(|t, ctx| {
                if t == victim && armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    panic!("chaos: transient body panic under aggregation");
                }
                body(t, ctx)
            })
            .unwrap_or_else(|e| panic!("threshold {threshold}: recovery failed: {e}"));
        assert_eq!(
            out.objects, reference,
            "threshold {threshold}: recovered aggregated run corrupted results"
        );
        let trace = out.trace.as_ref().expect("tracing was enabled");
        if let Err(v) = check(&g, &sched, &spec, trace) {
            panic!("threshold {threshold}: recovered run violated the protocol: {v}");
        }
    }
}

#[test]
fn unbounded_threshold_never_starves_the_flush() {
    // Regression for flush starvation: with `usize::MAX` as threshold no
    // package ever flushes on count, so delivery relies entirely on the
    // service-round flush, the pre-park flush in `Backoff`, and the END
    // barrier draining `Port::pending()`. A short watchdog turns any
    // missed flush path into a hard `Stalled` failure instead of a
    // 30-second hang. The tight memory cap maximizes suspended sends and
    // MAP blocking, i.e. the windows where a buffered package is the
    // only thing standing between a peer and progress.
    let spec = RandomGraphSpec { objects: 16, tasks: 40, max_obj_size: 1, ..Default::default() };
    let mut completed = 0;
    for seed in 20..28u64 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let cap = min_mem(&g, &sched).min_mem;
        let reference = run_sequential(&g, body);
        let exec = ThreadedExecutor::new(&g, &sched, cap)
            .with_aggregation(usize::MAX)
            .with_watchdog(Duration::from_secs(2));
        match exec.run(body) {
            Ok(out) => {
                assert_eq!(out.objects, reference, "seed {seed}: starved run corrupted results");
                completed += 1;
            }
            Err(e @ ExecError::Fragmented { .. }) => {
                common::assert_planned_rejection(&format!("seed {seed}"), &exec, &e)
            }
            Err(e @ ExecError::Stalled { .. }) => {
                panic!("seed {seed}: flush starvation deadlock: {e}")
            }
            Err(e) => panic!("seed {seed}: unexpected failure: {e}"),
        }
    }
    assert!(completed >= 5, "only {completed}/8 seeds completed at exact MIN_MEM");
}
