//! Differential protocol conformance: the threaded and DES executors must
//! emit the *same* protocol-event skeleton (MAPs with their free/alloc
//! lists, address packages, message receives, task executions, send
//! initiations) for the same schedule, even though their notions of time
//! are unrelated — and both traces must satisfy the Theorem-1 obligations
//! under the replay checker.
//!
//! On a mismatch the offending traces are exported as Chrome-trace JSON
//! under `target/trace-failures/` so CI can upload them as artifacts.

mod common;

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::TaskGraph;
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, taskgen};
use rapid::trace::{check, chrome_trace_json, skeletons, TraceConfig, TraceSet};

fn body(_t: TaskId, ctx: &mut TaskCtx<'_>) {
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for x in ctx.write(d).iter_mut() {
            *x += 1.0;
        }
    }
}

/// Export both traces for post-mortem inspection and return the paths.
fn dump_traces(label: &str, g: &TaskGraph, des: &TraceSet, thr: &TraceSet) -> String {
    let dir = std::path::Path::new("target/trace-failures");
    std::fs::create_dir_all(dir).expect("create dump dir");
    let d = dir.join(format!("{label}-des.json"));
    let t = dir.join(format!("{label}-threaded.json"));
    std::fs::write(&d, chrome_trace_json(des, Some(g))).expect("write DES trace");
    std::fs::write(&t, chrome_trace_json(thr, Some(g))).expect("write threaded trace");
    format!("{} / {}", d.display(), t.display())
}

/// Run one schedule through both executors under tracing; check both
/// traces and compare their skeletons. Returns false when the threaded
/// executor's address plan rejects the capacity (a best-fit arena cannot
/// follow the counted placement), which it must have said before the run.
fn conform<F>(label: &str, g: &TaskGraph, sched: &Schedule, cap: u64, body: F) -> bool
where
    F: Fn(TaskId, &mut TaskCtx<'_>) + Send + Sync,
{
    let nprocs = sched.assign.nprocs;
    let des_exec = DesExecutor::new(
        g,
        sched,
        DesConfig::managed(MachineConfig::unit(nprocs, cap)).with_tracing(TraceConfig::default()),
    );
    let des = des_exec.run().unwrap_or_else(|e| panic!("{label}: DES failed: {e}"));
    let thr_exec = ThreadedExecutor::new(g, sched, cap).with_tracing(TraceConfig::default());
    let spec = thr_exec.plan().trace_spec(cap);
    let thr = match thr_exec.run(body) {
        Ok(out) => out,
        Err(e @ ExecError::Fragmented { .. }) => {
            common::assert_planned_rejection(label, &thr_exec, &e);
            return false;
        }
        Err(e) => panic!("{label}: threaded failed: {e}"),
    };
    let des_trace = des.trace.as_ref().expect("DES tracing enabled");
    let thr_trace = thr.trace.as_ref().expect("threaded tracing enabled");

    for (which, trace) in [("des", des_trace), ("threaded", thr_trace)] {
        if let Err(v) = check(g, sched, &spec, trace) {
            let paths = dump_traces(label, g, des_trace, thr_trace);
            panic!("{label}: {which} trace violates the protocol: {v}\ntraces: {paths}");
        }
    }

    // MAP windows come from the shared planner, so the counts must agree
    // before the finer-grained skeleton comparison even makes sense.
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
                        "first divergence at {i}: des {:?} vs threaded {:?}",
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
fn random_dags_agree_with_slack() {
    let spec = RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 1, ..Default::default() };
    let mut compared = 0;
    for seed in 0..12u64 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 3);
        let assign = owner_compute_assignment(&g, &owner, 3);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let cap = min_mem(&g, &sched).min_mem + 5;
        if conform(&format!("random-{seed}"), &g, &sched, cap, body) {
            compared += 1;
        }
    }
    assert!(compared >= 8, "only {compared}/12 seeds produced a comparable run");
}

#[test]
fn random_dags_agree_at_exact_min_mem() {
    // The tight regime drives multiple MAPs, suspended sends and mailbox
    // blocking — the interesting part of the protocol.
    let spec = RandomGraphSpec { objects: 16, tasks: 40, max_obj_size: 1, ..Default::default() };
    let mut compared = 0;
    for seed in 20..28u64 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let cap = min_mem(&g, &sched).min_mem;
        if conform(&format!("minmem-{seed}"), &g, &sched, cap, body) {
            compared += 1;
        }
    }
    assert!(compared >= 5, "only {compared}/8 seeds produced a comparable run");
}

#[test]
fn idle_processor_agrees() {
    // Figure 2's schedule (c) on three processors: the third owns nothing
    // and runs nothing, and performs the one empty MAP the static
    // placement plans for it — under both drivers.
    let g = rapid::core::fixtures::figure2_dag();
    let c = rapid::core::fixtures::figure2_schedule_c();
    let assign = Assignment { nprocs: 3, ..c.assign.clone() };
    let sched = Schedule { assign, order: vec![c.order[0].clone(), c.order[1].clone(), vec![]] };
    assert!(conform("idle-processor", &g, &sched, 8, body));
    let plan = rapid::rt::RtPlan::new(&g, &sched);
    let placed = plan.place_maps(&g, &sched, 8, rapid::rt::MapWindow::Greedy).expect("cap 8 fits");
    assert_eq!(placed.per_proc[2].len(), 1);
}

#[test]
fn cholesky_fixture_agrees() {
    let a = gen::grid2d_laplacian(6, 5);
    let model = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    assert!(
        conform("cholesky", &model.graph, &sched, cap, body),
        "cholesky run must be comparable at MIN_MEM + 256"
    );
}

#[test]
fn lu_fixture_agrees() {
    let a = gen::goodwin_like(60, 4, 1, 5);
    let model = taskgen::lu_1d_model(&a, 10, 3, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 3);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let cap = min_mem(&model.graph, &sched).min_mem + 256;
    assert!(
        conform("lu", &model.graph, &sched, cap, body),
        "LU run must be comparable at MIN_MEM + 256"
    );
}

#[test]
fn des_trace_is_byte_identical_across_reruns() {
    // Virtual-time stamps make the DES trace a pure function of its
    // inputs: two runs of the same configuration (including a seeded
    // fault plan) must export byte-identical Chrome-trace JSON.
    let spec = RandomGraphSpec { objects: 16, tasks: 40, ..Default::default() };
    let g = random_irregular_graph(13, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 3);
    let assign = owner_compute_assignment(&g, &owner, 3);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem;
    let run = |faults: Option<rapid::machine::FaultPlan>| {
        let mut cfg =
            DesConfig::managed(MachineConfig::unit(3, cap)).with_tracing(TraceConfig::default());
        if let Some(f) = faults {
            cfg = cfg.with_faults(f).expect("delay-only plan");
        }
        let out = DesExecutor::new(&g, &sched, cfg).run().expect("DES run");
        chrome_trace_json(out.trace.as_ref().expect("tracing enabled"), Some(&g))
    };
    assert_eq!(run(None), run(None), "fault-free reruns must match byte for byte");
    let f = || Some(rapid::machine::FaultPlan::delay_heavy(7));
    assert_eq!(run(f()), run(f()), "same-seed faulted reruns must match byte for byte");
    assert_ne!(run(None), run(f()), "the fault plan must actually perturb the trace");
}
