//! Every fault scenario, unarmed: a faulted run gives identical results
//! unless its plan was rejected, never `Stalled`; seeded reruns agree, and
//! the DES's trace is byte-identical. Slices of the sweep (see `sweep/mod.rs`), and the
//! typed failures that are not sweep-shaped.

mod common;
mod sweep;

use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::ExecError;
use std::time::Duration;
use sweep::*;

#[test]
fn scenario_matrix_random_dags() {
    // Rejected hand-offs are the one way left into the blocking leg of
    // Theorem 1, and the matrix keeps taking it.
    let s = spec(12, 30, 4);
    let mut cases = Vec::new();
    for seed in [3, 44] {
        let base = random(seed, &s, 4, Mpo, Slack(8)).traced_on(Threads);
        cases.extend(scenarios(&base, 0..FAULT_SEEDS));
    }
    let heavy = |c: &Case| matches!(c.fault, Some(Scenario("contention-heavy", _)));
    let (heavy, rest): (Vec<_>, Vec<_>) = cases.into_iter().partition(heavy);
    assert!(sweep(&heavy).busy >= 1, "no rejected hand-off blocked a MAP");
    sweep(&rest);
}

#[test]
fn scenario_matrix_at_exact_min_mem() {
    let tight = random(7, &spec(16, 40, 4), 4, Mpo, AtMin).traced_on(Threads);
    sweep(&scenarios(&tight, 0..FAULT_SEEDS));
}

#[test]
fn faulted_runs_are_reproducible() {
    let twice =
        Case { driver: Threads, rounds: 2, ..random(11, &spec(12, 30, 4), 3, Dts, Slack(8)) };
    sweep(&scenarios(&twice, [0, 9].into_iter()));
}

#[test]
fn faulted_traces_are_byte_identical_per_seed() {
    // Rejection sites included: the DES wakes a core an injected refusal
    // blocked.
    let g11 = random(11, &spec(12, 30, 4), 3, Mpo, Slack(8));
    let cases = scenarios(&Case { rounds: 2, ..g11.traced_on(Des(Unit)) }, 0..10);
    let t = sweep(&cases);
    assert_eq!(t.des_ok, cases.len(), "{t:?}");
}

fn under_faults(graph: Graph, p: usize) {
    let base = Case { driver: Threads, ..at(graph, p, Mpo, Slack(256)) };
    let t = sweep(&scenarios(&base, 0..FAULT_SEEDS));
    assert_eq!(t.thr_ok, 3 * FAULT_SEEDS as usize, "{t:?}");
}

#[test]
fn cholesky_end_to_end_under_faults() {
    under_faults(Cholesky, 4);
}

#[test]
fn lu_end_to_end_under_faults() {
    under_faults(Lu, 3);
}

#[test]
fn task_panic_under_faults_is_typed() {
    // The panic comes down as a structured `WorkerPanicked`, every other
    // worker leaving through the poison path.
    let (g, sched, cap) = built(&victim());
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_faults(FaultPlan::delay_heavy(2));
    let out = exec.run(|t, ctx| {
        assert!(t != TaskId(17), "chaos: injected body panic");
        rmw(t, ctx)
    });
    let Err(ExecError::WorkerPanicked { task: Some(TaskId(17)), payload, .. }) = out else {
        panic!("expected WorkerPanicked, got {out:?}");
    };
    assert!(payload.contains("injected body panic"), "payload was {payload:?}");
}

#[test]
fn access_violation_under_faults_is_typed() {
    let (g, sched, cap) = built(&random(6, &spec(12, 30, 4), 4, Mpo, Slack(8)));
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_faults(FaultPlan::mixed(3));
    let out = exec.run(|t, ctx| {
        if t == TaskId(11) {
            ctx.read(ObjId(10_000));
        }
        rmw(t, ctx)
    });
    let Err(ExecError::AccessViolation { task, obj, .. }) = out else {
        panic!("expected AccessViolation, got {out:?}");
    };
    assert_eq!((task, obj), (TaskId(11), ObjId(10_000)));
}

#[test]
fn watchdog_snapshot_names_every_processor() {
    // One worker holds a message hostage 600 ms past an 80 ms watchdog:
    // the stall comes with one row per processor.
    let (g, sched, cap) = built(&random(8, &spec(10, 24, 4), 3, Mpo, Slack(8)));
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_watchdog(Duration::from_millis(80));
    let out = exec.run(|t, ctx| {
        if t == TaskId(0) {
            std::thread::sleep(Duration::from_millis(600));
        }
        rmw(t, ctx)
    });
    let Err(ExecError::Stalled { snapshot: Some(snap), .. }) = out else {
        panic!("expected Stalled with snapshot, got {out:?}");
    };
    assert_eq!((snap.procs.len(), snap.watchdog_ms), (3, 80));
    let rendered = snap.to_string();
    assert!((0..3).all(|p| rendered.contains(&format!("P{p}"))), "a processor is missing");
}
