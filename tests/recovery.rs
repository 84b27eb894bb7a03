//! Self-healing chaos harness: the recovery tentpole upgrades the chaos
//! contract from "correct-or-typed-failure" to "bitwise-correct despite
//! faults". With a [`RecoveryPolicy`] armed, every faulted run must either
//! complete with results identical to the fault-free reference — healing
//! transient faults through site-level retries and window-granular
//! rollback & re-execution — or fail with a typed `Unrecoverable` naming
//! the exhausted budget. Bare `Fragmented` and `Stalled` are contract
//! violations once recovery is armed — with one exception that is no run
//! at all: a capacity the executor's address plan rejects is reported
//! before any window exists to be retried, armed or not.
//!
//! On top of the in-place ladder, the quarantine tests drive the
//! [`Supervisor`] + `Replanner::replan_survivors` loop end to end: a
//! deterministically broken processor is implicated, quarantined, and its
//! work re-planned onto the survivors, which then finish the job.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, RecoveryPolicy, Supervisor, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::trace::{check, check_tier, skeletons, CanonEvent, TraceConfig, TraceTier};
use rapid::verify::Replanner;
use std::sync::atomic::{AtomicBool, Ordering};

mod common;

/// Fault seeds per scenario, mirroring the chaos harness.
const FAULT_SEEDS: u64 = 16;

/// Read-modify-write body: replaying a window without restoring its
/// checkpoint would visibly corrupt the results, so bitwise equality with
/// the fault-free reference exercises the rollback path for real.
fn body(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for (i, x) in ctx.write(d).iter_mut().enumerate() {
            *x = 0.5 * *x + acc + t.0 as f64 + i as f64 * 0.25;
        }
    }
}

/// Judge one recovered chaos run: bitwise-identical results (`true`), or
/// a typed `Unrecoverable` naming the exhausted budget. Anything else — a
/// bare `Fragmented`, a watchdog `Stalled`, corruption — fails the harness.
fn judge_recovered(
    label: &str,
    result: Result<rapid::rt::threaded::ThreadedOutcome, ExecError>,
    reference: &[Vec<f64>],
) -> bool {
    match result {
        Ok(out) => {
            assert_eq!(out.objects, reference, "{label}: recovered run corrupted results");
            true
        }
        Err(ExecError::Unrecoverable { attempts, .. }) => {
            assert!(attempts > 0, "{label}: Unrecoverable must name the exhausted budget");
            false
        }
        Err(e) => panic!("{label}: recovery armed, but run failed with {e}"),
    }
}

/// Random graph 7 on four processors under MPO, and the tightest capacity
/// its address plan accepts. With mixed object sizes that is above
/// `MIN_MEM`: there a best-fit arena cannot give one MAP's own task a
/// contiguous buffer. That is real fragmentation, no retry heals it, and an
/// armed executor says so before the run like any other.
fn tightest_placeable_case() -> (TaskGraph, Schedule, u64) {
    let spec = RandomGraphSpec { objects: 16, tasks: 40, ..Default::default() };
    let g = random_irregular_graph(7, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let mm = min_mem(&g, &sched).min_mem;
    let armed = |cap| ThreadedExecutor::new(&g, &sched, cap).with_recovery(RecoveryPolicy::new());
    let rejected = armed(mm);
    let e = rejected.run(body).expect_err("MIN_MEM of this graph does not place");
    assert!(matches!(e, ExecError::Fragmented { .. }), "{e}");
    common::assert_planned_rejection("armed at MIN_MEM", &rejected, &e);
    let cap = (mm..).find(|&cap| armed(cap).address_plan().is_ok()).expect("TOT places");
    assert!(cap <= mm + 8, "{cap} is not tight against MIN_MEM {mm}");
    (g, sched, cap)
}

#[test]
fn recovery_matrix_random_dags() {
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    for graph_seed in [3u64, 44] {
        let g = random_irregular_graph(graph_seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let cap = min_mem(&g, &sched).min_mem + 8;
        let reference = run_sequential(&g, body);
        for fault_seed in 0..FAULT_SEEDS {
            for (name, plan) in FaultPlan::scenarios(fault_seed) {
                let exec = ThreadedExecutor::new(&g, &sched, cap)
                    .with_faults(plan)
                    .with_recovery(RecoveryPolicy::new())
                    .with_tracing(TraceConfig::default());
                let spec = exec.plan().trace_spec(cap);
                let label = format!("graph {graph_seed} {name} seed {fault_seed}");
                let result = exec.run(body);
                common::judge_trace(&label, &g, &sched, &spec, &result);
                judge_recovered(&label, result, &reference);
            }
        }
    }
}

#[test]
fn recovery_matrix_at_exact_min_mem() {
    // The hardest regime: the tightest capacity that places at all, where
    // injected allocation failures land on windows with no slack. Armed
    // recovery must convert what would be typed `Fragmented` failures into
    // healed runs (the injected fault budgets are finite, so retries
    // converge) or, for windows that stay wedged, into `Unrecoverable`.
    let (g, sched, cap) = tightest_placeable_case();
    let reference = run_sequential(&g, body);
    let (mut runs, mut healed) = (0, 0);
    for fault_seed in 0..FAULT_SEEDS {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&g, &sched, cap)
                .with_faults(plan)
                .with_recovery(RecoveryPolicy::new())
                .with_tracing(TraceConfig::default());
            let spec = exec.plan().trace_spec(cap);
            let label = format!("min-mem {name} seed {fault_seed}");
            let result = exec.run(body);
            common::judge_trace(&label, &g, &sched, &spec, &result);
            runs += 1;
            healed += usize::from(judge_recovered(&label, result, &reference));
        }
    }
    assert!(healed * 4 >= runs * 3, "only {healed} of {runs} faulted runs healed");
}

/// The deterministic projection of a recovered run: per-processor MAP,
/// task-execution and rollback events in program order. Wall-clock noise
/// (CQ retries, send suspensions, receive arrival order) is excluded —
/// those vary with thread interleaving; the recovery *decisions* may not.
fn recovery_projection(out: &rapid::rt::threaded::ThreadedOutcome) -> String {
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let per_proc: Vec<Vec<CanonEvent>> = skeletons(trace)
        .into_iter()
        .map(|events| {
            events
                .into_iter()
                .filter(|e| {
                    matches!(
                        e,
                        CanonEvent::Map { .. }
                            | CanonEvent::Task { .. }
                            | CanonEvent::Rollback { .. }
                    )
                })
                .collect()
        })
        .collect();
    format!("{per_proc:?}")
}

#[test]
fn recovery_traces_are_deterministic_per_seed() {
    // Same (seed, scenario) ⇒ byte-identical recovery decisions: every
    // per-site fault stream is consumed in program order, so the rollback
    // positions and attempt counts must reproduce exactly across reruns.
    let (g, sched, cap) = tightest_placeable_case();
    for fault_seed in [0u64, 9] {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let run = || {
                ThreadedExecutor::new(&g, &sched, cap)
                    .with_faults(plan.clone())
                    .with_recovery(RecoveryPolicy::new())
                    .with_tracing(TraceConfig::default())
                    .run(body)
                    .map(|out| recovery_projection(&out))
            };
            match (run(), run()) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "{name} seed {fault_seed}: recovery trace diverged across reruns"
                ),
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "{name} seed {fault_seed}: failure diverged across reruns"
                ),
                (a, b) => panic!(
                    "{name} seed {fault_seed}: outcomes diverged across reruns: {a:?} vs {b:?}"
                ),
            }
        }
    }
}

#[test]
fn transient_panic_recovers_bitwise() {
    // A task that panics exactly once: the window rolls back to its
    // checkpoint, replays, and the run completes bitwise-equal to the
    // fault-free reference. The read-modify-write body makes a missing
    // checkpoint restore (or a double remote send) immediately visible.
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(5, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = run_sequential(&g, body);
    let victim = TaskId(17);
    let armed = AtomicBool::new(true);
    let exec = ThreadedExecutor::new(&g, &sched, cap)
        .with_recovery(RecoveryPolicy::new())
        .with_tracing(TraceConfig::default());
    let spec = exec.plan().trace_spec(cap);
    let out = exec
        .run(|t, ctx| {
            if t == victim && armed.swap(false, Ordering::SeqCst) {
                panic!("chaos: transient body panic");
            }
            body(t, ctx)
        })
        .expect("a single transient panic must be healed");
    assert_eq!(out.objects, reference, "recovered run must match the reference bitwise");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    check(&g, &sched, &spec, trace).expect("recovered trace must satisfy the protocol");
    let rollbacks: usize = skeletons(trace)
        .iter()
        .flatten()
        .filter(|e| matches!(e, CanonEvent::Rollback { .. }))
        .count();
    assert_eq!(rollbacks, 1, "exactly one window rollback heals a single transient panic");
    // The restore lands in the owner's buffers, the outcome's own: the
    // permanents the rolled-back window wrote are the serial ones.
    let p = sched.assign.proc_of(victim) as usize;
    let start = skeletons(trace)[p]
        .iter()
        .find_map(|e| match e {
            CanonEvent::Rollback { pos, .. } => Some(*pos as usize),
            _ => None,
        })
        .expect("the victim's processor rolled its window back");
    let at = sched.order[p].iter().position(|&t| t == victim).expect("the victim is scheduled");
    for &t in &sched.order[p][start..=at] {
        for &d in g.writes(t) {
            let d = d as usize;
            assert_eq!(out.objects[d], reference[d], "object {d} of the rolled-back window");
        }
    }
}

#[test]
fn exhausted_budget_is_unrecoverable() {
    // A task that panics every time: the window budget runs dry and the
    // run must surface `Unrecoverable` naming the budget, wrapping the
    // `WorkerPanicked` that kept recurring — not a stall, not a bare panic.
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(5, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let victim = TaskId(17);
    let policy = RecoveryPolicy::new();
    let out = ThreadedExecutor::new(&g, &sched, cap).with_recovery(policy).run(move |t, ctx| {
        if t == victim {
            panic!("chaos: persistent body panic");
        }
        body(t, ctx)
    });
    match out {
        Err(ExecError::Unrecoverable { attempts, cause, .. }) => {
            assert_eq!(
                attempts, policy.retry.window_attempts,
                "the whole window budget must be spent before giving up"
            );
            match *cause {
                ExecError::WorkerPanicked { task: Some(t), payload, .. } => {
                    assert_eq!(t, victim);
                    assert!(payload.contains("persistent body panic"), "payload was {payload:?}");
                }
                other => panic!("expected WorkerPanicked cause, got {other}"),
            }
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
}

#[test]
fn quarantine_replan_completes() {
    // End-to-end self-healing ladder: P1 deterministically fails every
    // window (its tasks panic until the in-place budget is spent), the
    // supervisor quarantines it from the `Unrecoverable`, the planner
    // re-places P1's objects onto the survivors, and the degraded machine
    // finishes with results bitwise-equal to the fault-free reference.
    let gspec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(3, &gspec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let cost = CostModel::unit();
    let sched = mpo_order(&g, &assign, &cost);
    // Headroom: after quarantine three survivors absorb four processors'
    // permanents, so plan against a capacity that fits the degraded plan.
    let cap = 2 * min_mem(&g, &sched).min_mem;
    let reference = run_sequential(&g, body);
    let (replanner, planned) = Replanner::new(&g, &assign, &cost, cap, 1);
    assert!(planned.report.accepted(), "healthy plan must verify at 2*MIN_MEM");

    let broken: u32 = 1;
    let sup = Supervisor::new(2);
    let (objects, report) = sup
        .run(4, |alive| {
            let degraded;
            let sched_ref = if alive.iter().all(|&a| a) {
                &sched
            } else {
                degraded = replanner.replan_survivors(alive, cap);
                assert!(
                    degraded.planned.report.accepted(),
                    "degraded re-plan must verify before re-execution"
                );
                assert!(
                    degraded.sched.order[broken as usize].is_empty(),
                    "quarantined processor must run no tasks"
                );
                &degraded.sched
            };
            // "Broken processor" fault model: while P1 is alive, every
            // task placed on it panics; work moved off P1 runs clean.
            let bad: Vec<TaskId> = if alive[broken as usize] {
                sched_ref.order[broken as usize].clone()
            } else {
                vec![]
            };
            ThreadedExecutor::new(&g, sched_ref, cap)
                .with_recovery(RecoveryPolicy::new())
                .run(move |t, ctx| {
                    if bad.contains(&t) {
                        panic!("chaos: processor-tied fault");
                    }
                    body(t, ctx)
                })
                .map(|out| out.objects)
        })
        .expect("the degraded machine must finish the job");
    assert_eq!(objects, reference, "degraded run must match the reference bitwise");
    assert_eq!(report.quarantined, vec![broken], "the supervisor must implicate P1");
    assert_eq!(report.attempts, 2, "one failed attempt, one clean degraded attempt");
}

#[test]
fn transient_panic_recovers_under_skeleton_tier() {
    // The production observability configuration: Skeleton tier, checked
    // after the run. The WindowRollback must be accepted (the
    // re-execution is legal *because* the rollback comes first), and the
    // run must heal bitwise.
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    let g = random_irregular_graph(5, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = run_sequential(&g, body);
    let victim = TaskId(17);
    let armed = AtomicBool::new(true);
    let exec = ThreadedExecutor::new(&g, &sched, cap)
        .with_recovery(RecoveryPolicy::new())
        .with_tracing(TraceConfig::skeleton());
    let spec = exec.plan().trace_spec(cap);
    let out = exec
        .run(|t, ctx| {
            if t == victim && armed.swap(false, Ordering::SeqCst) {
                panic!("chaos: transient body panic");
            }
            body(t, ctx)
        })
        .expect("a single transient panic must be healed");
    assert_eq!(out.objects, reference, "recovered run must match the reference bitwise");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let post = check_tier(&g, &sched, &spec, trace, TraceTier::Skeleton);
    assert!(post.is_ok(), "recovered skeleton trace must check clean: {post:?}");
    // The rollback that healed the panic survives the skeleton tier.
    let rollbacks: usize = skeletons(trace)
        .iter()
        .flatten()
        .filter(|e| matches!(e, CanonEvent::Rollback { .. }))
        .count();
    assert_eq!(rollbacks, 1, "the healing rollback must be visible at Skeleton tier");
}

#[test]
fn fault_matrix_checks_clean_under_skeleton_tier() {
    // Chaos matrix at Skeleton tier: every healed run's tier-aware
    // post-hoc replay must be clean — across alloc-failure scenarios whose
    // healing emits AllocRollback and WindowRollback records mid-flight.
    let gspec = RandomGraphSpec { objects: 16, tasks: 40, ..Default::default() };
    let g = random_irregular_graph(7, &gspec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    // A little slack so the transient faults are healable in-place; the
    // injected alloc failures still drive AllocRollback/WindowRollback.
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = run_sequential(&g, body);
    let mut healed = 0usize;
    for fault_seed in 0..8u64 {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&g, &sched, cap)
                .with_faults(plan)
                .with_recovery(RecoveryPolicy::new())
                .with_tracing(TraceConfig::skeleton());
            let spec = exec.plan().trace_spec(cap);
            let label = format!("skeleton {name} seed {fault_seed}");
            match exec.run(body) {
                Ok(out) => {
                    assert_eq!(out.objects, reference, "{label}: corrupted results");
                    let trace = out.trace.as_ref().expect("tracing was enabled");
                    let post = check_tier(&g, &sched, &spec, trace, TraceTier::Skeleton);
                    assert!(post.is_ok(), "{label}: healed run must check clean: {post:?}");
                    healed += 1;
                }
                Err(ExecError::Unrecoverable { attempts, .. }) => {
                    assert!(attempts > 0, "{label}: Unrecoverable must name the budget");
                }
                Err(e) => panic!("{label}: recovery armed, but run failed with {e}"),
            }
        }
    }
    assert!(healed >= 8, "only {healed} runs healed — the matrix lost its teeth");
}
