//! Armed recovery: every faulted run heals bitwise or fails
//! `Unrecoverable`, its recovery decisions are the same on rerun, and one
//! rollback heals a transient panic, read off the trace or its
//! skeleton projection. Slices of the sweep (see
//! `sweep/mod.rs`), the exhausted budget and the quarantine.

mod common;
mod sweep;

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, RecoveryPolicy, Supervisor};
use rapid::trace::{skeletons, CanonEvent};
use rapid::verify::Replanner;
use std::sync::atomic::{AtomicBool, Ordering};
use sweep::*;

#[test]
fn recovery_matrix_random_dags() {
    let mut cases = Vec::new();
    for seed in [3, 44] {
        let g = random(seed, &spec(12, 30, 4), 4, Mpo, Slack(8));
        cases.extend(scenarios(&Case { rec: Armed, ..g.traced_on(Threads) }, 0..FAULT_SEEDS));
    }
    sweep(&cases);
}

/// Graph 7 armed at the tightest capacity that places: at `MIN_MEM` the
/// address plan rejects it, armed or not.
fn tightest() -> Case {
    Case { rec: Armed, ..random(7, &spec(16, 40, 4), 4, Mpo, Placeable).traced_on(Threads) }
}

#[test]
fn recovery_matrix_at_exact_min_mem() {
    let rejected = Case { cap: AtMin, traced: false, ..tightest() };
    assert_eq!(run(&rejected).planned_rejections, 1);
    let cases = scenarios(&tightest(), 0..FAULT_SEEDS);
    let healed = cases.iter().filter(|c| run(c).thr_ok > 0).count();
    assert!(healed * 4 >= cases.len() * 3, "only {healed} of {} faulted runs healed", cases.len());
}

#[test]
fn recovery_traces_are_deterministic_per_seed() {
    let t = sweep(&scenarios(&Case { rounds: 2, ..tightest() }, [0, 9].into_iter()));
    assert_eq!(t.thr_ok + t.thr_failed, 16, "{t:?}");
}

/// Graph 7 with slack, half the fault seeds. The run once recorded only
/// the skeleton; the one tier left records in full, and the reruns are
/// compared on the skeleton projection of it.
#[test]
fn fault_matrix_checks_clean_under_skeleton_tier() {
    let g7 = random(7, &spec(16, 40, 4), 4, Mpo, Slack(8));
    let t = sweep(&scenarios(&Case { rec: Armed, ..g7.traced_on(Threads) }, 0..8));
    assert!(t.thr_ok >= 8, "only {} runs healed — the matrix lost its teeth", t.thr_ok);
}

#[test]
fn transient_panic_recovers_bitwise() {
    let t = run(&Case { fault: Some(PanicOnce(17)), rec: Armed, ..victim().traced_on(Threads) });
    assert_eq!((t.thr_ok, t.rollbacks), (1, 1));
}

/// The same transient panic, driven outside the sweep and read off the
/// skeleton projection (what the retired Skeleton tier recorded): one
/// rollback, on the processor that runs task 17, after which task 17
/// runs again.
#[test]
fn transient_panic_recovers_under_skeleton_tier() {
    let (g, sched, cap) = built(&victim());
    let armed = AtomicBool::new(true);
    let out = ThreadedExecutor::new(&g, &sched, cap)
        .with_recovery(RecoveryPolicy::new())
        .with_tracing(TraceConfig::default())
        .run(|t, ctx| {
            if t == TaskId(17) && armed.swap(false, Ordering::SeqCst) {
                panic!("chaos: transient body panic");
            }
            rmw(t, ctx)
        })
        .expect("one rollback heals a transient panic");
    assert_same_bits("skeleton", &out.objects, &run_sequential(&g, rmw));
    let skel = skeletons(out.trace.as_ref().expect("traced"));
    let owner = sched.order.iter().position(|o| o.contains(&TaskId(17))).expect("task 17 runs");
    for (p, events) in skel.iter().enumerate() {
        let rollbacks: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i], CanonEvent::Rollback { .. }))
            .collect();
        if p != owner {
            assert!(rollbacks.is_empty(), "P{p} rolled back: {events:?}");
            continue;
        }
        let [at] = rollbacks[..] else { panic!("P{p} rollbacks at {rollbacks:?}") };
        assert!(matches!(events[at], CanonEvent::Rollback { attempt: 1, .. }), "{events:?}");
        let reran = events[at..].contains(&CanonEvent::Task { task: 17 });
        assert!(reran, "task 17 never reran after the rollback: {events:?}");
    }
}

#[test]
fn exhausted_budget_is_unrecoverable() {
    // A task that panics every time spends the whole window budget, and
    // the run says so, wrapping the panic that kept recurring.
    let (g, sched, cap) = built(&victim());
    let policy = RecoveryPolicy::new();
    let out = ThreadedExecutor::new(&g, &sched, cap).with_recovery(policy).run(|t, ctx| {
        assert!(t != TaskId(17), "chaos: persistent body panic");
        rmw(t, ctx)
    });
    let Err(ExecError::Unrecoverable { attempts, cause, .. }) = out else {
        panic!("expected Unrecoverable, got {out:?}");
    };
    assert_eq!(attempts, policy.retry.window_attempts);
    let ExecError::WorkerPanicked { task: Some(TaskId(17)), payload, .. } = *cause else {
        panic!("expected a WorkerPanicked cause, got {cause}");
    };
    assert!(payload.contains("persistent body panic"), "payload was {payload:?}");
}

#[test]
fn quarantine_replan_completes() {
    // P1 fails every window until its budget is spent; the supervisor
    // quarantines it, the planner moves its objects onto the survivors,
    // and the degraded machine finishes bitwise.
    let (g, sched) = build(&random(3, &spec(12, 30, 4), 4, Mpo, AtMin));
    // Three survivors absorb four processors' permanents.
    let cap = 2 * min_mem(&g, &sched).min_mem;
    let cost = CostModel::unit();
    let (replanner, planned) = Replanner::new(&g, &sched.assign, &cost, cap, 1);
    assert!(planned.report.accepted(), "the healthy plan must verify at 2 MIN_MEM");
    let broken = 1;
    let (objects, report) = Supervisor::new(2)
        .run(4, |alive| {
            let degraded;
            let sched_ref = if alive.iter().all(|&a| a) {
                &sched
            } else {
                degraded = replanner.replan_survivors(alive, cap);
                assert!(degraded.planned.report.accepted(), "the degraded plan must verify");
                assert!(degraded.sched.order[broken].is_empty(), "P1 must run nothing");
                &degraded.sched
            };
            let bad: Vec<TaskId> =
                if alive[broken] { sched_ref.order[broken].clone() } else { vec![] };
            ThreadedExecutor::new(&g, sched_ref, cap)
                .with_recovery(RecoveryPolicy::new())
                .run(move |t, ctx| {
                    assert!(!bad.contains(&t), "chaos: processor-tied fault");
                    rmw(t, ctx)
                })
                .map(|out| out.objects)
        })
        .expect("the degraded machine must finish the job");
    assert_same_bits("degraded", &objects, &run_sequential(&g, rmw));
    assert_eq!((report.quarantined, report.attempts), (vec![broken as u32], 2));
}
