//! Armed recovery: every faulted run heals bitwise or fails
//! `Unrecoverable`, its recovery decisions are the same on rerun, and one
//! rollback heals a transient panic at either trace tier. Slices of the
//! sweep (see `sweep/mod.rs`), the exhausted budget and the quarantine.

mod common;
mod sweep;

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, RecoveryPolicy, Supervisor};
use rapid::verify::Replanner;
use sweep::*;

#[test]
fn recovery_matrix_random_dags() {
    let mut cases = Vec::new();
    for seed in [3, 44] {
        let g = random(seed, &spec(12, 30, 4), 4, Mpo, Slack(8));
        cases.extend(scenarios(&Case { rec: Armed, ..g.on(Threads, Full) }, 0..FAULT_SEEDS));
    }
    sweep(&cases);
}

/// Graph 7 armed at the tightest capacity that places: at `MIN_MEM` the
/// address plan rejects it, armed or not.
fn tightest() -> Case {
    let base = Case { tier: Full, ..random(7, &spec(16, 40, 4), 4, Mpo, Placeable) };
    Case { driver: Threads, rec: Armed, ..base }
}

#[test]
fn recovery_matrix_at_exact_min_mem() {
    let rejected = Case { cap: AtMin, tier: Off, ..tightest() };
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

#[test]
fn fault_matrix_checks_clean_under_skeleton_tier() {
    let g7 = random(7, &spec(16, 40, 4), 4, Mpo, Slack(8));
    let t = sweep(&scenarios(&Case { rec: Armed, ..g7.on(Threads, Skeleton) }, 0..8));
    assert!(t.thr_ok >= 8, "only {} runs healed — the matrix lost its teeth", t.thr_ok);
}

fn transient_panic(tier: TraceTier) {
    let t = run(&Case { fault: Some(PanicOnce(17)), rec: Armed, ..victim().on(Threads, tier) });
    assert_eq!((t.thr_ok, t.rollbacks), (1, 1), "{tier:?}");
}

#[test]
fn transient_panic_recovers_bitwise() {
    transient_panic(Full);
}

#[test]
fn transient_panic_recovers_under_skeleton_tier() {
    transient_panic(Skeleton);
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
