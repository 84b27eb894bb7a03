//! Armed recovery: under every fault scenario, a one-shot task panic is
//! healed bitwise by one window rollback, whose trace is the same on
//! rerun, read off the trace or its skeleton projection. Slices of the
//! sweep (see `sweep/mod.rs`), and the exhausted budget.

mod common;
mod sweep;

use rapid::prelude::*;
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, WINDOW_ATTEMPTS};
use rapid::trace::{skeletons, CanonEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use sweep::*;

/// Every armed scenario case panics once (see [`scenarios`]): each of its
/// runs heals bitwise after exactly one rollback.
fn all_heal(cases: &[Case]) {
    let runs = cases.iter().map(|c| c.rounds as usize).sum::<usize>();
    let t = sweep(cases);
    assert_eq!((t.thr_ok, t.rollbacks), (runs, runs), "{t:?}");
}

#[test]
fn recovery_matrix_random_dags() {
    let mut cases = Vec::new();
    for seed in [3, 44] {
        let g = random(seed, &spec(12, 30, 4), 4, Mpo, Slack(8));
        cases.extend(scenarios(&Case { rec: Armed, ..g.traced_on(Threads) }, 0..FAULT_SEEDS));
    }
    all_heal(&cases);
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
    all_heal(&scenarios(&tightest(), 0..FAULT_SEEDS));
}

#[test]
fn recovery_traces_are_deterministic_per_seed() {
    let cases = scenarios(&Case { rounds: 2, ..tightest() }, [0, 9].into_iter());
    assert_eq!(cases.len(), 6);
    all_heal(&cases);
}

/// Graph 7 with slack, half the fault seeds. The run once recorded only
/// the skeleton; the one tier left records in full, and the reruns are
/// compared on the skeleton projection of it.
#[test]
fn fault_matrix_checks_clean_under_skeleton_tier() {
    let g7 = random(7, &spec(16, 40, 4), 4, Mpo, Slack(8));
    all_heal(&scenarios(&Case { rec: Armed, ..g7.traced_on(Threads) }, 0..8));
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
        .with_recovery()
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
    let out = ThreadedExecutor::new(&g, &sched, cap).with_recovery().run(|t, ctx| {
        assert!(t != TaskId(17), "chaos: persistent body panic");
        rmw(t, ctx)
    });
    let Err(ExecError::Unrecoverable { attempts, cause, .. }) = out else {
        panic!("expected Unrecoverable, got {out:?}");
    };
    assert_eq!(attempts, WINDOW_ATTEMPTS);
    let ExecError::WorkerPanicked { task: Some(TaskId(17)), payload, .. } = *cause else {
        panic!("expected a WorkerPanicked cause, got {cause}");
    };
    assert!(payload.contains("persistent body panic"), "payload was {payload:?}");
}
