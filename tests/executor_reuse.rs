//! Reuse hygiene of the threaded executor: it keeps its heaps and its
//! worker threads between runs, so every run after the first starts from
//! what the previous one left behind. These tests pin down that nothing
//! of a previous run — its data, its failure, its calling thread — shows
//! in the next one.

mod common;

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential_with_init;
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Read-modify-write body: what a written cell ends as depends on what it
/// started as, so stale heap contents cannot hide.
fn body(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for (i, x) in ctx.write(d).iter_mut().enumerate() {
            *x = 0.5 * *x + acc + t.0 as f64 + i as f64 * 0.25;
        }
    }
}

fn poison(_: ObjId, buf: &mut [f64]) {
    buf.fill(f64::NAN);
}

fn bits(objects: &[Vec<f64>]) -> Vec<Vec<u64>> {
    objects.iter().map(|o| o.iter().map(|x| x.to_bits()).collect()).collect()
}

fn random_plan(seed: u64, nprocs: usize) -> (TaskGraph, Schedule) {
    let spec = RandomGraphSpec { objects: 14, tasks: 36, ..Default::default() };
    let g = random_irregular_graph(seed, &spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    (g, sched)
}

/// A two-processor ping-pong chain (task `i` on processor `i % 2` updates
/// its own `x_i` from the remote `x_{i-1}`) whose last task also reads
/// `z`: owned by the other processor and written by nobody, so its copy on
/// the reader is a volatile that is read before anything is put into it.
fn chain_with_unwritten_volatile() -> (TaskGraph, Schedule) {
    let k = 9;
    let mut b = TaskGraphBuilder::new();
    let xs: Vec<ObjId> = (0..k).map(|_| b.add_object(3)).collect();
    let z = b.add_object(3);
    let mut owner: Vec<u32> = (0..k as u32).map(|i| i % 2).collect();
    owner.push(k as u32 % 2); // the last task runs on (k-1) % 2, z lives on the other
    let mut prev = None;
    for i in 0..k {
        let mut reads = vec![];
        if i > 0 {
            reads.push(xs[i - 1]);
        }
        if i == k - 1 {
            reads.push(z);
        }
        let t = b.add_task(1.0, &reads, &[xs[i]]);
        if let Some(p) = prev {
            b.add_edge(p, t);
        }
        prev = Some(t);
    }
    let g = b.build().unwrap();
    let assign = owner_compute_assignment(&g, &owner, 2);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    (g, sched)
}

/// (a) A run that filled every buffer with NaN leaves nothing behind: the
/// next run on the same executor is bit for bit the run of a new one.
#[test]
fn a_poisoned_run_leaves_no_trace_in_the_next() {
    let mut plans = vec![("chain+z".to_string(), chain_with_unwritten_volatile())];
    plans.extend((0..6).map(|seed| (format!("random {seed}"), random_plan(seed, 3))));
    for (name, (g, sched)) in &plans {
        let mm = min_mem(g, sched).min_mem;
        for cap in [mm, mm + 16] {
            let label = format!("{name} cap {cap}");
            let first = ThreadedExecutor::new(g, sched, cap);
            let fresh = match first.run(body) {
                Ok(out) => out,
                // Mixed object sizes at exactly MIN_MEM can fragment the
                // arena. The plan knows; that says nothing about reuse.
                Err(e @ ExecError::Fragmented { .. }) => {
                    common::assert_planned_rejection(&label, &first, &e);
                    continue;
                }
                Err(e) => panic!("{label}: {e}"),
            };
            let exec = ThreadedExecutor::new(g, sched, cap);
            let dirty = exec.run_with_init(body, poison).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(
                dirty.objects.iter().flatten().any(|x| x.is_nan()),
                "{label}: the poisoned run must actually poison"
            );
            // The model `init`s write only nonzeros: what they are handed on
            // a kept heap must be all zeros, as on a fresh one.
            let sees_zeros = |d: ObjId, buf: &mut [f64]| {
                assert!(buf.iter().all(|x| x.to_bits() == 0), "init of {d:?} got a dirty buffer");
            };
            for round in 0..3 {
                let reused = exec
                    .run_with_init(body, sees_zeros)
                    .unwrap_or_else(|e| panic!("{label} round {round}: {e}"));
                assert_eq!(bits(&reused.objects), bits(&fresh.objects), "{label} round {round}");
                assert_eq!(reused.maps, fresh.maps, "{label} round {round}");
            }
        }
    }
}

/// (b) A failed run gives its heaps up, so whatever state it died in, the
/// next run on the same executor equals the sequential run.
#[test]
fn a_failed_run_does_not_leak_into_the_next() {
    let (g, sched) = random_plan(5, 4);
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = bits(&run_sequential_with_init(&g, body, |_, _| {}));

    // A panicking body, on a poisoned heap.
    let exec = ThreadedExecutor::new(&g, &sched, cap);
    let armed = AtomicBool::new(true);
    let panicky = |t: TaskId, ctx: &mut TaskCtx<'_>| {
        if t == TaskId(17) && armed.load(Ordering::Relaxed) {
            panic!("injected body panic");
        }
        body(t, ctx)
    };
    for round in 0..3 {
        armed.store(true, Ordering::Relaxed);
        match exec.run_with_init(panicky, poison) {
            Err(ExecError::WorkerPanicked { task: Some(TaskId(17)), .. }) => {}
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        armed.store(false, Ordering::Relaxed);
        let clean = exec.run(panicky).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(bits(&clean.objects), reference, "after a panic, round {round}");
    }

    // A watchdog stall: one task holds its message hostage.
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_watchdog(Duration::from_millis(80));
    let hostage = AtomicBool::new(true);
    let slow = |t: TaskId, ctx: &mut TaskCtx<'_>| {
        if t == TaskId(0) && hostage.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(600));
        }
        body(t, ctx)
    };
    match exec.run_with_init(slow, poison) {
        Err(ExecError::Stalled { .. }) => {}
        other => panic!("expected Stalled, got {other:?}"),
    }
    hostage.store(false, Ordering::Relaxed);
    let clean = exec.run(slow).expect("the run after a stall");
    assert_eq!(bits(&clean.objects), reference, "after a stall");

    // Injected rejections and allocation failures at exactly MIN_MEM, where
    // a run may legitimately end in a typed resource error: whatever each
    // run ends as, every one that succeeds is right.
    let (g, sched) = random_plan(7, 4);
    let mm = min_mem(&g, &sched).min_mem;
    let reference = bits(&run_sequential_with_init(&g, body, |_, _| {}));
    for fault_seed in 0..8 {
        for (name, plan) in FaultPlan::scenarios(fault_seed) {
            let exec = ThreadedExecutor::new(&g, &sched, mm).with_faults(plan);
            for round in 0..3 {
                match exec.run(body) {
                    Ok(out) => {
                        assert_eq!(bits(&out.objects), reference, "{name}/{fault_seed}/{round}")
                    }
                    Err(ExecError::Fragmented { .. } | ExecError::NonExecutable { .. }) => {}
                    Err(e) => panic!("{name} seed {fault_seed} round {round}: {e}"),
                }
            }
        }
    }
}

/// (d) Whoever calls waits for the same workers: runs from different
/// threads, one after the other and at the same time, all see the same
/// executor.
#[test]
fn runs_from_different_calling_threads() {
    let (g, sched) = random_plan(3, 3);
    let cap = min_mem(&g, &sched).min_mem + 8;
    let reference = bits(&run_sequential_with_init(&g, body, |_, _| {}));
    let exec = ThreadedExecutor::new(&g, &sched, cap);
    let check = |who: &str| {
        for round in 0..10 {
            let out = exec.run(body).unwrap_or_else(|e| panic!("{who} round {round}: {e}"));
            assert_eq!(bits(&out.objects), reference, "{who} round {round}");
        }
    };
    check("the test's thread");
    std::thread::scope(|s| {
        s.spawn(|| check("a second thread")).join().unwrap();
    });
    // Concurrent calls take turns on the executor's threads.
    std::thread::scope(|s| {
        s.spawn(|| check("racer 1"));
        s.spawn(|| check("racer 2"));
    });
}
