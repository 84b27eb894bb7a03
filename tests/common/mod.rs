//! Shared by the integration suites: what a fault-free threaded run that
//! ends in a resource error must look like, and the cases the address-plan
//! suites are built on. Each suite uses a part of it.
#![allow(dead_code)]

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::threaded::ThreadedOutcome;
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::trace::{check, ProtocolSpec};

/// A fault-free threaded run ended in `e`, a resource error. That is a
/// property of the executor's address plan, not of the run: the plan must
/// have reported exactly `e` before any worker started, and a second run —
/// whose body must never be reached — must report it again.
pub fn assert_planned_rejection(label: &str, exec: &ThreadedExecutor<'_>, e: &ExecError) {
    assert!(
        matches!(e, ExecError::Fragmented { .. } | ExecError::NonExecutable { .. }),
        "{label}: {e} is not a plan-time rejection"
    );
    assert_eq!(exec.address_plan().err(), Some(e), "{label}: the address plan did not say so");
    let again = exec.run(|t, _| unreachable!("{label}: task {t:?} of a rejected plan ran"));
    assert_eq!(again.err().as_ref(), Some(e), "{label}: a second run ends differently");
}

/// A faulted or recovered run that claims success must also leave an
/// invariant-clean trace: the replay checker proves the Theorem-1
/// obligations across injected faults and rollback / re-execution seams.
pub fn judge_trace(
    label: &str,
    g: &TaskGraph,
    sched: &Schedule,
    spec: &ProtocolSpec,
    result: &Result<ThreadedOutcome, ExecError>,
) {
    if let Ok(out) = result {
        let trace = out.trace.as_ref().expect("tracing was enabled");
        if let Err(v) = check(g, sched, spec, trace) {
            panic!("{label}: a run that succeeded violated the protocol: {v}");
        }
    }
}

/// The body of the benchmark's `irregular-tight` workload: sum what is
/// read, add it into what is written.
pub fn sum_reads_add_into_writes(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let mut acc = t.0 as f64;
    for d in ctx.read_ids().collect::<Vec<_>>() {
        acc += ctx.read(d).iter().sum::<f64>();
    }
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for x in ctx.write(d) {
            *x += acc;
        }
    }
}

/// The benchmark's `irregular-tight` generator at a twenty-fifth of its
/// size: 200 objects and 2000 tasks on two processors, MPO, a twentieth of
/// the way from `MIN_MEM` to `TOT`.
pub fn irregular_tight(seed: u64) -> (TaskGraph, Schedule, u64) {
    let spec = RandomGraphSpec { objects: 200, tasks: 2000, ..RandomGraphSpec::default() };
    let g = random_irregular_graph(seed, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 2);
    let assign = owner_compute_assignment(&g, &owner, 2);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let rep = min_mem(&g, &sched);
    let cap = rep.min_mem + (rep.tot_no_recycle - rep.min_mem) / 20;
    (g, sched, cap)
}

/// A case whose best-fit walk cuts a window in the middle of a task's
/// objects: random DAG 52 on four processors, MPO, `MIN_MEM + 8`. P2's MAP
/// at position 19 places one buffer of the task at 22 and has no room for
/// the next. A cut that kept the placed one would announce it three tasks
/// before its first reader can ask for it, and P2's MAP at 22 could find
/// P3's slot still full.
pub fn mid_task_cut_case() -> (TaskGraph, Schedule, u64) {
    let spec = RandomGraphSpec { objects: 48, tasks: 160, max_obj_size: 4, ..Default::default() };
    let g = random_irregular_graph(52, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    (g, sched, cap)
}

/// A case built to cut a window. P1 reads `a`(3) `b`(2) `c`(3), then `b`
/// and `d`(2), then `e`(4), into its one unit `x`, at capacity 9 =
/// `MIN_MEM`. Its first MAP fills the heap `x a b c`; the second frees `a`
/// and `c`, two holes of 3 around `b`, puts `d` in the first and counts 4
/// units free for `e` — 1 and 3, so `e` waits for a third MAP, before its
/// own task, that counting alone does not plan.
pub fn cut_window_case() -> (TaskGraph, Schedule, u64) {
    let mut b = TaskGraphBuilder::new();
    let [a, bb, c] = [3, 2, 3].map(|n| b.add_object(n));
    let x = b.add_object(1);
    let [d, e] = [2, 4].map(|n| b.add_object(n));
    let [wa, wb, wc] = [a, bb, c].map(|o| b.add_task(1.0, &[], &[o]));
    let [wd, we] = [d, e].map(|o| b.add_task(1.0, &[], &[o]));
    let t0 = b.add_task(1.0, &[a, bb, c], &[x]);
    let t1 = b.add_task(1.0, &[bb, d], &[x]);
    let t2 = b.add_task(1.0, &[e], &[x]);
    for (from, to) in
        [(wa, t0), (wb, t0), (wc, t0), (wb, t1), (wd, t1), (we, t2), (t0, t1), (t1, t2)]
    {
        b.add_edge(from, to);
    }
    let g = b.build().expect("acyclic");
    let assign = Assignment {
        task_proc: vec![0, 0, 0, 2, 2, 1, 1, 1],
        owner: vec![0, 0, 0, 1, 2, 2],
        nprocs: 3,
    };
    let sched = Schedule { assign, order: vec![vec![wa, wb, wc], vec![t0, t1, t2], vec![wd, we]] };
    assert_eq!(min_mem(&g, &sched).min_mem, 9);
    (g, sched, 9)
}
