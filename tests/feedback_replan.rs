//! Metrics-fed replanning, end to end: a traced run of a deliberately
//! skewed placement produces [`ProcMetrics`]; `Replanner::replan_feedback`
//! folds them back through the planner; the rebalanced plan must
//!
//! - be deterministic — the same metrics yield a byte-identical
//!   `plan_hash` across repeated replans and across replanners,
//! - actually rebalance — the hot processor's share of EXE dwell drops
//!   when the replanned schedule is re-run,
//! - verify statically, and
//! - execute correctly on both executors: the threaded run's results are
//!   bitwise-equal to the sequential reference and both executors' traces
//!   satisfy the Theorem-1 obligations.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::TaskCtx;
use rapid::sched::{feedback_plan, FeedbackConfig};
use rapid::trace::{check, ProcMetrics, ProtoState, TraceConfig};
use rapid::verify::{plan_hash, Replanner};

fn body(_t: TaskId, ctx: &mut TaskCtx<'_>) {
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for x in ctx.write(d).iter_mut() {
            *x += 1.0;
        }
    }
}

/// A skewed fixture: 3 processors, but ~3/4 of the objects (and so, by
/// owner-compute, ~3/4 of the tasks) land on P0.
fn skewed_case() -> (TaskGraph, Assignment, u64) {
    let spec = RandomGraphSpec { objects: 24, tasks: 80, max_obj_size: 1, ..Default::default() };
    let g = random_irregular_graph(11, &spec);
    let owner: Vec<u32> =
        (0..g.num_objects()).map(|i| if i % 4 == 3 { 1 + (i / 4 % 2) as u32 } else { 0 }).collect();
    let a = owner_compute_assignment(&g, &owner, 3);
    (g, a, 0)
}

/// Run the DES traced and return (metrics, exe-dwell share of `proc`).
fn measure(g: &TaskGraph, sched: &Schedule, cap: u64, proc: usize) -> (Vec<ProcMetrics>, f64) {
    let cfg = DesConfig::managed(MachineConfig::unit(sched.assign.nprocs, cap))
        .with_tracing(TraceConfig::default());
    let out = DesExecutor::new(g, sched, cfg).run().expect("DES run");
    let ms = out.metrics.expect("tracing enabled");
    let exe = ProtoState::Exe.idx();
    let total: u64 = ms.iter().map(|m| m.dwell_ns[exe]).sum();
    let share = ms[proc].dwell_ns[exe] as f64 / total.max(1) as f64;
    (ms, share)
}

#[test]
fn feedback_replan_rebalances_the_skewed_fixture() {
    let (g, a, _) = skewed_case();
    let cost = CostModel::unit();
    let probe = rapid::sched::dts::dts_order(&g, &a, &cost);
    let cap = 2 * min_mem(&g, &probe).min_mem;
    let (rp, cold) = Replanner::new(&g, &a, &cost, cap, 1);
    assert!(cold.report.accepted(), "cold plan must verify: {:?}", cold.report.findings);

    let (metrics, share_before) = measure(&g, rp.sched(), cap, 0);
    assert!(share_before > 0.5, "fixture is not skewed (P0 share {share_before:.2})");
    let fb = feedback_plan(&g, &a, &metrics, &FeedbackConfig::default());
    assert!(fb.hot[0], "P0 must be flagged hot");
    let out = rp.replan_feedback(&metrics, &FeedbackConfig::default(), cap);
    assert!(out.feedback.is_rebalance(), "the skew must trigger a rebalance");
    assert!(!out.feedback.moves.is_empty(), "objects must migrate off the hot proc");
    assert!(out.feedback.moves.iter().all(|m| m.from == 0), "only the hot proc sheds work");
    assert!(
        out.planned.report.accepted(),
        "replanned schedule must verify: {:?}",
        out.planned.report.findings
    );

    // Re-run the replanned schedule: the hot processor's dwell share
    // must drop.
    let (_, share_after) = measure(&g, &out.sched, cap, 0);
    assert!(
        share_after < share_before,
        "P0 dwell share must drop: {share_before:.3} -> {share_after:.3}"
    );

    // The replanned schedule executes correctly on both executors.
    let reference = rapid::rt::threaded::run_sequential(&g, body);
    let plan = rapid::rt::RtPlan::new(&g, &out.sched);
    let spec = plan.trace_spec(cap);
    let thr = ThreadedExecutor::new(&g, &out.sched, cap)
        .with_tracing(TraceConfig::default())
        .run(body)
        .expect("threaded run of the replanned schedule");
    assert_eq!(thr.objects, reference, "replanned run must match the reference bitwise");
    let thr_trace = thr.trace.as_ref().expect("tracing enabled");
    check(&g, &out.sched, &spec, thr_trace).expect("threaded trace must satisfy the protocol");
    let des = DesExecutor::new(
        &g,
        &out.sched,
        DesConfig::managed(MachineConfig::unit(3, cap)).with_tracing(TraceConfig::default()),
    )
    .run()
    .expect("DES run of the replanned schedule");
    let des_trace = des.trace.as_ref().expect("tracing enabled");
    check(&g, &out.sched, &spec, des_trace).expect("DES trace must satisfy the protocol");
}

#[test]
fn feedback_replan_is_deterministic_across_runs() {
    let (g, a, _) = skewed_case();
    let cost = CostModel::unit();
    let probe = rapid::sched::dts::dts_order(&g, &a, &cost);
    let cap = 2 * min_mem(&g, &probe).min_mem;
    let cfg = FeedbackConfig::default();

    // Metrics from a traced DES run are themselves deterministic; replay
    // the same metrics twice through each of two replanners and demand
    // byte-identical plans.
    let (first, _) = Replanner::new(&g, &a, &cost, cap, 1);
    let (metrics, _) = measure(&g, first.sched(), cap, 0);
    let (second, _) = Replanner::new(&g, &a, &cost, cap, 1);
    let mut hashes = Vec::new();
    for rp in [&first, &second, &first, &second] {
        let out = rp.replan_feedback(&metrics, &cfg, cap);
        hashes.push(plan_hash(&out.sched, &out.planned.placement));
    }
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "plan_hash must be identical across runs: {hashes:?}"
    );

    // And the decision layer alone is a pure function too.
    let f1 = feedback_plan(&g, &a, &metrics, &cfg);
    let f2 = feedback_plan(&g, &a, &metrics, &cfg);
    assert_eq!(f1.moves, f2.moves);
    assert_eq!(f1.load, f2.load);
    assert_eq!(f1.avail_scale_permille, f2.avail_scale_permille);
}

#[test]
fn balanced_metrics_leave_the_plan_alone() {
    let (g, a, _) = skewed_case();
    let cost = CostModel::unit();
    let probe = rapid::sched::dts::dts_order(&g, &a, &cost);
    let cap = 2 * min_mem(&g, &probe).min_mem;
    let (rp, _) = Replanner::new(&g, &a, &cost, cap, 1);
    // Hand-balanced metrics: no processor is hot, so no moves and no
    // window shrink — the replan degenerates to the cached pipeline
    // under the unscaled budget.
    let metrics: Vec<ProcMetrics> = (0..3)
        .map(|p| {
            let mut m = ProcMetrics { proc: p as u32, ..ProcMetrics::default() };
            m.dwell_ns[ProtoState::Exe.idx()] = 1000;
            m
        })
        .collect();
    let out = rp.replan_feedback(&metrics, &FeedbackConfig::default(), cap);
    assert!(!out.feedback.is_rebalance());
    assert!(out.feedback.moves.is_empty());
    assert_eq!(out.feedback.avail_scale_permille, 1000);
    assert!(out.planned.report.accepted());
    assert_eq!(
        plan_hash(&out.sched, &out.planned.placement),
        plan_hash(rp.sched(), &{
            let re = rp.replan_feedback(&metrics, &FeedbackConfig::default(), cap);
            re.planned.placement
        }),
        "a no-op feedback replan must reproduce the cached schedule's plan"
    );
}
