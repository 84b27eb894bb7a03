//! The leftovers `benchmark/` still names, called exactly as its sources
//! call them, are the plain forms: `TraceTier::Full` is the one trace
//! tier, and `Replanner` the plain planning pipeline at each capacity.
//! `MapWindow::Greedy` needs no test of its own: it is the one variant,
//! `place_maps` ignores it, and the protocol sweep's `greedy_rule` checks
//! the rows `place_maps` returns against §3.3. The benchmark is its own
//! workspace, so this is where the root test run sees those calls.

use rapid::core::fixtures::{
    figure2_dag, figure2_schedule_c, random_irregular_graph, RandomGraphSpec,
};
use rapid::prelude::*;
use rapid::rt::des::DesConfig;
use rapid::rt::{MapWindow, RtPlan};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sched::{plan_parallel, PlanPolicy};
use rapid::trace::{check_tier, corpus, TraceTier};
use rapid::verify::{plan_hash, verify, Replanner};

#[test]
fn leftover_arguments_are_the_plain_forms() {
    let (g, sched) = (figure2_dag(), figure2_schedule_c());
    let cap = min_mem(&g, &sched).min_mem;
    let plan = RtPlan::new(&g, &sched);

    // `TraceConfig::with_capacity(n).with_tier(TraceTier::Full)` is the
    // identity, and records the same trace.
    let events = 1 << 10;
    let plain = TraceConfig::with_capacity(events);
    let tiered = TraceConfig::with_capacity(events).with_tier(TraceTier::Full);
    assert_eq!(tiered, plain);
    let traced = |tc| {
        let cfg = DesConfig::managed(MachineConfig::unit(2, cap)).with_tracing(tc);
        DesExecutor::new(&g, &sched, cfg).run().expect("runs").trace.expect("traced")
    };
    let trace = traced(plain);
    let json = |t: &TraceSet| chrome_trace_json(t, Some(&g));
    assert_eq!(json(&traced(tiered)), json(&trace));

    // `check_tier(.., TraceTier::Full)` is `check(..)`, clean or not.
    let spec = plan.trace_spec(cap);
    let report = check(&g, &sched, &spec, &trace);
    assert!(report.is_ok(), "{report:?}");
    assert_eq!(check_tier(&g, &sched, &spec, &trace, TraceTier::Full), report);
    let (g, sched, spec) = corpus::tiny();
    for (label, traces, _) in corpus::corrupted() {
        let plain = check(&g, &sched, &spec, &traces);
        assert!(plain.is_err(), "{label}");
        assert_eq!(check_tier(&g, &sched, &spec, &traces, TraceTier::Full), plain, "{label}");
    }
}

#[test]
fn the_replanner_is_the_plain_pipeline_at_each_capacity() {
    // As the ledger pass calls it: planned at TOT, then re-planned halfway
    // down to the workload's cap and back at TOT.
    let cost = CostModel::unit();
    for seed in [1997, 7, 3] {
        let spec = RandomGraphSpec { objects: 80, tasks: 600, ..RandomGraphSpec::default() };
        let g = random_irregular_graph(seed, &spec);
        let assign = owner_compute_assignment(&g, &cyclic_owner_map(g.num_objects(), 2), 2);
        let rep = min_mem(&g, &plan_parallel(&g, &assign, &cost, PlanPolicy::Dts, 1));
        let (tot, cap) = (rep.tot_no_recycle, rep.min_mem + (rep.tot_no_recycle - rep.min_mem) / 4);
        let plain = |c| {
            let sched = plan_parallel(&g, &assign, &cost, PlanPolicy::DtsMerged { capacity: c }, 1);
            let plan = RtPlan::new(&g, &sched);
            let placement = plan.place_maps(&g, &sched, c, MapWindow::Greedy).expect("fits");
            assert!(verify(&g, &sched, &plan, &placement).accepted(), "seed {seed} cap {c}");
            plan_hash(&sched, &placement)
        };
        let (mut rp, cold) = Replanner::new(&g, &assign, &cost, tot, 1);
        assert!(cold.report.accepted(), "seed {seed}: {:?}", cold.report.findings);
        assert_eq!(plan_hash(rp.sched(), &cold.placement), plain(tot), "seed {seed}");
        for c in [cap + (tot - cap) / 2, tot] {
            let planned = rp.replan_capacity(c);
            assert!(
                planned.report.accepted(),
                "seed {seed} cap {c}: {:?}",
                planned.report.findings
            );
            assert_eq!(plan_hash(rp.sched(), &planned.placement), plain(c), "seed {seed} cap {c}");
        }
    }
}
