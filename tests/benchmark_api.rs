//! The two leftover types `benchmark/` still names, called exactly as its
//! sources call them, are the plain forms: `MapWindow::Greedy` is the one
//! MAP window and `TraceTier::Full` the one trace tier. The benchmark is
//! its own workspace, so this is where the root test run sees those calls.

use rapid::core::fixtures::{figure2_dag, figure2_schedule_c};
use rapid::prelude::*;
use rapid::rt::des::DesConfig;
use rapid::rt::maps::MapPlanner;
use rapid::rt::{MapWindow, RtPlan};
use rapid::trace::{check_tier, corpus, TraceTier};

#[test]
fn leftover_arguments_are_the_plain_forms() {
    let (g, sched) = (figure2_dag(), figure2_schedule_c());
    let cap = min_mem(&g, &sched).min_mem;
    let plan = RtPlan::new(&g, &sched);

    // `place_maps(.., MapWindow::Greedy)` is the planner run to the end of
    // every order.
    let placement = plan.place_maps(&g, &sched, cap, MapWindow::Greedy).expect("MIN_MEM fits");
    for (p, rows) in placement.per_proc.iter().enumerate() {
        let mut planner = MapPlanner::new(&g, &plan, p as u32, cap);
        let mut want = vec![planner.run_map(&g, &sched, &plan, 0).expect("fits")];
        while let Some(pos) = want.last().map(|m| m.next_map as usize) {
            if pos >= sched.order[p].len() {
                break;
            }
            want.push(planner.run_map(&g, &sched, &plan, pos as u32).expect("fits"));
        }
        assert_eq!(rows, &want, "P{p}");
    }

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
