//! Run-time conformance to the address plan: what a threaded run does at
//! its MAPs is what `ThreadedExecutor::address_plan` wrote down before it.
//! In a Full-tier trace every processor's `MapBegin` / `Free` / `Alloc` /
//! `MapEnd` sequence is the plan's rows (objects, sizes, offsets, units in
//! use), the outcome's MAP counts and peaks are the plan's, and that stays
//! so under injected allocation failures and armed window retries, which
//! place the same rows again; original RAPID replays an empty list. And no
//! fault-free run, threaded or simulated, ever finds an address slot busy.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::machine::fault::FaultSite;
use rapid::machine::{FaultPlan, FaultSpec};
use rapid::prelude::*;
use rapid::rt::des::{run_managed, run_unmanaged, DesConfig, DesExecutor};
use rapid::rt::maps::AddressPlan;
use rapid::rt::threaded::{run_sequential, ThreadedOutcome};
use rapid::rt::{ExecError, MapWindow, RecoveryPolicy, RetryPolicy};
use rapid::sched::assign::cyclic_owner_map;
use rapid::trace::{check, Event, ProcMetrics, TraceConfig};

mod common;
use common::sum_reads_add_into_writes as body;

/// The cases: the benchmark's `irregular-tight` generator at reduced size
/// on the seeds its reports quote, and the case built to cut a window.
fn cases() -> Vec<(String, TaskGraph, Schedule, u64)> {
    let mut cases: Vec<_> = [1997u64, 7, 37]
        .into_iter()
        .map(|seed| {
            let (g, sched, cap) = common::irregular_tight(seed);
            (format!("irregular-tight {seed}"), g, sched, cap)
        })
        .collect();
    let (g, sched, cap) = common::cut_window_case();
    cases.push(("cut".to_string(), g, sched, cap));
    cases
}

/// What the plan says processor `p`'s trace will show of its MAPs.
fn planned_map_events(g: &TaskGraph, a: &AddressPlan, p: usize) -> Vec<Event> {
    let mut events = Vec::new();
    // Units in use never fall below the permanent prefix, so the running
    // peak of the rows is the running peak of the run.
    let mut peak = 0;
    for m in &a.placement.per_proc[p] {
        events.push(Event::MapBegin { pos: m.pos });
        let placed = |d: &ObjId| (d.0, g.obj_size(*d), a.offsets[p][d.idx()]);
        events.extend(m.frees.iter().map(placed).map(|(obj, units, offset)| Event::Free {
            obj,
            units,
            offset,
        }));
        events.extend(m.allocs.iter().map(placed).map(|(obj, units, offset)| Event::Alloc {
            obj,
            units,
            offset,
        }));
        peak = peak.max(m.in_use);
        events.push(Event::MapEnd {
            pos: m.pos,
            next_map: m.next_map,
            in_use: m.in_use,
            arena_high: peak,
        });
    }
    events
}

/// The MAP events processor `p` recorded, rollbacks included.
fn recorded_map_events(out: &ThreadedOutcome, p: usize) -> Vec<Event> {
    let trace = out.trace.as_ref().expect("tracing was enabled");
    trace.procs[p]
        .iter()
        .map(|(_, e)| e.clone())
        .filter(|e| {
            matches!(
                e,
                Event::MapBegin { .. }
                    | Event::Free { .. }
                    | Event::Alloc { .. }
                    | Event::MapEnd { .. }
                    | Event::AllocRollback { .. }
                    | Event::WindowRollback { .. }
            )
        })
        .collect()
}

fn assert_outcome_is_the_plans(label: &str, out: &ThreadedOutcome, a: &AddressPlan) {
    let maps: Vec<u32> = a.placement.per_proc.iter().map(|rows| rows.len() as u32).collect();
    assert_eq!(out.maps, maps, "{label}: MAPs");
    assert_eq!(out.peak_mem, a.peak, "{label}: peak_mem");
    assert_eq!(out.arena_peak, a.peak, "{label}: arena_peak");
}

#[test]
fn a_fault_free_trace_is_the_plan_row_for_row() {
    for (label, g, sched, cap) in &cases() {
        let exec = ThreadedExecutor::new(g, sched, *cap).with_tracing(TraceConfig::default());
        let a = exec.address_plan().unwrap_or_else(|e| panic!("{label}: {e}"));
        let reference = run_sequential(g, body);
        // Twice: the second run is on parked heaps, re-zeroed up to the
        // plan's high-water mark.
        for round in 0..2 {
            let label = format!("{label} round {round}");
            let out = exec.run(body).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(out.objects, reference, "{label}: results");
            assert_outcome_is_the_plans(&label, &out, a);
            let trace = out.trace.as_ref().expect("tracing was enabled");
            assert_eq!(trace.dropped(), 0, "{label}");
            check(g, sched, &exec.plan().trace_spec(*cap), trace)
                .unwrap_or_else(|v| panic!("{label}: {v}"));
            for p in 0..sched.assign.nprocs {
                let (got, want) = (recorded_map_events(&out, p), planned_map_events(g, a, p));
                if let Some(i) = got.iter().zip(&want).position(|(g, w)| g != w) {
                    panic!("{label} P{p}: MAP event {i}: ran {:?}, planned {:?}", got[i], want[i]);
                }
                assert_eq!(got.len(), want.len(), "{label} P{p}: MAP event counts");
            }
        }
    }
}

#[test]
fn a_cut_window_is_a_map_the_des_does_not_take() {
    let (g, sched, cap) = common::cut_window_case();
    let exec = ThreadedExecutor::new(&g, &sched, cap);
    assert_eq!(exec.address_plan().expect("places").cuts, vec![0, 1, 0]);
    let thr = exec.run(body).expect("runs");
    let des = run_managed(&g, &sched, MachineConfig::unit(3, cap)).expect("counts");
    assert_eq!((thr.maps, des.maps), (vec![1, 3, 1], vec![1, 2, 1]));
    assert_eq!(thr.peak_mem, des.peak_mem, "both fill P1's 9 units in the first window");
    // One unit of slack and the two agree again.
    let thr = ThreadedExecutor::new(&g, &sched, cap + 1).run(body).expect("runs");
    let des = run_managed(&g, &sched, MachineConfig::unit(3, cap + 1)).expect("counts");
    assert_eq!((thr.maps, thr.peak_mem), (des.maps, des.peak_mem));
}

#[test]
fn injected_allocation_failures_replay_the_same_maps() {
    // Alloc-fail 250 ‰: a run either waits its refusals out and is then the
    // fault-free run, MAP for MAP (a refused lookahead used to cut its
    // window, and the count grew), or gives up typed.
    let (mut succeeded, mut refusals) = (0, 0);
    for (label, g, sched, cap) in &cases() {
        let reference = run_sequential(g, body);
        for fault_seed in 0..6u64 {
            let (name, faults) = FaultPlan::scenarios(fault_seed)
                .into_iter()
                .find(|(_, f)| f.spec.alloc_fail_permille == 250)
                .expect("an alloc-pressure scenario");
            let label = format!("{label} {name} seed {fault_seed}");
            let exec = ThreadedExecutor::new(g, sched, *cap)
                .with_faults(faults)
                .with_tracing(TraceConfig::default());
            let a = exec.address_plan().unwrap_or_else(|e| panic!("{label}: {e}"));
            match exec.run(body) {
                Ok(out) => {
                    assert_eq!(out.objects, reference, "{label}: results");
                    assert_outcome_is_the_plans(&label, &out, a);
                    let trace = out.trace.as_ref().expect("tracing was enabled");
                    check(g, sched, &exec.plan().trace_spec(*cap), trace)
                        .unwrap_or_else(|v| panic!("{label}: {v}"));
                    for p in 0..sched.assign.nprocs {
                        assert_eq!(
                            recorded_map_events(&out, p),
                            planned_map_events(g, a, p),
                            "{label} P{p}: a refusal that is waited out leaves no mark on the MAPs"
                        );
                    }
                    refusals += trace
                        .procs
                        .iter()
                        .flat_map(|p| p.iter())
                        .filter(|(_, e)| matches!(e, Event::Fault { site: FaultSite::AllocFail }))
                        .count();
                    succeeded += 1;
                }
                Err(ExecError::Fragmented { largest: 0, .. }) => {}
                Err(e) => panic!("{label}: {e}"),
            }
        }
    }
    assert!(succeeded >= 20 && refusals >= 100, "{succeeded} runs waited out {refusals} refusals");
}

#[test]
fn an_armed_window_retry_places_the_same_row_again() {
    // No retry in place: every refusal goes straight to the MAP-phase
    // window retry, which undoes the MAP's placements so far
    // (`AllocRollback`), announces itself (`WindowRollback`) and starts the
    // row over, at the same offsets.
    let policy = RecoveryPolicy { retry: RetryPolicy { alloc_attempts: 0, window_attempts: 24 } };
    let spec = FaultSpec { alloc_fail_permille: 200, alloc_fail_budget: 12, ..Default::default() };
    for (label, g, sched, cap) in &cases() {
        let exec = ThreadedExecutor::new(g, sched, *cap)
            .with_faults(FaultPlan::new(5, spec.clone()))
            .with_recovery(policy)
            .with_tracing(TraceConfig::default());
        let a = exec.address_plan().unwrap_or_else(|e| panic!("{label}: {e}"));
        let out = exec.run(body).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(out.objects, run_sequential(g, body), "{label}: healed results");
        assert_outcome_is_the_plans(label, &out, a);
        let trace = out.trace.as_ref().expect("tracing was enabled");
        check(g, sched, &exec.plan().trace_spec(*cap), trace)
            .unwrap_or_else(|v| panic!("{label}: {v}"));
        let (mut undone, mut retried) = (0, 0);
        for p in 0..sched.assign.nprocs {
            // Replay the recording: a window rollback forgets the
            // allocations of the MAP in progress. What is left is the plan.
            let mut healed: Vec<Event> = Vec::new();
            for e in recorded_map_events(&out, p) {
                match e {
                    Event::AllocRollback { obj, units } => {
                        let placed = healed
                            .iter()
                            .rposition(|e| matches!(e, Event::Alloc { obj: o, units: u, .. } if (*o, *u) == (obj, units)))
                            .unwrap_or_else(|| panic!("{label} P{p}: {obj} rolled back, never placed"));
                        assert!(
                            healed[placed..].iter().all(|e| matches!(e, Event::Alloc { .. })),
                            "{label} P{p}: the rollback of {obj} reaches outside its MAP"
                        );
                        healed.remove(placed);
                        undone += 1;
                    }
                    Event::WindowRollback { pos, .. } => {
                        assert!(
                            matches!(healed.last(), Some(Event::MapBegin { pos: q }) if *q == pos)
                                || matches!(healed.last(), Some(Event::Free { .. })),
                            "{label} P{p}: the retry of the window at {pos} starts from its free wave"
                        );
                        retried += 1;
                    }
                    e => healed.push(e),
                }
            }
            assert_eq!(healed, planned_map_events(g, a, p), "{label} P{p}: healed MAPs");
        }
        assert!(retried > 0, "{label}: no refusal reached the window retry");
        if label != "cut" {
            assert!(undone > 0, "{label}: no retry had a placement to undo");
        }
    }
}

/// Slots found busy over all processors of a traced run.
fn mailbox_busy(metrics: &Option<Vec<ProcMetrics>>) -> u32 {
    metrics.as_ref().expect("tracing was enabled").iter().map(|m| m.mailbox_busy).sum()
}

#[test]
fn a_mid_task_cut_never_finds_a_slot_busy() {
    // A cut inside the task at 22 has P2 announce an object three tasks
    // before its reader can ask for it, and runs then find P3's slot still
    // holding that package when P2's next MAP comes.
    let (g, sched, cap) = common::mid_task_cut_case();
    let exec = ThreadedExecutor::new(&g, &sched, cap).with_tracing(TraceConfig::default());
    let reference = run_sequential(&g, body);
    let mut busy = 0;
    for round in 0..200 {
        let out = exec.run(body).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(out.objects, reference, "round {round}");
        busy += mailbox_busy(&out.metrics);
    }
    assert_eq!(busy, 0, "slots found busy in 200 fault-free runs");
}

#[test]
fn no_fault_free_run_finds_a_slot_busy() {
    let spec = RandomGraphSpec { objects: 24, tasks: 80, ..Default::default() };
    let (mut threaded, mut simulated) = (0, 0);
    for seed in 0..6u64 {
        let g = random_irregular_graph(seed, &spec);
        let reference = run_sequential(&g, body);
        for p in [2usize, 3, 4] {
            let owner = cyclic_owner_map(g.num_objects(), p);
            let assign = owner_compute_assignment(&g, &owner, p);
            for (policy, sched) in [
                ("mpo", mpo_order(&g, &assign, &CostModel::unit())),
                ("rcp", rcp_order(&g, &assign, &CostModel::unit())),
                ("dts", dts_order(&g, &assign, &CostModel::unit())),
            ] {
                let rep = min_mem(&g, &sched);
                for cap in [rep.min_mem, rep.min_mem + 8, rep.tot_no_recycle] {
                    let label = format!("random {seed} p{p} {policy} cap {cap}");
                    let exec =
                        ThreadedExecutor::new(&g, &sched, cap).with_tracing(TraceConfig::default());
                    match exec.run(body) {
                        Ok(out) => {
                            assert_eq!(out.objects, reference, "{label}: results");
                            assert_eq!(mailbox_busy(&out.metrics), 0, "{label}: threaded");
                            threaded += 1;
                        }
                        Err(e) => common::assert_planned_rejection(&label, &exec, &e),
                    }
                    for window in [MapWindow::Greedy, MapWindow::Single] {
                        let cfg = DesConfig::managed(MachineConfig::t3d(p).with_capacity(cap))
                            .with_window(window)
                            .with_tracing(TraceConfig::with_capacity(4096));
                        let out = DesExecutor::new(&g, &sched, cfg)
                            .run()
                            .unwrap_or_else(|e| panic!("{label} {window:?}: {e}"));
                        assert_eq!(out.trace.as_ref().map(|t| t.dropped()), Some(0), "{label}");
                        assert_eq!(mailbox_busy(&out.metrics), 0, "{label}: DES {window:?}");
                        simulated += 1;
                    }
                }
            }
        }
    }
    assert!(threaded >= 120 && simulated == 324, "{threaded} threaded, {simulated} DES runs");
}

#[test]
fn original_rapid_replays_an_empty_map_list() {
    for (label, g, sched, _) in &cases() {
        let tot = rapid::core::memreq::min_mem(g, sched).tot_no_recycle;
        let out = run_unmanaged(g, sched, MachineConfig::unit(sched.assign.nprocs, tot))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(out.maps.iter().all(|&m| m == 0), "{label}: {:?}", out.maps);
        assert_eq!(out.suspended_sends, 0, "{label}: every address is known up front");
        assert!(out.peak_mem.iter().all(|&pk| pk <= tot), "{label}");
    }
}
