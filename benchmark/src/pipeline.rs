//! `TaskGraph` → verified plan → threaded run, written once: the
//! end-to-end pass times it with [`Spans::off`], the ledger pass records a
//! span at every layer boundary.

use crate::host::WORKERS;
use crate::spans::Spans;
use crate::workload::{Policy, Problem, Spec};
use rapid_core::memreq::{min_mem, MemReport};
use rapid_core::schedule::{CostModel, Schedule};
use rapid_rt::threaded::{ThreadedExecutor, ThreadedOutcome};
use rapid_rt::{MapPlacement, MapWindow, RtPlan};
use rapid_sched::assign::owner_compute_assignment;
use rapid_sched::{plan_parallel, PlanPolicy};
use rapid_verify::verify;

/// Operations attempted and failed. Every plan, run, solve, DES run and
/// check is one operation; a failed one also stays out of the timings.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `ok` is returned so callers can gate a sample.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }
}

/// The memory cap a workload runs under, fixed at set-up from the
/// schedule of its base ordering (MPO, or unmerged DTS for the merged
/// policy, whose merge needs the cap as input).
#[derive(Clone, Copy, Debug)]
pub struct Caps {
    pub cap: u64,
    pub min_mem: u64,
    pub tot: u64,
    pub s1: u64,
}

pub fn fix_caps(spec: &Spec, problem: &Problem) -> Caps {
    let g = problem.graph();
    let assign = owner_compute_assignment(g, problem.owner(), WORKERS);
    let base = match spec.policy {
        Policy::Mpo => PlanPolicy::Mpo,
        Policy::DtsMerged => PlanPolicy::Dts,
    };
    let rep = min_mem(g, &plan_parallel(g, &assign, &CostModel::unit(), base, 1));
    let cap = match spec.slack_div {
        Some(d) => rep.min_mem + (rep.tot_no_recycle - rep.min_mem) / d,
        None => rep.tot_no_recycle,
    };
    Caps { cap, min_mem: rep.min_mem, tot: rep.tot_no_recycle, s1: rep.s1 }
}

/// A verified plan.
pub struct Planned {
    pub sched: Schedule,
    pub rt: RtPlan,
    pub placement: MapPlacement,
}

impl Planned {
    pub fn mem(&self, problem: &Problem) -> MemReport {
        min_mem(problem.graph(), &self.sched)
    }
}

/// The `plan_s` pipeline: assignment → ordering (one thread) → protocol
/// plan → greedy MAP placement under the cap → static verification, which
/// must accept.
pub fn plan(
    spec: &Spec,
    problem: &Problem,
    caps: &Caps,
    sp: &mut Spans,
) -> Result<Planned, String> {
    let g = problem.graph();
    sp.enter("plan");
    let assign = sp.span("sched.assign", || owner_compute_assignment(g, problem.owner(), WORKERS));
    let policy = match spec.policy {
        Policy::Mpo => PlanPolicy::Mpo,
        Policy::DtsMerged => PlanPolicy::DtsMerged { capacity: caps.cap },
    };
    let sched = sp.span("sched.order", || plan_parallel(g, &assign, &CostModel::unit(), policy, 1));
    let rt = sp.span("rt.rtplan", || RtPlan::new(g, &sched));
    let placement =
        sp.span("rt.place_maps", || rt.place_maps(g, &sched, caps.cap, MapWindow::Greedy));
    let report = placement
        .as_ref()
        .map(|pl| sp.span("verify.verify", || verify(g, &sched, &rt, pl)))
        .map_err(|e| format!("place_maps: {e}"));
    sp.exit();
    let report = report?;
    if !report.accepted() {
        return Err(format!(
            "verifier: {} findings, first {:?}",
            report.findings.len(),
            report.findings[0]
        ));
    }
    Ok(Planned { sched, rt, placement: placement.expect("report exists only for a placement") })
}

/// One `run_with_init` on a prepared executor, as `rt.run_call` with the
/// parallel section the callee reports as its child `rt.run_wall`.
pub fn run(
    exec: &ThreadedExecutor<'_>,
    problem: &Problem,
    sp: &mut Spans,
) -> Result<ThreadedOutcome, String> {
    let (body, init) = (problem.body(), problem.init());
    let out = sp.span("rt.run_call", || exec.run_with_init(&*body, &*init));
    let out = out.map_err(|e| format!("run_with_init: {e}"))?;
    sp.reported_child("rt.run_wall", out.wall.as_secs_f64());
    Ok(out)
}

/// The `solve_s` pipeline, cold: plan, build the executor (which builds
/// its own `RtPlan` a second time), run once.
pub fn solve(
    spec: &Spec,
    problem: &Problem,
    caps: &Caps,
    sp: &mut Spans,
) -> Result<(Planned, ThreadedOutcome), String> {
    sp.enter("solve");
    let result = plan(spec, problem, caps, sp).and_then(|planned| {
        let exec = sp.span("rt.exec_new", || {
            ThreadedExecutor::new(problem.graph(), &planned.sched, caps.cap)
        });
        let out = run(&exec, problem, sp)?;
        drop(exec);
        Ok((planned, out))
    });
    sp.exit();
    result
}
