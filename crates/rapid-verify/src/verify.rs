//! The verifier entry points: orchestrate the structural, dataflow,
//! address-coverage, precedence and deadlock analyses over a complete
//! plan and collect typed [`Finding`]s.

use crate::dataflow;
use crate::finding::Finding;
use crate::fnv::{AddrWin, KeySet};
use crate::hb;
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_rt::{MapPlacement, MapWindow, RtPlan};

/// Result of a verification run.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Every defect proven, in analysis order (structural, then per-
    /// processor dataflow, then address coverage, then precedence, then
    /// deadlock). Empty iff the plan is accepted.
    pub findings: Vec<Finding>,
    /// Per-processor static memory peaks of the placement (max window
    /// occupancy; equals the DES executor's traced arena high-water for
    /// accepted plans). Empty when no placement could be built.
    pub peak: Vec<u64>,
    /// The per-processor capacity the plan was verified against.
    pub capacity: u64,
}

impl VerifyReport {
    /// True when no analysis found a defect: the plan provably executes
    /// deadlock-free and violation-free on both executors under
    /// `capacity` (the static half of the differential guarantee).
    pub fn accepted(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verify a complete plan: `(g, sched)` with its protocol metadata
/// `plan` and a MAP `placement` computed for (or claimed for) the
/// placement's capacity.
///
/// The placement is an explicit input so corrupted or stale artifacts
/// can be checked — the verifier replays it from first principles and
/// trusts nothing but the graph, the schedule and the static lifetimes.
pub fn verify(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    placement: &MapPlacement,
) -> VerifyReport {
    let mut findings = Vec::new();
    let structural_ok = check_structure(g, sched, placement, &mut findings);
    let addr_win = build_addr_win(placement);
    capacity_findings(g, sched, plan, placement, &addr_win, &mut findings);

    // Precedence and deadlock need trustworthy task positions.
    if structural_ok {
        precedence_findings(g, sched, &mut findings);
        if let Some(cycle) = hb::deadlock_cycle(sched, plan, placement, &addr_win) {
            findings.push(Finding::Deadlock { cycle });
        }
    }

    let peak = placement.peaks(&plan.perm_units);
    VerifyReport { findings, peak, capacity: placement.capacity }
}

/// Capacity-affected subset of the analyses, for the cap-only
/// replanner: the order and the protocol plan are carried over from an
/// already-accepted cold plan, and only the MAP placement was rebuilt
/// for the new capacity. Re-runs the phases whose *verdict* a capacity
/// change can flip — the per-processor dataflow replay (free-safety,
/// allocation sanity, occupancy accounting, window-over-cap), Fact-I
/// address coverage and stale packages, and the static peaks.
///
/// Deliberately skipped, because the cold report already proved them
/// and a planner-fresh placement cannot un-prove them:
///
/// - **structure, precedence** read only `(g, sched)`, unchanged here;
/// - the **deadlock search** vets foreign or corrupted placements; a
///   placement the greedy planner just produced orders every window
///   before the sends that need it by construction, and the coverage
///   check above re-proves Fact I (the replan test suite cross-checks
///   every fast-path placement against the full verifier).
///
/// [`Replanner::replan_capacity`](crate::Replanner::replan_capacity)
/// relies on exactly this contract; anything that changes the graph or
/// the schedule must go through [`verify`].
pub fn verify_placement(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    placement: &MapPlacement,
) -> VerifyReport {
    let mut findings = Vec::new();
    capacity_findings(g, sched, plan, placement, &build_addr_win(placement), &mut findings);
    let peak = placement.peaks(&plan.perm_units);
    VerifyReport { findings, peak, capacity: placement.capacity }
}

/// The analyses a capacity change can flip, in report order: the
/// per-processor dataflow sweeps (free-safety, allocation sanity,
/// occupancy accounting, capacity), then address-package coverage
/// (Fact I) in message order, then stale packages in sorted key order.
fn capacity_findings(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    placement: &MapPlacement,
    addr_win: &AddrWin,
    findings: &mut Vec<Finding>,
) {
    for (p, wins) in placement.per_proc.iter().enumerate().take(sched.order.len()) {
        dataflow::sweep_proc(
            g,
            sched,
            &plan.lv.procs[p],
            p,
            wins,
            placement.capacity,
            plan.perm_units[p],
            findings,
        );
    }

    let mut consumed = KeySet::default();
    for m in &plan.msgs {
        for &d in &m.objs {
            if sched.assign.owner_of(d) == m.dst_proc {
                continue; // written in place on its owner, no package needed
            }
            let key = (m.dst_proc, m.src_proc, d.0);
            consumed.insert(key);
            if !addr_win.contains_key(&key) {
                findings.push(Finding::MissingAddress {
                    src: m.src_proc,
                    dst: m.dst_proc,
                    msg: m.id,
                    obj: d.0,
                });
            }
        }
    }

    let mut stale: Vec<(u32, u32, u32)> =
        addr_win.keys().filter(|k| !consumed.contains(k)).copied().collect();
    stale.sort_unstable();
    findings.extend(stale.into_iter().map(|(src, dst, obj)| Finding::StalePackage {
        src,
        dst,
        obj,
    }));
}

/// `addr_win` maps (allocating proc, notified proc, obj) to the first
/// notifying window of the allocating processor.
fn build_addr_win(placement: &MapPlacement) -> AddrWin {
    let mut addr_win = AddrWin::default();
    for (q, wins) in placement.per_proc.iter().enumerate() {
        for (widx, w) in wins.iter().enumerate() {
            for n in &w.notifies {
                addr_win.entry((q as u32, n.dst, n.obj)).or_insert(widx);
            }
        }
    }
    addr_win
}

/// Every task runs after its same-processor predecessors.
fn precedence_findings(g: &TaskGraph, sched: &Schedule, findings: &mut Vec<Finding>) {
    let pos = sched.positions();
    for (p, order) in sched.order.iter().enumerate() {
        for (j, &t) in order.iter().enumerate() {
            for &q in g.preds(t) {
                let q = TaskId(q);
                if sched.assign.proc_of(q) == p as u32 && pos[q.idx()] > j as u32 {
                    findings.push(Finding::PrecedenceViolation {
                        proc: p as u32,
                        task: t.0,
                        pred: q.0,
                        position: j as u32,
                    });
                }
            }
        }
    }
}

/// Convenience entry point: build the protocol plan and the greedy MAP
/// placement for `capacity`, then verify.
///
/// When no placement exists at all — the schedule is non-executable
/// under `capacity` (Definition 6) — the report carries a single
/// [`Finding::CapacityExceeded`] naming the first infeasible window and
/// the volatile live set that overflows it, computed by the exact
/// window-peak analysis ([`rapid_core::memreq::window_peaks`]).
pub fn verify_capacity(g: &TaskGraph, sched: &Schedule, capacity: u64) -> VerifyReport {
    let plan = RtPlan::new(g, sched);
    match place_or_reject(g, sched, &plan, capacity) {
        Ok(placement) => verify(g, sched, &plan, &placement),
        Err(report) => report,
    }
}

/// The greedy MAP placement of `plan` under `capacity`, or the report
/// that says why there is none (see [`verify_capacity`]).
pub(crate) fn place_or_reject(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    capacity: u64,
) -> Result<MapPlacement, VerifyReport> {
    plan.place_maps(g, sched, capacity, MapWindow::Greedy).map_err(|_| {
        let finding = match rapid_core::memreq::window_peaks(g, sched, capacity) {
            Err(iw) => Finding::CapacityExceeded {
                proc: iw.proc as u32,
                position: iw.position,
                needed: iw.needed,
                capacity,
                live: iw.live,
            },
            // place_maps and window_peaks replay the same greedy
            // policy; disagreement means one of them is broken.
            Ok(_) => Finding::Malformed {
                detail: "placement failed but window analysis found the plan feasible".to_string(),
            },
        };
        VerifyReport { findings: vec![finding], peak: Vec::new(), capacity }
    })
}

/// Structural sanity: orders cover every task exactly once on the
/// processor its assignment names, and the placement has one window list
/// per processor. Returns false when the position-dependent analyses
/// (precedence, deadlock) cannot be trusted.
fn check_structure(
    g: &TaskGraph,
    sched: &Schedule,
    placement: &MapPlacement,
    findings: &mut Vec<Finding>,
) -> bool {
    let mut ok = true;
    if sched.order.len() != sched.assign.nprocs {
        findings.push(Finding::Malformed {
            detail: format!("{} orders for {} processors", sched.order.len(), sched.assign.nprocs),
        });
        ok = false;
    }
    if placement.per_proc.len() != sched.order.len() {
        findings.push(Finding::Malformed {
            detail: format!(
                "placement covers {} processors, schedule has {}",
                placement.per_proc.len(),
                sched.order.len()
            ),
        });
        ok = false;
    }
    let mut count = vec![0u32; g.num_tasks()];
    for (p, ord) in sched.order.iter().enumerate() {
        for &t in ord {
            if t.idx() >= count.len() {
                findings.push(Finding::Malformed {
                    detail: format!("order of P{p} names unknown task T{}", t.0),
                });
                ok = false;
                continue;
            }
            count[t.idx()] += 1;
            if sched.assign.proc_of(t) != p as u32 {
                findings.push(Finding::Malformed {
                    detail: format!(
                        "T{} scheduled on P{p} but assigned to P{}",
                        t.0,
                        sched.assign.proc_of(t)
                    ),
                });
                ok = false;
            }
        }
    }
    for (i, &c) in count.iter().enumerate() {
        if c != 1 {
            findings.push(Finding::Malformed { detail: format!("T{i} scheduled {c} times") });
            ok = false;
        }
    }
    ok
}
