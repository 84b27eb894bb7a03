//! Per-processor dataflow sweeps: replay one processor's MAP windows
//! against the task order and the static lifetimes
//! ([`rapid_core::liveness`]), proving free-safety (no free before the
//! Definition-4 dead point, no double free, no use-after-free), allocation
//! sanity (no double alloc, every volatile use preceded by an allocating
//! window) and exact occupancy accounting against the capacity.
//!
//! The replay keeps one dense record per object — permanent here, a
//! volatile not yet allocated, live, or freed by the MAP at some
//! position — so every access, allocation and free is one array read:
//! O(objects + accesses + window entries) per processor.

use crate::finding::Finding;
use rapid_core::graph::TaskGraph;
use rapid_core::liveness::ProcLiveness;
use rapid_core::schedule::Schedule;
use rapid_rt::PlannedMap;

/// What the sweep knows of one object on the processor it replays.
#[derive(Clone, Copy)]
enum Resident {
    /// Permanent on this processor: always resident, never allocated.
    Local,
    /// Neither permanent nor volatile here: no window may allocate it.
    Foreign,
    /// A volatile not allocated yet, with its static last use.
    Pending { last: u32 },
    /// Allocated and not freed.
    Live { last: u32 },
    /// Freed by the MAP at this position.
    Freed { at: u32 },
}

/// Sweep processor `p`'s windows and tasks in program order, appending
/// one [`Finding`] per defect. The replay is independent of the planner:
/// it trusts only the graph, the schedule and the liveness tables.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_proc(
    g: &TaskGraph,
    sched: &Schedule,
    pl: &ProcLiveness,
    p: usize,
    windows: &[PlannedMap],
    capacity: u64,
    perm_units: u64,
    findings: &mut Vec<Finding>,
) {
    let order = &sched.order[p];
    let proc = p as u32;
    let mut state: Vec<Resident> = g
        .objects()
        .map(|d| if sched.assign.owner_of(d) == proc { Resident::Local } else { Resident::Foreign })
        .collect();
    for (d, &(_, last)) in pl.volatile.iter().zip(&pl.volatile_span) {
        state[d.idx()] = Resident::Pending { last };
    }
    let mut in_use = perm_units;
    let mut cursor = 0usize;

    for w in windows {
        let wpos = (w.pos as usize).min(order.len());
        if wpos > cursor {
            check_uses(g, sched, p, cursor..wpos, &state, findings);
            cursor = wpos;
        }
        for &d in &w.frees {
            if let Some(&Resident::Live { last }) = state.get(d.idx()) {
                state[d.idx()] = Resident::Freed { at: w.pos };
                in_use -= g.obj_size(d);
                if last >= w.pos {
                    findings.push(Finding::FreeBeforeLastUse {
                        proc,
                        obj: d.0,
                        map_pos: w.pos,
                        last_use: last,
                    });
                }
            } else {
                findings.push(Finding::DoubleFree { proc, obj: d.0, map_pos: w.pos });
            }
        }
        for &d in &w.allocs {
            // A volatile object has a single (first, last) span, so any
            // re-allocation — even after a free — is a defect, and so is
            // allocating anything else (an unknown id included).
            if let Some(&Resident::Pending { last }) = state.get(d.idx()) {
                state[d.idx()] = Resident::Live { last };
                in_use += g.obj_size(d);
            } else {
                findings.push(Finding::DoubleAlloc { proc, obj: d.0, map_pos: w.pos });
            }
        }
        if in_use != w.in_use {
            findings.push(Finding::AccountingMismatch {
                proc,
                map_pos: w.pos,
                reported: w.in_use,
                replayed: in_use,
            });
        }
        if in_use > capacity {
            findings.push(Finding::WindowOverCap { proc, map_pos: w.pos, in_use, capacity });
        }
    }
    check_uses(g, sched, p, cursor..order.len(), &state, findings);
}

/// Check every access of tasks in `range` against the current
/// allocation state.
fn check_uses(
    g: &TaskGraph,
    sched: &Schedule,
    p: usize,
    range: std::ops::Range<usize>,
    state: &[Resident],
    findings: &mut Vec<Finding>,
) {
    let proc = p as u32;
    for (j, &t) in sched.order[p][range.clone()].iter().enumerate() {
        let position = (range.start + j) as u32;
        for d in g.accesses(t) {
            match state[d.idx()] {
                Resident::Local | Resident::Live { .. } => {}
                Resident::Freed { at } => {
                    findings.push(Finding::UseAfterFree { proc, obj: d.0, position, freed_at: at })
                }
                Resident::Foreign | Resident::Pending { .. } => {
                    findings.push(Finding::UseBeforeAlloc { proc, obj: d.0, position })
                }
            }
        }
    }
}
