//! The inspector stage of the run-time parallelization pipeline (paper
//! Figure 1): specify irregular data objects and the tasks that access
//! them; the system extracts a transformed task-dependence graph, picks an
//! assignment and an ordering, and hands back a schedule ready for
//! execution.
//!
//! This is the programmer-facing API of RAPID: "a set of library functions
//! for specifying irregular data objects and tasks that access these
//! objects".

// sync-audit: the worker-state board (`publish`/`read`) uses Relaxed
// single-word stores by design — it is a best-effort observability snapshot
// for stall diagnostics, racing with the workers on purpose; a torn
// *sequence* of observations is acceptable and no payload is published
// through it.

use rapid_core::ddg::{AccessKind, DdgStats, TraceBuilder};
use rapid_core::graph::{GraphError, ObjId, ProcId, TaskGraph, TaskId};

/// Inspector: records the sequential task trace and extracts the
/// transformed dependence graph, writes renamed ([`TraceBuilder`]).
#[derive(Debug, Default)]
pub struct Inspector {
    tb: TraceBuilder,
}

impl Inspector {
    /// New, empty inspector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a data object of `size` allocation units.
    pub fn object(&mut self, size: u64) -> ObjId {
        self.tb.add_object(size)
    }

    /// Declare the next task of the sequential computation: it reads
    /// `reads`, defines `writes` and updates `updates` in place.
    pub fn task(
        &mut self,
        weight: f64,
        reads: &[ObjId],
        writes: &[ObjId],
        updates: &[ObjId],
    ) -> TaskId {
        self.task_labeled("", weight, reads, writes, updates)
    }

    /// [`Inspector::task`] with a label for traces (`format_args!` formats
    /// it straight into the graph's label buffer).
    pub fn task_labeled(
        &mut self,
        label: impl std::fmt::Display,
        weight: f64,
        reads: &[ObjId],
        writes: &[ObjId],
        updates: &[ObjId],
    ) -> TaskId {
        let mut acc: Vec<(ObjId, AccessKind)> =
            Vec::with_capacity(reads.len() + writes.len() + updates.len());
        acc.extend(reads.iter().map(|&d| (d, AccessKind::Read)));
        acc.extend(writes.iter().map(|&d| (d, AccessKind::Write)));
        acc.extend(updates.iter().map(|&d| (d, AccessKind::Update)));
        self.tb.add_task_labeled(label, weight, &acc)
    }

    /// Extract the transformed task-dependence graph.
    ///
    /// A trace recorded through [`Inspector::task`] is a sequential
    /// program, so the dependence graph is a DAG by construction and the
    /// only way to see an error here is an id-space overflow in the
    /// builder — surfaced as a typed error rather than a panic.
    pub fn extract(self) -> Result<(TaskGraph, DdgStats), GraphError> {
        self.tb.build()
    }
}

// ---------------------------------------------------------------------
// Runtime introspection: the live state board and the stall snapshot
// attached to [`ExecError::Stalled`](crate::maps::ExecError::Stalled).
// The paper's five-state machine makes "where is every processor stuck?"
// the first diagnostic question; every protocol core publishes its
// (state, position, suspended-send depth) on each transition, and the
// drivers photograph what was published — the threaded one through a
// lock-free board, without perturbing the run.
// ---------------------------------------------------------------------

use crate::core::Diag;
use rapid_trace::{decode_ring, FlatRing, ProtoState};
use std::sync::atomic::{AtomicU64, Ordering as AtOrd};

/// Lock-free board where every worker publishes `(state, position,
/// suspended sends)` on each state transition (one relaxed store), so the
/// first watchdog to fire can photograph the whole machine.
#[derive(Debug)]
pub(crate) struct StateBoard {
    /// Packed `state << 60 | pos << 32 | suspended` per processor.
    words: Vec<AtomicU64>,
}

impl StateBoard {
    /// Board for `nprocs` workers, all in [`ProtoState::Setup`].
    pub(crate) fn new(nprocs: usize) -> Self {
        StateBoard { words: (0..nprocs).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Publish worker `p`'s current state (relaxed: diagnostics only).
    #[inline]
    pub(crate) fn publish(&self, p: usize, d: Diag) {
        let w = ((d.state.idx() as u64) << 60)
            | (((d.pos as u64) & 0x0FFF_FFFF) << 32)
            | d.suspended as u64;
        self.words[p].store(w, AtOrd::Relaxed);
    }

    /// Read worker `p`'s last published state.
    pub(crate) fn read(&self, p: usize) -> Diag {
        let w = self.words[p].load(AtOrd::Relaxed);
        Diag {
            state: ProtoState::ALL[((w >> 60) as usize).min(ProtoState::ALL.len() - 1)],
            pos: ((w >> 32) & 0x0FFF_FFFF) as u32,
            suspended: w as u32,
        }
    }
}

/// One processor's row of a [`StallSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcDiag {
    /// Processor id.
    pub proc: ProcId,
    /// Last published protocol state.
    pub state: ProtoState,
    /// Last published position in the processor's order.
    pub pos: u32,
    /// Length of the processor's order.
    pub order_len: u32,
    /// Suspended sends parked on missing remote addresses.
    pub suspended_sends: u32,
    /// Destinations whose incoming mailbox slot from this processor is
    /// still occupied (a potential blocked-in-MAP edge).
    pub mailbox_full_to: Vec<ProcId>,
}

/// Diagnostic photograph of the machine taken by the worker whose stall
/// watchdog fired, attached to
/// [`ExecError::Stalled`](crate::maps::ExecError::Stalled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallSnapshot {
    /// Processor that tripped the watchdog (in the DES, which has none:
    /// the lowest processor that did not finish).
    pub reporter: ProcId,
    /// The watchdog period that elapsed without local progress (0 in the
    /// DES: its heap ran dry instead).
    pub watchdog_ms: u64,
    /// Messages whose arrival flag has been raised, out of the plan total.
    pub msgs_arrived: usize,
    /// Total messages in the protocol plan.
    pub msgs_total: usize,
    /// One row per processor.
    pub procs: Vec<ProcDiag>,
    /// The tail of the reporting worker's event trace (pre-rendered
    /// `"<ms> <event>"` lines), when the run was recording one — what the
    /// stuck worker did right before the silence. Empty otherwise.
    pub recent_events: Vec<String>,
    /// Recovery rollbacks across all processors (failed tasks restored
    /// and run again) up to the moment of the snapshot. Always 0 when the
    /// run was not armed with window recovery.
    pub recovery_rollbacks: u32,
    /// Most recent rollback on the machine as
    /// `(processor, task position, attempt)`, when any happened.
    pub last_recovery: Option<(ProcId, u32, u32)>,
}

impl StallSnapshot {
    /// A snapshot of a run that never recovered anything, with the tail
    /// of the reporter's event `ring` when it was recording one. The
    /// reporter's own writer must be idle, so that decoding sees a
    /// quiesced ring.
    pub(crate) fn new(
        reporter: ProcId,
        watchdog_ms: u64,
        msgs_arrived: usize,
        msgs_total: usize,
        procs: Vec<ProcDiag>,
        ring: Option<&FlatRing>,
    ) -> Self {
        let recent_events = ring
            .map(|r| {
                decode_ring(r)
                    .tail(16)
                    .into_iter()
                    .map(|(ts, ev)| format!("{:.3}ms {ev:?}", ts as f64 / 1e6))
                    .collect()
            })
            .unwrap_or_default();
        StallSnapshot {
            reporter,
            watchdog_ms,
            msgs_arrived,
            msgs_total,
            procs,
            recent_events,
            recovery_rollbacks: 0,
            last_recovery: None,
        }
    }
}

impl std::fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stall snapshot (reported by P{} after {} ms without progress; {}/{} messages arrived):",
            self.reporter, self.watchdog_ms, self.msgs_arrived, self.msgs_total
        )?;
        for d in &self.procs {
            write!(
                f,
                "  P{}: {:?} at {}/{} tasks, {} suspended sends",
                d.proc, d.state, d.pos, d.order_len, d.suspended_sends
            )?;
            if !d.mailbox_full_to.is_empty() {
                write!(f, ", undrained packages to {:?}", d.mailbox_full_to)?;
            }
            writeln!(f)?;
        }
        if self.recovery_rollbacks > 0 {
            write!(f, "  recovery so far: {} rollbacks", self.recovery_rollbacks)?;
            if let Some((p, pos, attempt)) = self.last_recovery {
                write!(f, "; last P{p} task at {pos} attempt {attempt}")?;
            }
            writeln!(f)?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last events on P{}:", self.reporter)?;
            for line in &self.recent_events {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::schedule::CostModel;
    use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};
    use rapid_sched::{plan_parallel, PlanPolicy};

    #[test]
    fn inspector_pipeline_end_to_end() {
        // A tiny reduction tree: 4 leaves write, 2 combiners, 1 root.
        let mut ins = Inspector::new();
        let leaves: Vec<_> = (0..4).map(|_| ins.object(2)).collect();
        let mids: Vec<_> = (0..2).map(|_| ins.object(2)).collect();
        let root = ins.object(2);
        for &l in &leaves {
            ins.task(1.0, &[], &[l], &[]);
        }
        ins.task(1.0, &leaves[0..2], &[mids[0]], &[]);
        ins.task(1.0, &leaves[2..4], &[mids[1]], &[]);
        ins.task(1.0, &mids, &[root], &[]);
        let (g, stats) = ins.extract().unwrap();
        assert_eq!(g.num_tasks(), 7);
        assert_eq!(stats.true_edges, 6);
        assert!(g.is_dependence_complete());

        let assign = owner_compute_assignment(&g, &cyclic_owner_map(g.num_objects(), 2), 2);
        for policy in [
            PlanPolicy::Rcp,
            PlanPolicy::Mpo,
            PlanPolicy::Dts,
            PlanPolicy::DtsMerged { capacity: 64 },
        ] {
            let s = plan_parallel(&g, &assign, &CostModel::unit(), policy, 1);
            assert!(s.is_valid(&g), "{policy:?}");
        }
    }

    #[test]
    fn state_board_roundtrip() {
        let b = StateBoard::new(3);
        let diag = |state, pos, suspended| Diag { state, pos, suspended };
        assert_eq!(b.read(2), diag(ProtoState::Setup, 0, 0));
        for d in [
            diag(ProtoState::Rec, 17, 4),
            diag(ProtoState::Done, 20, 0),
            // Large positions survive the packing.
            diag(ProtoState::Exe, 0x0ABC_DEF0, u32::MAX),
        ] {
            b.publish(1, d);
            assert_eq!(b.read(1), d);
        }
    }

    #[test]
    fn stall_snapshot_display_names_every_proc() {
        let s = StallSnapshot {
            reporter: 1,
            watchdog_ms: 250,
            msgs_arrived: 3,
            msgs_total: 9,
            procs: vec![
                ProcDiag {
                    proc: 0,
                    state: ProtoState::Map,
                    pos: 2,
                    order_len: 5,
                    suspended_sends: 1,
                    mailbox_full_to: vec![1],
                },
                ProcDiag {
                    proc: 1,
                    state: ProtoState::Rec,
                    pos: 3,
                    order_len: 4,
                    suspended_sends: 0,
                    mailbox_full_to: vec![],
                },
            ],
            recent_events: vec!["1.250ms MsgRecv { msg: 4 }".into()],
            recovery_rollbacks: 1,
            last_recovery: Some((0, 2, 3)),
        };
        let text = s.to_string();
        assert!(text.contains("reported by P1"));
        assert!(text.contains("3/9 messages"));
        assert!(text.contains("P0: Map at 2/5"));
        assert!(text.contains("undrained packages to [1]"));
        assert!(text.contains("P1: Rec at 3/4"));
        assert!(text.contains("last events on P1"));
        assert!(text.contains("MsgRecv { msg: 4 }"));
        assert!(text.contains("1 rollbacks"));
        assert!(text.contains("last P0 task at 2 attempt 3"));
    }

    #[test]
    fn updates_chain_through_inspector() {
        let mut ins = Inspector::new();
        let acc = ins.object(4);
        let t0 = ins.task(1.0, &[], &[acc], &[]);
        let t1 = ins.task(1.0, &[], &[], &[acc]);
        let t2 = ins.task(1.0, &[], &[], &[acc]);
        let (g, _) = ins.extract().unwrap();
        assert!(g.has_edge(t0, t1));
        assert!(g.has_edge(t1, t2));
        assert_eq!(g.num_objects(), 1);
    }
}
