//! Typed findings: everything the static verifier can prove wrong about
//! a plan, each mirroring the [`rapid_trace::ViolationKind`] its dynamic
//! counterpart would record (or the stall it would cause) if the plan
//! were executed anyway.

use rapid_core::graph::ObjId;
use rapid_trace::ViolationKind;

/// One step of a wait-for cycle (the static image of a blocked state of
/// the paper's Figure 3(b) machine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitStep {
    /// A MAP window blocked emitting its address packages.
    Window {
        /// Order position the window precedes.
        pos: u32,
    },
    /// A task blocked in REC waiting for an incoming message.
    Task {
        /// Task id.
        task: u32,
        /// Order position of the task.
        pos: u32,
    },
    /// Completion of a (possibly suspended) send delivering a message.
    Send {
        /// Message id in the [`rapid_rt::RtPlan`].
        msg: u32,
    },
}

/// A participating `(processor, step)` pair of a deadlock cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitPoint {
    /// Processor the step belongs to (the sender, for send steps).
    pub proc: u32,
    /// What the processor is blocked on.
    pub step: WaitStep,
}

impl std::fmt::Display for WaitPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.step {
            WaitStep::Window { pos } => write!(f, "(P{}, MAP@{pos})", self.proc),
            WaitStep::Task { task, pos } => write!(f, "(P{}, T{task}@{pos})", self.proc),
            WaitStep::Send { msg } => write!(f, "(P{}, send m{msg})", self.proc),
        }
    }
}

/// One defect of a `(TaskGraph, Schedule, MapPlacement, capacity)` plan,
/// proven statically. Every variant names the [`ViolationKind`] the
/// dynamic trace checker would report for the same defect (see
/// [`Finding::mirrors`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// The schedule is not executable under the capacity: at some MAP,
    /// even after freeing every dead volatile, the immediate next task's
    /// objects do not fit (the `∞` entries of Definition 6).
    CapacityExceeded {
        /// Processor whose MAP fails.
        proc: u32,
        /// Order position of the task that cannot be provisioned.
        position: u32,
        /// Units that would be in use simultaneously.
        needed: u64,
        /// The per-processor capacity.
        capacity: u64,
        /// Volatile objects live across the failing MAP — with the
        /// permanents and the task's first uses these make up `needed`.
        live: Vec<ObjId>,
    },
    /// A placed window's occupancy exceeds the capacity (a corrupted or
    /// stale placement; a correctly built greedy placement never does).
    WindowOverCap {
        /// Processor.
        proc: u32,
        /// Position of the offending MAP.
        map_pos: u32,
        /// Replayed units in use after the window's allocations.
        in_use: u64,
        /// The per-processor capacity.
        capacity: u64,
    },
    /// A remote write is never covered by an address package: no window
    /// of the destination notifies the sending processor of the object's
    /// address, so the sender's RMA put could never legally run (Fact I
    /// of the Theorem-1 proof).
    MissingAddress {
        /// Processor that would perform the uncovered write.
        src: u32,
        /// Processor owning the destination buffer.
        dst: u32,
        /// Message that carries the write.
        msg: u32,
        /// Object whose address is never notified.
        obj: u32,
    },
    /// A task accesses a volatile object no window has allocated by that
    /// point of the order.
    UseBeforeAlloc {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
        /// Order position of the accessing task.
        position: u32,
    },
    /// A task accesses a volatile object after a window freed it.
    UseAfterFree {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
        /// Order position of the accessing task.
        position: u32,
        /// Position of the MAP that freed it.
        freed_at: u32,
    },
    /// A window emits an address package entry no message of the
    /// notified processor ever consumes. The receiver then has no send
    /// blocked on the package's addresses, may terminate without
    /// draining its mailbox slot, and the notifying processor can block
    /// in MAP forever — the one residual risk of the single-slot
    /// discipline (see DESIGN.md §11).
    StalePackage {
        /// Notifying (package-sending) processor.
        src: u32,
        /// Notified processor that never puts into the object.
        dst: u32,
        /// Object id carried by the useless entry.
        obj: u32,
    },
    /// The cross-processor wait-for graph over MAP-window, receive and
    /// send-completion edges has a cycle: the plan deadlocks.
    Deadlock {
        /// The participating `(proc, step)` pairs, in wait order.
        cycle: Vec<WaitPoint>,
    },
    /// A processor's order contradicts the DAG: a task is scheduled
    /// before one of its same-processor predecessors. No message guards
    /// same-processor edges, so the executors would silently run the
    /// tasks in the wrong order.
    PrecedenceViolation {
        /// Processor.
        proc: u32,
        /// The early task.
        task: u32,
        /// Its predecessor scheduled after it.
        pred: u32,
        /// Order position of the early task.
        position: u32,
    },
    /// A window allocates an object that is already resident (currently
    /// live, previously allocated, or permanent on the processor).
    DoubleAlloc {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
        /// Position of the offending MAP.
        map_pos: u32,
    },
    /// A window frees an object that is not live (double free, or free
    /// of a never-allocated object).
    DoubleFree {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
        /// Position of the offending MAP.
        map_pos: u32,
    },
    /// A window frees an object at or before its statically computed
    /// last use (the dead point of Definition 4).
    FreeBeforeLastUse {
        /// Processor.
        proc: u32,
        /// Object id.
        obj: u32,
        /// Position of the MAP that frees it.
        map_pos: u32,
        /// Static last-use position.
        last_use: u32,
    },
    /// A window's recorded `in_use` disagrees with the verifier's
    /// independent replay of its frees and allocations.
    AccountingMismatch {
        /// Processor.
        proc: u32,
        /// Position of the MAP.
        map_pos: u32,
        /// What the placement records.
        reported: u64,
        /// What the replay computed.
        replayed: u64,
    },
    /// The plan is structurally broken (task missing from the orders,
    /// scheduled twice, or on the wrong processor) and the remaining
    /// analyses cannot be trusted.
    Malformed {
        /// Human-readable description.
        detail: String,
    },
}

impl Finding {
    /// The [`ViolationKind`] the dynamic trace checker would record for
    /// this defect if the plan were executed anyway.
    ///
    /// Two mappings are indirect: [`Finding::Deadlock`] executions stall
    /// (`ExecError::Stalled`) rather than record a violation, so it maps
    /// to [`ViolationKind::MissingRecv`] — the obligation the blocked
    /// receive can never discharge; and [`Finding::StalePackage`] maps to
    /// [`ViolationKind::MailboxClobber`] as the mailbox-discipline
    /// obligation it undermines.
    pub fn mirrors(&self) -> ViolationKind {
        match self {
            Finding::CapacityExceeded { .. } | Finding::WindowOverCap { .. } => {
                ViolationKind::CapExceeded
            }
            Finding::MissingAddress { .. } | Finding::UseBeforeAlloc { .. } => {
                ViolationKind::WriteBeforeAddress
            }
            Finding::UseAfterFree { .. } | Finding::FreeBeforeLastUse { .. } => {
                ViolationKind::FreeBeforeLastUse
            }
            Finding::StalePackage { .. } => ViolationKind::MailboxClobber,
            Finding::Deadlock { .. } => ViolationKind::MissingRecv,
            Finding::PrecedenceViolation { .. } => ViolationKind::OrderViolation,
            Finding::DoubleAlloc { .. } => ViolationKind::DoubleAlloc,
            Finding::DoubleFree { .. } => ViolationKind::DoubleFree,
            Finding::AccountingMismatch { .. } => ViolationKind::AccountingMismatch,
            Finding::Malformed { .. } => ViolationKind::Incomplete,
        }
    }

    /// Stable machine-readable name of the variant (for JSON output).
    pub fn name(&self) -> &'static str {
        match self {
            Finding::CapacityExceeded { .. } => "capacity-exceeded",
            Finding::WindowOverCap { .. } => "window-over-cap",
            Finding::MissingAddress { .. } => "missing-address",
            Finding::UseBeforeAlloc { .. } => "use-before-alloc",
            Finding::UseAfterFree { .. } => "use-after-free",
            Finding::StalePackage { .. } => "stale-package",
            Finding::Deadlock { .. } => "deadlock",
            Finding::PrecedenceViolation { .. } => "precedence-violation",
            Finding::DoubleAlloc { .. } => "double-alloc",
            Finding::DoubleFree { .. } => "double-free",
            Finding::FreeBeforeLastUse { .. } => "free-before-last-use",
            Finding::AccountingMismatch { .. } => "accounting-mismatch",
            Finding::Malformed { .. } => "malformed",
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::CapacityExceeded { proc, position, needed, capacity, live } => write!(
                f,
                "P{proc} task #{position} needs {needed} units, capacity {capacity} (live volatiles {live:?})"
            ),
            Finding::WindowOverCap { proc, map_pos, in_use, capacity } => write!(
                f,
                "P{proc} MAP@{map_pos} leaves {in_use} units in use, capacity {capacity}"
            ),
            Finding::MissingAddress { src, dst, msg, obj } => write!(
                f,
                "P{src}'s write of d{obj} (message m{msg}) is never covered by an address package from P{dst}"
            ),
            Finding::UseBeforeAlloc { proc, obj, position } => {
                write!(f, "P{proc} task #{position} uses d{obj} before any window allocates it")
            }
            Finding::UseAfterFree { proc, obj, position, freed_at } => write!(
                f,
                "P{proc} task #{position} uses d{obj} after MAP@{freed_at} freed it"
            ),
            Finding::StalePackage { src, dst, obj } => write!(
                f,
                "P{src} notifies P{dst} of d{obj}, but no message from P{dst} ever writes it (package may never drain)"
            ),
            Finding::Deadlock { cycle } => {
                write!(f, "wait-for cycle:")?;
                for (i, wp) in cycle.iter().enumerate() {
                    write!(f, "{} {wp}", if i == 0 { "" } else { " ->" })?;
                }
                Ok(())
            }
            Finding::PrecedenceViolation { proc, task, pred, position } => write!(
                f,
                "P{proc} schedules T{task} (position {position}) before its predecessor T{pred}"
            ),
            Finding::DoubleAlloc { proc, obj, map_pos } => {
                write!(f, "P{proc} MAP@{map_pos} allocates already-resident d{obj}")
            }
            Finding::DoubleFree { proc, obj, map_pos } => {
                write!(f, "P{proc} MAP@{map_pos} frees non-live d{obj}")
            }
            Finding::FreeBeforeLastUse { proc, obj, map_pos, last_use } => write!(
                f,
                "P{proc} MAP@{map_pos} frees d{obj} whose last use is at position {last_use}"
            ),
            Finding::AccountingMismatch { proc, map_pos, reported, replayed } => write!(
                f,
                "P{proc} MAP@{map_pos} records {reported} units in use, replay computes {replayed}"
            ),
            Finding::Malformed { detail } => write!(f, "malformed plan: {detail}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_finding_names_its_violation() {
        let f = Finding::Deadlock {
            cycle: vec![
                WaitPoint { proc: 0, step: WaitStep::Task { task: 3, pos: 1 } },
                WaitPoint { proc: 1, step: WaitStep::Send { msg: 2 } },
                WaitPoint { proc: 1, step: WaitStep::Window { pos: 0 } },
            ],
        };
        assert_eq!(f.mirrors(), ViolationKind::MissingRecv);
        let text = f.to_string();
        assert!(text.contains("(P0, T3@1)") && text.contains("(P1, send m2)"));
        assert_eq!(
            Finding::DoubleFree { proc: 0, obj: 1, map_pos: 2 }.mirrors(),
            ViolationKind::DoubleFree
        );
        assert_eq!(Finding::Malformed { detail: "x".into() }.mirrors(), ViolationKind::Incomplete);
        assert_eq!(Finding::StalePackage { src: 0, dst: 1, obj: 2 }.name(), "stale-package");
    }
}
