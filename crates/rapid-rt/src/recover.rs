//! Recovery: the one rung a run armed with
//! [`ThreadedExecutor::with_recovery`](crate::threaded::ThreadedExecutor::with_recovery)
//! climbs when a task body fails.
//!
//! An armed run photographs each task's write set before the body runs.
//! When the body panics or violates its access set, the photograph goes
//! back and the same task runs again. Nothing else needs undoing: the
//! task sent nothing yet, and every writer of what it reads is ordered
//! after it, so its inputs are as they were. The tasks of one allocation
//! window share a budget of [`WINDOW_ATTEMPTS`] re-executions; a failure
//! past it ends the run with
//! [`ExecError::Unrecoverable`](crate::maps::ExecError::Unrecoverable),
//! which names the processor, the window and the spent budget.
//!
//! A MAP itself cannot fail: every offset it places was decided before the
//! run ([`RtPlan::address_plan`](crate::maps::RtPlan::address_plan)), so
//! there is nothing to retry inside one. The recovered trace therefore
//! depends only on which task fails and when: for a seeded failure it is
//! the same on every run.

/// Re-executions the tasks of one allocation window may consume before
/// the run fails with
/// [`ExecError::Unrecoverable`](crate::maps::ExecError::Unrecoverable).
pub const WINDOW_ATTEMPTS: u32 = 24;
