//! Self-healing supervision: recovery policy, processor quarantine and
//! degraded re-execution.
//!
//! The threaded executor's window recovery
//! ([`ThreadedExecutor::with_recovery`](crate::threaded::ThreadedExecutor::with_recovery))
//! heals *transient* faults in place: a failing allocation wave is
//! re-attempted inside its MAP, and a failing task window is rolled back
//! to its checkpoint and re-executed, both under the bounded budgets of a
//! [`RetryPolicy`]. When a window keeps failing until its budget is
//! exhausted the run surfaces
//! [`ExecError::Unrecoverable`] —
//! the signal that the fault is not transient but *located*: it names the
//! processor whose window cannot make progress.
//!
//! The [`Supervisor`] acts on that signal one level up. It drives repeated
//! run attempts through a caller-supplied closure, quarantining the
//! implicated processor after each failed attempt and re-running the
//! remaining work on the survivors (the closure typically re-plans with
//! `rapid_verify::Replanner::replan_survivors` and restarts the executor
//! from the initial data — the consistent cut is the run start, which is
//! always available because RAPID's resident data is re-initializable by
//! construction). Quarantine decisions depend only on the typed error of
//! each attempt, so for seeded fault plans the whole ladder —
//! retry → rollback → quarantine → re-plan — is deterministic; only
//! watchdog-triggered stalls, which are wall-clock events, fall outside
//! the byte-identical-recovery guarantee.

use crate::maps::ExecError;

/// Per-site retry budgets of the recovery ladder: how often a transient
/// failure is retried before it escalates to the next rung. Plain data, so
/// a given `(fault seed, scenario, plan)` triple always exhausts a budget at
/// the same draw, which is what makes recovery decisions reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per MAP-time volatile allocation before the window's MAP
    /// is rolled back and placed again (the innermost rung).
    pub alloc_attempts: u32,
    /// Re-executions per window (rollback + replay) before the run fails
    /// with `Unrecoverable`.
    pub window_attempts: u32,
}

impl RetryPolicy {
    /// Default budgets: every budgeted fault scenario drains its injection
    /// budget before the ladder gives up.
    pub const fn new() -> Self {
        RetryPolicy { alloc_attempts: 8, window_attempts: 24 }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

/// Recovery configuration for the threaded executor. Arming it
/// (`with_recovery`) enables site-level retries, window checkpoints and
/// window-granular rollback & re-execution; an unarmed run keeps the
/// zero-cost fault-free hot path (every recovery site is a single
/// `Option` branch and no checkpoint is ever captured).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Per-site retry budgets (allocation, window re-execution).
    pub retry: RetryPolicy,
}

impl RecoveryPolicy {
    /// Default budgets (see [`RetryPolicy::new`]).
    pub const fn new() -> Self {
        RecoveryPolicy { retry: RetryPolicy::new() }
    }
}

/// What a supervised run went through before succeeding (or giving up).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Processors quarantined, in quarantine order.
    pub quarantined: Vec<u32>,
    /// Run attempts made (1 = clean first run, no quarantine).
    pub attempts: u32,
}

/// Drives run attempts with processor quarantine: each failed attempt
/// implicates a processor (from the typed [`ExecError`]), which is
/// removed from the alive set before the next attempt. Generic over the
/// attempt closure so the executor / re-planner wiring stays with the
/// caller and this crate does not depend on the planner.
#[derive(Clone, Copy, Debug)]
pub struct Supervisor {
    /// Maximum processors to quarantine before giving up.
    max_quarantines: usize,
}

impl Supervisor {
    /// Supervisor that will quarantine at most `max_quarantines`
    /// processors before surfacing the last error.
    pub fn new(max_quarantines: usize) -> Self {
        Supervisor { max_quarantines }
    }

    /// The processor a failure implicates, when the error names one.
    /// Stalls implicate the watchdog reporter — the processor that went
    /// longest without progress.
    pub fn culprit(e: &ExecError) -> Option<u32> {
        match e {
            ExecError::Unrecoverable { proc, .. }
            | ExecError::Fragmented { proc, .. }
            | ExecError::WorkerPanicked { proc, .. }
            | ExecError::AccessViolation { proc, .. } => Some(*proc),
            ExecError::Stalled { snapshot, .. } => snapshot.as_ref().map(|s| s.reporter),
            _ => None,
        }
    }

    /// Run `attempt` until it succeeds or quarantine is exhausted. The
    /// closure receives the alive mask (`alive[p]` false once `p` is
    /// quarantined) and is expected to re-place the remaining work onto
    /// the survivors and restart from the initial data.
    ///
    /// Gives up — returning the last attempt's error, with the
    /// quarantine list stamped onto a stall snapshot when one is
    /// attached — when the error implicates no processor, the implicated
    /// processor is already quarantined (the fault moved with the work:
    /// not a processor fault), only one survivor would remain, or the
    /// quarantine budget is spent.
    pub fn run<T>(
        &self,
        nprocs: usize,
        mut attempt: impl FnMut(&[bool]) -> Result<T, ExecError>,
    ) -> Result<(T, RecoveryReport), ExecError> {
        let mut alive = vec![true; nprocs];
        let mut report = RecoveryReport::default();
        loop {
            report.attempts += 1;
            let err = match attempt(&alive) {
                Ok(v) => return Ok((v, report)),
                Err(e) => e,
            };
            let quarantine = Self::culprit(&err).filter(|&q| {
                report.quarantined.len() < self.max_quarantines
                    && alive.iter().filter(|&&a| a).count() > 1
                    && alive.get(q as usize).copied().unwrap_or(false)
            });
            let Some(q) = quarantine else {
                return Err(stamp(err, &report));
            };
            alive[q as usize] = false;
            report.quarantined.push(q);
        }
    }
}

/// Make the quarantine history visible on the way out: a final stall
/// snapshot should name the processors that were already off the machine.
fn stamp(mut e: ExecError, report: &RecoveryReport) -> ExecError {
    if let ExecError::Stalled { snapshot: Some(s), .. } = &mut e {
        s.quarantined = report.quarantined.clone();
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspector::StallSnapshot;

    fn unrec(proc: u32) -> ExecError {
        ExecError::Unrecoverable {
            proc,
            pos: 3,
            attempts: 24,
            cause: Box::new(ExecError::Fragmented { proc, requested: 8, largest: 4 }),
        }
    }

    #[test]
    fn clean_first_attempt_reports_no_quarantine() {
        let sup = Supervisor::new(2);
        let (v, report) = sup
            .run(4, |alive| {
                assert_eq!(alive, &[true; 4]);
                Ok::<_, ExecError>(42)
            })
            .expect("clean run");
        assert_eq!(v, 42);
        assert_eq!(report, RecoveryReport { quarantined: vec![], attempts: 1 });
    }

    #[test]
    fn failing_processor_is_quarantined_then_run_succeeds() {
        let sup = Supervisor::new(2);
        let (v, report) =
            sup.run(3, |alive| {
                if alive[1] {
                    Err(unrec(1))
                } else {
                    Ok(alive.iter().filter(|&&a| a).count())
                }
            })
            .expect("recovers after quarantining P1");
        assert_eq!(v, 2, "second attempt ran on the two survivors");
        assert_eq!(report, RecoveryReport { quarantined: vec![1], attempts: 2 });
    }

    #[test]
    fn quarantine_budget_and_survivor_floor_are_enforced() {
        // Budget 1 but two distinct processors fail in turn: give up on
        // the second failure and surface it.
        let sup = Supervisor::new(1);
        let err = sup
            .run(4, |alive: &[bool]| -> Result<(), ExecError> {
                let p = alive.iter().position(|&a| a).expect("someone alive") as u32;
                Err(unrec(p))
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Unrecoverable { proc: 1, .. }), "{err}");

        // Never quarantine down to zero survivors.
        let sup = Supervisor::new(8);
        let err = sup.run(2, |alive: &[bool]| -> Result<(), ExecError> {
            Err(unrec(alive.iter().position(|&a| a).expect("someone alive") as u32))
        });
        assert!(err.is_err(), "a 2-proc machine stops after one quarantine");
    }

    #[test]
    fn stall_snapshot_carries_quarantine_history() {
        let sup = Supervisor::new(4);
        let err = sup
            .run(3, |alive: &[bool]| -> Result<(), ExecError> {
                if alive[0] {
                    return Err(unrec(0));
                }
                Err(ExecError::Stalled {
                    remaining: 5,
                    snapshot: Some(Box::new(StallSnapshot {
                        reporter: 1,
                        watchdog_ms: 80,
                        msgs_arrived: 0,
                        msgs_total: 4,
                        procs: vec![],
                        recent_events: vec![],
                        recovery_retries: 0,
                        recovery_rollbacks: 0,
                        last_recovery: None,
                        quarantined: vec![],
                    })),
                })
            })
            .unwrap_err();
        // The stall implicated P1, which got quarantined; the next stall
        // implicated P2 but only one survivor would remain, so the
        // supervisor gave up and stamped the history onto the snapshot.
        match err {
            ExecError::Stalled { snapshot: Some(s), .. } => {
                assert_eq!(s.quarantined, vec![0, 1]);
            }
            other => panic!("expected stalled, got {other}"),
        }
    }
}
