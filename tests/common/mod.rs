//! The one check the integration suites share: what a fault-free threaded
//! run that ends in a resource error must look like.

use rapid::prelude::*;
use rapid::rt::ExecError;

/// A fault-free threaded run ended in `e`, a resource error. That is a
/// property of the executor's address plan, not of the run: the plan must
/// have reported exactly `e` before any worker started, and a second run —
/// whose body must never be reached — must report it again.
pub fn assert_planned_rejection(label: &str, exec: &ThreadedExecutor<'_>, e: &ExecError) {
    assert!(
        matches!(e, ExecError::Fragmented { .. } | ExecError::NonExecutable { .. }),
        "{label}: {e} is not a plan-time rejection"
    );
    assert_eq!(exec.address_plan().err(), Some(e), "{label}: the address plan did not say so");
    let again = exec.run(|t, _| unreachable!("{label}: task {t:?} of a rejected plan ran"));
    assert_eq!(again.err().as_ref(), Some(e), "{label}: a second run ends differently");
}
