//! An executor owns its worker threads and sends them home when it is
//! dropped. The only test of this file, so that nothing else in the process
//! starts or ends a thread while it counts them.

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status` (`None` off Linux).
fn threads_now() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// Does the thread count come to `want`? Dropping an executor tells its
/// threads to leave without waiting for their teardown, so they may still
/// be listed for an instant.
fn threads_settle_at(want: usize) -> bool {
    let start = Instant::now();
    while threads_now() != Some(want) {
        if start.elapsed() > Duration::from_secs(2) {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn dropped_executors_leave_no_thread_behind() {
    let g = rapid::core::fixtures::figure2_dag();
    let sched = rapid::core::fixtures::figure2_schedule_c();
    let cap = min_mem(&g, &sched).min_mem;
    let Some(before) = threads_now() else { return };
    for i in 0..200 {
        let exec = ThreadedExecutor::new(&g, &sched, cap);
        exec.run(|_, _| {}).unwrap();
        if i == 0 {
            // One thread per worker, and the schedule has two.
            assert_eq!(threads_now(), Some(before + 2));
        }
    }
    assert!(threads_settle_at(before), "{:?} threads, started with {before}", threads_now());
}
