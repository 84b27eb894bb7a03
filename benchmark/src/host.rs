//! Host descriptor and the contention probe.

use crate::stats::timed;
use std::hint::black_box;

/// Workers every workload runs on (the sizing host has two cores).
pub const WORKERS: usize = 2;

/// A probe above this means another tenant held a core during the run.
pub const CONTENDED: f64 = 1.25;

/// Online cores as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..black_box(iters) {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    black_box(x)
}

/// Time for [`WORKERS`] threads to spin side by side over the time for one
/// to spin alone, best of three each: 1.0 when every worker has a core to
/// itself, about 2.0 when two share one. Each probe thread pins itself to
/// a core of its own: left floating, two threads that never sleep stay on
/// the core that spawned them for seconds on this guest kernel, and the
/// probe would report the guest scheduler instead of the host.
pub fn par_scaling() -> f64 {
    // Size the spin to about 20 ms from a short calibration run.
    let (cal, _) = timed(|| spin(2_000_000));
    let iters = (2_000_000.0 * 0.02 / cal.max(1e-6)) as u64;
    let best = |f: &dyn Fn()| (0..3).map(|_| timed(f).0).fold(f64::INFINITY, f64::min);
    let alone = best(&|| {
        spin(iters);
    });
    let together = best(&|| {
        std::thread::scope(|s| {
            for cpu in 0..WORKERS {
                s.spawn(move || {
                    rapid_machine::affinity::pin_current_thread(cpu % nproc());
                    spin(iters)
                });
            }
        });
    });
    together / alone
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What every output file is stamped with.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Threads that can actually run at once: `min(WORKERS, nproc)`.
    pub threads: usize,
    pub par_scaling_before: f64,
    pub par_scaling_after: f64,
    pub contended_retries: u32,
}

impl Host {
    /// The worse of the two probes.
    pub fn par_scaling(&self) -> f64 {
        self.par_scaling_before.max(self.par_scaling_after)
    }
}

/// Run `pass` between two contention probes; while either probe reads
/// above [`CONTENDED`] on a host that has a core per worker, run it again,
/// three attempts at most. Returns the last attempt.
pub fn guarded<R>(mut pass: impl FnMut() -> R) -> (Host, R) {
    let nproc = nproc();
    let mut retries = 0;
    loop {
        let before = par_scaling();
        let r = pass();
        let after = par_scaling();
        let host = Host {
            nproc,
            threads: WORKERS.min(nproc),
            par_scaling_before: before,
            par_scaling_after: after,
            contended_retries: retries,
        };
        if nproc < WORKERS || host.par_scaling() <= CONTENDED || retries == 2 {
            return (host, r);
        }
        eprintln!("host contended (par_scaling {:.2}), running the pass again", host.par_scaling());
        retries += 1;
    }
}
