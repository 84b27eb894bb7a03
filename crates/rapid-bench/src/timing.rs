//! Minimal dependency-free timing loop for `repro gate`.
//!
//! Adaptive calibration (double the iteration count until one batch takes
//! a fixed budget) followed by a median of several batches — enough
//! stability to compare two executor configurations without an external
//! benchmarking framework. Everything that is recorded rather than
//! asserted is measured by `benchmark/`.

use std::time::{Duration, Instant};

/// Median nanoseconds per iteration of `f`, measured over several
/// calibrated batches. The first calibration pass doubles as warm-up.
pub fn bench_ns<F: FnMut()>(f: &mut F) -> f64 {
    let budget = Duration::from_millis(25);
    let mut n: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= budget || n >= 1 << 30 {
            break;
        }
        n = n.saturating_mul(2);
    }
    let mut samples = [0f64; 5];
    for s in samples.iter_mut() {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        *s = t.elapsed().as_nanos() as f64 / n as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[2]
}

/// Human-readable time per iteration.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:>10.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:>10.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:>10.3} µs/iter", ns / 1e3)
    } else {
        format!("{:>10.1} ns/iter", ns)
    }
}
