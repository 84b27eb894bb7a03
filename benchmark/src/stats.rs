//! Sample statistics and the time-budgeted sampling loop.

use std::time::Instant;

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The mean of the ten fastest of `samples`, or of the fastest tenth where
/// that is fewer (`NaN` when empty): the value every timing metric reports.
/// Interference on the sizing host only ever adds time, and how often it
/// does changes from process to process: of one sub-millisecond threaded
/// run, between 1 % and 25 % of the samples of a process meet an awake
/// second vCPU, so over eight identical runs of `chol-small` the median of
/// `exec_s` spread by 24 %, the lower quartile by 32 %, the 5th percentile by
/// 36 % and this mean by 4.1 %. Where a phase has up to ten samples it is the
/// fastest one; from there on, one lucky run no longer decides it. The
/// median, the tail and the sample count are written beside it.
pub fn fast_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(10).min(10);
    v[..k].iter().sum::<f64>() / k as f64
}

/// A timing in full: the fast mean it is reported as, the median,
/// the sample count, and the highest percentile that still has at least
/// ten samples beyond it (the maximum, `tail_pct = 100`, below eleven).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub fast_mean: f64,
    pub median: f64,
    pub n: usize,
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail, tail_pct) = match n {
        0 => (f64::NAN, 100.0),
        1..=10 => (v[n - 1], 100.0),
        _ => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    };
    Summary { fast_mean: fast_mean(&v), median: median(&v), n, tail, tail_pct }
}

/// Run `op` `warmup` times unrecorded, then until `budget_s` seconds have
/// passed and it has run at least `min_iters` more times. `op` returns the
/// seconds it measured, or `None` for an operation that failed its check:
/// failures are counted by the caller and stay out of the timing samples.
pub fn sample(
    warmup: usize,
    budget_s: f64,
    min_iters: usize,
    mut op: impl FnMut() -> Option<f64>,
) -> Vec<f64> {
    for _ in 0..warmup {
        op();
    }
    let start = Instant::now();
    let mut out = Vec::new();
    let mut iters = 0;
    while iters < min_iters || start.elapsed().as_secs_f64() < budget_s {
        out.extend(op());
        iters += 1;
    }
    out
}

/// Seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v);
        // Ten samples (31..=40) lie beyond the 30th.
        assert_eq!((s.n, s.tail, s.tail_pct), (40, 30.0, 75.0));
        assert_eq!(summarize(&[1.0, 5.0]).tail, 5.0);
        assert_eq!(fast_mean(&[4.0, 2.0, 1.0, 3.0, 5.0]), 1.0);
        assert_eq!(fast_mean(&v), 2.5);
        assert_eq!(fast_mean(&v.repeat(3)), 2.2);
        assert!(fast_mean(&[]).is_nan());
    }

    #[test]
    fn sample_honours_the_floor_and_drops_failures() {
        let mut calls = 0;
        let got = sample(1, 0.0, 4, || {
            calls += 1;
            (calls % 2 == 0).then_some(1.0)
        });
        assert_eq!((calls, got.len()), (5, 2));
    }
}
