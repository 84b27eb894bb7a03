//! The generator's own entry: the regression list, the default-shape
//! graphs at `MIN_MEM` on each driver, and the fault matrix on the DES.
//! The integration suites beside this file run their slices of the same
//! space through the same oracle (see `sweep/mod.rs`).

mod common;
mod sweep;

use rapid::core::fixtures::RandomGraphSpec;
use sweep::*;

/// Failing cases, pasted as printed, replayed by [`regressions`].
const REGRESSIONS: &[Case] = &[];

#[test]
fn regressions() {
    sweep(REGRESSIONS);
}

/// Default-shape random DAGs at `MIN_MEM` on threads, and on both sides
/// of it on the DES.
#[test]
fn default_shape_at_min_mem_on_each_driver() {
    let at_min = |p, driver| random(0, &RandomGraphSpec::default(), p, Mpo, AtMin).on(driver);
    let cases = [
        grid(0..8, at_min(4, Threads)),
        grid(0..10, at_min(3, Des(Unit))),
        grid(0..10, Case { cap: BelowMin, ..at_min(3, Des(Unit)) }),
    ]
    .concat();
    let t = sweep(&cases);
    assert_eq!((t.des_ok, t.non_executable), (10, 10), "{t:?}");
}

/// Every scenario on the DES, rejections and allocation failures
/// included: each run completes or fails typed, and a seeded rerun is the
/// same trace byte for byte.
#[test]
fn fault_matrix_on_the_des() {
    let s = spec(12, 30, 4);
    let mut cases = Vec::new();
    for seed in [3, 44] {
        let base = Case { rounds: 2, ..random(seed, &s, 4, Mpo, Slack(8)).traced_on(Des(Unit)) };
        cases.extend(scenarios(&base, 0..FAULT_SEEDS));
    }
    let t = sweep(&cases);
    assert!(t.busy >= 1 && t.refusals > 0 && t.des_ok * 4 >= cases.len() * 3, "{t:?}");
}
