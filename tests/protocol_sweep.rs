//! The generator's own entry: the regression list, the default-shape
//! graphs at `MIN_MEM` on each driver, and the fault matrix on the DES.
//! The integration suites beside this file run their slices of the same
//! space through the same oracle (see `sweep/mod.rs`).

mod common;
mod sweep;

use rapid::core::fixtures::RandomGraphSpec;
use sweep::*;

/// Failing cases, pasted as printed, replayed by [`regressions`].
const REGRESSIONS: &[Case] = &[
    // A rollback that waited for its window's suspended sends stalled:
    // their addresses were owed by peers waiting on the window.
    Case {
        graph: Random(7, G7),
        p: 4,
        policy: Mpo,
        cap: Placeable,
        fault: Some(ScenarioPanic("delay-heavy", 2)),
        traced: true,
        rec: Armed,
        driver: Threads,
        rounds: 1,
    },
    // A rollback of the whole window re-ran tasks whose volatiles had been
    // filled again since: wrong bits in about one run in ten.
    Case {
        graph: Random(7, G7),
        p: 4,
        policy: Mpo,
        cap: Slack(8),
        fault: Some(ScenarioPanic("contention-heavy", 3)),
        traced: true,
        rec: Armed,
        driver: Threads,
        rounds: 20,
    },
    // An idle processor's one MAP holds no task, and its permanents went
    // uncounted: the DES ran over the cap and the verifier blamed a window.
    Case {
        graph: IdleOwner,
        p: 2,
        policy: Fixed,
        cap: BelowMin,
        fault: None,
        traced: false,
        rec: Unarmed,
        driver: Both(Unit),
        rounds: 1,
    },
];

const G7: RandomGraphSpec = RandomGraphSpec {
    objects: 16,
    tasks: 40,
    max_obj_size: 4,
    max_reads: 3,
    update_prob: 0.35,
    accum_prob: 0.0,
    max_weight: 4.0,
};

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

/// Every scenario on the DES, rejections included: each run completes, a
/// rejection site fires, and a seeded rerun is the same trace byte for
/// byte.
#[test]
fn fault_matrix_on_the_des() {
    let s = spec(12, 30, 4);
    let mut cases = Vec::new();
    for seed in [3, 44] {
        let base = Case { rounds: 2, ..random(seed, &s, 4, Mpo, Slack(8)).traced_on(Des(Unit)) };
        cases.extend(scenarios(&base, 0..FAULT_SEEDS));
    }
    let t = sweep(&cases);
    assert!(t.busy >= 1 && t.rejects > 0 && t.des_ok == cases.len(), "{t:?}");
}
