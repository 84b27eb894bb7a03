//! Address plans replayed: what the threaded executor records of its MAPs
//! is the plan, row for row; fault-free runs find no address slot busy.
//! Slices of the sweep (see `sweep/mod.rs`).

mod common;
mod sweep;

use sweep::*;

/// Three `irregular-tight` graphs and the schedule built to cut a window.
fn bases() -> Vec<Case> {
    let mut bases: Vec<Case> =
        [1997, 7, 37].map(|seed| at(IrregularTight(seed), 2, Mpo, Twentieth)).into();
    bases.push(at(CutWindow, 3, Fixed, AtMin));
    bases
}

fn traced(base: &Case) -> Case {
    base.clone().traced_on(Threads)
}

#[test]
fn a_fault_free_trace_is_the_plan_row_for_row() {
    // Twice on one executor: the second run is on kept heaps.
    let cases: Vec<Case> = bases().iter().map(|b| Case { rounds: 2, ..traced(b) }).collect();
    assert_eq!(sweep(&cases).thr_ok, 8);
}

#[test]
fn a_cut_window_is_a_map_the_des_does_not_take() {
    // At `MIN_MEM` threads cut P1's window and the DES does not; one unit
    // more and the two agree MAP for MAP.
    let cut = |cap| at(CutWindow, 3, Fixed, cap).traced_on(Both(Unit));
    let t = sweep(&[cut(AtMin), cut(Slack(1))]);
    assert_eq!((t.placed, t.with_cuts, t.compared), (2, 1, 1), "{t:?}");
}

#[test]
fn a_mid_task_cut_never_finds_a_slot_busy() {
    let c = Case { rounds: 200, ..at(MidTaskCut, 4, Mpo, Slack(8)).traced_on(Threads) };
    let t = run(&c);
    assert_eq!((t.thr_ok, t.busy), (200, 0), "slots found busy in fault-free runs");
}

#[test]
fn no_fault_free_run_finds_a_slot_busy() {
    // Every policy, threaded and simulated with the T3D's costs; both
    // drivers emit one skeleton.
    let s = spec(24, 80, 4);
    let mut cases = Vec::new();
    for seed in 0..6 {
        for p in [2, 3, 4] {
            for policy in [Mpo, Rcp, Dts] {
                for cap in [AtMin, Slack(8), Tot] {
                    cases.push(random(seed, &s, p, policy, cap).traced_on(Both(T3d)));
                }
            }
        }
    }
    let t = sweep(&cases);
    assert!(t.thr_ok >= 120 && t.des_ok == 162, "{t:?}");
}

#[test]
fn original_rapid_replays_an_empty_map_list() {
    let cases: Vec<Case> =
        bases().into_iter().map(|b| Case { driver: Des(Unit), cap: Tot, ..b }).collect();
    assert_eq!(sweep(&cases).des_ok, 4);
}
