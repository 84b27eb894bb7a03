//! The address plan against the unit-occupancy oracle: random DAGs across
//! processors and capacities, the Cholesky and LU fixtures,
//! the benchmark's `irregular-tight` generator, the two schedules built to
//! cut a window and a zero-size volatile at exact capacity. Static slices
//! of the sweep (see `sweep/mod.rs`).

mod common;
mod sweep;

use sweep::*;

#[test]
fn random_dags_across_processors_and_capacities() {
    let mut cases = Vec::new();
    for (p, cap) in
        [2, 3, 4].into_iter().flat_map(|p| [BelowMin, AtMin, Slack(8), Tot].map(|c| (p, c)))
    {
        cases.extend(grid(0..10, random(0, &spec(24, 80, 4), p, Mpo, cap)));
    }
    let t = sweep(&cases);
    assert!(t.placed >= 72 && t.non_executable == 30, "{t:?}");
    assert!(t.with_cuts > 0 && t.fragmented > 0, "the sweep met no fragmentation: {t:?}");
}

#[test]
fn cholesky_and_lu_fixtures() {
    let mut cases = Vec::new();
    for (graph, p) in [(Cholesky, 4), (Lu, 3)] {
        for policy in [Rcp, Mpo, Dts] {
            for cap in [AtMin, Slack(8), Slack(256), Tot] {
                cases.push(at(graph.clone(), p, policy, cap));
            }
        }
    }
    let t = sweep(&cases);
    assert!(t.placed == 24 && t.non_executable == 0, "{t:?}");
}

#[test]
fn irregular_tight_at_reduced_size() {
    let cases = [1997, 7, 37, 1, 2, 3].map(|seed| at(IrregularTight(seed), 2, Mpo, Twentieth));
    assert_eq!(sweep(&cases).placed, 6);
}

#[test]
fn a_cut_falls_between_tasks_not_inside_one() {
    // The pinned rows: the window ends before the task at 22.
    let t = run(&at(MidTaskCut, 4, Mpo, Slack(8)));
    assert_eq!((t.placed, t.with_cuts), (1, 1), "{t:?}");
}

#[test]
fn a_lookahead_the_arena_cannot_place_cuts_its_window() {
    // The pinned rows: cuts, windows and offsets.
    let t = run(&at(CutWindow, 3, Fixed, AtMin));
    assert_eq!((t.placed, t.with_cuts), (1, 1), "{t:?}");
}

#[test]
fn a_zero_size_volatile_fits_a_full_heap() {
    // The pinned rows: `z` at the end of P1's heap. Verified, placed, run
    // on threads and in the DES, each agreeing with the other.
    let t = run(&at(ZeroAtCapacity, 2, Fixed, AtMin).traced_on(Both(Unit)));
    assert_eq!((t.placed, t.thr_ok, t.des_ok, t.compared), (1, 1, 1, 1), "{t:?}");
}
