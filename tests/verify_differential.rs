//! The static verifier against the executors: its verdict is
//! executability on both drivers, its peaks are the DES's, every ordering
//! policy verifies at its own `MIN_MEM`, and the cold plan hash of the
//! `planhash` fixture is pinned. Slices of the sweep (see `sweep/mod.rs`).

mod common;
mod sweep;

use rapid::core::dcg::Dcg;
use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::prelude::*;
use rapid::sched::assign::cyclic_owner_map;
use rapid::verify::Replanner;
use sweep::*;

#[test]
fn accepted_random_plans_execute_clean_at_exact_capacity() {
    // Accepted at `MIN_MEM`, rejected one unit below, on both drivers.
    let both = |cap| random(0, &spec(16, 40, 1), 3, Mpo, cap);
    let (at_min, below) = (both(AtMin).traced_on(Both(Unit)), both(BelowMin).on(Both(Unit)));
    let t = sweep(&[grid(0..10, at_min), grid(0..10, below)].concat());
    assert!(t.thr_ok >= 6, "only {}/10 seeds produced a threaded run", t.thr_ok);
}

#[test]
fn fixture_static_peaks_match_des_high_water() {
    // At Theorem 2's capacity, under DTS.
    let thm2 = [at(Cholesky, 4, Dts, Thm2), at(Lu, 3, Dts, Thm2)];
    let t = sweep(&thm2.map(|c| Case { driver: Both(Unit), ..c }));
    assert_eq!(t.des_ok, 2, "{t:?}");
}

#[test]
fn ordering_policies_all_verify_at_their_min_mem() {
    let mut cases = Vec::new();
    for (seed, policy) in [3, 11, 19].into_iter().flat_map(|s| [(s, Rcp), (s, Mpo), (s, Dts)]) {
        cases.push(random(seed, &spec(20, 60, 2), 4, policy, AtMin));
    }
    sweep(&cases);
}

#[test]
fn cold_plan_hash_of_the_planhash_fixture_is_pinned() {
    // `planhash 2000 2026`: DCG, slice `H`, merged-DTS order, MAP placement
    // and verifier in one number. CI pins the 20 000-task value.
    let (tasks, nprocs) = (2000usize, 8usize);
    let g =
        random_irregular_graph(2026, &RandomGraphSpec { accum_prob: 0.05, ..spec(500, tasks, 4) });
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let hmax = rapid::sched::slice_h(&g, &assign, &Dcg::build(&g)).into_iter().max().unwrap_or(0);
    let mut perm = vec![0u64; nprocs];
    for d in g.objects() {
        perm[assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let capacity = perm.iter().copied().max().unwrap_or(0) + 2 * hmax + 64;
    let cost = CostModel::unit();
    let (rp, planned) = Replanner::new(&g, &assign, &cost, capacity, 1);
    assert!(planned.report.accepted(), "{:?}", planned.report.findings);
    assert_eq!(rapid::verify::plan_hash(rp.sched(), &planned.placement), 0x2fc9_d942_017a_a78e);
}
