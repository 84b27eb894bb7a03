//! Theorem 1 under real interleavings: random DAGs at exactly `MIN_MEM`
//! across processor counts and orders run to bitwise `run_sequential`, or
//! the address plan rejects them before any worker starts. Slices of the
//! sweep (see `sweep/mod.rs`).

mod common;
mod sweep;

use rapid::core::fixtures::RandomGraphSpec;
use sweep::*;

/// Threads at `MIN_MEM`, untraced, over graph seeds `seeds` and `policies`.
fn stress(
    seeds: std::ops::Range<u64>,
    s: &RandomGraphSpec,
    p: usize,
    policies: &[Policy],
) -> Tally {
    let cases: Vec<Case> = policies
        .iter()
        .flat_map(|&policy| grid(seeds.clone(), random(0, s, p, policy, AtMin).on(Threads)))
        .collect();
    let t = sweep(&cases);
    assert_eq!(t.thr_ok + t.planned_rejections, cases.len(), "{t:?}");
    t
}

#[test]
fn stress_small_graphs_many_seeds() {
    stress(0..12, &spec(12, 30, 4), 3, &[Rcp, Mpo, Dts]);
}

#[test]
fn stress_wide_graphs() {
    let wide = RandomGraphSpec { max_reads: 4, update_prob: 0.5, ..spec(40, 120, 4) };
    stress(100..106, &wide, 4, &[Mpo, Dts]);
}

#[test]
fn stress_eight_processors() {
    stress(200..204, &spec(48, 150, 4), 8, &[Mpo]);
}

#[test]
fn stress_commuting_graphs() {
    // Commuting updates run in any order; the additive body gives the same
    // bits in all of them.
    let commuting = RandomGraphSpec { update_prob: 0.6, accum_prob: 0.7, ..spec(16, 50, 1) };
    stress(400..410, &commuting, 4, &[Mpo]);
}

#[test]
fn stress_unit_objects_exact_min_mem_never_fragments() {
    let t = stress(300..310, &spec(20, 60, 1), 4, &[Mpo]);
    assert_eq!(t.planned_rejections, 0, "unit objects fragmented: {t:?}");
}
