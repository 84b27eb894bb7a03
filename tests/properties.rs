//! Property cases of random shape: valid orders under every policy,
//! executable iff `MIN_MEM` fits, deterministic DES runs, Theorem 2 on
//! both drivers, merged slices within their budget, managed runs against
//! original RAPID, and the `MEM_REQ` bounds. Slices of the sweep (see
//! `sweep/mod.rs`).

mod common;
mod sweep;

use rapid::core::fixtures::RandomGraphSpec;
use sweep::*;

const CASES: u64 = 48;

/// Property case `i`: a graph seed, its shape (half with commuting marks)
/// and a processor count, drawn by xorshift64*.
fn property_case(i: u64) -> (u64, RandomGraphSpec, usize) {
    let mut x = i.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    };
    let seed = next();
    let mut range = |lo: u64, hi: u64| lo + next() % (hi - lo);
    let (objects, tasks, max_obj_size) = (range(4, 32), range(10, 80), range(1, 6));
    let (max_reads, update) = (range(1, 4), range(0, u64::MAX) >> 11);
    let spec = RandomGraphSpec {
        objects: objects as usize,
        tasks: tasks as usize,
        max_obj_size,
        max_reads: max_reads as usize,
        update_prob: update as f64 / (1u64 << 53) as f64 * 0.8,
        accum_prob: if seed.is_multiple_of(2) { 0.5 } else { 0.0 },
        max_weight: 5.0,
    };
    (seed, spec, range(2, 5) as usize)
}

/// `row` at every property case.
fn cases(row: impl Fn(u64, &RandomGraphSpec, usize) -> Case) -> Vec<Case> {
    (0..CASES)
        .map(|i| {
            let (seed, s, p) = property_case(i);
            row(seed, &s, p)
        })
        .collect()
}

#[test]
fn orderings_are_valid() {
    for policy in [Rcp, Mpo, Dts, DtsMerged] {
        sweep(&cases(|seed, s, p| random(seed, s, p, policy, Slack(8))));
    }
}

#[test]
fn executable_iff_min_mem() {
    let on_des =
        |cap| cases(move |seed, s, p| Case { driver: Des(Unit), ..random(seed, s, p, Mpo, cap) });
    let t = sweep(&[on_des(AtMin), on_des(BelowMin)].concat());
    assert_eq!((t.des_ok, t.non_executable), (CASES as usize, CASES as usize), "{t:?}");
}

#[test]
fn des_is_deterministic() {
    let t = sweep(&cases(|seed, s, p| Case {
        driver: Des(Unit),
        rounds: 2,
        ..random(seed, s, p, Rcp, AtMin)
    }));
    assert_eq!(t.des_ok, CASES as usize, "{t:?}");
}

#[test]
fn dts_theorem2_bound() {
    // DTS peaks within `perm + h`, and at that capacity both drivers run.
    let t =
        sweep(&cases(|seed, s, p| Case { driver: Both(Unit), ..random(seed, s, p, Dts, Thm2) }));
    assert_eq!(t.des_ok, CASES as usize, "{t:?}");
}

#[test]
fn slice_merging_budget() {
    sweep(&cases(|seed, s, p| random(seed, s, p, DtsMerged, AtMin)));
}

#[test]
fn managed_vs_unmanaged_sanity() {
    let t = sweep(&cases(|seed, s, p| Case { driver: Des(Unit), ..random(seed, s, p, Rcp, Tot) }));
    assert_eq!(t.des_ok, CASES as usize, "{t:?}");
}

#[test]
fn memreq_bounds_on_many_seeds() {
    sweep(&grid(0..40, random(0, &RandomGraphSpec::default(), 3, Rcp, AtMin)));
}
