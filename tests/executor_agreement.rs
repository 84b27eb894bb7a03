//! The DES and the threaded executor at the same schedules agree on every
//! MAP count and peak. Slices of the sweep (see `sweep/mod.rs`).

mod common;
mod sweep;

use rapid::core::fixtures::RandomGraphSpec;
use sweep::*;

fn both(seeds: std::ops::Range<u64>, p: usize, cap: Cap) -> Vec<Case> {
    grid(seeds, random(0, &spec(20, 60, 1), p, Mpo, cap).on(Both(Unit)))
}

#[test]
fn agreement_at_exact_min_mem() {
    assert_eq!(sweep(&both(0..10, 3, AtMin)).compared, 10);
}

#[test]
fn agreement_with_slack() {
    assert_eq!(sweep(&both(10..18, 4, Slack(5))).compared, 8);
}

#[test]
fn agreement_single_processor() {
    // A lone processor runs one MAP on both drivers.
    let lone = random(99, &RandomGraphSpec::default(), 1, Rcp, Tot).on(Both(Unit));
    assert_eq!(run(&lone).compared, 1);
}
