//! Both drivers traced and compared: fault-free, the DES and the threaded
//! executor emit one skeleton per processor, and a seeded DES rerun is the
//! same trace byte for byte. Slices of the sweep (see `sweep/mod.rs`).

mod common;
mod sweep;

use sweep::*;

#[test]
fn random_dags_agree_with_slack() {
    let both = random(0, &spec(20, 60, 1), 3, Mpo, Slack(5)).traced_on(Both(Unit));
    let t = sweep(&grid(0..12, both));
    assert!(t.compared >= 8, "only {}/12 seeds produced a comparable run", t.compared);
}

#[test]
fn random_dags_agree_at_exact_min_mem() {
    let both = random(0, &spec(16, 40, 1), 4, Mpo, AtMin).traced_on(Both(Unit));
    let t = sweep(&grid(20..28, both));
    assert!(t.compared >= 5, "only {}/8 seeds produced a comparable run", t.compared);
}

#[test]
fn idle_processor_agrees() {
    // Figure 2 (c) with a third, idle processor: one MAP on each driver.
    assert_eq!(run(&at(IdleProc, 3, Fixed, AtMin).traced_on(Both(Unit))).compared, 1);
}

#[test]
fn cholesky_fixture_agrees() {
    assert_eq!(run(&at(Cholesky, 4, Mpo, Slack(256)).traced_on(Both(Unit))).compared, 1);
}

#[test]
fn lu_fixture_agrees() {
    assert_eq!(run(&at(Lu, 3, Mpo, Slack(256)).traced_on(Both(Unit))).compared, 1);
}

#[test]
fn des_trace_is_byte_identical_across_reruns() {
    let g13 = random(13, &spec(16, 40, 4), 3, Mpo, AtMin);
    let rerun = Case { rounds: 2, ..g13.traced_on(Des(Unit)) };
    let faulted = Case { fault: Some(Scenario("delay-heavy", 7)), ..rerun.clone() };
    assert!(run(&rerun).injected == 0 && run(&faulted).injected > 0);
}
