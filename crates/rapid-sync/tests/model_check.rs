//! Exhaustive interleaving checks of the three audited runtime cores, plus
//! the seeded mutation corpus that validates the checker itself: every GOOD
//! configuration must pass with the full bounded state space explored, and
//! every mutant (weakened ordering / deleted fence / logic slip) must be
//! refuted with a named, reproducible counterexample trace.
//!
//! Runs in tier-1 debug tests (instrumentation is on under
//! `debug_assertions`) and again in release in the CI `model-check` job via
//! `RUSTFLAGS="--cfg rapid_model_check"`; a plain release test build has no
//! `rapid_sync::models` and compiles this file to nothing.
#![cfg(any(debug_assertions, rapid_model_check))]

use rapid_sync::model::{self, Config, Counterexample};
use rapid_sync::models::{mailbox, ring, sentguard};
use rapid_sync::{Ordering, SyncAtomicU64};

fn cfg() -> Config {
    Config { max_execs: 2_000_000, max_steps: 300, budget: 4 }
}

fn assert_named_cex(name: &str, cex: &Counterexample) {
    assert_eq!(cex.model, name, "counterexample carries the mutant name");
    assert!(!cex.trace.is_empty(), "counterexample for `{name}` has a concrete interleaving");
    println!("== mutant `{name}` refuted ==\n{}", cex.render());
}

// ---------------------------------------------------------------------------
// Flat-ring seqlock
// ---------------------------------------------------------------------------

#[test]
fn ring_good_passes_exhaustively() {
    let stats = model::check_passes("ring-good", cfg(), ring::scenario(ring::GOOD));
    println!(
        "ring-good: {} executions ({} pruned), {} steps",
        stats.executions, stats.pruned, stats.steps
    );
    assert!(stats.executions > 50, "state space was actually explored");
}

#[test]
fn ring_mutants_all_caught() {
    for (name, mutant) in ring::mutants() {
        let cex = model::require_violation(name, cfg(), ring::scenario(mutant));
        assert_named_cex(name, &cex);
    }
}

// ---------------------------------------------------------------------------
// Mailbox slot hand-off
// ---------------------------------------------------------------------------

#[test]
fn mailbox_good_passes_exhaustively() {
    let stats = model::check_passes("mailbox-good", cfg(), mailbox::scenario(mailbox::GOOD));
    println!(
        "mailbox-good: {} executions ({} pruned), {} steps",
        stats.executions, stats.pruned, stats.steps
    );
    assert!(stats.executions > 50, "state space was actually explored");
}

#[test]
fn mailbox_mutants_all_caught() {
    for (name, mutant) in mailbox::mutants() {
        let cex = model::require_violation(name, cfg(), mailbox::scenario(mutant));
        assert_named_cex(name, &cex);
    }
}

// ---------------------------------------------------------------------------
// Recovery sent-guard
// ---------------------------------------------------------------------------

#[test]
fn sentguard_good_passes_exhaustively() {
    let stats = model::check_passes("sent-good", cfg(), sentguard::scenario(sentguard::GOOD));
    println!(
        "sent-good: {} executions ({} pruned), {} steps",
        stats.executions, stats.pruned, stats.steps
    );
    assert!(stats.executions > 10, "state space was actually explored");
}

#[test]
fn sentguard_mutants_all_caught() {
    for (name, mutant) in sentguard::mutants() {
        let cex = model::require_violation(name, cfg(), sentguard::scenario(mutant));
        assert_named_cex(name, &cex);
    }
}

// ---------------------------------------------------------------------------
// Checker properties
// ---------------------------------------------------------------------------

/// Counterexamples are deterministic: the same mutant refutes identically on
/// every run (schedule digits and rendered trace), so a CI artifact is
/// replayable by re-running the test.
#[test]
fn counterexamples_are_reproducible() {
    let (name, mutant) = &ring::mutants()[0];
    let a = model::require_violation(name, cfg(), ring::scenario(*mutant));
    let b = model::require_violation(name, cfg(), ring::scenario(*mutant));
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.executions, b.executions);
}

/// Outside an active check the shim is a plain passthrough to std atomics
/// (this is the path the real runtime exercises).
#[test]
fn shim_passthrough_outside_checks() {
    let a = SyncAtomicU64::new(5);
    assert_eq!(a.load(Ordering::Acquire), 5);
    a.store(9, Ordering::Release);
    assert_eq!(a.load(Ordering::Relaxed), 9);
    assert_eq!(a.compare_exchange(9, 12, Ordering::AcqRel, Ordering::Relaxed), Ok(9));
    assert_eq!(a.fetch_add(3, Ordering::AcqRel), 12);
    assert_eq!(a.load(Ordering::Acquire), 15);
}
