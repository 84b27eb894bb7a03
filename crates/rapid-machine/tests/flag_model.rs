//! Exhaustive interleaving check of the RMA publication edge, driving the
//! shipping [`FlagBoard`] itself under the `rapid-sync` model checker: one
//! writer puts a payload and raises its flag, one reader polls the flag
//! twice and reads the payload once it is up. The payload is a race-checked
//! cell standing in for the heap range, so a raise that does not publish
//! the put shows up as a data race, or as the reader seeing no payload.
//!
//! What the board cannot get wrong by itself — a put published more than
//! once when a recovered window re-runs its sends — is a property of the
//! protocol core and is checked on its traces instead (`rapid_trace`'s
//! `DuplicateSend`).
//!
//! Runs wherever the shim is instrumented: debug builds (tier-1) and
//! release builds with `--cfg rapid_model_check` (the CI `model-check` job).
#![cfg(any(debug_assertions, rapid_model_check))]

use rapid_machine::rma::{FlagBoard, FlagOrd};
use rapid_sync::model::{self, Config, Sim};
use rapid_sync::{Ordering, SyncCell};
use std::rc::Rc;

const PAYLOAD: u64 = 42;

fn cfg() -> Config {
    Config { max_execs: 100_000, max_steps: 50, budget: 4 }
}

/// The writer puts, then raises — or, with `raise_first`, raises and then
/// puts: that mutant lives in the scenario, since the order of a put and
/// its raise is the caller's (`ThreadEnv::put`), not the board's.
fn scenario(ord: FlagOrd, raise_first: bool) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let board = Rc::new(FlagBoard::with_orderings(1, ord));
        let payload = Rc::new(SyncCell::new(0u64));
        payload.label("payload");

        {
            let (board, payload) = (Rc::clone(&board), Rc::clone(&payload));
            sim.thread(move || {
                if raise_first {
                    board.raise(0);
                }
                // SAFETY (model): the raise is supposed to keep the reader
                // off the payload until it is written; the checker
                // race-detects configurations where it does not.
                unsafe { payload.write(PAYLOAD) };
                if !raise_first {
                    board.raise(0);
                }
            });
        }
        {
            let (board, payload) = (Rc::clone(&board), Rc::clone(&payload));
            sim.thread(move || {
                for _ in 0..2 {
                    if board.is_raised(0) {
                        // SAFETY (model): a raised flag is supposed to
                        // publish the payload put before it.
                        let v = unsafe { payload.read() };
                        assert_eq!(v, PAYLOAD, "a raised flag exposed an unwritten payload");
                    }
                }
            });
        }
        sim.finally(move || {
            assert_eq!(board.count(0), 1, "the flag is raised exactly once");
            // SAFETY: all model threads have joined.
            assert_eq!(unsafe { payload.read() }, PAYLOAD);
        });
    }
}

#[test]
fn flag_publication_passes_exhaustively() {
    let stats = model::check_passes("flag-good", cfg(), scenario(FlagOrd::GOOD, false));
    assert!(stats.executions > 5, "state space was actually explored");
}

#[test]
fn flag_mutants_all_caught() {
    let good = FlagOrd::GOOD;
    let mutants = [
        // The reader may see the flag without the put behind it.
        ("flag-raise-relaxed", FlagOrd { raise: Ordering::Relaxed, ..good }, false),
        ("flag-poll-relaxed", FlagOrd { poll: Ordering::Relaxed, ..good }, false),
        // The flag is up before the payload is written.
        ("flag-raise-before-payload", good, true),
    ];
    for (name, ord, raise_first) in mutants {
        model::require_violation(name, cfg(), scenario(ord, raise_first));
    }
}
