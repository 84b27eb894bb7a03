//! Exhaustive interleaving check of the sleep / wake handshake, driving the
//! shipping [`Sleepers`] cell itself under the `rapid-sync` model checker:
//! one sleeper, one waker, one event. The event is an arrival flag, raised
//! with `Release` and looked at with `Acquire` exactly as `FlagBoard` does.
//! The sleeper announces itself and looks once more ([`Sleepers::arm`]); the
//! waker raises the flag and asks whether it owes an unpark
//! ([`Sleepers::claim`]). What must hold in every interleaving, under every
//! reordering the memory model allows: the event is raised, so the sleeper
//! either saw it on its last look or has an unpark pending. A sleeper that
//! parks with neither sleeps until its bound.
//!
//! Runs wherever the shim is instrumented: debug builds (tier-1) and
//! release builds with `--cfg rapid_model_check` (the CI `model-check` job).
#![cfg(any(debug_assertions, rapid_model_check))]

use rapid_machine::wait::{Handshake, Sleepers};
use rapid_sync::model::{self, Config, Sim};
use rapid_sync::{Ordering, SyncAtomicU32};
use std::rc::Rc;

fn cfg() -> Config {
    Config { max_execs: 100_000, max_steps: 50, budget: 3 }
}

fn scenario(hs: Handshake) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let sleepers = Rc::new(Sleepers::with_handshake(1, hs));
        let flag = Rc::new(SyncAtomicU32::new(0));
        flag.label("flag");

        {
            let (sleepers, flag) = (Rc::clone(&sleepers), Rc::clone(&flag));
            sim.thread(move || {
                let parks = sleepers.arm(0, || flag.load(Ordering::Acquire) > 0);
                model::out(parks as u64);
            });
        }
        {
            let (sleepers, flag) = (Rc::clone(&sleepers), Rc::clone(&flag));
            sim.thread(move || {
                flag.fetch_add(1, Ordering::Release);
                model::out(sleepers.claim(0) as u64);
            });
        }
        sim.finally(|| {
            let outs = model::outputs();
            let (parks, unparked) = (outs[1] == [1], outs[2] == [1]);
            assert!(!parks || unparked, "lost wake-up: the sleeper parks and nobody unparks it");
        });
    }
}

#[test]
fn wait_handshake_passes_exhaustively() {
    let stats = model::check_passes("wait-good", cfg(), scenario(Handshake::GOOD));
    println!(
        "wait-good: {} executions ({} pruned), {} steps",
        stats.executions, stats.pruned, stats.steps
    );
    assert!(stats.executions > 5, "state space was actually explored");
}

#[test]
fn wait_mutants_all_caught() {
    let mutants = [
        // Nothing keeps the waker's load of the sleeper word behind its
        // flag store: both sides may read the other's old value.
        ("wait-wake-no-fence", Handshake { wake_fence: Ordering::Release, ..Handshake::GOOD }),
        // The flag raised between the sleeper's last poll and its
        // announcement is never looked at again.
        ("wait-sleep-no-recheck", Handshake { recheck: false, ..Handshake::GOOD }),
    ];
    for (name, hs) in mutants {
        let cex = model::require_violation(name, cfg(), scenario(hs));
        assert_eq!(cex.model, name, "counterexample carries the mutant name");
        assert!(!cex.trace.is_empty(), "counterexample for `{name}` has a concrete interleaving");
        println!("== mutant `{name}` refuted ==\n{}", cex.render());
    }
}
