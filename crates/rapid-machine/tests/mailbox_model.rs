//! Exhaustive interleaving check of the address mailbox, driving the
//! shipping [`AddrSlot`] itself under the `rapid-sync` model checker. The
//! slot's `try_send_from` / `take_into` run as shipped; only the buffer is
//! the model's: one package is one `u64` in a race-checked cell, so a
//! buffer the state byte fails to make exclusive shows up as a data race,
//! and a package lost, duplicated or reordered as a wrong delivery.
//!
//! Three GOOD scenarios: one sender and one receiver passing two packages
//! in order; two receivers on one slot, which must never both get the one
//! package; two senders on one slot, whose packages must each arrive once.
//! Five mutants weaken one field of [`SlotOrd`] each and must be refuted
//! by name.
//!
//! Runs wherever the shim is instrumented: debug builds (tier-1) and
//! release builds with `--cfg rapid_model_check` (the CI `model-check` job).
#![cfg(any(debug_assertions, rapid_model_check))]

use rapid_machine::mailbox::{AddrSlot, SlotBuf, SlotOrd};
use rapid_sync::model::{self, Config, Sim};
use rapid_sync::{Ordering, SyncCell};
use std::rc::Rc;

/// The model's package buffer: one value in a race-checked cell (boxed, so
/// that its label survives the move into the slot).
struct Cell(Box<SyncCell<u64>>);

impl SlotBuf for Cell {
    type Pkg = u64;

    unsafe fn fill(&self, pkg: &mut u64) {
        // SAFETY: forwarded from the slot, which claimed the buffer.
        unsafe { self.0.write(*pkg) };
    }

    unsafe fn drain(&self, out: &mut u64) {
        // SAFETY: forwarded from the slot, which claimed the buffer.
        *out = unsafe { self.0.read() };
    }
}

fn cfg() -> Config {
    Config { max_execs: 2_000_000, max_steps: 300, budget: 4 }
}

/// One slot, a sender thread per entry of `sends` (each value with at most
/// two claim attempts; a value the slot never takes ends the thread) and a
/// receiver thread per entry of `polls` (that many looks at the slot). After
/// every thread, what is still in flight is drained, and the packages
/// received must be exactly the packages sent: each sender's in its order,
/// none twice, none lost.
fn scenario(
    ord: SlotOrd,
    sends: &'static [&'static [u64]],
    polls: &'static [usize],
) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let cell = Cell(Box::new(SyncCell::new(0)));
        cell.0.label("pkg");
        let slot = Rc::new(AddrSlot::with_orderings(cell, ord));
        for &values in sends {
            let slot = Rc::clone(&slot);
            sim.thread(move || {
                for &v in values {
                    let mut pkg = v;
                    if !(0..2).any(|_| slot.try_send_from(&mut pkg)) {
                        return;
                    }
                    model::out(v);
                }
            });
        }
        for &n in polls {
            let slot = Rc::clone(&slot);
            sim.thread(move || {
                for _ in 0..n {
                    let mut v = 0;
                    if slot.take_into(&mut v) {
                        model::out(v);
                    }
                }
            });
        }
        let slot = Rc::clone(&slot);
        sim.finally(move || {
            let outs = model::outputs();
            let (sent, received) = outs[1..].split_at(sends.len());
            let mut received = received.concat();
            let mut left = 0;
            if slot.take_into(&mut left) {
                received.push(left);
            }
            for sent in sent {
                let got: Vec<u64> = received.iter().copied().filter(|v| sent.contains(v)).collect();
                assert_eq!(&got, sent, "a sender's packages arrive in order, each once");
            }
            assert_eq!(received.len(), sent.concat().len(), "nothing arrives that was not sent");
        });
    }
}

/// One sender passing two packages to one receiver that looks twice.
fn one_to_one(ord: SlotOrd) -> impl Fn(&mut Sim) {
    scenario(ord, &[&[7, 8]], &[2])
}

fn passes(name: &str, scenario: impl Fn(&mut Sim)) {
    let stats = model::check_passes(name, cfg(), scenario);
    assert!(stats.executions > 20, "state space was actually explored");
}

#[test]
fn mailbox_good_passes_exhaustively() {
    passes("mailbox-good", one_to_one(SlotOrd::GOOD));
}

/// Two threads take from one slot holding one package: at most one of
/// them may get it, and neither may read the buffer while the other does.
#[test]
fn two_receivers_never_share_a_package() {
    passes("mailbox-two-receivers", scenario(SlotOrd::GOOD, &[&[7]], &[1, 1]));
}

/// Two threads send into one slot: neither may fill the buffer while the
/// other does, and each package that was taken arrives once.
#[test]
fn two_senders_never_share_the_buffer() {
    passes("mailbox-two-senders", scenario(SlotOrd::GOOD, &[&[7], &[8]], &[1]));
}

fn mutants() -> [(&'static str, SlotOrd); 5] {
    let good = SlotOrd::GOOD;
    [
        // The receiver may claim FULL without the package written before it.
        ("mailbox-full-store-relaxed", SlotOrd { publish: Ordering::Relaxed, ..good }),
        // The sender may refill the buffer the receiver is still reading.
        ("mailbox-empty-store-relaxed", SlotOrd { release: Ordering::Relaxed, ..good }),
        // The sender's claim does not see the receiver's read finish.
        ("mailbox-cas-success-relaxed", SlotOrd { claim_send: Ordering::Relaxed, ..good }),
        // The receiver's claim does not see the sender's write finish.
        ("mailbox-take-claim-relaxed", SlotOrd { claim_take: Ordering::Relaxed, ..good }),
        // FULL is visible while the buffer is still being written.
        ("mailbox-publish-before-payload", SlotOrd { publish_before_fill: true, ..good }),
    ]
}

#[test]
fn mailbox_mutants_all_caught() {
    for (name, ord) in mutants() {
        model::require_violation(name, cfg(), one_to_one(ord));
    }
}

/// Counterexamples are deterministic: the same mutant refutes identically on
/// every run (schedule digits and rendered trace), so a CI artifact is
/// replayable by re-running the test.
#[test]
fn counterexamples_are_reproducible() {
    let (name, ord) = mutants()[0];
    let a = model::require_violation(name, cfg(), one_to_one(ord));
    let b = model::require_violation(name, cfg(), one_to_one(ord));
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.executions, b.executions);
}
