//! Bounded model of the mailbox slot protocol: `AddrSlot::try_send_from` vs
//! `take_into` (`crates/rapid-machine/src/mailbox.rs`).
//!
//! One slot (`state` ∈ {EMPTY, WRITING, FULL} + a payload cell standing in
//! for the package buffer), one sender, one receiver. The sender pushes two
//! values with bounded retries (CAS EMPTY→WRITING, write payload, publish
//! FULL); the receiver polls twice (Acquire load sees FULL, reads payload,
//! releases EMPTY). A `finally` invariant drains the slot and requires the
//! received sequence to equal the sent sequence — in order, no duplicates,
//! no loss — and the payload cell accesses are race-checked throughout, so
//! any weakened edge in the EMPTY→WRITING→FULL→EMPTY cycle surfaces either
//! as a data race or as a corrupted/missing delivery.

// sync-audit: this is a bounded *model* — Relaxed orderings appear here both
// as deliberate parts of the audited protocol and as seeded mutants the
// checker must refute; they are simulated, never executed against real memory.

use std::rc::Rc;

use crate::model::{out, outputs, Sim};
use crate::{Ordering, SyncAtomicU8, SyncCell};

const EMPTY: u8 = 0;
const WRITING: u8 = 1;
const FULL: u8 = 2;

/// Orderings and the write-then-publish switch of the slot protocol.
#[derive(Clone, Copy, Debug)]
pub struct MailboxConfig {
    /// Success ordering of the claiming CAS (EMPTY → WRITING).
    pub cas_success: Ordering,
    pub cas_failure: Ordering,
    /// Publishing store (WRITING → FULL).
    pub full_store: Ordering,
    /// Releasing store after drain (FULL → EMPTY).
    pub empty_store: Ordering,
    /// Receiver's polling load.
    pub take_load: Ordering,
    /// Mutant: publish FULL before the payload write.
    pub publish_before_payload: bool,
}

/// Mirrors the audited `mailbox.rs` code.
pub const GOOD: MailboxConfig = MailboxConfig {
    cas_success: Ordering::Acquire,
    cas_failure: Ordering::Relaxed,
    full_store: Ordering::Release,
    empty_store: Ordering::Release,
    take_load: Ordering::Acquire,
    publish_before_payload: false,
};

/// Seeded mutation corpus: each entry must be refuted by the checker.
pub fn mutants() -> Vec<(&'static str, MailboxConfig)> {
    vec![
        ("mailbox-full-store-relaxed", MailboxConfig { full_store: Ordering::Relaxed, ..GOOD }),
        ("mailbox-empty-store-relaxed", MailboxConfig { empty_store: Ordering::Relaxed, ..GOOD }),
        ("mailbox-cas-success-relaxed", MailboxConfig { cas_success: Ordering::Relaxed, ..GOOD }),
        ("mailbox-take-load-relaxed", MailboxConfig { take_load: Ordering::Relaxed, ..GOOD }),
        ("mailbox-publish-before-payload", MailboxConfig { publish_before_payload: true, ..GOOD }),
    ]
}

/// Build the scenario for one configuration.
pub fn scenario(cfg: MailboxConfig) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let state = Rc::new(SyncAtomicU8::new(EMPTY));
        let payload = Rc::new(SyncCell::new(0u64));
        state.label("state");
        payload.label("pkg");

        // Sender (t1): two values, two claim attempts each.
        {
            let state = Rc::clone(&state);
            let payload = Rc::clone(&payload);
            sim.thread(move || {
                for v in [7u64, 8] {
                    let mut done = false;
                    for _attempt in 0..2 {
                        if state
                            .compare_exchange(EMPTY, WRITING, cfg.cas_success, cfg.cas_failure)
                            .is_ok()
                        {
                            if cfg.publish_before_payload {
                                state.store(FULL, cfg.full_store);
                            }
                            // SAFETY (model): exclusivity is supposed to be
                            // granted by winning the EMPTY→WRITING CAS; the
                            // checker race-detects configurations where the
                            // orderings fail to deliver it.
                            unsafe { payload.write(v) };
                            if !cfg.publish_before_payload {
                                state.store(FULL, cfg.full_store);
                            }
                            out(v);
                            done = true;
                            break;
                        }
                    }
                    if !done {
                        break; // slot still full; later values are never sent
                    }
                }
            });
        }

        // Receiver (t2): two polls.
        {
            let state = Rc::clone(&state);
            let payload = Rc::clone(&payload);
            sim.thread(move || {
                for _poll in 0..2 {
                    if state.load(cfg.take_load) == FULL {
                        // SAFETY (model): FULL is supposed to publish the
                        // payload written before it; see sender.
                        let v = unsafe { payload.read() };
                        state.store(EMPTY, cfg.empty_store);
                        out(v);
                    }
                }
            });
        }

        // Finally: drain what is still in flight; delivery must be exact.
        {
            let state = Rc::clone(&state);
            let payload = Rc::clone(&payload);
            sim.finally(move || {
                let outs = outputs();
                let sent = outs[1].clone();
                let mut received = outs[2].clone();
                if state.load(Ordering::Acquire) == FULL {
                    // SAFETY: all model threads have joined; exclusive.
                    received.push(unsafe { payload.read() });
                }
                assert_eq!(
                    received, sent,
                    "mailbox delivery must be in-order, no duplicates, no loss"
                );
            });
        }
    }
}
