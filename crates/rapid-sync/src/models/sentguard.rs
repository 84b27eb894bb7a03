//! Bounded model of the recovery `sent`-guard: `ProcCore::try_send`'s
//! payload puts + `FlagBoard::raise` (`ThreadEnv::put`) vs window
//! re-execution and the receiver's `is_raised` poll
//! (`crates/rapid-rt/src/core.rs`, `threaded.rs` and
//! `crates/rapid-machine/src/rma.rs`).
//!
//! The sender executes a send (payload write, then a Release `fetch_add` on
//! the flag), suffers a window rollback, and re-executes the send state —
//! the `sent[mid]` guard must suppress the duplicate. The receiver polls
//! the flag with Acquire and reads the payload once raised. The `finally`
//! invariant requires the flag count to be exactly 1: `FlagBoard` is
//! deliberately a counter, not a boolean, so a double raise is observable.
//! A deleted guard shows up both as a flag count of 2 and as a data race
//! between the re-executed payload write and the receiver's read.

// sync-audit: this is a bounded *model* — Relaxed orderings appear here both
// as deliberate parts of the audited protocol and as seeded mutants the
// checker must refute; they are simulated, never executed against real memory.

use std::rc::Rc;

use crate::model::Sim;
use crate::{Ordering, SyncAtomicU32, SyncCell};

const PAYLOAD: u64 = 42;

/// Orderings and guard switches for the recovery send path.
#[derive(Clone, Copy, Debug)]
pub struct SentConfig {
    /// `FlagBoard::raise` (`fetch_add`).
    pub raise: Ordering,
    /// `FlagBoard::is_raised` (receiver poll load).
    pub poll: Ordering,
    /// The `sent[mid]` guard on re-execution.
    pub guard: bool,
    /// Payload written before the flag is raised (true in GOOD).
    pub payload_before_raise: bool,
}

/// Mirrors the audited `core.rs`/`threaded.rs`/`rma.rs` code.
pub const GOOD: SentConfig = SentConfig {
    raise: Ordering::Release,
    poll: Ordering::Acquire,
    guard: true,
    payload_before_raise: true,
};

/// Seeded mutation corpus: each entry must be refuted by the checker.
pub fn mutants() -> Vec<(&'static str, SentConfig)> {
    vec![
        ("sent-guard-deleted", SentConfig { guard: false, ..GOOD }),
        ("sent-raise-relaxed", SentConfig { raise: Ordering::Relaxed, ..GOOD }),
        ("sent-poll-relaxed", SentConfig { poll: Ordering::Relaxed, ..GOOD }),
        ("sent-raise-before-payload", SentConfig { payload_before_raise: false, ..GOOD }),
    ]
}

/// Build the scenario for one configuration.
pub fn scenario(cfg: SentConfig) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let flag = Rc::new(SyncAtomicU32::new(0));
        let payload = Rc::new(SyncCell::new(0u64));
        flag.label("flag");
        payload.label("payload");

        // Sender (t1): send, roll back, re-execute the SND state.
        {
            let flag = Rc::clone(&flag);
            let payload = Rc::clone(&payload);
            sim.thread(move || {
                let mut sent = false; // Net.sent[mid]
                for _attempt in 0..2 {
                    // Second iteration models the window re-execution after
                    // a rollback re-entered the SND state.
                    if cfg.guard && sent {
                        continue;
                    }
                    let send = |first: bool| {
                        if first == cfg.payload_before_raise {
                            // SAFETY (model): the flag protocol is supposed
                            // to keep the receiver off the payload until the
                            // raise publishes it; the checker race-detects
                            // configurations where it does not.
                            unsafe { payload.write(PAYLOAD) };
                        } else {
                            flag.fetch_add(1, cfg.raise);
                        }
                    };
                    send(true);
                    send(false);
                    sent = true;
                }
            });
        }

        // Receiver (t2): two is_raised polls, reading the payload once up.
        {
            let flag = Rc::clone(&flag);
            let payload = Rc::clone(&payload);
            sim.thread(move || {
                for _poll in 0..2 {
                    if flag.load(cfg.poll) > 0 {
                        // SAFETY (model): a raised flag is supposed to
                        // publish the payload written before it.
                        let v = unsafe { payload.read() };
                        assert_eq!(v, PAYLOAD, "raised flag exposed an unwritten payload");
                    }
                }
            });
        }

        // Finally: exactly-once accounting.
        {
            let flag = Rc::clone(&flag);
            let payload = Rc::clone(&payload);
            sim.finally(move || {
                assert_eq!(
                    flag.load(Ordering::Acquire),
                    1,
                    "re-executed send must not double-raise the flag"
                );
                // SAFETY: all model threads have joined; exclusive.
                let v = unsafe { payload.read() };
                assert_eq!(v, PAYLOAD);
            });
        }
    }
}
