//! Single-slot address mailboxes (paper §3.2, "address buffering").
//!
//! RAPID deliberately does **not** buffer address packages: "each processor
//! has one buffer space for every other processor in order to receive
//! addresses from them. If a previous address package has not been consumed
//! by a destination processor, the source processor will not be able to
//! send a new address package to this destination processor." The sender
//! blocks (in the MAP state) until the slot drains; Theorem 1 shows the
//! receiver always drains it because RA runs in every blocking state.
//!
//! [`AddrSlot`] is that one-slot channel: [`AddrSlot::try_send_from`] fails
//! while the slot is full, [`AddrSlot::take_into`] empties it, and
//! [`MailboxBoard::drain_for_into`] is the RA operation over one
//! processor's incoming slots. The full/empty handoff uses release/acquire
//! ordering so the package contents published by the sender are visible to
//! the receiver. No path allocates in steady state: the slot keeps a
//! resident buffer, sender and receiver keep theirs.

// sync-audit: the EMPTY→WRITING CAS uses a Relaxed failure ordering — a
// failed claim publishes nothing and the caller retries later. Success uses
// Acquire (pairs with the receiver's Release EMPTY store so the slot buffer
// reuse is ordered) and FULL/EMPTY hand-offs are Release/Acquire. The state
// machine is model-checked exhaustively by `rapid_sync::models::mailbox`
// (see DESIGN.md §16).

use rapid_sync::{Ordering, SyncAtomicU8};
use std::sync::Mutex;

/// One entry of an address package: object `obj` lives at arena offset
/// `offset` on the notifying processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrEntry {
    /// Object id.
    pub obj: u32,
    /// Offset of the object's buffer in the receiver's arena.
    pub offset: u64,
}

/// An address package: the batch of new addresses a MAP sends to one
/// collaborating processor.
pub type AddrPackage = Vec<AddrEntry>;

const EMPTY: u8 = 0;
const WRITING: u8 = 1;
const FULL: u8 = 2;

/// A single-slot SPSC mailbox for address packages.
///
/// One instance exists per (source, destination) processor pair; only the
/// source calls [`AddrSlot::try_send_from`] and only the destination calls
/// [`AddrSlot::take_into`].
///
/// The inner mutex only serializes the package buffer hand-off; the
/// EMPTY/WRITING/FULL state machine is what gates access, so a poisoned
/// lock (a peer worker panicking while holding it is impossible — no user
/// code runs under it, but a panicking allocator could) is recovered
/// rather than propagated.
#[derive(Debug, Default)]
pub struct AddrSlot {
    state: SyncAtomicU8,
    pkg: Mutex<AddrPackage>,
}

impl AddrSlot {
    /// New empty slot.
    pub fn new() -> Self {
        AddrSlot { state: SyncAtomicU8::new(EMPTY), pkg: Mutex::new(Vec::new()) }
    }

    /// Deposit `pkg`: copies the entries into the slot's resident buffer
    /// and clears `pkg` (so the caller can reuse its capacity for the next
    /// MAP). Returns `false`, leaving `pkg` untouched, while the previous
    /// package has not been consumed.
    pub fn try_send_from(&self, pkg: &mut AddrPackage) -> bool {
        match self.state.compare_exchange(EMPTY, WRITING, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => {
                {
                    let mut slot = self.pkg.lock().unwrap_or_else(|e| e.into_inner());
                    slot.clear();
                    slot.extend_from_slice(pkg);
                }
                self.state.store(FULL, Ordering::Release);
                pkg.clear();
                true
            }
            Err(_) => false,
        }
    }

    /// Consume the waiting package, emptying the slot (the RA operation's
    /// per-slot step): appends its entries to `buf` (the receiver's
    /// reusable scratch) and leaves the slot's buffer — with its capacity —
    /// in place for the sender's next package. Returns `false` when the
    /// slot is empty.
    #[inline]
    pub fn take_into(&self, buf: &mut Vec<AddrEntry>) -> bool {
        if self.state.load(Ordering::Acquire) != FULL {
            return false;
        }
        {
            let mut slot = self.pkg.lock().unwrap_or_else(|e| e.into_inner());
            buf.extend_from_slice(&slot);
            slot.clear();
        }
        self.state.store(EMPTY, Ordering::Release);
        true
    }

    /// Is a package waiting?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.state.load(Ordering::Acquire) == FULL
    }
}

/// The full `p × p` mailbox board of a machine: `slot(src, dst)` is the
/// channel from `src` to `dst`. Diagonal slots exist but are unused.
#[derive(Debug)]
pub struct MailboxBoard {
    nprocs: usize,
    slots: Vec<AddrSlot>,
}

impl MailboxBoard {
    /// Board for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        MailboxBoard { nprocs, slots: (0..nprocs * nprocs).map(|_| AddrSlot::new()).collect() }
    }

    /// The slot carrying packages from `src` to `dst`.
    #[inline]
    pub fn slot(&self, src: usize, dst: usize) -> &AddrSlot {
        &self.slots[src * self.nprocs + dst]
    }

    /// The RA ("read addresses") service operation: drain every package
    /// waiting for `dst` through the reusable `scratch` buffer, invoking
    /// `f(src, package)` with a borrowed view of each. Returns the number
    /// of packages consumed.
    pub fn drain_for_into<F: FnMut(usize, &[AddrEntry])>(
        &self,
        dst: usize,
        scratch: &mut Vec<AddrEntry>,
        mut f: F,
    ) -> usize {
        let mut n = 0;
        for src in 0..self.nprocs {
            if src == dst {
                continue;
            }
            scratch.clear();
            if self.slot(src, dst).take_into(scratch) {
                f(src, scratch);
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn send_take_roundtrip_reuses_buffers() {
        let s = AddrSlot::new();
        let mut buf = Vec::new();
        assert!(!s.take_into(&mut buf), "a new slot is empty");
        let mut out = vec![AddrEntry { obj: 1, offset: 8 }, AddrEntry { obj: 2, offset: 16 }];
        assert!(s.try_send_from(&mut out));
        assert!(s.is_full());
        assert!(out.is_empty(), "send_from clears the caller's buffer");
        assert!(out.capacity() >= 2, "…but keeps its capacity");
        // A second send fails until the first is consumed and leaves the
        // pending buffer untouched.
        let mut blocked = vec![AddrEntry { obj: 9, offset: 0 }];
        assert!(!s.try_send_from(&mut blocked));
        assert_eq!(blocked.len(), 1);
        assert!(s.take_into(&mut buf));
        assert_eq!(buf, vec![AddrEntry { obj: 1, offset: 8 }, AddrEntry { obj: 2, offset: 16 }]);
        assert!(!s.is_full());
        assert!(!s.take_into(&mut buf), "slot drained");
        assert_eq!(buf.len(), 2, "failed take appends nothing");
        assert!(s.try_send_from(&mut blocked));
        buf.clear();
        assert!(s.take_into(&mut buf));
        assert_eq!(buf, vec![AddrEntry { obj: 9, offset: 0 }]);
    }

    #[test]
    fn board_drain_into() {
        let b = MailboxBoard::new(3);
        assert!(b.slot(0, 2).try_send_from(&mut vec![AddrEntry { obj: 1, offset: 8 }]));
        assert!(b.slot(1, 2).try_send_from(&mut vec![AddrEntry { obj: 2, offset: 16 }]));
        let mut scratch = Vec::new();
        let mut seen = Vec::new();
        let n = b.drain_for_into(2, &mut scratch, |src, pkg| seen.push((src, pkg.to_vec())));
        assert_eq!(n, 2);
        seen.sort_unstable_by_key(|&(src, _)| src);
        assert_eq!(
            seen,
            vec![
                (0, vec![AddrEntry { obj: 1, offset: 8 }]),
                (1, vec![AddrEntry { obj: 2, offset: 16 }])
            ]
        );
        assert_eq!(b.drain_for_into(2, &mut scratch, |_, _| panic!("must be empty")), 0);
    }

    #[test]
    fn cross_thread_visibility() {
        // The receiver must observe the entries written before FULL.
        let s = Arc::new(AddrSlot::new());
        let s2 = Arc::clone(&s);
        let producer = std::thread::spawn(move || {
            let mut pkg = Vec::new();
            for i in 0..1000u32 {
                pkg.push(AddrEntry { obj: i, offset: (i as u64) * 8 });
                while !s2.try_send_from(&mut pkg) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut next = 0u32;
        let mut pkg = Vec::new();
        while next < 1000 {
            pkg.clear();
            if s.take_into(&mut pkg) {
                assert_eq!(pkg.len(), 1);
                assert_eq!(pkg[0].obj, next);
                assert_eq!(pkg[0].offset, (next as u64) * 8);
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }
}
