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
//! processor's incoming slots. One state byte is the slot's only
//! synchronisation: a sender claims an empty slot with a CAS
//! (EMPTY → WRITING) and publishes the package with a Release store of
//! FULL; a receiver claims a full slot with a CAS (FULL → READING) and
//! hands the buffer back with a Release store of EMPTY. Whoever wins a
//! claim is the buffer's only user until the store that ends it, even when
//! two threads call the same side. No path allocates in steady state: the
//! slot keeps a resident buffer, sender and receiver keep theirs.

// sync-audit: both claiming CASes use a Relaxed failure ordering — a failed
// claim publishes nothing and the caller retries later — and `take_into`
// looks at the state with a Relaxed load before it claims, so polling an
// empty slot costs a load rather than a locked RMW; the claim that follows
// is the Acquire. A successful claim Acquires the Release store (FULL or
// EMPTY) that ended the previous hold. The shipping slot itself — not a
// transcription — is explored exhaustively by
// `rapid-machine/tests/mailbox_model.rs` (one sender and one receiver, two
// receivers, two senders), which also refutes the five weakenings of
// `SlotOrd` by name (see DESIGN.md §16).

use rapid_sync::{Ordering, SyncAtomicU8};
use std::cell::UnsafeCell;

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
const READING: u8 = 3;

/// The buffer an [`AddrSlot`] hands over. The slot's state byte decides
/// who may touch it; the buffer only moves a package in and out.
pub trait SlotBuf {
    /// What a sender deposits and a receiver drains into.
    type Pkg;

    /// Copy `pkg` into the buffer, which the last `drain` left empty.
    /// [`PkgBuf`] then clears `pkg`, keeping its capacity for the caller's
    /// next package.
    ///
    /// # Safety
    /// The caller is the buffer's only user for the duration of the call.
    unsafe fn fill(&self, pkg: &mut Self::Pkg);

    /// Hand the buffer's package to `out` and leave the buffer empty for
    /// the next `fill`. [`PkgBuf`] appends to `out` and keeps its capacity.
    ///
    /// # Safety
    /// The caller is the buffer's only user for the duration of the call.
    unsafe fn drain(&self, out: &mut Self::Pkg);
}

/// The shipping buffer: one resident package `Vec`.
#[derive(Default)]
pub struct PkgBuf(UnsafeCell<AddrPackage>);

impl SlotBuf for PkgBuf {
    type Pkg = AddrPackage;

    #[inline]
    unsafe fn fill(&self, pkg: &mut AddrPackage) {
        // SAFETY: the caller is the only user of the buffer.
        let buf = unsafe { &mut *self.0.get() };
        debug_assert!(buf.is_empty(), "fill without a drain since the last fill");
        buf.extend_from_slice(pkg);
        pkg.clear();
    }

    #[inline]
    unsafe fn drain(&self, out: &mut AddrPackage) {
        // SAFETY: the caller is the only user of the buffer.
        let buf = unsafe { &mut *self.0.get() };
        out.extend_from_slice(buf);
        buf.clear();
    }
}

/// The orderings of the slot's four state transitions, and where the
/// sender publishes. Production code always runs [`SlotOrd::GOOD`]; the
/// model checker's mutants weaken one field each.
#[derive(Clone, Copy, Debug)]
pub struct SlotOrd {
    /// A sender's successful claim, EMPTY → WRITING.
    pub claim_send: Ordering,
    /// The sender's publication, WRITING → FULL.
    pub publish: Ordering,
    /// A receiver's successful claim, FULL → READING.
    pub claim_take: Ordering,
    /// The receiver's hand-back, READING → EMPTY.
    pub release: Ordering,
    /// Publish FULL before filling the buffer instead of after.
    pub publish_before_fill: bool,
}

impl SlotOrd {
    /// The orderings the protocol is correct under.
    pub const GOOD: SlotOrd = SlotOrd {
        claim_send: Ordering::Acquire,
        publish: Ordering::Release,
        claim_take: Ordering::Acquire,
        release: Ordering::Release,
        publish_before_fill: false,
    };
}

/// A single-slot mailbox for address packages.
///
/// One instance exists per (source, destination) processor pair; the
/// runtime has one sender and one receiver per slot, but either side may
/// be called from several threads at once: the claims keep the buffer
/// exclusive (see the module docs).
pub struct AddrSlot<B = PkgBuf> {
    state: SyncAtomicU8,
    buf: B,
    ord: SlotOrd,
}

// SAFETY: `state` is an atomic and `ord` is never written after
// construction. `buf` is only touched between a successful claim (the CAS
// EMPTY → WRITING of a sender, FULL → READING of a receiver) and the store
// that ends it — not even `Debug` reads it. A CAS succeeds for one thread
// only, so at most one thread uses the buffer at a time, whichever sides
// call; and every claim Acquires the Release store that ended the previous
// hold, so the buffer is handed over with everything written into it. As
// with any lock, `B: Send` suffices: one thread at a time owns the buffer.
unsafe impl<B: Send> Sync for AddrSlot<B> {}

impl<B> std::fmt::Debug for AddrSlot<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddrSlot").field("state", &self.state).finish_non_exhaustive()
    }
}

impl Default for AddrSlot {
    fn default() -> Self {
        AddrSlot::new()
    }
}

impl AddrSlot {
    /// New empty slot.
    pub fn new() -> Self {
        AddrSlot { state: SyncAtomicU8::new(EMPTY), buf: PkgBuf::default(), ord: SlotOrd::GOOD }
    }
}

impl<B: SlotBuf> AddrSlot<B> {
    /// An empty slot over `buf` with its orderings set to `ord` — for the
    /// model checker only, hence absent from plain release builds.
    #[cfg(any(debug_assertions, rapid_model_check))]
    #[doc(hidden)]
    pub fn with_orderings(buf: B, ord: SlotOrd) -> Self {
        AddrSlot { state: SyncAtomicU8::new(EMPTY), buf, ord }
    }

    /// Deposit `pkg`: copies it into the slot's resident buffer and clears
    /// `pkg` (so the caller can reuse its capacity for the next MAP).
    /// Returns `false`, leaving `pkg` untouched, while the previous package
    /// has not been consumed.
    pub fn try_send_from(&self, pkg: &mut B::Pkg) -> bool {
        let ord = self.ord;
        if self.state.compare_exchange(EMPTY, WRITING, ord.claim_send, Ordering::Relaxed).is_err() {
            return false;
        }
        if ord.publish_before_fill {
            self.state.store(FULL, ord.publish);
        }
        // SAFETY: winning EMPTY → WRITING makes this thread the buffer's
        // only user until it stores FULL.
        unsafe { self.buf.fill(pkg) };
        if !ord.publish_before_fill {
            self.state.store(FULL, ord.publish);
        }
        true
    }

    /// Consume the waiting package, emptying the slot (the RA operation's
    /// per-slot step): appends its entries to `out` (the receiver's
    /// reusable scratch) and leaves the slot's buffer — with its capacity —
    /// in place for the sender's next package. Returns `false` when the
    /// slot is empty.
    #[inline]
    pub fn take_into(&self, out: &mut B::Pkg) -> bool {
        if self.state.load(Ordering::Relaxed) != FULL
            || self
                .state
                .compare_exchange(FULL, READING, self.ord.claim_take, Ordering::Relaxed)
                .is_err()
        {
            return false;
        }
        // SAFETY: winning FULL → READING makes this thread the buffer's
        // only user until it stores EMPTY.
        unsafe { self.buf.drain(out) };
        self.state.store(EMPTY, self.ord.release);
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
