//! Shared-memory remote-memory-access (RMA) windows.
//!
//! On the Cray-T3D, `SHMEM_PUT` deposits data directly into a remote
//! processor's user space — no buffering, no handshake — provided the
//! remote address is known in advance. The threaded executor reproduces
//! those semantics on shared memory: every simulated processor owns an
//! [`RmaHeap`] (a fixed slab of `f64` cells), and a sender writes into the
//! receiver's heap at an offset it learned from an address package, then
//! raises an arrival flag with `Release` ordering. The receiver spins on
//! the flag with `Acquire` before reading.
//!
//! ## Safety protocol
//!
//! The heap cells are `UnsafeCell`s; Rust cannot see the happens-before
//! edges the execution protocol provides, so the put/read primitives are
//! `unsafe` with the following contract (this is exactly the paper's
//! dependence-completeness argument, Theorem 1):
//!
//! 1. A range is written by at most one thread at a time, and never
//!    concurrently with a reader.
//! 2. Writers publish with [`FlagBoard::raise`] (Release) after the last
//!    store; readers call [`FlagBoard::is_raised`] (Acquire) before the
//!    first load.
//! 3. Ranges handed out by one `Arena` never overlap while live.
//!
//! Graphs produced by the inspector are dependence-complete, which makes
//! (1) hold for every schedule the runtime executes.

// sync-audit: `FlagBoard` is the publication edge for one-sided RMA puts —
// `raise` is a Release `fetch_add` (publishes every heap store sequenced
// before it), `is_raised` an Acquire load. The shipping board itself is
// explored exhaustively by `rapid-machine/tests/flag_model.rs` (a payload
// put and raised, polled and read), which also refutes the weakened raise,
// the weakened poll and a raise before the payload by name. That a put is
// published exactly once, re-executed windows included, is a property of
// the protocol core, checked on its traces (`rapid_trace`'s
// `DuplicateSend`; see DESIGN.md §16).

use rapid_sync::{Ordering, SyncAtomicU32};
use std::cell::UnsafeCell;

/// A fixed slab of `f64` cells writable from remote threads.
pub struct RmaHeap {
    cells: Box<[UnsafeCell<f64>]>,
}

// SAFETY: all aliasing is controlled by the execution protocol documented
// above; the type itself only hands out raw access through `unsafe` fns.
unsafe impl Sync for RmaHeap {}

impl RmaHeap {
    /// A heap of `capacity` units, zero-initialized.
    ///
    /// The zeros come from the allocator (`vec![0.0; n]` is a `calloc`),
    /// not from a store per cell: a large heap arrives as lazily-mapped
    /// zero pages, so creating it costs microseconds and the thread that
    /// first writes a page — the owning worker — is the one that faults it
    /// in, on its own NUMA node.
    pub fn new(capacity: u64) -> Self {
        let zeroed = vec![0.0f64; capacity as usize].into_boxed_slice();
        let len = zeroed.len();
        let ptr = Box::into_raw(zeroed) as *mut UnsafeCell<f64>;
        // SAFETY: `UnsafeCell<f64>` is `repr(transparent)` over `f64`, so
        // the slice keeps its size, alignment and layout, and the box
        // uniquely owns the allocation it is rebuilt from.
        let cells = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) };
        RmaHeap { cells }
    }

    /// Capacity in units.
    pub fn capacity(&self) -> u64 {
        self.cells.len() as u64
    }

    /// One-sided put: copy `src` into `[off, off + src.len())`.
    ///
    /// # Safety
    /// Caller must hold exclusive access to the range per the module
    /// protocol (no concurrent reader or writer of any overlapping range).
    #[inline]
    pub unsafe fn put(&self, off: u64, src: &[f64]) {
        debug_assert!(off + src.len() as u64 <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too) and exclusively owned per the module protocol, so the
        // offset stays inside the allocation and the copy cannot race.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize);
            std::ptr::copy_nonoverlapping(src.as_ptr(), base as *mut f64, src.len());
        }
    }

    /// Read `[off, off + dst.len())` into `dst`.
    ///
    /// # Safety
    /// No thread may be writing any overlapping range; the caller must
    /// have observed the writer's Release flag with Acquire first.
    #[inline]
    pub unsafe fn read(&self, off: u64, dst: &mut [f64]) {
        debug_assert!(off + dst.len() as u64 <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too); the caller observed the writer's Release flag, so no
        // writer overlaps this copy.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize);
            std::ptr::copy_nonoverlapping(base as *const f64, dst.as_mut_ptr(), dst.len());
        }
    }

    /// Mutable view of a range for local computation.
    ///
    /// # Safety
    /// Exclusive access to the range per the module protocol for the
    /// lifetime of the returned slice.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, off: u64, len: u64) -> &mut [f64] {
        debug_assert!(off + len <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too) and the caller holds exclusive access for the
        // returned lifetime, so no aliasing view can exist.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize) as *mut f64;
            std::slice::from_raw_parts_mut(base, len as usize)
        }
    }

    /// Shared view of a range.
    ///
    /// # Safety
    /// No concurrent writer of any overlapping range.
    #[inline]
    pub unsafe fn slice(&self, off: u64, len: u64) -> &[f64] {
        debug_assert!(off + len <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too) and no writer overlaps it for the returned lifetime
        // per the module protocol.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize) as *const f64;
            std::slice::from_raw_parts(base, len as usize)
        }
    }
}

/// The two orderings of the flag protocol. Production code always runs
/// [`FlagOrd::GOOD`]; the model checker's mutants weaken one side each.
#[derive(Clone, Copy, Debug)]
pub struct FlagOrd {
    /// [`FlagBoard::raise`]'s `fetch_add`.
    pub raise: Ordering,
    /// [`FlagBoard::is_raised`]'s load.
    pub poll: Ordering,
}

impl FlagOrd {
    /// The orderings the protocol is correct under.
    pub const GOOD: FlagOrd = FlagOrd { raise: Ordering::Release, poll: Ordering::Acquire };
}

/// Arrival flags: one counter per cross-processor dependence edge (or any
/// other static token), raised by the sender after its put and polled by
/// the receiver. A counter (not a bool) so that tests can detect double
/// raises.
pub struct FlagBoard {
    flags: Box<[SyncAtomicU32]>,
    ord: FlagOrd,
}

impl FlagBoard {
    /// Board of `n` flags, all lowered.
    pub fn new(n: usize) -> Self {
        FlagBoard { flags: (0..n).map(|_| SyncAtomicU32::new(0)).collect(), ord: FlagOrd::GOOD }
    }

    /// A board with one side of the protocol weakened — for the model
    /// checker's mutants only, hence absent from plain release builds.
    #[cfg(any(debug_assertions, rapid_model_check))]
    #[doc(hidden)]
    pub fn with_orderings(n: usize, ord: FlagOrd) -> Self {
        FlagBoard { ord, ..FlagBoard::new(n) }
    }

    /// Raise flag `i` (Release): publishes every store sequenced before it.
    #[inline]
    pub fn raise(&self, i: usize) {
        self.flags[i].fetch_add(1, self.ord.raise);
    }

    /// Has flag `i` been raised (Acquire)? Synchronizes with the raiser.
    #[inline]
    pub fn is_raised(&self, i: usize) -> bool {
        self.flags[i].load(self.ord.poll) > 0
    }

    /// Raw counter value (tests).
    pub fn count(&self, i: usize) -> u32 {
        self.flags[i].load(Ordering::Acquire)
    }

    /// Number of flags raised at least once — a cheap progress indicator
    /// for stall diagnostics (how many messages have arrived so far).
    pub fn raised_count(&self) -> usize {
        self.flags.iter().filter(|f| f.load(Ordering::Acquire) > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_then_read_roundtrip() {
        let h = RmaHeap::new(16);
        let src = [1.0, 2.0, 3.0];
        // SAFETY: one thread, and every range lies inside the 16 cells.
        unsafe {
            h.put(4, &src);
            let mut dst = [0.0; 3];
            h.read(4, &mut dst);
            assert_eq!(dst, src);
            assert_eq!(h.slice(4, 3), &src);
            h.slice_mut(4, 1)[0] = 9.0;
            assert_eq!(h.slice(4, 1)[0], 9.0);
        }
    }

    #[test]
    fn flags_count_raises() {
        let f = FlagBoard::new(3);
        assert!(!f.is_raised(1));
        f.raise(1);
        assert!(f.is_raised(1));
        assert!(!f.is_raised(0));
        f.raise(1);
        assert_eq!(f.count(1), 2);
        assert_eq!(f.raised_count(), 1, "double raise counts one flag");
        f.raise(0);
        assert_eq!(f.raised_count(), 2);
    }

    #[test]
    fn cross_thread_put_is_published_by_flag() {
        // Classic message-passing litmus: the reader that observes the
        // flag must observe the payload.
        let heap = Arc::new(RmaHeap::new(1024));
        let flags = Arc::new(FlagBoard::new(1));
        let (h2, f2) = (Arc::clone(&heap), Arc::clone(&flags));
        let writer = std::thread::spawn(move || {
            let payload: Vec<f64> = (0..512).map(|i| i as f64 * 0.5).collect();
            // SAFETY: the only writer of `[100, 612)`, and the reader waits
            // for the flag raised after it.
            unsafe { h2.put(100, &payload) };
            f2.raise(0);
        });
        while !flags.is_raised(0) {
            std::hint::spin_loop();
        }
        // SAFETY: the flag was observed with Acquire, so the put is complete
        // and nothing writes the range again.
        let got = unsafe { heap.slice(100, 512) };
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, i as f64 * 0.5);
        }
        writer.join().unwrap();
    }
}
