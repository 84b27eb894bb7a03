//! The `Sync*` shim types.
//!
//! Layout is always `repr(transparent)` over the corresponding std atomic (or
//! `UnsafeCell`), so callers may rely on size/alignment identity — e.g. the
//! flat-ring allocator casts a zeroed `Box<[u64]>` into `Box<[SyncAtomicU64]>`.
//! Instrumentation is purely behavioral: under `cfg(debug_assertions)` or
//! `--cfg rapid_model_check` each operation first asks the engine whether a
//! model check is active on this thread and, if so, is simulated instead of
//! executed.

// sync-audit: passthrough paths forward the caller's orderings verbatim; the
// audited callers' orderings are checked by the model tests that drive them.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

macro_rules! sync_atomic {
    ($(#[$meta:meta])* $name:ident, $raw:ty, $prim:ty, $mask:expr) => {
        $(#[$meta])*
        #[repr(transparent)]
        #[derive(Debug)]
        pub struct $name {
            inner: $raw,
        }

        impl $name {
            #[inline(always)]
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$raw>::new(v) }
            }

            #[cfg(any(debug_assertions, rapid_model_check))]
            #[inline]
            fn addr(&self) -> usize {
                &self.inner as *const $raw as usize
            }

            /// Attach a human-readable name used in counterexample traces.
            /// No-op outside an active model check.
            #[inline(always)]
            pub fn label(&self, name: &str) -> &Self {
                #[cfg(any(debug_assertions, rapid_model_check))]
                crate::engine::route_label(self.addr(), name, || {
                    self.inner.load(Ordering::Relaxed) as u64
                });
                #[cfg(not(any(debug_assertions, rapid_model_check)))]
                let _ = name;
                self
            }

            #[inline(always)]
            pub fn load(&self, ord: Ordering) -> $prim {
                #[cfg(any(debug_assertions, rapid_model_check))]
                {
                    if let Some(v) = crate::engine::route_load(
                        self.addr(),
                        || self.inner.load(Ordering::Relaxed) as u64,
                        ord,
                    ) {
                        return v as $prim;
                    }
                }
                self.inner.load(ord)
            }

            #[inline(always)]
            pub fn store(&self, v: $prim, ord: Ordering) {
                #[cfg(any(debug_assertions, rapid_model_check))]
                {
                    if crate::engine::route_store(
                        self.addr(),
                        || self.inner.load(Ordering::Relaxed) as u64,
                        v as u64 & $mask,
                        ord,
                    ) {
                        return;
                    }
                }
                self.inner.store(v, ord)
            }

            #[inline(always)]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                #[cfg(any(debug_assertions, rapid_model_check))]
                {
                    if let Some((old, ok)) = crate::engine::route_cas(
                        self.addr(),
                        || self.inner.load(Ordering::Relaxed) as u64,
                        current as u64 & $mask,
                        new as u64 & $mask,
                        success,
                        failure,
                    ) {
                        return if ok { Ok(old as $prim) } else { Err(old as $prim) };
                    }
                }
                self.inner.compare_exchange(current, new, success, failure)
            }

            #[inline(always)]
            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                #[cfg(any(debug_assertions, rapid_model_check))]
                {
                    if let Some(old) = crate::engine::route_fetch_add(
                        self.addr(),
                        || self.inner.load(Ordering::Relaxed) as u64,
                        v as u64,
                        $mask,
                        ord,
                    ) {
                        return old as $prim;
                    }
                }
                self.inner.fetch_add(v, ord)
            }
        }

        impl Default for $name {
            #[inline]
            fn default() -> Self {
                Self::new(0)
            }
        }

        #[cfg(any(debug_assertions, rapid_model_check))]
        impl Drop for $name {
            fn drop(&mut self) {
                crate::engine::route_unregister(self.addr());
            }
        }
    };
}

sync_atomic!(
    /// Instrumented `AtomicU8`.
    SyncAtomicU8,
    AtomicU8,
    u8,
    u8::MAX as u64
);
sync_atomic!(
    /// Instrumented `AtomicU32`.
    SyncAtomicU32,
    AtomicU32,
    u32,
    u32::MAX as u64
);
sync_atomic!(
    /// Instrumented `AtomicU64`.
    SyncAtomicU64,
    AtomicU64,
    u64,
    u64::MAX
);

/// An atomic memory fence, routed through the model checker when one is
/// active on the calling thread.
#[inline(always)]
pub fn sync_fence(ord: Ordering) {
    #[cfg(any(debug_assertions, rapid_model_check))]
    {
        if crate::engine::route_fence(ord) {
            return;
        }
    }
    std::sync::atomic::fence(ord)
}

/// Instrumented `UnsafeCell`: a plain data cell whose cross-thread accesses
/// are supposed to be ordered by surrounding atomics. Under an active model
/// check, reads and writes are vector-clock race-checked, so a weakened
/// ordering on the protecting atomic surfaces as a data-race counterexample.
#[repr(transparent)]
#[derive(Debug)]
pub struct SyncCell<T> {
    inner: UnsafeCell<T>,
}

// SAFETY: SyncCell is a deliberate `UnsafeCell` wrapper for data published
// across threads under external synchronization; the `unsafe fn` accessors
// place the aliasing obligation on the caller, exactly like the raw-pointer
// RMA heap. Under an active model check every access is additionally
// race-checked with vector clocks.
unsafe impl<T: Send> Send for SyncCell<T> {}
// SAFETY: see the `Send` impl above — shared access is only through `unsafe`
// accessors whose contract requires external happens-before ordering.
unsafe impl<T: Send> Sync for SyncCell<T> {}

/// Byte image of a cell value, recorded by the engine for deterministic
/// replay. Cells larger than this are not supported under instrumentation.
#[cfg(any(debug_assertions, rapid_model_check))]
pub(crate) const CELL_BYTES: usize = 16;

impl<T: Copy> SyncCell<T> {
    #[inline(always)]
    pub const fn new(v: T) -> Self {
        Self { inner: UnsafeCell::new(v) }
    }

    #[cfg(any(debug_assertions, rapid_model_check))]
    #[inline]
    fn addr(&self) -> usize {
        &self.inner as *const UnsafeCell<T> as usize
    }

    /// Attach a human-readable name used in counterexample traces.
    #[inline(always)]
    pub fn label(&self, name: &str) -> &Self {
        #[cfg(any(debug_assertions, rapid_model_check))]
        crate::engine::route_cell_label(self.addr(), name);
        #[cfg(not(any(debug_assertions, rapid_model_check)))]
        let _ = name;
        self
    }

    /// Read the cell.
    ///
    /// # Safety
    /// No concurrent write may race this read; callers must order accesses
    /// with surrounding atomics (the model checker verifies this for the
    /// audited protocols).
    #[inline(always)]
    pub unsafe fn read(&self) -> T {
        #[cfg(any(debug_assertions, rapid_model_check))]
        {
            if let Some(bytes) = crate::engine::route_cell_read(self.addr(), || {
                // SAFETY: caller contract of `read` — no concurrent writer.
                let v = unsafe { *self.inner.get() };
                to_bytes(v)
            }) {
                // Bytes were recorded from a value of this exact `T` at this
                // address by a prior (replayed) read of the same call site.
                return from_bytes(bytes);
            }
        }
        // SAFETY: caller contract of `read` — no concurrent writer.
        unsafe { *self.inner.get() }
    }

    /// Write the cell.
    ///
    /// # Safety
    /// No concurrent read or write may race this write; callers must order
    /// accesses with surrounding atomics.
    #[inline(always)]
    pub unsafe fn write(&self, v: T) {
        #[cfg(any(debug_assertions, rapid_model_check))]
        {
            if crate::engine::route_cell_write(self.addr(), || {
                // SAFETY: caller contract of `write` — exclusive access.
                unsafe { *self.inner.get() = v }
            }) {
                return;
            }
        }
        // SAFETY: caller contract of `write` — exclusive access.
        unsafe { *self.inner.get() = v }
    }
}

#[cfg(any(debug_assertions, rapid_model_check))]
impl<T> Drop for SyncCell<T> {
    fn drop(&mut self) {
        crate::engine::route_unregister(&self.inner as *const UnsafeCell<T> as usize);
    }
}

#[cfg(any(debug_assertions, rapid_model_check))]
#[inline]
fn to_bytes<T: Copy>(v: T) -> [u8; CELL_BYTES] {
    assert!(
        std::mem::size_of::<T>() <= CELL_BYTES,
        "SyncCell<T> instrumentation supports at most {CELL_BYTES}-byte values"
    );
    let mut out = [0u8; CELL_BYTES];
    // SAFETY: T is Copy, size checked above; copying size_of::<T>() bytes out
    // of a valid value into a large-enough buffer.
    unsafe {
        std::ptr::copy_nonoverlapping(
            &v as *const T as *const u8,
            out.as_mut_ptr(),
            std::mem::size_of::<T>(),
        );
    }
    out
}

#[cfg(any(debug_assertions, rapid_model_check))]
#[inline]
fn from_bytes<T: Copy>(bytes: [u8; CELL_BYTES]) -> T {
    assert!(std::mem::size_of::<T>() <= CELL_BYTES);
    let mut v = std::mem::MaybeUninit::<T>::uninit();
    // SAFETY: bytes hold a valid byte image of a T (recorded by `to_bytes`
    // from a value of the same type at the same address); size checked.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            v.as_mut_ptr() as *mut u8,
            std::mem::size_of::<T>(),
        );
        v.assume_init()
    }
}
