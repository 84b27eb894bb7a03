//! rapid-sync: instrumented atomics + an exhaustive interleaving model checker.
//!
//! The runtime's hot lock-free paths (flat-ring trace writers, mailbox slots,
//! recovery flag boards, the worker pool's hand-off, the sleep/wake cell) use
//! `Sync*` shim types from this crate instead of raw `std::sync::atomic`. The
//! shims are `repr(transparent)` wrappers over the std atomics:
//!
//! * In plain release builds every method is an `#[inline]` passthrough — the
//!   shim is zero-cost and the runtime behaves exactly as if it used
//!   `std::sync::atomic` directly.
//! * Under `cfg(debug_assertions)` or `--cfg rapid_model_check`, every
//!   load/store/RMW/fence first consults a thread-local execution context. When
//!   a model check is active on the calling thread, the operation is routed
//!   through a deterministic exhaustive scheduler ([`model::check`]) instead of
//!   touching real memory. When no check is active (i.e. always, for the real
//!   runtime) the cost is one thread-local lookup and the op passes through.
//!
//! The checker explores *every* interleaving of a small bounded model
//! (2–3 threads, a handful of operations each) with sleep-set (DPOR-style)
//! pruning, under a sequentially-consistent-plus-reordering-budget memory
//! model: loads may observe any coherence-eligible earlier store (bounded by a
//! budget), so weakened `Ordering`s and deleted fences produce witnessable
//! counterexamples rather than silently passing. See `DESIGN.md` §16.
//!
//! The checker drives the shipping types themselves, not transcriptions of
//! them: `rapid-machine`'s `mailbox_model`, `flag_model`, `pool_model` and
//! `wait_model` tests run the address mailbox slot, the RMA flag board, the
//! worker pool's hand-off and the sleep / wake cell under it, and refute
//! each one's named mutants (orderings weakened through `cfg`-gated
//! constructors) — which is also how the checker itself is tested.

// sync-audit: this crate *implements* the instrumented-atomics layer; the
// passthrough paths below forward caller-chosen orderings (including Relaxed)
// to std atomics verbatim, and the engine itself is single-threaded.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(any(debug_assertions, rapid_model_check))]
mod engine;
#[cfg(any(debug_assertions, rapid_model_check))]
pub mod model;

mod shim;

pub use shim::{sync_fence, SyncAtomicU32, SyncAtomicU64, SyncAtomicU8, SyncCell};

/// Re-exported so shim users never need to import `std::sync::atomic`.
pub use std::sync::atomic::Ordering;
