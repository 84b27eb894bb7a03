//! The checker's own behaviour outside a check. The checks themselves
//! drive shipping code and live beside it, in `rapid-machine`'s
//! `*_model.rs` tests.

use rapid_sync::{Ordering, SyncAtomicU64};

/// Outside an active check the shim is a plain passthrough to std atomics
/// (this is the path the real runtime exercises).
#[test]
fn shim_passthrough_outside_checks() {
    let a = SyncAtomicU64::new(5);
    assert_eq!(a.load(Ordering::Acquire), 5);
    a.store(9, Ordering::Release);
    assert_eq!(a.load(Ordering::Relaxed), 9);
    assert_eq!(a.compare_exchange(9, 12, Ordering::AcqRel, Ordering::Relaxed), Ok(9));
    assert_eq!(a.fetch_add(3, Ordering::AcqRel), 12);
    assert_eq!(a.load(Ordering::Acquire), 15);
}
