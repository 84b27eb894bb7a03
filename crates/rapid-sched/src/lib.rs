//! Space- and time-efficient scheduling (paper §4).
//!
//! The paper's two-stage mapping process:
//!
//! 1. **Clustering** — tasks are clustered to exploit data locality using
//!    DSC ([`dsc`]) or the owner-compute rule ([`assign`]); clusters are
//!    then mapped to physical processors with a load-balancing criterion.
//! 2. **Ordering** — tasks on each processor are ordered to overlap
//!    communication with computation. Three orderings are provided:
//!
//!    - [`rcp`] — the time-efficient baseline: ready tasks execute in
//!      order of critical-path importance (Yang & Gerasoulis, ref. \[20\]);
//!    - [`mpo`] — memory-priority guided ordering (paper §4.1, Figure 4):
//!      prefer the ready task with the largest fraction of its objects
//!      already allocated, tie-broken by critical path;
//!    - [`dts`] — data-access directed time-slicing (paper §4.2): execute
//!      tasks slice-by-slice following a topological order of the data
//!      connection graph's strongly connected components, plus the
//!      slice-merging refinement of Figure 6.
//!
//!    [`plan_parallel`] dispatches over them by [`PlanPolicy`], on the
//!    calling thread.
//!
//! Every ordering runs on one simulation, [`heapsim`]: incremental
//! priorities in indexed heaps that re-key in place. The straight-scan
//! reference the paper's pseudo-code transcribes is test-only (`sim`),
//! the oracle the crate's unit tests hold each ordering to, order for
//! order.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::undocumented_unsafe_blocks)]

pub mod assign;
pub mod dsc;
pub mod dts;
pub mod heapsim;
pub mod mpo;
pub mod parallel;
pub mod rcp;
#[cfg(test)]
mod sim;

pub use assign::{cyclic_owner_map, lpt_cluster_map, owner_compute_assignment};
pub use dsc::{dsc_cluster, DscResult};
pub use dts::{avail_volatile, dts_order, dts_order_merged, merge_slices, slice_h};
pub use mpo::mpo_order;
pub use parallel::{plan_parallel, PlanPolicy};
pub use rapid_core::schedule::Assignment;
pub use rcp::rcp_order;
