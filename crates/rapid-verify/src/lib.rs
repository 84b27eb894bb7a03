//! Static plan verifier: prove the Theorem-1 obligations of a complete
//! plan `(TaskGraph, Schedule, MapPlacement, capacity)` before execution.
//!
//! The paper proves (Theorem 1) that the MAP-insertion protocol is
//! deadlock-free and data-consistent *for plans its planner produces*.
//! This crate checks those obligations for any claimed plan, including
//! hand-edited or corrupted ones, by pure static analysis over the
//! per-processor orders and the lifetime tables of
//! [`rapid_core::liveness`]:
//!
//! - **Reaching addresses** (Fact I) — every remote write is preceded by
//!   an address package: some window of the destination notifies the
//!   writer of the buffer's address ([`Finding::MissingAddress`]).
//! - **Mailbox discipline** — single-slot address mailboxes can never be
//!   clobbered: senders block and receivers drain in every blocking
//!   state, so the only residual risk is a package no send ever
//!   consumes, whose receiver may terminate early
//!   ([`Finding::StalePackage`]).
//! - **Deadlock-freedom** — the cross-processor wait-for graph over MAP
//!   windows, receives and send completions is acyclic; otherwise the
//!   cycle is reported as `(processor, blocked step)` pairs
//!   ([`Finding::Deadlock`]).
//! - **Free-safety** — windows free volatiles only strictly after their
//!   static dead points (Definition 4), never twice, and no task touches
//!   a freed or never-allocated buffer ([`Finding::FreeBeforeLastUse`],
//!   [`Finding::DoubleFree`], [`Finding::UseAfterFree`],
//!   [`Finding::UseBeforeAlloc`]).
//! - **Capacity feasibility** — exact per-window occupancy replay stays
//!   within the per-processor capacity, and infeasible schedules are
//!   rejected with the planner's refusal: the first window that cannot be
//!   provisioned and its live set
//!   ([`Finding::CapacityExceeded`], [`Finding::WindowOverCap`]).
//!
//! Every [`Finding`] names the [`rapid_trace::ViolationKind`] the
//! dynamic trace checker would record for the same defect — the
//! differential guarantee tested in `tests/verify_differential.rs`:
//! accepted plans execute violation-free on both executors at exactly
//! the verified capacity.
//!
//! [`verify`] is the one analysis entry: it trusts nothing but the graph,
//! the schedule and the static lifetimes. [`verify_capacity`] builds the
//! protocol plan and the greedy placement for a capacity and calls it;
//! [`place_or_reject`] is its placement step, which turns the planner's
//! refusal into the one [`Finding::CapacityExceeded`].
//! [`plan_hash`] is the determinism witness the `planhash` binary prints;
//! [`Replanner`] runs the plain planning pipeline at each capacity it is
//! given, and stays only because the benchmark names it.
//!
//! ```
//! use rapid_core::{fixtures, memreq};
//!
//! let g = fixtures::figure2_dag();
//! let sched = fixtures::figure2_schedule_c();
//! let need = memreq::min_mem(&g, &sched).min_mem;
//! assert!(rapid_verify::verify_capacity(&g, &sched, need).accepted());
//! let rejected = rapid_verify::verify_capacity(&g, &sched, need - 1);
//! assert!(!rejected.accepted());
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::undocumented_unsafe_blocks)]

mod dataflow;
mod finding;
mod hb;
mod replan;
mod verify;

pub use finding::{Finding, WaitPoint, WaitStep};
pub use replan::{plan_hash, Planned, Replanner};
pub use verify::{place_or_reject, verify, verify_capacity, VerifyReport};
