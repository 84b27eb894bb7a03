//! The RAPID runtime (paper §3): inspector API, active memory management
//! and the five-state execution protocol, written once and driven by two
//! executors.
//!
//! - [`inspector`] — the run-time parallelization pipeline of Figure 1:
//!   register irregular data objects and the tasks that access them, get a
//!   transformed task graph, schedule it, execute it.
//! - [`maps`] — the memory-allocation-point (MAP) planner: dead-point
//!   tables, allocation windows, address packages.
//! - `core` (crate-private) — the protocol itself: one processor's
//!   resumable REC / EXE / SND / MAP / END state machine with the RA and CQ
//!   service operations, window rollback, fault sites and trace hooks. Its
//!   `step()` returns `Progress`, `Blocked(on what)` or `Done`, and it
//!   reaches the machine only through a statically dispatched environment
//!   and the driver's `Port`.
//! - [`des`] — the deterministic discrete-event driver: an event heap
//!   steps the cores in virtual time under a cost model and a per-processor
//!   memory cap (parallel time, #MAPs, blocking on address buffers and
//!   message arrivals); it reproduces the paper's Tables 2–8.
//! - [`threaded`] — the real shared-memory driver: one OS thread per
//!   simulated processor steps its core over RMA stores into remote
//!   arenas and single-slot address mailboxes, servicing RA/CQ whenever it
//!   is blocked. Exercises the Theorem-1 liveness argument under real
//!   concurrency and computes actual numeric results.
//! - [`recover`] — recovery on the threaded executor: a failed task body
//!   is rolled back to its checkpoint and runs again, within a fixed
//!   budget per window.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::undocumented_unsafe_blocks)]

mod core;
pub mod des;
pub mod inspector;
pub mod maps;
pub mod recover;
pub mod threaded;

pub use des::{DesConfig, DesExecutor, DesOutcome};
pub use inspector::Inspector;
pub use maps::{ExecError, MapPlacement, MapWindow, PlannedMap, RtPlan};
pub use rapid_trace::{TraceConfig, TraceSet};
pub use recover::WINDOW_ATTEMPTS;
pub use threaded::{run_sequential, TaskCtx, ThreadedExecutor, ThreadedOutcome};
