//! The simulated distributed-memory machine.
//!
//! Substitute for the paper's Cray-T3D (64 MB/node, `SHMEM_PUT` RMA with
//! 2.7 µs overhead and 128 MB/s bandwidth). Provides:
//!
//! - [`config`] — machine cost/capacity parameters with a T3D preset,
//! - [`arena`] — the per-processor fixed-capacity allocator with explicit
//!   free (best-fit free list over allocation units),
//! - [`mailbox`] — single-slot address mailboxes: the paper's unbuffered
//!   address-package channel (a source processor cannot send a new address
//!   package until the destination has consumed the previous one),
//! - [`rma`] — the shared-memory RMA window used by the threaded executor:
//!   one-sided stores into a remote arena at an offset learned from an
//!   address package, with release/acquire arrival flags,
//! - [`wait`] — how a blocked worker waits: spin, yield against a time
//!   budget, then a park that the peer causing the awaited event ends,
//! - [`machine`] — the comm surface the protocol is written against: the
//!   [`Port`] trait, over the mailbox board for threads and over virtual
//!   time for the discrete-event simulator,
//! - [`affinity`] — core pinning (raw `sched_setaffinity`), used by the
//!   benchmark's host probe; the executor's worker threads float,
//! - [`pool`] — the persistent worker threads an executor keeps between
//!   runs, and the model-checked cell that hands them a job,
//! - [`fault`] — deterministic, seeded fault injection (mailbox rejection
//!   and delay, RMA put delay, worker jitter) for chaos-testing the
//!   executors' retry, suspend and service paths.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::undocumented_unsafe_blocks)]

pub mod affinity;
pub mod arena;
pub mod config;
pub mod fault;
pub mod machine;
pub mod mailbox;
pub mod pool;
pub mod rma;
pub mod wait;

pub use arena::{Arena, ArenaError};
pub use config::MachineConfig;
pub use fault::{FaultPlan, FaultSpec, ProcFaults};
pub use machine::{DirectMachine, Port, VirtualMachine};
