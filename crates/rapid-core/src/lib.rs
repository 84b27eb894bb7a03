//! Core task-parallelism model for the RAPID reproduction (Fu & Yang,
//! PPoPP '97).
//!
//! The computation model (paper §2) consists of a set of *tasks* and a set
//! of distinct *data objects*. Each task reads/writes a subset of the data
//! objects, and the interaction among tasks is a transformed task-dependence
//! graph containing true dependencies only (a DAG). Each data object is
//! assigned to a unique *owner* processor; on a processor `P`, an object it
//! owns is *permanent* and any other object accessed by `P`'s tasks is
//! *volatile* (Definitions 1–3).
//!
//! This crate provides:
//!
//! - [`graph`] — the index-based task graph ([`graph::TaskGraph`]) and its
//!   builder,
//! - [`algo`] — reusable graph algorithms (topological sort, Tarjan SCC,
//!   critical-path levels),
//! - [`ddg`] — classification of true/anti/output dependencies from
//!   sequential access traces and the transformation to a true-only DAG,
//! - [`schedule`] — processor assignments, per-processor task orders and the
//!   predicted-time Gantt evaluation,
//! - [`liveness`] — volatile-object lifetime analysis (Definition 4),
//! - [`memreq`] — `MEM_REQ` / `MIN_MEM` (Definitions 5–6) and memory
//!   scalability metrics,
//! - [`dcg`] — the data connection graph and slice construction used by the
//!   DTS ordering (paper §4.2),
//! - [`fixtures`] — the worked example of Figure 2 plus random-graph
//!   generators used across the workspace's tests and benches.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod algo;
pub mod dcg;
pub mod ddg;
pub mod fixtures;
pub mod graph;
pub mod liveness;
pub mod memreq;
pub mod schedule;

pub use graph::{ObjId, ProcId, TaskGraph, TaskGraphBuilder, TaskId};
pub use schedule::{Assignment, CostModel, Schedule};
