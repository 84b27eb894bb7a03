//! The rapid-rs benchmark: four workloads, seven end-to-end metrics and a
//! per-layer cost ledger, all measured from outside through the public
//! functions of the `rapid-*` crates.
//!
//! Two passes per workload, both seeded and both checked:
//!
//! - the **end-to-end pass** ([`passes::end_to_end`]) times set-up, plan,
//!   execute, cold solve and the DES model with tracing off;
//! - the **ledger pass** ([`passes::ledger`]) repeats the cold solve with
//!   spans recorded around every layer call, asserts that the ledger
//!   closes, and measures each layer on its own.
//!
//! `README.md` beside this crate says why each workload was chosen and
//! which end-to-end metric each per-layer metric is expected to move.

pub mod compare;
pub mod host;
pub mod json;
pub mod passes;
pub mod pipeline;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
