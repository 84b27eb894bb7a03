//! The reproduction harness: workloads and table formatting
//! ([`harness`]), the paper's tables and figures behind one registry
//! ([`experiments`], driven by the `repro` binary), and the timing loop
//! the recovery gate uses ([`timing`]).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod timing;

pub use harness::*;
