//! `rapid-trace` — the observability layer of the RAPID runtime.
//!
//! Three pieces, stacked:
//!
//! * [`event`]: typed protocol events ([`Event`]) and the per-processor
//!   trace ([`ProcTrace`]) they are decoded into. Each worker writes
//!   fixed-width records into a [`FlatRing`] it owns outright
//!   ([`ring`]/[`record`]), so recording takes no locks; the executors
//!   gate every record site behind an `Option`, so a run with tracing
//!   disabled pays nothing.
//! * [`check`](mod@check): a replayable invariant checker ([`check::check`]) that
//!   asserts the Theorem-1 obligations on a recorded trace — no remote
//!   write before the matching address package, single-slot mailboxes
//!   never clobbered, volatile lifetimes respected, the memory cap and
//!   the counting accounting both honored at every MAP — plus the
//!   timing-independent [`check::skeleton`] projection the differential
//!   threaded-vs-DES conformance tests compare.
//! * [`metrics`] and [`export`]: per-processor aggregates
//!   ([`ProcMetrics`]) and Chrome-trace/Perfetto JSON
//!   ([`chrome_trace_json`]) for human eyes.
//!
//! A ring is decoded off-line ([`decode`]) back into the [`Event`] schema
//! once its writer has quiesced, so `check()`, `skeleton()` and the
//! exporters read typed events; the checker runs after the run, never
//! during it. A traced run records every event; an untraced one allocates
//! no ring at all.
//!
//! The crate depends only on `rapid-core` (graph/schedule/liveness) and
//! `rapid-machine` (fault sites); the runtime depends on *it*, handing
//! the checker a plain-data [`ProtocolSpec`] built from its plan.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::undocumented_unsafe_blocks)]

pub mod check;
pub mod corpus;
pub mod decode;
pub mod event;
pub mod export;
pub mod metrics;
pub mod record;
pub mod ring;

pub use check::{
    check, check_tier, skeleton, skeletons, CanonEvent, MsgSpec, ProtocolSpec, TraceReport,
    Violation, ViolationKind,
};
pub use decode::{decode_ring, decode_rings, encode_trace};
pub use event::{Event, ProcTrace, ProtoState, TraceConfig, TraceSet, TraceTier, Ts, NO_OFFSET};
pub use export::chrome_trace_json;
pub use metrics::ProcMetrics;
pub use ring::{FlatRing, FlatWriter};
