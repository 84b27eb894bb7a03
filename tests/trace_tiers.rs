//! Differential suite for the flat-ring recording path and its sampling
//! tiers.
//!
//! The executors no longer push typed [`Event`]s on the hot path — they
//! write fixed-width binary records into per-processor flat rings,
//! decoded back into the typed schema after the run. This suite pins the
//! equivalences that refactor must preserve:
//!
//! - Full tier: `decode(encode(trace))` is the identity, record for
//!   record, on real executor traces (not just hand-built samples).
//! - Skeleton tier: the canonical protocol skeleton of a skeleton-tier
//!   run equals the skeleton *projection* of a full-tier run of the same
//!   schedule.
//! - The streaming checker's verdicts equal the post-hoc `check()`
//!   verdicts — on clean traces, on the whole hand-corrupted negative
//!   corpus, and live inside both executors.
//! - A wrapped ring reports *exactly* how many records were lost, and
//!   the checker refuses the incomplete trace with that same count.

mod common;

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::TaskCtx;
use rapid::sched::assign::cyclic_owner_map;
use rapid::sched::mpo::mpo_order;
use rapid::trace::{
    check, check_tier, corpus, decode_ring, encode_trace, skeletons, LiveDrain, StreamChecker,
    TraceConfig, TraceSet, TraceTier, Violation,
};

fn body(_t: TaskId, ctx: &mut TaskCtx<'_>) {
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for x in ctx.write(d).iter_mut() {
            *x += 1.0;
        }
    }
}

/// A small fixture tight enough to force several MAPs per processor.
fn fixture() -> (TaskGraph, Schedule, u64) {
    let spec = RandomGraphSpec { objects: 18, tasks: 50, max_obj_size: 1, ..Default::default() };
    let g = random_irregular_graph(7, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 3);
    let assign = owner_compute_assignment(&g, &owner, 3);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 2;
    (g, sched, cap)
}

fn des_trace(g: &TaskGraph, sched: &Schedule, cap: u64, tc: TraceConfig) -> TraceSet {
    let cfg = DesConfig::managed(MachineConfig::unit(sched.assign.nprocs, cap)).with_tracing(tc);
    let out = DesExecutor::new(g, sched, cfg).run().expect("DES run");
    out.trace.expect("tracing enabled")
}

#[test]
fn full_tier_ring_decode_round_trips_executor_traces() {
    let (g, sched, cap) = fixture();
    let traces = des_trace(&g, &sched, cap, TraceConfig::default());
    for t in &traces.procs {
        assert_eq!(t.dropped(), 0, "P{}: fixture must fit the default ring", t.proc);
        let ring = encode_trace(t, 1 << 14, TraceTier::Full);
        let back = decode_ring(&ring);
        assert_eq!(back.dropped(), 0);
        let a: Vec<_> = t.iter().cloned().collect();
        let b: Vec<_> = back.iter().cloned().collect();
        assert_eq!(a, b, "P{}: decode(encode(t)) != t", t.proc);
    }
}

#[test]
fn skeleton_tier_run_equals_full_tier_projection() {
    let (g, sched, cap) = fixture();
    let full = des_trace(&g, &sched, cap, TraceConfig::default());
    let skel = des_trace(&g, &sched, cap, TraceConfig::skeleton());
    // The canonical skeleton is exactly what the Skeleton tier keeps:
    // projecting the Full trace and skeletonizing must agree per record.
    assert_eq!(skeletons(&full), skeletons(&skel));
    // And the skeleton trace is strictly smaller — the tier drops the
    // noise events (PkgRecv, TaskEnd, retries, mailbox probes).
    let nf: usize = full.procs.iter().map(|t| t.len()).sum();
    let ns: usize = skel.procs.iter().map(|t| t.len()).sum();
    assert!(ns < nf, "skeleton ({ns} events) must be smaller than full ({nf})");
    // The tier-aware checker accepts the skeleton trace.
    let plan = rapid::rt::RtPlan::new(&g, &sched);
    let spec = plan.trace_spec(cap);
    let report = match check_tier(&g, &sched, &spec, &skel, TraceTier::Skeleton) {
        Ok(r) => r,
        Err(v) => panic!("skeleton trace must check clean: {v}"),
    };
    assert!(report.complete);
}

/// Drive a [`TraceSet`] through the streaming checker as raw ring
/// records, via the same re-encode path the corrupted-corpus harness
/// uses.
fn stream_verdict(
    g: &TaskGraph,
    sched: &Schedule,
    spec: &rapid::trace::ProtocolSpec,
    traces: &TraceSet,
) -> Result<rapid::trace::TraceReport, Violation> {
    let rings: Vec<_> =
        traces.procs.iter().map(|t| encode_trace(t, 1 << 12, TraceTier::Full)).collect();
    let mut drain = LiveDrain::new(StreamChecker::new(g, sched, spec.clone(), TraceTier::Full));
    // Interleave a few live polls before the final quiesced drain, so
    // the seqlock claim path is exercised too.
    drain.poll(&rings);
    drain.finish(&rings)
}

#[test]
fn streaming_and_post_hoc_agree_on_clean_and_recovered_traces() {
    let (g, sched, spec) = corpus::tiny();
    for (label, traces) in
        [("clean", corpus::clean_traces()), ("recovered", corpus::recovered_traces())]
    {
        let post = check(&g, &sched, &spec, &traces);
        let live = stream_verdict(&g, &sched, &spec, &traces);
        assert_eq!(post, live, "{label}: streaming and post-hoc verdicts diverge");
        assert!(post.is_ok(), "{label}: corpus trace must be clean: {post:?}");
    }
}

#[test]
fn streaming_and_post_hoc_agree_on_the_whole_negative_corpus() {
    let (g, sched, spec) = corpus::tiny();
    for (label, traces, kind) in corpus::corrupted() {
        let post = check(&g, &sched, &spec, &traces);
        let live = stream_verdict(&g, &sched, &spec, &traces);
        assert_eq!(post, live, "{label}: streaming and post-hoc verdicts diverge");
        match post {
            Err(v) => assert_eq!(v.kind(), kind, "{label}: wrong violation: {v}"),
            Ok(r) => panic!("{label}: corruption went undetected: {r:?}"),
        }
    }
}

#[test]
fn both_executors_stream_verdicts_that_match_post_hoc() {
    let (g, sched, cap) = fixture();
    let nprocs = sched.assign.nprocs;
    // DES: inline polling between event-loop steps.
    let cfg = DesConfig::managed(MachineConfig::unit(nprocs, cap))
        .with_tracing(TraceConfig::default())
        .with_streaming_check();
    let out = DesExecutor::new(&g, &sched, cfg).run().expect("DES run");
    let plan = rapid::rt::RtPlan::new(&g, &sched);
    let spec = plan.trace_spec(cap);
    let trace = out.trace.as_ref().expect("tracing enabled");
    let live = out.stream_verdict.expect("streaming enabled");
    assert_eq!(live, check(&g, &sched, &spec, trace), "DES live verdict != post-hoc");
    assert!(live.is_ok(), "DES run must check clean: {live:?}");
    // Threaded: a dedicated checker thread races the workers.
    let exec = ThreadedExecutor::new(&g, &sched, cap)
        .with_tracing(TraceConfig::default())
        .with_streaming_check();
    match exec.run(body) {
        Ok(out) => {
            let trace = out.trace.as_ref().expect("tracing enabled");
            let live = out.stream_verdict.expect("streaming enabled");
            assert_eq!(live, check(&g, &sched, &spec, trace), "threaded live != post-hoc");
            assert!(live.is_ok(), "threaded run must check clean: {live:?}");
        }
        Err(e @ rapid::rt::ExecError::Fragmented { .. }) => {
            common::assert_planned_rejection("streaming fixture", &exec, &e)
        }
        Err(e) => panic!("threaded run failed: {e}"),
    }
}

#[test]
fn overflowing_a_tiny_ring_reports_the_exact_drop_count() {
    let (g, sched, cap) = fixture();
    // 16-record rings: the run emits hundreds of records, so every
    // processor's ring wraps many times over.
    let traces = des_trace(&g, &sched, cap, TraceConfig::with_capacity(16));
    let plan = rapid::rt::RtPlan::new(&g, &sched);
    let spec = plan.trace_spec(cap);
    let mut total_dropped = 0u64;
    for t in &traces.procs {
        assert_eq!(
            t.total(),
            t.len() as u64 + t.dropped(),
            "P{}: decoded + dropped must account for every record written",
            t.proc
        );
        total_dropped += t.dropped();
    }
    assert!(total_dropped > 0, "the tiny ring must actually wrap");
    // The checker must refuse the incomplete trace, and with the same
    // count the decoder derived from the overwrite epoch.
    match check(&g, &sched, &spec, &traces) {
        Err(Violation::Incomplete { proc, dropped }) => {
            assert_eq!(dropped, traces.procs[proc as usize].dropped());
            assert!(dropped > 0);
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    // Metrics carry the same accounting.
    let ms = rapid::trace::ProcMetrics::from_traces(&traces);
    for (m, t) in ms.iter().zip(&traces.procs) {
        assert_eq!(m.dropped, t.dropped(), "P{}: metrics disagree with the trace", t.proc);
    }
}

#[test]
fn off_tier_records_nothing_and_costs_no_outcome_fields() {
    let (g, sched, cap) = fixture();
    let cfg = DesConfig::managed(MachineConfig::unit(sched.assign.nprocs, cap))
        .with_tracing(TraceConfig::default().with_tier(TraceTier::Off));
    let out = DesExecutor::new(&g, &sched, cfg).run().expect("DES run");
    assert!(out.trace.is_none(), "Off tier must not materialize a trace");
    assert!(out.metrics.is_none());
    let exec = ThreadedExecutor::new(&g, &sched, cap)
        .with_tracing(TraceConfig::default().with_tier(TraceTier::Off));
    let out = exec.run(body).expect("threaded run");
    assert!(out.trace.is_none(), "Off tier must not materialize a trace");
    assert!(out.metrics.is_none());
}
