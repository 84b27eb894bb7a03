//! Recorded traces: the ring decodes to the trace it encoded (a slice of
//! the sweep, see `sweep/mod.rs`), a wrapped ring counts what it dropped,
//! and the post-hoc checker accepts the clean corpus and rejects every
//! corruption.

mod common;
mod sweep;

use rapid::prelude::*;
use rapid::rt::des::DesConfig;
use rapid::rt::RtPlan;
use rapid::trace::{corpus, ProcMetrics, Violation};
use sweep::*;

#[test]
fn full_tier_ring_decode_round_trips_executor_traces() {
    assert_eq!(run(&trace_fixture().traced_on(Des(Unit))).des_ok, 1);
}

#[test]
fn post_hoc_checker_accepts_clean_and_recovered_traces() {
    let (g, sched, spec) = corpus::tiny();
    for (label, traces) in
        [("clean", corpus::clean_traces()), ("recovered", corpus::recovered_traces())]
    {
        let post = check(&g, &sched, &spec, &traces);
        assert!(post.is_ok(), "{label}: corpus trace must be clean: {post:?}");
    }
}

#[test]
fn post_hoc_checker_rejects_the_whole_negative_corpus() {
    let (g, sched, spec) = corpus::tiny();
    for (label, traces, kind) in corpus::corrupted() {
        match check(&g, &sched, &spec, &traces) {
            Err(v) => assert_eq!(v.kind(), kind, "{label}: wrong violation: {v}"),
            Ok(r) => panic!("{label}: corruption went undetected: {r:?}"),
        }
    }
}

#[test]
fn overflowing_a_tiny_ring_reports_the_exact_drop_count() {
    let (g, sched, cap) = built(&trace_fixture());
    let cfg = DesConfig::managed(MachineConfig::unit(3, cap))
        .with_tracing(TraceConfig::with_capacity(16));
    let traces = DesExecutor::new(&g, &sched, cfg).run().expect("DES run").trace.expect("traced");
    let spec = RtPlan::new(&g, &sched).trace_spec(cap);
    for t in &traces.procs {
        assert_eq!(t.total(), t.len() as u64 + t.dropped(), "P{}: records unaccounted", t.proc);
    }
    assert!(traces.dropped() > 0, "the tiny ring must actually wrap");
    // The checker refuses the incomplete trace with the count the decoder
    // derived from the overwrite epoch, and so do the metrics.
    match check(&g, &sched, &spec, &traces) {
        Err(Violation::Incomplete { proc, dropped }) => {
            assert!(dropped > 0 && dropped == traces.procs[proc as usize].dropped());
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    for (m, t) in ProcMetrics::from_traces(&traces).iter().zip(&traces.procs) {
        assert_eq!(m.dropped, t.dropped(), "P{}: metrics disagree with the trace", t.proc);
    }
}
