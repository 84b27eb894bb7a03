//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! [ui.perfetto.dev]: protocol states and task bodies become "X"
//! (complete) slices on one track per processor; package hand-offs,
//! suspended-send bookkeeping and fault injections become "i" (instant)
//! markers. Timestamps are microseconds (the format's native unit)
//! derived from the trace's nanosecond stamps.
//!
//! The output is deterministic — events are emitted in per-processor
//! ring order with fixed field order and no floating-point formatting
//! ambiguity — so the DES determinism regression test can compare two
//! exports byte for byte.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use crate::event::{Event, ProtoState, TraceSet, Ts};
use rapid_core::graph::TaskGraph;
use std::fmt::Write as _;

/// Microsecond timestamp with sub-microsecond precision kept (Perfetto
/// accepts fractional `ts`); printed with three decimals, which is exact
/// for nanosecond inputs.
fn us(ts: Ts) -> String {
    format!("{}.{:03}", ts / 1000, ts % 1000)
}

fn push_slice(out: &mut String, name: &str, tid: u32, begin: Ts, end: Ts, args: &str) {
    let dur_ns = end.saturating_sub(begin);
    let _ = writeln!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"rapid\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid}{args}}},",
        us(begin),
        us(dur_ns),
    );
}

fn push_instant(out: &mut String, name: &str, tid: u32, ts: Ts, args: &str) {
    let _ = writeln!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"rapid\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{tid}{args}}},",
        us(ts),
    );
}

fn objs_arg(objs: &[u32]) -> String {
    let list: Vec<String> = objs.iter().map(|o| o.to_string()).collect();
    format!(",\"args\":{{\"objs\":[{}]}}", list.join(","))
}

/// Render a trace set as Chrome-trace JSON. When a task graph is given,
/// task slices are labeled with their graph labels where present.
pub fn chrome_trace_json(traces: &TraceSet, g: Option<&TaskGraph>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for trace in &traces.procs {
        let tid = trace.proc;
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"P{tid}\"}}}},",
        );
        let mut state_open: Option<(ProtoState, Ts)> = None;
        let mut task_open: Option<(u32, Ts)> = None;
        let mut last_ts: Ts = 0;
        for (ts, ev) in trace.iter() {
            last_ts = last_ts.max(*ts);
            match ev {
                Event::State(s) => {
                    if let Some((prev, begin)) = state_open.take() {
                        push_slice(&mut out, prev.name(), tid, begin, *ts, "");
                    }
                    if *s != ProtoState::Done {
                        state_open = Some((*s, *ts));
                    }
                }
                Event::TaskBegin { task, .. } => task_open = Some((*task, *ts)),
                Event::TaskEnd { task } => {
                    if let Some((t, begin)) = task_open.take() {
                        if t == *task {
                            let name = g
                                .map(|g| g.task_label(rapid_core::graph::TaskId(t)))
                                .filter(|l| !l.is_empty())
                                .map(str::to_owned)
                                .unwrap_or_else(|| format!("task {t}"));
                            push_slice(
                                &mut out,
                                &name,
                                tid,
                                begin,
                                *ts,
                                &format!(",\"args\":{{\"task\":{t}}}"),
                            );
                        }
                    }
                }
                Event::MapBegin { .. } | Event::MapEnd { .. } => {} // covered by the MAP state slice
                Event::Alloc { obj, units, .. } => push_instant(
                    &mut out,
                    "alloc",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"obj\":{obj},\"units\":{units}}}"),
                ),
                Event::Free { obj, units, .. } => push_instant(
                    &mut out,
                    "free",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"obj\":{obj},\"units\":{units}}}"),
                ),
                Event::PkgSend { dst, seq, objs } => push_instant(
                    &mut out,
                    &format!("pkg-send->P{dst}#{seq}"),
                    tid,
                    *ts,
                    &objs_arg(objs),
                ),
                Event::PkgRecv { src, seq, objs } => push_instant(
                    &mut out,
                    &format!("pkg-recv<-P{src}#{seq}"),
                    tid,
                    *ts,
                    &objs_arg(objs),
                ),
                Event::MailboxBusy { dst } => push_instant(
                    &mut out,
                    "mailbox-busy",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"dst\":{dst}}}"),
                ),
                Event::SendOk { msg } => push_instant(
                    &mut out,
                    "send-ok",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"msg\":{msg}}}"),
                ),
                Event::SendSuspend { msg, missing } => push_instant(
                    &mut out,
                    "send-suspend",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"msg\":{msg},\"missing\":{missing}}}"),
                ),
                Event::CqRetry { msg } => push_instant(
                    &mut out,
                    "cq-retry",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"msg\":{msg}}}"),
                ),
                Event::MsgRecv { msg } => push_instant(
                    &mut out,
                    "msg-recv",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"msg\":{msg}}}"),
                ),
                Event::WindowRollback { pos, attempt } => push_instant(
                    &mut out,
                    "window-rollback",
                    tid,
                    *ts,
                    &format!(",\"args\":{{\"pos\":{pos},\"attempt\":{attempt}}}"),
                ),
                Event::Fault { site } => {
                    push_instant(&mut out, &format!("fault:{}", site.name()), tid, *ts, "")
                }
            }
        }
        // Close a still-open state slice (e.g. a stalled run) at the
        // trace's last timestamp so the timeline stays well-formed.
        if let Some((prev, begin)) = state_open.take() {
            push_slice(&mut out, prev.name(), tid, begin, last_ts, "");
        }
    }
    // Trailing comma is illegal JSON: close with a metadata sentinel.
    out.push_str("{\"name\":\"trace_done\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{}}\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProcTrace;

    fn sample() -> TraceSet {
        let mut t = ProcTrace::new(0);
        t.state(0, ProtoState::Map);
        t.rec(100, Event::Alloc { obj: 2, units: 4, offset: 0 });
        t.rec(150, Event::PkgSend { dst: 1, seq: 0, objs: vec![2] });
        t.state(1_000, ProtoState::Rec);
        t.rec(1_500, Event::MsgRecv { msg: 0 });
        t.rec(2_000, Event::TaskBegin { task: 5, pos: 0 });
        t.rec(3_500, Event::TaskEnd { task: 5 });
        t.state(3_500, ProtoState::Exe);
        t.state(4_000, ProtoState::Snd);
        t.rec(4_100, Event::SendOk { msg: 1 });
        t.state(5_000, ProtoState::End);
        t.state(6_000, ProtoState::Done);
        TraceSet::new(vec![t])
    }

    #[test]
    fn export_is_valid_shape_and_deterministic() {
        let a = chrome_trace_json(&sample(), None);
        let b = chrome_trace_json(&sample(), None);
        assert_eq!(a, b, "same trace must export byte-identically");
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
        assert!(a.contains("\"MAP\""), "{a}");
        assert!(a.contains("\"task 5\""), "{a}");
        assert!(a.contains("pkg-send->P1#0"), "{a}");
        assert!(a.contains("\"msg-recv\""), "{a}");
        // Balanced braces/brackets => at least structurally JSON-like;
        // no trailing comma before the closing bracket.
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces");
        assert!(!a.contains(",\n]"), "trailing comma before array close");
    }

    #[test]
    fn open_state_is_closed_at_last_timestamp() {
        let mut t = ProcTrace::new(0);
        t.state(0, ProtoState::Rec);
        t.rec(500, Event::MsgRecv { msg: 0 });
        let out = chrome_trace_json(&TraceSet::new(vec![t]), None);
        assert!(out.contains("\"REC\""), "stalled REC state still rendered: {out}");
    }
}
