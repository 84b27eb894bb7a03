//! Per-processor metrics aggregated from a recorded trace.
//!
//! These are the observability numbers the ROADMAP asks for: where each
//! worker spent its time (state dwell buckets), how often the CQ service
//! operation had to retry suspended sends, how deep the suspended queue
//! got, how many MAPs ran and what the memory high-water was. They are
//! computed by a single replay pass over the ring — recording stays
//! event-append-only and pays nothing for them.

use crate::event::{Event, ProcTrace, ProtoState, TraceSet};

/// Aggregated metrics for one processor's run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcMetrics {
    /// Processor id.
    pub proc: u32,
    /// Events recorded (including any lost to ring wrap).
    pub events: u64,
    /// Events lost to ring wrap.
    pub dropped: u64,
    /// Nanoseconds spent in each protocol state, indexed by
    /// [`ProtoState::idx`]. Derived from state-transition timestamps, so
    /// the resolution is whatever the executor stamped.
    pub dwell_ns: [u64; 7],
    /// MAPs executed.
    pub maps: u32,
    /// Tasks executed.
    pub tasks: u32,
    /// Suspended-send retry attempts by the CQ service operation.
    pub cq_retries: u32,
    /// Peak number of simultaneously suspended sends.
    pub suspended_peak: u32,
    /// Address packages deposited toward other processors.
    pub pkgs_sent: u32,
    /// Address packages drained by the RA service operation.
    pub pkgs_recvd: u32,
    /// Messages whose RMA puts completed here.
    pub msgs_sent: u32,
    /// Messages observed by the REC state here.
    pub msgs_recvd: u32,
    /// Times an address-package hand-off found the destination slot full.
    pub mailbox_busy: u32,
    /// Peak live allocation units (counting accounting, from MapEnd).
    pub peak_mem: u64,
    /// Allocator high-water mark (real arena peak where available).
    pub arena_high: u64,
    /// Seeded faults injected, total across sites.
    pub faults: u32,
    /// Recovery rollbacks (failed tasks restored from their checkpoint and
    /// run again).
    pub rollbacks: u32,
}

impl ProcMetrics {
    /// Replay one processor's trace into its aggregate metrics.
    pub fn from_trace(trace: &ProcTrace) -> ProcMetrics {
        let mut m = ProcMetrics {
            proc: trace.proc,
            events: trace.total(),
            dropped: trace.dropped(),
            ..ProcMetrics::default()
        };
        let mut state: Option<(ProtoState, u64)> = None;
        let mut suspended: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (ts, ev) in trace.iter() {
            match ev {
                Event::State(s) => {
                    if let Some((prev, since)) = state {
                        m.dwell_ns[prev.idx()] += ts.saturating_sub(since);
                    }
                    state = Some((*s, *ts));
                }
                Event::MapBegin { .. } => m.maps += 1,
                Event::MapEnd { in_use, arena_high, .. } => {
                    m.peak_mem = m.peak_mem.max(*in_use);
                    m.arena_high = m.arena_high.max(*arena_high);
                }
                Event::WindowRollback { .. } => m.rollbacks += 1,
                Event::PkgSend { .. } => m.pkgs_sent += 1,
                Event::PkgRecv { .. } => m.pkgs_recvd += 1,
                Event::MailboxBusy { .. } => m.mailbox_busy += 1,
                Event::SendOk { msg } => {
                    m.msgs_sent += 1;
                    suspended.remove(msg);
                }
                Event::SendSuspend { msg, .. } => {
                    suspended.insert(*msg);
                    m.suspended_peak = m.suspended_peak.max(suspended.len() as u32);
                }
                Event::CqRetry { .. } => m.cq_retries += 1,
                Event::MsgRecv { .. } => m.msgs_recvd += 1,
                Event::TaskBegin { .. } => m.tasks += 1,
                Event::Fault { .. } => m.faults += 1,
                _ => {}
            }
        }
        m
    }

    /// Metrics for every processor of a trace set.
    pub fn from_traces(traces: &TraceSet) -> Vec<ProcMetrics> {
        traces.procs.iter().map(ProcMetrics::from_trace).collect()
    }
}

impl std::fmt::Display for ProcMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P{}: {} events ({} dropped), {} maps, {} tasks, {} cq-retries, \
             suspended peak {}, pkgs {}/{} sent/recvd, msgs {}/{}, \
             mailbox busy {}, peak mem {}u (arena high {}), {} faults, \
             {} rollbacks",
            self.proc,
            self.events,
            self.dropped,
            self.maps,
            self.tasks,
            self.cq_retries,
            self.suspended_peak,
            self.pkgs_sent,
            self.pkgs_recvd,
            self.msgs_sent,
            self.msgs_recvd,
            self.mailbox_busy,
            self.peak_mem,
            self.arena_high,
            self.faults,
            self.rollbacks,
        )?;
        let total: u64 = self.dwell_ns.iter().sum();
        if total > 0 {
            write!(f, "; dwell")?;
            for s in ProtoState::ALL {
                let ns = self.dwell_ns[s.idx()];
                if ns > 0 {
                    write!(f, " {}={:.1}%", s.name(), 100.0 * ns as f64 / total as f64)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_aggregates_counts_and_dwell() {
        let mut t = ProcTrace::new(3);
        t.state(0, ProtoState::Setup);
        t.state(10, ProtoState::Map);
        t.rec(10, Event::MapBegin { pos: 0 });
        t.rec(12, Event::Alloc { obj: 0, units: 4, offset: 0 });
        t.rec(15, Event::MapEnd { pos: 0, next_map: 2, in_use: 4, arena_high: 6 });
        t.state(20, ProtoState::Rec);
        t.rec(21, Event::MsgRecv { msg: 0 });
        t.rec(22, Event::TaskBegin { task: 7, pos: 0 });
        t.rec(30, Event::TaskEnd { task: 7 });
        t.state(30, ProtoState::Exe);
        t.state(40, ProtoState::Snd);
        t.rec(41, Event::SendSuspend { msg: 1, missing: 9 });
        t.rec(50, Event::CqRetry { msg: 1 });
        t.rec(50, Event::SendOk { msg: 1 });
        t.rec(55, Event::WindowRollback { pos: 0, attempt: 1 });
        t.state(60, ProtoState::End);
        t.state(70, ProtoState::Done);
        let m = ProcMetrics::from_trace(&t);
        assert_eq!(m.proc, 3);
        assert_eq!(m.maps, 1);
        assert_eq!(m.tasks, 1);
        assert_eq!(m.cq_retries, 1);
        assert_eq!(m.suspended_peak, 1);
        assert_eq!(m.msgs_sent, 1);
        assert_eq!(m.msgs_recvd, 1);
        assert_eq!(m.peak_mem, 4);
        assert_eq!(m.arena_high, 6);
        assert_eq!(m.dwell_ns[ProtoState::Setup.idx()], 10);
        assert_eq!(m.dwell_ns[ProtoState::Map.idx()], 10);
        assert_eq!(m.dwell_ns[ProtoState::Rec.idx()], 10);
        assert_eq!(m.dwell_ns[ProtoState::Snd.idx()], 20);
        let line = m.to_string();
        assert!(line.contains("P3"), "{line}");
        assert!(line.contains("1 maps"), "{line}");
        assert_eq!(m.rollbacks, 1);
        assert!(line.contains("1 rollbacks"), "{line}");
    }
}
