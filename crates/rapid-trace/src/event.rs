//! Typed protocol events and the per-processor trace they are decoded into.
//!
//! Every event is something the paper's five-state protocol *does*:
//! state transitions, MAP alloc/free waves, address-package hand-offs
//! through the single-slot mailboxes, RMA message puts, suspended-send
//! bookkeeping, and fault injections. The executors record them through
//! an `Option`-gated tracer, so a run with tracing disabled never touches
//! this module on its hot path.
//!
//! Workers record into [`FlatRing`](crate::FlatRing)s; a [`ProcTrace`] is
//! one ring decoded after the run ([`decode_ring`](crate::decode_ring)):
//! the events the ring kept, oldest first, and the exact count it lost
//! when it wrapped. The invariant checker refuses a trace with drops,
//! because a replay with missing prefix events cannot prove anything.

use rapid_machine::fault::FaultSite;

/// Event timestamp in nanoseconds. The threaded executor stamps wall
/// time since the start of the parallel section; the DES stamps virtual
/// time scaled by 10⁹ (so a unit-cost task is 1 s = 10⁹ ns). Timestamps
/// order events *within* one processor's trace; cross-processor ordering
/// comes from matching send/recv sequence numbers, never from comparing
/// clocks.
pub type Ts = u64;

/// Sentinel offset for executors that account memory by counting instead
/// of placing real buffers (the DES). The checker skips the
/// overlapping-allocation check for such entries.
pub const NO_OFFSET: u64 = u64::MAX;

/// The protocol states of the paper's Figure 3(b), plus the bookkeeping
/// states both executors move through around them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtoState {
    /// Laying out permanent objects before the protocol starts.
    Setup,
    /// Running a memory allocation point.
    Map,
    /// Waiting for the current task's incoming messages.
    Rec,
    /// Executing a task body.
    Exe,
    /// Emitting the task's outgoing messages.
    Snd,
    /// All tasks done; draining the suspended-send queue.
    End,
    /// Processor finished.
    Done,
}

impl ProtoState {
    /// All states, in the order used for dwell-time buckets.
    pub const ALL: [ProtoState; 7] = [
        ProtoState::Setup,
        ProtoState::Map,
        ProtoState::Rec,
        ProtoState::Exe,
        ProtoState::Snd,
        ProtoState::End,
        ProtoState::Done,
    ];

    /// Index into dwell-time buckets.
    pub fn idx(self) -> usize {
        match self {
            ProtoState::Setup => 0,
            ProtoState::Map => 1,
            ProtoState::Rec => 2,
            ProtoState::Exe => 3,
            ProtoState::Snd => 4,
            ProtoState::End => 5,
            ProtoState::Done => 6,
        }
    }

    /// Short display name (Chrome-trace slice labels).
    pub fn name(self) -> &'static str {
        match self {
            ProtoState::Setup => "SETUP",
            ProtoState::Map => "MAP",
            ProtoState::Rec => "REC",
            ProtoState::Exe => "EXE",
            ProtoState::Snd => "SND",
            ProtoState::End => "END",
            ProtoState::Done => "DONE",
        }
    }

    /// May the protocol move from `self` to `next`? This is the legal
    /// transition relation of the five-state machine with the
    /// bookkeeping states attached ([`ProtoState::Setup`] fans out to
    /// whatever the first real state is; an idle processor may go
    /// straight to END).
    pub fn may_precede(self, next: ProtoState) -> bool {
        use ProtoState::*;
        matches!(
            (self, next),
            (Setup, Map | Rec | End)
                | (Map, Rec | End)
                | (Rec, Exe)
                | (Exe, Snd)
                | (Snd, Rec | Map | End)
                | (End, Done)
        )
    }
}

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The worker entered a protocol state (deduplicated: consecutive
    /// identical states record once).
    State(ProtoState),
    /// A MAP started at order position `pos`.
    MapBegin {
        /// Position in the processor's order the MAP runs before.
        pos: u32,
    },
    /// A MAP freed a dead volatile.
    Free {
        /// Object id.
        obj: u32,
        /// Size in allocation units.
        units: u64,
        /// Arena offset ([`NO_OFFSET`] for counting executors).
        offset: u64,
    },
    /// A MAP allocated a volatile buffer.
    Alloc {
        /// Object id.
        obj: u32,
        /// Size in allocation units.
        units: u64,
        /// Arena offset ([`NO_OFFSET`] for counting executors).
        offset: u64,
    },
    /// A recovery rollback: the task at order position `pos` failed, its
    /// writes were restored from the checkpoint taken before it ran, and
    /// the processor runs it again as its window's re-execution
    /// `attempt`. The checker rewinds its replay cursor accordingly, so a
    /// recovered run is held to the same Theorem-1 obligations as a
    /// fault-free one.
    WindowRollback {
        /// Order position the processor (and the replay cursor) rewinds to.
        pos: u32,
        /// Re-execution attempt number (1 = first retry).
        attempt: u32,
    },
    /// The MAP finished (including its address-package hand-offs).
    MapEnd {
        /// Position the MAP ran before.
        pos: u32,
        /// First position not covered by the allocation window.
        next_map: u32,
        /// Units in use after the MAP, by the counting accounting.
        in_use: u64,
        /// Most units in use after any MAP so far, by the same counting.
        arena_high: u64,
    },
    /// An address package was deposited into the single-slot mailbox
    /// toward `dst`. `seq` counts packages on this (src, dst) pair.
    PkgSend {
        /// Destination processor.
        dst: u32,
        /// Per-(src,dst) package sequence number, starting at 0.
        seq: u32,
        /// Object ids whose fresh addresses the package carries.
        objs: Vec<u32>,
    },
    /// An address package from `src` was drained by the RA service
    /// operation. `seq` counts packages received on this (src, dst) pair.
    PkgRecv {
        /// Source processor.
        src: u32,
        /// Per-(src,dst) package sequence number, starting at 0.
        seq: u32,
        /// Object ids the package carried.
        objs: Vec<u32>,
    },
    /// An address-package hand-off found the destination slot still
    /// occupied (or fault-injected as such); the sender blocks in MAP.
    MailboxBusy {
        /// Destination processor whose slot was full.
        dst: u32,
    },
    /// All of message `msg`'s destination addresses were known and its
    /// RMA puts were performed (arrival flag raised).
    SendOk {
        /// Message id in the protocol plan.
        msg: u32,
    },
    /// Message `msg` could not be sent and was parked on the suspended
    /// queue, watching object `missing`'s address.
    SendSuspend {
        /// Message id in the protocol plan.
        msg: u32,
        /// First object whose destination address was unknown.
        missing: u32,
    },
    /// The CQ service operation retried suspended message `msg` (a
    /// successful retry also records [`Event::SendOk`]).
    CqRetry {
        /// Message id in the protocol plan.
        msg: u32,
    },
    /// The REC state observed message `msg`'s arrival flag.
    MsgRecv {
        /// Message id in the protocol plan.
        msg: u32,
    },
    /// A task body started.
    TaskBegin {
        /// Task id.
        task: u32,
        /// Position in the processor's order.
        pos: u32,
    },
    /// A task body finished.
    TaskEnd {
        /// Task id.
        task: u32,
    },
    /// A seeded fault was injected at `site`.
    Fault {
        /// Which injection site fired.
        site: FaultSite,
    },
}

/// How much of the protocol the recorder captures. There is one answer:
/// every event. This type is the ignored argument of [`check_tier`] and
/// [`TraceConfig::with_tier`], and stays only until `benchmark/` stops
/// naming it (ROADMAP item 1).
///
/// [`check_tier`]: crate::check::check_tier
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceTier {
    /// Record every protocol event.
    Full,
}

/// Tracing configuration: per-processor ring capacity in events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained per processor before the ring wraps.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 16 }
    }
}

impl TraceConfig {
    /// Config with an explicit per-processor capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig { capacity: capacity.max(1) }
    }

    /// The same config: see [`TraceTier`].
    pub fn with_tier(self, _: TraceTier) -> Self {
        self
    }

    /// Records in each processor's [`crate::FlatRing`]: the event capacity
    /// plus a quarter of headroom, so the object-list continuation records
    /// of package events do not eat into the event budget, rounded up the
    /// way [`crate::FlatRing::new`] rounds. Both executors size their rings
    /// by it, and a pooled ring is reused only at exactly this size.
    pub fn ring_records(&self) -> usize {
        (self.capacity + self.capacity / 4).max(8).next_power_of_two()
    }
}

/// One processor's decoded trace: the events its ring kept, oldest
/// first, and how many it lost.
#[derive(Clone, Debug)]
pub struct ProcTrace {
    /// Processor id.
    pub proc: u32,
    events: Vec<(Ts, Event)>,
    dropped: u64,
    last_state: Option<ProtoState>,
}

impl ProcTrace {
    /// Empty trace for processor `proc`.
    pub fn new(proc: u32) -> Self {
        ProcTrace { proc, events: Vec::new(), dropped: 0, last_state: None }
    }

    /// Record one event at timestamp `ts`.
    #[inline]
    pub fn rec(&mut self, ts: Ts, ev: Event) {
        if let Event::State(s) = ev {
            if self.last_state == Some(s) {
                return; // dedup consecutive identical states
            }
            self.last_state = Some(s);
        }
        self.events.push((ts, ev));
    }

    /// Record a state transition (deduplicated shorthand).
    #[inline]
    pub fn state(&mut self, ts: Ts, s: ProtoState) {
        self.rec(ts, Event::State(s));
    }

    /// Account for `n` events known to be lost before they reached this
    /// trace (the flat-ring decoder reports the exact overwrite count it
    /// derives from the ring's head epoch).
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Events recorded in total (including any the ring lost).
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Ts, Event)> {
        self.events.iter()
    }

    /// The `n` most recent events, oldest first (stall diagnostics).
    pub fn tail(&self, n: usize) -> Vec<(Ts, Event)> {
        let skip = self.len().saturating_sub(n);
        self.iter().skip(skip).cloned().collect()
    }
}

/// A whole run's trace: one decoded ring per processor.
#[derive(Clone, Debug)]
pub struct TraceSet {
    /// Per-processor traces, indexed by processor id.
    pub procs: Vec<ProcTrace>,
}

impl TraceSet {
    /// Assemble from per-processor traces (must be indexed by proc id).
    pub fn new(procs: Vec<ProcTrace>) -> Self {
        for (i, t) in procs.iter().enumerate() {
            debug_assert_eq!(t.proc as usize, i, "traces must be indexed by processor");
        }
        TraceSet { procs }
    }

    /// Total events recorded across processors.
    pub fn total(&self) -> u64 {
        self.procs.iter().map(|t| t.total()).sum()
    }

    /// Total events lost to ring wrap-around across processors.
    pub fn dropped(&self) -> u64 {
        self.procs.iter().map(|t| t.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_states_deduplicate() {
        let mut t = ProcTrace::new(0);
        t.state(0, ProtoState::Rec);
        t.state(1, ProtoState::Rec);
        t.state(2, ProtoState::Exe);
        t.state(3, ProtoState::Rec);
        assert_eq!(t.len(), 3, "repeated REC records once");
    }

    #[test]
    fn transition_relation_matches_protocol() {
        use ProtoState::*;
        assert!(Setup.may_precede(Map));
        assert!(Map.may_precede(Rec));
        assert!(Rec.may_precede(Exe));
        assert!(Exe.may_precede(Snd));
        assert!(Snd.may_precede(Map));
        assert!(Snd.may_precede(Rec));
        assert!(Snd.may_precede(End));
        assert!(End.may_precede(Done));
        assert!(!Rec.may_precede(Snd), "REC must pass through EXE");
        assert!(!Map.may_precede(Exe), "MAP hands over to REC first");
        assert!(!Done.may_precede(Setup));
    }
}
