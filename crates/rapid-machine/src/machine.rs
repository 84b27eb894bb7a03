//! The pluggable comm-backend surface: the [`Machine`] trait and its
//! implementations.
//!
//! The five-state protocol in `rapid-rt` is written once against this
//! surface — hand an address package toward a destination, flush
//! whatever the backend buffered, drain this processor's incoming
//! packages — so the paper-faithful single-slot backend
//! ([`DirectMachine`]), the native aggregating backend
//! ([`AggregatingMachine`]) and the discrete-event simulator's
//! virtual-time backend ([`VirtualMachine`]) are swappable without
//! touching protocol code. Fault injection and tracing remain executor
//! options orthogonal to the backend choice.
//!
//! A [`Machine`] is the shared, `Sync` half (the mailbox board and any
//! cross-worker bookkeeping); each worker obtains its own mutable
//! [`Port`] endpoint, which is where sender-side aggregation state
//! lives — no synchronization is needed on the buffering fast path.
//!
//! The two thread backends also hold their workers' [`Sleepers`]: a port
//! that physically deposits a package wakes the destination if it sleeps,
//! and a port that drains a slot wakes the source, which may be waiting for
//! that slot (a blocked MAP, or a batch it could not flush).
//!
//! # Aggregation and the Theorem-1 obligations
//!
//! The aggregating backend buffers *logical* packages per destination
//! and hands them off as one physical batch whose segment boundaries
//! are preserved end to end (see `mailbox`), so the receiver observes
//! exactly the per-package sequence an unbatched run would produce.
//! Buffering never blocks the sender (a MAP that would have spun on a
//! full slot keeps going), which strictly removes wait-for edges from
//! the Theorem-1 circular-wait analysis; eventual delivery is
//! guaranteed by the flush policy: size-threshold flush on send, a
//! flush attempt in every blocking-wait service round and before a waiting
//! worker gives its core away (see [`crate::wait`]), and a pending-drained
//! barrier before END retires. Fact I is untouched because a writer cannot
//! learn a remote address before the physical batch carrying it is drained.

// sync-audit: the per-worker `pending` counters are Relaxed by design — they
// are a monotonic *hint* read by the END-barrier spin, never a publication
// edge (the packages themselves travel through the Release/Acquire mailbox
// hand-off, which is what makes the hint eventually-accurate at quiescence).
// The flush-ladder accounting is model-checked exhaustively by
// `rapid_sync::models::agg` (see DESIGN.md §16).

use crate::mailbox::{AddrEntry, AddrPackage, MailboxBoard};
use crate::wait::Sleepers;
use rapid_sync::{Ordering, SyncAtomicUsize};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Result of handing one logical address package to a [`Port`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The package was physically deposited into the destination slot.
    Delivered,
    /// The backend took ownership of the package and will deliver it on
    /// a later flush; the sender proceeds without blocking.
    Buffered,
    /// The destination slot is occupied and this backend does not
    /// buffer: the package was left untouched and the sender must
    /// service-and-retry (the paper's blocking MAP).
    Busy,
}

/// A comm backend: the shared state behind every worker's [`Port`].
pub trait Machine: Sync {
    /// The per-worker endpoint type (generic associated type so ports
    /// can borrow the machine).
    type Port<'m>: Port
    where
        Self: 'm;

    /// Number of processors the machine connects.
    fn nprocs(&self) -> usize;

    /// The mutable endpoint for processor `p`. Each processor must
    /// obtain exactly one port; ports are not `Sync` and live on their
    /// worker's stack.
    fn port(&self, p: usize) -> Self::Port<'_>;

    /// The underlying mailbox board, when this backend has a physical
    /// one (stall-snapshot diagnostics).
    fn board(&self) -> Option<&MailboxBoard> {
        None
    }

    /// Best-effort count of logical packages currently buffered inside
    /// processor `p`'s port (cross-thread diagnostic hint; exact only
    /// at quiescence).
    fn pending_hint(&self, _p: usize) -> usize {
        0
    }
}

/// A worker's mutable comm endpoint.
pub trait Port {
    /// Hand one logical address package toward `dst`. On
    /// [`SendOutcome::Delivered`] or [`SendOutcome::Buffered`] the
    /// entries are consumed (`pkg` is cleared, capacity retained); on
    /// [`SendOutcome::Busy`] it is left untouched for the retry.
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> SendOutcome;

    /// Attempt to deliver buffered packages. Returns `true` when at
    /// least one physical hand-off happened (progress for the
    /// watchdog).
    fn flush(&mut self) -> bool;

    /// Logical packages buffered in this port and not yet physically
    /// delivered. The protocol must not retire END while this is
    /// non-zero.
    fn pending(&self) -> usize;

    /// RA service: drain this processor's incoming packages, invoking
    /// `f(src, entries, seg_ends)` once per source with the full run
    /// and its logical package boundaries. Returns the number of
    /// logical packages consumed.
    fn drain_batched<F: FnMut(usize, &[AddrEntry], &[u32])>(&mut self, f: F) -> usize;
}

// ---------------------------------------------------------------------
// Direct (paper-faithful single-slot) backend.
// ---------------------------------------------------------------------

/// The paper's unbuffered scheme: one single-slot mailbox per
/// processor pair, senders block (service-and-retry) on a full slot.
#[derive(Debug)]
pub struct DirectMachine {
    board: MailboxBoard,
    sleepers: Sleepers,
}

impl DirectMachine {
    /// Direct backend for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        DirectMachine { board: MailboxBoard::new(nprocs), sleepers: Sleepers::new(nprocs) }
    }

    /// The sleeper cells of this machine's workers.
    pub fn sleepers(&self) -> &Sleepers {
        &self.sleepers
    }
}

/// Per-worker endpoint of [`DirectMachine`].
#[derive(Debug)]
pub struct DirectPort<'m> {
    board: &'m MailboxBoard,
    sleepers: &'m Sleepers,
    p: usize,
    scratch: Vec<AddrEntry>,
    segs: Vec<u32>,
}

impl Machine for DirectMachine {
    type Port<'m> = DirectPort<'m>;

    fn nprocs(&self) -> usize {
        self.board.nprocs()
    }

    fn port(&self, p: usize) -> DirectPort<'_> {
        DirectPort {
            board: &self.board,
            sleepers: &self.sleepers,
            p,
            scratch: Vec::new(),
            segs: Vec::new(),
        }
    }

    fn board(&self) -> Option<&MailboxBoard> {
        Some(&self.board)
    }
}

impl Port for DirectPort<'_> {
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> SendOutcome {
        if self.board.slot(self.p, dst).try_send_from(pkg) {
            self.sleepers.wake(dst);
            SendOutcome::Delivered
        } else {
            SendOutcome::Busy
        }
    }

    fn flush(&mut self) -> bool {
        false
    }

    fn pending(&self) -> usize {
        0
    }

    fn drain_batched<F: FnMut(usize, &[AddrEntry], &[u32])>(&mut self, mut f: F) -> usize {
        let sleepers = self.sleepers;
        // An emptied slot is what its source may be waiting for.
        self.board.drain_batched_for_into(self.p, &mut self.scratch, &mut self.segs, |src, e, s| {
            sleepers.wake(src);
            f(src, e, s)
        })
    }
}

// ---------------------------------------------------------------------
// Aggregating (native fast-path) backend.
// ---------------------------------------------------------------------

/// Per-destination message aggregation over the same single-slot board:
/// logical packages coalesce in sender-side buffers and travel as one
/// physical batch per hand-off. Senders never block on a busy slot.
#[derive(Debug)]
pub struct AggregatingMachine {
    board: MailboxBoard,
    sleepers: Sleepers,
    threshold: usize,
    pending: Vec<SyncAtomicUsize>,
}

/// Default entry-count threshold above which a destination buffer is
/// opportunistically flushed on send.
pub const DEFAULT_AGG_THRESHOLD: usize = 64;

impl AggregatingMachine {
    /// Aggregating backend for `nprocs` processors with the default
    /// flush threshold.
    pub fn new(nprocs: usize) -> Self {
        Self::with_threshold(nprocs, DEFAULT_AGG_THRESHOLD)
    }

    /// Aggregating backend with an explicit flush threshold (entries
    /// per destination buffer; `0` flushes on every send, degenerating
    /// to the direct scheme plus buffering on busy slots).
    pub fn with_threshold(nprocs: usize, threshold: usize) -> Self {
        AggregatingMachine {
            board: MailboxBoard::new(nprocs),
            sleepers: Sleepers::new(nprocs),
            threshold,
            pending: (0..nprocs).map(|_| SyncAtomicUsize::new(0)).collect(),
        }
    }

    /// The sleeper cells of this machine's workers.
    pub fn sleepers(&self) -> &Sleepers {
        &self.sleepers
    }
}

/// One destination's aggregation buffer: coalesced entries plus logical
/// package boundaries, appended in send order (FIFO per pair).
#[derive(Debug, Default)]
struct AggBuf {
    entries: Vec<AddrEntry>,
    seg_ends: Vec<u32>,
}

/// Per-worker endpoint of [`AggregatingMachine`]; owns the aggregation
/// buffers outright, so the buffering fast path is synchronization-free.
#[derive(Debug)]
pub struct AggPort<'m> {
    m: &'m AggregatingMachine,
    p: usize,
    bufs: Vec<AggBuf>,
    pending: usize,
    scratch: Vec<AddrEntry>,
    segs: Vec<u32>,
}

impl AggPort<'_> {
    /// Try to hand destination `dst`'s buffered batch off. True on a
    /// physical hand-off.
    fn flush_dst(&mut self, dst: usize) -> bool {
        let buf = &mut self.bufs[dst];
        if buf.seg_ends.is_empty() {
            return false;
        }
        let npkgs = buf.seg_ends.len();
        if self.m.board.slot(self.p, dst).try_send_batch_from(&mut buf.entries, &mut buf.seg_ends) {
            self.m.sleepers.wake(dst);
            self.pending -= npkgs;
            self.m.pending[self.p].store(self.pending, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

impl Machine for AggregatingMachine {
    type Port<'m> = AggPort<'m>;

    fn nprocs(&self) -> usize {
        self.board.nprocs()
    }

    fn port(&self, p: usize) -> AggPort<'_> {
        AggPort {
            m: self,
            p,
            bufs: (0..self.board.nprocs()).map(|_| AggBuf::default()).collect(),
            pending: 0,
            scratch: Vec::new(),
            segs: Vec::new(),
        }
    }

    fn board(&self) -> Option<&MailboxBoard> {
        Some(&self.board)
    }

    fn pending_hint(&self, p: usize) -> usize {
        self.pending[p].load(Ordering::Relaxed)
    }
}

impl Port for AggPort<'_> {
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> SendOutcome {
        // Fast path: nothing queued for this destination and the slot
        // is free — deliver directly, no copy into the buffer.
        if self.bufs[dst].seg_ends.is_empty() && self.m.board.slot(self.p, dst).try_send_from(pkg) {
            self.m.sleepers.wake(dst);
            return SendOutcome::Delivered;
        }
        // Buffer behind whatever is already queued (per-pair FIFO keeps
        // the logical package sequence identical to an unbatched run).
        let buf = &mut self.bufs[dst];
        buf.entries.extend_from_slice(pkg);
        buf.seg_ends.push(buf.entries.len() as u32);
        pkg.clear();
        self.pending += 1;
        self.m.pending[self.p].store(self.pending, Ordering::Relaxed);
        if self.bufs[dst].entries.len() >= self.m.threshold {
            self.flush_dst(dst);
        }
        SendOutcome::Buffered
    }

    fn flush(&mut self) -> bool {
        let mut progress = false;
        for dst in 0..self.bufs.len() {
            progress |= self.flush_dst(dst);
        }
        progress
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn drain_batched<F: FnMut(usize, &[AddrEntry], &[u32])>(&mut self, mut f: F) -> usize {
        let m = self.m;
        m.board.drain_batched_for_into(self.p, &mut self.scratch, &mut self.segs, |src, e, s| {
            m.sleepers.wake(src);
            f(src, e, s)
        })
    }
}

// ---------------------------------------------------------------------
// Virtual (discrete-event) backend.
// ---------------------------------------------------------------------

/// The DES backend: packages are deposited with a virtual arrival time
/// and become drainable only once the receiving port's clock passes it.
/// With `buffered: false` each pair behaves like the paper's single
/// slot (a second send while one is in flight or undrained is
/// [`SendOutcome::Busy`]); with `buffered: true` the queue is unbounded
/// (the paper's address-buffering ablation — the sender-side mirror of
/// [`AggregatingMachine`]'s never-block property) and the peak queue
/// depth is tracked.
#[derive(Debug)]
pub struct VirtualMachine {
    nprocs: usize,
    buffered: bool,
    state: Mutex<VirtState>,
}

#[derive(Debug)]
struct VirtState {
    /// In-flight and undrained packages per (src, dst) pair
    /// (`src * nprocs + dst`): virtual arrival time plus entries.
    queues: Vec<VecDeque<(f64, Vec<AddrEntry>)>>,
    peak_queued: usize,
}

impl VirtualMachine {
    /// Virtual backend for `nprocs` processors. `buffered` selects the
    /// address-buffering ablation.
    pub fn new(nprocs: usize, buffered: bool) -> Self {
        VirtualMachine {
            nprocs,
            buffered,
            state: Mutex::new(VirtState {
                queues: (0..nprocs * nprocs).map(|_| VecDeque::new()).collect(),
                peak_queued: 0,
            }),
        }
    }

    /// Highest number of packages simultaneously queued on any single
    /// pair over the run (1 unless `buffered`).
    pub fn peak_queued(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).peak_queued
    }

    /// Date the package `src` last handed toward `dst`: it becomes
    /// drainable once the receiver's clock reaches `arrive`. The sender
    /// pays for a hand-off only once it is accepted, so the arrival time
    /// is known only then.
    pub fn date_last(&self, src: usize, dst: usize, arrive: f64) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pkg) = st.queues[src * self.nprocs + dst].back_mut() {
            pkg.0 = arrive;
        }
    }
}

/// Per-processor endpoint of [`VirtualMachine`]. The driving simulator
/// owns the virtual clock: a package is accepted undated and stays in
/// flight until [`VirtualMachine::date_last`] gives it its arrival time,
/// and [`VirtualPort::set_now`] gates which incoming packages
/// [`Port::drain_batched`] may consume.
#[derive(Debug)]
pub struct VirtualPort<'m> {
    m: &'m VirtualMachine,
    p: usize,
    now: f64,
    scratch: Vec<AddrEntry>,
    segs: Vec<u32>,
    runs: Vec<(usize, usize, usize)>,
}

impl VirtualPort<'_> {
    /// Virtual receive clock: [`Port::drain_batched`] consumes only
    /// packages whose arrival time is `<= now`.
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }
}

impl Machine for VirtualMachine {
    type Port<'m> = VirtualPort<'m>;

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn port(&self, p: usize) -> VirtualPort<'_> {
        VirtualPort {
            m: self,
            p,
            now: 0.0,
            scratch: Vec::new(),
            segs: Vec::new(),
            runs: Vec::new(),
        }
    }
}

impl Port for VirtualPort<'_> {
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> SendOutcome {
        let mut st = self.m.state.lock().unwrap_or_else(|e| e.into_inner());
        let q = &mut st.queues[self.p * self.m.nprocs + dst];
        if !self.m.buffered && !q.is_empty() {
            return SendOutcome::Busy;
        }
        q.push_back((f64::INFINITY, std::mem::take(pkg)));
        let depth = q.len();
        st.peak_queued = st.peak_queued.max(depth);
        if depth == 1 {
            SendOutcome::Delivered
        } else {
            SendOutcome::Buffered
        }
    }

    fn flush(&mut self) -> bool {
        false // delivery is a function of virtual time, not of flushing
    }

    fn pending(&self) -> usize {
        0
    }

    fn drain_batched<F: FnMut(usize, &[AddrEntry], &[u32])>(&mut self, mut f: F) -> usize {
        self.scratch.clear();
        self.segs.clear();
        self.runs.clear();
        let mut npkgs = 0;
        {
            let mut st = self.m.state.lock().unwrap_or_else(|e| e.into_inner());
            for src in 0..self.m.nprocs {
                if src == self.p {
                    continue;
                }
                let run_entries = self.scratch.len();
                let run_segs = self.segs.len();
                let q = &mut st.queues[src * self.m.nprocs + self.p];
                while q.front().is_some_and(|&(a, _)| a <= self.now) {
                    let Some((_, entries)) = q.pop_front() else { break };
                    self.scratch.extend_from_slice(&entries);
                    self.segs.push((self.scratch.len() - run_entries) as u32);
                    npkgs += 1;
                }
                if self.segs.len() > run_segs {
                    self.runs.push((src, run_entries, run_segs));
                }
            }
        }
        // Callback outside the lock: the simulator's handler charges
        // costs and records trace events and must be free to touch the
        // machine again.
        for i in 0..self.runs.len() {
            let (src, es, ss) = self.runs[i];
            let ee = if i + 1 < self.runs.len() { self.runs[i + 1].1 } else { self.scratch.len() };
            let se = if i + 1 < self.runs.len() { self.runs[i + 1].2 } else { self.segs.len() };
            f(src, &self.scratch[es..ee], &self.segs[ss..se]);
        }
        npkgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkg(objs: &[u32]) -> AddrPackage {
        objs.iter().map(|&o| AddrEntry { obj: o, offset: o as u64 * 8 }).collect()
    }

    #[test]
    fn direct_port_matches_single_slot_semantics() {
        let m = DirectMachine::new(2);
        let mut tx = m.port(0);
        let mut rx = m.port(1);
        let mut p = pkg(&[1]);
        assert_eq!(tx.send_package(1, &mut p), SendOutcome::Delivered);
        assert!(p.is_empty());
        let mut p2 = pkg(&[2]);
        assert_eq!(tx.send_package(1, &mut p2), SendOutcome::Busy);
        assert_eq!(p2.len(), 1, "busy send leaves the package intact");
        let mut got = Vec::new();
        let n = rx.drain_batched(|src, run, segs| {
            got.push((src, run.to_vec(), segs.to_vec()));
        });
        assert_eq!(n, 1);
        assert_eq!(got, vec![(0, pkg(&[1]), vec![1])]);
        assert_eq!(tx.send_package(1, &mut p2), SendOutcome::Delivered);
    }

    #[test]
    fn aggregating_port_never_blocks_and_preserves_order() {
        let m = AggregatingMachine::with_threshold(2, 1024);
        let mut tx = m.port(0);
        let mut rx = m.port(1);
        // First send takes the fast path straight into the slot.
        let mut p = pkg(&[1]);
        assert_eq!(tx.send_package(1, &mut p), SendOutcome::Delivered);
        // Slot is now full: further sends buffer instead of blocking.
        for o in 2..6u32 {
            let mut p = pkg(&[o, o + 100]);
            assert_eq!(tx.send_package(1, &mut p), SendOutcome::Buffered);
            assert!(p.is_empty());
        }
        assert_eq!(tx.pending(), 4);
        assert_eq!(m.pending_hint(0), 4);
        // Flush fails while the slot is still occupied.
        assert!(!tx.flush());
        // Receiver drains the first package, then the flushed batch.
        let mut seen: Vec<Vec<u32>> = Vec::new();
        let drain = |rx: &mut AggPort<'_>, seen: &mut Vec<Vec<u32>>| {
            rx.drain_batched(|_, run, segs| {
                let mut start = 0usize;
                for &e in segs {
                    seen.push(run[start..e as usize].iter().map(|a| a.obj).collect());
                    start = e as usize;
                }
            })
        };
        assert_eq!(drain(&mut rx, &mut seen), 1);
        assert!(tx.flush(), "slot freed: the batch goes out");
        assert_eq!(tx.pending(), 0);
        assert_eq!(m.pending_hint(0), 0);
        assert!(!tx.flush(), "nothing left to flush");
        assert_eq!(drain(&mut rx, &mut seen), 4);
        assert_eq!(
            seen,
            vec![vec![1], vec![2, 102], vec![3, 103], vec![4, 104], vec![5, 105]],
            "logical packages arrive whole and in send order"
        );
    }

    #[test]
    fn aggregating_threshold_triggers_opportunistic_flush() {
        let m = AggregatingMachine::with_threshold(2, 2);
        let mut tx = m.port(0);
        let mut rx = m.port(1);
        let mut p = pkg(&[1]);
        assert_eq!(tx.send_package(1, &mut p), SendOutcome::Delivered);
        let mut consumed = 0;
        consumed += rx.drain_batched(|_, _, _| {});
        // Slot now free; a buffered send reaching the threshold flushes
        // by itself.
        let mut p = pkg(&[2]);
        // Occupy the slot again so this send buffers.
        let mut filler = pkg(&[9]);
        assert_eq!(tx.send_package(1, &mut filler), SendOutcome::Delivered);
        assert_eq!(tx.send_package(1, &mut p), SendOutcome::Buffered);
        consumed += rx.drain_batched(|_, _, _| {});
        let mut p = pkg(&[3]);
        assert_eq!(tx.send_package(1, &mut p), SendOutcome::Buffered);
        assert_eq!(tx.pending(), 0, "threshold reached and slot free: auto-flushed");
        consumed += rx.drain_batched(|_, _, _| {});
        assert_eq!(consumed, 4);
    }

    /// The two port-side events a worker can wait for — a package handed
    /// to it, its own package drained from a peer's slot — end its park on
    /// either thread backend, and so does a flush that delivers.
    #[test]
    fn ports_wake_the_worker_they_serve() {
        use crate::wait::tests::parked_until;
        use std::time::Duration;
        let woken = |slept: Duration, what: &str| {
            assert!(slept < Duration::from_secs(5), "{what}: slept {slept:?}, to its bound")
        };

        let m = DirectMachine::new(2);
        let (mut p0, mut p1) = (m.port(0), m.port(1));
        let slept = parked_until(
            m.sleepers(),
            || m.board.slot(1, 0).is_full(),
            || assert_eq!(p1.send_package(0, &mut pkg(&[1])), SendOutcome::Delivered),
        );
        woken(slept, "direct send_package");
        assert_eq!(p0.send_package(1, &mut pkg(&[2])), SendOutcome::Delivered);
        let slept = parked_until(
            m.sleepers(),
            || !m.board.slot(0, 1).is_full(),
            || assert_eq!(p1.drain_batched(|_, _, _| {}), 1),
        );
        woken(slept, "direct drain_batched");

        let m = AggregatingMachine::with_threshold(2, usize::MAX);
        let (mut p0, mut p1) = (m.port(0), m.port(1));
        let slept = parked_until(
            m.sleepers(),
            || m.board.slot(1, 0).is_full(),
            || assert_eq!(p1.send_package(0, &mut pkg(&[1])), SendOutcome::Delivered),
        );
        woken(slept, "aggregating send_package");
        assert_eq!(p1.send_package(0, &mut pkg(&[2])), SendOutcome::Buffered);
        assert_eq!(p0.drain_batched(|_, _, _| {}), 1);
        let slept = parked_until(
            m.sleepers(),
            || m.board.slot(1, 0).is_full(),
            || assert!(p1.flush(), "the slot is free: the batch goes out"),
        );
        woken(slept, "aggregating flush");
        assert_eq!(p0.send_package(1, &mut pkg(&[3])), SendOutcome::Delivered);
        let slept = parked_until(
            m.sleepers(),
            || !m.board.slot(0, 1).is_full(),
            || assert_eq!(p1.drain_batched(|_, _, _| {}), 1),
        );
        woken(slept, "aggregating drain_batched");
    }

    #[test]
    fn virtual_port_gates_on_arrival_time() {
        let m = VirtualMachine::new(2, false);
        let mut tx = m.port(0);
        let mut rx = m.port(1);
        let mut p = pkg(&[1]);
        assert_eq!(tx.send_package(1, &mut p), SendOutcome::Delivered);
        // Unbuffered: a second in-flight package is refused.
        let mut p2 = pkg(&[2]);
        assert_eq!(tx.send_package(1, &mut p2), SendOutcome::Busy);
        rx.set_now(1e9);
        assert_eq!(rx.drain_batched(|_, _, _| panic!("not dated yet")), 0);
        m.date_last(0, 1, 5.0);
        rx.set_now(4.9);
        assert_eq!(rx.drain_batched(|_, _, _| panic!("not arrived yet")), 0);
        rx.set_now(5.0);
        let mut got = Vec::new();
        assert_eq!(rx.drain_batched(|src, run, _| got.push((src, run[0].obj))), 1);
        assert_eq!(got, vec![(0, 1)]);
        assert_eq!(tx.send_package(1, &mut p2), SendOutcome::Delivered);
    }

    #[test]
    fn virtual_buffered_queue_tracks_peak() {
        let m = VirtualMachine::new(2, true);
        let mut tx = m.port(0);
        for (i, arrive) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            let mut p = pkg(&[i as u32]);
            let out = tx.send_package(1, &mut p);
            assert_ne!(out, SendOutcome::Busy, "buffered machine never refuses");
            m.date_last(0, 1, arrive);
        }
        assert_eq!(m.peak_queued(), 3);
        let mut rx = m.port(1);
        rx.set_now(2.5);
        let mut objs = Vec::new();
        assert_eq!(rx.drain_batched(|_, run, segs| objs.push((run.len(), segs.len()))), 2);
        assert_eq!(objs, vec![(2, 2)], "two arrived packages in one per-source run");
    }
}
