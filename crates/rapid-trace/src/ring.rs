//! Per-worker flat binary rings: the production recording surface.
//!
//! Each worker owns one [`FlatRing`] and writes fixed-width 4-word
//! records ([`crate::record`]) through a [`FlatWriter`] — a single
//! unsynchronized cursor bump per record, no typed-enum construction, no
//! allocation, no branching beyond the tier gate. A ring is read only
//! once its writer has quiesced ([`FlatRing::read_quiesced`]).
//!
//! `head` counts records *ever published*, monotonically — it doubles as
//! the overwrite epoch: record `r` lives in slot `r % cap` until record
//! `r + cap` overwrites it, so a reader holding `head = h` knows exactly
//! which records survive (`h - cap ..= h - 1`) and exactly how many were
//! dropped (`h - cap`, when positive). That is what lets the decoder
//! report a precise drop count for a wrapped ring instead of a silent
//! truncation.

// sync-audit: no ring is ever read while its writer runs. Each ring is read
// either on its writer's own thread (`decode_ring` before a worker leaves the
// run, `StallSnapshot::new` on the reporting worker, the single-threaded DES)
// or by the thread that called `WorkerPool::run`, after the pool's `done`
// Acquire has ordered every record store before the read. So the word stores
// and loads are Relaxed and need no fences; the Release/Acquire pair on `head`
// is belt and braces. The words stay atomic because the rings are shared by
// `&` into the pool.

use crate::event::{Event, ProtoState, TraceTier, Ts};
use crate::record::{self, fault_index, pack, pack_two};
use rapid_sync::{Ordering, SyncAtomicU64};

/// Words per record.
const REC_WORDS: usize = 4;

/// A fixed-capacity ring of flat binary records, owned by one writer and
/// read once that writer has quiesced.
pub struct FlatRing {
    /// Processor id this ring records for.
    pub proc: u32,
    words: Box<[SyncAtomicU64]>,
    head: SyncAtomicU64,
    cap: u64,
}

impl FlatRing {
    /// Ring holding `cap_records` records (rounded up to a power of two,
    /// minimum 8).
    pub fn new(proc: u32, cap_records: usize) -> Self {
        let cap = cap_records.max(8).next_power_of_two();
        // Allocate through `vec![0u64; n]` (calloc) rather than writing
        // an `AtomicU64::new(0)` per word: large zeroed allocations come
        // from the OS as lazily-mapped zero pages, so a mostly-idle ring
        // costs address space, not resident memory or a multi-MB memset
        // on every executor run.
        let zeroed = vec![0u64; cap * REC_WORDS].into_boxed_slice();
        let len = zeroed.len();
        let ptr = Box::into_raw(zeroed) as *mut SyncAtomicU64;
        // SAFETY: `SyncAtomicU64` is `repr(transparent)` over `AtomicU64`,
        // which is guaranteed to have the same size and in-memory
        // representation as `u64` (checked below), and the box uniquely owns
        // the allocation.
        const _: () = assert!(
            std::mem::size_of::<SyncAtomicU64>() == std::mem::size_of::<u64>()
                && std::mem::align_of::<SyncAtomicU64>() == std::mem::align_of::<u64>()
        );
        let words = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) };
        FlatRing { proc, words, head: SyncAtomicU64::new(0), cap: cap as u64 }
    }

    /// Record capacity (power of two).
    pub fn capacity_records(&self) -> u64 {
        self.cap
    }

    /// The record capacity [`FlatRing::new`] would round `cap_records`
    /// up to (callers pooling rings use it to match a ring against a
    /// requested capacity without allocating).
    pub fn rounded_capacity(cap_records: usize) -> u64 {
        cap_records.max(8).next_power_of_two() as u64
    }

    /// Rewind the ring for reuse by a new run: every published record is
    /// forgotten and the overwrite epoch restarts at zero. Exclusive
    /// access (`&mut`) guarantees no writer or reader is live.
    pub fn reset(&mut self) {
        self.head.store(0, Ordering::Release);
    }

    /// Records ever published (the overwrite epoch).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records overwritten so far (`head - cap`, clamped at zero). Exact
    /// once the writer has quiesced.
    pub fn dropped_records(&self) -> u64 {
        self.head().saturating_sub(self.cap)
    }

    /// Single-writer handle. The caller must ensure only one writer per
    /// ring exists at a time (each executor worker owns its ring).
    pub fn writer(&self, tier: TraceTier) -> FlatWriter<'_> {
        FlatWriter { ring: self, cursor: self.head(), tier, last_state: None }
    }

    #[inline(always)]
    fn slot(&self, rec: u64) -> usize {
        ((rec & (self.cap - 1)) as usize) * REC_WORDS
    }

    /// Copy every surviving record, oldest first, and count the records
    /// lost to overwrite before them (`head - cap`, clamped: exact). The
    /// writer must have quiesced (see the `sync-audit` note above).
    pub fn read_quiesced(&self) -> (Vec<[u64; 4]>, u64) {
        let h = self.head.load(Ordering::Acquire);
        let lo = h.saturating_sub(self.cap);
        let records = (lo..h)
            .map(|r| {
                let s = self.slot(r);
                [
                    self.words[s].load(Ordering::Relaxed),
                    self.words[s + 1].load(Ordering::Relaxed),
                    self.words[s + 2].load(Ordering::Relaxed),
                    self.words[s + 3].load(Ordering::Relaxed),
                ]
            })
            .collect();
        (records, lo)
    }
}

/// The single-writer recording handle: typed methods, each one ring
/// record (plus object-list continuations), gated by the sampling tier.
///
/// Skeleton tier records protocol-state transitions, MAP begin/end and
/// their alloc/free/rollback waves, package sends (with objects — the
/// `skeleton()` projection needs them), send initiations, message
/// receipts and task begins; it drops receive-side package drains, task
/// ends, retry/busy noise and fault markers.
pub struct FlatWriter<'r> {
    ring: &'r FlatRing,
    cursor: u64,
    tier: TraceTier,
    last_state: Option<ProtoState>,
}

impl<'r> FlatWriter<'r> {
    #[inline(always)]
    fn push(&mut self, rec: [u64; 4]) {
        let s = self.ring.slot(self.cursor);
        self.ring.words[s].store(rec[0], Ordering::Relaxed);
        self.ring.words[s + 1].store(rec[1], Ordering::Relaxed);
        self.ring.words[s + 2].store(rec[2], Ordering::Relaxed);
        self.ring.words[s + 3].store(rec[3], Ordering::Relaxed);
        self.cursor += 1;
        self.ring.head.store(self.cursor, Ordering::Release);
    }

    #[inline(always)]
    fn full(&self) -> bool {
        self.tier == TraceTier::Full
    }

    /// Processor id of the underlying ring.
    pub fn proc(&self) -> u32 {
        self.ring.proc
    }

    /// The sampling tier this writer records at. Callers use this to
    /// skip preparing arguments for records the tier would drop anyway
    /// (e.g. collecting a package's object ids at Skeleton).
    pub fn tier(&self) -> TraceTier {
        self.tier
    }

    /// Record a protocol-state transition (consecutive duplicates are
    /// deduplicated, matching the typed-push recorder).
    #[inline]
    pub fn state(&mut self, ts: Ts, s: ProtoState) {
        if self.last_state == Some(s) {
            return;
        }
        self.last_state = Some(s);
        self.push(pack(record::TAG_STATE, s.idx() as u64, ts, 0, 0));
    }

    /// Record [`Event::MapBegin`].
    #[inline]
    pub fn map_begin(&mut self, ts: Ts, pos: u32) {
        self.push(pack(record::TAG_MAP_BEGIN, pos as u64, ts, 0, 0));
    }

    /// Record [`Event::Free`].
    #[inline]
    pub fn free(&mut self, ts: Ts, obj: u32, units: u64, offset: u64) {
        self.push(pack(record::TAG_FREE, obj as u64, ts, units, offset));
    }

    /// Record [`Event::Alloc`].
    #[inline]
    pub fn alloc(&mut self, ts: Ts, obj: u32, units: u64, offset: u64) {
        self.push(pack(record::TAG_ALLOC, obj as u64, ts, units, offset));
    }

    /// Record [`Event::AllocRollback`].
    #[inline]
    pub fn alloc_rollback(&mut self, ts: Ts, obj: u32, units: u64) {
        self.push(pack(record::TAG_ALLOC_ROLLBACK, obj as u64, ts, units, 0));
    }

    /// Record [`Event::WindowRollback`].
    #[inline]
    pub fn window_rollback(&mut self, ts: Ts, pos: u32, attempt: u32) {
        self.push(pack(record::TAG_WINDOW_ROLLBACK, pos as u64, ts, attempt as u64, 0));
    }

    /// Record [`Event::MapEnd`].
    #[inline]
    pub fn map_end(&mut self, ts: Ts, pos: u32, next_map: u32, in_use: u64, arena_high: u64) {
        self.push(pack(record::TAG_MAP_END, pack_two(pos, next_map), ts, in_use, arena_high));
    }

    #[inline]
    fn pkg(&mut self, tag: u64, ts: Ts, peer: u32, seq: u32, objs: &[u32]) {
        self.push(pack(tag, pack_two(peer, seq), ts, objs.len() as u64, 0));
        for chunk in objs.chunks(record::OBJS_PER_RECORD) {
            let mut words = [0u64; 3];
            for (i, &id) in chunk.iter().enumerate() {
                words[i / 2] |= (id as u64) << ((i % 2) * 32);
            }
            self.push([
                record::TAG_OBJS | ((chunk.len() as u64) << 8),
                words[0],
                words[1],
                words[2],
            ]);
        }
    }

    /// Record [`Event::PkgSend`] (both tiers: sequence numbers and
    /// contents are protocol skeleton).
    #[inline]
    pub fn pkg_send(&mut self, ts: Ts, dst: u32, seq: u32, objs: &[u32]) {
        self.pkg(record::TAG_PKG_SEND, ts, dst, seq, objs);
    }

    /// Record [`Event::PkgRecv`] (Full tier only).
    #[inline]
    pub fn pkg_recv(&mut self, ts: Ts, src: u32, seq: u32, objs: &[u32]) {
        if self.full() {
            self.pkg(record::TAG_PKG_RECV, ts, src, seq, objs);
        }
    }

    /// Record [`Event::MailboxBusy`] (Full tier only).
    #[inline]
    pub fn mailbox_busy(&mut self, ts: Ts, dst: u32) {
        if self.full() {
            self.push(pack(record::TAG_MAILBOX_BUSY, dst as u64, ts, 0, 0));
        }
    }

    /// Record [`Event::SendOk`].
    #[inline]
    pub fn send_ok(&mut self, ts: Ts, msg: u32) {
        self.push(pack(record::TAG_SEND_OK, msg as u64, ts, 0, 0));
    }

    /// Record [`Event::SendSuspend`].
    #[inline]
    pub fn send_suspend(&mut self, ts: Ts, msg: u32, missing: u32) {
        self.push(pack(record::TAG_SEND_SUSPEND, msg as u64, ts, missing as u64, 0));
    }

    /// Record [`Event::CqRetry`] (Full tier only).
    #[inline]
    pub fn cq_retry(&mut self, ts: Ts, msg: u32) {
        if self.full() {
            self.push(pack(record::TAG_CQ_RETRY, msg as u64, ts, 0, 0));
        }
    }

    /// Record [`Event::MsgRecv`].
    #[inline]
    pub fn msg_recv(&mut self, ts: Ts, msg: u32) {
        self.push(pack(record::TAG_MSG_RECV, msg as u64, ts, 0, 0));
    }

    /// Record [`Event::TaskBegin`].
    #[inline]
    pub fn task_begin(&mut self, ts: Ts, task: u32, pos: u32) {
        self.push(pack(record::TAG_TASK_BEGIN, task as u64, ts, pos as u64, 0));
    }

    /// Record [`Event::TaskEnd`] (Full tier only).
    #[inline]
    pub fn task_end(&mut self, ts: Ts, task: u32) {
        if self.full() {
            self.push(pack(record::TAG_TASK_END, task as u64, ts, 0, 0));
        }
    }

    /// Record [`Event::Fault`] (Full tier only).
    #[inline]
    pub fn fault(&mut self, ts: Ts, site: rapid_machine::fault::FaultSite) {
        if self.full() {
            self.push(pack(record::TAG_FAULT, fault_index(site), ts, 0, 0));
        }
    }

    /// Encode a typed event (test harnesses and trace re-encoding; the
    /// executors use the typed methods directly). Tier gating applies.
    pub fn rec_event(&mut self, ts: Ts, ev: &Event) {
        match ev {
            Event::State(s) => self.state(ts, *s),
            Event::MapBegin { pos } => self.map_begin(ts, *pos),
            Event::Free { obj, units, offset } => self.free(ts, *obj, *units, *offset),
            Event::Alloc { obj, units, offset } => self.alloc(ts, *obj, *units, *offset),
            Event::AllocRollback { obj, units } => self.alloc_rollback(ts, *obj, *units),
            Event::WindowRollback { pos, attempt } => self.window_rollback(ts, *pos, *attempt),
            Event::MapEnd { pos, next_map, in_use, arena_high } => {
                self.map_end(ts, *pos, *next_map, *in_use, *arena_high)
            }
            Event::PkgSend { dst, seq, objs } => self.pkg_send(ts, *dst, *seq, objs),
            Event::PkgRecv { src, seq, objs } => self.pkg_recv(ts, *src, *seq, objs),
            Event::MailboxBusy { dst } => self.mailbox_busy(ts, *dst),
            Event::SendOk { msg } => self.send_ok(ts, *msg),
            Event::SendSuspend { msg, missing } => self.send_suspend(ts, *msg, *missing),
            Event::CqRetry { msg } => self.cq_retry(ts, *msg),
            Event::MsgRecv { msg } => self.msg_recv(ts, *msg),
            Event::TaskBegin { task, pos } => self.task_begin(ts, *task, *pos),
            Event::TaskEnd { task } => self.task_end(ts, *task),
            Event::Fault { site } => self.fault(ts, *site),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrite_epoch_counts_exact_drops() {
        let ring = FlatRing::new(0, 8);
        let mut w = ring.writer(TraceTier::Full);
        for i in 0..21u32 {
            w.msg_recv(i as u64, i);
        }
        assert_eq!(ring.head(), 21);
        assert_eq!(ring.dropped_records(), 13, "21 written into 8 slots");
        let (buf, dropped) = ring.read_quiesced();
        assert_eq!(dropped, 13, "quiesced read is exact");
        assert_eq!(buf.len(), 8);
        let first = crate::record::unpack_head(buf[0][0]);
        assert_eq!(first.1, 13, "oldest surviving record is msg 13");
    }

    #[test]
    fn skeleton_tier_drops_full_only_records() {
        let ring = FlatRing::new(0, 32);
        let mut w = ring.writer(TraceTier::Skeleton);
        w.state(0, ProtoState::Setup);
        w.task_end(1, 5); // dropped
        w.cq_retry(2, 1); // dropped
        w.pkg_recv(3, 1, 0, &[4]); // dropped
        w.msg_recv(4, 2); // kept
        assert_eq!(ring.head(), 2);
    }
}
