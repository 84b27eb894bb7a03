//! The flat binary record codec: fixed-width 4-word (32-byte) records
//! that the per-worker rings store, and the stateful decoder that turns
//! them back into typed [`Event`]s.
//!
//! Layout of one record (`[u64; 4]`):
//!
//! ```text
//! word 0: tag (low 8 bits) | a (high 56 bits)
//! word 1: timestamp (ns)
//! word 2: b
//! word 3: c
//! ```
//!
//! `a` carries small ids (object/task/message/processor/position — all
//! u32-ish), `b`/`c` carry full-width payloads (units, offsets,
//! accounting words). Variable-length object lists (address packages)
//! spill into [`TAG_OBJS`] continuation records, each packing up to six
//! u32 ids into words 1–3; the package header record carries the total
//! count, so the decoder knows how many continuations to absorb and can
//! detect a chain truncated by ring wrap-around.
//!
//! The codec is deliberately total on the *encode* side (every [`Event`]
//! packs losslessly; positions are capped at 2^28 by a debug assertion)
//! and defensive on the *decode* side: a record that does not parse —
//! stray continuation after a wrap gap, unknown tag, out-of-range state
//! index — is counted as dropped, never panics.

use crate::event::{Event, ProtoState, Ts};
use rapid_machine::fault::FaultSite;

/// [`Event::State`]; `a` = state index into [`ProtoState::ALL`].
pub const TAG_STATE: u64 = 1;
/// [`Event::MapBegin`]; `a` = pos.
pub const TAG_MAP_BEGIN: u64 = 2;
/// [`Event::Free`]; `a` = obj, `b` = units, `c` = offset.
pub const TAG_FREE: u64 = 3;
/// [`Event::Alloc`]; `a` = obj, `b` = units, `c` = offset.
pub const TAG_ALLOC: u64 = 4;
/// [`Event::AllocRollback`]; `a` = obj, `b` = units.
pub const TAG_ALLOC_ROLLBACK: u64 = 5;
/// [`Event::WindowRollback`]; `a` = pos, `b` = attempt.
pub const TAG_WINDOW_ROLLBACK: u64 = 6;
/// [`Event::MapEnd`]; `a` = pos | next_map << 28, `b` = in_use,
/// `c` = arena_high.
pub const TAG_MAP_END: u64 = 7;
/// [`Event::PkgSend`]; `a` = dst | seq << 28, `b` = object count; the
/// objects follow in [`TAG_OBJS`] continuations.
pub const TAG_PKG_SEND: u64 = 8;
/// [`Event::PkgRecv`]; `a` = src | seq << 28, `b` = object count.
pub const TAG_PKG_RECV: u64 = 9;
/// [`Event::MailboxBusy`]; `a` = dst.
pub const TAG_MAILBOX_BUSY: u64 = 10;
/// [`Event::SendOk`]; `a` = msg.
pub const TAG_SEND_OK: u64 = 11;
/// [`Event::SendSuspend`]; `a` = msg, `b` = missing.
pub const TAG_SEND_SUSPEND: u64 = 12;
/// [`Event::CqRetry`]; `a` = msg.
pub const TAG_CQ_RETRY: u64 = 13;
/// [`Event::MsgRecv`]; `a` = msg.
pub const TAG_MSG_RECV: u64 = 14;
/// [`Event::TaskBegin`]; `a` = task, `b` = pos.
pub const TAG_TASK_BEGIN: u64 = 15;
/// [`Event::TaskEnd`]; `a` = task.
pub const TAG_TASK_END: u64 = 16;
/// [`Event::Fault`]; `a` = index into [`FaultSite::ALL`].
pub const TAG_FAULT: u64 = 17;
/// Object-list continuation; `a` = ids in this record (1..=6), words
/// 1–3 each pack two u32 ids (low half first).
pub const TAG_OBJS: u64 = 18;

/// Ids packed per continuation record (two per word, three words).
pub const OBJS_PER_RECORD: usize = 6;

/// Pack a record from its fields. `a` must fit in 56 bits (all callers
/// pack u32-sized ids, checked in debug builds).
#[inline(always)]
pub fn pack(tag: u64, a: u64, ts: Ts, b: u64, c: u64) -> [u64; 4] {
    debug_assert!(tag != 0 && tag <= TAG_OBJS, "unknown tag {tag}");
    debug_assert!(a < (1 << 56), "record field a overflows 56 bits");
    [tag | (a << 8), ts, b, c]
}

/// Split a record's first word into (tag, a).
#[inline(always)]
pub fn unpack_head(word0: u64) -> (u64, u64) {
    (word0 & 0xff, word0 >> 8)
}

/// Pack `pos | next_map << 28` for the two-position records. Positions
/// beyond 2^28 would alias; no schedule remotely approaches that.
#[inline(always)]
pub fn pack_two(lo: u32, hi: u32) -> u64 {
    debug_assert!(lo < (1 << 28) && hi < (1 << 28), "position overflows 28 bits");
    (lo as u64) | ((hi as u64) << 28)
}

#[inline(always)]
fn unpack_two(a: u64) -> (u32, u32) {
    ((a & 0x0fff_ffff) as u32, ((a >> 28) & 0x0fff_ffff) as u32)
}

/// One step of the record decoder.
#[derive(Debug)]
pub enum Step {
    /// A complete event was decoded.
    Event(Ts, Event),
    /// The record was absorbed into a pending continuation chain.
    Consumed,
    /// The record could not be decoded (orphan continuation after a wrap
    /// gap, unknown tag, out-of-range payload). The caller counts it as
    /// dropped.
    Orphan,
}

/// A pending multi-record package whose continuations are still arriving.
struct Pending {
    recv: bool,
    peer: u32,
    seq: u32,
    ts: Ts,
    want: usize,
    objs: Vec<u32>,
    records: u64,
}

/// Stateful record decoder: feeds records and yields typed events,
/// reassembling object-list chains and resynchronizing after wrap gaps.
pub struct RecordStream {
    pending: Option<Pending>,
}

impl Default for RecordStream {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordStream {
    /// Fresh decoder with no pending chain.
    pub fn new() -> Self {
        RecordStream { pending: None }
    }

    /// Records consumed by a chain still pending at end of stream (a
    /// writer that died mid-package, or a chain whose tail was lost):
    /// discards it, since it can never complete. Zero on clean shutdown.
    pub fn finish(&mut self) -> u64 {
        self.pending.take().map_or(0, |p| p.records)
    }

    /// Decode one record.
    pub fn feed(&mut self, rec: [u64; 4]) -> Step {
        let (tag, a) = unpack_head(rec[0]);
        if tag == TAG_OBJS {
            let Some(p) = self.pending.as_mut() else {
                return Step::Orphan; // continuation whose header was dropped
            };
            let k = (a as usize).min(OBJS_PER_RECORD);
            for i in 0..k {
                let w = rec[1 + i / 2];
                let id = if i % 2 == 0 { w as u32 } else { (w >> 32) as u32 };
                p.objs.push(id);
            }
            p.records += 1;
            if p.objs.len() >= p.want {
                let Some(p) = self.pending.take() else { return Step::Orphan };
                let ev = if p.recv {
                    Event::PkgRecv { src: p.peer, seq: p.seq, objs: p.objs }
                } else {
                    Event::PkgSend { dst: p.peer, seq: p.seq, objs: p.objs }
                };
                return Step::Event(p.ts, ev);
            }
            return Step::Consumed;
        }
        // A fresh header while a chain is pending means the writer broke
        // the chain invariant; treat the partial chain as lost.
        debug_assert!(self.pending.is_none(), "package chain interrupted by tag {tag}");
        self.pending = None;
        let ts = rec[1];
        let (b, c) = (rec[2], rec[3]);
        let ev = match tag {
            TAG_STATE => match ProtoState::ALL.get(a as usize) {
                Some(&s) => Event::State(s),
                None => return Step::Orphan,
            },
            TAG_MAP_BEGIN => Event::MapBegin { pos: a as u32 },
            TAG_FREE => Event::Free { obj: a as u32, units: b, offset: c },
            TAG_ALLOC => Event::Alloc { obj: a as u32, units: b, offset: c },
            TAG_ALLOC_ROLLBACK => Event::AllocRollback { obj: a as u32, units: b },
            TAG_WINDOW_ROLLBACK => Event::WindowRollback { pos: a as u32, attempt: b as u32 },
            TAG_MAP_END => {
                let (pos, next_map) = unpack_two(a);
                Event::MapEnd { pos, next_map, in_use: b, arena_high: c }
            }
            TAG_PKG_SEND | TAG_PKG_RECV => {
                let (peer, seq) = unpack_two(a);
                let want = b as usize;
                if want == 0 {
                    if tag == TAG_PKG_RECV {
                        Event::PkgRecv { src: peer, seq, objs: Vec::new() }
                    } else {
                        Event::PkgSend { dst: peer, seq, objs: Vec::new() }
                    }
                } else {
                    self.pending = Some(Pending {
                        recv: tag == TAG_PKG_RECV,
                        peer,
                        seq,
                        ts,
                        want,
                        objs: Vec::with_capacity(want),
                        records: 1,
                    });
                    return Step::Consumed;
                }
            }
            TAG_MAILBOX_BUSY => Event::MailboxBusy { dst: a as u32 },
            TAG_SEND_OK => Event::SendOk { msg: a as u32 },
            TAG_SEND_SUSPEND => Event::SendSuspend { msg: a as u32, missing: b as u32 },
            TAG_CQ_RETRY => Event::CqRetry { msg: a as u32 },
            TAG_MSG_RECV => Event::MsgRecv { msg: a as u32 },
            TAG_TASK_BEGIN => Event::TaskBegin { task: a as u32, pos: b as u32 },
            TAG_TASK_END => Event::TaskEnd { task: a as u32 },
            TAG_FAULT => match FaultSite::ALL.get(a as usize) {
                Some(&site) => Event::Fault { site },
                None => return Step::Orphan,
            },
            _ => return Step::Orphan,
        };
        Step::Event(ts, ev)
    }
}

/// Index of `site` in [`FaultSite::ALL`] (the codec's wire value).
#[inline]
pub fn fault_index(site: FaultSite) -> u64 {
    FaultSite::ALL.iter().position(|&s| s == site).unwrap_or(0) as u64
}

/// Records one event occupies in the ring (1 + object-list spill).
pub fn records_for(ev: &Event) -> u64 {
    match ev {
        Event::PkgSend { objs, .. } | Event::PkgRecv { objs, .. } => {
            1 + objs.len().div_ceil(OBJS_PER_RECORD) as u64
        }
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_position_packing_round_trips() {
        let a = pack_two(123, 456);
        assert_eq!(unpack_two(a), (123, 456));
        let a = pack_two((1 << 28) - 1, 0);
        assert_eq!(unpack_two(a), ((1 << 28) - 1, 0));
    }

    #[test]
    fn orphan_continuation_is_flagged() {
        let mut rs = RecordStream::new();
        let rec = pack(TAG_OBJS, 2, 0, 7 | (9 << 32), 0);
        assert!(matches!(rs.feed(rec), Step::Orphan));
    }

    #[test]
    fn finish_discards_pending_chain() {
        let mut rs = RecordStream::new();
        let head = pack(TAG_PKG_SEND, pack_two(1, 0), 5, 9, 0);
        assert!(matches!(rs.feed(head), Step::Consumed));
        assert_eq!(rs.finish(), 1, "the header record is lost with its chain");
        assert_eq!(rs.finish(), 0);
    }
}
