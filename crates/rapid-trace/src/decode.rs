//! Off-line decode: flat binary rings back into the typed [`Event`](crate::Event)
//! schema, so `check()`, `skeleton()`, the metrics aggregator and the
//! Chrome-trace exporter are unchanged by the flat recording path.

use crate::event::{ProcTrace, TraceSet};
use crate::record::{RecordStream, Step};
use crate::ring::FlatRing;

/// Decode one quiesced ring into a [`ProcTrace`]. The returned trace's
/// `dropped()` is the *exact* number of records lost to overwrite (plus
/// any continuation records orphaned by the wrap), derived from the
/// ring's monotone head epoch — not a guess.
pub fn decode_ring(ring: &FlatRing) -> ProcTrace {
    let (buf, mut dropped) = ring.read_quiesced();
    let mut rs = RecordStream::new();
    let mut t = ProcTrace::new(ring.proc);
    for rec in &buf {
        match rs.feed(*rec) {
            Step::Event(ts, ev) => t.rec(ts, ev),
            Step::Consumed => {}
            Step::Orphan => dropped += 1,
        }
    }
    t.note_dropped(dropped + rs.finish());
    t
}

/// Decode a quiesced ring per processor into a [`TraceSet`].
pub fn decode_rings(rings: &[FlatRing]) -> TraceSet {
    TraceSet::new(rings.iter().map(decode_ring).collect())
}

/// Re-encode a typed trace into a flat ring (test harnesses: round-trips
/// of typed traces through the raw record codec). `cap_records` bounds
/// the ring as [`FlatRing::new`] does.
pub fn encode_trace(t: &ProcTrace, cap_records: usize) -> FlatRing {
    let ring = FlatRing::new(t.proc, cap_records);
    let mut w = ring.writer();
    for (ts, ev) in t.iter() {
        w.rec_event(*ts, ev);
    }
    ring
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, ProtoState};

    fn sample() -> ProcTrace {
        let mut t = ProcTrace::new(0);
        t.state(0, ProtoState::Setup);
        t.state(1, ProtoState::Map);
        t.rec(1, Event::MapBegin { pos: 0 });
        t.rec(2, Event::Alloc { obj: 3, units: 4, offset: 128 });
        t.rec(3, Event::PkgSend { dst: 1, seq: 0, objs: (0..9).collect() });
        t.rec(4, Event::MapEnd { pos: 0, next_map: 2, in_use: 4, arena_high: 132 });
        t.state(5, ProtoState::Rec);
        t.rec(6, Event::MsgRecv { msg: 0 });
        t.rec(7, Event::TaskBegin { task: 1, pos: 0 });
        t.rec(8, Event::TaskEnd { task: 1 });
        t
    }

    #[test]
    fn round_trip_is_lossless() {
        let t = sample();
        let ring = encode_trace(&t, 1 << 10);
        let back = decode_ring(&ring);
        assert_eq!(back.dropped(), 0);
        let a: Vec<_> = t.iter().cloned().collect();
        let b: Vec<_> = back.iter().cloned().collect();
        assert_eq!(a, b, "decode(encode(t)) == t record-for-record");
    }

    #[test]
    fn wrapped_ring_reports_exact_drop_count() {
        // 8-record ring; write 20 single-record events: 12 dropped.
        let ring = FlatRing::new(0, 8);
        let mut w = ring.writer();
        for i in 0..20u32 {
            w.msg_recv(i as u64, i);
        }
        let back = decode_ring(&ring);
        assert_eq!(back.len(), 8);
        assert_eq!(back.dropped(), 12);
        assert_eq!(back.total(), 20);
        let latest: Vec<u64> = back.tail(2).iter().map(|(ts, _)| *ts).collect();
        assert_eq!(latest, [18, 19], "the oldest records are the ones lost");
    }

    #[test]
    fn wrap_through_a_package_chain_counts_orphans() {
        // The chain head is overwritten but two of its continuations
        // survive: the decoder discards the orphans and counts them as
        // dropped, so total() still reflects what the writer produced.
        let ring = FlatRing::new(0, 8);
        let mut w = ring.writer();
        w.pkg_send(0, 1, 0, &(0..30).collect::<Vec<_>>()); // 1 header + 5 objs
        for i in 0..6u32 {
            w.msg_recv(10 + i as u64, 100 + i);
        }
        // head = 12; the 8-slot ring keeps records 4..12: two orphan
        // continuation records, then the six singles.
        let back = decode_ring(&ring);
        assert_eq!(back.len(), 6, "only the six singles decode");
        assert_eq!(back.dropped(), 6, "4 overwritten + 2 orphan continuations");
        assert_eq!(back.total(), 12);
    }
}
