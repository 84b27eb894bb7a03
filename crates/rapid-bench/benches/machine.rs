//! Microbenches for the machine substrate: arena allocation storms and
//! address-mailbox round-trips.

use rapid_bench::timing::bench;
use rapid_machine::arena::Arena;
use rapid_machine::mailbox::{AddrEntry, AddrSlot};
use std::hint::black_box;

fn main() {
    bench("arena/alloc-free-storm", &mut || {
        let mut a = Arena::new(1 << 16);
        let mut live = Vec::with_capacity(128);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..1024 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !x.is_multiple_of(3) || live.is_empty() {
                if let Ok(off) = a.alloc(1 + x % 200) {
                    live.push(off);
                }
            } else {
                let i = (x % live.len() as u64) as usize;
                a.free(live.swap_remove(i)).unwrap();
            }
        }
        black_box(a.peak());
    });
    bench("arena/uniform-recycle", &mut || {
        // The MAP pattern: same sizes come back repeatedly.
        let mut a = Arena::new(1 << 14);
        for _ in 0..256 {
            let x = a.alloc(64).unwrap();
            let y = a.alloc(64).unwrap();
            a.free(x).unwrap();
            let z = a.alloc(64).unwrap();
            a.free(y).unwrap();
            a.free(z).unwrap();
        }
        black_box(a.largest_free());
    });

    let slot = AddrSlot::new();
    let mut pkg = Vec::new();
    let mut buf = Vec::new();
    bench("mailbox/send-take-roundtrip", &mut || {
        pkg.push(AddrEntry { obj: 1, offset: 64 });
        assert!(slot.try_send_from(&mut pkg));
        buf.clear();
        assert!(slot.take_into(&mut buf));
        black_box(&buf);
    });
}
