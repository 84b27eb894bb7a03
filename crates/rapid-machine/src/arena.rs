//! Per-processor fixed-capacity allocator with explicit free.
//!
//! The paper's active memory management allocates and recycles volatile
//! data-object space inside a fixed per-processor region so that remote
//! processors can deposit data with RMA at known offsets. This allocator
//! hands out offsets in *allocation units* (one unit = one `f64`) from an
//! address-ordered free list with coalescing, best fit: with the MAP
//! allocation pattern exact-size holes get reused and fragmentation stays
//! low. It also tracks the in-use peak so executors can report actual
//! memory behaviour.
//!
//! The MAP walks allocate and free tens of thousands of small blocks
//! against a free list of about a hundred, so both halves are kept cheap
//! at that scale: best fit stops at the first exact fit (nothing fits
//! tighter, and nothing before it is lower), and the live blocks are a
//! hash map from offset to length rather than a list kept sorted by
//! insertion. An ordered `(length, offset)` index for best fit was
//! measured slower than this scan on the benchmark's MAP walks.
//!
//! The paper's §6 observes that space freed from irregular structures
//! "usually contains many small pieces and is hard to be re-utilized" —
//! fragmentation statistics ([`Arena::largest_free`]) are exposed so the
//! benches can quantify the same effect.

use std::collections::HashMap;
use std::fmt;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// Not enough total free space for the request.
    OutOfMemory {
        /// Units requested.
        requested: u64,
        /// Units currently free (possibly fragmented).
        free: u64,
    },
    /// Enough total space, but no contiguous block fits (fragmentation).
    Fragmented {
        /// Units requested.
        requested: u64,
        /// Largest contiguous free block.
        largest: u64,
    },
    /// `free` called with an offset that is not an allocation start.
    BadFree(u64),
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArenaError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested} units, {free} free")
            }
            ArenaError::Fragmented { requested, largest } => write!(
                f,
                "fragmented: requested {requested} units, largest contiguous block {largest}"
            ),
            ArenaError::BadFree(off) => write!(f, "free of unallocated offset {off}"),
        }
    }
}

impl std::error::Error for ArenaError {}

/// Best-fit free-list allocator over `[0, capacity)` units with explicit
/// free.
#[derive(Clone, Debug)]
pub struct Arena {
    capacity: u64,
    /// Units at the bottom that were never this arena's to hand out.
    reserved: u64,
    /// Free blocks `(offset, len)`, sorted by offset, never adjacent.
    free: Vec<(u64, u64)>,
    /// Live allocations by offset.
    live: HashMap<u64, LiveAt>,
    in_use: u64,
    peak: u64,
}

impl Arena {
    /// New arena of `capacity` units, all free.
    pub fn new(capacity: u64) -> Self {
        Self::with_reserved(capacity, 0)
    }

    /// New arena whose lowest `reserved`
    /// units (at most `capacity`) are taken for good: a prefix laid out by
    /// someone else — the permanent objects, bump-allocated in id order —
    /// that counts as in use and is never freed. The same state as
    /// allocating the prefix block by block from a fresh arena, without a
    /// `live` entry per block.
    pub fn with_reserved(capacity: u64, reserved: u64) -> Self {
        let reserved = reserved.min(capacity);
        Arena {
            capacity,
            reserved,
            free: if capacity > reserved {
                vec![(reserved, capacity - reserved)]
            } else {
                Vec::new()
            },
            live: HashMap::new(),
            in_use: reserved,
            peak: reserved,
        }
    }

    /// Total capacity in units.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Units currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark of [`Arena::in_use`].
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Units currently free.
    pub fn free_units(&self) -> u64 {
        self.capacity - self.in_use
    }

    /// Largest contiguous free block.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    /// Allocate `len` units; returns the offset. A zero-length request
    /// never fails: it gets a zero-size block at the start of the block
    /// best fit picks, or at `capacity` when no block is free, so that its
    /// empty slice is in bounds either way. It occupies no space but must
    /// still be freed.
    pub fn alloc(&mut self, len: u64) -> Result<u64, ArenaError> {
        if len > self.free_units() {
            return Err(ArenaError::OutOfMemory { requested: len, free: self.free_units() });
        }
        if len == 0 && self.free.is_empty() {
            self.live.entry(self.capacity).or_default().push(0);
            return Ok(self.capacity);
        }
        // The smallest block that fits, the lowest offset among equals: an
        // exact fit cannot be beaten.
        let mut best: Option<(usize, u64)> = None;
        for (i, &(_, l)) in self.free.iter().enumerate() {
            if l >= len && best.is_none_or(|(_, b)| l < b) {
                best = Some((i, l));
                if l == len {
                    break;
                }
            }
        }
        let Some((i, _)) = best else {
            return Err(ArenaError::Fragmented { requested: len, largest: self.largest_free() });
        };
        let (off, blen) = self.free[i];
        if blen == len {
            self.free.remove(i);
        } else {
            self.free[i] = (off + len, blen - len);
        }
        self.live.entry(off).or_default().push(len);
        self.in_use += len;
        self.peak = self.peak.max(self.in_use);
        Ok(off)
    }

    /// Free the allocation starting at `off` (of several there, the
    /// oldest: zero-length blocks may share an offset).
    pub fn free(&mut self, off: u64) -> Result<(), ArenaError> {
        let at = self.live.get_mut(&off).ok_or(ArenaError::BadFree(off))?;
        let len = at.pop();
        if at.is_empty() {
            self.live.remove(&off);
        }
        self.in_use -= len;
        if len == 0 {
            return Ok(());
        }
        // Insert into the free list, coalescing with neighbours.
        let i = self.free.partition_point(|&(o, _)| o < off);
        let merge_prev = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == off;
        let merge_next = i < self.free.len() && off + len == self.free[i].0;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.free[i - 1].1 += len + self.free[i].1;
                self.free.remove(i);
            }
            (true, false) => self.free[i - 1].1 += len,
            (false, true) => {
                self.free[i].0 = off;
                self.free[i].1 += len;
            }
            (false, false) => self.free.insert(i, (off, len)),
        }
        Ok(())
    }

    /// Internal consistency check (tests): free and live blocks partition
    /// `[reserved, capacity)` with no overlap, free blocks sorted and
    /// coalesced.
    pub fn check_invariants(&self) -> bool {
        let mut spans: Vec<(u64, u64, bool)> = self
            .free
            .iter()
            .map(|&(o, l)| (o, l, true))
            .chain(self.live.iter().filter(|(_, at)| at.len > 0).map(|(&o, at)| (o, at.len, false)))
            .collect();
        spans.sort_unstable();
        let mut cursor = self.reserved;
        let mut prev_free = false;
        for &(o, l, is_free) in &spans {
            if o != cursor {
                return false;
            }
            if is_free && prev_free {
                return false; // uncoalesced adjacent free blocks
            }
            cursor = o + l;
            prev_free = is_free;
        }
        cursor == self.capacity
            && self.in_use == self.reserved + self.live.values().map(|at| at.len).sum::<u64>()
    }
}

/// The live blocks starting at one offset, in allocation order. Blocks
/// of positive length never overlap, so there is at most one here; any
/// number of zero-length blocks may sit before or after it.
#[derive(Clone, Copy, Debug, Default)]
struct LiveAt {
    zeros_before: u32,
    /// Length of the sized block, 0 when there is none.
    len: u64,
    zeros_after: u32,
}

impl LiveAt {
    fn push(&mut self, len: u64) {
        match (len, self.len) {
            (0, 0) => self.zeros_before += 1,
            (0, _) => self.zeros_after += 1,
            _ => self.len = len,
        }
    }

    /// Take the oldest block out; its length.
    fn pop(&mut self) -> u64 {
        if self.zeros_before > 0 {
            self.zeros_before -= 1;
            return 0;
        }
        self.zeros_before = std::mem::take(&mut self.zeros_after);
        std::mem::take(&mut self.len)
    }

    fn is_empty(&self) -> bool {
        self.zeros_before == 0 && self.len == 0 && self.zeros_after == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = Arena::new(100);
        let x = a.alloc(30).unwrap();
        let y = a.alloc(30).unwrap();
        let z = a.alloc(40).unwrap();
        assert_eq!((x, y, z), (0, 30, 60));
        assert_eq!(a.in_use(), 100);
        assert!(matches!(a.alloc(1), Err(ArenaError::OutOfMemory { .. })));
        a.free(y).unwrap();
        assert_eq!(a.alloc(30).unwrap(), 30);
        assert!(a.check_invariants());
        assert_eq!(a.peak(), 100);
    }

    #[test]
    fn coalescing() {
        let mut a = Arena::new(90);
        let x = a.alloc(30).unwrap();
        let y = a.alloc(30).unwrap();
        let z = a.alloc(30).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        assert_eq!(a.largest_free(), 30);
        a.free(y).unwrap();
        // All three blocks must merge back into one.
        assert_eq!(a.largest_free(), 90);
        assert!(a.check_invariants());
    }

    #[test]
    fn fragmentation_detected() {
        let mut a = Arena::new(100);
        let mut offs = Vec::new();
        for _ in 0..10 {
            offs.push(a.alloc(10).unwrap());
        }
        // Free every other block: 50 units free but largest block is 10.
        for i in (0..10).step_by(2) {
            a.free(offs[i]).unwrap();
        }
        assert_eq!(a.free_units(), 50);
        assert_eq!(a.largest_free(), 10);
        match a.alloc(20) {
            Err(ArenaError::Fragmented { requested: 20, largest: 10 }) => {}
            other => panic!("expected fragmentation, got {other:?}"),
        }
        assert!(a.check_invariants());
    }

    #[test]
    fn reserved_prefix_is_the_state_block_by_block_allocation_leaves() {
        // Permanents of sizes 3, 0, 4 bump-allocated from a fresh arena
        // against one reserved prefix of 7: every later answer agrees.
        let mut a = Arena::new(20);
        for len in [3, 0, 4] {
            a.alloc(len).unwrap();
        }
        let mut b = Arena::with_reserved(20, 7);
        assert_eq!((b.in_use(), b.peak()), (7, 7));
        let x = (a.alloc(5).unwrap(), b.alloc(5).unwrap());
        assert_eq!(x, (7, 7));
        assert_eq!(a.alloc(6), b.alloc(6));
        a.free(x.0).unwrap();
        b.free(x.1).unwrap();
        assert_eq!((a.alloc(2), b.alloc(2)), (Ok(18), Ok(18)));
        assert_eq!(a.alloc(4), b.alloc(4));
        assert_eq!((a.in_use(), a.peak()), (b.in_use(), b.peak()));
        assert_eq!(a.largest_free(), b.largest_free());
        assert!(b.check_invariants());
        assert_eq!(b.free(0), Err(ArenaError::BadFree(0)), "the prefix is not an allocation");
        let full = Arena::with_reserved(4, 9);
        assert_eq!((full.in_use(), full.free_units(), full.largest_free()), (4, 0, 0));
    }

    #[test]
    fn directional_coalescing() {
        // Free blocks must merge with a left-only neighbour, a right-only
        // neighbour, and both at once — each case leaves a single block.
        let mut a = Arena::new(60);
        let x = a.alloc(20).unwrap(); // 0..20
        let y = a.alloc(20).unwrap(); // 20..40
        let z = a.alloc(20).unwrap(); // 40..60
        a.free(x).unwrap();
        a.free(y).unwrap(); // merges right block into left hole
        assert_eq!(a.largest_free(), 40);
        assert_eq!(a.free_units(), 40);
        let w = a.alloc(40).unwrap(); // refill 0..40
        a.free(z).unwrap();
        a.free(w).unwrap(); // merges left block into right hole
        assert_eq!(a.largest_free(), 60);
        assert!(a.check_invariants());
    }

    #[test]
    fn fragmentation_clears_after_coalesce() {
        // A Fragmented failure is transient: freeing a neighbour of an
        // existing hole coalesces enough room and the same request
        // succeeds.
        let mut a = Arena::new(40);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        let z = a.alloc(10).unwrap();
        let _pin = a.alloc(10).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        assert!(matches!(a.alloc(20), Err(ArenaError::Fragmented { requested: 20, largest: 10 })));
        a.free(y).unwrap();
        assert_eq!(a.alloc(20).unwrap(), 0);
        assert!(a.check_invariants());
    }

    #[test]
    fn accounting() {
        let mut a = Arena::new(50);
        let x = a.alloc(20).unwrap();
        a.alloc(5).unwrap();
        assert_eq!(a.in_use() + a.free_units(), a.capacity());
        a.free(x).unwrap();
        assert_eq!(a.free(x), Err(ArenaError::BadFree(x)), "freed offset no longer live");
        assert_eq!(a.in_use() + a.free_units(), a.capacity());
        assert_eq!(a.peak(), 25, "peak keeps the high-water mark after frees");
    }

    #[test]
    fn bad_free_rejected() {
        let mut a = Arena::new(10);
        let x = a.alloc(5).unwrap();
        assert_eq!(a.free(x + 1), Err(ArenaError::BadFree(x + 1)));
        a.free(x).unwrap();
        assert_eq!(a.free(x), Err(ArenaError::BadFree(x)));
    }

    #[test]
    fn zero_len_allocations() {
        let mut a = Arena::new(4);
        let z = a.alloc(0).unwrap();
        assert_eq!(a.in_use(), 0);
        let x = a.alloc(4).unwrap();
        a.free(z).unwrap();
        a.free(x).unwrap();
        assert!(a.check_invariants());
        assert_eq!(a.free_units(), 4);
    }

    #[test]
    fn a_zero_len_allocation_fits_a_full_arena() {
        // No block is free: the empty block goes at the end, where its
        // empty slice is still in bounds, and frees like any other.
        let mut a = Arena::with_reserved(4, 1);
        let x = a.alloc(3).unwrap();
        assert_eq!(a.largest_free(), 0);
        assert_eq!(a.alloc(0), Ok(4));
        assert_eq!(a.alloc(0), Ok(4));
        a.free(4).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.alloc(0), Ok(1), "a free block takes it again");
        a.free(4).unwrap();
        assert_eq!(a.free(4), Err(ArenaError::BadFree(4)));
        assert!(a.check_invariants());
        let mut empty = Arena::new(0);
        assert_eq!(empty.alloc(0), Ok(0));
    }

    #[test]
    fn zero_len_blocks_sharing_an_offset_free_oldest_first() {
        // A zero-length block sits at the start of the smallest free
        // block, so a sized block can land on the same offset; `free`
        // releases the oldest block there.
        let mut a = Arena::new(10);
        let (z, x) = (a.alloc(0).unwrap(), a.alloc(4).unwrap());
        assert_eq!((z, x, a.in_use()), (0, 0, 4));
        a.free(0).unwrap(); // the zero-length block: the sized one stays
        assert_eq!((a.in_use(), a.largest_free()), (4, 6));
        assert_eq!(a.alloc(3), Ok(4));

        let mut b = Arena::new(10);
        let offs: Vec<u64> = [2, 0, 0, 3].iter().map(|&len| b.alloc(len).unwrap()).collect();
        assert_eq!(offs, [0, 2, 2, 2]);
        for want in [(5, 5), (5, 5), (2, 8)] {
            b.free(2).unwrap();
            assert_eq!((b.in_use(), b.largest_free()), want);
            assert!(b.check_invariants());
        }
        assert_eq!(b.free(2), Err(ArenaError::BadFree(2)));
    }

    /// The arena as it was before its live blocks were hashed and its
    /// best fit stopped at an exact fit: a full scan for best fit and a
    /// sorted list of live blocks. The oracle of the test below.
    struct ScanArena {
        capacity: u64,
        free: Vec<(u64, u64)>,
        live: Vec<(u64, u64)>,
        in_use: u64,
        peak: u64,
    }

    impl ScanArena {
        fn new(capacity: u64, reserved: u64) -> Self {
            let reserved = reserved.min(capacity);
            let free =
                if capacity > reserved { vec![(reserved, capacity - reserved)] } else { vec![] };
            ScanArena { capacity, free, live: vec![], in_use: reserved, peak: reserved }
        }

        fn largest_free(&self) -> u64 {
            self.free.iter().map(|&(_, l)| l).max().unwrap_or(0)
        }

        fn alloc(&mut self, len: u64) -> Result<u64, ArenaError> {
            let free_units = self.capacity - self.in_use;
            if len > free_units {
                return Err(ArenaError::OutOfMemory { requested: len, free: free_units });
            }
            if len == 0 && self.free.is_empty() {
                let pos = self.live.partition_point(|&(o, _)| o <= self.capacity);
                self.live.insert(pos, (self.capacity, 0));
                return Ok(self.capacity);
            }
            let fits = self.free.iter().enumerate().filter(|&(_, &(_, l))| l >= len);
            let Some(i) = fits.min_by_key(|&(_, &(_, l))| l).map(|(i, _)| i) else {
                return Err(ArenaError::Fragmented {
                    requested: len,
                    largest: self.largest_free(),
                });
            };
            let (off, blen) = self.free[i];
            if blen == len {
                self.free.remove(i);
            } else {
                self.free[i] = (off + len, blen - len);
            }
            let pos = self.live.partition_point(|&(o, _)| o < off);
            self.live.insert(pos, (off, len));
            self.in_use += len;
            self.peak = self.peak.max(self.in_use);
            Ok(off)
        }

        fn free(&mut self, off: u64) -> Result<(), ArenaError> {
            let pos = self
                .live
                .binary_search_by_key(&off, |&(o, _)| o)
                .map_err(|_| ArenaError::BadFree(off))?;
            let (_, len) = self.live.remove(pos);
            self.in_use -= len;
            if len > 0 {
                let i = self.free.partition_point(|&(o, _)| o < off);
                self.free.insert(i, (off, len));
                if i + 1 < self.free.len() && off + len == self.free[i + 1].0 {
                    self.free[i].1 += self.free.remove(i + 1).1;
                }
                if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == off {
                    self.free[i - 1].1 += self.free.remove(i).1;
                }
            }
            Ok(())
        }
    }

    #[test]
    fn every_answer_is_the_full_scans() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut rng = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut hits, mut misses) = (0, 0);
        for round in 0..200 {
            let (cap, reserved) = (50 + rng(400), rng(40));
            let mut a = Arena::with_reserved(cap, reserved);
            let mut b = ScanArena::new(cap, reserved);
            let mut offs: Vec<u64> = Vec::new();
            for _ in 0..400 {
                let op = rng(5);
                if op < 3 {
                    // Mostly small blocks, some zero-length, a few large.
                    let len = if rng(10) == 0 { rng(60) } else { rng(5) };
                    let got = a.alloc(len);
                    assert_eq!(got, b.alloc(len), "round {round}");
                    offs.extend(got.ok());
                } else if op == 3 || offs.is_empty() {
                    // An arbitrary offset: a live block's start, or a bad free.
                    let off = rng(cap);
                    let got = a.free(off);
                    assert_eq!(got, b.free(off), "round {round}");
                    if got.is_ok() {
                        offs.swap_remove(offs.iter().position(|&o| o == off).unwrap());
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                } else {
                    let off = offs.swap_remove(rng(offs.len() as u64) as usize);
                    assert_eq!(a.free(off), b.free(off), "round {round}");
                }
                assert_eq!((a.in_use(), a.peak()), (b.in_use, b.peak), "round {round}");
                assert_eq!(a.largest_free(), b.largest_free(), "round {round}");
            }
            assert!(a.check_invariants(), "round {round}");
        }
        // Arbitrary frees must land on live blocks as well as miss.
        assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
    }

    #[test]
    fn best_fit_reuses_exact_holes() {
        // Free a 10-unit hole between live blocks; best fit must place
        // the next 10-unit request there, not in the lower 30-unit block.
        // Layout: a 30-unit free block at 0 and an exact 10-unit hole at
        // 35, separated by live pins so nothing coalesces.
        let mut a = Arena::new(100);
        let x = a.alloc(30).unwrap(); // 0..30
        let _p1 = a.alloc(5).unwrap(); // 30..35
        let h = a.alloc(10).unwrap(); // 35..45
        let _p2 = a.alloc(5).unwrap(); // 45..50
        a.free(x).unwrap();
        a.free(h).unwrap();
        assert_eq!(a.alloc(10).unwrap(), 35, "best fit takes the exact 10-unit hole");
        assert!(a.check_invariants());
    }

    #[test]
    fn randomized_invariants() {
        // Deterministic pseudo-random alloc/free storm.
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut a = Arena::new(1000);
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..2000 {
            if rng() % 2 == 0 {
                let len = rng() % 50;
                if let Ok(off) = a.alloc(len) {
                    live.push(off);
                }
            } else if !live.is_empty() {
                let i = (rng() % live.len() as u64) as usize;
                a.free(live.swap_remove(i)).unwrap();
            }
            assert!(a.check_invariants());
        }
        for off in live {
            a.free(off).unwrap();
        }
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.largest_free(), 1000);
    }
}
