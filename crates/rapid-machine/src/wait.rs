//! How a blocked worker waits: it spins, then yields against a time budget,
//! then parks until the peer that ends the wait unparks it.
//!
//! The five-state protocol blocks on three things, each made to happen by
//! one other worker: an arrival flag raised toward this processor (REC), an
//! address package handed to it (the suspended queue in SND / END), and its
//! own package drained from a peer's slot (MAP, END). In the paper a blocked
//! T3D processor never sleeps, it loops through RA and CQ; a worker thread
//! must give its core to a runnable peer sooner or later, and what it costs
//! is how long it stays away after the event. [`Wait`] escalates through
//! three tiers:
//!
//! 1. a short run of [`core::hint::spin_loop`] hints, counted and not timed:
//!    a wait that ends here reads no clock at all;
//! 2. [`std::thread::yield_now`] until [`YIELD_BUDGET`] has passed since the
//!    wait left the spin tier (a runnable peer takes the core, otherwise the
//!    worker stays on it and keeps polling);
//! 3. a park that the event ends: the worker announces itself in its
//!    [`Sleepers`] cell, looks once more, and parks; whoever makes one of the
//!    three events happen — or poisons the run — checks that cell and
//!    unparks it.
//!
//! The timestamp taken on leaving the spin tier is the wait's only clock: it
//! times the yield budget and it is what a stall watchdog reads
//! ([`Wait::waited`]). Progress ([`Wait::reset`]) forgets it, so a run of
//! tasks that never blocks never reads the clock for its waits.
//!
//! ## The handshake
//!
//! A park that only its event ends must not miss the event. Sleeper and
//! waker each write one word and then read the other's, with a `SeqCst`
//! fence in between (Dekker's pattern):
//!
//! - sleeper ([`Sleepers::arm`]): store `ASLEEP`, fence, look for the event;
//! - waker ([`Sleepers::claim`]): make the event visible, fence, load the
//!   sleeper word.
//!
//! One of the two fences comes first in the single order of `SeqCst`
//! fences, and the thread of the other one then reads what was written
//! before it: either the sleeper sees the event and does not park, or the
//! waker sees `ASLEEP` and unparks. Wake-ups are hints all the same, exactly
//! as the worker pool treats them: every park ends after [`PARK_BOUND`] at
//! the latest, so a waiting worker keeps running RA and CQ (Theorem 1) and
//! keeps looking at its watchdog, and waits that no peer ends (an injected
//! rejection) only ever cost that bound.
//!
//! ## The one constant
//!
//! How long to yield before parking is a ski-rental choice, and the price of
//! a park and its wake-up is some tens of microseconds. With a park that the
//! event ends the choice hardly matters: on `irregular-tight` (50k near-empty
//! tasks, two workers) budgets of 50 / 100 / 200 µs gave `exec_s` medians of
//! 0.055 / 0.049 / 0.051 s over five processes each, where single processes
//! spread from 0.040 to 0.063 s — against 0.13 s for the count-based spin →
//! yield → 50 µs nap this replaces, and 0.037 s for never parking at all.
//! With naps that nobody ends the budget decides the run time (50 / 200 /
//! 1000 µs in front of 50 µs naps: 0.064 / 0.041 / 0.038 s in the issue's
//! prototype), which is why the wake is explicit and the budget a constant,
//! not a setting.

// sync-audit: the sleeper word is stored and loaded `Relaxed`; what orders
// it against the awaited event is the `SeqCst` fence each side issues
// between its write and its read (see "The handshake"). The word publishes
// nothing: a stale read costs one bounded park or one spurious unpark. The
// shipping type — not a transcription — is explored exhaustively with one
// sleeper and one waker by `rapid-machine/tests/wait_model.rs`, which also
// refutes `wait-wake-no-fence` and `wait-sleep-no-recheck`.

use rapid_sync::{sync_fence, Ordering, SyncAtomicU32};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Rounds of the spin tier; round `i` is `2^i` spin hints (63 in all).
const SPIN_ROUNDS: u32 = 6;
/// How long a wait yields, from leaving the spin tier, before it parks (see
/// "The one constant" in the module docs).
pub const YIELD_BUDGET: Duration = Duration::from_micros(50);
/// The longest a park lasts when nobody ends it.
pub const PARK_BOUND: Duration = Duration::from_millis(1);

const AWAKE: u32 = 0;
const ASLEEP: u32 = 1;

/// The two halves of the handshake a mutant can break. Production code
/// always runs [`Handshake::GOOD`].
#[derive(Clone, Copy, Debug)]
pub struct Handshake {
    /// The waker's fence between making the event visible and loading the
    /// sleeper word.
    pub wake_fence: Ordering,
    /// Does a sleeper look for the event again after announcing itself?
    pub recheck: bool,
}

impl Handshake {
    /// The handshake that loses no wake-up.
    pub const GOOD: Handshake = Handshake { wake_fence: Ordering::SeqCst, recheck: true };
}

/// One processor's sleeper word, on a cache line of its own (two, for the
/// adjacent-line prefetcher): wakers read it after every event they cause,
/// and must not take the line of another processor's word with it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct SleepCell {
    asleep: SyncAtomicU32,
    /// The worker to unpark, set by the worker itself before it first waits
    /// and locked only by a waker that has claimed a sleep.
    thread: Mutex<Option<Thread>>,
}

/// The sleeper cells of a machine's processors. Every method but
/// [`Sleepers::sleep`] is one non-blocking step, so the workers and the
/// model checker drive the same code.
#[derive(Debug)]
pub struct Sleepers {
    cells: Box<[SleepCell]>,
    hs: Handshake,
}

impl Sleepers {
    /// Cells for `nprocs` processors, all awake.
    pub fn new(nprocs: usize) -> Self {
        Sleepers { cells: (0..nprocs).map(|_| SleepCell::default()).collect(), hs: Handshake::GOOD }
    }

    /// Cells with one half of the handshake broken — for the model
    /// checker's mutants only, hence absent from plain release builds.
    #[cfg(any(debug_assertions, rapid_model_check))]
    #[doc(hidden)]
    pub fn with_handshake(nprocs: usize, hs: Handshake) -> Self {
        Sleepers { hs, ..Sleepers::new(nprocs) }
    }

    /// Sleeper `p`: announce the park, then look for the event once more.
    /// `true` means nothing was seen and the caller parks; on `false` the
    /// announcement is already withdrawn.
    pub fn arm(&self, p: usize, event: impl FnOnce() -> bool) -> bool {
        self.cells[p].asleep.store(ASLEEP, Ordering::Relaxed);
        sync_fence(Ordering::SeqCst);
        if self.hs.recheck && event() {
            self.disarm(p);
            return false;
        }
        true
    }

    /// Sleeper `p`: awake again, whatever ended the park.
    fn disarm(&self, p: usize) {
        self.cells[p].asleep.store(AWAKE, Ordering::Relaxed);
    }

    /// Waker, after making an event `p` may be waiting for visible: does
    /// `p` need an unpark, and is this caller the one to give it? (Of
    /// several wakers of one sleep, one claims it.)
    pub fn claim(&self, p: usize) -> bool {
        sync_fence(self.hs.wake_fence);
        let word = &self.cells[p].asleep;
        word.load(Ordering::Relaxed) == ASLEEP
            && word.compare_exchange(ASLEEP, AWAKE, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    }

    /// Waker: [`Sleepers::claim`], and the unpark it asks for.
    #[inline]
    pub fn wake(&self, p: usize) {
        if self.claim(p) {
            let thread = self.cells[p].thread.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(thread) = thread.as_ref() {
                thread.unpark();
            }
        }
    }

    /// Wake every processor (the run is poisoned: whatever they wait for
    /// may never come).
    pub fn wake_all(&self) {
        (0..self.cells.len()).for_each(|p| self.wake(p));
    }

    /// Sleeper `p`, on the thread [`Wait::new`] registered: park until a
    /// waker unparks it or `bound` has passed, unless `event` has already
    /// happened (`false`: it had, and the thread did not park). A park
    /// returns early for no reason now and then, as parks do.
    pub fn sleep(&self, p: usize, bound: Duration, event: impl FnOnce() -> bool) -> bool {
        let parks = self.arm(p, event);
        if parks {
            std::thread::park_timeout(bound);
            self.disarm(p);
        }
        parks
    }
}

/// One worker's wait for something only a peer can make happen (see the
/// module docs). The worker polls; between two polls that found nothing it
/// calls [`Wait::pause`], and after one that found something,
/// [`Wait::reset`].
#[derive(Debug)]
pub struct Wait<'s> {
    sleepers: &'s Sleepers,
    p: usize,
    spins: u32,
    /// When this wait left the spin tier; `None` while it spins.
    since: Option<Instant>,
}

impl<'s> Wait<'s> {
    /// The waits of processor `p`, whose worker is the calling thread.
    pub fn new(sleepers: &'s Sleepers, p: usize) -> Self {
        *sleepers.cells[p].thread.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(std::thread::current());
        Wait { sleepers, p, spins: 0, since: None }
    }

    /// Progress was seen: the next pause starts a new wait.
    #[inline]
    pub fn reset(&mut self) {
        self.spins = 0;
        self.since = None;
    }

    /// How long this wait has lasted, counted from when it left the spin
    /// tier (zero, and no clock read, before that).
    #[inline]
    pub fn waited(&self) -> Duration {
        self.since.map_or(Duration::ZERO, |since| since.elapsed())
    }

    /// Pause once, escalating the tier. `last_look` runs whenever the
    /// worker is about to give its core away — once when the wait starts
    /// to yield and, with the worker already announced as a sleeper, before
    /// every park: it polls once more what the worker waits for. `true`
    /// from it means something moved; the wait starts over instead.
    pub fn pause(&mut self, mut last_look: impl FnMut() -> bool) {
        if self.spins < SPIN_ROUNDS {
            for _ in 0..(1u32 << self.spins) {
                core::hint::spin_loop();
            }
            self.spins += 1;
            return;
        }
        let since = match self.since {
            Some(since) => since,
            None if last_look() => return self.reset(),
            None => *self.since.insert(Instant::now()),
        };
        if since.elapsed() < YIELD_BUDGET {
            std::thread::yield_now();
            return;
        }
        if !self.sleepers.sleep(self.p, PARK_BOUND, last_look) {
            self.reset();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rma::FlagBoard;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering as AtOrd};

    /// Far beyond any wake-up latency: a sleep that returns well inside it
    /// was ended by its waker, not by its bound.
    const LONG: Duration = Duration::from_secs(20);

    /// Park processor 0 of `sleepers` on `event` for at most [`LONG`], run
    /// `waker` once it is asleep, and return how long the sleep lasted.
    pub(crate) fn parked_until(
        sleepers: &Sleepers,
        event: impl Fn() -> bool + Sync,
        waker: impl FnOnce(),
    ) -> Duration {
        std::thread::scope(|s| {
            let sleeper = s.spawn(|| {
                let _registered = Wait::new(sleepers, 0);
                let t0 = Instant::now();
                while !event() && t0.elapsed() < LONG {
                    sleepers.sleep(0, LONG, &event);
                }
                t0.elapsed()
            });
            while sleepers.cells[0].asleep.load(Ordering::Relaxed) != ASLEEP {
                std::thread::yield_now();
            }
            waker();
            sleeper.join().expect("the sleeper does not panic")
        })
    }

    #[test]
    fn a_raised_flag_and_a_wake_end_the_park() {
        let sleepers = Sleepers::new(2);
        let flags = FlagBoard::new(1);
        let slept = parked_until(
            &sleepers,
            || flags.is_raised(0),
            || {
                flags.raise(0);
                sleepers.wake(0);
            },
        );
        assert!(slept < LONG / 4, "woken by the event, not by the bound: {slept:?}");
    }

    #[test]
    fn poison_wakes_every_sleeper() {
        let sleepers = Sleepers::new(3);
        let poison = AtomicBool::new(false);
        let slept = parked_until(
            &sleepers,
            || poison.load(AtOrd::Acquire),
            || {
                poison.store(true, AtOrd::Release);
                sleepers.wake_all();
            },
        );
        assert!(slept < LONG / 4, "woken by the poison, not by the bound: {slept:?}");
    }

    #[test]
    fn an_event_that_already_happened_is_seen_on_the_last_look() {
        let sleepers = Sleepers::new(1);
        let _registered = Wait::new(&sleepers, 0);
        let t0 = Instant::now();
        assert!(!sleepers.sleep(0, LONG, || true), "seen on the last look: no park");
        assert!(t0.elapsed() < LONG / 4);
        assert!(!sleepers.claim(0), "the announcement was withdrawn");
    }

    #[test]
    fn one_waker_of_several_claims_a_sleep() {
        let sleepers = Sleepers::new(1);
        assert!(!sleepers.claim(0), "nobody is asleep");
        assert!(sleepers.arm(0, || false));
        assert!(sleepers.claim(0));
        assert!(!sleepers.claim(0), "already claimed");
    }

    #[test]
    fn an_unended_park_is_bounded() {
        let sleepers = Sleepers::new(1);
        let mut wait = Wait::new(&sleepers, 0);
        let t0 = Instant::now();
        while wait.waited() < 5 * PARK_BOUND {
            wait.pause(|| false);
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn the_tiers_escalate_and_progress_starts_over() {
        let sleepers = Sleepers::new(1);
        let mut wait = Wait::new(&sleepers, 0);
        let looks = AtomicU32::new(0);
        let look = || {
            looks.fetch_add(1, AtOrd::Relaxed);
            false
        };
        for _ in 0..SPIN_ROUNDS {
            wait.pause(look);
            assert_eq!(wait.waited(), Duration::ZERO, "the spin tier reads no clock");
        }
        assert_eq!(looks.load(AtOrd::Relaxed), 0, "spinning keeps the core");
        wait.pause(look);
        assert_eq!(looks.load(AtOrd::Relaxed), 1, "one last look before the first yield");
        while looks.load(AtOrd::Relaxed) == 1 {
            wait.pause(look);
        }
        assert!(wait.waited() >= YIELD_BUDGET, "none while yielding");
        assert_eq!(looks.load(AtOrd::Relaxed), 2, "and one, announced, before the park");
        wait.reset();
        assert_eq!(wait.waited(), Duration::ZERO);
        // A last look that finds something starts the wait over.
        for _ in 0..SPIN_ROUNDS {
            wait.pause(|| unreachable!("spinning"));
        }
        wait.pause(|| true);
        assert_eq!(wait.waited(), Duration::ZERO);
        wait.pause(|| unreachable!("back in the spin tier"));
    }
}
