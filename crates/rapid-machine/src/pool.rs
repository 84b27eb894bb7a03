//! The persistent worker pool behind the threaded executor.
//!
//! An executor's schedule is built once and run many times, so the threads
//! that run it are kept too: [`WorkerPool::start`] spawns one floating
//! (unpinned) thread per worker, [`WorkerPool::run`] hands one job to all
//! of them, sleeps, and returns when every thread has left the job, and
//! dropping the pool sends them home. Between jobs a pool thread yields
//! for [`IDLE_YIELD`] — a back-to-back run finds it awake — and then
//! parks, so an idle executor costs no CPU.
//!
//! The caller does not take a share of the job itself. Measured on the
//! cold path (pool built, used once, dropped) against a caller that doubles
//! as worker 0, the sleeping caller was the faster of the two and the only
//! one at parity with `thread::scope`: a caller that keeps its core busy
//! leaves a freshly spawned thread to a core that has to be woken first.
//!
//! ## The hand-off
//!
//! [`Dispatch`] is the whole cross-thread protocol, three words:
//!
//! - `job`: the current job (or `None` for shut-down), a plain cell;
//! - `generation`: bumped by the caller *after* writing `job`, with
//!   `Release`; a pool thread that `Acquire`-loads a generation it has not
//!   served yet may read `job`;
//! - `done`: bumped by each pool thread *after* its last access through the
//!   job, with `Release`; a caller that `Acquire`-loads `generation × threads`
//!   knows every thread has left the job, sees everything the job wrote, and
//!   may let the job's borrows die and overwrite `job`.
//!
//! Both counters only grow, so nothing is reset between jobs. Wake-ups are
//! not part of the protocol, only hints to look at the counters again: the
//! caller unparks the pool threads after the bump and each pool thread
//! unparks the caller after its own (a park token set before the thread
//! parks makes that park return at once), and both sides re-check the
//! counter around every park.

// sync-audit: `Dispatch` publishes the job with a Release `fetch_add` on
// `generation` (Acquire-loaded in `poll`) and the job's effects with a
// Release `fetch_add` on `done` (Acquire-loaded in `all_done`). The shipping
// type itself — not a transcription — is explored exhaustively with one
// caller, two pool threads and two generations by
// `rapid-machine/tests/pool_model.rs`, which also refutes both weakenings
// (`pool-publish-relaxed`, `pool-complete-relaxed`).

use rapid_sync::{Ordering, SyncAtomicU64, SyncCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long an idle pool thread keeps yielding before it parks. Long enough
/// that the next of a series of short runs finds it awake, short enough that
/// it is gone before single-threaded work that follows a run notices.
pub const IDLE_YIELD: Duration = Duration::from_micros(100);

/// A borrowed `dyn Fn(usize) + Sync` with its lifetime erased, so that it
/// can cross to threads that outlive the borrow. Whoever erases it answers
/// for the referent staying alive until the last call through it returns.
#[derive(Clone, Copy, Debug)]
pub struct Job(NonNull<dyn Fn(usize) + Sync>);

// SAFETY: a `Job` is a shared reference to a `Sync` closure in all but
// lifetime, and `&T` is `Send` for `T: Sync`.
unsafe impl Send for Job {}

// The dispatch cell is replayed by the model checker as a 16-byte image.
const _: () = assert!(std::mem::size_of::<Option<Job>>() == 16);

impl Job {
    /// Erase the lifetime of `f`.
    ///
    /// # Safety
    /// `f` must stay alive, and must not be moved, until every
    /// [`Job::call`] through the result (and through its copies) has
    /// returned.
    pub unsafe fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> Job {
        let ptr: NonNull<dyn Fn(usize) + Sync + 'a> = NonNull::from(f);
        // SAFETY: the two types differ only in the trait object's lifetime
        // bound, which has no run-time representation.
        Job(unsafe {
            std::mem::transmute::<
                NonNull<dyn Fn(usize) + Sync + 'a>,
                NonNull<dyn Fn(usize) + Sync + 'static>,
            >(ptr)
        })
    }

    /// Call the job as worker `index`.
    ///
    /// # Safety
    /// The closure this job was erased from must still be alive.
    pub unsafe fn call(self, index: usize) {
        // SAFETY: the caller vouches for the referent; it is only ever
        // used as the shared reference it was made from.
        (unsafe { self.0.as_ref() })(index)
    }
}

/// The `Release` sides of the hand-off. Production code always runs
/// [`HandoffOrd::GOOD`]; the model checker's mutants weaken one side each.
#[derive(Clone, Copy, Debug)]
pub struct HandoffOrd {
    /// The caller's `generation` bump after writing the job.
    pub publish: Ordering,
    /// A pool thread's `done` bump after leaving the job.
    pub complete: Ordering,
}

impl HandoffOrd {
    /// The orderings the protocol is correct under.
    pub const GOOD: HandoffOrd =
        HandoffOrd { publish: Ordering::Release, complete: Ordering::Release };
}

/// The dispatch cell: one job slot, a generation counter and a completion
/// counter (see the module docs). Every method is one non-blocking step, so
/// the pool's threads and the model checker drive the same code.
#[derive(Debug)]
pub struct Dispatch {
    generation: SyncAtomicU64,
    done: SyncAtomicU64,
    job: SyncCell<Option<Job>>,
    ord: HandoffOrd,
}

impl Default for Dispatch {
    fn default() -> Self {
        Dispatch::new()
    }
}

impl Dispatch {
    /// An idle cell: generation 0, nothing published.
    pub fn new() -> Self {
        Dispatch {
            generation: SyncAtomicU64::new(0),
            done: SyncAtomicU64::new(0),
            job: SyncCell::new(None),
            ord: HandoffOrd::GOOD,
        }
    }

    /// A cell with one side of the hand-off weakened — for the model
    /// checker's mutants only, hence absent from plain release builds.
    #[cfg(any(debug_assertions, rapid_model_check))]
    #[doc(hidden)]
    pub fn with_orderings(ord: HandoffOrd) -> Self {
        Dispatch { ord, ..Dispatch::new() }
    }

    /// Caller: publish `job` (`None` = shut down) as the next generation
    /// and return that generation's number.
    ///
    /// # Safety
    /// One caller at a time, and every thread polling this cell must have
    /// completed the previous generation ([`Dispatch::all_done`]).
    pub unsafe fn publish(&self, job: Option<Job>) -> u64 {
        // SAFETY: per the contract nobody is between `poll` and `complete`,
        // so no thread reads the cell while it is written.
        unsafe { self.job.write(job) };
        self.generation.fetch_add(1, self.ord.publish) + 1
    }

    /// Pool thread: if a generation newer than `*seen` has been published,
    /// record it and return its job.
    pub fn poll(&self, seen: &mut u64) -> Option<Option<Job>> {
        let generation = self.generation.load(Ordering::Acquire);
        if generation == *seen {
            return None;
        }
        *seen = generation;
        // SAFETY: the Acquire load above saw the bump that follows the
        // write of this generation's job, and the caller does not write the
        // cell again before this thread's `complete`.
        Some(unsafe { self.job.read() })
    }

    /// Pool thread: the job obtained from [`Dispatch::poll`] will not be
    /// touched by this thread again.
    pub fn complete(&self) {
        self.done.fetch_add(1, self.ord.complete);
    }

    /// Caller: have all `threads` pool threads completed every generation
    /// up to and including `generation`?
    pub fn all_done(&self, generation: u64, threads: usize) -> bool {
        self.done.load(Ordering::Acquire) == generation * threads as u64
    }
}

/// What one worker's share of a job came to: its result, or the payload of
/// the panic that ended it.
pub type Share<R> = std::thread::Result<R>;

/// What the pool's threads share with whoever runs a job on them.
#[derive(Debug)]
struct Shared {
    dispatch: Dispatch,
    /// The thread waiting for the current job, to be unparked when a pool
    /// thread completes it.
    waiter: Mutex<Thread>,
}

/// One persistent thread per worker: worker `i` is always the same OS
/// thread, from [`WorkerPool::start`] until the pool is dropped.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<Thread>,
}

impl WorkerPool {
    /// Start a pool of `n` workers. Their threads float: the OS places
    /// them. If a thread cannot be spawned, the ones already started are
    /// sent home.
    pub fn start(n: usize) -> std::io::Result<Self> {
        let shared =
            Shared { dispatch: Dispatch::new(), waiter: Mutex::new(std::thread::current()) };
        let mut pool = WorkerPool { shared: Arc::new(shared), threads: Vec::new() };
        for index in 0..n {
            let shared = Arc::clone(&pool.shared);
            let thread = std::thread::Builder::new()
                .name(format!("rapid-worker-{index}"))
                .spawn(move || serve(&shared, index))?;
            // Detached from the start (see `Drop`); only its park handle
            // is kept.
            pool.threads.push(thread.thread().clone());
        }
        Ok(pool)
    }

    /// Number of workers a job is shared among.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Run `f(i)` on the thread of every worker `i` and return the shares
    /// in worker order. Does not return before every pool thread has left
    /// `f`, whatever `f` does: a share that panics is caught on its own
    /// thread and comes back as `Err`, and the pool stays usable.
    /// (`&mut self`: one job at a time.)
    pub fn run<R: Send>(&mut self, f: impl Fn(usize) -> R + Sync) -> Vec<Share<R>> {
        let shares: Vec<Mutex<Option<Share<R>>>> =
            (0..self.workers()).map(|_| Mutex::new(None)).collect();
        let share = |index: usize| {
            let outcome = catch_unwind(AssertUnwindSafe(|| f(index)));
            *shares[index].lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        };
        *self.shared.waiter.lock().unwrap_or_else(|p| p.into_inner()) = std::thread::current();
        // SAFETY: `share` lives until the end of this function, and nothing
        // between here and the end of the `all_done` loop can return or
        // unwind. Once `all_done` holds, no pool thread will call through
        // the job again.
        let job = unsafe { Job::erase(&share) };
        // SAFETY: `&mut self` makes this the only caller, and the previous
        // `run` (or `start`) left every thread past its `complete`.
        let generation = unsafe { self.shared.dispatch.publish(Some(job)) };
        for thread in &self.threads {
            thread.unpark();
        }
        while !self.shared.dispatch.all_done(generation, self.threads.len()) {
            std::thread::park();
        }
        shares
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .unwrap_or_else(|| Err(Box::new("worker left no result") as Box<_>))
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    /// Tell the threads to leave; do not wait for them. They share nothing
    /// with the pool but an `Arc`, no job is in flight, and all that is
    /// left of them is thread teardown — which `join` would sit through:
    /// 40–80 µs for two threads on the benchmark host, what `thread::scope`
    /// paid inside every run and more than the rest of a cold run's
    /// overhead together.
    fn drop(&mut self) {
        // SAFETY: `&mut self`, and every `run` has returned, so every
        // thread has completed the last generation.
        unsafe { self.shared.dispatch.publish(None) };
        for thread in &self.threads {
            thread.unpark();
        }
    }
}

/// A pool thread's life: serve jobs until the shut-down job.
fn serve(shared: &Shared, index: usize) {
    let mut seen = 0;
    let mut idle_since: Option<Instant> = None;
    loop {
        match shared.dispatch.poll(&mut seen) {
            Some(Some(job)) => {
                // SAFETY: `WorkerPool::run` keeps the closure alive until
                // `all_done`, which waits for the `complete` below.
                unsafe { job.call(index) };
                let waiter = shared.waiter.lock().unwrap_or_else(|p| p.into_inner()).clone();
                shared.dispatch.complete();
                waiter.unpark();
                idle_since = None;
            }
            Some(None) => return,
            None if idle_since.get_or_insert_with(Instant::now).elapsed() < IDLE_YIELD => {
                std::thread::yield_now();
            }
            // Woken by the unpark that follows a publish; a spurious
            // wake-up just polls and parks again.
            None => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};

    #[test]
    fn every_worker_runs_every_job_once() {
        let mut pool = WorkerPool::start(4).unwrap();
        assert_eq!(pool.workers(), 4);
        let calls = AtomicUsize::new(0);
        for round in 0..50usize {
            let out = pool.run(|i| {
                calls.fetch_add(1, AtOrd::Relaxed);
                round * 10 + i
            });
            let out: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(out, (0..4).map(|i| round * 10 + i).collect::<Vec<_>>());
        }
        assert_eq!(calls.load(AtOrd::Relaxed), 200);
    }

    #[test]
    fn job_borrows_from_the_callers_stack() {
        let mut pool = WorkerPool::start(3).unwrap();
        let local = vec![7u64, 8, 9];
        let out = pool.run(|i| local[i]);
        assert_eq!(out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(), local);
    }

    #[test]
    fn a_panicking_share_is_returned_and_the_pool_survives() {
        let mut pool = WorkerPool::start(3).unwrap();
        for victim in 0..3 {
            let out = pool.run(|i| {
                if i == victim {
                    panic!("share {i} died");
                }
                i
            });
            for (i, r) in out.into_iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!((v, i != victim), (i, true)),
                    Err(p) => {
                        assert_eq!(i, victim);
                        assert_eq!(p.downcast_ref::<String>().unwrap(), &format!("share {i} died"));
                    }
                }
            }
        }
        assert!(pool.run(|i| i).into_iter().all(|r| r.is_ok()));
    }

    #[test]
    fn parked_threads_wake_for_the_next_job() {
        let mut pool = WorkerPool::start(2).unwrap();
        assert!(pool.run(|i| i).into_iter().all(|r| r.is_ok()));
        // Well past IDLE_YIELD: the pool thread has parked by now.
        std::thread::sleep(IDLE_YIELD * 50);
        assert_eq!(pool.run(|i| i + 1).into_iter().map(|r| r.unwrap()).sum::<usize>(), 3);
    }

    #[test]
    fn jobs_never_run_on_the_calling_thread() {
        let mut pool = WorkerPool::start(2).unwrap();
        let caller = std::thread::current().id();
        for ran_on in pool.run(|_| std::thread::current().id()) {
            assert_ne!(ran_on.unwrap(), caller);
        }
    }

    #[test]
    fn an_empty_pool_runs_nothing() {
        let mut pool = WorkerPool::start(0).unwrap();
        assert!(pool.run(|i| i).is_empty());
    }
}
