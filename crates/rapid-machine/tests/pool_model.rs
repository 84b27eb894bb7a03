//! Exhaustive interleaving check of the worker pool's hand-off, driving the
//! shipping [`Dispatch`] cell itself under the `rapid-sync` model checker:
//! one caller, two pool threads, two generations. The caller publishes a
//! job, polls for completion, reads what the job wrote and publishes the
//! next one; each pool thread polls, calls through the job and completes.
//! The job of generation `g` writes `10 g + index` into its worker's result
//! slot, so a stale job, a result read too early and a job overwritten
//! while still in use all show up — as a wrong value or as a data race on
//! the cell or a slot.
//!
//! Runs wherever the shim is instrumented: debug builds (tier-1) and
//! release builds with `--cfg rapid_model_check` (the CI `model-check` job).
#![cfg(any(debug_assertions, rapid_model_check))]

use rapid_machine::pool::{Dispatch, HandoffOrd, Job};
use rapid_sync::model::{self, Config, Sim};
use rapid_sync::{Ordering, SyncCell};
use std::rc::Rc;
use std::sync::Arc;

const THREADS: usize = 2;
const GENERATIONS: u64 = 2;
/// Polls per wait. A thread that runs out of polls gives up, which only
/// ends that execution early; every interleaving in which the hand-off
/// completes within the bound is still explored.
const POLLS: usize = 2;

type JobFn = Box<dyn Fn(usize) + Sync>;

fn cfg() -> Config {
    Config { max_execs: 4_000_000, max_steps: 300, budget: 3 }
}

fn scenario(ord: HandoffOrd) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let cell = Rc::new(Dispatch::with_orderings(ord));
        let results: Arc<[SyncCell<u64>; THREADS]> = Arc::new([SyncCell::new(0), SyncCell::new(0)]);
        // One closure per generation, alive for the whole execution: the
        // model's stand-in for the frame of `WorkerPool::run`.
        let jobs: Rc<Vec<JobFn>> = Rc::new(
            (1..=GENERATIONS)
                .map(|g| {
                    let results = Arc::clone(&results);
                    // SAFETY (model): slot `i` is written by pool thread `i`
                    // only, and read by the caller after `all_done`; the
                    // checker race-detects orderings under which it is not.
                    let job = move |i: usize| unsafe { results[i].write(10 * g + i as u64) };
                    Box::new(job) as JobFn
                })
                .collect(),
        );

        {
            let (cell, results, jobs) = (Rc::clone(&cell), Arc::clone(&results), Rc::clone(&jobs));
            sim.thread(move || {
                for g in 1..=GENERATIONS {
                    // SAFETY: `jobs` outlives every model thread.
                    let job = unsafe { Job::erase(&*jobs[g as usize - 1]) };
                    // SAFETY: one caller, and the previous generation was
                    // seen complete below before this one is published.
                    let generation = unsafe { cell.publish(Some(job)) };
                    assert_eq!(generation, g);
                    if !(0..POLLS).any(|_| cell.all_done(generation, THREADS)) {
                        return;
                    }
                    for (i, slot) in results.iter().enumerate() {
                        // SAFETY (model): `all_done` is supposed to order
                        // every pool thread's write before this read.
                        let v = unsafe { slot.read() };
                        assert_eq!(v, 10 * g + i as u64, "generation {g}: slot {i} is stale");
                    }
                }
            });
        }

        for index in 0..THREADS {
            let cell = Rc::clone(&cell);
            sim.thread(move || {
                let mut seen = 0;
                for _ in 0..POLLS {
                    if let Some(Some(job)) = cell.poll(&mut seen) {
                        // SAFETY: see the caller thread.
                        unsafe { job.call(index) };
                        cell.complete();
                    }
                }
            });
        }
    }
}

#[test]
fn pool_handoff_passes_exhaustively() {
    let stats = model::check_passes("pool-good", cfg(), scenario(HandoffOrd::GOOD));
    println!(
        "pool-good: {} executions ({} pruned), {} steps",
        stats.executions, stats.pruned, stats.steps
    );
    assert!(stats.executions > 50, "state space was actually explored");
}

#[test]
fn pool_mutants_all_caught() {
    let mutants = [
        // The worker may see the new generation without the job behind it.
        ("pool-publish-relaxed", HandoffOrd { publish: Ordering::Relaxed, ..HandoffOrd::GOOD }),
        // The caller may see the count without the results behind it.
        ("pool-complete-relaxed", HandoffOrd { complete: Ordering::Relaxed, ..HandoffOrd::GOOD }),
    ];
    for (name, ord) in mutants {
        let cex = model::require_violation(name, cfg(), scenario(ord));
        assert_eq!(cex.model, name, "counterexample carries the mutant name");
        assert!(!cex.trace.is_empty(), "counterexample for `{name}` has a concrete interleaving");
        println!("== mutant `{name}` refuted ==\n{}", cex.render());
    }
}
