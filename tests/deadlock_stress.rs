//! Theorem-1 stress: the execution with active memory management is
//! deadlock-free and data-consistent. Hammer the threaded executor with
//! random irregular graphs at exactly `MIN_MEM`, across processor counts
//! and orderings, under real interleavings; every run must terminate with
//! results identical to the sequential replay.

mod common;

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::threaded::run_sequential;
use rapid::rt::{ExecError, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;

fn body(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for (i, x) in ctx.write(d).iter_mut().enumerate() {
            *x = 0.5 * *x + acc + t.0 as f64 + i as f64 * 0.25;
        }
    }
}

fn stress(seed: u64, nprocs: usize, spec: &RandomGraphSpec, ordering: &str) {
    let g = random_irregular_graph(seed, spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let cost = CostModel::unit();
    let sched = match ordering {
        "rcp" => rcp_order(&g, &assign, &cost),
        "mpo" => mpo_order(&g, &assign, &cost),
        "dts" => dts_order(&g, &assign, &cost),
        _ => unreachable!(),
    };
    let mm = min_mem(&g, &sched).min_mem;
    let exec = ThreadedExecutor::new(&g, &sched, mm);
    match exec.run(body) {
        Ok(out) => {
            let reference = run_sequential(&g, body);
            assert_eq!(
                out.objects, reference,
                "seed {seed} nprocs {nprocs} {ordering}: results diverged"
            );
            assert!(out.peak_mem.iter().all(|&p| p <= mm));
        }
        // Best-fit fragmentation at exactly MIN_MEM is a legitimate
        // resource failure with mixed object sizes — not a deadlock, and
        // known before the first worker starts.
        Err(e @ ExecError::Fragmented { .. }) => common::assert_planned_rejection(
            &format!("seed {seed} nprocs {nprocs} {ordering}"),
            &exec,
            &e,
        ),
        Err(e) => panic!("seed {seed} nprocs {nprocs} {ordering}: {e}"),
    }
}

#[test]
fn stress_small_graphs_many_seeds() {
    let spec = RandomGraphSpec { objects: 12, tasks: 30, ..Default::default() };
    for seed in 0..12 {
        for ordering in ["rcp", "mpo", "dts"] {
            stress(seed, 3, &spec, ordering);
        }
    }
}

#[test]
fn stress_wide_graphs() {
    let spec = RandomGraphSpec {
        objects: 40,
        tasks: 120,
        max_reads: 4,
        update_prob: 0.5,
        ..Default::default()
    };
    for seed in 100..106 {
        stress(seed, 4, &spec, "mpo");
        stress(seed, 4, &spec, "dts");
    }
}

#[test]
fn stress_eight_processors() {
    let spec = RandomGraphSpec { objects: 48, tasks: 150, ..Default::default() };
    for seed in 200..204 {
        stress(seed, 8, &spec, "mpo");
    }
}

#[test]
fn stress_commuting_graphs() {
    // Random graphs with marked-commuting updates: the runtime must stay
    // deadlock-free and, because the stress body is a pure sum of exact
    // integer-valued terms, results stay bitwise equal to the sequential
    // replay in any execution order.
    fn additive_body(t: TaskId, ctx: &mut TaskCtx<'_>) {
        let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
        let ids: Vec<_> = ctx.write_ids().collect();
        for d in ids {
            for x in ctx.write(d).iter_mut() {
                *x += acc.min(1024.0).floor() + t.0 as f64 + 1.0;
            }
        }
    }
    let spec = RandomGraphSpec {
        objects: 16,
        tasks: 50,
        max_obj_size: 1,
        update_prob: 0.6,
        accum_prob: 0.7,
        ..Default::default()
    };
    for seed in 400..410 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let mm = min_mem(&g, &sched).min_mem;
        let out = ThreadedExecutor::new(&g, &sched, mm)
            .run(additive_body)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            out.objects,
            run_sequential(&g, additive_body),
            "seed {seed}: commuting results diverged"
        );
    }
}

#[test]
fn stress_unit_objects_exact_min_mem_never_fragments() {
    // With unit-size objects first-fit cannot fragment, so every run at
    // exactly MIN_MEM must succeed outright.
    let spec = RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 1, ..Default::default() };
    for seed in 300..310 {
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), 4);
        let assign = owner_compute_assignment(&g, &owner, 4);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        let mm = min_mem(&g, &sched).min_mem;
        let out = ThreadedExecutor::new(&g, &sched, mm)
            .run(body)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(out.objects, run_sequential(&g, body), "seed {seed}");
    }
}
