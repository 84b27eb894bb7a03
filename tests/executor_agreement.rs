//! Cross-executor agreement: the discrete-event simulator and the
//! threaded executor share one MAP planner, so for the same schedule and
//! capacity their *memory* behaviour — MAP counts and peak usage — must
//! agree exactly, even though their notions of time are unrelated.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::des::run_managed;
use rapid::rt::TaskCtx;
use rapid::sched::assign::cyclic_owner_map;

fn body(_t: TaskId, ctx: &mut TaskCtx<'_>) {
    let ids: Vec<_> = ctx.write_ids().collect();
    for d in ids {
        for x in ctx.write(d).iter_mut() {
            *x += 1.0;
        }
    }
}

fn check(seed: u64, nprocs: usize, cap_slack: u64) {
    let spec = RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 1, ..Default::default() };
    let g = random_irregular_graph(seed, &spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + cap_slack;

    let des = run_managed(&g, &sched, MachineConfig::unit(nprocs, cap))
        .unwrap_or_else(|e| panic!("seed {seed}: DES failed: {e}"));
    // Unit objects never fragment: at MIN_MEM and above every plan places.
    let threaded = ThreadedExecutor::new(&g, &sched, cap)
        .run(body)
        .unwrap_or_else(|e| panic!("seed {seed}: threaded failed: {e}"));

    assert_eq!(des.maps, threaded.maps, "seed {seed}: MAP counts diverge");
    assert_eq!(des.peak_mem, threaded.peak_mem, "seed {seed}: peak memory diverges");
}

#[test]
fn agreement_at_exact_min_mem() {
    for seed in 0..10 {
        check(seed, 3, 0);
    }
}

#[test]
fn agreement_with_slack() {
    for seed in 10..18 {
        check(seed, 4, 5);
    }
}

#[test]
fn agreement_single_processor() {
    // Degenerate case: everything local, no volatiles, exactly one MAP.
    let spec = RandomGraphSpec::default();
    let g = random_irregular_graph(99, &spec);
    let owner = vec![0u32; g.num_objects()];
    let assign = owner_compute_assignment(&g, &owner, 1);
    let sched = rcp_order(&g, &assign, &CostModel::unit());
    let cap = g.seq_space();
    let des = run_managed(&g, &sched, MachineConfig::unit(1, cap)).unwrap();
    let thr = ThreadedExecutor::new(&g, &sched, cap).run(body).unwrap();
    assert_eq!(des.maps, vec![1]);
    assert_eq!(thr.maps, vec![1]);
    assert_eq!(des.peak_mem, thr.peak_mem);
}
