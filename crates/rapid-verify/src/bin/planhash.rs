//! `planhash` — print the FNV-1a hash of a verified merged-DTS plan.
//!
//! Usage: `planhash [tasks] [seed]` (defaults 20000, 2026). The plan
//! hash is a pure function of `(tasks, seed)` on any host; CI's
//! `protocol` job runs this twice in release mode and requires both
//! lines to be the recorded `a54e1c483d6cfe35`.

use rapid_core::dcg::Dcg;
use rapid_core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid_core::schedule::CostModel;
use rapid_rt::{MapWindow, RtPlan};
use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};
use rapid_sched::{plan_parallel, slice_h, PlanPolicy};
use rapid_verify::{plan_hash, verify};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next =
        |default: u64| -> u64 { args.next().and_then(|s| s.parse().ok()).unwrap_or(default) };
    let tasks = next(20_000) as usize;
    let seed = next(2026);
    let nprocs = 8usize;

    let spec = RandomGraphSpec {
        objects: tasks / 4,
        tasks,
        max_obj_size: 4,
        max_reads: 3,
        update_prob: 0.35,
        accum_prob: 0.05,
        max_weight: 4.0,
    };
    let g = random_irregular_graph(seed, &spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let cost = CostModel::unit();

    // Feasible-but-tight capacity: max permanent load + 2*Hmax + slack.
    let dcg = Dcg::build(&g);
    let h = slice_h(&g, &assign, &dcg);
    let hmax = h.iter().copied().max().unwrap_or(0);
    let mut perm = vec![0u64; nprocs];
    for d in g.objects() {
        perm[assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let capacity = perm.iter().copied().max().unwrap_or(0) + 2 * hmax + 64;

    let sched = plan_parallel(&g, &assign, &cost, PlanPolicy::DtsMerged { capacity }, 1);
    let plan = RtPlan::new(&g, &sched);
    let placement = match plan.place_maps(&g, &sched, capacity, MapWindow::Greedy) {
        Ok(placement) => placement,
        Err(e) => {
            eprintln!("no placement: {e}");
            std::process::exit(1);
        }
    };
    let report = verify(&g, &sched, &plan, &placement);
    if !report.accepted() {
        eprintln!("plan rejected: {:?}", report.findings);
        std::process::exit(1);
    }
    println!("{:016x}", plan_hash(&sched, &placement));
}
