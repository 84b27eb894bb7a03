//! Ablation studies of the design choices the paper argues for:
//!
//! 1. **MAP window** — greedy (paper) vs one-task-per-MAP: greedy needs
//!    far fewer allocation points for the same footprint.
//! 2. **Arena placement** — best-fit vs first-fit under the threaded
//!    executor's real alloc/free trace: fragmentation headroom needed
//!    above `MIN_MEM` (the §6 fragmentation observation).
//! 3. **Commuting updates** — the §2 model extension: marking a block's
//!    trailing updates as commutative removes their artificial chains.
//!    Finding: for 2-D Cholesky the chains run parallel to the
//!    Fact→Scale→Update step paths, so predicted time and depth barely
//!    move — the marking buys scheduling robustness (any arrival order
//!    is ready), not critical-path length.
//! 4. **Dependence-structure storage** — the §6 observation that the
//!    dependence structure itself consumes 18–50 % of memory: report the
//!    estimated control-structure words next to the data space.

use rapid_bench::harness::*;
use rapid_core::memreq::min_mem;
use rapid_machine::config::MachineConfig;
use rapid_rt::des::{DesConfig, DesExecutor};
use rapid_rt::maps::MapWindow;

fn main() {
    let scale = Scale::from_args();
    let ps = procs_sweep(scale);
    let (name, w) = lu_workload(scale);
    println!("workload: sparse LU ({name}), capacities at 50% of TOT\n");

    // 1: DES ablation.
    let mut rows = Vec::new();
    for &p in &ps {
        let sched = schedule(&w, p, Order::Mpo, u64::MAX);
        let rep = min_mem(w.graph(), &sched);
        // Midpoint between the recycling requirement and the no-recycling
        // footprint: guaranteed executable, still under pressure.
        let cap = (rep.min_mem + rep.tot_no_recycle) / 2;
        let machine = MachineConfig::t3d(p).with_capacity(cap);
        let run = |cfg: DesConfig| DesExecutor::new(w.graph(), &sched, cfg).run();
        let greedy = run(DesConfig::managed(machine.clone()));
        let single = run(DesConfig::managed(machine).with_window(MapWindow::Single));
        let cells = match (greedy, single) {
            (Ok(g), Ok(s)) => vec![
                format!("{:.2}", g.avg_maps()),
                format!("{:.2}", s.avg_maps()),
                format!("{:+.1}%", (s.parallel_time / g.parallel_time - 1.0) * 100.0),
            ],
            _ => vec!["∞".into(); 3],
        };
        rows.push((format!("P={p}"), cells));
    }
    println!(
        "{}",
        render_table(
            "Ablation 1: MAP window (vs greedy)",
            &["P".into(), "#MAPs greedy".into(), "#MAPs single".into(), "PT single".into()],
            &rows
        )
    );

    // 2: arena placement under the threaded executor's allocation trace.
    use rapid_sparse::{gen, taskgen};
    // A min-degree-ordered FEM matrix with a non-uniform tail block gives
    // the mixed object sizes that expose placement-policy effects (this
    // exact configuration fragments under first-fit).
    let a = gen::bcsstk_like(5, 5, 3, 11);
    let a = a.permute_sym(&rapid_sparse::order::min_degree(&a));
    let model = taskgen::cholesky_2d_model(&a, 10, 4);
    let assign = rapid_sched::assign::owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = rapid_sched::rcp::rcp_order(
        &model.graph,
        &assign,
        &rapid_core::schedule::CostModel::unit(),
    );
    let mm = min_mem(&model.graph, &sched).min_mem;
    println!("Ablation 2: arena placement, 2-D Cholesky n={} p=4, MIN_MEM={mm}", a.ncols);
    // Find the smallest capacity at which each policy follows the counted
    // placement to the end: no allocation that fails, no window cut short.
    // The threaded executor's address plan is the best-fit walk; the
    // first-fit one exists for this comparison only.
    let plan = rapid_rt::RtPlan::new(&model.graph, &sched);
    for policy in
        [rapid_machine::arena::FitPolicy::BestFit, rapid_machine::arena::FitPolicy::FirstFit]
    {
        let fits = |cap| {
            plan.address_plan(&model.graph, &sched, cap, MapWindow::Greedy, policy)
                .is_ok_and(|a| a.cuts.iter().all(|&c| c == 0))
        };
        let mut cap = mm;
        while !fits(cap) {
            cap += mm / 100 + 1;
        }
        println!(
            "  {:?}: completes at capacity {} (+{:.1}% over MIN_MEM)",
            policy,
            cap,
            (cap as f64 / mm as f64 - 1.0) * 100.0
        );
    }

    commuting_ablation();
    control_structure_report(scale);
}

/// Ablation 3: strict vs marked-commuting 2-D Cholesky.
fn commuting_ablation() {
    use rapid_core::schedule::{evaluate, CostModel};
    use rapid_sparse::{gen, order, taskgen};
    let a = gen::bcsstk_like(10, 10, 3, 17);
    let a = a.permute_sym(&order::min_degree(&a));
    let p = 8;
    println!("\nAblation 3: commuting trailing updates, 2-D Cholesky n={} p={p}", a.ncols);
    let cost = CostModel::unit();
    for (name, m) in [
        ("strict   ", taskgen::cholesky_2d_model(&a, 8, p)),
        ("commuting", taskgen::cholesky_2d_model_commuting(&a, 8, p)),
    ] {
        let assign = rapid_sched::assign::owner_compute_assignment(&m.graph, &m.owner, p);
        let depth = rapid_core::algo::dag_depth(&m.graph);
        let sched = rapid_sched::rcp::rcp_order(&m.graph, &assign, &cost);
        let gantt = evaluate(&m.graph, &cost, &sched);
        let rep = rapid_core::memreq::min_mem(&m.graph, &sched);
        println!(
            "  {name}: depth={depth} predicted PT={:.0} MIN_MEM={}",
            gantt.makespan, rep.min_mem
        );
    }
}

/// Ablation 4: dependence-structure storage vs data space (§6).
fn control_structure_report(scale: Scale) {
    println!("\nAblation 4: dependence-structure storage (paper §6: 18-50% of memory)");
    let report = |label: &str, w: &Workload| {
        let sched = schedule(w, 8, Order::Rcp, u64::MAX);
        let plan = rapid_rt::maps::RtPlan::new(w.graph(), &sched);
        let ctrl = plan.control_units(w.graph());
        let data = w.graph().seq_space();
        println!(
            "  {label}: control {} units vs data {} units ({:.0}% of combined)",
            ctrl,
            data,
            100.0 * ctrl as f64 / (ctrl + data) as f64
        );
    };
    for (name, w) in cholesky_workloads(scale) {
        report(&format!("cholesky {name}"), &w);
    }
    let (name, w) = lu_workload(scale);
    report(&format!("lu {name}"), &w);
}
