//! The paper's evidence (§5) as one registry: every table and figure is a
//! function of [`Scale`] listed in [`EXPERIMENTS`], and the `repro` binary
//! only dispatches on the names. Beside them sit the two things `repro`
//! does that are not a table: [`write_trace`], the Perfetto export of one
//! traced run, and [`recovery_gate`], the one performance assertion that
//! resolves on a small host. Everything that is *measured* — times, rates,
//! tracing overhead — lives in `benchmark/` and `BENCHMARK.json`.

use crate::harness::*;
use crate::timing::{bench_ns, fmt_ns};
use rapid_core::dcg::Dcg;
use rapid_core::fixtures::{self, random_irregular_graph, RandomGraphSpec};
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::memreq::min_mem;
use rapid_core::schedule::{evaluate, CostModel, Schedule};
use rapid_machine::config::MachineConfig;
use rapid_rt::des::run_managed;
use rapid_rt::maps::RtPlan;
use rapid_rt::threaded::{TaskCtx, ThreadedExecutor};
use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};
use rapid_sched::{dts_order, mpo_order, rcp_order};
use rapid_sparse::{gen, order, taskgen};
use rapid_trace::{chrome_trace_json, TraceConfig};

/// One reproducible table or figure of the paper.
pub struct Experiment {
    /// The name `repro` dispatches on.
    pub name: &'static str,
    /// What it reproduces, in one line.
    pub about: &'static str,
    /// Print it at the given scale.
    pub run: fn(Scale),
}

/// Every experiment, in the order `repro all` runs them.
pub static EXPERIMENTS: [Experiment; 11] = [
    Experiment { name: "fig2", about: "Figures 2, 3, 5: the worked 20-task example", run: fig2 },
    Experiment { name: "table1", about: "memory use without recycling over S1/p", run: table1 },
    Experiment { name: "table2", about: "memory-management overhead, Cholesky", run: table2 },
    Experiment { name: "table3", about: "memory-management overhead, LU", run: table3 },
    Experiment { name: "table4", about: "parallel time, RCP vs MPO", run: table4 },
    Experiment { name: "table5", about: "average #MAPs, RCP vs MPO", run: table5 },
    Experiment { name: "table6", about: "parallel time, MPO vs DTS", run: table6 },
    Experiment { name: "table7", about: "parallel time, RCP vs DTS with merging", run: table7 },
    Experiment { name: "fig7", about: "memory scalability of RCP / MPO / DTS", run: fig7 },
    Experiment { name: "table8", about: "large LU that needs memory management", run: table8 },
    Experiment { name: "ablation", about: "the two design-choice ablations", run: ablation },
];

/// `P` followed by one column per memory percentage.
fn pct_header(pcts: &[f64]) -> Vec<String> {
    std::iter::once("P".to_string())
        .chain(pcts.iter().map(|p| format!("{:.0}%", p * 100.0)))
        .collect()
}

/// Label each processor-count row `P=<p>`.
fn p_rows(rows: Vec<(usize, Vec<String>)>) -> Vec<(String, Vec<String>)> {
    rows.into_iter().map(|(p, cells)| (format!("P={p}"), cells)).collect()
}

/// Print the schedule's per-processor task order by label.
fn print_orders(g: &TaskGraph, sched: &Schedule) {
    for (p, ord) in sched.order.iter().enumerate() {
        let names: Vec<&str> = ord.iter().map(|&t| g.task_label(t)).collect();
        println!("  P{p}: {}", names.join(" "));
    }
}

/// Figures 2, 3 and 5: the paper's worked example — the 20-task DAG, its
/// RCP/MPO schedules with their memory requirements, the MAP walkthrough
/// at capacity 8, and the DCG/DTS slice decomposition.
fn fig2(_: Scale) {
    let g = fixtures::figure2_dag();
    let assign = fixtures::figure2_assignment();
    println!("Figure 2(a): {} tasks, {} objects", g.num_tasks(), g.num_objects());
    println!(
        "PERM(P0) = d1,d3,d5,d7,d9,d11   PERM(P1) = d2,d4,d6,d8,d10\n\
         VOLA(P0) = d8                   VOLA(P1) = d1,d3,d5,d7\n"
    );

    let cost = CostModel::unit();
    for (label, sched) in [
        ("(b) RCP-style", fixtures::figure2_schedule_b()),
        ("(c) MPO-style", fixtures::figure2_schedule_c()),
    ] {
        let rep = min_mem(&g, &sched);
        let gantt = evaluate(&g, &cost, &sched);
        println!("Schedule {label}: MIN_MEM = {}, predicted PT = {}", rep.min_mem, gantt.makespan);
        print_orders(&g, &sched);
        print!("{}", gantt.render_ascii(&g, 64));
    }

    // Figure 3(a): MAP walkthrough at capacity 8.
    let sched = fixtures::figure2_schedule_c();
    let out = run_managed(&g, &sched, MachineConfig::unit(2, 8)).expect("MIN_MEM = 8 fits");
    println!(
        "\nFigure 3(a): executing (c) with capacity 8 -> #MAPs = {:?}, peaks = {:?}",
        out.maps, out.peak_mem
    );

    // Figure 5: the DCG and the DTS schedule.
    let dcg = Dcg::build(&g);
    println!(
        "\nFigure 5(a): DCG has {} nodes (acyclic: {})",
        dcg.obj_of_node.len(),
        dcg.is_acyclic()
    );
    let mut order: Vec<(u32, String)> = dcg
        .obj_of_node
        .iter()
        .map(|&d| (dcg.slice_of_node[dcg.node_of_obj[d.idx()] as usize], format!("d{}", d.0 + 1)))
        .collect();
    order.sort();
    println!(
        "Slice order: {}",
        order.iter().map(|(_, n)| n.as_str()).collect::<Vec<_>>().join(" -> ")
    );
    let dts = dts_order(&g, &assign, &cost);
    let rep = min_mem(&g, &dts);
    println!("Figure 5(b): DTS schedule MIN_MEM = {} (paper: 7)", rep.min_mem);
    print_orders(&g, &dts);
}

/// Table 1: average per-processor memory usage of the original RAPID
/// (no recycling) over the `S1/p` lower bound, sparse Cholesky.
///
/// Paper values: 1.88 (p=2), 3.19 (4), 4.64 (8), 5.72 (16) — the ratio
/// grows with p because each processor owns fewer permanent objects while
/// needing more volatile copies.
fn table1(scale: Scale) {
    let ps: Vec<usize> = match scale {
        Scale::Small => vec![2, 4, 8],
        Scale::Paper => vec![2, 4, 8, 16],
    };
    let workloads = cholesky_workloads(scale);
    // The paper reports the average across its Cholesky test matrices.
    let mut rows = Vec::new();
    let mut ratios = vec![0.0f64; ps.len()];
    for (name, w) in &workloads {
        let r = usage_ratio_row(w, &ps);
        for (i, &(_, v)) in r.iter().enumerate() {
            ratios[i] += v / workloads.len() as f64;
        }
        rows.push((name.clone(), r.iter().map(|&(_, v)| format!("{v:.2}")).collect::<Vec<_>>()));
    }
    rows.push(("average".to_string(), ratios.iter().map(|v| format!("{v:.2}")).collect()));
    let mut header = vec!["#processors".to_string()];
    header.extend(ps.iter().map(|p| p.to_string()));
    println!(
        "{}",
        render_table(
            "Table 1: per-processor memory over S1/p, sparse Cholesky (no recycling)",
            &header,
            &rows
        )
    );
    println!("Paper (avg): 1.88 (p=2), 3.19 (p=4), 4.64 (p=8), 5.72 (p=16).");
    println!("Expected shape: ratio grows monotonically with p.");
}

/// One table of Tables 2 and 3: PT increase and #MAPs of the RCP schedule
/// under 100/75/50/40 % of its `TOT`.
fn overhead_table(title: &str, w: &Workload, scale: Scale) {
    let pcts = [1.0, 0.75, 0.5, 0.4];
    let rows = mem_constraint_table(w, &procs_sweep(scale), &pcts, Order::Rcp);
    let mut header = vec!["P".to_string()];
    for pct in pcts {
        header.push(format!("{:.0}% PT", pct * 100.0));
        header.push(format!("{:.0}% #MAPs", pct * 100.0));
    }
    let frows: Vec<(String, Vec<String>)> = rows
        .iter()
        .map(|(p, cells)| {
            let v = cells.iter().flat_map(|c| [fmt_pct(c.pt_increase), fmt_maps(c.maps)]).collect();
            (format!("P={p}"), v)
        })
        .collect();
    println!("{}", render_table(title, &header, &frows));
}

/// Table 2: overhead of the active memory management scheme for sparse
/// Cholesky under 100/75/50/40 % of `TOT` (RCP ordering).
///
/// Paper shape: PT increase grows as memory shrinks and as p grows
/// (3.8 % at p=2/100 % up to ~65 % at p=32/40 %); small p + small memory
/// are non-executable (`∞`); #MAPs shrink toward 2 as p grows because
/// each processor owns fewer objects.
fn table2(scale: Scale) {
    for (name, w) in &cholesky_workloads(scale) {
        let title = format!("Table 2: active memory management overhead, sparse Cholesky ({name})");
        overhead_table(&title, w, scale);
    }
    println!("Paper shape: PT increase grows with p and with shrinking memory;");
    println!("∞ entries at small p / small memory; schedules become executable");
    println!("under tighter memory as p grows (more volatiles to recycle).");
}

/// Table 3: overhead of the active memory management scheme for sparse
/// LU with partial pivoting (GOODWIN-like matrix, 1-D column blocks).
///
/// Paper shape: smaller PT increases than Cholesky (coarser grain, fewer
/// objects) but more `∞` entries at small p (larger objects leave less
/// allocation freedom).
fn table3(scale: Scale) {
    let (name, w) = lu_workload(scale);
    let title = format!("Table 3: active memory management overhead, sparse LU ({name})");
    overhead_table(&title, &w, scale);
    println!("Paper shape: LU degrades less than Cholesky at the same constraint");
    println!("(17–32% at 40% memory vs 51–65%) but has more ∞ cells at small p.");
}

/// The (a) Cholesky and (b) LU tables of a heuristic comparison (Tables
/// 4, 6 and 7): cells are `PT_b / PT_a − 1` under 75/50/40/25 % of `TOT`.
fn compare_tables(scale: Scale, table: &str, versus: &str, a: Order, b: Order) {
    let ps = procs_sweep(scale);
    let pcts = [0.75, 0.5, 0.4, 0.25];
    let lu = lu_workload(scale);
    let chol = cholesky_workloads(scale);
    let parts = chol.iter().map(|(n, w)| ("(a)", "Cholesky", n, w));
    for (part, kind, name, w) in parts.chain([("(b)", "LU", &lu.0, &lu.1)]) {
        let title = format!("{table}{part}: {versus}, sparse {kind} ({name})");
        let rows = p_rows(compare_table(w, &ps, &pcts, a, b));
        println!("{}", render_table(&title, &pct_header(&pcts), &rows));
    }
}

/// Table 4: parallel-time comparison RCP vs MPO under memory constraints
/// (cells are `PT_MPO / PT_RCP − 1`; `*` = MPO executable where RCP is
/// not; `-` = neither executable).
///
/// Paper shape: the difference is negligible (±10 %) and MPO sometimes
/// wins outright (it needs fewer MAPs and reuses volatiles while they are
/// cache-warm); MPO is executable in strictly more cells.
fn table4(scale: Scale) {
    compare_tables(scale, "Table 4", "RCP vs MPO", Order::Rcp, Order::Mpo);
    println!("Cells: PT_MPO/PT_RCP - 1. '*' = only MPO executable, '-' = neither.");
    println!("Paper shape: |cell| mostly < 10%, with '*' cells where MPO's lower");
    println!("memory requirement rescues otherwise-unrunnable configurations.");
}

/// Table 5: average number of MAPs, RCP vs MPO, sparse Cholesky.
///
/// Paper shape: MPO never needs more MAPs than RCP at the same
/// constraint (e.g. 7.8/4 at p=4, 50 %) because shorter volatile
/// lifetimes let each allocation window stretch further.
fn table5(scale: Scale) {
    let ps = procs_sweep(scale);
    let pcts = [0.75, 0.5, 0.4, 0.25];
    for (name, w) in cholesky_workloads(scale) {
        let title = format!("Table 5: average #MAPs RCP/MPO, sparse Cholesky ({name})");
        let rows = p_rows(maps_table(&w, &ps, &pcts, Order::Rcp, Order::Mpo));
        println!("{}", render_table(&title, &pct_header(&pcts), &rows));
    }
    println!("Cells: avg#MAPs(RCP)/avg#MAPs(MPO); ∞ = non-executable.");
    println!("Paper shape: the MPO side never exceeds the RCP side.");
}

/// Table 6: parallel-time comparison MPO vs DTS (cells are
/// `PT_DTS / PT_MPO − 1`).
///
/// Paper shape: MPO outperforms strict DTS substantially, and the gap
/// widens with p (4 % at p=2 to ~90 % at p=32 for Cholesky, up to ~116 %
/// for LU) — DTS's slice order discards critical-path freedom. DTS is
/// still the only executable option in the tightest cells (`*`).
fn table6(scale: Scale) {
    compare_tables(scale, "Table 6", "MPO vs DTS", Order::Mpo, Order::Dts);
    println!("Cells: PT_DTS/PT_MPO - 1. '*' = only DTS executable.");
    println!("Paper shape: DTS slower, gap grows with p; LU gap > Cholesky gap;");
    println!("DTS alone survives the tightest memory cells.");
}

/// Table 7: parallel-time comparison RCP vs DTS **with slice merging**
/// (cells are `PT_DTSmerged / PT_RCP − 1`).
///
/// Paper shape: with merging, DTS recovers critical-path freedom — cells
/// shrink to roughly 0–20 % (sometimes negative) while DTS remains
/// executable in strictly more cells than RCP.
fn table7(scale: Scale) {
    compare_tables(scale, "Table 7", "RCP vs DTS+merging", Order::Rcp, Order::DtsMerged);
    println!("Cells: PT_DTS+merge/PT_RCP - 1. '*' = only merged DTS executable.");
    println!("Paper shape: close to RCP (≈0–20%) and executable in more cells.");
}

/// Figure 7: memory scalability `S1 / S_p^A` of the three orderings vs
/// the perfect `S1/p` line, for sparse Cholesky and sparse LU.
///
/// Paper shape: DTS hugs the perfect line (Corollaries 1–2), MPO sits
/// between, RCP flattens out — dramatically so for LU, where its per
/// processor requirement barely shrinks with p.
fn fig7(scale: Scale) {
    let ps = procs_sweep(scale);
    for (name, w) in cholesky_workloads(scale) {
        scalability_plot(&format!("sparse Cholesky, {name}"), &w, &ps);
    }
    let (name, w) = lu_workload(scale);
    scalability_plot(&format!("sparse LU, {name}"), &w, &ps);
    println!("Paper shape: DTS ≈ perfect; MPO between; RCP flat (worst for LU).");
}

/// One workload of Figure 7: the table and its ASCII plot.
fn scalability_plot(name: &str, w: &Workload, ps: &[usize]) {
    let orders = [Order::Rcp, Order::Mpo, Order::Dts];
    let rows = memory_scalability(w, ps, &orders);
    let mut header = vec!["p".to_string()];
    header.extend(orders.iter().map(|o| o.name().to_string()));
    header.push("perfect".to_string());
    let frows: Vec<(String, Vec<String>)> = rows
        .iter()
        .map(|(p, vals)| {
            let mut v: Vec<String> = vals.iter().map(|x| format!("{x:.2}")).collect();
            v.push(format!("{p:.2}"));
            (p.to_string(), v)
        })
        .collect();
    println!(
        "{}",
        render_table(&format!("Figure 7: memory scalability S1/S_p ({name})"), &header, &frows)
    );
    // ASCII plot: one row per ordering, scaled to the perfect value.
    println!("Scalability as fraction of perfect (#=10%):");
    for (oi, o) in orders.iter().enumerate() {
        print!("  {:<4}", o.name());
        for (p, vals) in &rows {
            let tenths = (vals[oi] / *p as f64 * 10.0).round() as usize;
            print!(" p{p}:[{}{}]", "#".repeat(tenths), " ".repeat(10usize.saturating_sub(tenths)));
        }
        println!();
    }
    println!();
}

/// Table 8: solving a previously-unsolvable problem — large sparse LU
/// with partial pivoting (BCSSTK33-like pattern) under active memory
/// management.
///
/// Paper values (BCSSTK33 truncated to 6080 columns, 9.49 M nonzeros):
/// p=16: 41.8 s, 5.63 MAPs, 353 MFLOPS; p=32: 25.9 s, 4.09, 569;
/// p=64: 23.3 s, 3.78, 634. Shape: PT falls and MFLOPS rise sublinearly
/// with p; avg #MAPs falls with p.
fn table8(scale: Scale) {
    let ps: Vec<usize> = match scale {
        Scale::Small => vec![4, 8, 16],
        Scale::Paper => vec![16, 32, 64],
    };
    let (name, w) = bcsstk33_lu_workload(scale);
    let flops = w.flops();
    // Capacity: half of the p = max TOT — a constraint under which the
    // original RAPID (no recycling) cannot run at the smallest p.
    let tot_small = {
        let sched = schedule(&w, ps[0], Order::Rcp, u64::MAX);
        min_mem(w.graph(), &sched).tot_no_recycle
    };
    let cap = tot_small / 2;
    let mut rows = Vec::new();
    for &p in &ps {
        let sched = schedule(&w, p, Order::Mpo, cap);
        let cells = match run_at(&w, &sched, p, cap) {
            Some(out) => vec![
                format!("{:.2}", out.parallel_time),
                format!("{:.2}", out.avg_maps()),
                format!("{:.1}", flops / out.parallel_time / 1.0e6),
            ],
            None => vec!["∞".into(), "∞".into(), "-".into()],
        };
        rows.push((format!("{p}"), cells));
    }
    let header = ["#proc", "PT (s)", "Ave. #MAPs", "MFLOPS"].map(String::from);
    println!(
        "{}",
        render_table(
            &format!(
                "Table 8: large sparse LU with partial pivoting ({name}), capacity = 50% of TOT(p={})",
                ps[0]
            ),
            &header,
            &rows
        )
    );
    println!("Paper: 41.8s/5.63/353.1 (p=16), 25.9s/4.09/569.2 (32), 23.3s/3.78/634.0 (64).");
    println!("Shape: PT falls, MFLOPS rise sublinearly, avg #MAPs falls with p.");
}

/// Ablation studies of the design choices the paper argues for:
///
/// 1. **Commuting updates** — the §2 model extension: marking a block's
///    trailing updates as commutative removes their artificial chains.
///    Finding: for 2-D Cholesky the chains run parallel to the
///    Fact→Scale→Update step paths, so predicted time and depth barely
///    move — the marking buys scheduling robustness (any arrival order
///    is ready), not critical-path length.
/// 2. **Dependence-structure storage** — the §6 observation that the
///    dependence structure itself consumes 18–50 % of memory: report the
///    estimated control-structure words next to the data space.
///
/// The greedy MAP window and the best-fit arena are no longer options;
/// the ablations that compared them are recorded in EXPERIMENTS.md.
fn ablation(scale: Scale) {
    let (lu_name, lu) = lu_workload(scale);

    // 1: strict vs marked-commuting 2-D Cholesky.
    let a = gen::bcsstk_like(10, 10, 3, 17);
    let a = a.permute_sym(&order::min_degree(&a));
    let p = 8;
    println!("Ablation 1: commuting trailing updates, 2-D Cholesky n={} p={p}", a.ncols);
    let cost = CostModel::unit();
    for (name, m) in [
        ("strict   ", taskgen::cholesky_2d_model(&a, 8, p)),
        ("commuting", taskgen::cholesky_2d_model_commuting(&a, 8, p)),
    ] {
        let assign = owner_compute_assignment(&m.graph, &m.owner, p);
        let depth = rapid_core::algo::dag_depth(&m.graph);
        let sched = rcp_order(&m.graph, &assign, &cost);
        let gantt = evaluate(&m.graph, &cost, &sched);
        let rep = min_mem(&m.graph, &sched);
        println!(
            "  {name}: depth={depth} predicted PT={:.0} MIN_MEM={}",
            gantt.makespan, rep.min_mem
        );
    }

    // 2: dependence-structure storage vs data space (§6).
    println!("\nAblation 2: dependence-structure storage (paper §6: 18-50% of memory)");
    let report = |label: &str, w: &Workload| {
        let sched = schedule(w, 8, Order::Rcp, u64::MAX);
        let ctrl = RtPlan::new(w.graph(), &sched).control_units(w.graph());
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
    report(&format!("lu {lu_name}"), &lu);
}

/// `repro trace <out.json>`: one traced run of the n = 108 Cholesky
/// fixture on 4 workers, exported as a Chrome-trace / Perfetto timeline
/// (open it at <https://ui.perfetto.dev>).
pub fn write_trace(path: &str) {
    let a = gen::bcsstk_like(6, 6, 3, 3);
    let model = taskgen::cholesky_2d_model(&a, 9, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    let rep = min_mem(&model.graph, &sched);
    let exec = ThreadedExecutor::new(&model.graph, &sched, rep.min_mem + 512)
        .with_tracing(TraceConfig::default());
    let out =
        exec.run_with_init(model.body(), model.init(&a)).expect("traced cholesky fixture must run");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    std::fs::write(path, chrome_trace_json(trace, Some(&model.graph)))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote {path} ({} events across {} processors; open at https://ui.perfetto.dev)",
        trace.total(),
        trace.procs.len()
    );
}

/// `repro gate`: the cost of *arming* recovery on a fault-free run — the
/// photograph of each task's own write set taken before its body runs —
/// against the unarmed executor, on the protocol-dominated
/// fixture (160 near-empty tasks, 4 workers, `MIN_MEM + 8`). The armed
/// run must stay within 1.30× of the unarmed one ("zero cost when
/// disabled, near-zero when armed but idle") and both must agree bitwise.
/// The fixture's plan is statically verified first, so a planner
/// regression fails with a typed finding instead of hanging a measurement.
pub fn recovery_gate() {
    fn body(t: TaskId, ctx: &mut TaskCtx<'_>) {
        let mut acc = t.0 as f64;
        for d in ctx.read_ids().collect::<Vec<_>>() {
            acc += ctx.read(d).iter().sum::<f64>();
        }
        for d in ctx.write_ids().collect::<Vec<_>>() {
            for x in ctx.write(d) {
                *x += acc;
            }
        }
    }
    let spec = RandomGraphSpec { objects: 48, tasks: 160, ..Default::default() };
    let g = random_irregular_graph(11, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;
    let report = rapid_verify::verify_capacity(&g, &sched, cap);
    assert!(report.accepted(), "gate: plan rejected at capacity {cap}: {:?}", report.findings);

    let plain_exec = ThreadedExecutor::new(&g, &sched, cap);
    let armed_exec = ThreadedExecutor::new(&g, &sched, cap).with_recovery();
    // Interleaved min-of-3: OS scheduling noise dominates on oversubscribed
    // runners and must not read as overhead.
    let (mut plain, mut armed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        plain = plain.min(bench_ns(&mut || {
            let _ = plain_exec.run(body);
        }));
        armed = armed.min(bench_ns(&mut || {
            let _ = armed_exec.run(body);
        }));
    }
    let overhead = armed / plain;
    println!(
        "recovery/random-irregular-t160-p4: unarmed {} armed-clean {} (overhead {overhead:.2}x)",
        fmt_ns(plain),
        fmt_ns(armed)
    );
    let p = plain_exec.run(body).expect("unarmed fixture run");
    let a = armed_exec.run(body).expect("armed fixture run");
    assert_eq!(p.objects, a.objects, "gate: arming recovery changed clean-run results");
    assert!(
        overhead <= 1.30,
        "gate: armed-but-idle recovery regressed the clean path: \
         {armed:.0} ns vs {plain:.0} ns unarmed"
    );
    println!("gate ok");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is exactly the paper's evidence in the order `repro
    /// all` prints it, and every entry runs to the end at small scale.
    #[test]
    fn every_experiment_runs_at_small_scale() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig2", "table1", "table2", "table3", "table4", "table5", "table6", "table7",
                "fig7", "table8", "ablation"
            ]
        );
        for e in &EXPERIMENTS {
            assert!(!e.about.is_empty(), "{} has no description", e.name);
            (e.run)(Scale::Small);
        }
    }
}
