//! Experiment harness: workload construction, the memory-constraint
//! runner and table formatting shared by [`crate::experiments`].
//!
//! Every experiment follows the paper's §5 protocol:
//!
//! - `TOT` is the total memory a schedule needs without recycling (max
//!   over processors of permanent + volatile space);
//! - runs are repeated with per-processor capacity at 100/75/50/40/25 %
//!   of the **RCP schedule's** `TOT` (one common base per workload and
//!   processor count, so the `*` cells — "B executable where A is not" —
//!   are meaningful);
//! - "PT increase" is the simulated parallel time of the managed run over
//!   the parallel time of the *original RAPID* baseline (RCP order, all
//!   space preallocated, no memory-management overhead);
//! - `∞` marks non-executable combinations (Definition 6).

use rapid_core::graph::{ProcId, TaskGraph};
use rapid_core::memreq::{min_mem, MemReport};
use rapid_core::schedule::Schedule;
use rapid_machine::config::MachineConfig;
use rapid_rt::des::{run_managed, run_unmanaged, DesOutcome};
use rapid_rt::maps::ExecError;
use rapid_sched::assign::owner_compute_assignment;
use rapid_sparse::blockpart::ProcGrid;
use rapid_sparse::gen;
use rapid_sparse::taskgen::{cholesky_2d_model, lu_1d_model, CholeskyModel, LuModel};

/// Experiment scale: `Small` keeps every experiment under a few seconds
/// and is used by the tests; `Paper` matches the paper's matrix
/// dimensions (3 500–7 320).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Fast, same structure class.
    Small,
    /// Paper-sized matrices.
    Paper,
}

impl Scale {
    /// Parse from the process args: `--paper` selects paper scale.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }
}

/// A workload: a task graph plus an owner map per processor count.
pub enum Workload {
    /// 2-D block Cholesky.
    Chol(CholeskyModel),
    /// 1-D column-block LU.
    Lu(LuModel),
}

impl Workload {
    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        match self {
            Workload::Chol(m) => &m.graph,
            Workload::Lu(m) => &m.graph,
        }
    }

    /// Owner map for `p` processors.
    pub fn owner_map(&self, p: usize) -> Vec<ProcId> {
        match self {
            Workload::Chol(m) => {
                let grid = ProcGrid::new(p);
                m.block_of_obj.iter().map(|&(i, j)| grid.owner(i, j)).collect()
            }
            Workload::Lu(m) => {
                let nb = m.colpat.part.num_blocks();
                (0..nb).map(|k| (k % p) as ProcId).collect()
            }
        }
    }

    /// Total flops (the sum of all Fact/Scale/Update task weights).
    pub fn flops(&self) -> f64 {
        let g = self.graph();
        g.tasks().map(|t| g.weight(t)).sum()
    }
}

/// The BCSSTK15/24-like sparse Cholesky workload (paper §5.1 uses the
/// average of the two; we build both).
pub fn cholesky_workloads(scale: Scale) -> Vec<(String, Workload)> {
    let specs: &[(&str, usize, usize, usize, usize)] = match scale {
        // (name, nx, ny, dofs, block width)
        Scale::Small => &[("bcsstk15-like", 9, 8, 3, 9), ("bcsstk24-like", 7, 6, 6, 12)],
        Scale::Paper => &[("bcsstk15-like", 36, 36, 3, 24), ("bcsstk24-like", 24, 25, 6, 24)],
    };
    specs
        .iter()
        .map(|&(name, nx, ny, dofs, w)| {
            let a = gen::bcsstk_like(nx, ny, dofs, 1997);
            // Fill-reducing ordering first, as the paper's pipeline does.
            let a = a.permute_sym(&rapid_sparse::order::min_degree(&a));
            // Build once; the model is processor-count independent.
            (name.to_string(), Workload::Chol(cholesky_2d_model(&a, w, 1)))
        })
        .collect()
}

/// The GOODWIN-like sparse LU workload (paper §5.1, Table 3).
pub fn lu_workload(scale: Scale) -> (String, Workload) {
    // Scatter is kept at zero: GOODWIN's couplings are localized, and
    // even one random entry per column makes the AᵀA fill of the static
    // symbolic factorization nearly dense, which would let no ordering
    // recycle anything.
    let (n, band, scatter, w) = match scale {
        Scale::Small => (600, 8, 1, 16),
        Scale::Paper => (7320, 40, 1, 48),
    };
    let a = gen::goodwin_like(n, band, scatter, 1997);
    ("goodwin-like".to_string(), Workload::Lu(lu_1d_model(&a, w, 1, false)))
}

/// The BCSSTK33-like pattern for the large-LU experiment (Table 8).
pub fn bcsstk33_lu_workload(scale: Scale) -> (String, Workload) {
    // Narrow panels give enough update fan-out per elimination step that
    // 16 processors are throughput-bound, not chain-bound — the regime
    // the paper's Table 8 operates in.
    let (nx, ny, dofs, w) = match scale {
        Scale::Small => (10, 8, 3, 8),
        Scale::Paper => (45, 45, 3, 8),
    };
    let a = gen::bcsstk_like(nx, ny, dofs, 33);
    ("bcsstk33-like".to_string(), Workload::Lu(lu_1d_model(&a, w, 1, false)))
}

/// Which ordering heuristic to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Critical-path baseline.
    Rcp,
    /// Memory-priority guided.
    Mpo,
    /// Strict time slicing.
    Dts,
    /// Time slicing with Figure-6 slice merging at the run's capacity.
    DtsMerged,
}

impl Order {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Order::Rcp => "RCP",
            Order::Mpo => "MPO",
            Order::Dts => "DTS",
            Order::DtsMerged => "DTS+merge",
        }
    }
}

/// Build the schedule for a workload on `p` processors.
pub fn schedule(w: &Workload, p: usize, order: Order, capacity: u64) -> Schedule {
    let g = w.graph();
    let owner = w.owner_map(p);
    let assign = owner_compute_assignment(g, &owner, p);
    let cost = MachineConfig::t3d(p).cost_model();
    match order {
        Order::Rcp => rapid_sched::rcp::rcp_order(g, &assign, &cost),
        Order::Mpo => rapid_sched::mpo::mpo_order(g, &assign, &cost),
        Order::Dts => rapid_sched::dts::dts_order(g, &assign, &cost),
        Order::DtsMerged => rapid_sched::dts::dts_order_merged(g, &assign, &cost, capacity),
    }
}

/// A managed run at an absolute capacity. `Some` carries the outcome,
/// `None` means non-executable.
pub fn run_at(w: &Workload, sched: &Schedule, p: usize, capacity: u64) -> Option<DesOutcome> {
    let machine = MachineConfig::t3d(p).with_capacity(capacity);
    match run_managed(w.graph(), sched, machine) {
        Ok(o) => Some(o),
        Err(ExecError::NonExecutable { .. }) => None,
        Err(e) => panic!("unexpected executor error: {e}"),
    }
}

/// One cell of a memory-constraint table.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Parallel-time increase over the unmanaged baseline (`None` = ∞).
    pub pt_increase: Option<f64>,
    /// Average #MAPs (`None` = ∞).
    pub maps: Option<f64>,
}

/// The memory-constraint experiment behind Tables 2 and 3: for each
/// processor count, run the RCP schedule under each percentage of its own
/// `TOT` and report PT increase and average #MAPs.
pub fn mem_constraint_table(
    w: &Workload,
    ps: &[usize],
    pcts: &[f64],
    order: Order,
) -> Vec<(usize, Vec<Cell>)> {
    let mut rows = Vec::new();
    for &p in ps {
        let sched = schedule(w, p, order, u64::MAX);
        let rep = min_mem(w.graph(), &sched);
        let tot = rep.tot_no_recycle;
        let machine = MachineConfig::t3d(p).with_capacity(tot);
        let base = run_unmanaged(w.graph(), &sched, machine).expect("baseline fits its own TOT");
        let mut cells = Vec::new();
        for &pct in pcts {
            let cap = (tot as f64 * pct).floor() as u64;
            let cell = match run_at(w, &sched, p, cap) {
                Some(out) => Cell {
                    pt_increase: Some(out.parallel_time / base.parallel_time - 1.0),
                    maps: Some(out.avg_maps()),
                },
                None => Cell { pt_increase: None, maps: None },
            };
            cells.push(cell);
        }
        rows.push((p, cells));
    }
    rows
}

/// Build a schedule, reusing `cached` when the ordering does not depend
/// on the capacity (everything except slice-merged DTS).
fn schedule_cached<'c>(
    w: &Workload,
    p: usize,
    order: Order,
    cap: u64,
    cached: &'c mut Option<Schedule>,
) -> std::borrow::Cow<'c, Schedule> {
    if order == Order::DtsMerged {
        return std::borrow::Cow::Owned(schedule(w, p, order, cap));
    }
    if cached.is_none() {
        *cached = Some(schedule(w, p, order, u64::MAX));
    }
    std::borrow::Cow::Borrowed(cached.as_ref().expect("just filled"))
}

/// The heuristic-comparison experiment behind Tables 4, 6 and 7: each
/// cell is `PT_B / PT_A − 1` at capacity `pct · TOT(RCP)`; `*` = only B
/// executable, `-` = neither.
pub fn compare_table(
    w: &Workload,
    ps: &[usize],
    pcts: &[f64],
    a: Order,
    b: Order,
) -> Vec<(usize, Vec<String>)> {
    let mut rows = Vec::new();
    for &p in ps {
        let rcp = schedule(w, p, Order::Rcp, u64::MAX);
        let tot = min_mem(w.graph(), &rcp).tot_no_recycle;
        let mut cells = Vec::new();
        let (mut ca, mut cb) = (None, None);
        if a == Order::Rcp {
            ca = Some(rcp.clone());
        }
        for &pct in pcts {
            let cap = (tot as f64 * pct).floor() as u64;
            let sa = schedule_cached(w, p, a, cap, &mut ca);
            let sb = schedule_cached(w, p, b, cap, &mut cb);
            let ra = run_at(w, &sa, p, cap);
            let rb = run_at(w, &sb, p, cap);
            let cell = match (ra, rb) {
                (Some(oa), Some(ob)) => {
                    format!("{:+.1}%", (ob.parallel_time / oa.parallel_time - 1.0) * 100.0)
                }
                (None, Some(_)) => "*".to_string(),
                (Some(_), None) => "!".to_string(),
                (None, None) => "-".to_string(),
            };
            cells.push(cell);
        }
        rows.push((p, cells));
    }
    rows
}

/// Average-#MAPs comparison (Table 5): cells are `a/b`, `∞` for
/// non-executable.
pub fn maps_table(
    w: &Workload,
    ps: &[usize],
    pcts: &[f64],
    a: Order,
    b: Order,
) -> Vec<(usize, Vec<String>)> {
    let mut rows = Vec::new();
    for &p in ps {
        let rcp = schedule(w, p, Order::Rcp, u64::MAX);
        let tot = min_mem(w.graph(), &rcp).tot_no_recycle;
        let mut cells = Vec::new();
        let (mut ca, mut cb) = (None, None);
        for &pct in pcts {
            let cap = (tot as f64 * pct).floor() as u64;
            let fmt = |o: Order, cache: &mut Option<Schedule>| -> String {
                let s = schedule_cached(w, p, o, cap, cache);
                match run_at(w, &s, p, cap) {
                    Some(out) => format!("{:.2}", out.avg_maps()),
                    None => "∞".to_string(),
                }
            };
            let left = fmt(a, &mut ca);
            let right = fmt(b, &mut cb);
            cells.push(format!("{left}/{right}"));
        }
        rows.push((p, cells));
    }
    rows
}

/// Memory-scalability data (Figure 7): for each processor count, the
/// ratios `S1 / S_p^A` for each ordering plus the perfect `p` line.
pub fn memory_scalability(w: &Workload, ps: &[usize], orders: &[Order]) -> Vec<(usize, Vec<f64>)> {
    let mut rows = Vec::new();
    for &p in ps {
        let mut vals = Vec::new();
        for &o in orders {
            let sched = schedule(w, p, o, u64::MAX);
            let rep = min_mem(w.graph(), &sched);
            vals.push(rep.scalability());
        }
        rows.push((p, vals));
    }
    rows
}

/// Table-1 data: the no-recycling usage ratio of the original RAPID.
pub fn usage_ratio_row(w: &Workload, ps: &[usize]) -> Vec<(usize, f64)> {
    ps.iter()
        .map(|&p| {
            let sched = schedule(w, p, Order::Rcp, u64::MAX);
            let rep: MemReport = min_mem(w.graph(), &sched);
            (p, rep.avg_usage_ratio())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

/// Render an ASCII table: header row plus `(label, cells)` rows.
pub fn render_table(title: &str, header: &[String], rows: &[(String, Vec<String>)]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for (label, cells) in rows {
        widths[0] = widths[0].max(label.len());
        for (i, c) in cells.iter().enumerate() {
            widths[i + 1] = widths[i + 1].max(c.chars().count());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("| {:>w$} ", c, w = widths[i]));
        }
        out.push_str("|\n");
    };
    line(&mut out, header);
    out.push_str(&format!(
        "|{}|\n",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    ));
    for (label, cells) in rows {
        let mut full = vec![label.clone()];
        full.extend(cells.iter().cloned());
        line(&mut out, &full);
    }
    out
}

/// Format an optional percentage (`None` = ∞).
pub fn fmt_pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.1}%", x * 100.0),
        None => "∞".to_string(),
    }
}

/// Format an optional count (`None` = ∞).
pub fn fmt_maps(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "∞".to_string(),
    }
}

/// Standard processor sweeps.
pub fn procs_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![2, 4, 8],
        Scale::Paper => vec![2, 4, 8, 16, 32],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workloads_build() {
        let chol = cholesky_workloads(Scale::Small);
        assert_eq!(chol.len(), 2);
        for (name, w) in &chol {
            assert!(w.graph().num_tasks() > 50, "{name} too small");
            assert!(w.flops() > 0.0);
        }
        let (_, lu) = lu_workload(Scale::Small);
        assert!(lu.graph().num_tasks() > 20);
    }

    #[test]
    fn owner_maps_cover_all_procs() {
        let (_, w) = lu_workload(Scale::Small);
        for p in [2usize, 4, 8] {
            let o = w.owner_map(p);
            for q in 0..p as u32 {
                assert!(o.contains(&q), "P{q} owns nothing");
            }
        }
    }

    #[test]
    fn mem_table_shapes() {
        let (_, w) = lu_workload(Scale::Small);
        let rows = mem_constraint_table(&w, &[2, 4], &[1.0, 0.5], Order::Rcp);
        assert_eq!(rows.len(), 2);
        // 100% is always executable with PT increase >= ~0.
        for (_, cells) in &rows {
            assert!(cells[0].pt_increase.is_some());
            assert!(cells[0].pt_increase.unwrap() > -0.05);
        }
    }

    /// The paper's qualitative claims, executable at small scale — the
    /// regression net for the whole experiment harness.
    #[test]
    fn shapes_table1_ratio_grows_with_p() {
        let (_, w) = cholesky_workloads(Scale::Small).into_iter().next().unwrap();
        let r = usage_ratio_row(&w, &[2, 4, 8]);
        assert!(r[0].1 < r[1].1 && r[1].1 < r[2].1, "{r:?}");
        assert!(r[0].1 > 1.0, "usage must exceed S1/p");
    }

    #[test]
    fn shapes_table2_memory_pressure_costs_time() {
        let (_, w) = cholesky_workloads(Scale::Small).into_iter().next().unwrap();
        let rows = mem_constraint_table(&w, &[8], &[1.0, 0.75, 0.5, 0.4], Order::Rcp);
        let cells = &rows[0].1;
        // All executable at p=8, and the 40% run is no faster than 100%.
        assert!(cells.iter().all(|c| c.pt_increase.is_some()));
        assert!(cells[3].pt_increase.unwrap() >= cells[0].pt_increase.unwrap() - 1e-9);
        // #MAPs grow as memory shrinks.
        assert!(cells[3].maps.unwrap() > cells[0].maps.unwrap());
    }

    #[test]
    fn shapes_fig7_memory_scalability_ordering() {
        // LU: RCP is the least memory-scalable; MPO/DTS approach S1/p.
        let (_, w) = lu_workload(Scale::Small);
        let rows = memory_scalability(&w, &[8], &[Order::Rcp, Order::Mpo, Order::Dts]);
        let v = &rows[0].1;
        assert!(v[0] <= v[1] + 1e-9, "RCP {} must trail MPO {}", v[0], v[1]);
        assert!(v[0] <= v[2] + 1e-9, "RCP {} must trail DTS {}", v[0], v[2]);
        assert!(v[2] <= 8.0 + 1e-9, "cannot beat perfect scalability");
        assert!(v[2] > 3.0, "DTS should be reasonably close to perfect");
    }

    #[test]
    fn shapes_table4_star_cells_exist_for_lu() {
        // MPO rescues configurations RCP cannot run (the '*' cells).
        let (_, w) = lu_workload(Scale::Small);
        let rows = compare_table(&w, &[2, 4, 8], &[0.5, 0.4, 0.3, 0.25], Order::Rcp, Order::Mpo);
        let stars =
            rows.iter().flat_map(|(_, cells)| cells.iter()).filter(|c| c.as_str() == "*").count();
        assert!(stars > 0, "no '*' cells: {rows:?}");
    }

    #[test]
    fn shapes_table7_merged_dts_tracks_rcp() {
        let (_, w) = lu_workload(Scale::Small);
        let rows = compare_table(&w, &[8], &[0.75], Order::Rcp, Order::DtsMerged);
        let cell = &rows[0].1[0];
        // Parses as a percentage within ±15 %.
        let v: f64 = cell.trim_end_matches('%').parse().expect("numeric cell");
        assert!(v.abs() < 15.0, "merged DTS {v}% off RCP");
    }

    #[test]
    fn render_is_aligned() {
        let t = render_table(
            "T",
            &["p".into(), "a".into()],
            &[("2".into(), vec!["x".into()]), ("16".into(), vec!["yyy".into()])],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }
}
