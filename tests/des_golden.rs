//! Golden discrete-event outcomes.
//!
//! The rows below were recorded at the last commit whose DES ran its own
//! copy of the five-state machine (1713471, `DesExecutor::run` with the
//! `HashSet` address table and the FIFO suspended-queue scan). The DES now
//! steps the shared protocol core from its event heap and must reproduce
//! every row bit for bit: virtual time is a pure function of the order in
//! which costs are charged and wake events are pushed, so any change of
//! that order shows up here before it shows up in a paper table.
//!
//! The test lives at the workspace root because the Cholesky and LU
//! fixtures come from `rapid-sparse`, which depends on `rapid-rt`.
//!
//! To re-record after an *intended* change of the cost model, paste the
//! rows the failing assertion prints.

use rapid::core::fixtures::{self, random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::TaskGraph;
use rapid::core::memreq::min_mem;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, taskgen};

/// Everything a DES run reports that does not depend on tracing.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    name: &'static str,
    parallel_time_bits: u64,
    maps: Vec<u32>,
    peak_mem: Vec<u64>,
    msgs_sent: usize,
    addr_pkgs_sent: usize,
    suspended_sends: usize,
    /// FNV-1a over the little-endian bits of every task's finish time.
    finish_fnv: u64,
}

fn fnv(finish: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in finish.iter().flat_map(|f| f.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn row(name: &'static str, g: &TaskGraph, sched: &Schedule, cfg: DesConfig) -> Row {
    let out = DesExecutor::new(g, sched, cfg).run().unwrap_or_else(|e| panic!("{name}: {e}"));
    Row {
        name,
        parallel_time_bits: out.parallel_time.to_bits(),
        maps: out.maps,
        peak_mem: out.peak_mem,
        msgs_sent: out.msgs_sent,
        addr_pkgs_sent: out.addr_pkgs_sent,
        suspended_sends: out.suspended_sends,
        finish_fnv: fnv(&out.finish),
    }
}

fn random(seed: u64, nprocs: usize) -> (TaskGraph, Schedule) {
    let spec = RandomGraphSpec { objects: 24, tasks: 80, ..Default::default() };
    let g = random_irregular_graph(seed, &spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    (g, sched)
}

fn measured() -> Vec<Row> {
    let mut rows = Vec::new();
    let t3d = |nprocs: usize, cap: u64| MachineConfig::t3d(nprocs).with_capacity(cap);

    let fig2 = fixtures::figure2_dag();
    let fig2c = fixtures::figure2_schedule_c();
    rows.push(row("fig2c-cap8-unit", &fig2, &fig2c, DesConfig::managed(MachineConfig::unit(2, 8))));
    rows.push(row("fig2c-cap8-t3d", &fig2, &fig2c, DesConfig::managed(t3d(2, 8))));

    // Schedule (c) on three processors: the third owns nothing and runs
    // nothing, and still performs its one empty MAP.
    let mut assign = fig2c.assign.clone();
    assign.nprocs = 3;
    let idle =
        Schedule { assign, order: vec![fig2c.order[0].clone(), fig2c.order[1].clone(), vec![]] };
    rows.push(row("fig2c-idle-proc", &fig2, &idle, DesConfig::managed(t3d(3, 8))));
    rows.push(row("fig2c-idle-proc-unmanaged", &fig2, &idle, DesConfig::unmanaged(t3d(3, 100))));

    let a = gen::grid2d_laplacian(6, 5);
    let chol = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&chol.graph, &chol.owner, 4);
    let chol_sched = mpo_order(&chol.graph, &assign, &CostModel::unit());
    let chol_mm = min_mem(&chol.graph, &chol_sched);
    rows.push(row(
        "cholesky-min-mem",
        &chol.graph,
        &chol_sched,
        DesConfig::managed(t3d(4, chol_mm.min_mem)),
    ));
    let tot = (0..4).map(|p| chol_mm.no_recycle(p)).max().unwrap_or(0);
    rows.push(row(
        "cholesky-unmanaged",
        &chol.graph,
        &chol_sched,
        DesConfig::unmanaged(t3d(4, tot)),
    ));

    let a = gen::goodwin_like(60, 4, 1, 5);
    let lu = taskgen::lu_1d_model(&a, 10, 3, true);
    let assign = owner_compute_assignment(&lu.graph, &lu.owner, 3);
    let lu_sched = mpo_order(&lu.graph, &assign, &CostModel::unit());
    let lu_mm = min_mem(&lu.graph, &lu_sched).min_mem;
    rows.push(row("lu-min-mem", &lu.graph, &lu_sched, DesConfig::managed(t3d(3, lu_mm))));

    let (g3, s3) = random(3, 3);
    let mm3 = min_mem(&g3, &s3).min_mem;
    let (g11, s11) = random(11, 4);
    let mm11 = min_mem(&g11, &s11).min_mem;
    rows.push(row("random3-min-mem", &g3, &s3, DesConfig::managed(t3d(3, mm3))));
    rows.push(row("random3-slack", &g3, &s3, DesConfig::managed(t3d(3, mm3 + 6))));
    rows.push(row("random11-min-mem", &g11, &s11, DesConfig::managed(t3d(4, mm11))));
    rows.push(row("random11-slack", &g11, &s11, DesConfig::managed(t3d(4, mm11 + 6))));
    rows.push(row(
        "random3-delay-faults",
        &g3,
        &s3,
        DesConfig::managed(t3d(3, mm3)).with_faults(FaultPlan::delay_heavy(7)),
    ));
    rows
}

#[rustfmt::skip]
fn golden() -> Vec<Row> {
    vec![
        Row { name: "fig2c-cap8-unit", parallel_time_bits: 0x402e000000000000, maps: vec![1, 2], peak_mem: vec![7, 8], msgs_sent: 5, addr_pkgs_sent: 3, suspended_sends: 2, finish_fnv: 0xf7d99db8eacb61e },
        Row { name: "fig2c-cap8-t3d", parallel_time_bits: 0x3f21a23b4e525c78, maps: vec![1, 2], peak_mem: vec![7, 8], msgs_sent: 5, addr_pkgs_sent: 3, suspended_sends: 4, finish_fnv: 0x3eaf1ec0cbc8dc94 },
        Row { name: "fig2c-idle-proc", parallel_time_bits: 0x3f21a23b4e525c78, maps: vec![1, 2, 1], peak_mem: vec![7, 8, 0], msgs_sent: 5, addr_pkgs_sent: 3, suspended_sends: 4, finish_fnv: 0x3eaf1ec0cbc8dc94 },
        Row { name: "fig2c-idle-proc-unmanaged", parallel_time_bits: 0x3ef40a70a8ccc409, maps: vec![0, 0, 0], peak_mem: vec![7, 9, 0], msgs_sent: 5, addr_pkgs_sent: 0, suspended_sends: 0, finish_fnv: 0x3843159fb3bfe015 },
        Row { name: "cholesky-min-mem", parallel_time_bits: 0x3f2b64697d07c6bd, maps: vec![2, 1, 1, 1], peak_mem: vec![144, 144, 144, 144], msgs_sent: 8, addr_pkgs_sent: 5, suspended_sends: 1, finish_fnv: 0x50cfb14463744688 },
        Row { name: "cholesky-unmanaged", parallel_time_bits: 0x3f178e6a617a3826, maps: vec![0, 0, 0, 0], peak_mem: vec![180, 144, 144, 144], msgs_sent: 8, addr_pkgs_sent: 0, suspended_sends: 0, finish_fnv: 0xa2199e626ed3f02b },
        // Re-recorded when numeric LU panels went from full height to their
        // static row extent (smaller objects, so smaller peaks and puts).
        Row { name: "lu-min-mem", parallel_time_bits: 0x3f51f9182fb687ab, maps: vec![2, 3, 4], peak_mem: vec![1760, 1770, 1820], msgs_sent: 9, addr_pkgs_sent: 9, suspended_sends: 6, finish_fnv: 0x3ad9ab7b9689ff6 },
        Row { name: "random3-min-mem", parallel_time_bits: 0x3f4f736414517b7d, maps: vec![5, 4, 7], peak_mem: vec![70, 69, 70], msgs_sent: 79, addr_pkgs_sent: 28, suspended_sends: 33, finish_fnv: 0x5de6d5348dd68a57 },
        Row { name: "random3-slack", parallel_time_bits: 0x3f4fdeef9eb58a12, maps: vec![4, 3, 3], peak_mem: vec![75, 73, 76], msgs_sent: 79, addr_pkgs_sent: 19, suspended_sends: 26, finish_fnv: 0x74cf56dfa3c29f67 },
        Row { name: "random11-min-mem", parallel_time_bits: 0x3f500e6a91195251, maps: vec![3, 3, 5, 3], peak_mem: vec![51, 51, 51, 49], msgs_sent: 109, addr_pkgs_sent: 33, suspended_sends: 32, finish_fnv: 0x3ee5368c615f92a4 },
        Row { name: "random11-slack", parallel_time_bits: 0x3f4effa94a35e469, maps: vec![2, 2, 3, 2], peak_mem: vec![57, 56, 57, 57], msgs_sent: 109, addr_pkgs_sent: 24, suspended_sends: 20, finish_fnv: 0x661d5635470533a8 },
        Row { name: "random3-delay-faults", parallel_time_bits: 0x3f6537a97aa33a6e, maps: vec![5, 4, 7], peak_mem: vec![70, 69, 70], msgs_sent: 79, addr_pkgs_sent: 28, suspended_sends: 33, finish_fnv: 0x2cc36c3c06863d18 },
    ]
}

#[test]
fn des_outcomes_match_the_recorded_rows() {
    let rows = measured();
    // On a mismatch, print what was measured in the form `golden` holds.
    let measured: String = rows
        .iter()
        .map(|r| {
            format!(
                "        Row {{ name: {:?}, parallel_time_bits: {:#x}, maps: vec!{:?}, \
                 peak_mem: vec!{:?}, msgs_sent: {}, addr_pkgs_sent: {}, suspended_sends: {}, \
                 finish_fnv: {:#x} }},\n",
                r.name,
                r.parallel_time_bits,
                r.maps,
                r.peak_mem,
                r.msgs_sent,
                r.addr_pkgs_sent,
                r.suspended_sends,
                r.finish_fnv
            )
        })
        .collect();
    assert!(rows == golden(), "DES outcomes moved; measured rows:\n{measured}");
}
