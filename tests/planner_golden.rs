//! The planner's outputs, pinned at benchmark scale.
//!
//! Between the task graph and the run the planner orders every
//! processor's tasks (`rcp_order`, `mpo_order`, `dts_order`,
//! `dts_order_merged`), builds the protocol plan (`RtPlan::new`), places
//! the MAPs by counting (`RtPlan::place_maps`) and beside a best-fit arena
//! (`RtPlan::address_plan`, what `ThreadedExecutor::new` builds), and
//! proves the result (`verify`). Each output is hashed here on the
//! benchmark's own inputs and caps and must stay bit for bit what it was
//! when the values were recorded, whatever data structures compute it.
//!
//! Caps follow the benchmark's rule: `MIN_MEM + (TOT − MIN_MEM) / d` of
//! the workload's base ordering (MPO, or unmerged DTS for the merged
//! policy), or `TOT` where the workload runs without slack.
//!
//! A failing run lists every measured value in paste-ready form.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::{ProcId, TaskGraph};
use rapid::core::memreq::min_mem;
use rapid::core::schedule::{Assignment, CostModel, Schedule};
use rapid::rt::maps::AddressPlan;
use rapid::rt::{MapPlacement, MapWindow, PlannedMap, RtPlan};
use rapid::sched::assign::{cyclic_owner_map, owner_compute_assignment};
use rapid::sched::{plan_parallel, PlanPolicy};
use rapid::sparse::{gen, order, taskgen};

/// Workers the benchmark plans for.
const WORKERS: usize = 2;

/// FNV-1a, 64-bit, over little-endian encodings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed row, so that row boundaries are hashed too.
    fn row(&mut self, row: impl ExactSizeIterator<Item = u64>) {
        self.u64(row.len() as u64);
        for v in row {
            self.u64(v);
        }
    }
}

fn orders_digest(sched: &Schedule) -> u64 {
    let mut h = Fnv::new();
    h.u64(sched.order.len() as u64);
    for ord in &sched.order {
        h.row(ord.iter().map(|t| u64::from(t.0)));
    }
    h.0
}

fn rtplan_digest(plan: &RtPlan) -> u64 {
    let mut h = Fnv::new();
    h.u64(plan.msgs.len() as u64);
    for m in &plan.msgs {
        h.u64(u64::from(m.id));
        h.u64(u64::from(m.src_task.0));
        h.u64(u64::from(m.src_proc));
        h.u64(u64::from(m.dst_proc));
        h.row(plan.objs(m.id).iter().map(|d| u64::from(d.0)));
        h.u64(m.units);
        h.row(plan.dst_tasks(m.id).iter().map(|t| u64::from(t.0)));
    }
    for table in [&plan.in_msgs, &plan.out_msgs] {
        h.u64(table.len() as u64);
        for row in table.rows() {
            h.row(row.iter().map(|&v| u64::from(v)));
        }
    }
    h.0
}

fn map_row(h: &mut Fnv, m: &PlannedMap) {
    h.u64(u64::from(m.pos));
    h.row(m.frees.iter().map(|d| u64::from(d.0)));
    h.row(m.allocs.iter().map(|d| u64::from(d.0)));
    h.row(m.alloc_pos.iter().map(|&p| u64::from(p)));
    h.u64(u64::from(m.next_map));
    h.u64(m.notifies.len() as u64);
    for n in &m.notifies {
        h.u64(u64::from(n.dst));
        h.u64(u64::from(n.obj));
        h.u64(n.offset);
    }
    h.u64(m.in_use);
}

fn placement_digest(placement: &MapPlacement) -> u64 {
    let mut h = Fnv::new();
    h.u64(placement.capacity);
    h.u64(placement.per_proc.len() as u64);
    for rows in &placement.per_proc {
        h.u64(rows.len() as u64);
        for m in rows {
            map_row(&mut h, m);
        }
    }
    h.0
}

fn address_digest(ap: &AddressPlan) -> u64 {
    let mut h = Fnv::new();
    h.u64(placement_digest(&ap.placement));
    h.row(ap.perm_off.iter().copied());
    h.u64(ap.offsets.len() as u64);
    for offs in &ap.offsets {
        h.row(offs.iter().copied());
    }
    h.row(ap.peak.iter().copied());
    h.row(ap.high_water.iter().copied());
    h.row(ap.cuts.iter().map(|&c| u64::from(c)));
    h.0
}

fn peak_digest(peak: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.row(peak.iter().copied());
    h.0
}

/// Every mismatch of one test, reported together.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn pin(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.0.push(format!("{what}: measured {got:#018x}, recorded {want:#018x}"));
        }
    }

    #[track_caller]
    fn finish(self) {
        assert!(self.0.is_empty(), "{} values moved:\n{}", self.0.len(), self.0.join("\n"));
    }
}

/// One benchmark workload, built as `benchmark/src/workload.rs` builds it.
struct Workload {
    g: TaskGraph,
    owner: Vec<ProcId>,
}

impl Workload {
    fn chol(grid: usize, block_w: usize, seed: u64) -> Workload {
        let a = gen::bcsstk_like(grid, grid, 3, seed);
        let a = a.permute_sym(&order::min_degree(&a));
        let m = taskgen::cholesky_2d_model(&a, block_w, WORKERS);
        Workload { g: m.graph, owner: m.owner }
    }

    fn lu_panel(seed: u64) -> Workload {
        let m = taskgen::lu_1d_model(&gen::goodwin_like(2400, 16, 1, seed), 24, WORKERS, true);
        Workload { g: m.graph, owner: m.owner }
    }

    fn irregular_tight(seed: u64) -> Workload {
        let spec = RandomGraphSpec { objects: 5000, tasks: 50_000, ..RandomGraphSpec::default() };
        let g = random_irregular_graph(seed, &spec);
        let owner = cyclic_owner_map(g.num_objects(), WORKERS);
        Workload { g, owner }
    }

    fn assign(&self) -> Assignment {
        owner_compute_assignment(&self.g, &self.owner, WORKERS)
    }

    /// The benchmark's cap, from the memory report of the base ordering
    /// `base`; `slack_div` `None` means `TOT`.
    fn cap(&self, base: &Schedule, slack_div: Option<u64>) -> u64 {
        let rep = min_mem(&self.g, base);
        match slack_div {
            Some(d) => rep.min_mem + (rep.tot_no_recycle - rep.min_mem) / d,
            None => rep.tot_no_recycle,
        }
    }
}

fn order_by(g: &TaskGraph, assign: &Assignment, policy: PlanPolicy) -> Schedule {
    plan_parallel(g, assign, &CostModel::unit(), policy, 1)
}

/// Pin the benchmark plan of `sched` under `cap`: the protocol plan, the
/// counting placement, the address plan and the verifier's peaks.
fn pin_plan(pins: &mut Pins, name: &str, w: &Workload, sched: &Schedule, cap: u64, want: [u64; 5]) {
    let plan = RtPlan::new(&w.g, sched);
    let placement = plan.place_maps(&w.g, sched, cap, MapWindow::Greedy).expect("placeable");
    let report = rapid::verify::verify(&w.g, sched, &plan, &placement);
    assert!(report.accepted(), "{name}: {:?}", report.findings);
    let ap = plan.address_plan(&w.g, sched, cap).expect("address plan");
    pins.pin(&format!("{name} cap"), cap, want[0]);
    pins.pin(&format!("{name} RtPlan"), rtplan_digest(&plan), want[1]);
    pins.pin(&format!("{name} place_maps"), placement_digest(&placement), want[2]);
    pins.pin(&format!("{name} address_plan"), address_digest(&ap), want[3]);
    pins.pin(&format!("{name} verify peak"), peak_digest(&report.peak), want[4]);
}

#[test]
fn chol_small_plan() {
    let mut pins = Pins::default();
    let w = Workload::chol(6, 9, 1997);
    let assign = w.assign();
    let sched = order_by(&w.g, &assign, PlanPolicy::Mpo);
    let cap = w.cap(&sched, None);
    pins.pin("chol-small MPO", orders_digest(&sched), 0x3fd9_47e4_d590_1fe5);
    let want = [
        5022,
        0x6414_b934_5231_243a,
        0x6508_f489_658e_b367,
        0xad86_9eed_72ed_c566,
        0x8d4d_fec2_164d_6e1b,
    ];
    pin_plan(&mut pins, "chol-small", &w, &sched, cap, want);
    pins.finish();
}

#[test]
fn lu_panel_plan() {
    let mut pins = Pins::default();
    let w = Workload::lu_panel(1997);
    let assign = w.assign();
    let cap = w.cap(&order_by(&w.g, &assign, PlanPolicy::Dts), Some(4));
    let sched = order_by(&w.g, &assign, PlanPolicy::DtsMerged { capacity: cap });
    // Re-recorded when numeric panels went from full height to their static
    // row extent: the object sizes, and with them the cap and the plan, moved.
    pins.pin("lu-panel merged DTS", orders_digest(&sched), 0x0d63_9d5a_25fb_14fa);
    let want = [
        0x0009_058e,
        0x9393_eadb_39f8_5ef1,
        0x3590_add0_4d84_0120,
        0x9f96_624c_380d_4075,
        0x530e_198c_e2d2_a23b,
    ];
    pin_plan(&mut pins, "lu-panel", &w, &sched, cap, want);
    pins.finish();
}

#[test]
fn irregular_tight_orders_and_plan() {
    for (seed, want_orders, want_plan) in [
        (
            1997,
            [
                0xeb26_debf_f4db_4bed,
                0x3d98_adc2_ef4c_0771,
                0x4e5b_146b_94c2_9c2d,
                0x87c1_b8a2_b205_6c55,
            ],
            [
                0xb716,
                0xd12f_00a8_eb33_b8bd,
                0xb4b5_988e_3248_a248,
                0x12cc_c022_8767_f81e,
                0x978b_1fc4_c72f_1533,
            ],
        ),
        (
            53,
            [
                0xc3e4_1da2_fe70_3e5e,
                0x8943_198a_0872_04ce,
                0xa486_67e0_3f22_1d4a,
                0x4b9f_ad5c_1cc2_28e6,
            ],
            [
                0xb8d1,
                0xebe2_3184_8b83_59f5,
                0xa3dd_90fb_5825_5ec5,
                0xbed5_37f4_ceda_5586,
                0xec03_85d0_9826_da27,
            ],
        ),
        // Here a cut costs a MAP: the address plan cuts windows
        // (`AddressPlan::cuts` is `[1, 2]`) and has 28 MAPs, counting 27.
        (
            37,
            [
                0xa816_1850_33d2_d5b1,
                0x0e99_6915_576a_8615,
                0x2ae4_44d2_c287_4575,
                0x642c_b530_5388_13a1,
            ],
            [
                0xb949,
                0xa451_1a54_ae95_2756,
                0x3d8b_cb55_6008_2858,
                0x882e_add4_dae7_8333,
                0x0ec5_4563_ecaa_295b,
            ],
        ),
    ] {
        let mut pins = Pins::default();
        let w = Workload::irregular_tight(seed);
        let assign = w.assign();
        let mpo = order_by(&w.g, &assign, PlanPolicy::Mpo);
        let cap = w.cap(&mpo, Some(20));
        let name = format!("irregular-tight {seed}");
        pins.pin(&format!("{name} MPO"), orders_digest(&mpo), want_orders[0]);
        let others = [
            ("RCP", PlanPolicy::Rcp),
            ("DTS", PlanPolicy::Dts),
            ("merged DTS", PlanPolicy::DtsMerged { capacity: cap }),
        ];
        for ((policy_name, policy), want) in others.into_iter().zip(&want_orders[1..]) {
            let sched = order_by(&w.g, &assign, policy);
            pins.pin(&format!("{name} {policy_name}"), orders_digest(&sched), *want);
        }
        pin_plan(&mut pins, &name, &w, &mpo, cap, want_plan);
        pins.finish();
    }
}

#[test]
fn chol_large_orders_and_plan() {
    let mut pins = Pins::default();
    let w = Workload::chol(36, 24, 1997);
    let assign = w.assign();
    let mpo = order_by(&w.g, &assign, PlanPolicy::Mpo);
    let cap = w.cap(&mpo, Some(4));
    pins.pin("chol-large MPO", orders_digest(&mpo), 0xf616_037a_7977_7e59);
    for (name, policy, want) in [
        ("RCP", PlanPolicy::Rcp, 0x0f2c_6b55_0a5f_1995),
        ("DTS", PlanPolicy::Dts, 0xbcc2_2722_1b31_c4f5),
    ] {
        pins.pin(
            &format!("chol-large {name}"),
            orders_digest(&order_by(&w.g, &assign, policy)),
            want,
        );
    }
    let want = [
        0x0026_f6d0,
        0x123f_e3c1_f5c4_bdd2,
        0x96de_57ab_4e4b_e916,
        0x3151_3e67_d465_a839,
        0xb437_5f91_315d_c087,
    ];
    pin_plan(&mut pins, "chol-large", &w, &mpo, cap, want);
    pins.finish();
}

/// The §6 control-overhead estimate `repro ablation` reports, on the
/// Figure-2, Cholesky and LU fixtures (those of `tests/des_golden.rs`): it
/// counts message rows and liveness entries, so it must not drift with
/// their layout.
#[test]
fn control_units_of_the_fixtures() {
    use rapid::core::fixtures;
    use rapid::sched::mpo_order;
    let mut pins = Pins::default();
    let fig2 = fixtures::figure2_dag();
    let chol = taskgen::cholesky_2d_model(&gen::grid2d_laplacian(6, 5), 6, 4);
    let lu = taskgen::lu_1d_model(&gen::goodwin_like(60, 4, 1, 5), 10, 3, true);
    let mpo = |g: &TaskGraph, owner: &[ProcId], p: usize| {
        mpo_order(g, &owner_compute_assignment(g, owner, p), &CostModel::unit())
    };
    let cases = [
        ("fig2 (b)", &fig2, fixtures::figure2_schedule_b(), 81),
        ("fig2 (c)", &fig2, fixtures::figure2_schedule_c(), 81),
        ("cholesky", &chol.graph, mpo(&chol.graph, &chol.owner, 4), 74),
        ("lu", &lu.graph, mpo(&lu.graph, &lu.owner, 3), 120),
    ];
    for (name, g, sched, want) in cases {
        pins.pin(name, RtPlan::new(g, &sched).control_units(g), want);
    }
    pins.finish();
}
