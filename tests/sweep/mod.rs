//! The protocol contract from one generator and one oracle.
//!
//! Theorem 1 (deadlock-free, data-consistent) and Theorem 2 (executable
//! under `S1/p + h`) are checked on seeded lists of [`Case`]s: points of
//! graph × processors × policy × capacity × fault × tracing × recovery ×
//! driver. Every case goes through one [`oracle`]: the
//! verifier accepts iff `MIN_MEM` fits, iff the DES runs, iff threads run
//! or the address plan said `Fragmented` first; the address plan passes a
//! unit-occupancy oracle kept here; threaded results are bitwise
//! `run_sequential` and their MAP counts, peaks and traced MAP events
//! are the plan's rows; every trace checks clean, fault-free
//! runs find no slot busy and fault-free drivers emit one skeleton; a
//! faulted run completes bitwise unless its plan was rejected, an armed
//! one heals a one-shot panic with one rollback, and seeded DES reruns are
//! byte-identical.
//!
//! The integration suites are slices of the space: each test names the
//! cases it owns and the counts its slice must reach, and runs them
//! through [`sweep`]. A failing case panics with itself as a Rust literal,
//! to paste into `REGRESSIONS` in `protocol_sweep.rs` and replay alone.
//! What is not sweep-shaped stays a named test beside its slices.

#![allow(dead_code)]

use rapid::core::dcg::Dcg;
use rapid::core::fixtures::{
    figure2_dag, figure2_schedule_c, random_irregular_graph, RandomGraphSpec,
};
use rapid::core::memreq::MemReport;
use rapid::machine::fault::FaultSite;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::des::{run_unmanaged, DesConfig};
use rapid::rt::maps::AddressPlan;
use rapid::rt::threaded::{run_sequential, ThreadedOutcome};
use rapid::rt::{ExecError, MapPlacement, MapWindow, RtPlan, TaskCtx};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sched::dts::merge_slices;
use rapid::sparse::{gen, taskgen};
use rapid::trace::{check, decode_ring, encode_trace, skeletons, CanonEvent};
use rapid::trace::{Event, ProcMetrics, NO_OFFSET};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
pub use Cap::*;
pub use Costs::*;
pub use Driver::*;
pub use Fault::*;
pub use Graph::*;
pub use Policy::*;
pub use Rec::*;

/// One point of the space.
#[derive(Clone, Debug)]
pub struct Case {
    pub graph: Graph,
    /// Processors.
    pub p: usize,
    pub policy: Policy,
    pub cap: Cap,
    pub fault: Option<Fault>,
    /// Both drivers record a trace, and the oracle judges it.
    pub traced: bool,
    pub rec: Rec,
    pub driver: Driver,
    /// Runs of the same executor (threads) or configuration (DES).
    pub rounds: u32,
}

#[derive(Clone, Debug)]
pub enum Graph {
    /// `random_irregular_graph(seed, &spec)`, objects owned cyclically.
    Random(u64, RandomGraphSpec),
    /// 2-D block Cholesky of a 6 × 5 grid Laplacian, blocks of 6.
    Cholesky,
    /// 1-D LU of `goodwin_like(60, 4, 1, 5)`, panels of 10.
    Lu,
    /// The benchmark's `irregular-tight` generator at 2 000 tasks.
    IrregularTight(u64),
    /// Random DAG 52 (48 objects, 160 tasks): on four processors under MPO
    /// at `MIN_MEM + 8`, P2's best-fit walk runs out of room in the middle
    /// of the task at 22. A cut that kept the buffer already placed would
    /// announce it three tasks before its reader can ask for it.
    MidTaskCut,
    /// A fixed schedule built to cut a window (see [`cut_window`]).
    CutWindow,
    /// A fixed schedule whose last volatile has size 0 and meets a full
    /// heap (see [`zero_at_capacity`]).
    ZeroAtCapacity,
    /// Figure 2's schedule (c) on three processors, the third idle.
    IdleProc,
    /// An idle processor that owns more than anyone uses (see
    /// [`idle_owner`]).
    IdleOwner,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    Rcp,
    Mpo,
    Dts,
    /// DTS with slices merged under a budget of the sequential space.
    DtsMerged,
    /// The graph's own schedule.
    Fixed,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cap {
    BelowMin,
    AtMin,
    Slack(u64),
    /// `TOT`: nothing recycled.
    Tot,
    /// A twentieth of the way from `MIN_MEM` to `TOT` (`irregular-tight`).
    Twentieth,
    /// The least capacity from `MIN_MEM` up that the address plan places.
    Placeable,
    /// Theorem 2's instance: `max_p perm[p] + Dcg::theorem2_h`.
    Thm2,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The entry of `FaultPlan::scenarios(seed)` so named.
    Scenario(&'static str, u64),
    /// That scenario, and the body panics the first time it runs a task
    /// drawn from the seed ([`panicking_task`]).
    ScenarioPanic(&'static str, u64),
    /// The body panics the first time it runs this task.
    PanicOnce(u32),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rec {
    Unarmed,
    Armed,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    /// The static lines only.
    PlanOnly,
    Threads,
    Des(Costs),
    /// Both drivers, compared.
    Both(Costs),
}

/// The DES machine: `MachineConfig::unit` or `MachineConfig::t3d`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Costs {
    Unit,
    T3d,
}

/// What a family of cases met, so that it can say it met everything.
#[derive(Debug, Default)]
pub struct Tally {
    pub placed: usize,
    pub with_cuts: usize,
    pub fragmented: usize,
    pub non_executable: usize,
    pub thr_ok: usize,
    pub planned_rejections: usize,
    pub des_ok: usize,
    pub compared: usize,
    /// Slots found busy, fault records, and injected mailbox rejections.
    pub busy: u32,
    pub injected: usize,
    pub rejects: usize,
    /// Rollbacks in skeletons.
    pub rollbacks: usize,
}

pub fn spec(objects: usize, tasks: usize, max_obj_size: u64) -> RandomGraphSpec {
    RandomGraphSpec { objects, tasks, max_obj_size, ..RandomGraphSpec::default() }
}

/// A fault-free, untraced, unarmed single run of the static lines.
pub fn at(graph: Graph, p: usize, policy: Policy, cap: Cap) -> Case {
    Case {
        graph,
        p,
        policy,
        cap,
        fault: None,
        traced: false,
        rec: Unarmed,
        driver: PlanOnly,
        rounds: 1,
    }
}

pub fn random(seed: u64, s: &RandomGraphSpec, p: usize, policy: Policy, cap: Cap) -> Case {
    at(Random(seed, s.clone()), p, policy, cap)
}

/// Random DAG 7 of unit objects, tight enough to force several MAPs per
/// processor: the tracing fixture.
pub fn trace_fixture() -> Case {
    random(7, &spec(18, 50, 1), 3, Mpo, Slack(2))
}

/// Random DAG 5 on four processors: a body fails its task 17.
pub fn victim() -> Case {
    random(5, &spec(12, 30, 4), 4, Mpo, Slack(8))
}

impl Case {
    /// Untraced, on `driver`.
    pub fn on(self, driver: Driver) -> Case {
        Case { driver, ..self }
    }

    /// Traced, on `driver`.
    pub fn traced_on(self, driver: Driver) -> Case {
        Case { driver, traced: true, ..self }
    }
}

/// A random-DAG `base` at every graph seed of `seeds`.
pub fn grid(seeds: std::ops::Range<u64>, base: Case) -> Vec<Case> {
    let Random(_, s) = &base.graph else { panic!("{base:?} is not seeded") };
    seeds.map(|seed| Case { graph: Random(seed, s.clone()), ..base.clone() }).collect()
}

/// Every scenario at fault seeds `seeds`, on `base`. Armed, each case's
/// body also panics once ([`ScenarioPanic`]): a scenario only delays and
/// rejects, so without it the recovery would have nothing to heal.
pub fn scenarios(base: &Case, seeds: impl Iterator<Item = u64>) -> Vec<Case> {
    let fault = if base.rec == Armed { ScenarioPanic } else { Scenario };
    seeds
        .flat_map(|seed| {
            FaultPlan::scenarios(seed)
                .into_iter()
                .map(move |(name, _)| Case { fault: Some(fault(name, seed)), ..base.clone() })
        })
        .collect()
}

/// The task whose body the case's fault makes panic once, if any.
pub fn panicking_task(c: &Case, g: &TaskGraph) -> Option<TaskId> {
    match c.fault? {
        PanicOnce(t) => Some(TaskId(t)),
        ScenarioPanic(_, seed) => {
            let draw = seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            Some(TaskId((draw % g.num_tasks() as u64) as u32))
        }
        Scenario(..) => None,
    }
}

/// P1 reads `a`(3) `b`(2) `c`(3), then `b` and `d`(2), then `e`(4), into
/// its one unit `x`, at capacity 9 = `MIN_MEM`. Its first MAP fills the
/// heap `x a b c`; the second frees `a` and `c`, two holes of 3 around
/// `b`, puts `d` in the first and counts 4 units free for `e` — 1 and 3,
/// so `e` waits for a third MAP, before its own task, that counting alone
/// does not plan.
pub fn cut_window() -> (TaskGraph, Schedule) {
    let mut b = TaskGraphBuilder::new();
    let [a, bb, c] = [3, 2, 3].map(|n| b.add_object(n));
    let x = b.add_object(1);
    let [d, e] = [2, 4].map(|n| b.add_object(n));
    let [wa, wb, wc] = [a, bb, c].map(|o| b.add_task(1.0, &[], &[o]));
    let [wd, we] = [d, e].map(|o| b.add_task(1.0, &[], &[o]));
    let t0 = b.add_task(1.0, &[a, bb, c], &[x]);
    let t1 = b.add_task(1.0, &[bb, d], &[x]);
    let t2 = b.add_task(1.0, &[e], &[x]);
    let edges = [(wa, t0), (wb, t0), (wc, t0), (wb, t1), (wd, t1), (we, t2), (t0, t1), (t1, t2)];
    edges.into_iter().for_each(|(from, to)| b.add_edge(from, to));
    let g = b.build().expect("acyclic");
    let assign = Assignment {
        task_proc: vec![0, 0, 0, 2, 2, 1, 1, 1],
        owner: vec![0, 0, 0, 1, 2, 2],
        nprocs: 3,
    };
    let sched = Schedule { assign, order: vec![vec![wa, wb, wc], vec![t0, t1, t2], vec![wd, we]] };
    (g, sched)
}

/// P0's task writes `x`(1), `y`(3) and `z`(0); P1's reads `y` and `z` into
/// its `w`(1). At `MIN_MEM` = 4, `y` fills P1's heap to the last unit and
/// `z` still needs a place: the end of the heap.
pub fn zero_at_capacity() -> (TaskGraph, Schedule) {
    let mut b = TaskGraphBuilder::new();
    let [x, y, z, w] = [1, 3, 0, 1].map(|n| b.add_object(n));
    let a = b.add_task(1.0, &[], &[x, y, z]);
    let r = b.add_task(1.0, &[y, z], &[w]);
    b.add_edge(a, r);
    let g = b.build().expect("acyclic");
    let assign = Assignment { task_proc: vec![0, 1], owner: vec![0, 0, 0, 1], nprocs: 2 };
    (g, Schedule { assign, order: vec![vec![a], vec![r]] })
}

/// P0 runs one task on its 1-unit permanent; P1 runs nothing and owns one
/// untouched 10-unit object. `MIN_MEM` is 10, P1's permanents alone, and
/// below it P1's one MAP, which holds no task, must refuse.
pub fn idle_owner() -> (TaskGraph, Schedule) {
    let mut b = TaskGraphBuilder::new();
    let [a, _] = [1, 10].map(|n| b.add_object(n));
    let t = b.add_task(1.0, &[], &[a]);
    let g = b.build().expect("acyclic");
    let assign = Assignment { task_proc: vec![0], owner: vec![0, 1], nprocs: 2 };
    (g, Schedule { assign, order: vec![vec![t], vec![]] })
}

pub fn build(c: &Case) -> (TaskGraph, Schedule) {
    let p = c.p;
    let random = |seed, s: &RandomGraphSpec| {
        let g = random_irregular_graph(seed, s);
        let owner = cyclic_owner_map(g.num_objects(), p);
        (g, owner)
    };
    let (g, owner) = match &c.graph {
        Random(seed, s) => random(*seed, s),
        MidTaskCut => random(52, &spec(48, 160, 4)),
        IrregularTight(seed) => random(*seed, &spec(200, 2000, 4)),
        Cholesky => {
            let m = taskgen::cholesky_2d_model(&gen::grid2d_laplacian(6, 5), 6, p);
            (m.graph, m.owner)
        }
        Lu => {
            let m = taskgen::lu_1d_model(&gen::goodwin_like(60, 4, 1, 5), 10, p, true);
            (m.graph, m.owner)
        }
        CutWindow => return cut_window(),
        ZeroAtCapacity => return zero_at_capacity(),
        IdleOwner => return idle_owner(),
        IdleProc => {
            let c = figure2_schedule_c();
            let assign = Assignment { nprocs: 3, ..c.assign.clone() };
            let order = vec![c.order[0].clone(), c.order[1].clone(), vec![]];
            return (figure2_dag(), Schedule { assign, order });
        }
    };
    let assign = owner_compute_assignment(&g, &owner, p);
    let cost = CostModel::unit();
    let sched = match c.policy {
        Rcp => rcp_order(&g, &assign, &cost),
        Mpo => mpo_order(&g, &assign, &cost),
        Dts => dts_order(&g, &assign, &cost),
        DtsMerged => dts_order_merged(&g, &assign, &cost, g.seq_space()),
        Fixed => unreachable!("a generated graph has no schedule of its own"),
    };
    (g, sched)
}

/// The case's graph, schedule and capacity.
pub fn built(c: &Case) -> (TaskGraph, Schedule, u64) {
    let (g, sched) = build(c);
    let cap = capacity(c, &g, &sched, &min_mem(&g, &sched));
    (g, sched, cap)
}

pub fn capacity(c: &Case, g: &TaskGraph, sched: &Schedule, rep: &MemReport) -> u64 {
    let mm = rep.min_mem;
    match c.cap {
        BelowMin => mm - 1,
        AtMin => mm,
        Slack(s) => mm + s,
        Tot => rep.tot_no_recycle,
        Twentieth => mm + (rep.tot_no_recycle - mm) / 20,
        Placeable => {
            let plan = RtPlan::new(g, sched);
            let placed = |cap| plan.address_plan(g, sched, cap).is_ok();
            let cap = (mm..).find(|&cap| placed(cap)).expect("TOT places");
            assert!(cap <= mm + 8, "{cap} is not tight against MIN_MEM {mm}");
            cap
        }
        Thm2 => {
            let h = Dcg::build(g).theorem2_h(g, &sched.assign);
            rep.perm.iter().copied().max().unwrap_or(0) + h
        }
    }
}

pub fn fault_plan(f: Option<Fault>) -> Option<FaultPlan> {
    match f? {
        Scenario(name, seed) | ScenarioPanic(name, seed) => {
            FaultPlan::scenarios(seed).into_iter().find_map(|(n, plan)| (n == name).then_some(plan))
        }
        PanicOnce(_) => None,
    }
}

/// Ring records: over five times what any case records (four times more
/// where threads spin through refusals), and far below the default.
pub fn trace_config(c: &Case, g: &TaskGraph) -> Option<TraceConfig> {
    let records = 16 * (g.num_tasks() + g.num_objects()) + 1024;
    let spins = fault_plan(c.fault).is_some() && matches!(c.driver, Threads | Both(_));
    let records = if spins { 4 * records } else { records };
    c.traced.then(|| TraceConfig::with_capacity(records))
}

/// Read-modify-write: a result depends on the order of every update, and a
/// replayed window that skipped its restore is visibly wrong.
pub fn rmw(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for (i, x) in ctx.write(d).iter_mut().enumerate() {
            *x = 0.5 * *x + acc + t.0 as f64 + i as f64 * 0.25;
        }
    }
}

/// Exact-integer sums: commuting updates give the same bits in any order.
pub fn additive(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for x in ctx.write(d) {
            *x += acc.min(1024.0).floor() + t.0 as f64 + 1.0;
        }
    }
}

pub fn body_for(g: &TaskGraph) -> fn(TaskId, &mut TaskCtx<'_>) {
    if g.tasks().any(|t| g.commute_group(t).is_some()) {
        additive
    } else {
        rmw
    }
}

pub fn assert_same_bits(what: &str, got: &[Vec<f64>], want: &[Vec<f64>]) {
    assert_eq!(got.len(), want.len(), "{what}: object count");
    for (d, (a, b)) in got.iter().zip(want).enumerate() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(a) == bits(b), "{what}: object {d} is {a:?}, sequentially {b:?}");
    }
}

/// Run the oracle on every case; a failure names its case as a literal to
/// paste into `protocol_sweep.rs`'s `REGRESSIONS`.
pub fn sweep(cases: &[Case]) -> Tally {
    let mut t = Tally::default();
    for c in cases {
        catch_unwind(AssertUnwindSafe(|| oracle(c, &mut t)))
            .unwrap_or_else(|_| panic!("failing case; paste into REGRESSIONS:\n    {c:?},"));
    }
    t
}

pub fn run(c: &Case) -> Tally {
    sweep(std::slice::from_ref(c))
}

pub fn oracle(c: &Case, t: &mut Tally) {
    assert!(c.rec == Unarmed || c.driver == Threads, "only threads recover");
    let (g, sched) = build(c);
    assert_eq!(sched.assign.nprocs, c.p);
    assert!(sched.is_valid(&g), "the order is not a valid schedule");
    let rep = min_mem(&g, &sched);
    let mm = rep.min_mem;
    for p in 0..c.p {
        assert!(rep.perm[p] <= rep.peak[p] && rep.peak[p] <= rep.perm[p] + rep.vola_total[p]);
    }
    assert!(mm <= rep.tot_no_recycle);
    // DTS orders stay within `perm + h`; merged slices within budget.
    if c.policy == Dts {
        let h = Dcg::build(&g).theorem2_h(&g, &sched.assign);
        assert!((0..c.p).all(|p| rep.peak[p] <= rep.perm[p] + h), "a peak over perm + {h}");
    }
    if c.policy == DtsMerged {
        let (assign, dcg, budget) = (&sched.assign, Dcg::build(&g), g.seq_space() / 2);
        let (merged_of, nmerged) = merge_slices(&g, assign, &dcg, budget);
        assert!(nmerged <= dcg.num_slices);
        let consecutive = merged_of.windows(2).all(|w| (w[0]..=w[0] + 1).contains(&w[1]));
        assert!(consecutive, "merged ids skip a slice");
        let mut sums = vec![0u64; nmerged as usize];
        for (l, &ml) in merged_of.iter().enumerate() {
            sums[ml as usize] += dcg.max_volatile_space(&g, assign, l as u32);
        }
        for (ml, &s) in sums.iter().enumerate() {
            let single = merged_of.iter().filter(|&&x| x == ml as u32).count() == 1;
            assert!(s <= budget || single, "merged slice {ml} holds {s} > {budget}");
        }
    }
    let cap = capacity(c, &g, &sched, &rep);
    assert!(c.cap != Thm2 || cap >= mm, "Theorem 2's instance {cap} is below MIN_MEM {mm}");

    // The verifier's verdict is Definition 6.
    let report = verify_capacity(&g, &sched, cap);
    if cap < mm {
        assert!(
            matches!(report.findings[..], [Finding::CapacityExceeded { needed, .. }] if needed == mm),
            "expected CapacityExceeded needing {mm}: {:?}",
            report.findings
        );
    } else {
        assert!(report.accepted(), "rejected at {cap} >= MIN_MEM {mm}: {:?}", report.findings);
        assert!(cap > mm || report.peak.iter().copied().max() == Some(mm));
    }

    let plan = RtPlan::new(&g, &sched);
    let counting = plan.place_maps(&g, &sched, cap, MapWindow::Greedy);
    let walked = plan.address_plan(&g, &sched, cap);
    // The address walk: a function of its arguments, executable iff
    // counting says so, sound where it places.
    let again = plan.address_plan(&g, &sched, cap);
    assert_eq!(&walked, &again, "the walk is not a function of its arguments");
    assert_eq!(counting.is_ok(), cap >= mm, "counting disagrees with MIN_MEM {mm}");
    if let Ok(placed) = &counting {
        greedy_rule(&g, &sched, &plan, placed);
        for (p, rows) in placed.per_proc.iter().enumerate() {
            // An idle processor, or a lone one with no volatiles, runs one
            // MAP.
            if sched.order[p].is_empty() || c.p == 1 {
                assert_eq!(rows.len(), 1, "P{p}: MAPs of an idle or lone processor");
            }
        }
    }
    let unit_objects = g.objects().all(|d| g.obj_size(d) == 1);
    match &walked {
        Ok(a) => {
            let counting = counting.as_ref().expect("placed, yet counting fails");
            check_sound(&g, &sched, &plan, counting, a);
            t.placed += 1;
            t.with_cuts += usize::from(a.cuts.iter().any(|&n| n > 0));
        }
        // What counting cannot see. Below `MIN_MEM` the walk may meet it on
        // an earlier MAP or processor than the window counting rejects.
        Err(ExecError::Fragmented { proc, requested, largest }) => {
            assert!(largest < requested && (*proc as usize) < c.p);
            assert!(!unit_objects, "unit objects fragmented at {cap}");
            t.fragmented += usize::from(counting.is_ok());
            t.non_executable += usize::from(counting.is_err());
        }
        Err(e @ ExecError::NonExecutable { .. }) => {
            assert!(counting.is_err(), "{e}, yet counting places");
            t.non_executable += 1;
        }
        Err(e) => panic!("the walk failed with {e}"),
    }
    pinned_rows(c, &g, &sched, &plan, cap);

    let des = match c.driver {
        Des(costs) | Both(costs) => run_des(c, t, &g, &sched, cap, mm, costs, &counting),
        _ => None,
    };
    let thr = match c.driver {
        Threads | Both(_) => run_threads(c, t, &g, &sched, cap, &walked),
        _ => None,
    };
    if let (Some(des), Some(thr), Ok(a)) = (&des, &thr, &walked) {
        if c.fault.is_none() && a.cuts.iter().all(|&n| n == 0) {
            assert_eq!(des.maps, thr.maps, "MAP counts diverge");
            assert_eq!(des.peak_mem, thr.peak_mem, "peaks diverge");
            if let (Some(dt), Some(tt)) = (&des.trace, &thr.trace) {
                let (ds, ts) = (skeletons(dt), skeletons(tt));
                if let Some(p) = (0..c.p).find(|&p| ds[p] != ts[p]) {
                    let i = ds[p].iter().zip(&ts[p]).position(|(a, b)| a != b);
                    let paths = dump(c, &g, &[("des", dt), ("threaded", tt)]);
                    panic!("P{p} skeletons diverge at {i:?}\ntraces: {paths}");
                }
            }
            t.compared += 1;
        }
        if let (CutWindow, AtMin) = (&c.graph, c.cap) {
            // The cut is a MAP the DES does not take; both fill P1's 9
            // units in the first window.
            assert_eq!((&thr.maps, &des.maps), (&vec![1, 3, 1], &vec![1, 2, 1]));
            assert_eq!(thr.peak_mem, des.peak_mem);
        }
    }
}

/// The paper's §3.3 MAP rule on the counting rows: each MAP frees exactly
/// the allocated volatiles dead before it, allocates the first uses of the
/// tasks it covers, stays within the cap, and ends only where the next
/// task's first uses would not fit, or with the order.
pub fn greedy_rule(g: &TaskGraph, sched: &Schedule, plan: &RtPlan, placed: &MapPlacement) {
    let cap = placed.capacity;
    for (p, rows) in placed.per_proc.iter().enumerate() {
        let pl = &plan.lv.procs[p];
        let last = |d: &ObjId| pl.volatile_span[pl.volatile.binary_search(d).expect("volatile")].1;
        let first_uses = |j: u32| pl.first_use[j as usize].iter().copied();
        let units = |ds: &[ObjId]| ds.iter().map(|&d| g.obj_size(d)).sum::<u64>();
        let (mut allocated, mut in_use, mut pos) = (Vec::new(), plan.perm_units[p], 0);
        for (i, m) in rows.iter().enumerate() {
            let at = format!("P{p} MAP {i} at {}", m.pos);
            assert_eq!(m.pos, pos, "{at} does not start where the last one ended");
            let mut dead: Vec<ObjId> =
                allocated.iter().copied().filter(|d| last(d) < pos).collect();
            dead.sort_unstable();
            assert_eq!(m.frees, dead, "{at}: the free wave");
            allocated.retain(|d| last(d) >= pos);
            in_use -= units(&dead);
            let allocs: Vec<ObjId> = (pos..m.next_map).flat_map(first_uses).collect();
            assert_eq!(m.allocs, allocs, "{at}: the first uses of its tasks");
            allocated.extend_from_slice(&allocs);
            in_use += units(&allocs);
            assert_eq!(m.in_use, in_use, "{at} counts differently");
            assert!(in_use <= cap, "{at} holds {in_use} units, capacity {cap}");
            pos = m.next_map;
            if (pos as usize) < sched.order[p].len() {
                let next: Vec<ObjId> = first_uses(pos).collect();
                assert!(in_use + units(&next) > cap, "{at} ends before a task that fits");
            }
        }
        assert_eq!(pos as usize, sched.order[p].len(), "P{p}: the MAPs do not cover the order");
    }
}

/// The unit-occupancy oracle: the address plan against a map of who holds
/// each unit, and against the counting placement.
pub fn check_sound(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    counting: &MapPlacement,
    a: &AddressPlan,
) {
    let cap = a.placement.capacity;
    assert_eq!(cap, counting.capacity);
    for (p, rows) in a.placement.per_proc.iter().enumerate() {
        let pl = &plan.lv.procs[p];
        let perm = plan.perm_units[p];
        let offsets = &a.offsets[p];
        // The permanent prefix is the bump layout of the owned objects, and
        // exactly the volatiles have an offset.
        let mut cursor = 0;
        for d in g.objects().filter(|&d| sched.assign.owner_of(d) as usize == p) {
            assert_eq!(a.perm_off[d.idx()], cursor, "P{p}: permanent {d:?}");
            cursor += g.obj_size(d);
        }
        assert_eq!(cursor, perm, "P{p}: permanent prefix");
        for d in g.objects() {
            let volatile = pl.volatile.binary_search(&d).is_ok();
            assert_eq!(offsets[d.idx()] != NO_OFFSET, volatile, "P{p}: {d:?}");
        }

        let mut holder: Vec<Option<ObjId>> = vec![None; cap as usize];
        let (mut held, mut peak, mut high) = (perm, perm, perm);
        let mut placed_in = vec![usize::MAX; g.num_objects()];
        let mut pos = 0u32;
        for (i, m) in rows.iter().enumerate() {
            let at = format!("P{p} MAP {i}");
            assert_eq!(m.pos, pos, "{at} does not start where the last one ended");
            assert!(m.next_map > pos || sched.order[p].is_empty(), "{at} is empty");
            for &d in &m.frees {
                let k = pl.volatile.binary_search(&d).expect("a volatile");
                assert!(pl.volatile_span[k].1 < m.pos, "{at}: {d:?} freed before its last use");
                let (off, len) = (offsets[d.idx()], g.obj_size(d));
                for u in &mut holder[off as usize..(off + len) as usize] {
                    assert_eq!(u.take(), Some(d), "{at} frees a unit {d:?} does not hold");
                }
                held -= len;
            }
            assert_eq!(m.allocs.len(), m.alloc_pos.len(), "{at}");
            for (&d, &first) in m.allocs.iter().zip(&m.alloc_pos) {
                let k = pl.volatile.binary_search(&d).expect("a volatile");
                assert_eq!(pl.volatile_span[k].0, first, "{at}: {d:?}");
                assert!((m.pos..m.next_map).contains(&first), "{at}: {d:?} outside its window");
                let before = std::mem::replace(&mut placed_in[d.idx()], i);
                assert_eq!(before, usize::MAX, "{at}: {d:?} placed twice");
                let (off, len) = (offsets[d.idx()], g.obj_size(d));
                assert!(off >= perm, "{at}: {d:?} at {off} inside the permanent prefix {perm}");
                assert!(off + len <= cap, "{at}: {d:?} at {off}+{len} beyond {cap}");
                for u in &mut holder[off as usize..(off + len) as usize] {
                    assert_eq!(u.replace(d), None, "{at} gives {d:?} a unit in use");
                }
                held += len;
                high = high.max(off + len);
            }
            assert_eq!(m.in_use, held, "{at} counts differently");
            peak = peak.max(held);
            // Every watcher of every allocation, told the object's own
            // offset, sorted by (destination, object).
            let mut want: Vec<(u32, u32)> = m
                .allocs
                .iter()
                .flat_map(|&d| plan.watchers.of(p as u32, d.0).iter().map(move |&w| (w, d.0)))
                .collect();
            want.sort_unstable();
            let got: Vec<(u32, u32)> = m.notifies.iter().map(|n| (n.dst, n.obj)).collect();
            assert_eq!(got, want, "{at} notifies");
            for n in &m.notifies {
                assert_eq!(n.offset, offsets[n.obj as usize], "{at} notifies {n:?}");
            }
            pos = m.next_map;
        }
        assert_eq!(pos as usize, sched.order[p].len(), "P{p}: the MAPs do not cover the order");
        for &d in &pl.volatile {
            assert_ne!(placed_in[d.idx()], usize::MAX, "P{p}: {d:?} is never placed");
        }
        assert_eq!((a.peak[p], a.high_water[p]), (peak, high), "P{p}: peak, high-water");

        let counted = &counting.per_proc[p];
        if a.cuts[p] == 0 {
            assert_eq!(rows.len(), counted.len(), "P{p}: MAP count without a cut");
            for (m, k) in rows.iter().zip(counted) {
                assert_eq!(
                    (m.pos, &m.frees, &m.allocs, &m.alloc_pos, m.next_map, m.in_use),
                    (k.pos, &k.frees, &k.allocs, &k.alloc_pos, k.next_map, k.in_use),
                    "P{p}: an uncut walk is the counting walk"
                );
                assert!(k.notifies.iter().all(|n| n.offset == NO_OFFSET));
            }
        } else {
            // A window that starts earlier holds more and reaches no
            // further: a cut can add MAPs and never saves one.
            assert!(rows.len() >= counted.len(), "P{p}: a cut saved a MAP");
        }
    }
    assert_eq!(a.placement.peaks(&plan.perm_units), a.peak);
    packages_are_awaited(sched, plan, counting);
    packages_are_awaited(sched, plan, &a.placement);
}

/// Each package a MAP sends names an object whose first user waits for a
/// message from the package's receiver carrying it: the receiver drains
/// the slot before the sender's next MAP, so one slot per pair never
/// blocks a fault-free sender.
pub fn packages_are_awaited(sched: &Schedule, plan: &RtPlan, placement: &MapPlacement) {
    for (p, rows) in placement.per_proc.iter().enumerate() {
        for m in rows {
            for pkg in m.notifies.chunk_by(|a, b| a.dst == b.dst) {
                let dst = pkg[0].dst;
                let awaited = pkg.iter().any(|n| {
                    let i = m.allocs.iter().position(|d| d.0 == n.obj).expect("allocated here");
                    let first_user = sched.order[p][m.alloc_pos[i] as usize];
                    plan.in_msgs[first_user.idx()].iter().any(|&mid| {
                        plan.msgs[mid as usize].src_proc == dst
                            && plan.objs(mid).contains(&ObjId(n.obj))
                    })
                });
                assert!(awaited, "P{p} MAP@{}: no task waits for P{dst} to use {pkg:?}", m.pos);
            }
        }
    }
}

/// What the two built-to-cut cases must plan, row for row.
pub fn pinned_rows(c: &Case, g: &TaskGraph, sched: &Schedule, plan: &RtPlan, cap: u64) {
    let walk = |cap| plan.address_plan(g, sched, cap).expect("places");
    let windows = |rows: &[rapid::rt::PlannedMap]| -> Vec<(u32, u32)> {
        rows.iter().map(|m| (m.pos, m.next_map)).collect()
    };
    match (&c.graph, c.cap) {
        (CutWindow, AtMin) => {
            assert_eq!(cap, 9);
            let counting = plan.place_maps(g, sched, cap, MapWindow::Greedy).expect("MIN_MEM");
            let a = walk(cap);
            assert_eq!(a.cuts, vec![0, 1, 0]);
            assert_eq!(windows(&counting.per_proc[1]), vec![(0, 1), (1, 3)]);
            assert_eq!(windows(&a.placement.per_proc[1]), vec![(0, 1), (1, 2), (2, 3)]);
            // `x a b c` | `x d . b . . .` | `x e`.
            let off = |d: usize| a.offsets[1][d];
            assert_eq!([off(0), off(1), off(2), off(4), off(5)], [1, 4, 6, 1, 1]);
            assert_eq!((a.peak[1], a.high_water[1]), (9, 9));
            // One unit more and `e` has room behind `c`'s hole.
            assert_eq!(walk(cap + 1).cuts[1], 0);
        }
        (IdleProc, AtMin) => assert_eq!(cap, 8, "Figure 2 (c)'s MIN_MEM"),
        (ZeroAtCapacity, AtMin) => {
            assert_eq!(cap, 4);
            let a = walk(cap);
            assert_eq!((a.offsets[1][1], a.offsets[1][2]), (1, 4), "y after w, z at the end");
        }
        (MidTaskCut, Slack(8)) => {
            // The window that ran out of room in the middle of the task at
            // 22 ends before it, and that task's MAP allocates all of its
            // objects.
            let a = walk(cap);
            assert!(a.cuts.iter().any(|&n| n > 0));
            let rows = &a.placement.per_proc[2];
            assert!(windows(rows).contains(&(19, 22)), "{:?}", windows(rows));
            let at_22 = rows.iter().find(|m| m.pos == 22).expect("a MAP at the cut");
            assert!(at_22.alloc_pos.iter().filter(|&&at| at == 22).count() >= 2, "{at_22:?}");
        }
        _ => {}
    }
}

#[allow(clippy::too_many_arguments)]
pub fn run_des(
    c: &Case,
    t: &mut Tally,
    g: &TaskGraph,
    sched: &Schedule,
    cap: u64,
    mm: u64,
    costs: Costs,
    counting: &Result<MapPlacement, ExecError>,
) -> Option<DesOutcome> {
    let machine = match costs {
        Unit => MachineConfig::unit(c.p, cap),
        T3d => MachineConfig::t3d(c.p).with_capacity(cap),
    };
    let mut cfg = DesConfig::managed(machine.clone());
    if let Some(f) = fault_plan(c.fault) {
        cfg = cfg.with_faults(f);
    }
    if let Some(tc) = trace_config(c, g) {
        cfg = cfg.with_tracing(tc);
    }
    let out = match DesExecutor::new(g, sched, cfg.clone()).run() {
        Ok(out) => out,
        Err(ExecError::NonExecutable { .. }) if cap < mm => return None,
        Err(e) => panic!("DES at {cap} (MIN_MEM {mm}): {e}"),
    };
    assert!(cap >= mm, "the DES ran below MIN_MEM");
    assert!(out.peak_mem.iter().all(|&pk| pk <= cap), "DES peaks {:?} over {cap}", out.peak_mem);
    let rows: Vec<u32> =
        counting.as_ref().expect("MIN_MEM").per_proc.iter().map(|r| r.len() as u32).collect();
    assert_eq!(out.maps, rows, "DES MAPs are the counting placement's");
    let report = verify_capacity(g, sched, cap);
    assert_eq!(report.peak, out.peak_mem, "the verifier's static peaks are the DES's");
    assert_eq!(out.trace.is_some(), c.traced);
    assert_eq!(out.metrics.is_some(), c.traced);
    if let Some(trace) = &out.trace {
        judge_trace(c, t, g, sched, cap, "des", trace, out.metrics.as_deref());
        // The flat ring is a lossless encoding of a real trace.
        for pt in &trace.procs {
            let back = decode_ring(&encode_trace(pt, 4 * pt.len() + 64));
            assert_eq!(back.dropped(), 0);
            assert!(pt.iter().eq(back.iter()), "P{}: decode(encode(t)) != t", pt.proc);
        }
    }
    // Seeded reruns are the same run, byte for byte.
    for _ in 1..c.rounds {
        let again = DesExecutor::new(g, sched, cfg.clone()).run().expect("a rerun fails");
        match (&out.trace, &again.trace) {
            (Some(a), Some(b)) => {
                assert!(chrome_trace_json(a, Some(g)) == chrome_trace_json(b, Some(g)), "rerun");
            }
            _ => assert_eq!((out.parallel_time, &out.maps), (again.parallel_time, &again.maps)),
        }
        assert_eq!((&out.finish, &out.peak_mem), (&again.finish, &again.peak_mem));
    }
    // Original RAPID: no MAP, every address known up front, and no faster
    // than nothing to manage on the zero-overhead machine.
    if c.cap == Tot && costs == Unit && c.fault.is_none() {
        let base = run_unmanaged(g, sched, machine).expect("TOT fits");
        assert!(base.maps.iter().all(|&m| m == 0) && base.suspended_sends == 0);
        assert!(base.peak_mem.iter().all(|&pk| pk <= cap));
        assert!(out.parallel_time >= base.parallel_time - 1e-9, "managing memory sped it up");
        assert!(out.peak_mem.iter().zip(&base.peak_mem).all(|(m, b)| m <= b));
    }
    t.des_ok += 1;
    Some(out)
}

/// What every trace of a run must satisfy, whichever driver recorded it.
#[allow(clippy::too_many_arguments)]
pub fn judge_trace(
    c: &Case,
    t: &mut Tally,
    g: &TaskGraph,
    sched: &Schedule,
    cap: u64,
    driver: &str,
    trace: &TraceSet,
    metrics: Option<&[ProcMetrics]>,
) {
    assert_eq!(trace.dropped(), 0, "{driver}: the ring wrapped");
    let spec = RtPlan::new(g, sched).trace_spec(cap);
    if let Err(v) = check(g, sched, &spec, trace) {
        let paths = dump(c, g, &[(driver, trace)]);
        panic!("{driver}: the trace violates the protocol: {v}\ntrace: {paths}");
    }
    let busy: u32 = metrics.expect("metrics follow the trace").iter().map(|m| m.mailbox_busy).sum();
    if c.fault.is_none() {
        assert_eq!(busy, 0, "{driver}: a fault-free run found a slot busy");
    }
    t.busy += busy;
    for (_, e) in trace.procs.iter().flat_map(|pt| pt.iter()) {
        if let Event::Fault { site } = e {
            t.injected += 1;
            t.rejects += usize::from(*site == FaultSite::MailboxReject);
        }
    }
    let rollback = |e: &&CanonEvent| matches!(e, CanonEvent::Rollback { .. });
    t.rollbacks += skeletons(trace).iter().flatten().filter(rollback).count();
}

pub fn run_threads(
    c: &Case,
    t: &mut Tally,
    g: &TaskGraph,
    sched: &Schedule,
    cap: u64,
    walked: &Result<AddressPlan, ExecError>,
) -> Option<ThreadedOutcome> {
    let mut exec = ThreadedExecutor::new(g, sched, cap);
    if let Some(tc) = trace_config(c, g) {
        exec = exec.with_tracing(tc);
    }
    if let Some(f) = fault_plan(c.fault) {
        exec = exec.with_faults(f);
    }
    if c.rec == Armed {
        exec = exec.with_recovery();
    }
    assert_eq!(exec.address_plan(), walked.as_ref(), "the executor walked another plan");
    let reference = run_sequential(g, body_for(g));
    let victim = panicking_task(c, g);
    let mut last = None;
    let mut projections = Vec::new();
    for _ in 0..c.rounds {
        let armed = AtomicBool::new(true);
        let body = body_for(g);
        let result = exec.run(|task, ctx| {
            if Some(task) == victim && armed.swap(false, Ordering::SeqCst) {
                panic!("transient body panic");
            }
            body(task, ctx)
        });
        let (out, a) = match (result, exec.address_plan()) {
            (Err(e), Err(planned)) => {
                assert_eq!(&e, planned, "a rejected plan failed differently");
                assert!(c.rec == Unarmed || c.fault.is_none(), "armed and faulted, yet rejected");
                crate::common::assert_planned_rejection("threads", &exec, &e);
                t.planned_rejections += 1;
                projections.push(Err(e.to_string()));
                continue;
            }
            (Err(e), Ok(_)) => panic!("threads at {cap}: {e}"),
            (Ok(out), planned) => (out, planned.expect("a rejected plan ran")),
        };
        assert_same_bits("threads", &out.objects, &reference);
        let rows: Vec<u32> = a.placement.per_proc.iter().map(|r| r.len() as u32).collect();
        assert_eq!(out.maps, rows, "MAPs are the address plan's");
        assert_eq!((&out.peak_mem, &out.arena_peak), (&a.peak, &a.peak), "peaks are the plan's");
        assert!(out.peak_mem.iter().all(|&pk| pk <= cap));
        assert_eq!(out.trace.is_some(), c.traced);
        assert_eq!(out.metrics.is_some(), c.traced);
        if let Some(trace) = &out.trace {
            let before = t.rollbacks;
            judge_trace(c, t, g, sched, cap, "threaded", trace, out.metrics.as_deref());
            if victim.is_some() {
                assert_eq!(t.rollbacks - before, 1, "one rollback heals one transient panic");
            }
            for p in 0..c.p {
                maps_are_the_plan(g, a, trace, p);
            }
            projections.push(Ok(recovery_projection(trace)));
        }
        t.thr_ok += 1;
        last = Some(out);
    }
    // Armed, the recovery decisions of a seeded run are the same on rerun.
    if c.rec != Unarmed && c.fault.is_some() && c.traced {
        assert!(projections.windows(2).all(|w| w[0] == w[1]), "reruns diverge: {projections:?}");
    }
    last
}

/// The deterministic part of a run: MAPs, tasks and rollbacks in program
/// order.
pub fn recovery_projection(trace: &TraceSet) -> String {
    let kept = |e: &CanonEvent| {
        matches!(e, CanonEvent::Map { .. } | CanonEvent::Task { .. } | CanonEvent::Rollback { .. })
    };
    let per_proc: Vec<Vec<CanonEvent>> =
        skeletons(trace).into_iter().map(|es| es.into_iter().filter(kept).collect()).collect();
    format!("{per_proc:?}")
}

/// What the plan says processor `p`'s trace shows of its MAPs.
pub fn planned_map_events(g: &TaskGraph, a: &AddressPlan, p: usize) -> Vec<Event> {
    let mut events = Vec::new();
    // Units in use never fall below the permanent prefix, so the running
    // peak of the rows is the running peak of the run.
    let mut peak = 0;
    let at = |d: &ObjId| (d.0, g.obj_size(*d), a.offsets[p][d.idx()]);
    let free = |(obj, units, offset)| Event::Free { obj, units, offset };
    let alloc = |(obj, units, offset)| Event::Alloc { obj, units, offset };
    for m in &a.placement.per_proc[p] {
        events.push(Event::MapBegin { pos: m.pos });
        events.extend(m.frees.iter().map(at).map(free));
        events.extend(m.allocs.iter().map(at).map(alloc));
        peak = peak.max(m.in_use);
        let (pos, next_map, in_use) = (m.pos, m.next_map, m.in_use);
        events.push(Event::MapEnd { pos, next_map, in_use, arena_high: peak });
    }
    events
}

/// Processor `p`'s recorded MAP events are the plan, row for row, offsets
/// included: a rollback reruns a task, never a MAP.
pub fn maps_are_the_plan(g: &TaskGraph, a: &AddressPlan, trace: &TraceSet, p: usize) {
    let ran: Vec<Event> = trace.procs[p]
        .iter()
        .map(|(_, e)| e)
        .filter(|e| {
            matches!(
                e,
                Event::MapBegin { .. }
                    | Event::Free { .. }
                    | Event::Alloc { .. }
                    | Event::MapEnd { .. }
            )
        })
        .cloned()
        .collect();
    let want = planned_map_events(g, a, p);
    if let Some(i) = ran.iter().zip(&want).position(|(r, w)| r != w) {
        panic!("P{p}: MAP event {i}: ran {:?}, planned {:?}", ran[i], want[i]);
    }
    assert_eq!(ran.len(), want.len(), "P{p}: MAP event counts");
}

/// Export traces for post-mortem inspection; returns their paths.
pub fn dump(c: &Case, g: &TaskGraph, traces: &[(&str, &TraceSet)]) -> String {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    let id = BuildHasherDefault::<DefaultHasher>::default().hash_one(format!("{c:?}"));
    let dir = std::path::Path::new("target/trace-failures");
    std::fs::create_dir_all(dir).expect("create dump dir");
    let paths: Vec<String> = traces
        .iter()
        .map(|(name, trace)| {
            let path = dir.join(format!("{id:016x}-{name}.json"));
            std::fs::write(&path, chrome_trace_json(trace, Some(g))).expect("write trace");
            path.display().to_string()
        })
        .collect();
    paths.join(" / ")
}

/// Fault seeds per scenario in the fault and recovery matrices.
pub const FAULT_SEEDS: u64 = 16;
