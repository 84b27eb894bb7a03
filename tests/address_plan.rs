//! An independent soundness oracle for the address plan
//! (`RtPlan::address_plan`): the table the threaded executor replays is
//! checked here against a unit-by-unit occupancy map kept by this file, not
//! against the arena that produced it. Over random DAGs × processors ×
//! capacities × window policies, the Cholesky and LU fixtures, the
//! benchmark's `irregular-tight` generator at reduced size and one case
//! built to cut a window:
//!
//! - no unit ever belongs to two live buffers, none to a volatile and the
//!   permanent prefix, and none lies beyond the capacity;
//! - every volatile is placed once, by the MAP whose window holds its first
//!   use, and freed only after its last;
//! - every notification carries its object's offset, and the notifications
//!   of a MAP are exactly the watchers of what it allocates;
//! - every address package is awaited: a task of the announcing MAP's own
//!   window cannot start before the package's receiver has put into a
//!   buffer it names, so the receiver drains the slot before the sender's
//!   next MAP (why one slot per pair never blocks a fault-free sender);
//! - the planned peak and high-water mark are what the occupancy map saw;
//! - wherever no window was cut the MAPs are the counting placement's, row
//!   for row, and a cut only ever adds MAPs.

use rapid::core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid::core::memreq::min_mem;
use rapid::machine::arena::FitPolicy;
use rapid::prelude::*;
use rapid::rt::maps::AddressPlan;
use rapid::rt::{ExecError, MapPlacement, MapWindow, RtPlan};
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, taskgen};
use rapid::trace::NO_OFFSET;

mod common;

/// What the sweep met, so that it can say it met everything.
#[derive(Default, Debug)]
struct Seen {
    placed: usize,
    with_cuts: usize,
    fragmented: usize,
    non_executable: usize,
}

/// Every MAP allocates only what tasks of its own window first use, and
/// each package it sends (a run of `notifies` with one `dst`) names an
/// object whose first user waits for a message from `dst` carrying it.
fn check_packages_are_awaited(
    label: &str,
    sched: &Schedule,
    plan: &RtPlan,
    placement: &MapPlacement,
) {
    for (p, rows) in placement.per_proc.iter().enumerate() {
        for m in rows {
            let label = format!("{label} P{p} MAP@{}", m.pos);
            for (&d, &first) in m.allocs.iter().zip(&m.alloc_pos) {
                assert!(
                    (m.pos..m.next_map).contains(&first),
                    "{label}: {d:?}, first used at {first}, is outside the window ..{}",
                    m.next_map
                );
            }
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
                assert!(awaited, "{label}: no task of the window waits for P{dst} to use {pkg:?}");
            }
        }
    }
}

fn check_sound(
    label: &str,
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    counting: &MapPlacement,
    a: &AddressPlan,
) {
    let cap = a.placement.capacity;
    assert_eq!((cap, a.placement.window), (counting.capacity, counting.window), "{label}");
    for (p, rows) in a.placement.per_proc.iter().enumerate() {
        let label = format!("{label} P{p}");
        let pl = &plan.lv.procs[p];
        let perm = plan.perm_units[p];
        let offsets = &a.offsets[p];
        // The permanent prefix is the bump layout of the owned objects.
        let mut cursor = 0;
        for d in g.objects().filter(|&d| sched.assign.owner_of(d) as usize == p) {
            assert_eq!(a.perm_off[d.idx()], cursor, "{label}: permanent {d:?}");
            cursor += g.obj_size(d);
        }
        assert_eq!(cursor, perm, "{label}: permanent prefix");
        // Exactly the volatiles of this processor have an offset.
        for d in g.objects() {
            let is_volatile = pl.volatile.binary_search(&d).is_ok();
            assert_eq!(offsets[d.idx()] != NO_OFFSET, is_volatile, "{label}: {d:?}");
        }

        // Replay the rows on a map of who holds each unit.
        let mut holder: Vec<Option<ObjId>> = vec![None; cap as usize];
        let (mut held, mut peak, mut high) = (perm, perm, perm);
        let mut placed_in = vec![usize::MAX; g.num_objects()];
        let mut pos = 0u32;
        for (i, m) in rows.iter().enumerate() {
            assert_eq!(m.pos, pos, "{label}: MAP {i} does not start where the last one ended");
            assert!(m.next_map > pos || sched.order[p].is_empty(), "{label}: MAP {i} is empty");
            for &d in &m.frees {
                let k = pl.volatile.binary_search(&d).expect("a volatile");
                assert!(pl.volatile_span[k].1 < m.pos, "{label}: {d:?} freed before its last use");
                let (off, len) = (offsets[d.idx()], g.obj_size(d));
                for u in &mut holder[off as usize..(off + len) as usize] {
                    assert_eq!(
                        u.take(),
                        Some(d),
                        "{label}: MAP {i} frees a unit {d:?} does not hold"
                    );
                }
                held -= len;
            }
            assert_eq!(m.allocs.len(), m.alloc_pos.len(), "{label}: MAP {i}");
            for (&d, &first) in m.allocs.iter().zip(&m.alloc_pos) {
                let k = pl.volatile.binary_search(&d).expect("a volatile");
                assert_eq!(pl.volatile_span[k].0, first, "{label}: {d:?}");
                assert_eq!(
                    std::mem::replace(&mut placed_in[d.idx()], i),
                    usize::MAX,
                    "{label}: {d:?} placed twice"
                );
                let (off, len) = (offsets[d.idx()], g.obj_size(d));
                assert!(off >= perm, "{label}: {d:?} at {off} touches the permanent prefix {perm}");
                assert!(off + len <= cap, "{label}: {d:?} at {off}+{len} beyond capacity {cap}");
                for u in &mut holder[off as usize..(off + len) as usize] {
                    assert_eq!(u.replace(d), None, "{label}: MAP {i} gives {d:?} a unit in use");
                }
                held += len;
                high = high.max(off + len);
            }
            assert_eq!(m.in_use, held, "{label}: MAP {i} counts differently");
            assert!(held <= cap, "{label}: MAP {i} over capacity");
            peak = peak.max(held);
            // Notifications: every watcher of every allocation, told the
            // object's own offset, sorted by (destination, object).
            let mut want: Vec<(u32, u32)> = m
                .allocs
                .iter()
                .flat_map(|&d| plan.watchers.of(p as u32, d.0).iter().map(move |&w| (w, d.0)))
                .collect();
            want.sort_unstable();
            let got: Vec<(u32, u32)> = m.notifies.iter().map(|n| (n.dst, n.obj)).collect();
            assert_eq!(got, want, "{label}: MAP {i} notifies");
            for n in &m.notifies {
                assert_eq!(n.offset, offsets[n.obj as usize], "{label}: MAP {i} notifies {n:?}");
            }
            pos = m.next_map;
        }
        assert_eq!(pos as usize, sched.order[p].len(), "{label}: the MAPs do not cover the order");
        for &d in &pl.volatile {
            assert_ne!(placed_in[d.idx()], usize::MAX, "{label}: {d:?} is never placed");
        }
        assert_eq!((a.peak[p], a.high_water[p]), (peak, high), "{label}: peak, high-water");

        // Against the counting placement.
        let counted = &counting.per_proc[p];
        if a.cuts[p] == 0 {
            assert_eq!(rows.len(), counted.len(), "{label}: MAP count without a cut");
            for (m, c) in rows.iter().zip(counted) {
                assert_eq!(
                    (m.pos, &m.frees, &m.allocs, &m.alloc_pos, m.next_map, m.in_use),
                    (c.pos, &c.frees, &c.allocs, &c.alloc_pos, c.next_map, c.in_use),
                    "{label}: an uncut walk is the counting walk"
                );
                assert!(c.notifies.iter().all(|n| n.offset == NO_OFFSET), "{label}");
            }
        } else {
            // A window that starts earlier holds more and reaches no
            // further, so a cut can add MAPs and never saves one.
            assert!(rows.len() >= counted.len(), "{label}: a cut saved a MAP");
            assert!(a.placement.window == MapWindow::Greedy, "{label}: one-task windows never cut");
        }
    }
    assert!(a.placement.total_maps() >= counting.total_maps(), "{label}");
    assert_eq!(a.placement.peaks(&plan.perm_units), a.peak, "{label}: peaks()");
    check_packages_are_awaited(&format!("{label} counting"), sched, plan, counting);
    check_packages_are_awaited(label, sched, plan, &a.placement);
}

fn examine(
    seen: &mut Seen,
    label: &str,
    g: &TaskGraph,
    sched: &Schedule,
    cap: u64,
    window: MapWindow,
) {
    let plan = RtPlan::new(g, sched);
    let counting = plan.place_maps(g, sched, cap, window);
    let walked = plan.address_plan(g, sched, cap, window, FitPolicy::BestFit);
    assert_eq!(
        walked,
        plan.address_plan(g, sched, cap, window, FitPolicy::BestFit),
        "{label}: the walk is a function of its arguments"
    );
    match walked {
        Ok(a) => {
            let counting =
                counting.unwrap_or_else(|e| panic!("{label}: placed, yet counting says {e}"));
            check_sound(label, g, sched, &plan, &counting, &a);
            seen.placed += 1;
            seen.with_cuts += usize::from(a.cuts.iter().any(|&c| c > 0));
        }
        // What counting cannot see. (Below `MIN_MEM` the walk may meet it
        // on an earlier MAP or processor than the window counting rejects.)
        Err(ExecError::Fragmented { proc, requested, largest }) => {
            assert!(largest < requested && (proc as usize) < sched.assign.nprocs, "{label}");
            seen.fragmented += usize::from(counting.is_ok());
            seen.non_executable += usize::from(counting.is_err());
        }
        Err(e @ ExecError::NonExecutable { .. }) => {
            assert!(counting.is_err(), "{label}: {e}, yet counting places");
            seen.non_executable += 1;
        }
        Err(e) => panic!("{label}: {e}"),
    }
}

#[test]
fn random_dags_across_processors_capacities_and_windows() {
    let spec = RandomGraphSpec { objects: 24, tasks: 80, ..Default::default() };
    let mut seen = Seen::default();
    for seed in 0..10u64 {
        let g = random_irregular_graph(seed, &spec);
        for p in [2usize, 3, 4] {
            let owner = cyclic_owner_map(g.num_objects(), p);
            let assign = owner_compute_assignment(&g, &owner, p);
            let sched = mpo_order(&g, &assign, &CostModel::unit());
            let rep = min_mem(&g, &sched);
            for cap in [rep.min_mem - 1, rep.min_mem, rep.min_mem + 8, rep.tot_no_recycle] {
                for window in [MapWindow::Greedy, MapWindow::Single] {
                    let label = format!("random {seed} p{p} cap {cap} {window:?}");
                    examine(&mut seen, &label, &g, &sched, cap, window);
                }
            }
        }
    }
    eprintln!("random sweep: {seen:?}");
    assert!(seen.placed >= 120 && seen.non_executable == 60, "{seen:?}");
    assert!(seen.with_cuts > 0 && seen.fragmented > 0, "the sweep met no fragmentation: {seen:?}");
}

#[test]
fn cholesky_and_lu_fixtures() {
    let mut seen = Seen::default();
    let a = gen::grid2d_laplacian(6, 5);
    let chol = taskgen::cholesky_2d_model(&a, 6, 4);
    let b = gen::goodwin_like(60, 4, 1, 5);
    let lu = taskgen::lu_1d_model(&b, 10, 3, true);
    for (name, g, owner, p) in
        [("cholesky", &chol.graph, &chol.owner, 4), ("lu", &lu.graph, &lu.owner, 3)]
    {
        let assign = owner_compute_assignment(g, owner, p);
        for (policy, sched) in [
            ("rcp", rcp_order(g, &assign, &CostModel::unit())),
            ("mpo", mpo_order(g, &assign, &CostModel::unit())),
            ("dts", dts_order(g, &assign, &CostModel::unit())),
        ] {
            let rep = min_mem(g, &sched);
            for cap in [rep.min_mem, rep.min_mem + 8, rep.min_mem + 256, rep.tot_no_recycle] {
                for window in [MapWindow::Greedy, MapWindow::Single] {
                    let label = format!("{name} {policy} cap {cap} {window:?}");
                    examine(&mut seen, &label, g, &sched, cap, window);
                }
            }
        }
    }
    eprintln!("fixtures: {seen:?}");
    assert!(seen.placed >= 36 && seen.non_executable == 0, "{seen:?}");
}

#[test]
fn irregular_tight_at_reduced_size() {
    let mut seen = Seen::default();
    for seed in [1997u64, 7, 37, 1, 2, 3] {
        let (g, sched, cap) = common::irregular_tight(seed);
        for window in [MapWindow::Greedy, MapWindow::Single] {
            let label = format!("irregular-tight {seed} {window:?}");
            examine(&mut seen, &label, &g, &sched, cap, window);
        }
    }
    eprintln!("irregular-tight: {seen:?}");
    assert_eq!(seen.placed, 12, "{seen:?}");
}

#[test]
fn a_cut_falls_between_tasks_not_inside_one() {
    let (g, sched, cap) = common::mid_task_cut_case();
    let mut seen = Seen::default();
    examine(&mut seen, "mid-task cut", &g, &sched, cap, MapWindow::Greedy);
    assert_eq!((seen.placed, seen.with_cuts), (1, 1), "{seen:?}");
    // The window that ran out of room in the middle of the task at 22 ends
    // before it, and that task's MAP allocates all of its objects.
    let a = RtPlan::new(&g, &sched)
        .address_plan(&g, &sched, cap, MapWindow::Greedy, FitPolicy::BestFit)
        .expect("places");
    let windows: Vec<(u32, u32)> =
        a.placement.per_proc[2].iter().map(|m| (m.pos, m.next_map)).collect();
    assert!(windows.contains(&(19, 22)), "{windows:?}");
    let at_22 = a.placement.per_proc[2].iter().find(|m| m.pos == 22).expect("a MAP at the cut");
    assert!(at_22.alloc_pos.iter().filter(|&&at| at == 22).count() >= 2, "{at_22:?}");
}

#[test]
fn a_lookahead_the_arena_cannot_place_cuts_its_window() {
    let (g, sched, cap) = common::cut_window_case();
    let mut seen = Seen::default();
    examine(&mut seen, "cut", &g, &sched, cap, MapWindow::Greedy);
    examine(&mut seen, "cut", &g, &sched, cap, MapWindow::Single);
    assert_eq!((seen.placed, seen.with_cuts), (2, 1));
    let plan = RtPlan::new(&g, &sched);
    let counting = plan.place_maps(&g, &sched, cap, MapWindow::Greedy).expect("MIN_MEM");
    let a = plan
        .address_plan(&g, &sched, cap, MapWindow::Greedy, FitPolicy::BestFit)
        .expect("places, with a cut");
    assert_eq!(a.cuts, vec![0, 1, 0]);
    let windows = |rows: &[rapid::rt::PlannedMap]| -> Vec<(u32, u32)> {
        rows.iter().map(|m| (m.pos, m.next_map)).collect()
    };
    assert_eq!(windows(&counting.per_proc[1]), vec![(0, 1), (1, 3)]);
    assert_eq!(windows(&a.placement.per_proc[1]), vec![(0, 1), (1, 2), (2, 3)]);
    // `x a b c` | `x d . b . . .` | `x e`.
    let at = |d: u32| a.offsets[1][d as usize];
    assert_eq!([at(0), at(1), at(2), at(4), at(5)], [1, 4, 6, 1, 1]);
    assert_eq!((a.peak[1], a.high_water[1]), (9, 9));
    // First-fit meets the same two holes; one unit more and `e` has room
    // behind `c`'s hole under either policy.
    for fit in [FitPolicy::BestFit, FitPolicy::FirstFit] {
        let tight = plan.address_plan(&g, &sched, cap, MapWindow::Greedy, fit).expect("places");
        let slack = plan.address_plan(&g, &sched, cap + 1, MapWindow::Greedy, fit).expect("places");
        assert_eq!((tight.cuts[1], slack.cuts[1]), (1, 0), "{fit:?}");
    }
}
