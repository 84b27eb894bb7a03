//! Negative verification: every corruption of a valid plan must be
//! rejected with the expected [`Finding`]s — the static half of the
//! differential guarantee (the dynamic half, that *accepted* plans
//! execute violation-free, lives in the top-level
//! `tests/verify_differential.rs`).
//!
//! Each case pins its whole findings vector, in report order, as it was
//! recorded when the corpus was written: a rewritten analysis may neither
//! drop, add nor reorder a finding, nor pick another deadlock cycle.

use rapid_core::fixtures::{self, random_irregular_graph, RandomGraphSpec};
use rapid_core::graph::{TaskGraph, TaskGraphBuilder};
use rapid_core::memreq::min_mem;
use rapid_core::schedule::{Assignment, CostModel, Schedule};
use rapid_rt::{MapPlacement, MapWindow, RtPlan};
use rapid_sched::{cyclic_owner_map, mpo_order, owner_compute_assignment};
use rapid_trace::ViolationKind;
use rapid_verify::{verify, verify_capacity, Finding, VerifyReport};

/// A random plan at exactly MIN_MEM: tight enough that every processor
/// performs several windows.
fn tight_random_plan(seed: u64) -> (TaskGraph, Schedule, u64) {
    let spec = RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 2, ..Default::default() };
    let g = random_irregular_graph(seed, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 3);
    let assign = owner_compute_assignment(&g, &owner, 3);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let mm = min_mem(&g, &sched).min_mem;
    (g, sched, mm)
}

fn placed(g: &TaskGraph, sched: &Schedule, cap: u64) -> (RtPlan, MapPlacement) {
    let plan = RtPlan::new(g, sched);
    let placement = plan.place_maps(g, sched, cap, MapWindow::Greedy).expect("feasible at cap");
    (plan, placement)
}

/// The report's findings are exactly `want`, one `Display` line each.
#[track_caller]
fn assert_findings(report: &VerifyReport, want: &[&str]) {
    let got: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert_eq!(got, want, "findings moved; measured:\n{}", got.join("\n"));
}

fn kinds(report: &VerifyReport) -> Vec<ViolationKind> {
    report.findings.iter().map(Finding::mirrors).collect()
}

#[test]
fn valid_plans_are_accepted() {
    let g = fixtures::figure2_dag();
    for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
        let mm = min_mem(&g, &sched).min_mem;
        let report = verify_capacity(&g, &sched, mm);
        assert!(report.accepted(), "figure-2 plan rejected: {:?}", report.findings);
        assert_eq!(report.capacity, mm);
        assert_eq!(report.peak.iter().copied().max(), Some(mm));
    }
    for seed in 0..6 {
        let (g, sched, mm) = tight_random_plan(seed);
        let report = verify_capacity(&g, &sched, mm);
        assert!(report.accepted(), "seed {seed} rejected: {:?}", report.findings);
    }
}

#[test]
fn infeasible_capacity_is_rejected_with_live_set() {
    let (g, sched, mm) = tight_random_plan(1);
    let report = verify_capacity(&g, &sched, mm - 1);
    assert_findings(
        &report,
        &["P0 task #15 needs 29 units, capacity 28 (live volatiles [d10, d16, d29])"],
    );
    let [Finding::CapacityExceeded { needed, capacity, live, .. }] = &report.findings[..] else {
        panic!("expected a single CapacityExceeded, got {:?}", report.findings);
    };
    // The greedy feasibility threshold equals Definition-5 MIN_MEM, so
    // the first infeasible window needs exactly MIN_MEM units.
    assert_eq!(*needed, mm);
    assert_eq!(*capacity, mm - 1);
    // The blamed live set must really be live across the failing MAP.
    let lv = rapid_core::liveness::Liveness::analyze(&g, &sched);
    let Finding::CapacityExceeded { proc, position, .. } = &report.findings[0] else {
        unreachable!();
    };
    for &d in live {
        assert!(lv.is_alive(*proc as usize, d, *position), "d{} not live", d.0);
    }
    assert_eq!(report.findings[0].mirrors(), ViolationKind::CapExceeded);
}

#[test]
fn reordered_same_proc_pair_is_a_precedence_violation() {
    let (g, mut sched, mm) = tight_random_plan(2);
    // Swap the first adjacent dependent pair on any processor.
    'outer: for ord in sched.order.iter_mut() {
        for j in 0..ord.len().saturating_sub(1) {
            if g.preds(ord[j + 1]).contains(&ord[j].0) {
                ord.swap(j, j + 1);
                break 'outer;
            }
        }
    }
    let plan = RtPlan::new(&g, &sched);
    let report = match plan.place_maps(&g, &sched, mm, MapWindow::Greedy) {
        Ok(placement) => verify(&g, &sched, &plan, &placement),
        // Reordering can shift lifetimes past the old MIN_MEM; replan
        // with slack so the precedence analysis is what rejects.
        Err(_) => verify_capacity(&g, &sched, mm + 16),
    };
    assert_findings(&report, &["P0 schedules T8 (position 0) before its predecessor T4"]);
    assert!(kinds(&report).contains(&ViolationKind::OrderViolation));
}

#[test]
fn cross_processor_order_inversion_deadlocks() {
    // A -> B and C -> D across two processors, with each processor
    // scheduling its sink before its source: P0 runs [D, A], P1 runs
    // [B, C]. Every pairwise order is locally plausible (no same-proc
    // edge is inverted) but the wait-for graph has a 6-node cycle
    // B <- m(A->B) <- A <- D <- m(C->D) <- C <- B.
    let mut b = TaskGraphBuilder::new();
    let ta = b.add_task(1.0, &[], &[]);
    let tb = b.add_task(1.0, &[], &[]);
    let tc = b.add_task(1.0, &[], &[]);
    let td = b.add_task(1.0, &[], &[]);
    b.add_edge(ta, tb);
    b.add_edge(tc, td);
    let g = b.build().expect("acyclic");
    let assign = Assignment { task_proc: vec![0, 1, 1, 0], owner: vec![], nprocs: 2 };
    let sched = Schedule { assign, order: vec![vec![td, ta], vec![tb, tc]] };
    let report = verify_capacity(&g, &sched, 8);
    assert_findings(
        &report,
        &["wait-for cycle: (P0, T0@1) -> (P0, send m0) -> (P1, T1@0) -> (P1, T2@1) -> (P1, send m1) -> (P0, T3@0)"],
    );
    assert_eq!(report.findings[0].mirrors(), ViolationKind::MissingRecv);
}

#[test]
fn a_window_moved_past_its_readers_deadlocks() {
    // Move a notifying window to the end of its processor's order: the
    // sends that wait for its address package now wait for every task of
    // the processor, including the ones that receive those sends.
    for seed in 0..20u64 {
        let (g, sched, mm) = tight_random_plan(seed);
        let (plan, mut placement) = placed(&g, &sched, mm);
        let Some((p, wi)) = placement.per_proc.iter().enumerate().find_map(|(p, wins)| {
            let wi = wins.iter().position(|w| w.pos > 0 && !w.notifies.is_empty())?;
            Some((p, wi))
        }) else {
            continue;
        };
        assert_eq!((seed, p, wi), (0, 0, 1), "the corruption moved");
        placement.per_proc[p][wi].pos = sched.order[p].len() as u32;
        let report = verify(&g, &sched, &plan, &placement);
        // The window's allocations now come too late for the tasks it
        // covered, and the program-order chain is out of position order:
        // the moved window sorts after every task.
        assert_findings(
            &report,
            &[
                "P0 task #7 uses d19 before any window allocates it",
                "P0 task #8 uses d19 before any window allocates it",
                "P0 task #9 uses d20 before any window allocates it",
                "P0 task #10 uses d2 before any window allocates it",
                "P0 task #10 uses d25 before any window allocates it",
                "P0 task #11 uses d20 before any window allocates it",
                "P0 task #13 uses d10 before any window allocates it",
                "P0 task #14 uses d10 before any window allocates it",
                "P0 task #14 uses d35 before any window allocates it",
                "P0 task #15 uses d4 before any window allocates it",
                "P0 task #15 uses d23 before any window allocates it",
                "P0 task #16 uses d25 before any window allocates it",
                "P0 task #16 uses d32 before any window allocates it",
                "P0 task #17 uses d10 before any window allocates it",
                "P0 task #17 uses d25 before any window allocates it",
                "P0 task #18 uses d34 before any window allocates it",
                "P0 task #18 uses d44 before any window allocates it",
                "wait-for cycle: (P1, send m13) -> (P0, T15@7) -> (P0, T19@8) -> (P0, T10@9) \
                 -> (P0, MAP@10) -> (P0, T32@10) -> (P0, T40@11) -> (P0, T43@12) -> (P0, MAP@13) \
                 -> (P0, T52@13) -> (P0, T49@14) -> (P0, MAP@15) -> (P0, T37@15) -> (P0, MAP@16) \
                 -> (P0, T41@16) -> (P0, T55@17) -> (P0, MAP@18) -> (P0, T59@18) -> (P0, MAP@19)",
            ],
        );
        assert_eq!(report.findings.last().map(Finding::mirrors), Some(ViolationKind::MissingRecv));
        return;
    }
    panic!("no seed has a notifying window past position 0");
}

#[test]
fn dropped_address_package_is_missing_address() {
    let (g, sched, mm) = tight_random_plan(3);
    let (plan, mut placement) = placed(&g, &sched, mm);
    let mut dropped = false;
    'outer: for wins in placement.per_proc.iter_mut() {
        for w in wins.iter_mut() {
            if !w.notifies.is_empty() {
                w.notifies.clear();
                dropped = true;
                break 'outer;
            }
        }
    }
    assert!(dropped, "fixture plan has no address packages to drop");
    let report = verify(&g, &sched, &plan, &placement);
    assert_findings(
        &report,
        &[
            "P1's write of d1 (message m0) is never covered by an address package from P0",
            "P2's write of d8 (message m2) is never covered by an address package from P0",
            "P2's write of d17 (message m10) is never covered by an address package from P0",
            "P1's write of d4 (message m16) is never covered by an address package from P0",
            "P1's write of d13 (message m24) is never covered by an address package from P0",
            "P1's write of d22 (message m26) is never covered by an address package from P0",
            "P2's write of d17 (message m38) is never covered by an address package from P0",
            "P1's write of d4 (message m45) is never covered by an address package from P0",
            "P1's write of d34 (message m51) is never covered by an address package from P0",
            "P1's write of d34 (message m66) is never covered by an address package from P0",
        ],
    );
    assert!(kinds(&report).contains(&ViolationKind::WriteBeforeAddress));
}

#[test]
fn early_free_is_caught_with_its_downstream_damage() {
    // Find a seed whose placement has a volatile surviving into the next
    // window, then free it there one window too early.
    for seed in 0..20u64 {
        let (g, sched, mm) = tight_random_plan(seed);
        let (plan, mut placement) = placed(&g, &sched, mm);
        let mut hit = false;
        'outer: for (p, wins) in placement.per_proc.iter_mut().enumerate() {
            let pl = &plan.lv.procs[p];
            for wi in 0..wins.len().saturating_sub(1) {
                for k in 0..wins[wi].allocs.len() {
                    let d = wins[wi].allocs[k];
                    let next_pos = wins[wi + 1].pos;
                    let alive = pl
                        .volatile
                        .binary_search(&d)
                        .ok()
                        .is_some_and(|i| pl.volatile_span[i].1 >= next_pos);
                    if alive && !wins[wi + 1].frees.contains(&d) {
                        wins[wi + 1].frees.push(d);
                        hit = true;
                        break 'outer;
                    }
                }
            }
        }
        if !hit {
            continue;
        }
        let report = verify(&g, &sched, &plan, &placement);
        assert_eq!(seed, 0, "the corruption moved");
        // The early free also perturbs occupancy accounting, leaves a
        // dangling use and turns the planned free into a double one; the
        // sweep reports the whole cascade.
        assert_findings(
            &report,
            &[
                "P0 MAP@7 frees d14 whose last use is at position 7",
                "P0 MAP@7 records 29 units in use, replay computes 28",
                "P0 task #7 uses d14 after MAP@7 freed it",
                "P0 MAP@10 frees non-live d14",
            ],
        );
        return;
    }
    panic!("no seed produced a window-crossing volatile to corrupt");
}

#[test]
fn shrunk_capacity_is_window_over_cap() {
    let (g, sched, mm) = tight_random_plan(4);
    let (plan, mut placement) = placed(&g, &sched, mm);
    placement.capacity -= 1;
    let report = verify(&g, &sched, &plan, &placement);
    assert_eq!(mm, 27);
    assert_findings(
        &report,
        &[
            "P0 MAP@8 leaves 27 units in use, capacity 26",
            "P0 MAP@18 leaves 27 units in use, capacity 26",
            "P0 MAP@19 leaves 27 units in use, capacity 26",
            "P1 MAP@0 leaves 27 units in use, capacity 26",
            "P1 MAP@12 leaves 27 units in use, capacity 26",
        ],
    );
}

#[test]
fn duplicate_allocation_is_double_alloc() {
    let (g, sched, mm) = tight_random_plan(5);
    let (plan, mut placement) = placed(&g, &sched, mm);
    let mut hit = false;
    'outer: for wins in placement.per_proc.iter_mut() {
        for wi in 1..wins.len() {
            if let Some(&d) = wins[wi - 1].allocs.first() {
                let pos = wins[wi].pos;
                wins[wi].allocs.push(d);
                wins[wi].alloc_pos.push(pos);
                hit = true;
                break 'outer;
            }
        }
    }
    assert!(hit, "no window allocates anything");
    let report = verify(&g, &sched, &plan, &placement);
    assert_findings(&report, &["P0 MAP@9 allocates already-resident d20"]);
}

#[test]
fn uninvited_notify_is_a_stale_package() {
    let (g, sched, mm) = tight_random_plan(6);
    let (plan, mut placement) = placed(&g, &sched, mm);
    // Notify a processor that never puts into the object: with 3 procs,
    // some proc is neither the allocator nor a watcher of obj 0 of the
    // first notifying window.
    let mut hit = false;
    'outer: for (q, wins) in placement.per_proc.iter_mut().enumerate() {
        let notified: Vec<(u32, u32)> =
            wins.iter().flat_map(|w| w.notifies.iter().map(|n| (n.dst, n.obj))).collect();
        for w in wins.iter_mut() {
            if let Some(n) = w.notifies.first().copied() {
                let stranger =
                    (0..3u32).find(|&s| s != q as u32 && !notified.contains(&(s, n.obj)));
                if let Some(s) = stranger {
                    w.notifies.push(rapid_rt::maps::Notify { dst: s, ..n });
                    hit = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(hit, "no window notifies anyone");
    let report = verify(&g, &sched, &plan, &placement);
    assert_findings(
        &report,
        &["P0 notifies P2 of d10, but no message from P2 ever writes it (package may never drain)"],
    );
    assert!(kinds(&report).contains(&ViolationKind::MailboxClobber));
}

#[test]
fn duplicated_task_is_malformed() {
    let (g, mut sched, mm) = tight_random_plan(7);
    let t = sched.order[0][0];
    sched.order[0].push(t);
    let plan = RtPlan::new(&g, &sched);
    let placement =
        plan.place_maps(&g, &sched, mm + 64, MapWindow::Greedy).expect("still placeable");
    let report = verify(&g, &sched, &plan, &placement);
    assert_findings(&report, &["malformed plan: T5 scheduled 2 times"]);
    assert!(kinds(&report).contains(&ViolationKind::Incomplete));
}
