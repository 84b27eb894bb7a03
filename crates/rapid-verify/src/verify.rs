//! The verifier entry points: orchestrate the structural, dataflow,
//! address-coverage, precedence and deadlock analyses over a complete
//! plan and collect typed [`Finding`]s.

use crate::dataflow;
use crate::finding::Finding;
use crate::hb;
use rapid_core::graph::{TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_rt::maps::Message;
use rapid_rt::{ExecError, MapPlacement, MapWindow, RtPlan};

/// Result of a verification run.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Every defect proven, in analysis order (structural, then per-
    /// processor dataflow, then address coverage, then precedence, then
    /// deadlock). Empty iff the plan is accepted.
    pub findings: Vec<Finding>,
    /// Per-processor static memory peaks of the placement (max window
    /// occupancy; equals the DES executor's traced arena high-water for
    /// accepted plans). Empty when no placement could be built.
    pub peak: Vec<u64>,
    /// The per-processor capacity the plan was verified against.
    pub capacity: u64,
}

impl VerifyReport {
    /// True when no analysis found a defect: the plan provably executes
    /// deadlock-free and violation-free on both executors under
    /// `capacity` (the static half of the differential guarantee).
    pub fn accepted(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verify a complete plan: `(g, sched)` with its protocol metadata
/// `plan` and a MAP `placement` computed for (or claimed for) the
/// placement's capacity.
///
/// The placement is an explicit input so corrupted or stale artifacts
/// can be checked — the verifier replays it from first principles and
/// trusts nothing but the graph, the schedule and the static lifetimes.
pub fn verify(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    placement: &MapPlacement,
) -> VerifyReport {
    let mut findings = Vec::new();
    let structural_ok = check_structure(g, sched, placement, &mut findings);
    // Free-safety, allocation sanity, occupancy accounting and capacity.
    for (p, wins) in placement.per_proc.iter().enumerate().take(sched.order.len()) {
        dataflow::sweep_proc(
            g,
            sched,
            &plan.lv.procs[p],
            p,
            wins,
            placement.capacity,
            plan.perm_units[p],
            &mut findings,
        );
    }
    let addr = AddrIndex::new(g, placement);
    let fact_i = address_findings(sched, plan, &addr, &mut findings);

    // Precedence and deadlock need trustworthy task positions.
    if structural_ok {
        precedence_findings(g, sched, plan, &mut findings);
        let window_of = |m: &Message, obj| addr.find(m.dst_proc, m.src_proc, obj);
        if let Some(cycle) = hb::deadlock_cycle(sched, plan, placement, &fact_i, window_of) {
            findings.push(Finding::Deadlock { cycle });
        }
    }

    let peak = placement.peaks(&plan.perm_units);
    VerifyReport { findings, peak, capacity: placement.capacity }
}

/// Address-package coverage (Fact I) in message order, then stale
/// packages in sorted key order. Returns the Fact-I edges the coverage
/// found, `(message, window)` in message order.
fn address_findings(
    sched: &Schedule,
    plan: &RtPlan,
    addr: &AddrIndex,
    findings: &mut Vec<Finding>,
) -> Vec<(u32, u32)> {
    let mut consumed = vec![false; addr.keys.len()];
    let mut fact_i = Vec::new();
    for m in &plan.msgs {
        for &d in plan.objs(m.id) {
            if sched.assign.owner_of(d) == m.dst_proc {
                continue; // written in place on its owner, no package needed
            }
            match addr.position(m.dst_proc, m.src_proc, d.0) {
                Some(i) => {
                    consumed[i] = true;
                    fact_i.push((m.id, addr.keys[i].3));
                }
                None => findings.push(Finding::MissingAddress {
                    src: m.src_proc,
                    dst: m.dst_proc,
                    msg: m.id,
                    obj: d.0,
                }),
            }
        }
    }

    let mut stale: Vec<(u32, u32, u32)> = (addr.keys.iter().zip(&consumed))
        .filter(|&(_, &used)| !used)
        .map(|(&(q, obj, dst, _), _)| (q, dst, obj))
        .collect();
    stale.sort_unstable();
    findings.extend(stale.into_iter().map(|(src, dst, obj)| Finding::StalePackage {
        src,
        dst,
        obj,
    }));
    fact_i
}

/// Every address package entry of a placement, `(allocating proc, obj,
/// notified proc)` sorted, with the first window of the allocating
/// processor that emits it, and where each `(allocating proc, obj)` run
/// starts: a lookup is one array read and a scan of the few processors
/// notified of that object.
struct AddrIndex {
    keys: Vec<(u32, u32, u32, u32)>,
    /// `first[q * objects + obj]`: index of `(q, obj)`'s first key.
    first: Vec<u32>,
    objects: usize,
}

impl AddrIndex {
    fn new(g: &TaskGraph, placement: &MapPlacement) -> AddrIndex {
        let mut keys: Vec<(u32, u32, u32, u32)> = Vec::new();
        for (q, wins) in placement.per_proc.iter().enumerate() {
            for (widx, w) in wins.iter().enumerate() {
                keys.extend(w.notifies.iter().map(|n| (q as u32, n.obj, n.dst, widx as u32)));
            }
        }
        keys.sort_unstable();
        keys.dedup_by_key(|e| (e.0, e.1, e.2));
        let objects = g.num_objects();
        let mut first = vec![u32::MAX; placement.per_proc.len() * objects];
        for (i, &(q, obj, ..)) in keys.iter().enumerate().rev() {
            // An unknown object can only ever be a stale entry.
            if (obj as usize) < objects {
                first[q as usize * objects + obj as usize] = i as u32;
            }
        }
        AddrIndex { keys, first, objects }
    }

    /// Index of the key `(q, obj, dst)`.
    fn position(&self, q: u32, dst: u32, obj: u32) -> Option<usize> {
        let at = *self.first.get(q as usize * self.objects + obj as usize)? as usize;
        let mut run = self.keys.get(at..)?.iter().take_while(|k| (k.0, k.1) == (q, obj));
        run.position(|k| k.2 == dst).map(|i| at + i)
    }

    /// The window of `q` that notifies `dst` of `obj`'s address.
    fn find(&self, q: u32, dst: u32, obj: u32) -> Option<u32> {
        self.position(q, dst, obj).map(|i| self.keys[i].3)
    }
}

/// Every task runs after its same-processor predecessors, reported by
/// processor and position. Tasks are visited in id order, where the
/// predecessor rows are laid out, and the rare violations sorted after.
fn precedence_findings(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    findings: &mut Vec<Finding>,
) {
    let mut late: Vec<(u32, u32, u32, u32)> = Vec::new();
    for t in g.tasks() {
        let (p, j) = (sched.assign.proc_of(t), plan.pos[t.idx()]);
        for &q in g.preds(t) {
            if sched.assign.proc_of(TaskId(q)) == p && plan.pos[q as usize] > j {
                late.push((p, j, t.0, q));
            }
        }
    }
    // Stable: a task's predecessors stay in row order.
    late.sort_by_key(|&(p, j, ..)| (p, j));
    findings.extend(late.into_iter().map(|(proc, position, task, pred)| {
        Finding::PrecedenceViolation { proc, task, pred, position }
    }));
}

/// Convenience entry point: build the protocol plan and the greedy MAP
/// placement for `capacity`, then verify.
///
/// When no placement exists at all — the schedule is non-executable
/// under `capacity` (Definition 6) — the report is the planner's refusal
/// (see [`place_or_reject`]).
pub fn verify_capacity(g: &TaskGraph, sched: &Schedule, capacity: u64) -> VerifyReport {
    let plan = RtPlan::new(g, sched);
    match place_or_reject(g, sched, &plan, capacity) {
        Ok(placement) => verify(g, sched, &plan, &placement),
        Err(report) => report,
    }
}

/// The greedy MAP placement of `plan` under `capacity`, or the report
/// that says why there is none: the planner's refusal as a single
/// [`Finding::CapacityExceeded`], naming the first window that cannot be
/// provisioned and the volatile live set that overflows it.
pub fn place_or_reject(
    g: &TaskGraph,
    sched: &Schedule,
    plan: &RtPlan,
    capacity: u64,
) -> Result<MapPlacement, VerifyReport> {
    plan.place_maps(g, sched, capacity, MapWindow::Greedy).map_err(|e| {
        let finding = match e {
            ExecError::NonExecutable { proc, position, needed, capacity, live } => {
                Finding::CapacityExceeded { proc, position, needed, capacity, live }
            }
            // The counting walk refuses nothing else.
            other => Finding::Malformed { detail: other.to_string() },
        };
        VerifyReport { findings: vec![finding], peak: Vec::new(), capacity }
    })
}

/// Structural sanity: orders cover every task exactly once on the
/// processor its assignment names, and the placement has one window list
/// per processor. Returns false when the position-dependent analyses
/// (precedence, deadlock) cannot be trusted.
fn check_structure(
    g: &TaskGraph,
    sched: &Schedule,
    placement: &MapPlacement,
    findings: &mut Vec<Finding>,
) -> bool {
    let mut ok = true;
    if sched.order.len() != sched.assign.nprocs {
        findings.push(Finding::Malformed {
            detail: format!("{} orders for {} processors", sched.order.len(), sched.assign.nprocs),
        });
        ok = false;
    }
    if placement.per_proc.len() != sched.order.len() {
        findings.push(Finding::Malformed {
            detail: format!(
                "placement covers {} processors, schedule has {}",
                placement.per_proc.len(),
                sched.order.len()
            ),
        });
        ok = false;
    }
    let mut count = vec![0u32; g.num_tasks()];
    for (p, ord) in sched.order.iter().enumerate() {
        for &t in ord {
            if t.idx() >= count.len() {
                findings.push(Finding::Malformed {
                    detail: format!("order of P{p} names unknown task T{}", t.0),
                });
                ok = false;
                continue;
            }
            count[t.idx()] += 1;
            if sched.assign.proc_of(t) != p as u32 {
                findings.push(Finding::Malformed {
                    detail: format!(
                        "T{} scheduled on P{p} but assigned to P{}",
                        t.0,
                        sched.assign.proc_of(t)
                    ),
                });
                ok = false;
            }
        }
    }
    for (i, &c) in count.iter().enumerate() {
        if c != 1 {
            findings.push(Finding::Malformed { detail: format!("T{i} scheduled {c} times") });
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures::{random_irregular_graph, RandomGraphSpec};
    use rapid_core::memreq::min_mem;
    use rapid_core::schedule::CostModel;
    use rapid_rt::maps::Notify;
    use rapid_sched::{cyclic_owner_map, mpo_order, owner_compute_assignment};

    /// The verifier as it was before its analyses ran on dense state and
    /// on the plan's own tables: ordered sets and hash maps in the
    /// dataflow sweep, hashed address keys, precedence checked in order
    /// against `Schedule::positions`, and a wait-for graph with
    /// every node and edge materialised, sorted chains and Kahn's
    /// algorithm. Kept as the oracle of the rewritten analyses.
    mod oracle {
        use super::*;
        use crate::finding::{WaitPoint, WaitStep};
        use std::collections::{BTreeSet, HashMap, HashSet};

        type AddrWin = HashMap<(u32, u32, u32), usize>;

        pub(super) fn verify(
            g: &TaskGraph,
            sched: &Schedule,
            plan: &RtPlan,
            placement: &MapPlacement,
        ) -> Vec<Finding> {
            let mut findings = Vec::new();
            let structural_ok = check_structure(g, sched, placement, &mut findings);
            let mut addr_win = AddrWin::new();
            for (q, wins) in placement.per_proc.iter().enumerate() {
                for (widx, w) in wins.iter().enumerate() {
                    for n in &w.notifies {
                        addr_win.entry((q as u32, n.dst, n.obj)).or_insert(widx);
                    }
                }
            }
            for (p, wins) in placement.per_proc.iter().enumerate().take(sched.order.len()) {
                sweep_proc(g, sched, plan, p, wins, placement, &mut findings);
            }
            let mut consumed = HashSet::new();
            for m in &plan.msgs {
                for &d in plan.objs(m.id) {
                    if sched.assign.owner_of(d) == m.dst_proc {
                        continue;
                    }
                    let key = (m.dst_proc, m.src_proc, d.0);
                    consumed.insert(key);
                    if !addr_win.contains_key(&key) {
                        findings.push(Finding::MissingAddress {
                            src: m.src_proc,
                            dst: m.dst_proc,
                            msg: m.id,
                            obj: d.0,
                        });
                    }
                }
            }
            let mut stale: Vec<(u32, u32, u32)> =
                addr_win.keys().filter(|k| !consumed.contains(k)).copied().collect();
            stale.sort_unstable();
            findings.extend(stale.into_iter().map(|(src, dst, obj)| Finding::StalePackage {
                src,
                dst,
                obj,
            }));
            if structural_ok {
                precedence_findings(g, sched, &mut findings);
                if let Some(cycle) = deadlock_cycle(sched, plan, placement, &addr_win) {
                    findings.push(Finding::Deadlock { cycle });
                }
            }
            findings
        }

        fn sweep_proc(
            g: &TaskGraph,
            sched: &Schedule,
            plan: &RtPlan,
            p: usize,
            windows: &[rapid_rt::PlannedMap],
            placement: &MapPlacement,
            findings: &mut Vec<Finding>,
        ) {
            let (order, proc, pl) = (&sched.order[p], p as u32, &plan.lv.procs[p]);
            let mut live: BTreeSet<u32> = BTreeSet::new();
            let mut freed: HashMap<u32, u32> = HashMap::new();
            let mut in_use = plan.perm_units[p];
            let mut cursor = 0usize;
            let last_use = |obj: u32| {
                let k = pl.volatile.binary_search(&rapid_core::graph::ObjId(obj)).ok()?;
                Some(pl.volatile_span[k].1)
            };
            let check_uses = |range: std::ops::Range<usize>,
                              live: &BTreeSet<u32>,
                              freed: &HashMap<u32, u32>,
                              findings: &mut Vec<Finding>| {
                for j in range {
                    for d in g.accesses(order[j]) {
                        if sched.assign.owner_of(d) == proc || live.contains(&d.0) {
                            continue;
                        }
                        let (obj, position) = (d.0, j as u32);
                        findings.push(match freed.get(&d.0) {
                            Some(&freed_at) => {
                                Finding::UseAfterFree { proc, obj, position, freed_at }
                            }
                            None => Finding::UseBeforeAlloc { proc, obj, position },
                        });
                    }
                }
            };
            for w in windows {
                let wpos = (w.pos as usize).min(order.len());
                if wpos > cursor {
                    check_uses(cursor..wpos, &live, &freed, findings);
                    cursor = wpos;
                }
                for &d in &w.frees {
                    if live.remove(&d.0) {
                        in_use -= g.obj_size(d);
                        freed.insert(d.0, w.pos);
                        if let Some(l) = last_use(d.0).filter(|&l| l >= w.pos) {
                            findings.push(Finding::FreeBeforeLastUse {
                                proc,
                                obj: d.0,
                                map_pos: w.pos,
                                last_use: l,
                            });
                        }
                    } else {
                        findings.push(Finding::DoubleFree { proc, obj: d.0, map_pos: w.pos });
                    }
                }
                for &d in &w.allocs {
                    let is_volatile = pl.volatile.binary_search(&d).is_ok();
                    if !is_volatile || live.contains(&d.0) || freed.contains_key(&d.0) {
                        findings.push(Finding::DoubleAlloc { proc, obj: d.0, map_pos: w.pos });
                    } else {
                        live.insert(d.0);
                        in_use += g.obj_size(d);
                    }
                }
                if in_use != w.in_use {
                    findings.push(Finding::AccountingMismatch {
                        proc,
                        map_pos: w.pos,
                        reported: w.in_use,
                        replayed: in_use,
                    });
                }
                if in_use > placement.capacity {
                    let capacity = placement.capacity;
                    findings.push(Finding::WindowOverCap {
                        proc,
                        map_pos: w.pos,
                        in_use,
                        capacity,
                    });
                }
            }
            check_uses(cursor..order.len(), &live, &freed, findings);
        }

        fn precedence_findings(g: &TaskGraph, sched: &Schedule, findings: &mut Vec<Finding>) {
            let pos = sched.positions();
            for (p, order) in sched.order.iter().enumerate() {
                for (j, &t) in order.iter().enumerate() {
                    for &q in g.preds(t) {
                        let q = TaskId(q);
                        if sched.assign.proc_of(q) == p as u32 && pos[q.idx()] > j as u32 {
                            findings.push(Finding::PrecedenceViolation {
                                proc: p as u32,
                                task: t.0,
                                pred: q.0,
                                position: j as u32,
                            });
                        }
                    }
                }
            }
        }

        fn deadlock_cycle(
            sched: &Schedule,
            plan: &RtPlan,
            placement: &MapPlacement,
            addr_win: &AddrWin,
        ) -> Option<Vec<WaitPoint>> {
            let nprocs = sched.order.len();
            let mut win_id: Vec<Vec<usize>> = Vec::new();
            let mut task_id: Vec<Vec<usize>> = Vec::new();
            let mut kind: Vec<WaitPoint> = Vec::new();
            for p in 0..nprocs {
                let mut wids = Vec::new();
                for w in &placement.per_proc[p] {
                    wids.push(kind.len());
                    kind.push(WaitPoint { proc: p as u32, step: WaitStep::Window { pos: w.pos } });
                }
                win_id.push(wids);
                let mut tids = Vec::new();
                for (j, &t) in sched.order[p].iter().enumerate() {
                    tids.push(kind.len());
                    let step = WaitStep::Task { task: t.0, pos: j as u32 };
                    kind.push(WaitPoint { proc: p as u32, step });
                }
                task_id.push(tids);
            }
            let send_base = kind.len();
            for m in &plan.msgs {
                kind.push(WaitPoint { proc: m.src_proc, step: WaitStep::Send { msg: m.id } });
            }
            let total = kind.len();
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); total];
            let mut edge = |a: usize, b: usize| {
                succs[a].push(b);
                preds[b].push(a);
            };
            for p in 0..nprocs {
                let mut seq: Vec<(u32, u8, usize)> = Vec::new();
                for (k, w) in placement.per_proc[p].iter().enumerate() {
                    seq.push((w.pos, 0, win_id[p][k]));
                }
                for (j, &id) in task_id[p].iter().enumerate() {
                    seq.push((j as u32, 1, id));
                }
                seq.sort();
                for pair in seq.windows(2) {
                    edge(pair[0].2, pair[1].2);
                }
            }
            for m in &plan.msgs {
                let s = send_base + m.id as usize;
                edge(task_id[m.src_proc as usize][plan.pos[m.src_task.idx()] as usize], s);
                for &d in plan.objs(m.id) {
                    if sched.assign.owner_of(d) == m.dst_proc {
                        continue;
                    }
                    if let Some(&widx) = addr_win.get(&(m.dst_proc, m.src_proc, d.0)) {
                        edge(win_id[m.dst_proc as usize][widx], s);
                    }
                }
                for &dt in plan.dst_tasks(m.id) {
                    edge(s, task_id[m.dst_proc as usize][plan.pos[dt.idx()] as usize]);
                }
            }
            let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
            let mut queue: Vec<usize> = (0..total).filter(|&v| indeg[v] == 0).collect();
            while let Some(v) = queue.pop() {
                for &w in &succs[v] {
                    indeg[w] -= 1;
                    if indeg[w] == 0 {
                        queue.push(w);
                    }
                }
            }
            let start = (0..total).find(|&v| indeg[v] > 0)?;
            let mut path = vec![start];
            let mut seen: HashMap<usize, usize> = HashMap::from([(start, 0)]);
            loop {
                let &next = preds[path[path.len() - 1]].iter().find(|&&u| indeg[u] > 0)?;
                if let Some(&at) = seen.get(&next) {
                    return Some(path[at..].iter().rev().map(|&v| kind[v].clone()).collect());
                }
                seen.insert(next, path.len());
                path.push(next);
            }
        }
    }

    /// xorshift64*: a deterministic stream for the corruption generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n.max(1)
        }
    }

    /// One random corruption of a plan: its order or its placement.
    fn corrupt(rng: &mut Rng, g: &TaskGraph, sched: &mut Schedule, pl: &mut MapPlacement) {
        let p = rng.below(sched.order.len());
        let (ord, wins) = (&mut sched.order[p], &mut pl.per_proc[p]);
        let (nw, nt) = (wins.len(), ord.len());
        match rng.below(10) {
            0 if nt > 1 => {
                let j = rng.below(nt - 1);
                ord.swap(j, j + 1 + rng.below(nt - j - 1));
            }
            1 => wins[rng.below(nw)].pos = rng.below(nt + 2) as u32,
            2 if nw > 1 => wins.swap(rng.below(nw), rng.below(nw)),
            3 => {
                let d = rapid_core::graph::ObjId(rng.below(g.num_objects()) as u32);
                wins[rng.below(nw)].frees.push(d);
            }
            4 => {
                let w = &mut wins[rng.below(nw)];
                if !w.allocs.is_empty() {
                    w.allocs.remove(rng.below(w.allocs.len()));
                }
            }
            5 => {
                let d = rapid_core::graph::ObjId(rng.below(g.num_objects()) as u32);
                wins[rng.below(nw)].allocs.push(d);
            }
            6 => wins[rng.below(nw)].notifies.clear(),
            7 => {
                let dst = rng.below(sched.assign.nprocs) as u32;
                let obj = rng.below(g.num_objects()) as u32;
                wins[rng.below(nw)].notifies.push(Notify { dst, obj });
            }
            8 => wins[rng.below(nw)].in_use += 1,
            _ => {
                let w = &mut wins[rng.below(nw)];
                if !w.frees.is_empty() {
                    w.frees.remove(rng.below(w.frees.len()));
                }
            }
        }
    }

    #[test]
    fn rewritten_analyses_report_what_the_oracle_reports() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut deadlocks, mut late, mut cases) = (0, 0, 0);
        for seed in 0..60u64 {
            let procs = 2 + seed as usize % 3;
            let spec =
                RandomGraphSpec { objects: 24, tasks: 80, max_obj_size: 2, ..Default::default() };
            let g = random_irregular_graph(seed, &spec);
            let assign =
                owner_compute_assignment(&g, &cyclic_owner_map(g.num_objects(), procs), procs);
            let clean = mpo_order(&g, &assign, &CostModel::unit());
            let cap = min_mem(&g, &clean).min_mem;
            for _ in 0..20 {
                let mut sched = clean.clone();
                let plan0 = RtPlan::new(&g, &sched);
                let Ok(mut placement) = plan0.place_maps(&g, &sched, cap + 4, MapWindow::Greedy)
                else {
                    continue;
                };
                for _ in 0..1 + rng.below(3) {
                    corrupt(&mut rng, &g, &mut sched, &mut placement);
                }
                let plan = RtPlan::new(&g, &sched);
                let got = verify(&g, &sched, &plan, &placement).findings;
                assert_eq!(got, oracle::verify(&g, &sched, &plan, &placement), "seed {seed}");
                deadlocks += usize::from(got.iter().any(|f| matches!(f, Finding::Deadlock { .. })));
                late +=
                    got.iter().filter(|f| matches!(f, Finding::PrecedenceViolation { .. })).count();
                cases += 1;
            }
        }
        // The corpus must exercise the cycle extraction and the
        // precedence order, not just the clean paths.
        assert!(
            cases > 1000 && deadlocks > 50 && late > 50,
            "{cases} cases, {deadlocks} deadlocks, {late} precedence violations"
        );
    }
}
