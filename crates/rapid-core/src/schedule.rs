//! Processor assignments, static schedules and the predicted-time Gantt
//! evaluation used by the scheduling heuristics.
//!
//! Paper Definition 1: a static schedule on `p` processors defines an
//! execution order of tasks on each processor, and each data object is
//! assigned to a unique owner processor.

use crate::graph::{ObjId, ProcId, TaskGraph, TaskId};

/// Communication cost model: a message of `n` allocation units costs
/// `latency + n * per_unit` time units. The Cray-T3D preset lives in
/// `rapid-machine`; this type is the machine-independent abstraction the
/// schedulers consume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed software + wire overhead of one message.
    pub latency: f64,
    /// Incremental cost per allocation unit (one `f64`) transferred.
    pub per_unit: f64,
}

impl CostModel {
    /// The unit model used by the paper's worked example: every message
    /// costs one time unit regardless of size.
    pub fn unit() -> Self {
        CostModel { latency: 1.0, per_unit: 0.0 }
    }

    /// Cost of transferring `units` allocation units.
    #[inline]
    pub fn message_cost(&self, units: u64) -> f64 {
        self.latency + self.per_unit * units as f64
    }
}

/// A mapping of tasks and data objects onto `p` processors.
///
/// Produced by the clustering stage (owner-compute rule or DSC followed by
/// load-balanced cluster mapping, see `rapid-sched`).
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Processor executing each task.
    pub task_proc: Vec<ProcId>,
    /// Owner processor of each data object (Definition 1).
    pub owner: Vec<ProcId>,
    /// Number of processors.
    pub nprocs: usize,
}

impl Assignment {
    /// Processor that executes task `t`.
    #[inline]
    pub fn proc_of(&self, t: TaskId) -> ProcId {
        self.task_proc[t.idx()]
    }

    /// Owner processor of object `d`.
    #[inline]
    pub fn owner_of(&self, d: ObjId) -> ProcId {
        self.owner[d.idx()]
    }

    /// The set `TA(P_x)` for every processor: tasks grouped by processor,
    /// preserving task-id order.
    pub fn tasks_by_proc(&self) -> Vec<Vec<TaskId>> {
        let mut out = vec![Vec::new(); self.nprocs];
        for (i, &p) in self.task_proc.iter().enumerate() {
            out[p as usize].push(TaskId(i as u32));
        }
        out
    }

    /// `DO(P_x)` split into permanent and volatile sets (Definitions 2–3)
    /// for processor `p`, given the graph's access sets. Both sets are
    /// sorted by object id.
    pub fn perm_vola(&self, g: &TaskGraph, p: ProcId) -> (Vec<ObjId>, Vec<ObjId>) {
        let mut touched = vec![false; g.num_objects()];
        for t in g.tasks() {
            if self.proc_of(t) == p {
                for d in g.accesses(t) {
                    touched[d.idx()] = true;
                }
            }
        }
        let mut perm = Vec::new();
        let mut vola = Vec::new();
        for d in g.objects() {
            if self.owner_of(d) == p {
                // Permanent objects stay allocated for the whole run on the
                // owner whether or not a local task touches them.
                perm.push(d);
            } else if touched[d.idx()] {
                vola.push(d);
            }
        }
        (perm, vola)
    }
}

/// A static schedule: an assignment plus a per-processor execution order.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Task/object → processor mapping.
    pub assign: Assignment,
    /// `order[p]` is the execution order of `TA(P_p)`.
    pub order: Vec<Vec<TaskId>>,
}

impl Schedule {
    /// Validate internal consistency: every task appears exactly once, on
    /// the processor the assignment maps it to, and each per-processor
    /// order is consistent with the DAG precedence (i.e. the whole schedule
    /// admits a legal execution). Returns `false` on any violation.
    pub fn is_valid(&self, g: &TaskGraph) -> bool {
        let n = g.num_tasks();
        let mut seen = vec![false; n];
        for (p, ord) in self.order.iter().enumerate() {
            for &t in ord {
                if t.idx() >= n || seen[t.idx()] || self.assign.proc_of(t) != p as ProcId {
                    return false;
                }
                seen[t.idx()] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return false;
        }
        // Simulate: repeatedly execute the first unexecuted task of any
        // processor whose predecessors are all done. If we stall, the
        // per-processor orders deadlock against the DAG.
        let mut done = vec![false; n];
        let mut head = vec![0usize; self.order.len()];
        let mut executed = 0;
        loop {
            let mut progressed = false;
            for (p, ord) in self.order.iter().enumerate() {
                while head[p] < ord.len() {
                    let t = ord[head[p]];
                    if g.preds(t).iter().all(|&q| done[q as usize]) {
                        done[t.idx()] = true;
                        head[p] += 1;
                        executed += 1;
                        progressed = true;
                    } else {
                        break;
                    }
                }
            }
            if executed == n {
                return true;
            }
            if !progressed {
                return false;
            }
        }
    }

    /// Position of every task within its processor's order.
    pub fn positions(&self) -> Vec<u32> {
        let n: usize = self.order.iter().map(Vec::len).sum();
        let mut pos = vec![u32::MAX; n];
        for ord in &self.order {
            for (i, &t) in ord.iter().enumerate() {
                pos[t.idx()] = i as u32;
            }
        }
        pos
    }
}

/// One row of a Gantt chart: `(task, start, finish)` triples for a
/// processor, in execution order.
pub type GanttRow = Vec<(TaskId, f64, f64)>;

/// Result of the predicted-time evaluation of a schedule.
#[derive(Clone, Debug)]
pub struct Gantt {
    /// Per-processor `(task, start, finish)` rows.
    pub rows: Vec<GanttRow>,
    /// Predicted parallel time (makespan).
    pub makespan: f64,
}

/// Evaluate the *predicted* parallel time of a schedule under the classic
/// macro-dataflow model: a task starts when its processor is free and all
/// messages from remote predecessors have arrived; messages depart when the
/// producing task finishes and take [`CostModel::message_cost`] time
/// (asynchronous sends, no sender-side occupation — matching the paper's
/// Figure 2 Gantt convention where "the processor overhead for
/// sending/receiving messages is not included").
///
/// This ignores memory constraints entirely; the run-time behaviour with
/// active memory management is modelled by `rapid-rt`'s discrete-event
/// executor.
pub fn evaluate(g: &TaskGraph, cost: &CostModel, sched: &Schedule) -> Gantt {
    let n = g.num_tasks();
    debug_assert!(sched.is_valid(g), "evaluate() called with an invalid schedule");
    let mut finish = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut head = vec![0usize; sched.order.len()];
    let mut proc_free = vec![0.0f64; sched.order.len()];
    let mut rows: Vec<GanttRow> = vec![Vec::new(); sched.order.len()];
    let mut executed = 0usize;
    while executed < n {
        // Among processors whose next task is ready, fire the one that can
        // start earliest (deterministic tie-break by processor id).
        let mut best: Option<(f64, usize, TaskId)> = None;
        for (p, ord) in sched.order.iter().enumerate() {
            if head[p] >= ord.len() {
                continue;
            }
            let t = ord[head[p]];
            if !g.preds(t).iter().all(|&q| done[q as usize]) {
                continue;
            }
            let mut ready = proc_free[p];
            for &q in g.preds(t) {
                let q = TaskId(q);
                let arrive = if sched.assign.proc_of(q) == p as ProcId {
                    finish[q.idx()]
                } else {
                    finish[q.idx()] + crate::algo::edge_comm_cost(g, cost, None, q, t)
                };
                if arrive > ready {
                    ready = arrive;
                }
            }
            if best.is_none_or(|(s, _, _)| ready < s) {
                best = Some((ready, p, t));
            }
        }
        let (start, p, t) = best.expect("valid schedule cannot stall");
        let end = start + g.weight(t);
        finish[t.idx()] = end;
        done[t.idx()] = true;
        proc_free[p] = end;
        head[p] += 1;
        rows[p].push((t, start, end));
        executed += 1;
    }
    let makespan = rows.iter().flat_map(|r| r.iter().map(|&(_, _, f)| f)).fold(0.0f64, f64::max);
    Gantt { rows, makespan }
}

impl Gantt {
    /// Render the chart as fixed-width ASCII art, one row per processor,
    /// `width` characters across. Task cells show the first letter of the
    /// task's label (or `#`); idle time is `.`. Intended for small worked
    /// examples like the paper's Figure 2.
    pub fn render_ascii(&self, g: &TaskGraph, width: usize) -> String {
        let width = width.max(10);
        let scale = self.makespan / width as f64;
        let mut out = String::new();
        for (p, row) in self.rows.iter().enumerate() {
            let mut line = vec![b'.'; width];
            for &(t, s, f) in row {
                let a = ((s / scale) as usize).min(width - 1);
                let b = ((f / scale).ceil() as usize).clamp(a + 1, width);
                let label = g.task_label(t);
                let ch = label
                    .trim_start_matches("T[")
                    .bytes()
                    .next()
                    .filter(|c| c.is_ascii_graphic())
                    .unwrap_or(b'#');
                for c in &mut line[a..b] {
                    *c = ch;
                }
            }
            out.push_str(&format!("P{p} |{}|\n", String::from_utf8_lossy(&line)));
        }
        out.push_str(&format!("     0{:>w$.1}\n", self.makespan, w = width - 1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;

    fn fork_join() -> (TaskGraph, Assignment) {
        // t0 -> {t1, t2} -> t3, each writing its own object.
        let mut b = TaskGraphBuilder::new();
        let d: Vec<_> = (0..4).map(|_| b.add_object(1)).collect();
        let t0 = b.add_task(1.0, &[], &[d[0]]);
        let t1 = b.add_task(1.0, &[d[0]], &[d[1]]);
        let t2 = b.add_task(1.0, &[d[0]], &[d[2]]);
        let t3 = b.add_task(1.0, &[d[1], d[2]], &[d[3]]);
        b.add_edge(t0, t1);
        b.add_edge(t0, t2);
        b.add_edge(t1, t3);
        b.add_edge(t2, t3);
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0, 0, 1, 0], owner: vec![0, 0, 1, 0], nprocs: 2 };
        (g, assign)
    }

    #[test]
    fn gantt_fork_join() {
        let (g, assign) = fork_join();
        let sched = Schedule {
            assign,
            order: vec![vec![TaskId(0), TaskId(1), TaskId(3)], vec![TaskId(2)]],
        };
        assert!(sched.is_valid(&g));
        let gantt = evaluate(&g, &CostModel::unit(), &sched);
        // t0: [0,1]; t1 on P0: [1,2]; t2 on P1 waits for message: starts at
        // 1+1=2, ends 3; t3 needs t2's data (+1 comm): starts 4, ends 5.
        assert!((gantt.makespan - 5.0).abs() < 1e-9);
        assert_eq!(gantt.rows[0].len(), 3);
        assert_eq!(gantt.rows[1].len(), 1);
        assert!((gantt.rows[1][0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_ascii_renders_all_rows() {
        let (g, assign) = fork_join();
        let sched = Schedule {
            assign,
            order: vec![vec![TaskId(0), TaskId(1), TaskId(3)], vec![TaskId(2)]],
        };
        let gantt = evaluate(&g, &CostModel::unit(), &sched);
        let art = gantt.render_ascii(&g, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3, "two proc rows + axis:\n{art}");
        assert!(lines[0].starts_with("P0 |"));
        assert!(lines[1].starts_with("P1 |"));
        // P1 idles before its task: leading dots.
        assert!(lines[1].contains('.'));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn invalid_schedules_detected() {
        let (g, assign) = fork_join();
        // Missing task.
        let s = Schedule {
            assign: assign.clone(),
            order: vec![vec![TaskId(0), TaskId(1)], vec![TaskId(2)]],
        };
        assert!(!s.is_valid(&g));
        // Order violates precedence on P0 (t3 before t1 stalls t3 forever:
        // t3 waits for t1 which is behind it on the same processor).
        let s = Schedule {
            assign,
            order: vec![vec![TaskId(0), TaskId(3), TaskId(1)], vec![TaskId(2)]],
        };
        assert!(!s.is_valid(&g));
    }

    #[test]
    fn perm_vola_partition() {
        let (g, assign) = fork_join();
        let (perm0, vola0) = assign.perm_vola(&g, 0);
        // P0 owns d0, d1, d3. Its tasks read d2 (t3 reads d1, d2).
        assert_eq!(perm0.iter().map(|d| d.0).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(vola0.iter().map(|d| d.0).collect::<Vec<_>>(), vec![2]);
        let (perm1, vola1) = assign.perm_vola(&g, 1);
        assert_eq!(perm1.iter().map(|d| d.0).collect::<Vec<_>>(), vec![2]);
        // P1 runs t2 which reads d0.
        assert_eq!(vola1.iter().map(|d| d.0).collect::<Vec<_>>(), vec![0]);
    }
}
