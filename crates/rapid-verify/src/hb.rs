//! Static happens-before / wait-for analysis (the Theorem-1
//! deadlock-freedom obligation).
//!
//! Nodes model the points where the Figure 3(b) state machine can block:
//!
//! - **Task** — REC: a task waits for all its incoming messages.
//! - **Window** — MAP: a window's address packages are emitted as part of
//!   the window; program order places it before the tasks it covers.
//! - **Send** — completion of a (possibly suspended) message delivery: it
//!   needs the source task to have executed (EXE precedes SND) and, for
//!   every volatile object it carries, the destination window that
//!   notifies the sender of the object's address (Fact I: no remote write
//!   before the address package).
//!
//! Program order chains each processor's windows and tasks; message edges
//! connect the chains. The plan is deadlock-free iff this graph is
//! acyclic — single-slot mailbox blocking adds no extra edges because a
//! processor services its address queue in *every* blocking state, so a
//! package can only go undrained if its receiver terminates early, which
//! the stale-package check rules out separately (DESIGN.md §11).
//!
//! The graph is walked where the plan already holds it: program order is
//! each processor's next position, task → send is `RtPlan::out_msgs`,
//! send → task is [`RtPlan::dst_tasks`]. Only the window → send edges, one
//! per carried volatile, are built. Kahn's algorithm becomes a replay:
//! each processor advances along its chain while the next node's inputs
//! are done, and whatever no processor reaches contains a cycle. Only a
//! cycle that was found is turned into [`WaitPoint`]s.

use crate::finding::{WaitPoint, WaitStep};
use rapid_core::graph::Csr;
use rapid_core::schedule::Schedule;
use rapid_rt::maps::Message;
use rapid_rt::{MapPlacement, PlannedMap, RtPlan};
use std::collections::HashMap;

/// A node of the wait-for graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// Window `k` of processor `p` (its index in the placement).
    Window(u32, u32),
    /// The task at position `j` of processor `p`.
    Task(u32, u32),
    /// Message `m`'s delivery.
    Send(u32),
}

/// One processor's program order: windows merged into tasks, a window at
/// position `k` before the task at `k`, windows at equal positions in
/// placement order.
struct Chain {
    /// The order, `true` for a window, with its window index or position.
    nodes: Vec<(bool, u32)>,
    /// Chain index of every window, then of every task.
    win_at: Vec<u32>,
    task_at: Vec<u32>,
}

impl Chain {
    fn new(windows: &[PlannedMap], ntasks: usize) -> Chain {
        let mut wins: Vec<u32> = (0..windows.len() as u32).collect();
        // Only a corrupted placement lists windows out of position order.
        if !windows.is_sorted_by_key(|w| w.pos) {
            wins.sort_by_key(|&k| windows[k as usize].pos);
        }
        let mut chain =
            Chain { nodes: Vec::new(), win_at: vec![0; windows.len()], task_at: vec![0; ntasks] };
        let mut next_win = wins.iter().peekable();
        for j in 0..=ntasks as u32 {
            while let Some(&&k) = next_win.peek() {
                if windows[k as usize].pos > j && (j as usize) < ntasks {
                    break;
                }
                chain.win_at[k as usize] = chain.nodes.len() as u32;
                chain.nodes.push((true, k));
                next_win.next();
            }
            if (j as usize) < ntasks {
                chain.task_at[j as usize] = chain.nodes.len() as u32;
                chain.nodes.push((false, j));
            }
        }
        chain
    }
}

/// Find a wait-for cycle, if any. `fact_i` lists the window → send edges
/// `(message, window index on the message's destination)`, one per
/// carried volatile whose address package exists, in message order;
/// `window_of` gives the same window for a `(message, object)` pair, or
/// `None` where coverage is missing (reported separately as a
/// `MissingAddress` finding).
pub(crate) fn deadlock_cycle(
    sched: &Schedule,
    plan: &RtPlan,
    placement: &MapPlacement,
    fact_i: &[(u32, u32)],
    window_of: impl Fn(&Message, u32) -> Option<u32>,
) -> Option<Vec<WaitPoint>> {
    let nprocs = sched.order.len();
    let chains: Vec<Chain> =
        (0..nprocs).map(|p| Chain::new(&placement.per_proc[p], sched.order[p].len())).collect();
    let win_base: Vec<usize> = placement
        .per_proc
        .iter()
        .scan(0, |base, wins| {
            *base += wins.len();
            Some(*base - wins.len())
        })
        .collect();
    let win_sends = Csr::group(
        placement.per_proc.iter().map(Vec::len).sum(),
        fact_i
            .iter()
            .map(|&(m, w)| (win_base[plan.msgs[m as usize].dst_proc as usize] + w as usize, m)),
    );

    // Inputs still missing: undelivered messages per task, and per send
    // its source task plus its Fact-I windows.
    let mut missing: Vec<u32> = plan.in_msgs.rows().map(|r| r.len() as u32).collect();
    let mut need: Vec<u32> = vec![1; plan.msgs.len()];
    for &(m, _) in fact_i {
        need[m as usize] += 1;
    }
    let mut cursor = vec![0usize; nprocs];
    let mut ready: Vec<usize> = (0..nprocs).collect();
    while let Some(p) = ready.pop() {
        while let Some(&(is_win, i)) = chains[p].nodes.get(cursor[p]) {
            let sends = if is_win {
                &win_sends[win_base[p] + i as usize]
            } else {
                let t = sched.order[p][i as usize];
                if missing[t.idx()] > 0 {
                    break;
                }
                &plan.out_msgs[t.idx()]
            };
            cursor[p] += 1;
            for &m in sends {
                need[m as usize] -= 1;
                if need[m as usize] == 0 {
                    for dt in plan.dst_tasks(m) {
                        missing[dt.idx()] -= 1;
                        if missing[dt.idx()] == 0 {
                            ready.push(plan.msgs[m as usize].dst_proc as usize);
                        }
                    }
                }
            }
        }
    }
    if (0..nprocs).all(|p| cursor[p] == chains[p].nodes.len()) {
        return None;
    }

    let stuck = |v: Node| match v {
        Node::Window(p, k) => chains[p as usize].win_at[k as usize] as usize >= cursor[p as usize],
        Node::Task(p, j) => chains[p as usize].task_at[j as usize] as usize >= cursor[p as usize],
        Node::Send(m) => need[m as usize] > 0,
    };
    // Residual nodes in node-id order: per processor its windows, then
    // its tasks; then the sends.
    let start = (0..nprocs as u32)
        .flat_map(|p| {
            let wins =
                (0..placement.per_proc[p as usize].len() as u32).map(move |k| Node::Window(p, k));
            wins.chain((0..sched.order[p as usize].len() as u32).map(move |j| Node::Task(p, j)))
        })
        .chain((0..plan.msgs.len() as u32).map(Node::Send))
        .find(|&v| stuck(v))?;

    // Every stuck node has a stuck input, so walking inputs must revisit
    // a node: the program-order predecessor first, then message inputs
    // in message order.
    let chain_pred = |p: u32, at: u32| -> Option<Node> {
        let &(is_win, i) = chains[p as usize].nodes.get(at.checked_sub(1)? as usize)?;
        Some(if is_win { Node::Window(p, i) } else { Node::Task(p, i) })
    };
    let inputs = |v: Node| -> Vec<Node> {
        match v {
            Node::Window(p, k) => {
                chain_pred(p, chains[p as usize].win_at[k as usize]).into_iter().collect()
            }
            Node::Task(p, j) => {
                let t = sched.order[p as usize][j as usize];
                let sends = plan.in_msgs[t.idx()].iter().map(|&m| Node::Send(m));
                chain_pred(p, chains[p as usize].task_at[j as usize])
                    .into_iter()
                    .chain(sends)
                    .collect()
            }
            Node::Send(m) => {
                let msg = &plan.msgs[m as usize];
                let wins = plan
                    .objs(m)
                    .iter()
                    .filter(|d| sched.assign.owner_of(**d) != msg.dst_proc)
                    .filter_map(|d| window_of(msg, d.0))
                    .map(|k| Node::Window(msg.dst_proc, k));
                std::iter::once(Node::Task(msg.src_proc, plan.pos[msg.src_task.idx()]))
                    .chain(wins)
                    .collect()
            }
        }
    };
    let mut path: Vec<Node> = vec![start];
    let mut seen: HashMap<Node, usize> = HashMap::from([(start, 0)]);
    loop {
        let next = inputs(path[path.len() - 1]).into_iter().find(|&u| stuck(u))?;
        if let Some(&at) = seen.get(&next) {
            // path[at..] walked inputs; reverse for wait order
            // ("A waits on B waits on ... waits on A").
            return Some(
                path[at..].iter().rev().map(|&v| wait_point(sched, plan, placement, v)).collect(),
            );
        }
        seen.insert(next, path.len());
        path.push(next);
    }
}

/// The blocked step a node stands for.
fn wait_point(sched: &Schedule, plan: &RtPlan, placement: &MapPlacement, v: Node) -> WaitPoint {
    match v {
        Node::Window(p, k) => WaitPoint {
            proc: p,
            step: WaitStep::Window { pos: placement.per_proc[p as usize][k as usize].pos },
        },
        Node::Task(p, j) => WaitPoint {
            proc: p,
            step: WaitStep::Task { task: sched.order[p as usize][j as usize].0, pos: j },
        },
        Node::Send(m) => {
            WaitPoint { proc: plan.msgs[m as usize].src_proc, step: WaitStep::Send { msg: m } }
        }
    }
}
