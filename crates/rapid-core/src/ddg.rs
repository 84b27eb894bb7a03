//! Data-dependence-graph extraction and transformation (paper §2).
//!
//! A DDG derived from partitioned sequential code has three kinds of
//! dependence edges: *true* (read-after-write), *anti* (write-after-read)
//! and *output* (write-after-write). Anti and output edges that are
//! subsumed by true-dependence paths are redundant; most remaining ones can
//! be eliminated by program transformation (renaming, ref. \[4\] of the
//! paper). The result consumed by the scheduler is a *transformed* graph
//! containing true dependencies only — plus ordering chains for in-place
//! *updates* (read-modify-write accesses, which carry a true dependence on
//! the previous value by definition).
//!
//! [`TraceBuilder`] replays a sequential access trace and produces such a
//! transformed [`TaskGraph`]; graphs built this way are dependence-complete
//! by construction, which is the precondition of the paper's Theorem 1
//! data-consistency argument.

use crate::graph::{sort_dedup_from, Csr, GraphError, ObjId, TaskGraph, TaskGraphBuilder, TaskId};
use std::fmt;

/// How a task touches an object in the sequential trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Reads the current value.
    Read,
    /// Overwrites the value without reading it (a *def*).
    Write,
    /// Reads and overwrites in place; carries a true dependence on the
    /// previous writer/updater and keeps in-place updaters totally
    /// ordered.
    Update,
    /// Commuting in-place update (paper §2: "commuting tasks can be
    /// marked in a task graph so that it can capture parallelism arising
    /// from commutative operations"). Consecutive `Accum` accesses to the
    /// same object form an unordered batch: each depends on the base
    /// value, none on each other, and any later access depends on the
    /// whole batch. The builder records each batch of two or more as a
    /// commuting group on the produced graph.
    Accum,
}

/// Renaming policy for `Write` accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Allocate a fresh object version for every `Write` def, eliminating
    /// anti and output dependencies at the cost of more objects (the
    /// renaming transformation of the paper's §3.1 discussion).
    Rename,
    /// Keep writes in place; anti and output dependencies become real
    /// ordering edges in the produced graph.
    InPlace,
}

/// Edge-class statistics reported by [`TraceBuilder::build`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DdgStats {
    /// Read-after-write edges (including update chains).
    pub true_edges: usize,
    /// Write-after-read edges kept as ordering edges.
    pub anti_edges: usize,
    /// Write-after-write edges kept as ordering edges.
    pub output_edges: usize,
    /// Anti/output dependencies removed by renaming.
    pub eliminated_by_renaming: usize,
    /// Duplicate or transitively redundant edges dropped.
    pub redundant_removed: usize,
    /// Fresh object versions introduced by renaming.
    pub versions_added: usize,
    /// Commuting groups recorded from `Accum` batches (size >= 2).
    pub commuting_groups: usize,
}

/// The producer of an object version's current value: nothing yet, a
/// single writer, or a closed batch of commuting updaters.
#[derive(Clone, Debug, Default)]
enum Producer {
    #[default]
    None,
    Task(TaskId),
    Batch(Vec<TaskId>),
}

/// Builds a transformed task graph from a sequential access trace.
#[derive(Debug)]
pub struct TraceBuilder {
    b: TaskGraphBuilder,
    policy: WritePolicy,
    /// Current version of each *logical* object (identity under `Rename`).
    current: Vec<ObjId>,
    /// Size of each logical object (for renaming).
    logical_size: Vec<u64>,
    /// Producer of each current version's value.
    producer: Vec<Producer>,
    /// Readers since the last write of each current version.
    readers_since: Vec<Vec<TaskId>>,
    /// Open commuting batch per version (empty when none).
    open_batch: Vec<Vec<TaskId>>,
    /// Base producer an open batch accumulates onto.
    batch_base: Vec<Producer>,
    /// Readers of the base value, drained when the batch opened; every
    /// joiner must also be ordered after them (it overwrites what they
    /// read).
    batch_readers: Vec<Vec<TaskId>>,
    next_commute_group: u32,
    stats: DdgStats,
    /// Per-task scratch, reused: the accesses as given, merged to one per
    /// object, and the resolved (renamed) read and write sets.
    acc: Vec<(ObjId, AccessKind)>,
    merged: Vec<(ObjId, AccessKind)>,
    reads: Vec<ObjId>,
    writes: Vec<ObjId>,
}

impl TraceBuilder {
    /// New builder with the given write policy.
    pub fn new(policy: WritePolicy) -> Self {
        TraceBuilder {
            b: TaskGraphBuilder::new(),
            policy,
            current: Vec::new(),
            logical_size: Vec::new(),
            producer: Vec::new(),
            readers_since: Vec::new(),
            open_batch: Vec::new(),
            batch_base: Vec::new(),
            batch_readers: Vec::new(),
            next_commute_group: 0,
            stats: DdgStats::default(),
            acc: Vec::new(),
            merged: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Declare a logical data object of `size` units; returns its id.
    /// Under [`WritePolicy::Rename`] the id names the *latest version* at
    /// each point of the trace.
    pub fn add_object(&mut self, size: u64) -> ObjId {
        let d = self.b.add_object(size);
        self.current.push(d);
        self.logical_size.push(size);
        self.producer.push(Producer::None);
        self.readers_since.push(Vec::new());
        self.open_batch.push(Vec::new());
        self.batch_base.push(Producer::None);
        self.batch_readers.push(Vec::new());
        debug_assert_eq!(self.current.len(), d.idx() + 1);
        d
    }

    /// Edges of `class` from a producer to `t`.
    fn edges_from_producer(&mut self, p: &Producer, t: TaskId, class: EdgeClass) {
        match p {
            Producer::None => {}
            Producer::Task(w) => self.push_edge(*w, t, class),
            Producer::Batch(ms) => {
                for &m in ms {
                    self.push_edge(m, t, class);
                }
            }
        }
    }

    /// Close any open commuting batch on version `v`: its members become
    /// the producer, and batches of two or more are recorded as a
    /// commuting group.
    fn close_batch(&mut self, v: usize) {
        if self.open_batch[v].is_empty() {
            return;
        }
        let members = std::mem::take(&mut self.open_batch[v]);
        if members.len() >= 2 {
            let gid = self.next_commute_group;
            self.next_commute_group += 1;
            self.stats.commuting_groups += 1;
            for &m in &members {
                self.b.set_commute_group(m, gid);
            }
        }
        self.producer[v] = Producer::Batch(members);
        self.batch_base[v] = Producer::None;
        self.batch_readers[v].clear();
    }

    /// Append the next task of the sequential trace. `accesses` pairs
    /// logical object ids with access kinds; duplicates are allowed (the
    /// strongest kind wins: Update > Write > Read).
    pub fn add_task(&mut self, weight: f64, accesses: &[(ObjId, AccessKind)]) -> TaskId {
        self.add_task_labeled("", weight, accesses)
    }

    /// [`Self::add_task`] with a label for traces and Gantt dumps
    /// (`format_args!` formats it straight into the graph's label buffer).
    pub fn add_task_labeled(
        &mut self,
        label: impl fmt::Display,
        weight: f64,
        accesses: &[(ObjId, AccessKind)],
    ) -> TaskId {
        // Collapse duplicate accesses to the strongest kind.
        self.acc.clear();
        self.acc.extend_from_slice(accesses);
        self.acc.sort_by_key(|&(d, _)| d);
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        for &(d, k) in &self.acc {
            match merged.last_mut() {
                Some((pd, pk)) if *pd == d => {
                    let stronger = match (*pk, k) {
                        (AccessKind::Update, _) | (_, AccessKind::Update) => AccessKind::Update,
                        (AccessKind::Accum, AccessKind::Accum) => AccessKind::Accum,
                        // Mixing a commuting update with any other kind on
                        // the same object forces an ordered update.
                        (AccessKind::Accum, _) | (_, AccessKind::Accum) => AccessKind::Update,
                        (AccessKind::Write, AccessKind::Read)
                        | (AccessKind::Read, AccessKind::Write) => AccessKind::Update,
                        (AccessKind::Write, AccessKind::Write) => AccessKind::Write,
                        (AccessKind::Read, AccessKind::Read) => AccessKind::Read,
                    };
                    *pk = stronger;
                }
                _ => merged.push((d, k)),
            }
        }

        // A task commuting on two *different* objects would need to be a
        // member of two groups at once, which the one-group-per-task model
        // cannot represent soundly; degrade such accesses to ordered
        // updates (still correct, merely stricter).
        if merged.iter().filter(|&&(_, k)| k == AccessKind::Accum).count() > 1 {
            for (_, k) in merged.iter_mut() {
                if *k == AccessKind::Accum {
                    *k = AccessKind::Update;
                }
            }
        }

        // Edges point at the task before it is added with its resolved
        // (renamed) accesses: its id is the next one.
        let t = TaskId(self.b.num_tasks() as u32);
        let first_edge = self.b.edges.len();
        self.reads.clear();
        self.writes.clear();
        for &(logical, kind) in &merged {
            let li = logical.idx();
            let cur = self.current[li];
            let v = cur.idx();
            match kind {
                AccessKind::Read => {
                    // Reading mid-batch would observe partial accumulation;
                    // the batch closes and the reader sees the joint value.
                    self.close_batch(v);
                    let p = self.producer[v].clone();
                    self.edges_from_producer(&p, t, EdgeClass::True);
                    self.readers_since[v].push(t);
                    self.reads.push(cur);
                }
                AccessKind::Update => {
                    // True dependence on the previous producer, and
                    // ordering after intervening readers.
                    self.close_batch(v);
                    let p = self.producer[v].clone();
                    self.edges_from_producer(&p, t, EdgeClass::True);
                    self.edges_from_readers(v, t);
                    self.producer[v] = Producer::Task(t);
                    self.reads.push(cur);
                    self.writes.push(cur);
                }
                AccessKind::Accum => {
                    if self.open_batch[v].is_empty() {
                        // Start a new batch on the current value. Stash the
                        // drained readers: every joiner is ordered after
                        // them too.
                        self.batch_readers[v] = std::mem::take(&mut self.readers_since[v]);
                        self.batch_base[v] = self.producer[v].clone();
                    }
                    // Depend on the base and on the pre-batch readers, not
                    // on the other batch members.
                    let base = self.batch_base[v].clone();
                    self.edges_from_producer(&base, t, EdgeClass::True);
                    let readers = std::mem::take(&mut self.batch_readers[v]);
                    for &r in &readers {
                        self.push_edge(r, t, EdgeClass::Anti);
                    }
                    self.batch_readers[v] = readers;
                    self.open_batch[v].push(t);
                    self.reads.push(cur);
                    self.writes.push(cur);
                }
                AccessKind::Write => match self.policy {
                    WritePolicy::Rename => {
                        // A fresh version removes the would-be anti and
                        // output edges entirely; the first def of a value
                        // nobody has read yet just takes ownership.
                        self.close_batch(v);
                        let has_producer = !matches!(self.producer[v], Producer::None);
                        let prior_deps = self.readers_since[v].len() + usize::from(has_producer);
                        self.stats.eliminated_by_renaming += prior_deps;
                        if prior_deps == 0 {
                            self.producer[v] = Producer::Task(t);
                            self.writes.push(cur);
                        } else {
                            let nv = self.new_version(li, t);
                            self.writes.push(nv);
                        }
                    }
                    WritePolicy::InPlace => {
                        self.close_batch(v);
                        let p = self.producer[v].clone();
                        self.edges_from_producer(&p, t, EdgeClass::Output);
                        self.edges_from_readers(v, t);
                        self.producer[v] = Producer::Task(t);
                        self.writes.push(cur);
                    }
                },
            }
        }
        self.merged = merged;
        // Every edge just pushed ends at `t`: sorted and deduplicated here,
        // the whole list stays sorted by (to, from), the builder's order.
        let pushed = self.b.edges.len();
        sort_dedup_from(&mut self.b.edges, first_edge);
        self.stats.redundant_removed += pushed - self.b.edges.len();
        self.b.add_task_labeled(label, weight, &self.reads, &self.writes)
    }

    /// Anti edges to `t` from every reader of version `v` since its last
    /// write (they must see the old value), who are then forgotten.
    fn edges_from_readers(&mut self, v: usize, t: TaskId) {
        let mut readers = std::mem::take(&mut self.readers_since[v]);
        for &r in &readers {
            self.push_edge(r, t, EdgeClass::Anti);
        }
        readers.clear();
        self.readers_since[v] = readers;
    }

    /// Allocate a fresh version of logical object `li` produced by `t`.
    fn new_version(&mut self, li: usize, t: TaskId) -> ObjId {
        let nv = self.b.add_object(self.logical_size[li]);
        self.stats.versions_added += 1;
        self.current[li] = nv;
        self.producer.push(Producer::Task(t));
        self.readers_since.push(Vec::new());
        self.open_batch.push(Vec::new());
        self.batch_base.push(Producer::None);
        self.batch_readers.push(Vec::new());
        nv
    }

    /// Record the dependence `from -> to`; a task never depends on itself.
    fn push_edge(&mut self, from: TaskId, to: TaskId, class: EdgeClass) {
        if from == to {
            return;
        }
        match class {
            EdgeClass::True => self.stats.true_edges += 1,
            EdgeClass::Anti => self.stats.anti_edges += 1,
            EdgeClass::Output => self.stats.output_edges += 1,
        }
        self.b.add_edge(from, to);
    }

    /// Finish: optionally drop transitively redundant edges (duplicates
    /// went as each task was added) and build the transformed graph.
    pub fn build(mut self, reduce: bool) -> Result<(TaskGraph, DdgStats), GraphError> {
        // Flush still-open commuting batches so their groups are recorded.
        for v in 0..self.open_batch.len() {
            self.close_batch(v);
        }
        if reduce {
            let (kept, removed) = transitive_reduce(self.b.num_tasks(), &self.b.edges);
            self.stats.redundant_removed += removed;
            self.b.edges = kept;
        }
        let g = self.b.build()?;
        Ok((g, self.stats))
    }
}

#[derive(Clone, Copy)]
enum EdgeClass {
    True,
    Anti,
    Output,
}

/// Remove edges `(a, b)` for which another path `a -> … -> b` exists.
/// O(v·e) DFS-based reduction; the input edge list must describe a DAG.
fn transitive_reduce(n: usize, edges: &[(u32, u32)]) -> (Vec<(u32, u32)>, usize) {
    // Sorted by (to, from) and duplicate-free, so every row is too.
    let succ = Csr::group(n, edges.iter().map(|&(a, b)| (a as usize, b)));
    let mut keep = Vec::with_capacity(edges.len());
    let mut removed = 0usize;
    let mut mark = vec![0u32; n];
    let mut epoch = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    for a in 0..n {
        if succ[a].len() < 2 {
            for &b in &succ[a] {
                keep.push((a as u32, b));
            }
            continue;
        }
        for &b in &succ[a] {
            // Is b reachable from a without using the direct edge a->b?
            epoch += 1;
            stack.clear();
            for &c in &succ[a] {
                if c != b {
                    stack.push(c);
                    mark[c as usize] = epoch;
                }
            }
            let mut found = false;
            while let Some(v) = stack.pop() {
                if v == b {
                    found = true;
                    break;
                }
                for &w in &succ[v as usize] {
                    if mark[w as usize] != epoch {
                        mark[w as usize] = epoch;
                        stack.push(w);
                    }
                }
            }
            if found {
                removed += 1;
            } else {
                keep.push((a as u32, b));
            }
        }
    }
    (keep, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_dependence_chain() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let t0 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let t1 = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let t2 = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let (g, st) = tb.build(false).unwrap();
        assert_eq!(st.true_edges, 2);
        assert_eq!(st.anti_edges, 0);
        assert!(g.has_edge(t0, t1));
        assert!(g.has_edge(t0, t2));
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn renaming_eliminates_output_and_anti() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(3);
        let _t0 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let _t1 = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let _t2 = tb.add_task(1.0, &[(d, AccessKind::Write)]); // would be anti+output
        let _t3 = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let (g, st) = tb.build(false).unwrap();
        assert_eq!(st.anti_edges, 0);
        assert_eq!(st.output_edges, 0);
        assert_eq!(st.eliminated_by_renaming, 2); // one reader + one writer
        assert_eq!(st.versions_added, 1);
        assert_eq!(g.num_objects(), 2);
        // Both versions carry the logical size.
        assert_eq!(g.obj_size(crate::graph::ObjId(1)), 3);
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn in_place_keeps_ordering_edges() {
        let mut tb = TraceBuilder::new(WritePolicy::InPlace);
        let d = tb.add_object(1);
        let t0 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let t1 = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let t2 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let (g, st) = tb.build(false).unwrap();
        assert_eq!(st.anti_edges, 1);
        assert_eq!(st.output_edges, 1);
        assert!(g.has_edge(t1, t2));
        assert!(g.has_edge(t0, t2));
        assert_eq!(g.num_objects(), 1);
        assert!(g.is_dependence_complete());
        let _ = t0;
    }

    #[test]
    fn update_chain_is_true_dependence() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let t0 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let t1 = tb.add_task(1.0, &[(d, AccessKind::Update)]);
        let t2 = tb.add_task(1.0, &[(d, AccessKind::Update)]);
        let (g, st) = tb.build(false).unwrap();
        assert_eq!(st.true_edges, 2);
        assert!(g.has_edge(t0, t1));
        assert!(g.has_edge(t1, t2));
        assert!(!g.has_edge(t0, t2));
        assert_eq!(g.num_objects(), 1, "updates never rename");
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn duplicate_accesses_merge_to_update() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let t0 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let t1 = tb.add_task(1.0, &[(d, AccessKind::Read), (d, AccessKind::Write)]);
        let (g, _) = tb.build(false).unwrap();
        assert!(g.has_edge(t0, t1));
        assert_eq!(g.reads(t1), &[0]);
        assert_eq!(g.writes(t1), &[0]);
    }

    #[test]
    fn accum_batch_is_unordered() {
        // W, A1, A2, A3, R: every accumulator depends on W only; the
        // reader depends on all three; no edges among accumulators.
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let w = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let a1 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let a2 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let a3 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let r = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let (g, st) = tb.build(false).unwrap();
        for a in [a1, a2, a3] {
            assert!(g.has_edge(w, a));
            assert!(g.has_edge(a, r));
        }
        assert!(!g.has_edge(a1, a2) && !g.has_edge(a2, a3) && !g.has_edge(a1, a3));
        assert_eq!(st.commuting_groups, 1);
        assert!(g.commutes(a1, a2) && g.commutes(a2, a3));
        assert!(!g.commutes(w, a1));
        // Relaxed dependence completeness accepts the unordered writers.
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn ordered_update_closes_accum_batch() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let a1 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let a2 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let u = tb.add_task(1.0, &[(d, AccessKind::Update)]);
        let (g, _) = tb.build(false).unwrap();
        assert!(g.has_edge(a1, u));
        assert!(g.has_edge(a2, u));
        assert!(!g.has_edge(a1, a2));
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn read_splits_accum_batches() {
        // A1, R, A2: the read observes A1's value, so A2 must come after
        // both (a new batch on the post-read value).
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let a1 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let r = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let a2 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let (g, st) = tb.build(false).unwrap();
        assert!(g.has_edge(a1, r));
        assert!(g.has_edge(a1, a2), "A2 accumulates onto A1's closed batch");
        assert!(g.has_edge(r, a2), "anti edge: the read sees the pre-A2 value");
        // Two singleton batches: no commuting group recorded.
        assert_eq!(st.commuting_groups, 0);
        assert!(!g.commutes(a1, a2));
    }

    #[test]
    fn batch_joiners_are_ordered_after_prebatch_readers() {
        // Regression: W, R, A1, A2 — both accumulators overwrite what R
        // read, so BOTH need anti edges from R (the joiner A2 used to get
        // only the base edge).
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let w = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let r = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let a1 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let a2 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let (g, _) = tb.build(false).unwrap();
        assert!(g.has_edge(w, r));
        assert!(g.has_edge(r, a1), "batch starter ordered after reader");
        assert!(g.has_edge(r, a2), "batch joiner ordered after reader");
        assert!(g.has_edge(w, a1) && g.has_edge(w, a2));
        assert!(!g.has_edge(a1, a2));
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn multi_object_accum_degrades_to_ordered_updates() {
        // A task accumulating two different objects cannot join two
        // commuting groups; it degrades to ordered updates.
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let e = tb.add_object(1);
        let a1 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let both = tb.add_task(1.0, &[(d, AccessKind::Accum), (e, AccessKind::Accum)]);
        let a2 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let (g, _) = tb.build(false).unwrap();
        assert!(g.commute_group(both).is_none(), "degraded task has no group");
        assert!(g.has_edge(a1, both), "ordered update closes the batch");
        assert!(g.has_edge(both, a2));
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn accum_plus_other_kind_in_one_task_degrades_to_update() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let a1 = tb.add_task(1.0, &[(d, AccessKind::Accum)]);
        let mixed = tb.add_task(1.0, &[(d, AccessKind::Accum), (d, AccessKind::Read)]);
        let (g, _) = tb.build(false).unwrap();
        assert!(g.has_edge(a1, mixed), "mixed access is an ordered update");
        assert!(!g.commutes(a1, mixed));
    }

    #[test]
    fn transitive_reduction_drops_subsumed_edge() {
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d0 = tb.add_object(1);
        let d1 = tb.add_object(1);
        let t0 = tb.add_task(1.0, &[(d0, AccessKind::Write)]);
        let _t1 = tb.add_task(1.0, &[(d0, AccessKind::Read), (d1, AccessKind::Write)]);
        // t2 reads both d0 and d1: the edge t0->t2 is subsumed by
        // t0->t1->t2.
        let t2 = tb.add_task(1.0, &[(d0, AccessKind::Read), (d1, AccessKind::Read)]);
        let (g, st) = tb.build(true).unwrap();
        assert!(!g.has_edge(t0, t2));
        assert_eq!(st.redundant_removed, 1);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn read_of_initial_value_then_write_renames() {
        // A read of the never-written initial value followed by a write
        // must not let the writer overwrite what the reader sees.
        let mut tb = TraceBuilder::new(WritePolicy::Rename);
        let d = tb.add_object(1);
        let t0 = tb.add_task(1.0, &[(d, AccessKind::Read)]);
        let t1 = tb.add_task(1.0, &[(d, AccessKind::Write)]);
        let (g, st) = tb.build(false).unwrap();
        assert_eq!(st.anti_edges, 0);
        assert_eq!(g.num_objects(), 2);
        assert!(!g.has_edge(t0, t1));
        assert!(g.is_dependence_complete());
    }
}
