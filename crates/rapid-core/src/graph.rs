//! The index-based task-dependence graph.
//!
//! Tasks and data objects are identified by dense `u32` indices
//! ([`TaskId`], [`ObjId`]); adjacency and access sets are stored in
//! compressed (CSR-style) form so that traversals are cache-friendly and
//! allocation-free, following the flat-index idiom of high-performance Rust
//! graph code.

use std::fmt;

/// Identifier of a task (a node of the dependence DAG).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Identifier of a distinct data object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

/// Identifier of a (virtual) processor.
pub type ProcId = u32;

impl TaskId {
    /// The index as a `usize`, for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ObjId {
    /// The index as a `usize`, for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Compressed rows: `targets[offsets[i]..offsets[i+1]]` is row `i` — the
/// neighbours of node `i` for an adjacency, or any other list per index
/// (`csr[i]` reads it). Two allocations however many rows there are, where
/// a `Vec<Vec<T>>` makes one per non-empty row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr<T = u32> {
    offsets: Vec<u32>,
    targets: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr { offsets: vec![0], targets: Vec::new() }
    }
}

impl Csr {
    /// Append a row holding `items` sorted and deduplicated.
    fn push_set(&mut self, items: impl IntoIterator<Item = u32>) {
        let start = self.targets.len();
        self.targets.extend(items);
        sort_dedup_from(&mut self.targets, start);
        self.end_row();
    }
}

/// Sort `v[start..]` and drop its duplicates, leaving `v[..start]` alone.
pub(crate) fn sort_dedup_from<T: Ord + Copy>(v: &mut Vec<T>, start: usize) {
    v[start..].sort_unstable();
    let mut end = start;
    for i in start..v.len() {
        if end == start || v[i] != v[end - 1] {
            v[end] = v[i];
            end += 1;
        }
    }
    v.truncate(end);
}

impl<T: Copy> Csr<T> {
    /// Build from per-node neighbour lists.
    pub fn from_lists(lists: &[Vec<T>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut targets = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for l in lists {
            targets.extend_from_slice(l);
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Deal `(row, item)` pairs into `n` rows; within a row the items keep
    /// the order they came in (a stable counting sort, two passes over
    /// `pairs`).
    pub fn group(n: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut lens = vec![0u32; n];
        for (row, _) in pairs.clone() {
            lens[row] += 1;
        }
        Self::deal(lens, pairs)
    }

    /// [`Csr::group`] when the row lengths are already counted: `lens[i]`
    /// is how many of `pairs` fall in row `i` (one pass over `pairs`).
    pub fn deal(mut lens: Vec<u32>, pairs: impl Iterator<Item = (usize, T)>) -> Self {
        // `lens[i]` becomes row `i`'s start, then its fill cursor, which the
        // fill leaves at the row's end: the offsets, but for the 0 in front.
        let mut start = 0;
        for l in &mut lens {
            (start, *l) = (start + *l, start);
        }
        let mut pairs = pairs.peekable();
        let mut targets = match pairs.peek() {
            Some(&(_, filler)) => vec![filler; start as usize],
            None => Vec::new(),
        };
        for (row, item) in pairs {
            targets[lens[row] as usize] = item;
            lens[row] += 1;
        }
        lens.insert(0, 0);
        Csr { offsets: lens, targets }
    }
}

impl<T> Csr<T> {
    /// Append `item` to the row being built: the one after the last row
    /// [`Csr::end_row`] closed.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.targets.push(item);
    }

    /// Close the row being built, empty or not.
    #[inline]
    pub fn end_row(&mut self) {
        self.offsets.push(self.targets.len() as u32);
    }

    /// Neighbours of node `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the structure has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }
}

impl<T> std::ops::Index<usize> for Csr<T> {
    type Output = [T];

    #[inline]
    fn index(&self, i: usize) -> &[T] {
        self.row(i)
    }
}

/// A transformed task-dependence graph: a DAG over tasks, plus the
/// read/write access sets relating tasks to data objects.
///
/// Invariants (checked by [`TaskGraphBuilder::build`]):
/// - the edge relation is acyclic,
/// - every access references an existing object,
/// - edge lists and access lists are sorted and duplicate-free.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    n_tasks: usize,
    n_objs: usize,
    succs: Csr,
    preds: Csr,
    reads: Csr,
    writes: Csr,
    /// Tasks reading each object (transpose of `reads`).
    readers: Csr,
    /// Tasks writing each object (transpose of `writes`).
    writers: Csr,
    /// Tasks accessing each object at all (transpose of the merged
    /// read∪write access relation, deduplicated). The reverse index the
    /// incremental MPO priority maintenance walks when an object is
    /// allocated.
    accessors: Csr,
    task_weight: Vec<f64>,
    obj_size: Vec<u64>,
    task_label: Labels,
    /// Commuting-group id per task (`u32::MAX` = none). Tasks sharing a
    /// group update a common object with commutative operations and may
    /// execute in any relative order (paper §2: "commuting tasks can be
    /// marked in a task graph").
    commute_group: Vec<u32>,
}

impl TaskGraph {
    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of data objects.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.n_objs
    }

    /// Number of dependence edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.succs.num_edges()
    }

    /// Iterator over all task ids.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> {
        (0..self.n_tasks as u32).map(TaskId)
    }

    /// Iterator over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjId> {
        (0..self.n_objs as u32).map(ObjId)
    }

    /// Immediate successors (children) of `t`.
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[u32] {
        self.succs.row(t.idx())
    }

    /// One value per dependence edge, `f(t, s)` for the edge `t -> s`:
    /// row `t` of the result is aligned with [`TaskGraph::succs`]`(t)`.
    pub fn map_succs<U>(&self, mut f: impl FnMut(TaskId, TaskId) -> U) -> Csr<U> {
        let mut targets = Vec::with_capacity(self.num_edges());
        for t in self.tasks() {
            targets.extend(self.succs(t).iter().map(|&s| f(t, TaskId(s))));
        }
        Csr { offsets: self.succs.offsets.clone(), targets }
    }

    /// Immediate predecessors (parents) of `t`.
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[u32] {
        self.preds.row(t.idx())
    }

    /// Objects read by `t` (sorted).
    #[inline]
    pub fn reads(&self, t: TaskId) -> &[u32] {
        self.reads.row(t.idx())
    }

    /// Objects written by `t` (sorted).
    #[inline]
    pub fn writes(&self, t: TaskId) -> &[u32] {
        self.writes.row(t.idx())
    }

    /// All objects accessed (read or written) by `t`, deduplicated.
    pub fn accesses(&self, t: TaskId) -> impl Iterator<Item = ObjId> + '_ {
        merge_sorted(self.reads(t), self.writes(t)).map(ObjId)
    }

    /// Tasks that read object `d` (sorted).
    #[inline]
    pub fn readers(&self, d: ObjId) -> &[u32] {
        self.readers.row(d.idx())
    }

    /// Tasks that write object `d` (sorted).
    #[inline]
    pub fn writers(&self, d: ObjId) -> &[u32] {
        self.writers.row(d.idx())
    }

    /// Tasks that read *or* write object `d` (sorted, each task once even
    /// when it both reads and writes `d`). Built once at graph
    /// construction in O(Σ access-set sizes).
    #[inline]
    pub fn accessors(&self, d: ObjId) -> &[u32] {
        self.accessors.row(d.idx())
    }

    /// Computational weight of task `t` (in abstract time units or flops).
    #[inline]
    pub fn weight(&self, t: TaskId) -> f64 {
        self.task_weight[t.idx()]
    }

    /// Size of object `d` in allocation units (one unit = one `f64`).
    #[inline]
    pub fn obj_size(&self, d: ObjId) -> u64 {
        self.obj_size[d.idx()]
    }

    /// Human-readable label of task `t` (may be empty).
    #[inline]
    pub fn task_label(&self, t: TaskId) -> &str {
        self.task_label.get(t.idx())
    }

    /// Commuting-group id of `t`, if it is marked as commuting.
    #[inline]
    pub fn commute_group(&self, t: TaskId) -> Option<u32> {
        let g = self.commute_group[t.idx()];
        (g != u32::MAX).then_some(g)
    }

    /// Do `a` and `b` commute (same marked group)?
    #[inline]
    pub fn commutes(&self, a: TaskId, b: TaskId) -> bool {
        self.commute_group[a.idx()] != u32::MAX
            && self.commute_group[a.idx()] == self.commute_group[b.idx()]
    }

    /// Sum of all object sizes: the sequential space requirement `S1`
    /// of the paper (space dedicated to data-object content).
    pub fn seq_space(&self) -> u64 {
        self.obj_size.iter().sum()
    }

    /// True if there is an edge `a -> b`.
    pub fn has_edge(&self, a: TaskId, b: TaskId) -> bool {
        self.succs(a).binary_search(&b.0).is_ok()
    }

    /// Check *dependence completeness* (paper §3.4, property of transformed
    /// graphs from \[5\]): for every pair of tasks that access a common
    /// object with at least one writer among them, there must be a
    /// dependence path between the two.
    ///
    /// This is the precondition of the data-consistency half of Theorem 1.
    /// Complexity is O(v·e) in the worst case; intended for tests and
    /// inspector-stage validation, not hot paths.
    pub fn is_dependence_complete(&self) -> bool {
        // Reachability via per-source DFS over a topological order, using a
        // bitset per source. Fine for validation-sized graphs.
        let order = match crate::algo::topo_sort(self) {
            Some(o) => o,
            None => return false,
        };
        let n = self.n_tasks;
        // position of each task in topological order
        let mut pos = vec![0u32; n];
        for (i, &t) in order.iter().enumerate() {
            pos[t.idx()] = i as u32;
        }
        let connected = |a: TaskId, b: TaskId| -> bool {
            // DFS from the earlier to the later in topo order.
            let (src, dst) = if pos[a.idx()] <= pos[b.idx()] { (a, b) } else { (b, a) };
            let mut seen = vec![false; n];
            let mut stack = vec![src];
            seen[src.idx()] = true;
            while let Some(t) = stack.pop() {
                if t == dst {
                    return true;
                }
                for &s in self.succs(t) {
                    if pos[s as usize] <= pos[dst.idx()] && !seen[s as usize] {
                        seen[s as usize] = true;
                        stack.push(TaskId(s));
                    }
                }
            }
            false
        };
        for d in self.objects() {
            let ws = self.writers(d);
            let rs = self.readers(d);
            for (i, &w1) in ws.iter().enumerate() {
                for &w2 in &ws[i + 1..] {
                    // Marked commuting writers may stay unordered.
                    if self.commutes(TaskId(w1), TaskId(w2)) {
                        continue;
                    }
                    if !connected(TaskId(w1), TaskId(w2)) {
                        return false;
                    }
                }
                for &r in rs {
                    // Commuting updaters read the object too; their
                    // reads-vs-writes need no ordering among themselves.
                    if self.commutes(TaskId(w1), TaskId(r)) {
                        continue;
                    }
                    if r != w1 && !connected(TaskId(w1), TaskId(r)) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Task labels in one `String`: label `t` ends at byte `ends[t]`.
#[derive(Clone, Debug, Default)]
struct Labels {
    text: String,
    ends: Vec<u32>,
}

impl Labels {
    fn push(&mut self, label: impl fmt::Display) {
        use fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{label}");
        self.ends.push(self.text.len() as u32);
    }

    fn get(&self, t: usize) -> &str {
        let start = if t == 0 { 0 } else { self.ends[t - 1] as usize };
        &self.text[start..self.ends[t] as usize]
    }
}

/// `(object, task)` for every entry of a per-task access set, tasks in order.
fn by_object(set: &Csr) -> impl Iterator<Item = (usize, u32)> + Clone + '_ {
    (0..set.len()).flat_map(move |t| set.row(t).iter().map(move |&d| (d as usize, t as u32)))
}

/// Merge two sorted `u32` slices, removing duplicates.
fn merge_sorted<'a>(a: &'a [u32], b: &'a [u32]) -> impl Iterator<Item = u32> + Clone + 'a {
    let mut i = 0;
    let mut j = 0;
    std::iter::from_fn(move || {
        if i < a.len() && (j >= b.len() || a[i] < b[j]) {
            i += 1;
            Some(a[i - 1])
        } else if j < b.len() {
            if i < a.len() && a[i] == b[j] {
                i += 1;
            }
            j += 1;
            Some(b[j - 1])
        } else {
            None
        }
    })
}

/// Errors detected while constructing a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The declared edges contain a cycle (graph must be a DAG).
    Cycle,
    /// An edge or access referenced a task id out of range.
    BadTask(u32),
    /// An access referenced an object id out of range.
    BadObject(u32),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle => write!(f, "task dependence graph contains a cycle"),
            GraphError::BadTask(t) => write!(f, "reference to unknown task T{t}"),
            GraphError::BadObject(d) => write!(f, "reference to unknown object d{d}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`TaskGraph`].
///
/// ```
/// use rapid_core::graph::TaskGraphBuilder;
/// let mut b = TaskGraphBuilder::new();
/// let d0 = b.add_object(1);
/// let d1 = b.add_object(1);
/// let t0 = b.add_task(1.0, &[], &[d0]);       // writes d0
/// let t1 = b.add_task(1.0, &[d0], &[d1]);     // reads d0, writes d1
/// b.add_edge(t0, t1);
/// let g = b.build().unwrap();
/// assert_eq!(g.num_tasks(), 2);
/// assert!(g.has_edge(t0, t1));
/// ```
#[derive(Default, Clone, Debug)]
pub struct TaskGraphBuilder {
    task_weight: Vec<f64>,
    task_label: Labels,
    /// One sorted, duplicate-free row per task.
    reads: Csr,
    writes: Csr,
    /// `(from, to)`, sorted by `(to, from)` in [`Self::build`] unless a
    /// [`crate::ddg::TraceBuilder`] handed them over that way already.
    pub(crate) edges: Vec<(u32, u32)>,
    obj_size: Vec<u64>,
    commute: Vec<(u32, u32)>,
}

impl TaskGraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a data object of `size` allocation units; returns its id.
    pub fn add_object(&mut self, size: u64) -> ObjId {
        self.obj_size.push(size);
        ObjId(self.obj_size.len() as u32 - 1)
    }

    /// Declare a task with computational `weight` and access sets.
    pub fn add_task(&mut self, weight: f64, reads: &[ObjId], writes: &[ObjId]) -> TaskId {
        self.add_task_labeled("", weight, reads, writes)
    }

    /// Declare a task carrying a human-readable label (traces, Gantt dumps),
    /// formatted into the graph's one label buffer: `format_args!` is free.
    pub fn add_task_labeled(
        &mut self,
        label: impl fmt::Display,
        weight: f64,
        reads: &[ObjId],
        writes: &[ObjId],
    ) -> TaskId {
        self.task_weight.push(weight);
        self.task_label.push(label);
        self.reads.push_set(reads.iter().map(|d| d.0));
        self.writes.push_set(writes.iter().map(|d| d.0));
        TaskId(self.task_weight.len() as u32 - 1)
    }

    /// Declare a true-dependence edge `from -> to`.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        self.edges.push((from.0, to.0));
    }

    /// Mark task `t` as member of commuting group `group`: tasks sharing
    /// a group may execute in any relative order.
    pub fn set_commute_group(&mut self, t: TaskId, group: u32) {
        self.commute.push((t.0, group));
    }

    /// Number of tasks declared so far.
    pub fn num_tasks(&self) -> usize {
        self.task_weight.len()
    }

    /// Number of objects declared so far.
    pub fn num_objects(&self) -> usize {
        self.obj_size.len()
    }

    /// Validate and freeze into a [`TaskGraph`].
    pub fn build(mut self) -> Result<TaskGraph, GraphError> {
        let n = self.task_weight.len();
        let m = self.obj_size.len();
        if let Some(t) = self.edges.iter().flat_map(|&(a, b)| [a, b]).find(|&t| t as usize >= n) {
            return Err(GraphError::BadTask(t));
        }
        // The first bad object id in (reads before writes, task, sorted
        // position) order is reported.
        let mut ids = self.reads.targets.iter().chain(&self.writes.targets);
        if let Some(&d) = ids.find(|&&d| d as usize >= m) {
            return Err(GraphError::BadObject(d));
        }
        let mut commute_group = vec![u32::MAX; n];
        for &(t, grp) in &self.commute {
            if t as usize >= n {
                return Err(GraphError::BadTask(t));
            }
            commute_group[t as usize] = grp;
        }
        if !self.edges.is_sorted_by_key(|&(a, b)| (b, a)) {
            self.edges.sort_unstable_by_key(|&(a, b)| (b, a));
        }
        self.edges.dedup();
        // Counting sorts over edges sorted by (to, from) and over tasks in
        // ascending id order: every row comes out sorted and duplicate-free
        // (the accessor stream is the sorted merge of a task's two sets).
        let edges = &self.edges;
        let (reads, writes) = (&self.reads, &self.writes);
        let accessed = (0..n).flat_map(|t| {
            merge_sorted(reads.row(t), writes.row(t)).map(move |d| (d as usize, t as u32))
        });
        let succs = Csr::group(n, edges.iter().map(|&(a, b)| (a as usize, b)));
        let preds = Csr::group(n, edges.iter().map(|&(a, b)| (b as usize, a)));
        let readers = Csr::group(m, by_object(reads));
        let writers = Csr::group(m, by_object(writes));
        let accessors = Csr::group(m, accessed);
        let g = TaskGraph {
            n_tasks: n,
            n_objs: m,
            succs,
            preds,
            reads: self.reads,
            writes: self.writes,
            readers,
            writers,
            accessors,
            task_weight: self.task_weight,
            obj_size: self.obj_size,
            task_label: self.task_label,
            commute_group,
        };
        if crate::algo::topo_sort(&g).is_none() {
            return Err(GraphError::Cycle);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(4);
        let d1 = b.add_object(2);
        let t0 = b.add_task(1.0, &[], &[d0]);
        let t1 = b.add_task(2.0, &[d0], &[d1]);
        let t2 = b.add_task(1.5, &[d0, d1], &[d1]);
        b.add_edge(t0, t1);
        b.add_edge(t1, t2);
        b.add_edge(t0, t2);
        let g = b.build().unwrap();
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(g.num_objects(), 2);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.succs(t0), &[1, 2]);
        assert_eq!(g.preds(t2), &[0, 1]);
        assert_eq!(g.reads(t2), &[0, 1]);
        assert_eq!(g.writers(d1), &[1, 2]);
        assert_eq!(g.readers(d0), &[1, 2]);
        assert_eq!(g.seq_space(), 6);
        assert!((g.weight(t1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_rejected() {
        let mut b = TaskGraphBuilder::new();
        let d = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d]);
        let t1 = b.add_task(1.0, &[d], &[]);
        b.add_edge(t0, t1);
        b.add_edge(t1, t0);
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn bad_refs_rejected() {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1.0, &[ObjId(7)], &[]);
        let _ = t0;
        assert_eq!(b.build().unwrap_err(), GraphError::BadObject(7));

        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1.0, &[], &[]);
        b.add_edge(t0, TaskId(9));
        assert_eq!(b.build().unwrap_err(), GraphError::BadTask(9));
    }

    #[test]
    fn accessors_transpose_matches_accesses() {
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(1);
        let d1 = b.add_object(1);
        let d2 = b.add_object(1);
        let _t0 = b.add_task(1.0, &[d0, d1], &[d1]); // reads+writes d1: once
        let t1 = b.add_task(1.0, &[], &[d2]);
        let t2 = b.add_task(1.0, &[d2], &[d0]);
        b.add_edge(t1, t2);
        let g = b.build().unwrap();
        assert_eq!(g.accessors(d0), &[0, 2]);
        assert_eq!(g.accessors(d1), &[0]);
        assert_eq!(g.accessors(d2), &[1, 2]);
        // accessors is exactly the transpose of accesses().
        for d in g.objects() {
            for &t in g.accessors(d) {
                assert!(g.accesses(TaskId(t)).any(|x| x == d));
            }
        }
        for t in g.tasks() {
            for d in g.accesses(t) {
                assert!(g.accessors(d).binary_search(&t.0).is_ok());
            }
        }
    }

    #[test]
    fn accesses_merges_and_dedups() {
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(1);
        let d1 = b.add_object(1);
        let d2 = b.add_object(1);
        let t = b.add_task(1.0, &[d0, d2], &[d1, d2]);
        let g = b.build().unwrap();
        let acc: Vec<_> = g.accesses(t).collect();
        assert_eq!(acc, vec![d0, d1, d2]);
    }

    #[test]
    fn dependence_completeness() {
        // t0 writes d, t1 and t2 read d. Complete only if edges connect
        // writer to both readers.
        let mut b = TaskGraphBuilder::new();
        let d = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d]);
        let t1 = b.add_task(1.0, &[d], &[]);
        let t2 = b.add_task(1.0, &[d], &[]);
        b.add_edge(t0, t1);
        let g = b.clone().build().unwrap();
        assert!(!g.is_dependence_complete(), "t2 not ordered w.r.t. writer");
        b.add_edge(t0, t2);
        let g = b.build().unwrap();
        assert!(g.is_dependence_complete());
    }

    #[test]
    fn two_writers_need_ordering() {
        let mut b = TaskGraphBuilder::new();
        let d = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d]);
        let t1 = b.add_task(1.0, &[], &[d]);
        let g = b.clone().build().unwrap();
        let _ = (t0, t1);
        assert!(!g.is_dependence_complete());
        b.add_edge(t0, t1);
        assert!(b.build().unwrap().is_dependence_complete());
    }
}
