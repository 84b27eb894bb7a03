//! Fill-reducing orderings: reverse Cuthill-McKee and minimum degree.
//!
//! Sparse direct solvers permute the matrix before factorization to limit
//! fill-in; the paper's test matrices were ordered this way before the
//! task graphs were extracted. Both orderings operate on the symmetrized
//! pattern and return a permutation `perm` such that new index `i`
//! corresponds to old index `perm[i]` (use with
//! [`crate::csc::SparseMatrix::permute_sym`]). Both are linear in the
//! pattern to set up. Minimum degree then eliminates on a quotient graph
//! of elements and supervariables, whose lists never outgrow the pattern
//! (DESIGN.md §6, "Inspector cost").

use crate::csc::SparseMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Adjacency lists of the symmetrized pattern, excluding the diagonal:
/// column `c`'s rows and row `c`'s columns, sorted and deduplicated.
fn adjacency(a: &SparseMatrix) -> Vec<Vec<u32>> {
    assert_eq!(a.nrows, a.ncols);
    let t = a.transpose();
    (0..a.ncols)
        .map(|c| {
            let mut adj = [a.col_rows(c), t.col_rows(c)].concat();
            adj.retain(|&r| r as usize != c);
            adj.sort_unstable();
            adj.dedup();
            adj
        })
        .collect()
}

/// Reverse Cuthill-McKee: BFS from a pseudo-peripheral vertex, neighbours
/// visited in increasing-degree order, result reversed. Reduces bandwidth.
pub fn rcm(a: &SparseMatrix) -> Vec<u32> {
    let adj = adjacency(a);
    let n = adj.len();
    let deg: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Process every connected component.
    while order.len() < n {
        // Start vertex: unvisited vertex of minimum degree, then push it to
        // a pseudo-periphery with two BFS sweeps.
        let Some(start) = (0..n).filter(|&v| !visited[v]).min_by_key(|&v| deg[v]) else {
            break; // unreachable: order.len() < n leaves an unvisited vertex
        };
        let start = pseudo_peripheral(&adj, start);
        let mut queue = vec![start as u32];
        visited[start] = true;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            order.push(v as u32);
            let mut nbrs: Vec<u32> =
                adj[v].iter().copied().filter(|&w| !visited[w as usize]).collect();
            nbrs.sort_by_key(|&w| deg[w as usize]);
            for w in nbrs {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push(w);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Find a pseudo-peripheral vertex by repeated BFS level maximization.
fn pseudo_peripheral(adj: &[Vec<u32>], start: usize) -> usize {
    let n = adj.len();
    let mut v = start;
    let mut last_ecc = 0usize;
    for _ in 0..4 {
        let mut dist = vec![usize::MAX; n];
        dist[v] = 0;
        let mut queue = vec![v as u32];
        let mut head = 0;
        let mut far = v;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &w in &adj[u] {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = dist[u] + 1;
                    if dist[w as usize] > dist[far] {
                        far = w as usize;
                    }
                    queue.push(w);
                }
            }
        }
        if dist[far] <= last_ecc {
            break;
        }
        last_ecc = dist[far];
        v = far;
    }
    v
}

/// Exact minimum-degree ordering: each step eliminates the live vertex of
/// least `(degree, index)` in the elimination graph, one vertex per step,
/// so the tie-break (and every downstream plan) is fixed by the definition
/// alone.
///
/// The elimination graph is held as a quotient graph (George & Liu, SIAM
/// Rev. 31(1), 1989): an eliminated vertex becomes an element listing its
/// live neighbours, and the elements it touched are absorbed into it.
/// Variables of a new element whose lists turn out equal have equal closed
/// neighbourhoods from then on; they share one supervariable, whose degree
/// is computed once for all of them. Supervariables only share
/// bookkeeping: there is no mass elimination and no approximate degree, and
/// a pop eliminates only the lowest member. A step costs the lists of the
/// supervariables next to the new element; memory stays linear in the
/// pattern.
pub fn min_degree(a: &SparseMatrix) -> Vec<u32> {
    let mut q = Quotient::new(adjacency(a));
    let n = q.role.len();
    // One entry per supervariable: `(degree, lowest member, principal)`.
    // An entry is stale once its key moved or its principal stopped being one.
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> =
        (0..n as u32).map(|s| Reverse(q.key(s))).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(key)) = heap.pop() {
        let s = key.2;
        if q.role[s as usize] != Role::Var || q.key(s) != key {
            continue;
        }
        order.push(key.1);
        let p = q.eliminate(s);
        heap.extend(q.vars[p].iter().map(|&i| Reverse(q.key(i))));
    }
    order
}

/// What an index of the quotient graph is now.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The principal, highest, member of a live supervariable.
    Var,
    /// A live vertex of a supervariable whose principal is higher.
    Member,
    /// An eliminated vertex: it lists the live supervariables it joins.
    Element,
    /// An element whose list a later element covers.
    Absorbed,
}

/// End of a member chain.
const NONE: u32 = u32::MAX;

/// The quotient elimination graph. A supervariable's index is its
/// principal; an element's index is the vertex eliminated to make it.
struct Quotient {
    role: Vec<Role>,
    /// A supervariable's member count.
    weight: Vec<u32>,
    /// A supervariable's lowest live member; members chain upward by `next`.
    head: Vec<u32>,
    next: Vec<u32>,
    /// A supervariable's exact degree, the same for each of its members.
    degree: Vec<u32>,
    /// A supervariable's variable neighbours, pruned by its elements; an
    /// element's live supervariables.
    vars: Vec<Vec<u32>>,
    /// A supervariable's elements.
    elems: Vec<Vec<u32>>,
    /// `in_new[x] == step`: `x` is in the list of the element made this step.
    in_new: Vec<usize>,
    /// `seen[x] == tick`: `x` is in the set being built or compared.
    seen: Vec<usize>,
    step: usize,
    tick: usize,
}

/// An order-independent hash term for one index of a list.
fn mix(x: u32) -> u64 {
    let z = (u64::from(x) ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB)
}

impl Quotient {
    /// The start: every vertex is a supervariable of its own, with no
    /// elements.
    fn new(vars: Vec<Vec<u32>>) -> Self {
        let n = vars.len();
        Quotient {
            role: vec![Role::Var; n],
            weight: vec![1; n],
            head: (0..n as u32).collect(),
            next: vec![NONE; n],
            degree: vars.iter().map(|l| l.len() as u32).collect(),
            vars,
            elems: vec![Vec::new(); n],
            in_new: vec![0; n],
            seen: vec![0; n],
            step: 0,
            tick: 0,
        }
    }

    /// The heap key of supervariable `s`.
    fn key(&self, s: u32) -> (u32, u32, u32) {
        (self.degree[s as usize], self.head[s as usize], s)
    }

    /// Merge supervariable `lo` into `hi > lo`, whose lists are the same.
    fn merge(&mut self, lo: u32, hi: u32) {
        let (l, h) = (lo as usize, hi as usize);
        self.weight[h] += std::mem::take(&mut self.weight[l]);
        self.role[l] = Role::Member;
        self.vars[l] = Vec::new();
        self.elems[l] = Vec::new();
        // Merge the two ascending member chains.
        let (mut a, mut b) = (self.head[l], self.head[h]);
        let mut tail = NONE;
        while a != NONE || b != NONE {
            let from = if b == NONE || (a != NONE && a < b) { &mut a } else { &mut b };
            let x = *from;
            *from = self.next[x as usize];
            match tail {
                NONE => self.head[h] = x,
                t => self.next[t as usize] = x,
            }
            tail = x;
        }
        self.next[tail as usize] = NONE;
    }

    /// Eliminate the lowest member of supervariable `s` and return the
    /// new element, whose list holds every supervariable whose degree it
    /// re-keyed.
    fn eliminate(&mut self, s: u32) -> usize {
        self.step += 1;
        let step = self.step;
        let si = s as usize;
        let p = self.head[si] as usize;
        self.head[si] = self.next[p];
        self.weight[si] -= 1;
        let survives = self.weight[si] > 0;

        // The new element: `s`'s variables and the variables of its
        // elements, which it absorbs.
        let mut new = Vec::new();
        self.in_new[si] = step;
        let mut take = |x: u32, role: &[Role], in_new: &mut [usize]| {
            if role[x as usize] == Role::Var && in_new[x as usize] != step {
                in_new[x as usize] = step;
                new.push(x);
            }
        };
        for x in std::mem::take(&mut self.vars[si]) {
            take(x, &self.role, &mut self.in_new);
        }
        for e in std::mem::take(&mut self.elems[si]) {
            for x in std::mem::take(&mut self.vars[e as usize]) {
                take(x, &self.role, &mut self.in_new);
            }
            self.role[e as usize] = Role::Absorbed;
        }
        self.role[p] = Role::Element;

        // Prune: the new element stands for the variables it lists.
        for &i in &new {
            let i = i as usize;
            let (role, in_new) = (&self.role, &self.in_new);
            self.vars[i].retain(|&x| role[x as usize] == Role::Var && in_new[x as usize] != step);
            self.elems[i].retain(|&e| role[e as usize] == Role::Element);
            self.elems[i].push(p as u32);
        }
        // What is left of `s` has no variables and one element, the new one.
        if survives {
            new.push(s);
            self.elems[si].push(p as u32);
        }

        // Supervariables: equal lists (hash, then compare) are
        // indistinguishable from here on.
        let mut keyed: Vec<(u64, u32)> = (new.iter())
            .map(|&i| {
                let lists = self.vars[i as usize].iter().chain(&self.elems[i as usize]);
                (lists.fold(0u64, |h, &x| h.wrapping_add(mix(x))), i)
            })
            .collect();
        keyed.sort_unstable();
        for run in keyed.chunk_by(|x, y| x.0 == y.0).filter(|run| run.len() > 1) {
            for (k, &(_, i)) in run.iter().enumerate() {
                if self.role[i as usize] != Role::Var {
                    continue;
                }
                self.tick += 1;
                let (vars, elems) = (&self.vars[i as usize], &self.elems[i as usize]);
                for &x in vars.iter().chain(elems) {
                    self.seen[x as usize] = self.tick;
                }
                let (na, ne) = (vars.len(), elems.len());
                let mut cur = i;
                for &(_, j) in &run[k + 1..] {
                    let (va, ve) = (&self.vars[j as usize], &self.elems[j as usize]);
                    if self.role[j as usize] == Role::Var
                        && va.len() == na
                        && ve.len() == ne
                        && va.iter().chain(ve).all(|&x| self.seen[x as usize] == self.tick)
                    {
                        self.merge(cur, j);
                        cur = j;
                    }
                }
            }
        }
        new.retain(|&x| self.role[x as usize] == Role::Var);

        // Exact degrees: the new element's weight, the pruned variables,
        // and the older elements' variables outside the new element.
        let w_new: u32 = new.iter().map(|&x| self.weight[x as usize]).sum();
        for &i in &new {
            let i = i as usize;
            let own: u32 = self.vars[i].iter().map(|&x| self.weight[x as usize]).sum();
            // `p` is the last element of every list in `new`.
            let older = &self.elems[i][..self.elems[i].len() - 1];
            self.tick += 1;
            let mut outside = 0;
            for &e in older {
                for &x in &self.vars[e as usize] {
                    let x = x as usize;
                    if self.role[x] == Role::Var
                        && self.in_new[x] != step
                        && self.seen[x] != self.tick
                    {
                        self.seen[x] = self.tick;
                        outside += self.weight[x];
                    }
                }
            }
            self.degree[i] = w_new - 1 + own + outside;
        }
        self.vars[p] = new;
        p
    }
}

/// Count the nonzeros of the Cholesky factor `L` that the given ordering
/// induces (including the diagonal) — the standard quality metric for
/// fill-reducing orderings.
pub fn fill_after(a: &SparseMatrix, perm: &[u32]) -> usize {
    let p = a.symmetrized().permute_sym(perm);
    let sym = crate::symbolic::cholesky_symbolic(&p);
    sym.l_nnz()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn rcm_is_a_permutation() {
        let a = gen::grid2d_laplacian(7, 5);
        let p = rcm(&a);
        let mut seen = [false; 35];
        for &v in &p {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The definition of exact minimum degree, replayed on a dense
    /// elimination graph: every pick is the live vertex of least
    /// `(degree, index)`, so the picks are also a permutation.
    #[allow(clippy::needless_range_loop)] // symmetric adj[r][c]/adj[c][r] writes
    fn assert_is_min_degree(a: &SparseMatrix, perm: &[u32], what: &str) {
        let n = a.ncols;
        let mut adj = vec![vec![false; n]; n];
        for c in 0..n {
            for &r in a.col_rows(c).iter().filter(|&&r| r as usize != c) {
                adj[r as usize][c] = true;
                adj[c][r as usize] = true;
            }
        }
        let mut live = vec![true; n];
        assert_eq!(perm.len(), n, "{what}");
        for (step, &v) in perm.iter().enumerate() {
            let degree = |u: usize| (0..n).filter(|&x| live[x] && adj[u][x]).count();
            let best = (0..n).filter(|&u| live[u]).min_by_key(|&u| (degree(u), u));
            assert_eq!(Some(v as usize), best, "{what}: step {step}");
            live[v as usize] = false;
            let clique: Vec<usize> = (0..n).filter(|&x| live[x] && adj[v as usize][x]).collect();
            for &x in &clique {
                for &y in &clique {
                    adj[x][y] |= x != y;
                }
            }
        }
    }

    #[test]
    fn min_degree_is_exact_minimum_degree() {
        let patterns = gen::small_patterns();
        assert!(patterns.len() >= 200);
        for (what, a) in &patterns {
            assert_is_min_degree(a, &min_degree(a), what);
        }
    }

    #[test]
    fn rcm_reduces_bandwidth() {
        let a = gen::goodwin_like(120, 30, 3, 5).symmetrized();
        let bandwidth = |m: &crate::csc::SparseMatrix| {
            (0..m.ncols)
                .flat_map(|c| m.col_rows(c).iter().map(move |&r| (r as i64 - c as i64).abs()))
                .max()
                .unwrap_or(0)
        };
        // The scattered entries give a huge bandwidth; RCM shrinks it.
        let before = bandwidth(&a);
        let after = bandwidth(&a.permute_sym(&rcm(&a)));
        assert!(after < before, "RCM bandwidth {after} !< {before}");
    }

    #[test]
    fn min_degree_beats_natural_on_grid() {
        let a = gen::grid2d_laplacian(12, 12);
        let natural: Vec<u32> = (0..144).collect();
        let md = min_degree(&a);
        let fill_nat = fill_after(&a, &natural);
        let fill_md = fill_after(&a, &md);
        assert!(fill_md < fill_nat, "min degree fill {fill_md} !< natural fill {fill_nat}");
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint 2-node components.
        let a = crate::csc::SparseMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 2.0),
                (1, 1, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (2, 2, 2.0),
                (3, 3, 2.0),
                (2, 3, -1.0),
                (3, 2, -1.0),
            ],
        );
        assert_eq!(rcm(&a).len(), 4);
        assert_eq!(min_degree(&a).len(), 4);
    }
}
