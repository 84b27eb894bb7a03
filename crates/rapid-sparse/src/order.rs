//! Fill-reducing orderings: reverse Cuthill-McKee and minimum degree.
//!
//! Sparse direct solvers permute the matrix before factorization to limit
//! fill-in; the paper's test matrices were ordered this way before the
//! task graphs were extracted. Both orderings operate on the symmetrized
//! pattern and return a permutation `perm` such that new index `i`
//! corresponds to old index `perm[i]` (use with
//! [`crate::csc::SparseMatrix::permute_sym`]). Both are linear in the
//! pattern to set up; minimum degree then costs what its elimination graph
//! costs (DESIGN.md §6, "Inspector cost").

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
/// least `(degree, index)` in the explicit elimination graph and makes its
/// live neighbours a clique. One vertex per step, so the tie-break (and
/// every downstream plan) is fixed by the definition alone. Picks come from
/// a lazily pruned `(degree, vertex)` heap; neighbour sets are unsorted and
/// hold only live vertices, so a step costs the sets it rewrites.
pub fn min_degree(a: &SparseMatrix) -> Vec<u32> {
    let mut nbrs = adjacency(a);
    let n = nbrs.len();
    let mut eliminated = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> =
        nbrs.iter().enumerate().map(|(v, s)| Reverse((s.len(), v as u32))).collect();
    // `mark[x] == stamp`: x is already in the set being rewritten.
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((deg, v))) = heap.pop() {
        let vi = v as usize;
        if eliminated[vi] || deg != nbrs[vi].len() {
            continue;
        }
        eliminated[vi] = true;
        order.push(v);
        // The clique: every live neighbour drops v and gains the others.
        let clique = std::mem::take(&mut nbrs[vi]);
        for &w in &clique {
            let set = &mut nbrs[w as usize];
            let before = set.len();
            stamp += 1;
            mark[w as usize] = stamp;
            set.retain(|&x| x != v);
            for &x in set.iter() {
                mark[x as usize] = stamp;
            }
            for &u in &clique {
                if mark[u as usize] != stamp {
                    set.push(u);
                }
            }
            // An unchanged degree keeps its entry valid.
            if set.len() != before {
                heap.push(Reverse((set.len(), w)));
            }
        }
    }
    order
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
