//! Sparse triangular solve as an irregular task graph — one of the
//! "sparse code" applications RAPID targets beyond factorizations
//! (paper §2 mentions triangular solvers explicitly).
//!
//! The forward solve `L y = b` over the column blocks of a sparse factor
//! is highly irregular: each column block's update set follows the fill
//! pattern. We register the computation through the inspector, let the
//! system extract the DAG, and run it with the memory-managed runtime.
//!
//! Run with: `cargo run --release --example triangular_solve`

use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::inspector::Inspector;
use rapid::rt::TaskCtx;
use rapid::sparse::blockpart::BlockPartition;
use rapid::sparse::symbolic::cholesky_symbolic;
use rapid::sparse::{gen, refsolve};

fn main() {
    // Factor a grid Laplacian to get a genuinely irregular L pattern.
    let a = gen::grid2d_laplacian(12, 10);
    let n = a.ncols;
    let l = refsolve::dense_cholesky(&a).expect("SPD");
    let sym = cholesky_symbolic(&a);
    let part = BlockPartition::uniform(n, 8);
    let nb = part.num_blocks();

    // Inspector stage: one object per solution block, plus one per dense
    // L block actually referenced; tasks follow the block sparsity.
    let mut ins = Inspector::new();
    let y: Vec<_> = (0..nb).map(|b| ins.object(part.width(b) as u64)).collect();
    // Block sparsity of L: (i, j) coupled when any L entry falls there.
    let mut coupled = vec![vec![false; nb]; nb];
    for j in 0..n {
        for &r in &sym.l_cols[j] {
            coupled[part.block_of(r as usize)][part.block_of(j)] = true;
        }
    }
    let mut labels = Vec::new();
    for j in 0..nb {
        // Diagonal solve of block j, then off-diagonal updates downward.
        ins.task_labeled(format_args!("Solve({j})"), 1.0, &[], &[], &[y[j]]);
        labels.push((j, j));
        for i in j + 1..nb {
            if coupled[i][j] {
                ins.task_labeled(format_args!("Upd({i},{j})"), 1.0, &[y[j]], &[], &[y[i]]);
                labels.push((i, j));
            }
        }
    }
    let (g, stats) = ins.extract().expect("sequential trace builds a DAG");
    println!(
        "triangular-solve DAG: {} tasks, {} edges (true edges {})",
        g.num_tasks(),
        g.num_edges(),
        stats.true_edges
    );

    // Schedule on 3 processors and run with real numerics.
    let nprocs = 3;
    let owner: Vec<u32> = (0..nb as u32).map(|b| b % nprocs as u32).collect();
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let sched = dts_order(&g, &assign, &CostModel::unit());
    let rep = min_mem(&g, &sched);
    println!("DTS schedule: MIN_MEM = {} of S1 = {}", rep.min_mem, rep.s1);

    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin() + 1.5).collect();
    let l_ref = &l;
    let part_ref = &part;
    let labels_ref = &labels;
    let body = move |t: TaskId, ctx: &mut TaskCtx<'_>| {
        let (i, j) = labels_ref[t.idx()];
        let ri = part_ref.range(i);
        if i == j {
            // y_j := L_jj^{-1} y_j (forward substitution inside block).
            let yj = ctx.write(ObjId(j as u32));
            for (q, c) in part_ref.range(j).enumerate() {
                let mut v = yj[q];
                for (p, r) in part_ref.range(j).enumerate().take(q) {
                    v -= l_ref[r * n + c] * yj[p];
                }
                yj[q] = v / l_ref[c * n + c];
            }
        } else {
            // y_i -= L_ij · y_j.
            let yj = ctx.read(ObjId(j as u32));
            let yi = ctx.write(ObjId(i as u32));
            for (q, r) in ri.enumerate() {
                let mut v = yi[q];
                for (p, c) in part_ref.range(j).enumerate() {
                    v -= l_ref[c * n + r] * yj[p];
                }
                yi[q] = v;
            }
        }
    };
    let init = |d: ObjId, buf: &mut [f64]| {
        let r = part_ref.range(d.0 as usize);
        buf.copy_from_slice(&b[r]);
    };

    let exec = ThreadedExecutor::new(&g, &sched, rep.min_mem + 4);
    let out = exec.run_with_init(body, init).expect("solve runs");
    let y_par: Vec<f64> = (0..nb).flat_map(|j| out.objects[j].clone()).collect();

    // Reference forward solve.
    let mut y_ref = b.clone();
    for c in 0..n {
        y_ref[c] /= l[c * n + c];
        for r in c + 1..n {
            y_ref[r] -= l[c * n + r] * y_ref[c];
        }
    }
    let max_diff = y_par.iter().zip(&y_ref).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
    println!("max |y_parallel − y_reference| = {max_diff:.3e}");
    assert!(max_diff < 1e-10);
    println!("#MAPs = {:?}", out.maps);
}
