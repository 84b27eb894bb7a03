//! An N-body force step as an irregular task graph — the paper's other
//! motivating application class ("irregular applications ... such as
//! those in sparse matrix computation and N-body galaxy simulations").
//!
//! Particles live in spatial cells of wildly different populations; the
//! force phase mixes near-field cell-pair interactions (reads two
//! particle sets, accumulates into a force buffer) with far-field
//! monopole approximations (reads a cell summary). Force accumulations
//! are *marked commuting* (paper §2), so the scheduler may interleave
//! them freely; the runtime still executes them race-free because the
//! owner-compute rule serializes updates per owner.
//!
//! Run with: `cargo run --release --example nbody`

use rapid::core::ddg::{AccessKind, TraceBuilder};
use rapid::core::fixtures::SplitMix64;
use rapid::core::memreq::min_mem;
use rapid::prelude::*;
use rapid::rt::TaskCtx;

const NCELLS: usize = 12;
const THETA2: f64 = 1.0; // far-field opening criterion (squared distance)

struct Model {
    /// Particles per cell: [x, y, mass] triples.
    particles: Vec<Vec<f64>>,
    cell_pos: Vec<(f64, f64)>,
    near_pairs: Vec<(usize, usize)>,
    far_pairs: Vec<(usize, usize)>,
}

fn build_model(seed: u64) -> Model {
    let mut rng = SplitMix64(seed);
    // Irregular populations: a few dense cells, many sparse ones.
    let mut particles = Vec::new();
    let mut cell_pos = Vec::new();
    for c in 0..NCELLS {
        let n = if c % 5 == 0 { 24 } else { 3 + rng.below(6) as usize };
        let cx = (c % 4) as f64;
        let cy = (c / 4) as f64;
        cell_pos.push((cx, cy));
        let mut p = Vec::with_capacity(3 * n);
        for _ in 0..n {
            p.push(cx + rng.unit_f64() * 0.8);
            p.push(cy + rng.unit_f64() * 0.8);
            p.push(0.5 + rng.unit_f64());
        }
        particles.push(p);
    }
    let mut near_pairs = Vec::new();
    let mut far_pairs = Vec::new();
    for a in 0..NCELLS {
        for b in 0..NCELLS {
            if a == b {
                continue;
            }
            let (ax, ay) = cell_pos[a];
            let (bx, by) = cell_pos[b];
            let d2 = (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
            if d2 <= THETA2 {
                near_pairs.push((a, b));
            } else {
                far_pairs.push((a, b));
            }
        }
    }
    Model { particles, cell_pos: cell_pos.clone(), near_pairs, far_pairs }
}

fn main() {
    let model = build_model(4242);
    let npart: usize = model.particles.iter().map(|p| p.len() / 3).sum();
    println!(
        "{} particles in {NCELLS} cells ({} near pairs, {} far pairs)",
        npart,
        model.near_pairs.len(),
        model.far_pairs.len()
    );

    // Inspector stage: objects are particle sets, monopole summaries and
    // force accumulators.
    let mut tb = TraceBuilder::new();
    let part: Vec<ObjId> = model.particles.iter().map(|p| tb.add_object(p.len() as u64)).collect();
    let summ: Vec<ObjId> = (0..NCELLS).map(|_| tb.add_object(3)).collect();
    let force: Vec<ObjId> =
        model.particles.iter().map(|p| tb.add_object(2 * (p.len() as u64 / 3))).collect();

    #[derive(Clone, Copy)]
    enum Kind {
        Load(usize),
        Summarize(usize),
        Near(usize, usize),
        Far(usize, usize),
    }
    let mut kinds: Vec<Kind> = Vec::new();
    for (c, &pc) in part.iter().enumerate().take(NCELLS) {
        tb.add_task(model.particles[c].len() as f64, &[(pc, AccessKind::Write)]);
        kinds.push(Kind::Load(c));
    }
    for (c, &pc) in part.iter().enumerate().take(NCELLS) {
        tb.add_task(
            model.particles[c].len() as f64,
            &[(pc, AccessKind::Read), (summ[c], AccessKind::Write)],
        );
        kinds.push(Kind::Summarize(c));
    }
    for &(a, b) in &model.near_pairs {
        let w = (model.particles[a].len() * model.particles[b].len()) as f64 / 9.0;
        tb.add_task(
            w,
            &[
                (part[a], AccessKind::Read),
                (part[b], AccessKind::Read),
                (force[a], AccessKind::Accum), // commuting accumulation
            ],
        );
        kinds.push(Kind::Near(a, b));
    }
    for &(a, b) in &model.far_pairs {
        tb.add_task(
            model.particles[a].len() as f64 / 3.0,
            &[
                (part[a], AccessKind::Read),
                (summ[b], AccessKind::Read),
                (force[a], AccessKind::Accum),
            ],
        );
        kinds.push(Kind::Far(a, b));
    }
    let (g, stats) = tb.build().expect("trace builds");
    println!(
        "task graph: {} tasks, {} edges, {} commuting groups",
        g.num_tasks(),
        g.num_edges(),
        stats.commuting_groups
    );
    assert!(g.is_dependence_complete());

    // Schedule on 4 processors: cell c's objects live on proc c mod 4.
    let nprocs = 4;
    let obj_owner: Vec<u32> = g
        .objects()
        .map(|d| {
            let i = d.idx();
            (i % NCELLS) as u32 % nprocs as u32
        })
        .collect();
    let assign = owner_compute_assignment(&g, &obj_owner, nprocs);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    let rep = min_mem(&g, &sched);
    println!("MPO schedule: MIN_MEM = {} vs {} without recycling", rep.min_mem, rep.tot_no_recycle);

    let mref = &model;
    let kinds = &kinds;
    let (part, summ, force) = (&part, &summ, &force);
    let body = move |t: TaskId, ctx: &mut TaskCtx<'_>| match kinds[t.idx()] {
        Kind::Load(c) => {
            ctx.write(part[c]).copy_from_slice(&mref.particles[c]);
        }
        Kind::Summarize(c) => {
            let p = ctx.read(part[c]);
            let (mut mx, mut my, mut m) = (0.0, 0.0, 0.0);
            for q in p.chunks_exact(3) {
                mx += q[0] * q[2];
                my += q[1] * q[2];
                m += q[2];
            }
            let s = ctx.write(summ[c]);
            s[0] = mx / m;
            s[1] = my / m;
            s[2] = m;
        }
        Kind::Near(a, b) => {
            let pa = ctx.read(part[a]);
            let pb = ctx.read(part[b]);
            let f = ctx.write(force[a]);
            for (i, qa) in pa.chunks_exact(3).enumerate() {
                let (mut fx, mut fy) = (0.0, 0.0);
                for qb in pb.chunks_exact(3) {
                    let (dx, dy) = (qb[0] - qa[0], qb[1] - qa[1]);
                    let r2 = dx * dx + dy * dy + 1e-3;
                    let inv = qb[2] / (r2 * r2.sqrt());
                    fx += dx * inv;
                    fy += dy * inv;
                }
                f[2 * i] += fx;
                f[2 * i + 1] += fy;
            }
        }
        Kind::Far(a, b) => {
            let pa = ctx.read(part[a]);
            let s = ctx.read(summ[b]);
            let f = ctx.write(force[a]);
            for (i, qa) in pa.chunks_exact(3).enumerate() {
                let (dx, dy) = (s[0] - qa[0], s[1] - qa[1]);
                let r2 = dx * dx + dy * dy;
                let inv = s[2] / (r2 * r2.sqrt());
                f[2 * i] += dx * inv;
                f[2 * i + 1] += dy * inv;
            }
        }
    };

    let exec = ThreadedExecutor::new(&g, &sched, rep.min_mem);
    let out = exec.run(body).expect("force step runs at MIN_MEM");
    let seq = rapid::rt::threaded::run_sequential(&g, body);

    // Commuting accumulations may run in any order, so compare with a
    // floating-point tolerance instead of bitwise.
    let mut worst = 0.0f64;
    for c in 0..NCELLS {
        for (p, q) in out.objects[force[c].idx()].iter().zip(&seq[force[c].idx()]) {
            let denom = q.abs().max(1.0);
            worst = worst.max((p - q).abs() / denom);
        }
    }
    println!("max relative force deviation vs sequential: {worst:.3e}");
    assert!(worst < 1e-12);
    println!("#MAPs = {:?}, cells at {:?}", out.maps, &model.cell_pos[..4]);
}
