//! The performance snapshot binary: measures the threaded executor on
//! standard fixtures, the tiled kernels against their straight-loop
//! references, and the heap-driven ordering simulation against the
//! straight-scan reference, then writes `BENCH_executor.json`,
//! `BENCH_kernels.json` and `BENCH_scheduling.json` into the current
//! directory.
//!
//! Run with `cargo run --release -p rapid-bench --bin bench`. The JSON is
//! hand-assembled (no serialization dependency) and committed alongside
//! the code so executor changes carry a before/after record.
//!
//! Flags:
//!
//! - `--only <executor|recovery|kernels|scheduling|trace>`
//!   — run a single section (repeatable; `executor` and `recovery` share
//!   `BENCH_executor.json`);
//! - `--check` — shape-invariant CI mode: shrunken problem sizes, no
//!   perf assertions and no files written; exits non-zero if any section
//!   produces an empty, non-finite or duplicated measurement. Also runs
//!   the static plan verifier (`rapid-verify`) over the benchmark
//!   fixture plans at exactly MIN_MEM before measuring;
//! - `--trace <out.json>` — run the Cholesky executor fixture with event
//!   tracing and write the Chrome-trace/Perfetto JSON timeline to the
//!   given path (open it at <https://ui.perfetto.dev>).

use rapid_bench::timing::{bench_ns, fmt_ns};
use rapid_core::fixtures::{self, random_irregular_graph, RandomGraphSpec};
use rapid_core::memreq::min_mem;
use rapid_core::schedule::CostModel;
use rapid_rt::threaded::{TaskCtx, ThreadedExecutor};
use rapid_sparse::{gen, kernels, taskgen};
use rapid_trace::{chrome_trace_json, TraceConfig};
use std::fmt::Write as _;

/// One named measurement destined for a JSON report.
struct Entry {
    name: String,
    ns: f64,
    extra: Vec<(String, String)>,
}

fn json(entries: &[Entry]) -> String {
    let mut s = String::from("{\n  \"runs\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(s, "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}", e.name, e.ns);
        for (k, v) in &e.extra {
            let _ = write!(s, ", \"{k}\": {v}");
        }
        s.push_str(if i + 1 < entries.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn body(t: rapid_core::graph::TaskId, ctx: &mut TaskCtx<'_>) {
    let mut acc = t.0 as f64;
    for d in ctx.read_ids().collect::<Vec<_>>() {
        acc += ctx.read(d).iter().sum::<f64>();
    }
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for x in ctx.write(d) {
            *x += acc;
        }
    }
}

fn executor_report() -> Vec<Entry> {
    let mut out = Vec::new();

    // Figure 2 of the paper at exactly MIN_MEM: the smallest end-to-end
    // protocol exercise (2 processors, one remote dependence chain).
    {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm);
        let mut maps = Vec::new();
        let ns = bench_ns(&mut || {
            let r = exec.run(body).unwrap();
            maps = r.maps;
        });
        println!("executor/figure2-p2-min-mem        {}", fmt_ns(ns));
        out.push(Entry {
            name: "figure2-p2-min-mem".into(),
            ns,
            extra: vec![("maps".into(), format!("{maps:?}"))],
        });
    }

    // Random irregular graphs at exactly MIN_MEM on 4 threads: the
    // deadlock-stress configuration, dominated by protocol overhead —
    // address resolution, suspended-send retry, and spin waits.
    {
        let spec = RandomGraphSpec { objects: 48, tasks: 160, ..Default::default() };
        let g = random_irregular_graph(11, &spec);
        let owner = rapid_sched::assign::cyclic_owner_map(g.num_objects(), 4);
        let assign = rapid_sched::assign::owner_compute_assignment(&g, &owner, 4);
        let sched = rapid_sched::mpo::mpo_order(&g, &assign, &CostModel::unit());
        let rep = min_mem(&g, &sched);
        // With mixed object sizes a best-fit arena cannot follow the
        // placement at exactly MIN_MEM, which the address plan knows
        // before any run: time the tightest capacity it accepts.
        let exec = (rep.min_mem..)
            .map(|cap| ThreadedExecutor::new(&g, &sched, cap))
            .find(|exec| exec.address_plan().is_ok())
            .expect("TOT places");
        let ns = bench_ns(&mut || {
            exec.run(body).unwrap();
        });
        println!("executor/random-irregular-p4-min-mem  {}", fmt_ns(ns));
        out.push(Entry {
            name: "random-irregular-t160-p4-min-mem".into(),
            ns,
            extra: vec![("min_mem".into(), rep.min_mem.to_string())],
        });
    }

    // Block Cholesky on a bcsstk-like sparse matrix: a real workload with
    // data movement, exercising the kernel and executor layers together.
    {
        let a = gen::bcsstk_like(6, 6, 3, 3);
        let model = taskgen::cholesky_2d_model(&a, 9, 4);
        let assign = rapid_sched::assign::owner_compute_assignment(&model.graph, &model.owner, 4);
        let sched = rapid_sched::mpo::mpo_order(&model.graph, &assign, &CostModel::unit());
        let rep = min_mem(&model.graph, &sched);
        let exec = ThreadedExecutor::new(&model.graph, &sched, rep.min_mem + 512);
        let ns = bench_ns(&mut || {
            exec.run_with_init(model.body(), model.init(&a)).unwrap();
        });
        println!("executor/cholesky-n108-p4          {}", fmt_ns(ns));
        out.push(Entry {
            name: "cholesky-n108-p4-min-mem+512".into(),
            ns,
            extra: vec![("tasks".into(), model.graph.num_tasks().to_string())],
        });
    }

    out
}

/// The recovery section (appended to `BENCH_executor.json`): the cost of
/// *arming* window-granular recovery on a fault-free run — per-window
/// checkpoint capture plus the per-message sent guard — against the
/// unarmed baseline, and, for the record, a healed run under the mixed
/// fault scenario. In `--check` mode the armed-clean configuration must
/// stay within a loose ratio of the unarmed one (the "zero cost when
/// disabled, near-zero when armed but idle" claim) and both must agree
/// bitwise.
fn recovery_report(check: bool) -> Vec<Entry> {
    use rapid_machine::FaultPlan;
    use rapid_rt::recover::RecoveryPolicy;

    let mut out = Vec::new();
    let spec = RandomGraphSpec { objects: 48, tasks: 160, ..Default::default() };
    let g = random_irregular_graph(11, &spec);
    let owner = rapid_sched::assign::cyclic_owner_map(g.num_objects(), 4);
    let assign = rapid_sched::assign::owner_compute_assignment(&g, &owner, 4);
    let sched = rapid_sched::mpo::mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;

    let plain_exec = ThreadedExecutor::new(&g, &sched, cap);
    let armed_exec = ThreadedExecutor::new(&g, &sched, cap).with_recovery(RecoveryPolicy::new());
    let faulted_exec = ThreadedExecutor::new(&g, &sched, cap)
        .with_faults(FaultPlan::mixed(11))
        .with_recovery(RecoveryPolicy::new());
    // Interleaved min-of-3: OS scheduling noise dominates on oversubscribed
    // runners and must not read as overhead.
    let (mut plain, mut armed, mut faulted) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        plain = plain.min(bench_ns(&mut || {
            let _ = plain_exec.run(body);
        }));
        armed = armed.min(bench_ns(&mut || {
            let _ = armed_exec.run(body);
        }));
        faulted = faulted.min(bench_ns(&mut || {
            let _ = faulted_exec.run(body);
        }));
    }
    let overhead = armed / plain;
    println!(
        "recovery/random-irregular-t160-p4: unarmed {} armed-clean {} (overhead {overhead:.2}x) armed-mixed-faults {}",
        fmt_ns(plain),
        fmt_ns(armed),
        fmt_ns(faulted)
    );
    out.push(Entry {
        name: "recovery/random-irregular-t160-p4/unarmed".into(),
        ns: plain,
        extra: vec![("capacity".into(), cap.to_string())],
    });
    out.push(Entry {
        name: "recovery/random-irregular-t160-p4/armed-clean".into(),
        ns: armed,
        extra: vec![("overhead_vs_unarmed".into(), format!("{overhead:.3}"))],
    });
    out.push(Entry {
        name: "recovery/random-irregular-t160-p4/armed-mixed-faults".into(),
        ns: faulted,
        extra: vec![("scenario".into(), "\"mixed\"".into()), ("fault_seed".into(), "11".into())],
    });
    if check {
        let p = plain_exec.run(body).expect("unarmed fixture run");
        let a = armed_exec.run(body).expect("armed fixture run");
        assert_eq!(p.objects, a.objects, "check: arming recovery changed clean-run results");
        assert!(
            overhead <= 1.30,
            "check: armed-but-idle recovery regressed the clean path: \
             {armed:.0} ns vs {plain:.0} ns unarmed"
        );
    }
    out
}

/// The tracked fixture's task body: ~15 µs of deterministic FLOPs per
/// task on top of the dependence reads/writes. Tracing cost is a fixed
/// few records per task, so an overhead *ratio* only means something at
/// a realistic task granularity — against near-empty bodies the
/// denominator is pure protocol spin and the ratio measures scheduler
/// perturbation, not recording (see EXPERIMENTS.md, "Tracing overhead
/// methodology").
fn trace_body(t: rapid_core::graph::TaskId, ctx: &mut TaskCtx<'_>) {
    let mut acc = t.0 as f64 + 1.0;
    for d in ctx.read_ids().collect::<Vec<_>>() {
        acc += ctx.read(d).iter().sum::<f64>();
    }
    let mut x = acc;
    for _ in 0..12_000u32 {
        x = x.mul_add(0.999_999, 0.000_001);
    }
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for v in ctx.write(d) {
            *v += x;
        }
    }
}

/// Per-tier tracing overhead on the tracked executor fixture: the same
/// schedule untraced, at [`TraceTier::Skeleton`] and at
/// [`TraceTier::Full`], all three with the production-granularity
/// [`trace_body`]. Recording goes through the flat binary rings
/// (fixed-width records, one cursor bump per event; the executor reuses
/// its rings across runs), so the gates are production-cost: Full must
/// stay within 10% of untraced and Skeleton within 5%, and `--check`
/// enforces both ratios (the one perf assertion the shape-check mode
/// carries — the tracing refactor exists for this number).
fn trace_report(check: bool) -> Vec<Entry> {
    use rapid_trace::TraceTier;
    let mut out = Vec::new();
    let spec = RandomGraphSpec { objects: 48, tasks: 160, ..Default::default() };
    let g = random_irregular_graph(11, &spec);
    let owner = rapid_sched::assign::cyclic_owner_map(g.num_objects(), 4);
    let assign = rapid_sched::assign::owner_compute_assignment(&g, &owner, 4);
    let sched = rapid_sched::mpo::mpo_order(&g, &assign, &CostModel::unit());
    let cap = min_mem(&g, &sched).min_mem + 8;

    let plain = ThreadedExecutor::new(&g, &sched, cap);
    let disabled = bench_ns(&mut || {
        let _ = plain.run(trace_body);
    });
    println!("trace/random-irregular-t160-p4: disabled {}", fmt_ns(disabled));
    out.push(Entry {
        name: "random-irregular-t160-p4/disabled".into(),
        ns: disabled,
        extra: vec![],
    });
    let mut gate_failures = Vec::new();
    for (tier_name, tier, gate) in
        [("skeleton", TraceTier::Skeleton, 1.05), ("full", TraceTier::Full, 1.10)]
    {
        let traced = ThreadedExecutor::new(&g, &sched, cap)
            .with_tracing(TraceConfig::default().with_tier(tier));
        let mut events = 0u64;
        let enabled = bench_ns(&mut || {
            if let Ok(r) = traced.run(trace_body) {
                events = r.trace.as_ref().map_or(0, |t| t.total());
            }
        });
        let overhead = enabled / disabled;
        println!(
            "trace/random-irregular-t160-p4/{tier_name}: {} overhead {overhead:.3}x (gate {gate:.2}x)",
            fmt_ns(enabled)
        );
        if overhead > gate {
            gate_failures.push(format!("{tier_name} {overhead:.3}x > {gate:.2}x"));
        }
        out.push(Entry {
            name: format!("random-irregular-t160-p4/{tier_name}"),
            ns: enabled,
            extra: vec![
                ("overhead".into(), format!("{overhead:.3}")),
                ("gate".into(), format!("{gate:.2}")),
                ("events".into(), events.to_string()),
            ],
        });
    }
    if check && !gate_failures.is_empty() {
        eprintln!("trace overhead gate failed: {}", gate_failures.join(", "));
        std::process::exit(1);
    }
    out
}

/// `--trace out.json`: one traced Cholesky run, exported for Perfetto.
fn write_trace(path: &str) {
    let a = gen::bcsstk_like(6, 6, 3, 3);
    let model = taskgen::cholesky_2d_model(&a, 9, 4);
    let assign = rapid_sched::assign::owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = rapid_sched::mpo::mpo_order(&model.graph, &assign, &CostModel::unit());
    let rep = min_mem(&model.graph, &sched);
    let exec = ThreadedExecutor::new(&model.graph, &sched, rep.min_mem + 512)
        .with_tracing(TraceConfig::default());
    let out =
        exec.run_with_init(model.body(), model.init(&a)).expect("traced cholesky fixture must run");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    std::fs::write(path, chrome_trace_json(trace, Some(&model.graph)))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote {path} ({} events across {} processors; open at https://ui.perfetto.dev)",
        trace.total(),
        trace.procs.len()
    );
}

fn kernel_report(check: bool) -> Vec<Entry> {
    let mut out = Vec::new();
    let gemm_sizes: &[usize] = if check { &[32] } else { &[32, 64, 96] };
    for &n in gemm_sizes {
        let a: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let bt: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.21).cos()).collect();
        let c0: Vec<f64> = (0..n * n).map(|i| i as f64 * 1e-3).collect();

        let tiled = bench_ns(&mut || {
            let mut c = c0.clone();
            kernels::gemm_nt_sub(std::hint::black_box(&mut c), n, n, &a, &bt, n);
        });
        let naive = bench_ns(&mut || {
            let mut c = c0.clone();
            kernels::gemm_nt_sub_naive(std::hint::black_box(&mut c), n, n, &a, &bt, n);
        });
        report_pair(&mut out, "gemm_nt_sub", n, tiled, naive);

        let tiled = bench_ns(&mut || {
            let mut c = c0.clone();
            kernels::gemm_nn_sub(std::hint::black_box(&mut c), n, 0, n, n, &a, n, 0, &bt, n, n);
        });
        let naive = bench_ns(&mut || {
            let mut c = c0.clone();
            kernels::gemm_nn_sub_naive(
                std::hint::black_box(&mut c),
                n,
                0,
                n,
                n,
                &a,
                n,
                0,
                &bt,
                n,
                n,
            );
        });
        report_pair(&mut out, "gemm_nn_sub", n, tiled, naive);
    }
    // The factorization pairs compare the blocked implementations
    // directly against the straight-loop references (the public `potrf`
    // and `getrf` entry points dispatch to the reference below their
    // crossovers, where the comparison would measure nothing) — reported
    // at sizes above each crossover, where the blocked path engages.
    let potrf_sizes: &[usize] = if check { &[96] } else { &[96, 128, 192] };
    for &n in potrf_sizes {
        let spd = spd_block(n);
        let tiled = bench_ns(&mut || {
            let mut x = spd.clone();
            kernels::potrf_blocked(std::hint::black_box(&mut x), n).unwrap();
        });
        let naive = bench_ns(&mut || {
            let mut x = spd.clone();
            kernels::potrf_unblocked(std::hint::black_box(&mut x), n).unwrap();
        });
        report_pair(&mut out, "potrf", n, tiled, naive);
    }
    let getrf_sizes: &[usize] = if check { &[96] } else { &[640, 768] };
    for &n in getrf_sizes {
        let spd = spd_block(n);
        let tiled = bench_ns(&mut || {
            let mut x = spd.clone();
            let mut piv = vec![0u32; n];
            kernels::getrf_blocked(std::hint::black_box(&mut x), n, n, &mut piv).unwrap();
        });
        let naive = bench_ns(&mut || {
            let mut x = spd.clone();
            let mut piv = vec![0u32; n];
            kernels::getrf_unblocked(std::hint::black_box(&mut x), n, n, &mut piv).unwrap();
        });
        report_pair(&mut out, "getrf", n, tiled, naive);
    }
    out
}

fn spd_block(n: usize) -> Vec<f64> {
    let mut spd = vec![0.0; n * n];
    for j in 0..n {
        for i in 0..n {
            spd[j * n + i] = if i == j { n as f64 + 1.0 } else { 0.5 / (1.0 + (i + j) as f64) };
        }
    }
    spd
}

/// Heap-driven ordering simulation versus the straight-scan reference
/// (paper §4.1, Figure 4) for the three orderings, on random irregular
/// graphs of growing size. The heap path is the production one; the
/// reference recomputes priorities by scanning the whole ready list at
/// every pick, so the gap widens with task count.
///
/// A second block measures the PR-7 planning front-end at scale (10^6
/// tasks, ~2000 in `--check`): `plan_parallel` for each policy against
/// the PR-2 sequential pipeline, and the `replan/*` rows — cold
/// sequential plan, cold parallel plan ([`rapid_verify::Replanner`]),
/// and a capacity-only replan. Scale rows are single-shot (a cold
/// 10^6-task reference plan runs the better part of a minute), and
/// every parallel order is asserted equal to its sequential twin, so
/// the bench doubles as a determinism check.
fn scheduling_report(check: bool) -> Vec<Entry> {
    use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};
    use rapid_sched::{
        dts_order, dts_order_reference, mpo_order, mpo_order_reference, rcp_order,
        rcp_order_reference,
    };

    let mut out = Vec::new();
    let sizes: &[usize] = if check { &[1_000] } else { &[1_000, 10_000, 100_000] };
    let nprocs = 8;
    for &tasks in sizes {
        let spec = RandomGraphSpec {
            objects: tasks / 4,
            tasks,
            max_obj_size: 4,
            max_reads: 3,
            update_prob: 0.35,
            accum_prob: 0.05,
            max_weight: 4.0,
        };
        let g = random_irregular_graph(2026, &spec);
        let owner = cyclic_owner_map(g.num_objects(), nprocs);
        let assign = owner_compute_assignment(&g, &owner, nprocs);
        let cost = CostModel::unit();

        type OrderFn = fn(
            &rapid_core::graph::TaskGraph,
            &rapid_sched::Assignment,
            &CostModel,
        ) -> rapid_core::schedule::Schedule;
        let pairs: [(&str, OrderFn, OrderFn); 3] = [
            ("rcp", rcp_order, rcp_order_reference),
            ("mpo", mpo_order, mpo_order_reference),
            ("dts", dts_order, dts_order_reference),
        ];
        for (name, heap_fn, ref_fn) in pairs {
            let heap = bench_ns(&mut || {
                std::hint::black_box(heap_fn(&g, &assign, &cost));
            });
            let reference = bench_ns(&mut || {
                std::hint::black_box(ref_fn(&g, &assign, &cost));
            });
            let speedup = reference / heap;
            println!(
                "scheduling/{name}/{tasks}: heap {} reference {} speedup {speedup:.2}x",
                fmt_ns(heap),
                fmt_ns(reference)
            );
            out.push(Entry {
                name: format!("{name}/{tasks}"),
                ns: heap,
                extra: vec![
                    ("reference_ns_per_iter".into(), format!("{reference:.1}")),
                    ("speedup".into(), format!("{speedup:.3}")),
                    ("tasks".into(), tasks.to_string()),
                    ("nprocs".into(), nprocs.to_string()),
                ],
            });
        }
    }
    planner_scale_rows(check, nprocs, &mut out);
    out
}

/// The PR-7 scale rows: `plan_parallel` vs the PR-2 sequential planner
/// for every policy, plus the cold-vs-incremental replan latencies.
fn planner_scale_rows(check: bool, nprocs: usize, out: &mut Vec<Entry>) {
    use rapid_core::dcg::Dcg;
    use rapid_rt::maps::{MapWindow, RtPlan};
    use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};
    use rapid_sched::{
        dts_order_merged_reference, mpo_order, plan_parallel, rcp_order, slice_h_par, PlanPolicy,
    };
    use rapid_verify::Replanner;
    use std::time::Instant;

    let tasks: usize = if check { 2_000 } else { 1_000_000 };
    let nthreads = 8usize;
    let spec = RandomGraphSpec {
        objects: tasks / 4,
        tasks,
        max_obj_size: 4,
        max_reads: 3,
        update_prob: 0.35,
        accum_prob: 0.05,
        max_weight: 4.0,
    };
    let g = random_irregular_graph(2026, &spec);
    let owner = cyclic_owner_map(g.num_objects(), nprocs);
    let assign = owner_compute_assignment(&g, &owner, nprocs);
    let cost = CostModel::unit();

    // Capacity for the merged-DTS rows: a feasible-but-tight budget
    // derived from an untimed scouting pass (max permanent load plus
    // twice the largest slice requirement).
    let dcg = Dcg::build_par(&g, nthreads);
    let h = slice_h_par(&g, &assign, &dcg, nthreads);
    let hmax = h.iter().copied().max().unwrap_or(0);
    let mut perm = vec![0u64; nprocs];
    for d in g.objects() {
        perm[assign.owner_of(d) as usize] += g.obj_size(d);
    }
    let capacity = perm.iter().copied().max().unwrap_or(0) + 2 * hmax + 64;
    drop((dcg, h));

    let planner_extras = |par: f64, seq: f64| {
        vec![
            ("reference_ns_per_iter".into(), format!("{seq:.1}")),
            ("speedup".into(), format!("{:.3}", seq / par)),
            ("tasks".into(), tasks.to_string()),
            ("nprocs".into(), nprocs.to_string()),
            ("nthreads_requested".into(), nthreads.to_string()),
            ("nthreads_effective".into(), rapid_core::par::effective_threads(nthreads).to_string()),
        ]
    };
    let shot = |ns: std::time::Duration| ns.as_nanos() as f64;

    // One row per policy: ns = plan_parallel, reference = the PR-2
    // sequential planner for the same policy (for merged DTS that is
    // the quadratic-H pipeline this PR replaced).
    let mut seq_dts: Option<rapid_core::schedule::Schedule> = None;
    let mut ref_dts_ns = 0.0f64;
    for pname in ["rcp", "mpo", "dts"] {
        let policy = match pname {
            "rcp" => PlanPolicy::Rcp,
            "mpo" => PlanPolicy::Mpo,
            _ => PlanPolicy::DtsMerged { capacity },
        };
        let t = Instant::now();
        let par = plan_parallel(&g, &assign, &cost, policy, nthreads);
        let par_ns = shot(t.elapsed());
        let t = Instant::now();
        let seq = match pname {
            "rcp" => rcp_order(&g, &assign, &cost),
            "mpo" => mpo_order(&g, &assign, &cost),
            _ => dts_order_merged_reference(&g, &assign, &cost, capacity),
        };
        let seq_ns = shot(t.elapsed());
        assert_eq!(
            par.order, seq.order,
            "plan_parallel({pname}) diverged from the sequential planner at {tasks} tasks"
        );
        println!(
            "scheduling/{pname}/{tasks}: parallel {} sequential {} speedup {:.2}x",
            fmt_ns(par_ns),
            fmt_ns(seq_ns),
            seq_ns / par_ns
        );
        out.push(Entry {
            name: format!("{pname}/{tasks}"),
            ns: par_ns,
            extra: planner_extras(par_ns, seq_ns),
        });
        if pname == "dts" {
            seq_dts = Some(seq);
            ref_dts_ns = seq_ns;
        }
    }
    let Some(seq_dts) = seq_dts else { unreachable!("dts policy always measured") };

    // Cold sequential plan, end to end: the reference ordering (timed
    // above — a pipeline's latency is the sum of its stages) plus the
    // sequential protocol plan, MAP placement and full verification.
    let t = Instant::now();
    let plan = RtPlan::new(&g, &seq_dts);
    let placement = plan
        .place_maps(&g, &seq_dts, capacity, MapWindow::Greedy)
        .expect("bench capacity feasible");
    let cold_report = rapid_verify::verify(&g, &seq_dts, &plan, &placement);
    assert!(cold_report.accepted(), "cold plan rejected: {:?}", cold_report.findings);
    let cold_ns = ref_dts_ns + shot(t.elapsed());

    // Cold parallel plan and the capacity-only incremental replan
    // (+12.5% — a tenant's budget loosening at runtime).
    let t = Instant::now();
    let (mut rp, cold_par) = Replanner::new(&g, &assign, &cost, capacity, nthreads);
    let cold_par_ns = shot(t.elapsed());
    assert!(cold_par.report.accepted(), "parallel cold plan rejected");
    let t = Instant::now();
    let re = rp.replan_capacity(capacity + capacity / 8);
    let replan_ns = shot(t.elapsed());
    assert!(re.incremental, "capacity growth must take the incremental path");
    assert!(re.report.accepted(), "incremental replan rejected: {:?}", re.report.findings);

    println!(
        "scheduling/replan/{tasks}: cold {} cold-parallel {} cap-only {} speedup-vs-cold {:.2}x",
        fmt_ns(cold_ns),
        fmt_ns(cold_par_ns),
        fmt_ns(replan_ns),
        cold_ns / replan_ns
    );
    let scale_extras = |extra: &mut Vec<(String, String)>| {
        extra.push(("tasks".into(), tasks.to_string()));
        extra.push(("nprocs".into(), nprocs.to_string()));
    };
    let mut extra = vec![("capacity".into(), capacity.to_string())];
    scale_extras(&mut extra);
    out.push(Entry { name: format!("replan/cold/{tasks}"), ns: cold_ns, extra });
    let mut extra = vec![("speedup_vs_cold".into(), format!("{:.3}", cold_ns / cold_par_ns))];
    scale_extras(&mut extra);
    out.push(Entry { name: format!("replan/cold-parallel/{tasks}"), ns: cold_par_ns, extra });
    let mut extra = vec![
        ("speedup_vs_cold".into(), format!("{:.3}", cold_ns / replan_ns)),
        ("incremental".into(), re.incremental.to_string()),
        ("accepted".into(), re.report.accepted().to_string()),
    ];
    scale_extras(&mut extra);
    out.push(Entry { name: format!("replan/cap-only/{tasks}"), ns: replan_ns, extra });
}

fn report_pair(out: &mut Vec<Entry>, kernel: &str, n: usize, tiled: f64, naive: f64) {
    let speedup = naive / tiled;
    println!(
        "kernels/{kernel}/{n}: tiled {} naive {} speedup {speedup:.2}x",
        fmt_ns(tiled),
        fmt_ns(naive)
    );
    out.push(Entry {
        name: format!("{kernel}/{n}"),
        ns: tiled,
        extra: vec![
            ("naive_ns_per_iter".into(), format!("{naive:.1}")),
            ("speedup".into(), format!("{speedup:.3}")),
        ],
    });
}

/// `--check` also statically verifies the benchmark fixture plans — the
/// same analysis the `rapid-lint` CI job runs — so a schedule or planner
/// regression fails fast with a typed finding instead of a hung or
/// crashed measurement.
fn verify_fixture_plans() {
    let mut plans: Vec<(String, rapid_core::graph::TaskGraph, rapid_core::schedule::Schedule)> =
        Vec::new();
    plans.push(("figure2".into(), fixtures::figure2_dag(), fixtures::figure2_schedule_c()));
    {
        let spec = RandomGraphSpec { objects: 48, tasks: 160, ..Default::default() };
        let g = random_irregular_graph(11, &spec);
        let owner = rapid_sched::assign::cyclic_owner_map(g.num_objects(), 4);
        let assign = rapid_sched::assign::owner_compute_assignment(&g, &owner, 4);
        let sched = rapid_sched::mpo::mpo_order(&g, &assign, &CostModel::unit());
        plans.push(("random-irregular-t160-p4".into(), g, sched));
    }
    {
        let a = gen::bcsstk_like(6, 6, 3, 3);
        let model = taskgen::cholesky_2d_model(&a, 9, 4);
        let assign = rapid_sched::assign::owner_compute_assignment(&model.graph, &model.owner, 4);
        let sched = rapid_sched::mpo::mpo_order(&model.graph, &assign, &CostModel::unit());
        plans.push(("cholesky-bcsstk-p4".into(), model.graph, sched));
    }
    for (name, g, sched) in &plans {
        let mm = min_mem(g, sched).min_mem;
        let report = rapid_verify::verify_capacity(g, sched, mm);
        assert!(
            report.accepted(),
            "check: {name} plan rejected at MIN_MEM={mm}: {:?}",
            report.findings
        );
        println!("verify/{name}: accepted at MIN_MEM={mm}, static peaks {:?}", report.peak);
    }
}

/// Structural validation for `--check` mode: every section must produce
/// at least one measurement, every measurement must be finite and
/// positive, and names must be unique within a section.
fn check_entries(section: &str, entries: &[Entry]) {
    assert!(!entries.is_empty(), "check: section {section} produced no entries");
    let mut names = std::collections::BTreeSet::new();
    for e in entries {
        assert!(!e.name.is_empty(), "check: {section} has an unnamed entry");
        assert!(e.ns.is_finite() && e.ns > 0.0, "check: {section}/{} measured {} ns", e.name, e.ns);
        assert!(names.insert(e.name.clone()), "check: {section}/{} duplicated", e.name);
    }
    // The JSON assembler must keep producing one object per entry.
    let rendered = json(entries);
    assert_eq!(
        rendered.matches("\"ns_per_iter\"").count(),
        entries.len(),
        "check: {section} JSON shape drifted"
    );
}

fn main() {
    let mut check = false;
    let mut only: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--only" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--only needs a section: executor|recovery|kernels|scheduling|trace");
                    std::process::exit(2);
                });
                match v.as_str() {
                    "executor" | "recovery" | "kernels" | "scheduling" | "trace" => only.push(v),
                    _ => {
                        eprintln!(
                            "unknown section {v:?}: executor|recovery|kernels|scheduling|trace"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--trace" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace needs an output path, e.g. --trace out.json");
                    std::process::exit(2);
                }));
            }
            _ => {
                eprintln!(
                    "usage: bench [--check] [--only executor|recovery|kernels|scheduling|trace]... \
                     [--trace out.json]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = trace_out {
        write_trace(&path);
        if only.is_empty() && !check {
            return;
        }
    }
    let wants = |s: &str| only.is_empty() || only.iter().any(|o| o == s);

    if check {
        println!("== verify ==");
        verify_fixture_plans();
    }
    let mut written = Vec::new();
    if wants("executor") || wants("recovery") {
        let mut exec = Vec::new();
        if wants("executor") {
            println!("== executor ==");
            exec.extend(executor_report());
        }
        if wants("recovery") {
            println!("== recovery ==");
            exec.extend(recovery_report(check));
        }
        if check {
            check_entries("executor", &exec);
        } else {
            std::fs::write("BENCH_executor.json", json(&exec)).expect("write BENCH_executor.json");
            written.push("BENCH_executor.json");
        }
    }
    if wants("kernels") {
        println!("== kernels ==");
        let kern = kernel_report(check);
        if check {
            check_entries("kernels", &kern);
        } else {
            std::fs::write("BENCH_kernels.json", json(&kern)).expect("write BENCH_kernels.json");
            written.push("BENCH_kernels.json");
        }
    }
    if wants("scheduling") {
        println!("== scheduling ==");
        let sched = scheduling_report(check);
        if check {
            check_entries("scheduling", &sched);
        } else {
            std::fs::write("BENCH_scheduling.json", json(&sched))
                .expect("write BENCH_scheduling.json");
            written.push("BENCH_scheduling.json");
        }
    }
    if wants("trace") {
        println!("== trace ==");
        let tr = trace_report(check);
        if check {
            check_entries("trace", &tr);
        } else {
            std::fs::write("BENCH_trace.json", json(&tr)).expect("write BENCH_trace.json");
            written.push("BENCH_trace.json");
        }
    }
    if check {
        println!("check ok");
    } else {
        println!("wrote {}", written.join(", "));
    }
}
