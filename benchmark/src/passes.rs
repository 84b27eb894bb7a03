//! The two measuring passes over one workload.

use crate::host::{self, WORKERS};
use crate::pipeline::{fix_caps, plan, run, solve, Caps, Ops, Planned};
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{fast_mean, median, sample, summarize, timed};
use crate::workload::{bitwise_eq, Problem, Spec};
use rapid_core::dcg::Dcg;
use rapid_core::fixtures::SplitMix64;
use rapid_core::graph::TaskGraph;
use rapid_core::memreq::min_mem;
use rapid_core::schedule::{CostModel, Schedule};
use rapid_machine::arena::Arena;
use rapid_machine::mailbox::{AddrEntry, AddrSlot};
use rapid_machine::rma::RmaHeap;
use rapid_machine::MachineConfig;
use rapid_rt::des::{run_managed, run_unmanaged};
use rapid_rt::threaded::{run_sequential_with_init, ThreadedExecutor, ThreadedOutcome};
use rapid_sched::assign::owner_compute_assignment;
use rapid_sched::{plan_parallel, PlanPolicy};
use rapid_sparse::kernels;
use rapid_trace::{check_tier, ProcMetrics, TraceConfig, TraceTier};
use rapid_verify::Replanner;
use std::hint::black_box;

/// How long a pass may measure and how low its iteration floors go.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Seconds the pass shares out among its phases.
    pub seconds: f64,
    /// `--quick`: same inputs, iteration floors divided by ten.
    pub quick: bool,
}

impl Effort {
    fn share(&self, fraction: f64) -> f64 {
        self.seconds * fraction
    }

    fn iters(&self, floor: usize) -> usize {
        if self.quick {
            (floor / 10).max(1)
        } else {
            floor
        }
    }
}

/// Unrecorded runs before a prepared executor is timed: this guest kernel
/// keeps freshly spawned workers on one core for the first few runs.
const WARM_RUNS: usize = 4;

/// What a pass measured.
pub struct Pass {
    pub metrics: Metrics,
    pub ops: Ops,
    pub caps: Caps,
    /// The ledger pass's spans.
    pub spans: Option<Spans>,
}

impl Pass {
    /// A pass whose reference plan failed: nothing to measure, one failed
    /// operation to report.
    fn unplanned(ops: Ops) -> Pass {
        let caps = Caps { cap: 0, min_mem: 0, tot: 0, s1: 0 };
        Pass { metrics: Metrics::default(), ops, caps, spans: None }
    }
}

/// The reference state both passes check against: the generated input,
/// its cap, a verified plan and the serial result.
struct Reference {
    problem: Problem,
    caps: Caps,
    planned: Planned,
    serial: Vec<Vec<f64>>,
    maps_total: usize,
}

impl Reference {
    fn new(spec: &Spec, seed: u64, ops: &mut Ops) -> Option<Reference> {
        let off = &mut Spans::off();
        let problem = Problem::generate(spec, seed, off);
        let caps = fix_caps(spec, &problem);
        let planned = plan(spec, &problem, &caps, off);
        ops.record(planned.is_ok(), || format!("reference plan: {:?}", planned.as_ref().err()));
        let planned = planned.ok()?;
        let serial = run_sequential_with_init(problem.graph(), &*problem.body(), &*problem.init());
        let maps_total = planned.placement.total_maps();
        Some(Reference { problem, caps, planned, serial, maps_total })
    }

    /// One operation: the threaded result equals the serial one bit for
    /// bit and ran the MAPs the placement planned. It may run more: where
    /// the first-fit arena cannot place the end of a MAP's window, the
    /// executor cuts the window short and the rest becomes a MAP of its own
    /// (`irregular-tight` with seed 37 runs 28 MAPs for the 27 planned).
    fn check_run(&self, ops: &mut Ops, what: &str, r: &Result<ThreadedOutcome, String>) -> bool {
        let verdict = match r {
            Err(e) => Err(e.clone()),
            Ok(out) if !bitwise_eq(&out.objects, &self.serial) => {
                Err("objects differ from the serial run".to_string())
            }
            Ok(out) if maps_sum(&out.maps) < self.maps_total => {
                Err(format!("ran {:?} MAPs, placement has {}", out.maps, self.maps_total))
            }
            Ok(_) => Ok(()),
        };
        ops.record(verdict.is_ok(), || format!("{what}: {}", verdict.unwrap_err()))
    }

    /// One operation: the numeric oracle on a threaded result.
    fn check_residual(&self, ops: &mut Ops, objects: &[Vec<f64>]) -> Option<f64> {
        let (r, tol) = self.problem.residual(objects)?;
        ops.record(r <= tol, || format!("residual {r:e} above {tol:e}"));
        Some(r)
    }
}

/// What the traced runs of the ledger pass add up to.
#[derive(Default)]
struct Traced {
    /// Seconds of each traced call.
    calls: Vec<f64>,
    /// Per run, the dwell in each of the six working states, averaged
    /// over the workers.
    dwell: [Vec<f64>; 6],
    /// Per run, summed over the workers: CQ retries, suspended peak,
    /// mailbox busy, packages sent, messages sent, events, dropped.
    counters: [Vec<f64>; 7],
    /// Per run, traced wall minus the busiest worker's summed dwell.
    slack: Vec<f64>,
    /// Seconds `check_tier` took on the first recording.
    check_s: Option<f64>,
}

impl Traced {
    fn record(
        &mut self,
        secs: f64,
        out: &ThreadedOutcome,
        g: &TaskGraph,
        sched: &Schedule,
        spec: impl FnOnce() -> rapid_trace::ProtocolSpec,
        ops: &mut Ops,
    ) {
        let (Some(pm), Some(trace)) = (out.metrics.as_deref(), &out.trace) else {
            ops.record(false, || "traced run returned no trace".to_string());
            return;
        };
        self.calls.push(secs);
        for (state, v) in self.dwell.iter_mut().enumerate() {
            let total: u64 = pm.iter().map(|p| p.dwell_ns[state]).sum();
            v.push(total as f64 / pm.len() as f64 * 1e-9);
        }
        let fields: [fn(&ProcMetrics) -> u64; 7] = [
            |p| u64::from(p.cq_retries),
            |p| u64::from(p.suspended_peak),
            |p| u64::from(p.mailbox_busy),
            |p| u64::from(p.pkgs_sent),
            |p| u64::from(p.msgs_sent),
            |p| p.events,
            |p| p.dropped,
        ];
        for (v, field) in self.counters.iter_mut().zip(fields) {
            v.push(pm.iter().map(field).sum::<u64>() as f64);
        }
        let busiest = pm.iter().map(|p| p.dwell_ns.iter().sum::<u64>()).max().unwrap_or(0);
        self.slack.push(out.wall.as_secs_f64() - busiest as f64 * 1e-9);
        // The recording must replay clean against the protocol; once.
        if self.check_s.is_none() {
            let (secs, verdict) = timed(|| check_tier(g, sched, &spec(), trace, TraceTier::Full));
            ops.record(verdict.is_ok(), || format!("trace check: {:?}", verdict.err()));
            self.check_s = Some(secs);
        }
    }
}

fn maps_sum(maps: &[u32]) -> usize {
    maps.iter().map(|&m| m as usize).sum()
}

/// The five timed phases of the end-to-end pass, with the metric each
/// reports and its share of `effort.seconds`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Plan,
    Exec,
    Solve,
    Model,
}

const PHASES: [(Phase, &str, f64); 5] = [
    (Phase::Setup, "setup_s", 0.20),
    (Phase::Plan, "plan_s", 0.10),
    (Phase::Exec, "exec_s", 0.30),
    (Phase::Solve, "solve_s", 0.20),
    (Phase::Model, "model_s", 0.20),
];

/// Rounds the phases are interleaved over. A vCPU of this host slows down
/// by half for seconds at a time; spread over the whole run, such an episode
/// costs every phase a few samples instead of one phase all of them.
const ROUNDS: usize = 16;

/// State the timed phases share.
struct EndToEnd<'a> {
    spec: &'a Spec,
    seed: u64,
    rf: &'a Reference,
    exec: ThreadedExecutor<'a>,
    machine: MachineConfig,
    ops: Ops,
    off: Spans,
    residual_checked: bool,
    managed_pt: f64,
}

impl EndToEnd<'_> {
    /// One timed, checked operation of `phase`: its seconds, or `None` if
    /// its check failed. Every check is outside the timed span.
    fn step(&mut self, phase: Phase) -> Option<f64> {
        let (spec, rf, off) = (self.spec, self.rf, &mut self.off);
        match phase {
            // Everything from the seed to a warmed-up executor.
            Phase::Setup => {
                let (secs, out) = timed(|| {
                    let problem = Problem::generate(spec, self.seed, off);
                    let caps = fix_caps(spec, &problem);
                    let planned = plan(spec, &problem, &caps, off)?;
                    let exec = ThreadedExecutor::new(problem.graph(), &planned.sched, caps.cap);
                    run(&exec, &problem, off)
                });
                rf.check_run(&mut self.ops, "setup", &out).then_some(secs)
            }
            Phase::Plan => {
                let (secs, p) = timed(|| plan(spec, &rf.problem, &rf.caps, off));
                let maps = p.as_ref().map(|p| p.placement.total_maps());
                self.ops
                    .record(maps == Ok(rf.maps_total), || format!("plan: {maps:?}"))
                    .then_some(secs)
            }
            // The outcome is dropped before the next call, as a caller's
            // loop would: what the allocator hands the next run's heaps
            // depends on it.
            Phase::Exec => {
                let (secs, out) = timed(|| run(&self.exec, &rf.problem, off));
                let ok = rf.check_run(&mut self.ops, "exec", &out);
                if let (Ok(out), false) = (&out, self.residual_checked) {
                    self.residual_checked = true;
                    rf.check_residual(&mut self.ops, &out.objects);
                }
                ok.then_some(secs)
            }
            Phase::Solve => {
                let (secs, r) = timed(|| solve(spec, &rf.problem, &rf.caps, off));
                rf.check_run(&mut self.ops, "solve", &r.map(|(_, out)| out)).then_some(secs)
            }
            Phase::Model => {
                let machine = self.machine.clone().with_capacity(rf.caps.cap);
                let (secs, r) =
                    timed(|| run_managed(rf.problem.graph(), &rf.planned.sched, machine));
                let ok = matches!(&r, Ok(o) if maps_sum(&o.maps) == rf.maps_total);
                if let Ok(o) = &r {
                    self.managed_pt = o.parallel_time;
                }
                self.ops
                    .record(ok, || format!("DES managed: {:?}", r.map(|o| o.maps)))
                    .then_some(secs)
            }
        }
    }
}

/// The end-to-end pass: tracing off, five timed phases sharing
/// `effort.seconds` and interleaved over [`ROUNDS`] rounds, plus the two
/// deterministic ratios.
pub fn end_to_end(spec: &Spec, seed: u64, effort: Effort) -> Pass {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let Some(rf) = Reference::new(spec, seed, &mut ops) else {
        return Pass::unplanned(ops);
    };
    let (g, caps) = (rf.problem.graph(), rf.caps);
    let mut e = EndToEnd {
        spec,
        seed,
        rf: &rf,
        exec: ThreadedExecutor::new(g, &rf.planned.sched, caps.cap),
        machine: MachineConfig::t3d(WORKERS),
        ops,
        off: Spans::off(),
        residual_checked: false,
        managed_pt: f64::NAN,
    };

    // Unrecorded: every phase once, the prepared executor a few times.
    for (phase, ..) in PHASES {
        let times = if phase == Phase::Exec { effort.iters(WARM_RUNS) } else { 1 };
        for _ in 0..times {
            e.step(phase);
        }
    }
    let rounds = effort.iters(ROUNDS);
    let mut samples: [Vec<f64>; PHASES.len()] = Default::default();
    let mut spent = [0.0; PHASES.len()];
    for round in 1..=rounds {
        for (i, &(phase, _, share)) in PHASES.iter().enumerate() {
            // A phase gets what is left of its share up to this round, and
            // one sample at least: one whose samples are longer than that
            // is then ahead, and sits rounds out until its share catches up.
            let left = effort.share(share) * round as f64 / rounds as f64 - spent[i];
            if left > 0.0 {
                let (secs, block) = timed(|| sample(0, left, 1, || e.step(phase)));
                spent[i] += secs;
                samples[i].extend(block);
            }
        }
    }
    for (&(_, name, _), samples) in PHASES.iter().zip(&samples) {
        m.timing(name, samples);
    }

    let EndToEnd { machine, mut ops, managed_pt, .. } = e;
    let mem = rf.planned.mem(&rf.problem);
    let unmanaged = run_unmanaged(g, &rf.planned.sched, machine.with_capacity(mem.tot_no_recycle));
    ops.record(unmanaged.is_ok(), || format!("DES unmanaged: {:?}", unmanaged.as_ref().err()));
    let unmanaged_pt = unmanaged.map_or(f64::NAN, |o| o.parallel_time);
    m.put("model_pt_ratio", "ratio", managed_pt / unmanaged_pt);
    m.put("min_mem_ratio", "ratio", mem.min_mem as f64 * WORKERS as f64 / mem.s1 as f64);

    Pass { metrics: m, ops, caps, spans: None }
}

/// The ledger pass: every layer timed on its own through its public
/// calls, the cold solve repeated under spans, and the assertions that
/// the ledger closes.
pub fn ledger(spec: &Spec, seed: u64, effort: Effort) -> Pass {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let Some(rf) = Reference::new(spec, seed, &mut ops) else {
        return Pass::unplanned(ops);
    };
    let (g, caps) = (rf.problem.graph(), rf.caps);
    let sched = &rf.planned.sched;
    let off = &mut Spans::off();
    let mut sp = Spans::on();
    let floor = effort.iters(3);
    let cost = CostModel::unit();

    // rapid-sparse, input side: one trace per generated input.
    sample(0, effort.share(0.10), floor, || {
        sp.next_trace();
        black_box(Problem::generate(spec, seed, &mut sp));
        None
    });
    for (name, span) in [
        ("sparse.gen_s", "sparse.gen"),
        ("sparse.order_s", "sparse.order"),
        ("sparse.taskgen_s", "sparse.taskgen"),
    ] {
        let d = sp.durations(span);
        m.opt(name, "s", (!d.is_empty()).then(|| fast_mean(&d)));
    }

    // The cold solve under spans: one trace per solve.
    let first_solve = sp.closed().len();
    sample(0, effort.share(0.15), floor, || {
        sp.next_trace();
        let r = solve(spec, &rf.problem, &caps, &mut sp);
        rf.check_run(&mut ops, "spanned solve", &r.map(|(_, out)| out));
        None
    });
    // The ledger closes when the typical solve is accounted for by its
    // children; a single solve that lost a time slice between two spans
    // does not count against it.
    let covered = sp.children_secs();
    let gaps: Vec<f64> = sp
        .closed()
        .iter()
        .zip(&covered)
        .skip(first_solve)
        .filter(|(s, _)| s.name == "solve")
        .map(|(s, parts)| (s.secs() - parts).abs() / s.secs())
        .collect();
    let gap = median(&gaps);
    ops.record(gap <= 0.05, || {
        format!("ledger: the children of solve leave {:.1} % of it unaccounted", 100.0 * gap)
    });

    // rapid-core.
    m.put("core.tasks", "count", g.num_tasks() as f64);
    m.put("core.objects", "count", g.num_objects() as f64);
    m.put("core.edges", "count", g.num_edges() as f64);
    let time = |share: f64, f: &mut dyn FnMut()| {
        sample(1, effort.share(share), floor, || Some(timed(&mut *f).0))
    };
    m.timing("core.dcg_s", &time(0.02, &mut || drop(black_box(Dcg::build(g)))));
    m.timing("core.min_mem_s", &time(0.01, &mut || drop(black_box(min_mem(g, sched)))));

    // rapid-sched: the spans of the workload's own policy, then all four
    // orderings on this graph and what each costs in memory.
    m.timing("sched.assign_s", &sp.durations("sched.assign"));
    m.timing("sched.order_s", &sp.durations("sched.order"));
    let assign = owner_compute_assignment(g, rf.problem.owner(), WORKERS);
    let ideal = caps.s1 as f64 / WORKERS as f64;
    let mut ratios = Vec::new();
    for (name, ratio, policy) in [
        ("sched.rcp_s", Some("sched.rcp_min_mem_ratio"), PlanPolicy::Rcp),
        ("sched.mpo_s", Some("sched.mpo_min_mem_ratio"), PlanPolicy::Mpo),
        ("sched.dts_s", Some("sched.dts_min_mem_ratio"), PlanPolicy::Dts),
        ("sched.dts_merged_s", None, PlanPolicy::DtsMerged { capacity: caps.cap }),
    ] {
        let mut order = None;
        let t = time(0.025, &mut || order = Some(plan_parallel(g, &assign, &cost, policy, 1)));
        m.timing(name, &t);
        if let (Some(ratio), Some(s)) = (ratio, &order) {
            ratios.push((ratio, min_mem(g, s).min_mem as f64 / ideal));
        }
    }
    for (name, r) in ratios {
        m.put(name, "ratio", r);
    }

    // rapid-rt, planning side.
    m.timing("rt.rtplan_s", &sp.durations("rt.rtplan"));
    m.timing("rt.place_maps_s", &sp.durations("rt.place_maps"));
    m.timing("rt.exec_new_s", &sp.durations("rt.exec_new"));
    m.put("rt.maps_total", "count", rf.maps_total as f64);
    m.put("rt.msgs_total", "count", rf.planned.rt.data_msg_count() as f64);

    // rapid-verify, cold and incremental.
    m.timing("verify.verify_s", &sp.durations("verify.verify"));
    // `plan` turns any finding into a failed operation, so none got here.
    m.put("verify.findings", "count", 0.0);
    // The replanner plans merged DTS, which needs more memory than MPO on
    // the irregular graph, so it is planned cold at TOT (enough for any
    // order) and re-planned between TOT and halfway down to the cap.
    let mut replanner = None;
    let t = time(0.04, &mut || replanner = Some(Replanner::new(g, &assign, &cost, caps.tot, 1)));
    m.timing("verify.replanner_new_s", &t);
    if let Some((mut rp, cold)) = replanner {
        ops.record(cold.report.accepted(), || "Replanner::new: plan rejected".to_string());
        let mut caps_cycle = [caps.cap + (caps.tot - caps.cap) / 2, caps.tot].into_iter().cycle();
        let mut accepted = true;
        let t = time(0.02, &mut || {
            let planned = rp.replan_capacity(caps_cycle.next().expect("cycle is endless"));
            accepted &= planned.report.accepted();
        });
        ops.record(accepted, || "replan_capacity: plan rejected".to_string());
        m.timing("verify.replan_cap_s", &t);
    }

    // Baseline: the plain single-threaded run.
    let (body, init) = (rf.problem.body(), rf.problem.init());
    let serial = time(0.07, &mut || drop(black_box(run_sequential_with_init(g, &*body, &*init))));
    let serial_s = fast_mean(&serial);
    m.timing("baseline.serial_s", &serial);

    // rapid-rt threaded, timed from outside on a prepared executor, and,
    // every third run, the same schedule on an executor traced at the full
    // tier (ring sized from the task and message counts). The two are
    // interleaved so that they meet the same allocator and host state:
    // measured one loop after the other, lu-panel's traced runs came out
    // twice as fast as its untraced ones.
    let exec = ThreadedExecutor::new(g, sched, caps.cap);
    let events = 16 * (g.num_tasks() + rf.planned.rt.msgs.len()) + (1 << 16);
    let traced = ThreadedExecutor::new(g, sched, caps.cap)
        .with_tracing(TraceConfig::with_capacity(events).with_tier(TraceTier::Full));
    let (mut walls, mut arena_peak, mut maps_run) = (Vec::new(), 0u64, 0usize);
    let mut residual = None;
    let mut tr = Traced::default();
    let mut runs = 0usize;
    let calls = sample(effort.iters(WARM_RUNS), effort.share(0.30), effort.iters(30), || {
        if runs.is_multiple_of(3) {
            let (secs, out) = timed(|| run(&traced, &rf.problem, off));
            if rf.check_run(&mut ops, "traced exec", &out) {
                let spec = || traced.plan().trace_spec(caps.cap);
                tr.record(secs, &out.expect("checked"), g, sched, spec, &mut ops);
            }
        }
        runs += 1;
        let (secs, out) = timed(|| run(&exec, &rf.problem, off));
        let ok = rf.check_run(&mut ops, "exec", &out);
        let out = out.ok().filter(|_| ok)?;
        if walls.is_empty() {
            residual = rf.check_residual(&mut ops, &out.objects);
        }
        walls.push(out.wall.as_secs_f64());
        arena_peak = arena_peak.max(out.arena_peak.iter().copied().max().unwrap_or(0));
        maps_run = maps_run.max(maps_sum(&out.maps));
        Some(secs)
    });
    drop((exec, traced));
    let exec_s = fast_mean(&calls);
    m.timing("rt.run_wall_s", &walls);
    m.put("rt.run_outside_s", "s", exec_s - fast_mean(&walls));
    m.put("rt.exec_tail_s", "s", summarize(&calls).tail);
    m.put("rt.arena_peak_ratio", "ratio", arena_peak as f64 / caps.cap as f64);
    m.put("rt.maps_run", "count", maps_run as f64);
    m.put("rt.speedup_vs_serial", "ratio", serial_s / exec_s);

    // The same graph on one worker: the whole protocol and no message.
    let assign1 = owner_compute_assignment(g, &vec![0; g.num_objects()], 1);
    let sched1 = plan_parallel(g, &assign1, &cost, PlanPolicy::Mpo, 1);
    let exec1 = ThreadedExecutor::new(g, &sched1, min_mem(g, &sched1).tot_no_recycle);
    let p1 = sample(1, effort.share(0.07), floor, || {
        let (secs, out) = timed(|| exec1.run_with_init(&*body, &*init));
        let same = matches!(&out, Ok(o) if bitwise_eq(&o.objects, &rf.serial));
        ops.record(same, || "one-worker run differs from the serial run".to_string())
            .then_some(secs)
    });
    drop(exec1);
    m.timing("rt.exec_p1_s", &p1);
    m.put(
        "rt.overhead_per_task_ns",
        "ns",
        (fast_mean(&p1) - serial_s) / g.num_tasks() as f64 * 1e9,
    );

    // rapid-sparse kernels: the workload's own flops, then each kernel
    // alone at the workload's block width.
    let flops: f64 = g.tasks().map(|t| g.weight(t)).sum();
    m.put("sparse.flops", "count", flops);
    m.put("sparse.serial_gflops", "Gflop/s", flops / serial_s * 1e-9);
    m.put("sparse.exec_gflops", "Gflop/s", flops / exec_s * 1e-9);
    let kernel = kernel_gflops(&rf.problem, seed, effort);
    m.opt("sparse.gemm_nt_gflops", "Gflop/s", kernel.map(|k| k[0]));
    m.opt("sparse.potrf_gflops", "Gflop/s", kernel.map(|k| k[1]));
    m.opt("sparse.getrf_gflops", "Gflop/s", kernel.map(|k| k[2]));
    m.opt("sparse.residual", "ratio", residual);

    // Where each worker's time went, from the traced runs.
    let dwell_names = [
        "rt.dwell_setup_s",
        "rt.dwell_map_s",
        "rt.dwell_rec_s",
        "rt.dwell_exe_s",
        "rt.dwell_snd_s",
        "rt.dwell_end_s",
    ];
    for (name, v) in dwell_names.into_iter().zip(&tr.dwell) {
        m.put(name, "s", median(v));
    }
    ops.record(tr.slack.iter().all(|&s| s >= 0.0), || {
        "ledger: a processor's summed dwell exceeds the traced wall".to_string()
    });
    m.put("rt.wall_minus_dwell_s", "s", median(&tr.slack));
    let counter_names =
        ["rt.cq_retries", "rt.suspended_peak", "rt.mailbox_busy", "rt.pkgs_sent", "rt.msgs_sent"];
    for (name, v) in counter_names.into_iter().zip(&tr.counters) {
        m.put(name, "count", median(v));
    }

    // rapid-trace: what recording costs and whether the recording is sound.
    m.put("trace.overhead_ratio", "ratio", fast_mean(&tr.calls) / exec_s);
    m.put("trace.events", "count", median(&tr.counters[5]));
    let dropped = tr.counters[6].iter().copied().fold(0.0, f64::max);
    ops.record(dropped == 0.0, || format!("trace ring dropped {dropped} events"));
    m.put("trace.dropped", "count", dropped);
    ops.record(tr.check_s.is_some(), || "no traced run to check".to_string());
    m.opt("trace.check_s", "s", tr.check_s);

    // rapid-rt DES: the model's counters, and the unmanaged run's cost.
    let machine = MachineConfig::t3d(WORKERS);
    let managed = run_managed(g, sched, machine.clone().with_capacity(caps.cap));
    ops.record(managed.is_ok(), || format!("DES managed: {:?}", managed.as_ref().err()));
    let tot = rf.planned.mem(&rf.problem).tot_no_recycle;
    let unmanaged = sample(1, effort.share(0.02), floor, || {
        let (secs, r) = timed(|| run_unmanaged(g, sched, machine.clone().with_capacity(tot)));
        ops.record(r.is_ok(), || format!("DES unmanaged: {:?}", r.err())).then_some(secs)
    });
    m.timing("des.unmanaged_s", &unmanaged);
    let des = managed.ok();
    let des_maps = des.as_ref().map(|o| maps_sum(&o.maps));
    m.opt("des.suspended_sends", "count", des.as_ref().map(|o| o.suspended_sends as f64));
    m.opt("des.addr_pkgs", "count", des.as_ref().map(|o| o.addr_pkgs_sent as f64));
    m.opt("des.maps_total", "count", des_maps.map(|n| n as f64));
    // No threaded run got past `check_run` with fewer than the placement's.
    ops.record(des_maps == Some(rf.maps_total), || {
        format!("MAP counts: placement {}, DES {des_maps:?}", rf.maps_total)
    });

    machine_layer(g, &caps, effort, &mut m);

    Pass { metrics: m, ops, caps, spans: Some(sp) }
}

/// Gflop/s of `gemm_nt_sub`, `potrf` and `getrf` alone, on blocks of the
/// workload's width (`None` for a workload without a factorization). Each
/// factorization restores its input first; that copy is inside the time.
fn kernel_gflops(problem: &Problem, seed: u64, effort: Effort) -> Option<[f64; 3]> {
    let (w, rows) = (problem.block_w()?, problem.panel_rows()?);
    let mut rng = SplitMix64(seed);
    let mut random = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.unit_f64() - 0.5).collect() };
    let (a, b) = (random(w * w), random(w * w));
    let mut c = random(w * w);
    // Symmetric and diagonally dominant, so positive definite.
    let mut spd = vec![0.0; w * w];
    for i in 0..w {
        for j in 0..=i {
            let v = if i == j { w as f64 } else { a[j * w + i] };
            spd[j * w + i] = v;
            spd[i * w + j] = v;
        }
    }
    let panel = random(rows * w);
    let mut scratch = vec![0.0; rows * w];
    let mut piv = vec![0u32; w];
    let reps = 64;
    let rate = |flops: f64, f: &mut dyn FnMut()| {
        let per_call = sample(1, effort.share(0.01), effort.iters(3), || {
            Some(timed(|| (0..reps).for_each(|_| f())).0 / f64::from(reps))
        });
        flops / fast_mean(&per_call) * 1e-9
    };
    let (wf, rf) = (w as f64, rows as f64);
    let gemm =
        rate(2.0 * wf * wf * wf, &mut || kernels::gemm_nt_sub(black_box(&mut c), w, w, &a, &b, w));
    let potrf = rate(wf * wf * wf / 3.0, &mut || {
        scratch[..w * w].copy_from_slice(&spd);
        kernels::potrf(black_box(&mut scratch[..w * w]), w).expect("block is SPD");
    });
    let getrf = rate(rf * wf * wf - wf * wf * wf / 3.0, &mut || {
        scratch.copy_from_slice(&panel);
        kernels::getrf(black_box(&mut scratch), rows, w, &mut piv)
            .expect("random panel has pivots");
    });
    Some([gemm, potrf, getrf])
}

/// rapid-machine alone: heap construction, put bandwidth, the arena and
/// the address mailbox, at the workload's cap and median object size.
fn machine_layer(g: &TaskGraph, caps: &Caps, effort: Effort, m: &mut Metrics) {
    let floor = effort.iters(3);
    let mut sizes: Vec<u64> = g.objects().map(|d| g.obj_size(d)).collect();
    sizes.sort_unstable();
    let size = sizes[sizes.len() / 2].max(1);

    let heap_new = sample(1, effort.share(0.015), floor, || {
        Some(timed(|| drop(black_box(RmaHeap::new(caps.cap)))).0)
    });
    m.timing("machine.heap_new_s", &heap_new);

    // One sweep of back-to-back puts over the whole heap per sample.
    let heap = RmaHeap::new(caps.cap);
    let src = vec![1.0; size as usize];
    let puts = caps.cap / size;
    let gbs = sample(1, effort.share(0.015), floor, || {
        let (secs, ()) = timed(|| {
            for i in 0..puts {
                // SAFETY: this thread owns `heap` and is its only user, and
                // `(i + 1) * size <= cap` keeps the range inside it.
                unsafe { heap.put(i * size, black_box(&src)) };
            }
        });
        Some((puts * size * 8) as f64 / secs * 1e-9)
    });
    m.put("machine.rma_put_gbs", "GB/s", median(&gbs));

    // Up to 64 live blocks, allocated then freed first-in first-out.
    let mut arena = Arena::new(caps.cap);
    let live = puts.clamp(1, 64) as usize;
    let rounds = 64;
    let pair_ns = sample(1, effort.share(0.01), floor, || {
        let (secs, ()) = timed(|| {
            for _ in 0..rounds {
                let offs: Vec<u64> =
                    (0..live).map(|_| arena.alloc(size).expect("fits the cap")).collect();
                for off in offs {
                    arena.free(off).expect("block is live");
                }
            }
        });
        Some(secs / (rounds * live) as f64 * 1e9)
    });
    m.put("machine.arena_alloc_free_ns", "ns", fast_mean(&pair_ns));

    // A four-entry address package there and back between two threads.
    let (ping, pong) = (AddrSlot::new(), AddrSlot::new());
    let trips = 4096;
    let entries: Vec<AddrEntry> =
        (0..4).map(|i| AddrEntry { obj: i, offset: u64::from(i) * size }).collect();
    let relay = |from: &AddrSlot, to: &AddrSlot, pkg: &mut Vec<AddrEntry>| {
        let mut spins = 0u32;
        while !from.take_into(pkg) {
            spins += 1;
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
        let sent = to.try_send_from(pkg);
        assert!(sent, "the peer drains its slot before it sends again");
    };
    let trip_ns = sample(1, effort.share(0.02), floor, || {
        let (secs, ()) = timed(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut pkg = Vec::new();
                    (0..trips).for_each(|_| relay(&ping, &pong, &mut pkg));
                });
                let mut pkg = entries.clone();
                assert!(ping.try_send_from(&mut pkg));
                (1..trips).for_each(|_| relay(&pong, &ping, &mut pkg));
                while !pong.take_into(&mut pkg) {
                    std::hint::spin_loop();
                }
            });
        });
        Some(secs / f64::from(trips) * 1e9)
    });
    m.put("machine.mailbox_roundtrip_ns", "ns", fast_mean(&trip_ns));

    m.put("host.nproc", "count", host::nproc() as f64);
    m.opt("host.peak_rss_mb", "MiB", host::peak_rss_mb());
}
