//! `rapid-lint` — run the static plan verifier over a named plan and
//! report structured findings.
//!
//! ```text
//! rapid-lint [--plan fig2|cholesky|lu|random] [--seed N] [--procs N]
//!            [--order mpo|rcp|dts] [--cap min|min+K|min-K|N]
//!            [--corrupt none|reorder|drop-pkg|early-free|shrink-cap]
//!            [--json] [--out FILE]
//! ```
//!
//! Exit codes: `0` plan accepted, `1` findings reported, `2` usage error.
//! `--out` always writes the JSON report (for CI artifact upload);
//! `--json` prints it to stdout instead of the human-readable summary.

use rapid_core::fixtures::{self, random_irregular_graph, RandomGraphSpec};
use rapid_core::graph::TaskGraph;
use rapid_core::memreq;
use rapid_core::schedule::{CostModel, Schedule};
use rapid_rt::{MapPlacement, RtPlan};
use rapid_sched::{cyclic_owner_map, dts_order, mpo_order, owner_compute_assignment, rcp_order};
use rapid_sparse::{gen, taskgen};
use rapid_verify::{place_or_reject, verify, Finding, VerifyReport};

struct Opts {
    plan: String,
    seed: u64,
    procs: usize,
    order: String,
    cap: String,
    corrupt: String,
    json: bool,
    out: Option<String>,
}

fn usage() -> String {
    "usage: rapid-lint [--plan fig2|cholesky|lu|random] [--seed N] [--procs N] \
     [--order mpo|rcp|dts] [--cap min|min+K|min-K|N] \
     [--corrupt none|reorder|drop-pkg|early-free|shrink-cap] [--json] [--out FILE]"
        .to_string()
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        plan: "cholesky".into(),
        seed: 1,
        procs: 4,
        order: "mpo".into(),
        cap: "min".into(),
        corrupt: "none".into(),
        json: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--plan" => o.plan = val("--plan")?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--procs" => o.procs = val("--procs")?.parse().map_err(|e| format!("--procs: {e}"))?,
            "--order" => o.order = val("--order")?,
            "--cap" => o.cap = val("--cap")?,
            "--corrupt" => o.corrupt = val("--corrupt")?,
            "--json" => o.json = true,
            "--out" => o.out = Some(val("--out")?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if o.procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    Ok(o)
}

fn build_plan(o: &Opts) -> Result<(TaskGraph, Schedule), String> {
    if o.plan == "fig2" {
        return Ok((fixtures::figure2_dag(), fixtures::figure2_schedule_c()));
    }
    let (g, owner) = match o.plan.as_str() {
        "cholesky" => {
            let a = gen::grid2d_laplacian(6, 5);
            let m = taskgen::cholesky_2d_model(&a, 6, o.procs);
            (m.graph, m.owner)
        }
        "lu" => {
            let a = gen::goodwin_like(60, 4, 1, 5);
            let m = taskgen::lu_1d_model(&a, 10, o.procs, true);
            (m.graph, m.owner)
        }
        "random" => {
            let spec =
                RandomGraphSpec { objects: 20, tasks: 60, max_obj_size: 2, ..Default::default() };
            let g = random_irregular_graph(o.seed, &spec);
            let owner = cyclic_owner_map(g.num_objects(), o.procs);
            (g, owner)
        }
        other => return Err(format!("unknown plan `{other}`\n{}", usage())),
    };
    let assign = owner_compute_assignment(&g, &owner, o.procs);
    let sched = match o.order.as_str() {
        "mpo" => mpo_order(&g, &assign, &CostModel::unit()),
        "rcp" => rcp_order(&g, &assign, &CostModel::unit()),
        "dts" => dts_order(&g, &assign, &CostModel::unit()),
        other => return Err(format!("unknown order `{other}`\n{}", usage())),
    };
    Ok((g, sched))
}

fn parse_cap(spec: &str, min: u64) -> Result<u64, String> {
    if let Some(rest) = spec.strip_prefix("min") {
        if rest.is_empty() {
            return Ok(min);
        }
        let delta: i64 = rest.parse().map_err(|e| format!("--cap {spec}: {e}"))?;
        let cap = min as i64 + delta;
        if cap < 0 {
            return Err(format!("--cap {spec}: negative capacity"));
        }
        return Ok(cap as u64);
    }
    spec.parse().map_err(|e| format!("--cap {spec}: {e}"))
}

/// Apply the requested corruption. Schedule corruptions happen before
/// planning; placement corruptions mutate the artifact the verifier is
/// handed. Returns an error when the corruption found nothing to break.
fn corrupt_schedule(kind: &str, g: &TaskGraph, sched: &mut Schedule) -> Result<(), String> {
    if kind != "reorder" {
        return Ok(());
    }
    // Swap the first adjacent same-processor (pred, succ) pair so the
    // successor runs first.
    for ord in sched.order.iter_mut() {
        for j in 0..ord.len().saturating_sub(1) {
            if g.preds(ord[j + 1]).contains(&ord[j].0) {
                ord.swap(j, j + 1);
                return Ok(());
            }
        }
    }
    Err("reorder: no adjacent dependent pair on any processor".into())
}

fn corrupt_placement(
    kind: &str,
    plan: &RtPlan,
    placement: &mut MapPlacement,
) -> Result<(), String> {
    match kind {
        "none" | "reorder" => Ok(()),
        "drop-pkg" => {
            for wins in placement.per_proc.iter_mut() {
                if let Some(w) = wins.iter_mut().rev().find(|w| !w.notifies.is_empty()) {
                    w.notifies.clear();
                    return Ok(());
                }
            }
            Err("drop-pkg: no window emits an address package".into())
        }
        "early-free" => {
            // Free a still-live volatile one window after its allocation.
            for (p, wins) in placement.per_proc.iter_mut().enumerate() {
                let pl = &plan.lv.procs[p];
                for wi in 0..wins.len().saturating_sub(1) {
                    for k in 0..wins[wi].allocs.len() {
                        let d = wins[wi].allocs[k];
                        let next_pos = wins[wi + 1].pos;
                        let span = pl.volatile.binary_search(&d).ok().map(|i| pl.volatile_span[i]);
                        let alive = span.is_some_and(|(_, l)| l >= next_pos);
                        if alive && !wins[wi + 1].frees.contains(&d) {
                            wins[wi + 1].frees.push(d);
                            return Ok(());
                        }
                    }
                }
            }
            Err("early-free: no volatile lives across a later window".into())
        }
        "shrink-cap" => {
            if placement.capacity == 0 {
                return Err("shrink-cap: capacity already zero".into());
            }
            placement.capacity -= 1;
            Ok(())
        }
        other => Err(format!("unknown corruption `{other}`\n{}", usage())),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_report(o: &Opts, report: &VerifyReport, min: u64) -> String {
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"kind\":\"{}\",\"mirrors\":\"{:?}\",\"message\":\"{}\"}}",
                f.name(),
                f.mirrors(),
                json_escape(&f.to_string())
            )
        })
        .collect();
    let peaks: Vec<String> = report.peak.iter().map(u64::to_string).collect();
    format!(
        "{{\"plan\":\"{}\",\"order\":\"{}\",\"corrupt\":\"{}\",\"capacity\":{},\"min_mem\":{},\
         \"accepted\":{},\"peaks\":[{}],\"findings\":[{}]}}\n",
        json_escape(&o.plan),
        json_escape(&o.order),
        json_escape(&o.corrupt),
        report.capacity,
        min,
        report.accepted(),
        peaks.join(","),
        findings.join(",")
    )
}

fn run() -> Result<bool, String> {
    let o = parse_opts()?;
    let (g, mut sched) = build_plan(&o)?;
    corrupt_schedule(&o.corrupt, &g, &mut sched)?;
    let min = memreq::min_mem(&g, &sched).min_mem;
    let cap = parse_cap(&o.cap, min)?;

    let plan = RtPlan::new(&g, &sched);
    let report = match place_or_reject(&g, &sched, &plan, cap) {
        Ok(mut placement) => {
            corrupt_placement(&o.corrupt, &plan, &mut placement)?;
            verify(&g, &sched, &plan, &placement)
        }
        // Non-executable under `cap`: the planner's refusal.
        Err(report) => report,
    };

    let json = json_report(&o, &report, min);
    if let Some(path) = &o.out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("--out: {e}"))?;
        }
        std::fs::write(path, &json).map_err(|e| format!("--out {path}: {e}"))?;
    }
    if o.json {
        print!("{json}");
        return Ok(report.accepted());
    }

    println!(
        "plan {} ({} tasks, {} objects, {} procs), order {}, capacity {} (MIN_MEM {}), corrupt {}",
        o.plan,
        g.num_tasks(),
        g.num_objects(),
        sched.assign.nprocs,
        o.order,
        cap,
        min,
        o.corrupt
    );
    if report.accepted() {
        let peaks: Vec<String> =
            report.peak.iter().enumerate().map(|(p, u)| format!("P{p}={u}")).collect();
        println!("accepted: all Theorem-1 obligations hold (peaks {})", peaks.join(" "));
    } else {
        println!("rejected: {} finding(s)", report.findings.len());
        for f in &report.findings {
            print_finding(f);
        }
    }
    Ok(report.accepted())
}

fn print_finding(f: &Finding) {
    println!("  - [{}] {} (dynamic mirror: {:?})", f.name(), f, f.mirrors());
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("rapid-lint: {msg}");
            std::process::exit(2);
        }
    }
}
