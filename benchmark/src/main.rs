//! `benchmark` — run the workloads, or compare two sets of results.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! benchmark compare A/ B/ [--spec BENCHMARK.json]
//! ```
//!
//! Without `--trace` every selected workload runs both passes, each workload
//! in a process of its own. With `--trace 0` (end-to-end pass) or `--trace 1`
//! (ledger pass) and exactly one `--workload`, the last line of stdout is
//! the driver's result object.

use rapid_benchmark::host::guarded;
use rapid_benchmark::passes::{end_to_end, ledger, Effort};
use rapid_benchmark::report::Report;
use rapid_benchmark::workload::{find, Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1997,
        seconds: 25.0,
        trace: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads.push(find(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace needs exactly one --workload".into());
    }
    Ok(args)
}

/// Several workloads: one child process each. What the allocator hands a
/// run depends on what the process freed before it (`lu-panel`'s `exec_s`
/// halves after `chol-large` has run in the same process), and the driver
/// runs one workload per process.
fn run_each(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for spec in &args.workloads {
        let mut child = Command::new(&exe);
        child.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]).arg("--out").arg(&args.out);
        if args.quick {
            child.arg("--quick");
        }
        let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn run(args: &Args) -> Result<bool, String> {
    let [spec] = args.workloads.as_slice() else { return run_each(args) };
    let seconds = if args.quick { args.seconds / 10.0 } else { args.seconds };
    let effort = Effort { seconds, quick: args.quick };
    eprintln!("{}: {}", spec.name, spec.why);
    let mut report = Report { spec, seed: args.seed, seconds, end_to_end: None, per_layer: None };
    if args.trace != Some(true) {
        report.end_to_end = Some(guarded(|| end_to_end(spec, args.seed, effort)));
    }
    if args.trace != Some(false) {
        let (host, mut pass) = guarded(|| ledger(spec, args.seed, effort));
        pass.metrics.put("host.par_scaling", "ratio", host.par_scaling());
        pass.metrics.put("host.contended_retries", "count", f64::from(host.contended_retries));
        report.per_layer = Some((host, pass));
    }
    report.print_table();
    report.write_files(&args.out)?;
    if args.trace.is_some() {
        println!("{}", report.result_line());
    }
    Ok(report.failed() == 0)
}

fn compare(argv: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec = PathBuf::from(it.next().ok_or("--spec needs a value")?),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err("usage: benchmark compare A/ B/ [--spec BENCHMARK.json]".into());
    };
    rapid_benchmark::compare::compare(&spec, a, b)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
