//! The benchmark against its own contract: one quick run of `chol-small`
//! must print every metric `BENCHMARK.json` declares exactly once, with
//! the declared unit, and `compare` must hold results to the bounds.

use rapid_benchmark::json::{self, Json};
use rapid_benchmark::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let field =
        |m: &Json, k: &str| m.get(k).and_then(Json::str).expect("declared field").to_string();
    spec.get(section)
        .expect("section")
        .arr()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("benchmark runs")
}

#[test]
fn spec_names_the_workloads_the_code_runs() {
    let spec = json::read(&spec_path()).unwrap();
    let in_spec: Vec<(&str, &str)> = spec
        .get("workloads")
        .unwrap()
        .arr()
        .iter()
        .map(|w| (w.get("name").unwrap().str().unwrap(), w.get("why").unwrap().str().unwrap()))
        .collect();
    let in_code: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(in_spec, in_code);
    assert_eq!(spec.get("paths").unwrap().arr(), [Json::Str("benchmark".into())]);
}

#[test]
fn quick_run_prints_every_declared_metric_once_and_compare_holds_the_bounds() {
    let spec = json::read(&spec_path()).unwrap();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-out");
    let out_arg = out.to_str().unwrap();
    let run = benchmark(&["--workload", "chol-small", "--quick", "--out", out_arg]);
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));

    // workload, name, value, unit
    let mut printed: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!((f.len(), f[0]), (4, "chol-small"), "unexpected line {line:?}");
        printed.entry(f[1].to_string()).or_default().push((f[2].to_string(), f[3].to_string()));
    }
    let name_ok = |n: &str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&spec, section) {
            assert!(name_ok(&name), "bad metric name {name:?}");
            let rows = printed.remove(&name).unwrap_or_default();
            assert_eq!(rows.len(), 1, "{name} printed {} times", rows.len());
            let (value, printed_unit) = &rows[0];
            assert_eq!(*printed_unit, unit, "unit of {name}");
            if section == "end_to_end" || value != "null" {
                let v: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value:?}"));
                assert!(v.is_finite(), "{name} = {v}");
            }
        }
    }
    let extra: Vec<&String> = printed.keys().collect();
    assert_eq!(extra, ["ops_attempted", "ops_failed"], "printed but not declared");
    assert_eq!(printed["ops_failed"][0].0, "0");
    assert!(out.join("chol-small.json").is_file() && out.join("chol-small.spans.json").is_file());

    // `compare` on one workload: a result set agrees with itself, and a
    // copy whose exec_s doubled is past the bound.
    let tiny = out.join("spec.json");
    let one = Json::obj([
        ("workloads", Json::Arr(vec![Json::obj([("name", Json::Str("chol-small".into()))])])),
        ("end_to_end", spec.get("end_to_end").unwrap().clone()),
    ]);
    std::fs::write(&tiny, one.to_string()).unwrap();
    let compare = |b: &Path| {
        let args = ["compare", out_arg, b.to_str().unwrap(), "--spec", tiny.to_str().unwrap()];
        benchmark(&args).status.code()
    };
    assert_eq!(compare(&out), Some(0));

    let slow = out.join("slow");
    std::fs::create_dir_all(&slow).unwrap();
    let text = std::fs::read_to_string(out.join("chol-small.json")).unwrap();
    let exec_s = json::parse(&text).unwrap();
    let exec_s = exec_s.get("end_to_end").unwrap().get("metrics").unwrap().get("exec_s").unwrap();
    let value = exec_s.get("value").unwrap();
    let doubled = Json::Num(2.0 * value.num().unwrap());
    let needle = format!("\"exec_s\": {{\"value\": {value}");
    assert!(text.contains(&needle), "{needle} not in the result file");
    let text = text.replace(&needle, &format!("\"exec_s\": {{\"value\": {doubled}"));
    std::fs::write(slow.join("chol-small.json"), text).unwrap();
    assert_eq!(compare(&slow), Some(1));
}
