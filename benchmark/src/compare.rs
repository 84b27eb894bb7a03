//! `benchmark compare A/ B/`: B's end-to-end medians against A's, under
//! the bounds `BENCHMARK.json` fixes.

use crate::json::{self, Json};
use std::path::Path;

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

fn pass_of<'a>(file: &'a Json, path: &Path) -> Result<&'a Json, String> {
    file.get("end_to_end").ok_or_else(|| format!("{}: no end_to_end pass", path.display()))
}

fn failure_rate(pass: &Json) -> f64 {
    let n = |k| pass.get(k).and_then(Json::num).unwrap_or(f64::NAN);
    n("ops_failed") / n("ops_attempted")
}

/// Print every workload × end-to-end metric pair; `Ok(false)` when B is
/// past a bound somewhere or fails a larger share of its operations.
pub fn compare(spec: &Path, a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let spec = json::read(spec)?;
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in spec.get("workloads").map_or(&[][..], Json::arr) {
        let w =
            w.get("name").and_then(Json::str).ok_or("BENCHMARK.json: workload without a name")?;
        let (a_path, b_path) = (a_dir.join(format!("{w}.json")), b_dir.join(format!("{w}.json")));
        let (a_file, b_file) = (json::read(&a_path)?, json::read(&b_path)?);
        let (a, b) = (pass_of(&a_file, &a_path)?, pass_of(&b_file, &b_path)?);
        for metric in spec.get("end_to_end").map_or(&[][..], Json::arr) {
            let field = |k| metric.get(k).and_then(Json::str).unwrap_or("");
            let (name, unit) = (field("name"), field("unit"));
            let bound = metric.get("bound").and_then(Json::num).unwrap_or(0.0);
            let value = |pass: &Json, path: &Path| {
                pass.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{}: no value for {name}", path.display()))
            };
            let (va, vb) = (value(a, &a_path)?, value(b, &b_path)?);
            let worse = worsening(va, vb, field("better"));
            // A NaN compares false, so it counts as a regression.
            let within = worse <= bound;
            ok &= within;
            println!(
                "{w:<16} {name:<16} {va:>14.6e} {vb:>14.6e} {:>8.2}% {:>6.1}%  {} ({unit})",
                100.0 * worse,
                100.0 * bound,
                if within { "ok" } else { "REGRESSED" },
            );
        }
        let (fa, fb) = (failure_rate(a), failure_rate(b));
        let within = fb <= fa;
        ok &= within;
        println!(
            "{w:<16} {:<16} {fa:>14.6} {fb:>14.6} {:>27}",
            "ops_failed/att.",
            if within { "ok" } else { "MORE FAILURES" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(2.0, 2.2, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, "higher") + 0.1).abs() < 1e-12);
        assert!(worsening(2.0, f64::NAN, "lower").is_nan());
    }
}
