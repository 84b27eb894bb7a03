//! Metrics by name and unit, the table on stdout, the files under
//! `out/`, and the one-line result the driver reads.

use crate::host::Host;
use crate::json::Json;
use crate::passes::Pass;
use crate::spans::Spans;
use crate::stats::{summarize, Summary};
use crate::workload::Spec;
use std::path::Path;

/// One measured value. `value` is `None` where the metric does not exist
/// on the workload (no `getrf` in an irregular graph); end-to-end metrics
/// always exist.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Present for timings: median, sample count and tail beside the value.
    pub summary: Option<Summary>,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.opt(name, unit, Some(value));
    }

    pub fn opt(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.0.push(Metric { name, unit, value, summary: None });
    }

    /// A timing in seconds: the [`fast_mean`](crate::stats::fast_mean) of `samples`.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.0.push(Metric { name, unit: "s", value: Some(s.fast_mean), summary: Some(s) });
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let mut kv = vec![
                        ("value", m.value.map_or(Json::Null, Json::from_f64)),
                        ("unit", Json::Str(m.unit.into())),
                    ];
                    if let Some(s) = m.summary {
                        kv.push(("median", Json::from_f64(s.median)));
                        kv.push(("n", Json::Num(s.n as f64)));
                        kv.push(("tail", Json::from_f64(s.tail)));
                        kv.push(("tail_pct", Json::from_f64(s.tail_pct)));
                    }
                    (m.name.to_string(), Json::obj(kv))
                })
                .collect(),
        )
    }
}

fn host_json(h: &Host) -> Json {
    Json::obj([
        ("nproc", Json::Num(h.nproc as f64)),
        ("threads", Json::Num(h.threads as f64)),
        ("par_scaling_before", Json::from_f64(h.par_scaling_before)),
        ("par_scaling_after", Json::from_f64(h.par_scaling_after)),
        ("contended_retries", Json::Num(f64::from(h.contended_retries))),
    ])
}

/// Everything one invocation measured on one workload.
pub struct Report<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub end_to_end: Option<(Host, Pass)>,
    pub per_layer: Option<(Host, Pass)>,
}

impl Report<'_> {
    fn passes(&self) -> impl Iterator<Item = &(Host, Pass)> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    pub fn attempted(&self) -> u64 {
        self.passes().map(|(_, p)| p.ops.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.passes().map(|(_, p)| p.ops.failed).sum()
    }

    /// One line per metric: workload, name, value (`null` where the metric
    /// does not exist on the workload), unit.
    pub fn print_table(&self) {
        let w = self.spec.name;
        for (_, pass) in self.passes() {
            for m in &pass.metrics.0 {
                let value = m.value.map_or("null".to_string(), |v| format!("{v:.6e}"));
                println!("{w:<16} {:<28} {value:>14} {}", m.name, m.unit);
            }
        }
        println!("{w:<16} {:<28} {:>14} count", "ops_attempted", self.attempted());
        println!("{w:<16} {:<28} {:>14} count", "ops_failed", self.failed());
        for (_, pass) in self.passes() {
            for f in &pass.ops.failures {
                eprintln!("{w}: FAILED {f}");
            }
        }
    }

    fn pass_json((host, pass): &(Host, Pass)) -> Json {
        let c = &pass.caps;
        Json::obj([
            ("host", host_json(host)),
            (
                "setup",
                Json::obj([
                    ("workers", Json::Num(crate::host::WORKERS as f64)),
                    ("cap", Json::Num(c.cap as f64)),
                    ("min_mem", Json::Num(c.min_mem as f64)),
                    ("tot", Json::Num(c.tot as f64)),
                    ("s1", Json::Num(c.s1 as f64)),
                ]),
            ),
            ("ops_attempted", Json::Num(pass.ops.attempted as f64)),
            ("ops_failed", Json::Num(pass.ops.failed as f64)),
            ("failures", Json::Arr(pass.ops.failures.iter().cloned().map(Json::Str).collect())),
            ("metrics", pass.metrics.json()),
        ])
    }

    /// Write `<out>/<workload>.json`, and `<workload>.spans.json` when the
    /// ledger pass ran.
    pub fn write_files(&self, out: &Path) -> Result<(), String> {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let mut kv = vec![
            ("workload", Json::Str(self.spec.name.into())),
            ("why", Json::Str(self.spec.why.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::from_f64(self.seconds)),
        ];
        if let Some(p) = &self.end_to_end {
            kv.push(("end_to_end", Self::pass_json(p)));
        }
        if let Some(p) = &self.per_layer {
            kv.push(("per_layer", Self::pass_json(p)));
        }
        let write = |name: String, v: Json| {
            let path = out.join(name);
            std::fs::write(&path, format!("{v}\n")).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(format!("{}.json", self.spec.name), Json::obj(kv))?;
        if let Some((host, Pass { spans: Some(sp), .. })) = &self.per_layer {
            write(format!("{}.spans.json", self.spec.name), self.spans_json(host, sp))?;
        }
        Ok(())
    }

    fn spans_json(&self, host: &Host, sp: &Spans) -> Json {
        let spans = sp
            .closed()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("trace", Json::Num(f64::from(s.trace))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.spec.name.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("host", host_json(host)),
            ("spans", Json::Arr(spans)),
        ])
    }

    /// The driver's result line for the one pass that ran. A metric that
    /// does not exist on the workload reads 0 here, because the driver
    /// wants a number for every declared name.
    pub fn result_line(&self) -> String {
        let metrics = self
            .passes()
            .flat_map(|(_, p)| &p.metrics.0)
            .map(|m| {
                let v = Json::obj([
                    ("value", Json::from_f64(m.value.unwrap_or(0.0))),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed() == 0)),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}
