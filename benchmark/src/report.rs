//! What one run of one workload produces: named metrics with their spread,
//! operation counts with the checks that failed, and the machine
//! fingerprint — printed for a human, then as the driver's result line.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::{self, Spread};
use rdbsc_server::json::Json;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported figure (a median, a named percentile, or a count).
    pub value: f64,
    /// Spread of the samples behind a timing; `None` for counts.
    pub spread: Option<Spread>,
    /// The highest percentile with at least ten samples beyond it, and its
    /// value: how far into the tail these samples can speak.
    pub tail: Option<(f64, f64)>,
    /// A caveat printed beside the figure.
    pub note: Option<String>,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (checks count as operations).
    pub attempted: u64,
    /// Operations that failed, or whose check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Workload sizes and sample counts, for the fingerprint.
    pub sizes: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a count or a ratio.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(Metric {
            name,
            unit,
            value,
            spread: None,
            tail: None,
            note: None,
        });
    }

    /// Records percentile `p` of `samples`, with the samples' spread. A
    /// percentile with fewer than ten samples beyond it is still reported
    /// (the name is fixed) but flagged.
    pub fn timing(&mut self, name: &'static str, unit: &'static str, samples: &[f64], p: f64) {
        let sorted = stats::sorted(samples);
        let note = (!stats::percentile_supported(sorted.len(), p)).then(|| {
            format!(
                "only {} samples beyond p{p}",
                stats::samples_beyond(sorted.len(), p)
            )
        });
        self.push(Metric {
            name,
            unit,
            value: stats::percentile(&sorted, p),
            spread: Some(Spread::of(&sorted)),
            tail: stats::highest_supported_percentile(sorted.len())
                .map(|tail| (tail, stats::percentile(&sorted, tail))),
            note,
        });
    }

    fn push(&mut self, metric: Metric) {
        debug_assert!(
            END_TO_END
                .iter()
                .any(|m| m.name == metric.name && m.unit == metric.unit)
                || PER_LAYER
                    .iter()
                    .any(|m| m.name == metric.name && m.unit == metric.unit),
            "{} [{}] is not in the catalog",
            metric.name,
            metric.unit
        );
        debug_assert!(
            self.get(metric.name).is_none(),
            "{} reported twice",
            metric.name
        );
        self.metrics.push(metric);
    }

    /// The value reported under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts `ops` operations; they all fail when `ok` is false.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops.max(1);
            self.failures.push(what());
        }
    }

    /// Records a failure that ends the workload (a set-up step that could
    /// not run): one failed operation.
    pub fn fail(&mut self, what: String) {
        self.check(false, 1, || what);
    }

    /// Records a workload size or sample count.
    pub fn size(&mut self, name: &'static str, value: f64) {
        self.sizes.push((name, value));
    }

    /// Did every operation and every check succeed, and is every figure a
    /// number?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints every metric by name with its unit and spread.
    pub fn print_human(&self, workload: &str, fingerprint: &Fingerprint) {
        println!("== {workload} ==");
        println!("{}", fingerprint.line());
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(k, v)| format!("{k}={}", rdbsc_server::json::format_f64(*v)))
            .collect();
        println!("sizes: {}", sizes.join(" "));
        for m in &self.metrics {
            let mut line = format!("{:<36} {:>16.6} {:<6}", m.name, m.value, m.unit);
            if let Some(s) = &m.spread {
                line.push_str(&format!(
                    " n={} min={:.6} q1={:.6} med={:.6} q3={:.6} max={:.6}",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                ));
            }
            if let Some((p, value)) = m.tail {
                line.push_str(&format!(" tail:p{p}={value:.6}"));
            }
            if let Some(note) = &m.note {
                line.push_str(&format!(" ({note})"));
            }
            println!("{line}");
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("FAIL: {f}");
        }
    }

    /// The driver's result line: exactly the end-to-end metrics of an
    /// untraced run, exactly the per-layer metrics of a traced one. A
    /// per-layer metric a workload does not produce reads 0; a missing
    /// end-to-end metric fails the run.
    pub fn result_line(&mut self, traced: bool) -> String {
        let wanted: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = BTreeMap::new();
        for (name, unit) in wanted {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => {
                    self.check(false, 1, || {
                        format!("end-to-end metric {name} was not measured")
                    });
                    0.0
                }
            };
            if !traced && value <= 0.0 {
                self.check(false, 1, || format!("end-to-end metric {name} is {value}"));
            }
            metrics.insert(
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            );
        }
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Where and with what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Was this the traced run?
    pub traced: bool,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    /// Reads the machine's fingerprint.
    pub fn capture(seed: u64, seconds: f64, traced: bool) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_sha: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
            seconds,
            traced,
        }
    }

    /// One printed line.
    pub fn line(&self) -> String {
        format!(
            "fingerprint: nproc={} cpu=\"{}\" rustc=\"{}\" git={} seed={} seconds={} trace={}",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.git_sha,
            self.seed,
            self.seconds,
            u8::from(self.traced)
        )
    }

    /// As a JSON object (trace files, run sets).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
        ])
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_mode_s_metrics() {
        let mut r = Report::default();
        r.check(true, 5, String::new);
        r.value("setup_s", "s", 0.5);
        r.timing("op_p50_ms", "ms", &[1.0, 2.0, 3.0], 50.0);
        r.value("work_per_s", "1/s", 10.0);
        r.value("peak_rss_mb", "MB", 12.0);
        r.value("wal.fsyncs", "count", 3.0);
        let line = r.result_line(false);
        let doc = rdbsc_server::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(5.0));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["op_p50_ms"].get("value").and_then(Json::as_num),
            Some(2.0)
        );
        let traced = rdbsc_server::json::parse(&r.result_line(true)).unwrap();
        let metrics = traced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["wal.fsyncs"].get("value").and_then(Json::as_num),
            Some(3.0)
        );
        assert_eq!(
            metrics["wire.commands"].get("value").and_then(Json::as_num),
            Some(0.0)
        );
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.check(true, 1, String::new);
        r.value("setup_s", "s", 0.0);
        let doc = rdbsc_server::json::parse(&r.result_line(false)).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert!(r.failed >= 4, "{:?}", r.failures);
    }

    #[test]
    fn a_failed_check_fails_its_operations() {
        let mut r = Report::default();
        r.check(true, 10, String::new);
        r.check(false, 7, || "digest mismatch".into());
        assert_eq!((r.attempted, r.failed), (17, 7));
        assert!(!r.correct());
        assert_eq!(r.failures, ["digest mismatch"]);
    }
}
