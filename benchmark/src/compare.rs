//! `--compare A.json B.json`: one row per workload × metric of two run sets
//! written by `--all --out`, with both medians, the ratio **with its base**,
//! the metric's bound and a verdict. This is the table a later performance
//! change pastes.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Spread;
use rdbsc_server::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write;

/// What the two sets say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improved on A by more than either set's own spread.
    Better,
    /// B is no worse than A by more than the bound (and not clearly better).
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A set's own run-to-run spread is wider than the bound, so a change
    /// of the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric: `a` is the base set, `b` the candidate.
pub fn verdict(a: &Spread, b: &Spread, better: Better, bound: f64) -> Verdict {
    let spread = a.relative_iqr().max(b.relative_iqr());
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive when B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// workload → metric → values, in run order.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<(RunSet, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array (write it with --all --out)"))?;
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: a run of {workload} without metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{path}: {workload}/{name} has no value"))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    let sha = doc
        .get("fingerprint")
        .and_then(|f| f.get("git_sha"))
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    Ok((set, sha))
}

/// Renders the comparison table of two run-set files.
pub fn run(path_a: &str, path_b: &str) -> Result<String, String> {
    let (a, sha_a) = load(path_a)?;
    let (b, sha_b) = load(path_b)?;
    Ok(render(
        &a,
        &b,
        &format!("A = {path_a} ({sha_a}), B = {path_b} ({sha_b})"),
    ))
}

fn render(a: &RunSet, b: &RunSet, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "| workload | metric | unit | A median [q1, q3] n | B median [q1, q3] n | B/A | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    let defs = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better, None)));
    let defs: Vec<_> = defs.collect();
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for &(name, unit, better, bound) in &defs {
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                continue;
            };
            let (sa, sb) = (Spread::of(va), Spread::of(vb));
            if sa.median == 0.0 && sb.median == 0.0 {
                continue; // a layer that does not run on this workload
            }
            let cell = |s: &Spread| format!("{:.6} [{:.6}, {:.6}] {}", s.median, s.q1, s.q3, s.n);
            let ratio = if sa.median == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}x of A", sb.median / sa.median)
            };
            let (bound_cell, verdict_cell) = match bound {
                Some(bound) if sa.median != 0.0 => (
                    format!("{:.1}%", bound * 100.0),
                    verdict(&sa, &sb, better, bound).as_str(),
                ),
                _ => ("none".to_string(), "n/a"),
            };
            let _ = writeln!(
                out,
                "| {} | {name} | {unit} | {} | {} | {ratio} | {bound_cell} | {verdict_cell} |",
                w.name,
                cell(&sa),
                cell(&sb),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(values: &[f64]) -> Spread {
        Spread::of(values)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = spread(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Lower is better: 105 is within a 10 % bound, 115 is not.
        let same = spread(&[105.0, 105.5, 104.5, 105.2, 104.8]);
        assert_eq!(verdict(&base, &same, Better::Lower, 0.1), Verdict::Same);
        let worse = spread(&[115.0, 115.5, 114.5, 115.2, 114.8]);
        assert_eq!(verdict(&base, &worse, Better::Lower, 0.1), Verdict::Worse);
        // The same numbers are an improvement when higher is better.
        assert_eq!(verdict(&base, &worse, Better::Higher, 0.1), Verdict::Better);
        let better = spread(&[90.0, 90.5, 89.5, 90.2, 89.8]);
        assert_eq!(verdict(&base, &better, Better::Lower, 0.1), Verdict::Better);
        // A set noisier than the bound resolves nothing.
        let noisy = spread(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // An improvement smaller than the runs' own spread is "same".
        let wide = spread(&[100.0, 104.0, 96.0, 102.0, 98.0]);
        let slightly = spread(&[99.0, 103.0, 95.0, 101.0, 97.0]);
        assert_eq!(verdict(&wide, &slightly, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn table_has_a_row_per_workload_and_metric_with_the_ratio_s_base() {
        let mut a = RunSet::new();
        let mut b = RunSet::new();
        for (set, scale) in [(&mut a, 1.0), (&mut b, 1.2)] {
            for w in ["batch_uniform", "metro_replay"] {
                let metrics = set.entry(w.to_string()).or_default();
                metrics.insert(
                    "op_p50_ms".into(),
                    vec![10.0 * scale, 10.1 * scale, 9.9 * scale],
                );
                metrics.insert("wal.fsyncs".into(), vec![0.0, 0.0, 0.0]);
            }
        }
        let table = render(&a, &b, "t");
        assert_eq!(table.matches("| op_p50_ms |").count(), 2);
        assert!(table.contains("1.2000x of A"), "{table}");
        assert!(table.contains("| 25.0% | same |"), "{table}");
        assert!(
            !table.contains("wal.fsyncs"),
            "layers that did not run are left out"
        );
    }
}
