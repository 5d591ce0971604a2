//! Prometheus text exposition format 0.0.4: a writer and a small validating
//! parser.
//!
//! [`PromWriter`] renders samples the way a Prometheus scraper expects:
//! `# HELP` / `# TYPE` headers followed by `name{labels} value` lines, with
//! histograms expanded into cumulative `_bucket{le="…"}` series plus `_sum`
//! and `_count`. Histogram bucket bounds stay in **microseconds** (the
//! stack's native latency unit — metric names end in `_us` so dashboards
//! know), rather than converting to seconds and losing the power-of-ten
//! bucket labels.
//!
//! [`validate_prom`] is the format checker CI runs against live `/metrics?
//! format=prom` scrapes from both tiers: it parses every line, checks metric
//! name and label grammar, and enforces the histogram invariants
//! (cumulative monotone buckets, a `+Inf` bucket equal to `_count`).

use crate::metrics::{LatencyHistogram, BUCKET_BOUNDS_US};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders Prometheus text exposition format (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

/// Formats a sample value: shortest round-trip for finite floats,
/// Prometheus spellings for the non-finite ones.
fn write_value(out: &mut String, value: f64) {
    if value.is_nan() {
        out.push_str("NaN");
    } else if value == f64::INFINITY {
        out.push_str("+Inf");
    } else if value == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn write_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rendered exposition text.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes the `# HELP` / `# TYPE` header pair for a metric family.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        // HELP text: escape backslash and newline per the format spec.
        let _ = write!(self.out, "# HELP {name} ");
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('\n');
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"");
                write_label_value(&mut self.out, v);
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        write_value(&mut self.out, value);
        self.out.push('\n');
    }

    /// A counter family with one unlabelled sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, "counter", help);
        self.sample(name, &[], value as f64);
    }

    /// A gauge family with one unlabelled sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, "gauge", help);
        self.sample(name, &[], value);
    }

    /// A histogram family with one unlabelled series.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &LatencyHistogram) {
        self.header(name, "histogram", help);
        self.histogram_series(name, &[], hist);
    }

    /// One histogram series (cumulative `_bucket` lines + `_sum` +
    /// `_count`) under an already-written header — callers labelling
    /// several partitions under one family write the header once and then
    /// one series per label set.
    pub fn histogram_series(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        hist: &LatencyHistogram,
    ) {
        let counts = hist.bucket_counts();
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (idx, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            cumulative += counts[idx];
            let le = bound.to_string();
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket_name, &with_le, cumulative as f64);
        }
        cumulative += counts[BUCKET_BOUNDS_US.len()];
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", "+Inf"));
        self.sample(&bucket_name, &with_le, cumulative as f64);
        self.sample(&format!("{name}_sum"), labels, hist.sum_us() as f64);
        self.sample(&format!("{name}_count"), labels, hist.count() as f64);
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) => {
            (c.is_ascii_alphabetic() || c == '_' || c == ':')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        None => false,
    }
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) => {
            (c.is_ascii_alphabetic() || c == '_')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        None => false,
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// Parses `name{labels} value`, validating the grammar.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: {line:?}");
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| err("unterminated label set"))?;
            if close < open {
                return Err(err("mismatched braces"));
            }
            (&line[..open], {
                let labels = &line[open + 1..close];
                let value = &line[close + 1..];
                (Some(labels), value)
            })
        }
        None => {
            let space = line.find(' ').ok_or_else(|| err("missing value"))?;
            (&line[..space], (None, &line[space..]))
        }
    };
    let (labels_part, value_part) = rest;
    if !valid_metric_name(name_part) {
        return Err(err("invalid metric name"));
    }
    let mut labels = BTreeMap::new();
    if let Some(labels_part) = labels_part {
        for pair in labels_part.split(',').filter(|p| !p.is_empty()) {
            let eq = pair.find('=').ok_or_else(|| err("label without '='"))?;
            let (k, v) = (&pair[..eq], &pair[eq + 1..]);
            if !valid_label_name(k) {
                return Err(err("invalid label name"));
            }
            if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                return Err(err("unquoted label value"));
            }
            labels.insert(k.to_string(), v[1..v.len() - 1].to_string());
        }
    }
    let value_str = value_part.trim();
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse::<f64>()
            .map_err(|_| err("unparseable sample value"))?,
    };
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

/// Validates a full exposition document: line grammar, `# TYPE` kinds, and
/// histogram invariants (monotone cumulative buckets; a `+Inf` bucket whose
/// count equals `_count`; `_sum`/`_count` present). Returns the number of
/// sample lines on success.
pub fn validate_prom(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: invalid metric name in TYPE"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        samples.push(parse_sample(line, lineno)?);
    }

    // Histogram invariants per (family, non-le label set).
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for s in samples.iter().filter(|s| s.name == bucket_name) {
            let le = s
                .labels
                .get("le")
                .ok_or_else(|| format!("{bucket_name} sample without le label"))?;
            let bound = match le.as_str() {
                "+Inf" => f64::INFINITY,
                s => s
                    .parse::<f64>()
                    .map_err(|_| format!("{bucket_name}: bad le {le:?}"))?,
            };
            let key: String = s
                .labels
                .iter()
                .filter(|(k, _)| k.as_str() != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .collect();
            series.entry(key).or_default().push((bound, s.value));
        }
        if series.is_empty() {
            return Err(format!("histogram {family} has no _bucket samples"));
        }
        for (key, mut buckets) in series {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are ordered"));
            let mut prev = -1.0f64;
            for (_, count) in &buckets {
                if *count < prev {
                    return Err(format!(
                        "histogram {family}{{{key}}} buckets not cumulative"
                    ));
                }
                prev = *count;
            }
            let (last_bound, last_count) = *buckets.last().expect("non-empty bucket series");
            if last_bound != f64::INFINITY {
                return Err(format!("histogram {family}{{{key}}} missing +Inf bucket"));
            }
            let count_sample = samples
                .iter()
                .find(|s| {
                    s.name == format!("{family}_count")
                        && s.labels
                            .iter()
                            .map(|(k, v)| format!("{k}={v},"))
                            .collect::<String>()
                            == key
                })
                .ok_or_else(|| format!("histogram {family}{{{key}}} missing _count"))?;
            if count_sample.value != last_count {
                return Err(format!(
                    "histogram {family}{{{key}}}: +Inf bucket {last_count} != _count {}",
                    count_sample.value
                ));
            }
            if !samples.iter().any(|s| {
                s.name == format!("{family}_sum")
                    && s.labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v},"))
                        .collect::<String>()
                        == key
            }) {
                return Err(format!("histogram {family}{{{key}}} missing _sum"));
            }
        }
    }
    Ok(samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn writer_output_validates() {
        let mut w = PromWriter::new();
        w.counter("requests_total", "total requests", 42);
        w.gauge("live_tasks", "live tasks", 17.0);
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(15));
        h.record(Duration::from_millis(3));
        h.record(Duration::from_secs(100)); // overflow bucket
        w.histogram("request_latency_us", "request latency", &h);
        let text = w.into_string();
        let samples = validate_prom(&text).expect("must validate");
        // 1 counter + 1 gauge + 20 buckets + sum + count.
        assert_eq!(samples, 1 + 1 + BUCKET_BOUNDS_US.len() + 1 + 2);
        assert!(text.contains("request_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("request_latency_us_count 3"));
    }

    #[test]
    fn labelled_series_share_one_family() {
        let mut w = PromWriter::new();
        w.header(
            "cmd_latency_us",
            "histogram",
            "per-partition command latency",
        );
        let h0 = LatencyHistogram::default();
        h0.record(Duration::from_micros(10));
        let h1 = LatencyHistogram::default();
        h1.record(Duration::from_micros(99));
        w.histogram_series("cmd_latency_us", &[("partition", "0")], &h0);
        w.histogram_series("cmd_latency_us", &[("partition", "1")], &h1);
        let text = w.into_string();
        validate_prom(&text).expect("labelled histograms must validate");
        assert!(text.contains("cmd_latency_us_bucket{partition=\"0\",le=\"10\"} 1"));
        assert!(text.contains("cmd_latency_us_count{partition=\"1\"} 1"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        for (bad, why) in [
            ("# TYPE x bogus\nx 1\n", "unknown type"),
            ("1name 2\n", "bad metric name"),
            ("x{le=\"oops} 1\n", "bad label"),
            ("x notanumber\n", "bad value"),
            (
                "# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n",
                "missing +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
                "count mismatch",
            ),
        ] {
            assert!(validate_prom(bad).is_err(), "must reject: {why}");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.header("g", "gauge", "g");
        w.sample("g", &[("endpoint", "a\"b\\c\nd")], 1.0);
        let text = w.into_string();
        assert!(text.contains(r#"endpoint="a\"b\\c\nd""#));
    }
}
