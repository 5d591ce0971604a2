//! One function per figure of the paper's evaluation (Section 8).
//!
//! Every paper figure with an (a)/(b) panel pair becomes two [`Figure`]
//! values — one for the minimum reliability, one for `total_STD` — with one
//! row per x-axis value and one column per approach, exactly the series the
//! paper plots. Timing figures (16, 17) and the platform figures (18, 19)
//! have their own layouts, described in their doc comments.

use crate::runner::{run_lineup_on, HarnessOptions, SolverMeasurement};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc_algos::Solver;
use rdbsc_index::GridIndex;
use rdbsc_model::ProblemInstance;
use rdbsc_platform::{PlatformConfig, PlatformSim};
use rdbsc_workloads::{generate_instance, Distribution, ExperimentConfig, PoiGenerator, Scale};
use std::time::Instant;

/// Which measurement a figure panel reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverMetric {
    /// Minimum task reliability (the paper's "(a)" panels).
    MinReliability,
    /// Total expected spatial/temporal diversity (the "(b)" panels).
    TotalStd,
    /// Solver wall-clock time in seconds (Figure 16).
    Seconds,
}

impl SolverMetric {
    fn label(&self) -> &'static str {
        match self {
            SolverMetric::MinReliability => "min reliability",
            SolverMetric::TotalStd => "total_STD",
            SolverMetric::Seconds => "running time (s)",
        }
    }

    fn pick(&self, m: &SolverMeasurement) -> f64 {
        match self {
            SolverMetric::MinReliability => m.min_reliability,
            SolverMetric::TotalStd => m.total_std,
            SolverMetric::Seconds => m.seconds,
        }
    }
}

/// One reproduced figure panel.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `"fig13a"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis (the swept parameter).
    pub x_label: String,
    /// Column labels (usually the four approaches).
    pub columns: Vec<String>,
    /// One row per x-axis value.
    pub rows: Vec<FigureRow>,
}

/// One x-axis point of a figure.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// The x-axis value label.
    pub x: String,
    /// The values, aligned with [`Figure::columns`].
    pub values: Vec<f64>,
}

impl Figure {
    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("{:<16}", self.x_label));
        for c in &self.columns {
            out.push_str(&format!("{:>14}", c));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<16}", row.x));
            for v in &row.values {
                if *v >= 100.0 {
                    out.push_str(&format!("{:>14.1}", v));
                } else {
                    out.push_str(&format!("{:>14.4}", v));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Serialises rendered figures to pretty-printed JSON. The float formatting
/// and string escaping are the workspace-shared helpers from
/// [`rdbsc_server::json`], so figure dumps and `/metrics` scrapes format
/// values identically (and parse back losslessly).
pub fn figures_to_json(figures: &[Figure]) -> String {
    use rdbsc_server::json::{escape_str as escape, format_f64 as number};
    let mut out = String::from("[\n");
    for (i, fig) in figures.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"id\": \"{}\",\n", escape(&fig.id)));
        out.push_str(&format!("    \"title\": \"{}\",\n", escape(&fig.title)));
        out.push_str(&format!("    \"x_label\": \"{}\",\n", escape(&fig.x_label)));
        let columns: Vec<String> = fig
            .columns
            .iter()
            .map(|c| format!("\"{}\"", escape(c)))
            .collect();
        out.push_str(&format!("    \"columns\": [{}],\n", columns.join(", ")));
        out.push_str("    \"rows\": [\n");
        for (j, row) in fig.rows.iter().enumerate() {
            let values: Vec<String> = row.values.iter().map(|v| number(*v)).collect();
            out.push_str(&format!(
                "      {{\"x\": \"{}\", \"values\": [{}]}}{}\n",
                escape(&row.x),
                values.join(", "),
                if j + 1 < fig.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("    ]\n");
        out.push_str(&format!(
            "  }}{}\n",
            if i + 1 < figures.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// All figure identifiers the harness can reproduce, in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig22",
        "fig23", "fig24", "fig25", "fig26", "fig27",
    ]
}

/// Resolves what the `experiments` command line names — figure ids and
/// `all` — to the figures to run: each once, in order of first mention. An
/// unknown name is the error.
pub fn resolve_figure_ids<'a>(requested: &[&'a str]) -> Result<Vec<&'static str>, &'a str> {
    let known = all_figure_ids();
    let mut resolved: Vec<&'static str> = Vec::new();
    for &name in requested {
        let named: Vec<&'static str> = known
            .iter()
            .copied()
            .filter(|id| name == "all" || *id == name)
            .collect();
        if named.is_empty() {
            return Err(name);
        }
        for id in named {
            if !resolved.contains(&id) {
                resolved.push(id);
            }
        }
    }
    Ok(resolved)
}

/// How the workload for a sweep point is produced.
enum WorkloadKind {
    /// Pure synthetic data (UNIFORM or SKEWED per the configuration).
    Synthetic,
    /// Simulated "real data": POI-like task locations + trajectory-derived
    /// workers (the stand-in for Beijing POI + T-Drive).
    SimulatedReal,
}

fn build_instance(kind: &WorkloadKind, config: &ExperimentConfig, seed: u64) -> ProblemInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        WorkloadKind::Synthetic => generate_instance(config, &mut rng),
        WorkloadKind::SimulatedReal => {
            PoiGenerator::default().instance_with_trajectory_workers(config, &mut rng)
        }
    }
}

fn lineup_columns() -> Vec<String> {
    Solver::paper_lineup()
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// Generic sweep: one instance per x-axis point, the full solver line-up on
/// each, one output panel per requested metric.
fn sweep_panels(
    id: &str,
    title: &str,
    x_label: &str,
    points: Vec<(String, ExperimentConfig)>,
    kind: WorkloadKind,
    metrics: &[SolverMetric],
    options: &HarnessOptions,
) -> Vec<Figure> {
    let columns = lineup_columns();
    let mut measurements: Vec<(String, Vec<SolverMeasurement>)> = Vec::new();
    for (label, config) in points {
        let instance = build_instance(&kind, &config, config.seed ^ options.seed);
        let results = run_lineup_on(&instance, options.seed);
        measurements.push((label, results));
    }
    metrics
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let suffix = if metrics.len() > 1 {
                ((b'a' + i as u8) as char).to_string()
            } else {
                String::new()
            };
            Figure {
                id: format!("{id}{suffix}"),
                title: format!("{title} — {}", metric.label()),
                x_label: x_label.to_string(),
                columns: columns.clone(),
                rows: measurements
                    .iter()
                    .map(|(x, results)| FigureRow {
                        x: x.clone(),
                        values: results.iter().map(|m| metric.pick(m)).collect(),
                    })
                    .collect(),
            }
        })
        .collect()
}

fn quality_metrics() -> [SolverMetric; 2] {
    [SolverMetric::MinReliability, SolverMetric::TotalStd]
}

fn base_config(options: &HarnessOptions, distribution: Distribution) -> ExperimentConfig {
    ExperimentConfig::for_scale(options.scale)
        .with_distribution(distribution)
        .with_seed(options.seed)
}

/// Figure 11: effect of the tasks' expiration-time range `rt` (real data).
pub fn fig11(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig11",
        "Effect of tasks' expiration time range rt (simulated real data)",
        "range of rt",
        ExperimentConfig::sweep_rt(&base),
        WorkloadKind::SimulatedReal,
        &quality_metrics(),
        options,
    )
}

/// Figure 12: effect of the workers' reliability range (real data).
pub fn fig12(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig12",
        "Effect of workers' reliability [pmin, pmax] (simulated real data)",
        "[pmin,pmax]",
        ExperimentConfig::sweep_reliability(&base),
        WorkloadKind::SimulatedReal,
        &quality_metrics(),
        options,
    )
}

/// Figure 13: effect of the number of tasks m (UNIFORM).
pub fn fig13(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig13",
        "Effect of the number of tasks m (UNIFORM)",
        "m",
        ExperimentConfig::sweep_tasks(&base, options.scale),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 14: effect of the number of workers n (UNIFORM).
pub fn fig14(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig14",
        "Effect of the number of workers n (UNIFORM)",
        "n",
        ExperimentConfig::sweep_workers(&base, options.scale),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 15: effect of the range of moving angles (UNIFORM).
pub fn fig15(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig15",
        "Effect of the range of moving angles (UNIFORM)",
        "(a+ - a-)",
        ExperimentConfig::sweep_angle(&base),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 16: running time vs m (panel a) and vs n (panel b).
pub fn fig16(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    let mut panels = sweep_panels(
        "fig16a",
        "Running time vs number of tasks m (UNIFORM)",
        "m",
        ExperimentConfig::sweep_tasks(&base, options.scale),
        WorkloadKind::Synthetic,
        &[SolverMetric::Seconds],
        options,
    );
    panels.extend(sweep_panels(
        "fig16b",
        "Running time vs number of workers n (UNIFORM)",
        "n",
        ExperimentConfig::sweep_workers(&base, options.scale),
        WorkloadKind::Synthetic,
        &[SolverMetric::Seconds],
        options,
    ));
    panels
}

/// Figure 17: grid-index construction time (panel a) and W-T pair retrieval
/// time with and without the index (panel b), as n grows.
pub fn fig17(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    let ns: &[usize] = match options.scale {
        Scale::Paper => &[5_000, 8_000, 10_000, 20_000, 30_000],
        Scale::Small => &[500, 800, 1_000, 2_000, 3_000],
    };
    let mut construction_rows = Vec::new();
    let mut retrieval_rows = Vec::new();
    for &n in ns {
        let config = base.with_workers(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let instance = generate_instance(&config, &mut rng);

        let started = Instant::now();
        let mut index = GridIndex::from_instance(&instance);
        index.refresh_tcell_lists();
        let construction = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let brute = index.retrieve_valid_pairs_bruteforce();
        let without = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let with_index = index.retrieve_valid_pairs();
        let with = started.elapsed().as_secs_f64();
        assert_eq!(with_index.num_pairs(), brute.num_pairs());

        construction_rows.push(FigureRow {
            x: format!("{n}"),
            values: vec![construction],
        });
        retrieval_rows.push(FigureRow {
            x: format!("{n}"),
            values: vec![without, with],
        });
    }
    vec![
        Figure {
            id: "fig17a".into(),
            title: "RDB-SC-Grid index construction time".into(),
            x_label: "n".into(),
            columns: vec!["construction time (s)".into()],
            rows: construction_rows,
        },
        Figure {
            id: "fig17b".into(),
            title: "W-T pair retrieval time with and without the index".into(),
            x_label: "n".into(),
            columns: vec!["without index (s)".into(), "with index (s)".into()],
            rows: retrieval_rows,
        },
    ]
}

/// Figure 18: effect of the incremental update interval `t_interval` on the
/// platform simulator (minimum reliability and total_STD).
pub fn fig18(options: &HarnessOptions) -> Vec<Figure> {
    let columns = lineup_columns();
    let intervals = [1.0, 2.0, 3.0, 4.0];
    let mut rel_rows = Vec::new();
    let mut std_rows = Vec::new();
    for interval in intervals {
        let mut rel_values = Vec::new();
        let mut std_values = Vec::new();
        for solver in Solver::paper_lineup() {
            let config = PlatformConfig {
                t_interval: interval,
                total_duration: 60.0,
                ..PlatformConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(options.seed);
            let mut sim = PlatformSim::new(config, solver, &mut rng);
            let report = sim.run(&mut rng);
            rel_values.push(report.min_reliability);
            std_values.push(report.total_std);
        }
        rel_rows.push(FigureRow {
            x: format!("{interval} min"),
            values: rel_values,
        });
        std_rows.push(FigureRow {
            x: format!("{interval} min"),
            values: std_values,
        });
    }
    vec![
        Figure {
            id: "fig18a".into(),
            title: "Effect of the updating interval t_interval — min reliability (platform)".into(),
            x_label: "t_interval".into(),
            columns: columns.clone(),
            rows: rel_rows,
        },
        Figure {
            id: "fig18b".into(),
            title: "Effect of the updating interval t_interval — total_STD (platform)".into(),
            x_label: "t_interval".into(),
            columns,
            rows: std_rows,
        },
    ]
}

/// Figures 19–20 (showcase): angular/temporal coverage achieved by each
/// approach on the platform simulator — the quantitative stand-in for the
/// 3-D reconstruction demo.
pub fn fig19(options: &HarnessOptions) -> Vec<Figure> {
    let mut rows = Vec::new();
    for solver in Solver::paper_lineup() {
        let name = solver.name().to_string();
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut sim = PlatformSim::new(
            PlatformConfig {
                total_duration: 60.0,
                ..PlatformConfig::default()
            },
            solver,
            &mut rng,
        );
        let report = sim.run(&mut rng);
        let answered: Vec<_> = report
            .coverage
            .iter()
            .filter(|(_, c)| c.answers > 0)
            .collect();
        let angular = if answered.is_empty() {
            0.0
        } else {
            answered.iter().map(|(_, c)| c.angular).sum::<f64>() / answered.len() as f64
        };
        let temporal = if answered.is_empty() {
            0.0
        } else {
            answered.iter().map(|(_, c)| c.temporal).sum::<f64>() / answered.len() as f64
        };
        rows.push(FigureRow {
            x: name,
            values: vec![
                angular,
                temporal,
                report.total_answers as f64,
                report.mean_accuracy.unwrap_or(0.0),
            ],
        });
    }
    vec![Figure {
        id: "fig19".into(),
        title: "3-D reconstruction showcase proxy: photo coverage per approach (platform)".into(),
        x_label: "approach".into(),
        columns: vec![
            "angular coverage".into(),
            "temporal coverage".into(),
            "answers".into(),
            "mean accuracy".into(),
        ],
        rows,
    }]
}

/// Figure 22: effect of the requester-specified weight β (real data).
pub fn fig22(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig22",
        "Effect of the requester-specified weight beta (simulated real data)",
        "range of beta",
        ExperimentConfig::sweep_beta(&base),
        WorkloadKind::SimulatedReal,
        &quality_metrics(),
        options,
    )
}

/// Figure 23: effect of the number of tasks m (SKEWED).
pub fn fig23(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Skewed);
    sweep_panels(
        "fig23",
        "Effect of the number of tasks m (SKEWED)",
        "m",
        ExperimentConfig::sweep_tasks(&base, options.scale),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 24: effect of the number of workers n (SKEWED).
pub fn fig24(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Skewed);
    sweep_panels(
        "fig24",
        "Effect of the number of workers n (SKEWED)",
        "n",
        ExperimentConfig::sweep_workers(&base, options.scale),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 25: effect of the workers' velocity range (UNIFORM).
pub fn fig25(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Uniform);
    sweep_panels(
        "fig25",
        "Effect of the range of velocities [v-, v+] (UNIFORM)",
        "[v-,v+]",
        ExperimentConfig::sweep_velocity(&base),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 26: effect of the workers' velocity range (SKEWED).
pub fn fig26(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Skewed);
    sweep_panels(
        "fig26",
        "Effect of the range of velocities [v-, v+] (SKEWED)",
        "[v-,v+]",
        ExperimentConfig::sweep_velocity(&base),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Figure 27: effect of the range of moving angles (SKEWED).
pub fn fig27(options: &HarnessOptions) -> Vec<Figure> {
    let base = base_config(options, Distribution::Skewed);
    sweep_panels(
        "fig27",
        "Effect of the range of moving angles (SKEWED)",
        "(a+ - a-)",
        ExperimentConfig::sweep_angle(&base),
        WorkloadKind::Synthetic,
        &quality_metrics(),
        options,
    )
}

/// Runs a figure by its identifier.
pub fn run_figure(id: &str, options: &HarnessOptions) -> Option<Vec<Figure>> {
    match id {
        "fig11" => Some(fig11(options)),
        "fig12" => Some(fig12(options)),
        "fig13" => Some(fig13(options)),
        "fig14" => Some(fig14(options)),
        "fig15" => Some(fig15(options)),
        "fig16" | "fig16a" | "fig16b" => Some(fig16(options)),
        "fig17" | "fig17a" | "fig17b" => Some(fig17(options)),
        "fig18" => Some(fig18(options)),
        "fig19" | "fig20" => Some(fig19(options)),
        "fig22" => Some(fig22(options)),
        "fig23" => Some(fig23(options)),
        "fig24" => Some(fig24(options)),
        "fig25" => Some(fig25(options)),
        "fig26" => Some(fig26(options)),
        "fig27" => Some(fig27(options)),
        _ => None,
    }
}

/// For the quick regression tests: a drastically scaled-down options set.
pub fn smoke_options() -> HarnessOptions {
    HarnessOptions {
        scale: Scale::Small,
        seed: 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny sweep end-to-end: exercise the generic machinery without the
    /// cost of a full figure.
    #[test]
    fn sweep_machinery_produces_aligned_panels() {
        let options = smoke_options();
        let base = ExperimentConfig::small_default()
            .with_tasks(30)
            .with_workers(40)
            .with_seed(options.seed);
        let points = vec![
            ("first".to_string(), base),
            ("second".to_string(), base.with_workers(60)),
        ];
        let panels = sweep_panels(
            "smoke",
            "smoke sweep",
            "x",
            points,
            WorkloadKind::Synthetic,
            &quality_metrics(),
            &options,
        );
        assert_eq!(panels.len(), 2);
        for panel in &panels {
            assert_eq!(panel.columns.len(), 4);
            assert_eq!(panel.rows.len(), 2);
            for row in &panel.rows {
                assert_eq!(row.values.len(), 4);
                for v in &row.values {
                    assert!(v.is_finite());
                }
            }
        }
        // Panel a is reliabilities (≤ 1), panel b diversities (≥ 0).
        assert!(panels[0].rows[0]
            .values
            .iter()
            .all(|v| (0.0..=1.0).contains(v)));
        assert!(panels[1].rows[0].values.iter().all(|v| *v >= 0.0));
        // Rendering produces one line per row plus the two header lines.
        let rendered = panels[0].render();
        assert_eq!(rendered.lines().count(), 2 + panels[0].rows.len());
    }

    #[test]
    fn figures_json_round_trips_through_the_shared_parser() {
        // The figure dump uses the workspace-shared float/escape helpers, so
        // it must parse back with the shared parser, values intact.
        let figure = Figure {
            id: "fig\"x".into(),
            title: "τ — newline\n".into(),
            x_label: "m".into(),
            columns: vec!["GREEDY".into()],
            rows: vec![FigureRow {
                x: "1000".into(),
                values: vec![0.1 + 0.2, f64::NAN],
            }],
        };
        let dumped = figures_to_json(&[figure]);
        let parsed = rdbsc_server::json::parse(&dumped).expect("dump must parse");
        let fig = &parsed.as_arr().unwrap()[0];
        assert_eq!(fig.get("id").unwrap().as_str(), Some("fig\"x"));
        let values = fig.get("rows").unwrap().as_arr().unwrap()[0]
            .get("values")
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec();
        assert_eq!(values[0].as_num(), Some(0.1 + 0.2), "lossless float");
        assert_eq!(
            values[1],
            rdbsc_server::json::Json::Null,
            "NaN becomes null"
        );
    }

    #[test]
    fn figure_ids_resolve_once_each_in_order_of_first_mention() {
        // `Vec::dedup` only dropped adjacent repeats: both of these ran
        // fig13 twice.
        let all = all_figure_ids();
        assert_eq!(resolve_figure_ids(&["all", "fig13"]).unwrap(), all);
        let mut fig13_first = resolve_figure_ids(&["fig13", "all"]).unwrap();
        assert_eq!(fig13_first[0], "fig13");
        fig13_first.sort_unstable();
        assert_eq!(fig13_first, all, "every id once");
        assert_eq!(
            resolve_figure_ids(&["fig14", "fig12", "fig14"]).unwrap(),
            ["fig14", "fig12"]
        );
        assert_eq!(resolve_figure_ids(&["fig13", "fig99", "all"]), Err("fig99"));
    }

    #[test]
    fn every_figure_id_is_known_to_the_dispatcher() {
        // Only checks dispatch, not execution (full figures are exercised by
        // the `experiments` binary, which runs in release mode).
        assert!(run_figure("definitely-not-a-figure", &smoke_options()).is_none());
        for id in all_figure_ids() {
            let known = matches!(
                id,
                "fig11"
                    | "fig12"
                    | "fig13"
                    | "fig14"
                    | "fig15"
                    | "fig16"
                    | "fig17"
                    | "fig18"
                    | "fig19"
                    | "fig22"
                    | "fig23"
                    | "fig24"
                    | "fig25"
                    | "fig26"
                    | "fig27"
            );
            assert!(known, "unknown figure id {id}");
        }
    }
}
