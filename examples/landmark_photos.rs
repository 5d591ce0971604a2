//! Example 1 of the paper: photographing a landmark from diverse directions.
//!
//! A single spatial task ("take photos of the statue, which is visible
//! together with the fireworks between 19:00 and 21:00") and a handful of
//! pedestrians moving through the area. The example shows how the RDB-SC
//! objective prefers workers that approach the landmark from *different*
//! sides and at *different* times, and how that translates into angular
//! coverage for a 3-D reconstruction (the paper's Figures 19–20 showcase).
//!
//! Run with `cargo run --release --example landmark_photos`.

use rdbsc::platform::coverage::coverage_report;
use rdbsc::prelude::*;
use std::f64::consts::{FRAC_PI_3, PI};

fn main() {
    // The landmark sits in the middle of the unit square; the firework show
    // runs from t = 19.0 to t = 21.0 (hours).
    let statue = Task::new(
        TaskId(0),
        Point::new(0.5, 0.5),
        TimeWindow::new(19.0, 21.0).expect("valid window"),
    );

    // Pedestrians: location, walking speed, heading cone, reliability.
    // w1 and w4 approach from the west, w2 from the south, w3 and w5 from the
    // east — mirroring Figure 1 of the paper.
    let make = |x: f64, y: f64, heading: f64, p: f64, check_in: f64| {
        Worker::new(
            WorkerId(0),
            Point::new(x, y),
            0.35,
            AngleRange::new(heading - 0.4, 0.8),
            Confidence::new(p).expect("valid confidence"),
        )
        .expect("valid worker")
        .with_available_from(check_in)
    };
    let workers = vec![
        make(0.20, 0.50, 0.0, 0.90, 18.5), // w1: from the west, daytime
        make(0.50, 0.15, PI / 2.0, 0.85, 18.8), // w2: from the south
        make(0.85, 0.50, PI, 0.80, 19.0),  // w3: from the east
        make(0.25, 0.45, 0.1, 0.95, 20.2), // w4: also from the west, but at night
        make(0.80, 0.55, PI - 0.1, 0.75, 19.3), // w5: from the east
        make(0.50, 0.95, 1.5 * PI, 0.70, 19.2), // w6: from the north
    ];

    let instance = ProblemInstance::new(vec![statue], workers, 0.6);
    let candidates = compute_valid_pairs(&instance);
    println!(
        "landmark task with {} candidate photographers (of {})",
        candidates.pairs_of_task(TaskId(0)).count(),
        instance.num_workers()
    );

    // Solve with greedy (a single task makes all approaches equivalent in
    // structure; greedy shows the per-worker marginal gains nicely).
    let assignment = greedy(
        &SolveRequest::new(&instance, &candidates),
        &GreedyConfig::default(),
    );
    let value = evaluate(&instance, &assignment);
    println!("\nselected photographers:");
    for (_, worker, contribution) in assignment.iter() {
        println!(
            "  worker w{} — approach angle {:>6.1}°, arrival {:>5.2} h, confidence {:.2}",
            worker.index() + 1,
            contribution.angle.to_degrees(),
            contribution.arrival,
            contribution.p()
        );
    }
    println!(
        "\ntask reliability        : {:.4} (probability at least one good photo arrives)",
        value.min_reliability
    );
    println!("expected STD (diversity) : {:.4}", value.total_std);

    // The 3-D reconstruction proxy: how much of the statue's silhouette do
    // the expected photos cover, assuming a 60° camera field of view?
    let answers: Vec<(f64, f64)> = assignment
        .iter()
        .map(|(_, _, c)| (c.angle, c.arrival))
        .collect();
    let coverage = coverage_report(&answers, instance.tasks[0].window, FRAC_PI_3, 0.5);
    println!(
        "angular coverage          : {:.0}% of the statue's sides",
        coverage.angular * 100.0
    );
    println!(
        "temporal coverage         : {:.0}% of the firework show",
        coverage.temporal * 100.0
    );

    // Contrast with a naive policy that sends only the two most reliable
    // workers (both approaching from the west).
    let mut naive = Assignment::for_instance(&instance);
    let mut best: Vec<&ValidPair> = candidates.pairs.iter().collect();
    best.sort_by(|a, b| b.contribution.p().partial_cmp(&a.contribution.p()).unwrap());
    for pair in best.into_iter().take(2) {
        naive.assign_pair(pair).expect("workers are unassigned");
    }
    let naive_value = evaluate(&instance, &naive);
    let naive_answers: Vec<(f64, f64)> =
        naive.iter().map(|(_, _, c)| (c.angle, c.arrival)).collect();
    let naive_coverage = coverage_report(&naive_answers, instance.tasks[0].window, FRAC_PI_3, 0.5);
    println!(
        "\nnaive 'two most reliable' policy: reliability {:.4}, diversity {:.4}, angular coverage {:.0}%",
        naive_value.min_reliability,
        naive_value.total_std,
        naive_coverage.angular * 100.0
    );
    println!("RDB-SC's diversity objective is what buys the missing viewing angles.");

    // Finally, aggregate the answers the requester would receive: similar
    // photos (same side of the statue, similar time) are grouped and only one
    // representative per group is shown (Section 2.3 of the paper).
    let contributions: Vec<Contribution> = assignment.iter().map(|(_, _, c)| c).collect();
    let groups = rdbsc::model::aggregation::aggregate_answers(
        &contributions,
        instance.tasks[0].window,
        &rdbsc::model::aggregation::AggregationConfig::default(),
    );
    println!(
        "\nanswer aggregation: {} photos -> {} representative views",
        contributions.len(),
        groups.len()
    );
    for (i, group) in groups.iter().enumerate() {
        println!(
            "  view {} — {} photo(s), mean angle {:>6.1}°, mean time {:>5.2} h",
            i + 1,
            group.members.len(),
            group.mean_angle.to_degrees(),
            group.mean_arrival
        );
    }
}
