//! The experiment harness binary: regenerates the tables behind every figure
//! of the RDB-SC paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p rdbsc-bench --release --bin experiments -- all
//! cargo run -p rdbsc-bench --release --bin experiments -- fig13 fig14
//! cargo run -p rdbsc-bench --release --bin experiments -- fig16 --scale paper
//! cargo run -p rdbsc-bench --release --bin experiments -- all --seed 7 --json results.json
//! ```
//!
//! By default the harness runs at the laptop scale (Table 2 values divided by
//! ten); `--scale paper` restores the paper's instance sizes, which takes
//! considerably longer.

#![forbid(unsafe_code)]

use rdbsc_bench::{
    all_figure_ids, resolve_figure_ids, run_figure, Figure, HarnessOptions, SOLVER_THREADS,
};
use rdbsc_workloads::Scale;
use std::time::Instant;

fn print_usage() {
    eprintln!(
        "usage: experiments <figure-id ...|all> [--scale small|paper] [--seed N] [--json FILE]\n\
         known figures: {}",
        all_figure_ids().join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    let mut requested: Vec<&str> = Vec::new();
    let mut options = HarnessOptions::default();
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                options.scale = match args.get(i).map(String::as_str) {
                    Some("paper") => Scale::Paper,
                    Some("small") => Scale::Small,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        print_usage();
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                options.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer");
                    std::process::exit(2);
                });
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--json requires a file path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            name => requested.push(name),
        }
        i += 1;
    }
    let figure_ids = resolve_figure_ids(&requested).unwrap_or_else(|unknown| {
        eprintln!("unknown figure id: {unknown}");
        print_usage();
        std::process::exit(2);
    });

    eprintln!("[solving on {SOLVER_THREADS} thread(s), as the paper's sequential algorithms]");
    let mut rendered: Vec<Figure> = Vec::new();
    for id in figure_ids {
        let started = Instant::now();
        let panels = run_figure(id, &options).expect("a resolved id has a figure");
        for panel in &panels {
            println!("{}", panel.render());
        }
        eprintln!("[{} done in {:.1?}]", id, started.elapsed());
        rendered.extend(panels);
    }

    if let Some(path) = json_path {
        let json = rdbsc_bench::figures_to_json(&rendered);
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {} figure panels to {path}", rendered.len());
    }
}
