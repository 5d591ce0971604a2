//! The repository's benchmark: four workloads, a handful of end-to-end
//! metrics every workload reports, and per-layer metrics from a separate
//! traced run. See `README.md` beside this package for why each workload
//! exists and which layer should move which number.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --smoke
//! benchmark --compare A.json B.json
//! benchmark --emit-manifest
//! ```
//!
//! `--workload` runs one workload in this process and prints, as the last
//! line of standard output, the result object the driver reads. `--all`
//! runs the four workloads, each in a fresh process, `--runs` times with
//! seeds `seed, seed+1, …`, and writes the run set `--compare` reads.

mod catalog;
mod compare;
mod openloop;
mod references;
mod report;
mod stats;
mod trace;
mod workloads;

use rdbsc_server::json::Json;
use report::{Fingerprint, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::RunParams;

/// Where this process keeps data dirs and trace files: inside the checkout
/// it was started from, never outside it.
const OUT_DIR: &str = ".bench_out";

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      benchmark --all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      benchmark --smoke\n\
         \x20      benchmark --compare A.json B.json\n\
         \x20      benchmark --emit-manifest\n\
         workloads: {}",
        catalog::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// What every way of running a workload needs.
#[derive(Clone, Copy)]
struct RunOpts {
    seed: u64,
    seconds: f64,
    traced: bool,
}

struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    emit_manifest: bool,
    compare: Option<(String, String)>,
    opts: RunOpts,
    runs: u64,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        smoke: false,
        emit_manifest: false,
        compare: None,
        opts: RunOpts {
            seed: references::DEFAULT_SEED,
            seconds: catalog::RUN_SECONDS as f64,
            traced: false,
        },
        runs: 1,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i - 1)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--emit-manifest" => args.emit_manifest = true,
            "--workload" => {
                let v = value(&mut i, &flag)?;
                if catalog::workload(&v).is_none() {
                    return Err(format!("unknown workload {v:?}"));
                }
                args.workload = Some(v);
            }
            "--seed" => {
                let v = value(&mut i, &flag)?;
                args.opts.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value(&mut i, &flag)?;
                args.opts.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.opts.seconds > 0.0 && args.opts.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--runs" => {
                let v = value(&mut i, &flag)?;
                args.runs = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                // The driver passes 0 or 1; a bare `--trace` means 1.
                match argv.get(i).map(String::as_str) {
                    Some("0") => {
                        args.opts.traced = false;
                        i += 1;
                    }
                    Some("1") => {
                        args.opts.traced = true;
                        i += 1;
                    }
                    _ => args.opts.traced = true,
                }
            }
            "--out" => args.out = Some(value(&mut i, &flag)?),
            "--compare" => {
                let a = value(&mut i, &flag)?;
                let b = value(&mut i, &flag)?;
                args.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// This process's own directory under [`OUT_DIR`].
fn scratch_root() -> PathBuf {
    Path::new(OUT_DIR).join(format!("run-{}", std::process::id()))
}

/// Runs one workload in this process; returns the report and result line.
fn run_workload(name: &str, args: RunOpts, smoke: bool) -> (Report, String) {
    let fingerprint = Fingerprint::capture(args.seed, args.seconds, args.traced);
    let scratch = scratch_root();
    let params = RunParams {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke,
        scratch: scratch.clone(),
    };
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut report = Report::default();
    // A panic inside a workload (a failed operation the program under test
    // turned into a crash) still removes the data dirs.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workloads::run(name, &params, &mut tracer, &mut report);
    }));
    let _ = std::fs::remove_dir_all(&scratch);
    if outcome.is_err() {
        report.check(false, 1, || format!("{name} panicked"));
    }
    report.value("peak_rss_mb", "MB", report::peak_rss_mb());

    if args.traced {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        let doc = tracer.to_json(vec![
            ("workload", Json::Str(name.to_string())),
            ("fingerprint", fingerprint.to_json()),
        ]);
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, doc.to_string_compact()))
        {
            Ok(()) => println!("trace: {} spans -> {}", tracer.len(), path.display()),
            Err(e) => report.check(false, 1, || format!("cannot write {}: {e}", path.display())),
        }
    }
    let line = report.result_line(args.traced);
    report.print_human(name, &fingerprint);
    (report, line)
}

/// Runs every workload `runs` times, each in a fresh process, and writes
/// the run set.
fn run_all(all: &Args) -> ExitCode {
    let args = all.opts;
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = Fingerprint::capture(args.seed, args.seconds, args.traced);
    let mut runs = Vec::new();
    let mut ok = true;
    for run in 0..all.runs {
        let seed = args.seed + run;
        for w in &catalog::WORKLOADS {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot start {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|l| rdbsc_server::json::parse(l).ok());
            match result {
                Some(result) if output.status.success() => {
                    ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    runs.push(Json::obj([
                        ("workload", Json::Str(w.name.to_string())),
                        ("seed", Json::Num(seed as f64)),
                        ("result", result),
                    ]));
                }
                _ => {
                    eprintln!(
                        "{} (seed {seed}) exited with {} and no result\n{}",
                        w.name,
                        output.status,
                        String::from_utf8_lossy(&output.stderr)
                    );
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = &all.out {
        let doc = Json::obj([
            ("fingerprint", fingerprint.to_json()),
            ("runs", Json::Arr(runs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_string_compact() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("run set: {path}");
    }
    exit_code(ok)
}

/// All four workloads at ~1/20 size, every check enforced.
fn run_smoke(args: RunOpts) -> ExitCode {
    let started = Instant::now();
    let mut ok = true;
    for traced in [false, true] {
        for w in &catalog::WORKLOADS {
            let opts = RunOpts {
                seconds: 1.0,
                traced,
                ..args
            };
            let (report, line) = run_workload(w.name, opts, true);
            println!("{line}");
            ok &= report.correct();
        }
    }
    println!(
        "smoke: {} in {:.1}s",
        if ok { "OK" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            return usage();
        }
    };
    if args.emit_manifest {
        print!("{}", catalog::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.smoke {
        return run_smoke(args.opts);
    }
    if args.all {
        return run_all(&args);
    }
    let Some(name) = args.workload.clone() else {
        return usage();
    };
    let (_report, line) = run_workload(&name, args.opts, false);
    // The driver reads the last line of standard output.
    println!("{line}");
    // Exit 0 even when a check failed: the result line says so, with the
    // counts; a non-zero exit is for "no result at all".
    ExitCode::SUCCESS
}
