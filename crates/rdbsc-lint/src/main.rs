//! The `rdbsc-lint` binary — the CI gate.
//!
//! ```text
//! rdbsc-lint [--root PATH] [--json] [--list-rules]
//! ```
//!
//! Exit status 0 when the workspace is clean, 1 when there are findings,
//! 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use rdbsc_lint::{engine, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "rdbsc-lint: workspace determinism analyzer\n\
                     \n\
                     usage: rdbsc-lint [--root PATH] [--json] [--list-rules]\n\
                     \n\
                     Suppress a finding inline with a mandatory reason:\n\
                     \x20   // lint:allow(D001): <why this site is safe>\n\
                     \n\
                     exit status: 0 clean, 1 findings, 2 usage/io error"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in rules::ALL_RULES {
            println!("{}  {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| engine::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "could not locate the workspace root (no Cargo.toml with [workspace]); pass --root"
            );
            return ExitCode::from(2);
        }
    };

    let findings = match engine::run(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rdbsc-lint: walking {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            eprintln!("rdbsc-lint: clean");
        } else {
            eprintln!("rdbsc-lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Hand-rolled JSON (the crate is dependency-free by design).
fn render_json(findings: &[rules::Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape(&f.file),
            f.line,
            f.rule,
            escape(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}\n", findings.len()));
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
