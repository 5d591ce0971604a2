//! The driver: walks the workspace, applies each rule under its path scope,
//! filters findings through inline suppressions, and reports what is left.

use crate::rules::{self, Finding};
use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

/// Crates whose sources sit on the deterministic path: everything the
/// digest-identity contract covers. D001/D003 apply to every file here.
fn determinism_scope(rel: &str) -> bool {
    rel.starts_with("crates/rdbsc-model/src/")
        || rel.starts_with("crates/rdbsc-algos/src/")
        || rel.starts_with("crates/rdbsc-index/src/")
        || rel == "crates/rdbsc-platform/src/engine.rs"
        || rel == "crates/rdbsc-platform/src/partition.rs"
        || rel.starts_with("crates/rdbsc-platform/src/wal/")
}

/// Engine/solver/WAL code and the replication state machine (D002): time
/// enters as the tick timestamp or a `now` argument, never from the clock.
fn wall_clock_scope(rel: &str) -> bool {
    rel.starts_with("crates/rdbsc-algos/src/")
        || rel == "crates/rdbsc-platform/src/engine.rs"
        || rel == "crates/rdbsc-platform/src/repl.rs"
        || rel.starts_with("crates/rdbsc-platform/src/wal/")
}

/// Runs the full rule set over the workspace rooted at `root`.
///
/// Returns the surviving findings, sorted by (file, line, rule). An empty
/// vector is the green state the CI gate requires.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = collect_sources(root)?;
    Ok(run_on(&files))
}

/// Runs the rule set on an already-collected file set (used by tests).
pub fn run_on(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        findings.extend(check_file(f));
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Per-file rules under their path scopes, suppressions applied.
fn check_file(f: &SourceFile) -> Vec<Finding> {
    let mut raw = Vec::new();
    if determinism_scope(&f.rel) {
        raw.extend(rules::d001::check(f));
        raw.extend(rules::d003::check(f));
    }
    if wall_clock_scope(&f.rel) {
        raw.extend(rules::d002::check(f));
    }
    raw.extend(rules::f001::check(f));
    if rules::m001::is_crate_root(&f.rel) {
        raw.extend(rules::m001::check(f));
    }
    let mut out = filter_suppressed(f, raw);
    out.extend(suppression_findings(f));
    out
}

/// Drops findings covered by a reasoned suppression on the same or the
/// preceding line.
pub fn filter_suppressed(f: &SourceFile, findings: Vec<Finding>) -> Vec<Finding> {
    let suppressions = f.suppressions();
    findings
        .into_iter()
        .filter(|finding| {
            !suppressions
                .iter()
                .any(|s| s.covers(finding.rule, finding.line))
        })
        .collect()
}

/// Suppression hygiene (S001): every `lint:allow` must carry a reason and
/// name a rule that exists.
pub fn suppression_findings(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for s in f.suppressions() {
        if !rules::is_known_rule(&s.rule) {
            out.push(Finding {
                file: f.rel.clone(),
                line: s.line,
                rule: rules::S001,
                message: format!(
                    "`lint:allow({})` names an unknown rule — see --list-rules",
                    s.rule
                ),
            });
        } else if s.reason.is_none() {
            out.push(Finding {
                file: f.rel.clone(),
                line: s.line,
                rule: rules::S001,
                message: format!(
                    "`lint:allow({})` without a reason — a suppression must \
                     say *why* the site is safe (`lint:allow({}): <reason>`)",
                    s.rule, s.rule
                ),
            });
        }
    }
    out
}

/// Collects every `.rs` file under `root`, excluding vendored code, build
/// output and lint fixtures. Deterministic order (sorted paths).
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let bytes = fs::read(&path)?;
        files.push(SourceFile::new(path, rel, &bytes));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
