//! Golden tests: every rule driven over a fixture under `tests/fixtures/`
//! (a directory the workspace walker skips), with the expected findings
//! embedded in the fixture itself as `//~ RULE` markers on the lines the
//! findings must anchor to. A marker line may list several rules (or the
//! same rule twice) when several findings anchor there.
//!
//! Fixtures go through [`engine::run_on`] with a workspace-relative path
//! chosen to put them in the right rule scope, so the golden comparison
//! also exercises path scoping and the suppression filter — exactly the
//! pipeline the CI gate runs.

use rdbsc_lint::engine;
use rdbsc_lint::{Finding, SourceFile};
use std::path::Path;

fn fixture(name: &str, rel: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let bytes = std::fs::read(&path).unwrap();
    SourceFile::new(path, rel.to_string(), &bytes)
}

/// `(line, rule)` pairs declared by the fixture's `//~` markers.
fn expected(f: &SourceFile) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in f.text.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                out.push((i as u32 + 1, rule.to_string()));
            }
        }
    }
    out.sort();
    out
}

fn reported(findings: &[Finding]) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = findings
        .iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    out.sort();
    out
}

fn rendered(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(Finding::render).collect()
}

#[test]
fn d001_golden() {
    let f = fixture("d001.rs", "crates/rdbsc-model/src/d001_fixture.rs");
    let exp = expected(&f);
    assert!(!exp.is_empty(), "fixture lost its markers");
    let findings = engine::run_on(&[f]);
    assert_eq!(reported(&findings), exp, "{:#?}", rendered(&findings));
}

#[test]
fn d002_golden() {
    let f = fixture("d002.rs", "crates/rdbsc-platform/src/wal/d002_fixture.rs");
    let exp = expected(&f);
    assert!(!exp.is_empty(), "fixture lost its markers");
    let findings = engine::run_on(&[f]);
    assert_eq!(reported(&findings), exp, "{:#?}", rendered(&findings));
}

/// The replication state machine reads no clock: D002 covers its file.
#[test]
fn d002_golden_covers_the_replication_state_machine() {
    let f = fixture("d002.rs", "crates/rdbsc-platform/src/repl.rs");
    let exp = expected(&f);
    assert!(!exp.is_empty(), "fixture lost its markers");
    let findings = engine::run_on(&[f]);
    assert_eq!(reported(&findings), exp, "{:#?}", rendered(&findings));
}

#[test]
fn d003_golden() {
    let f = fixture("d003.rs", "crates/rdbsc-model/src/d003_fixture.rs");
    let exp = expected(&f);
    assert!(!exp.is_empty(), "fixture lost its markers");
    let findings = engine::run_on(&[f]);
    assert_eq!(reported(&findings), exp, "{:#?}", rendered(&findings));
}

#[test]
fn m001_golden() {
    let missing = fixture("m001_missing.rs", "crates/rdbsc-fixture/src/lib.rs");
    let findings = engine::run_on(&[missing]);
    assert_eq!(reported(&findings), vec![(1, "M001".to_string())]);

    let ok = fixture("m001_ok.rs", "crates/rdbsc-fixture/src/lib.rs");
    let findings = engine::run_on(&[ok]);
    assert!(findings.is_empty(), "{:#?}", rendered(&findings));

    // Scoping: the same file outside a crate root is not checked.
    let not_root = fixture("m001_missing.rs", "crates/rdbsc-fixture/src/other.rs");
    assert!(engine::run_on(&[not_root]).is_empty());
}

#[test]
fn suppress_golden() {
    let f = fixture("suppress.rs", "crates/rdbsc-model/src/suppress_fixture.rs");
    let exp = expected(&f);
    assert!(!exp.is_empty(), "fixture lost its markers");
    let findings = engine::run_on(&[f]);
    assert_eq!(reported(&findings), exp, "{:#?}", rendered(&findings));
}

/// The hard gate, as a test: the workspace itself must be finding-free.
/// (CI also runs the binary, which exits 1 on findings — this keeps a plain
/// `cargo test` honest about the same invariant.)
#[test]
fn workspace_is_clean() {
    let root =
        engine::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let findings = engine::run(&root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        rendered(&findings).join("\n")
    );
}
