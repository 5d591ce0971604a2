//! D003 — float accumulation over an unordered container.
//!
//! Float addition is not associative: folding the same set of values in two
//! different orders can differ in the last ulp. When the fold ranges over a
//! hash container the order is the process-local hash seed's choice, so two
//! identical engines disagree — the summary-recomputation bug the index PR
//! fixed by folding in ascending order. D003 fires on the three
//! accumulation shapes (`+=` in a hash loop body, `.sum()`, `.fold(0.0…)`)
//! whenever the stream originates from a hash container.

use crate::analysis::{self, SiteKind};
use crate::lexer::TokenKind;
use crate::rules::Finding;
use crate::source::SourceFile;

/// Runs D003 on one file.
pub fn check(f: &SourceFile) -> Vec<Finding> {
    let bindings = analysis::hash_bindings(f);
    if bindings.is_empty() {
        return Vec::new();
    }
    let test_spans = analysis::test_spans(f);
    let mut out = Vec::new();
    for site in analysis::iteration_sites(f, &bindings) {
        if analysis::in_spans(&test_spans, site.byte) {
            continue;
        }
        match site.kind {
            SiteKind::Method { after_call, .. } => {
                if let Some((line, what)) = chain_accumulates(f, after_call) {
                    out.push(finding(f, line, &site.name, &what));
                }
            }
            SiteKind::ForLoop { body } => {
                // `total += …` anywhere in the loop body accumulates across
                // iterations whose order is the hash seed's choice.
                let mut i = body.start;
                while i < body.end {
                    if f.code_text(i) == "+"
                        && f.code_text(i + 1) == "="
                        && f.code_token(i)
                            .zip(f.code_token(i + 1))
                            .is_some_and(|(a, b)| a.end == b.start)
                    {
                        let line = f.code_token(i).map(|t| t.line).unwrap_or(site.line);
                        out.push(finding(f, line, &site.name, "`+=` in the loop body"));
                    }
                    i += 1;
                }
            }
        }
    }
    out
}

fn finding(f: &SourceFile, line: u32, name: &str, what: &str) -> Finding {
    Finding {
        file: f.rel.clone(),
        line,
        rule: "D003",
        message: format!(
            "possible float accumulation via {what} over hash container \
             `{name}` — float addition is order-sensitive and hash order is \
             per-process; fold over a sorted sequence"
        ),
    }
}

/// Walks a method chain starting at `at` (just past a call's `)`), looking
/// for `.sum()` (not integer-turbofished) or `.fold(<float literal>, …)`.
fn chain_accumulates(f: &SourceFile, mut at: usize) -> Option<(u32, String)> {
    let n = f.code.len();
    while at < n && f.code_text(at) == "." {
        let m = f.code_text(at + 1);
        let line = f.code_token(at + 1).map(|t| t.line).unwrap_or(1);
        let mut j = at + 2;
        // Optional turbofish `::<…>`; remember the type for `.sum()`.
        let mut turbofish = None;
        if f.code_text(j) == ":" && f.code_text(j + 1) == ":" && f.code_text(j + 2) == "<" {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < n {
                match f.code_text(k) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    t if turbofish.is_none()
                        && f.code_token(k).map(|t| t.kind) == Some(TokenKind::Ident) =>
                    {
                        turbofish = Some(t.to_string());
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        if f.code_text(j) != "(" {
            return None;
        }
        // Find the matching close paren; peek the first argument token.
        let first_arg = f.code_text(j + 1).to_string();
        let first_arg_is_float = f.code_token(j + 1).map(|t| t.kind) == Some(TokenKind::Num)
            && (first_arg.contains('.')
                || first_arg.ends_with("f32")
                || first_arg.ends_with("f64"));
        let mut depth = 0i32;
        let mut k = j;
        while k < n {
            match f.code_text(k) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        match m {
            "sum" | "product" => {
                let integer = matches!(
                    turbofish.as_deref(),
                    Some(
                        "u8" | "u16"
                            | "u32"
                            | "u64"
                            | "u128"
                            | "usize"
                            | "i8"
                            | "i16"
                            | "i32"
                            | "i64"
                            | "i128"
                            | "isize"
                    )
                );
                if integer {
                    return None; // integer addition is order-independent
                }
                return Some((line, format!(".{m}()")));
            }
            "fold" => {
                if first_arg_is_float {
                    return Some((line, ".fold(<float>, …)".to_string()));
                }
                return None;
            }
            _ => at = k + 1, // continue down the chain (.map(…).filter(…)…)
        }
    }
    None
}
