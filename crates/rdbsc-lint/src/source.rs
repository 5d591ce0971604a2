//! A lexed source file plus the inline-suppression model.
//!
//! Suppression syntax (checked by the engine, parsed here):
//!
//! ```text
//! // lint:allow(D001): keys are sorted two lines down before the fold
//! ```
//!
//! A suppression applies to findings of that rule on its own line (trailing
//! comment) and on the following line (comment-above style). The reason is
//! **mandatory**: a bare `lint:allow(D001)` is itself reported (rule
//! [`S001`](crate::rules::S001)), so every intentional exception in the tree
//! carries its justification next to the code.

use crate::lexer::{lex, Token, TokenKind};
use std::path::PathBuf;

/// One source file: original text, token stream, and the code-only view.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute (or fixture-relative) path on disk.
    pub path: PathBuf,
    /// Workspace-relative path used in findings.
    pub rel: String,
    /// File contents (lossily decoded if not valid UTF-8).
    pub text: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into [`tokens`](Self::tokens) of non-comment tokens — the
    /// view rules walk so they can never fire inside a comment.
    pub code: Vec<usize>,
}

impl SourceFile {
    /// Lexes `bytes` (decoded lossily) into a [`SourceFile`].
    pub fn new(path: PathBuf, rel: String, bytes: &[u8]) -> Self {
        let text = String::from_utf8_lossy(bytes).into_owned();
        Self::from_text(path, rel, text)
    }

    /// Lexes already-decoded text.
    pub fn from_text(path: PathBuf, rel: String, text: String) -> Self {
        let tokens = lex(&text);
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        Self {
            path,
            rel,
            text,
            tokens,
            code,
        }
    }

    /// The text of a token (empty if the span is somehow invalid —
    /// never panics).
    pub fn text_of(&self, t: &Token) -> &str {
        self.text.get(t.start..t.end).unwrap_or("")
    }

    /// The text of the `idx`-th token of the code-only view.
    pub fn code_text(&self, code_idx: usize) -> &str {
        self.code
            .get(code_idx)
            .and_then(|&i| self.tokens.get(i))
            .map(|t| self.text_of(t))
            .unwrap_or("")
    }

    /// The `idx`-th token of the code-only view.
    pub fn code_token(&self, code_idx: usize) -> Option<&Token> {
        self.code.get(code_idx).and_then(|&i| self.tokens.get(i))
    }

    /// All suppressions declared in this file's comments.
    pub fn suppressions(&self) -> Vec<Suppression> {
        let mut out = Vec::new();
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = self.text_of(t);
            // Doc comments *document* the syntax without suppressing —
            // only working comments carry live markers.
            if text.starts_with("///")
                || text.starts_with("//!")
                || text.starts_with("/**")
                || text.starts_with("/*!")
            {
                continue;
            }
            let mut line = t.line;
            let mut rest = text;
            // A block comment can span lines and hold several allows.
            while let Some(pos) = rest.find("lint:allow(") {
                line += rest[..pos].matches('\n').count() as u32;
                let after = &rest[pos + "lint:allow(".len()..];
                let Some(close) = after.find(')') else { break };
                let rule = after[..close].trim().to_string();
                let tail = &after[close + 1..];
                let reason = parse_reason(tail);
                out.push(Suppression {
                    line,
                    rule,
                    reason: reason.map(str::to_string),
                });
                line += after[..close].matches('\n').count() as u32;
                rest = tail;
            }
        }
        out
    }
}

/// Extracts the mandatory reason after `lint:allow(RULE)`: a `:` followed
/// by non-empty text on the same line. Returns `None` when absent/empty.
fn parse_reason(tail: &str) -> Option<&str> {
    let tail = tail.strip_prefix(':')?;
    let line_end = tail.find('\n').unwrap_or(tail.len());
    let reason = tail[..line_end].trim().trim_end_matches("*/").trim();
    if reason.is_empty() {
        None
    } else {
        Some(reason)
    }
}

/// One parsed `lint:allow(...)` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Line the marker sits on (1-based).
    pub line: u32,
    /// The rule id inside the parentheses, as written.
    pub rule: String,
    /// The reason after the colon — `None` when missing (a finding).
    pub reason: Option<String>,
}

impl Suppression {
    /// Does this suppression cover a finding of `rule` at `line`?
    ///
    /// Trailing comments cover their own line; a comment above covers the
    /// next line.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.reason.is_some() && self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("x.rs"), "x.rs".into(), text.to_string())
    }

    #[test]
    fn parses_allow_with_reason() {
        let f = file("let x = 1; // lint:allow(D001): keys sorted below\n");
        let s = f.suppressions();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "D001");
        assert_eq!(s[0].reason.as_deref(), Some("keys sorted below"));
        assert_eq!(s[0].line, 1);
        assert!(s[0].covers("D001", 1));
        assert!(s[0].covers("D001", 2));
        assert!(!s[0].covers("D001", 3));
        assert!(!s[0].covers("D002", 1));
    }

    #[test]
    fn bare_allow_has_no_reason() {
        let f = file("// lint:allow(D001)\nfor x in m.iter() {}\n");
        let s = f.suppressions();
        assert_eq!(s[0].reason, None);
        assert!(!s[0].covers("D001", 2));
    }

    #[test]
    fn empty_reason_counts_as_missing() {
        let f = file("// lint:allow(D001):   \n");
        assert_eq!(file("// lint:allow(D001):").suppressions()[0].reason, None);
        assert_eq!(f.suppressions()[0].reason, None);
    }

    #[test]
    fn doc_comments_do_not_suppress() {
        let f = file("//! syntax: lint:allow(D001)\n/// e.g. lint:allow(D002): x\nfn f() {}\n");
        assert!(f.suppressions().is_empty());
    }

    #[test]
    fn allow_inside_string_is_not_a_suppression() {
        let f = file("let s = \"// lint:allow(D001): nope\";\n");
        assert!(f.suppressions().is_empty());
    }

    #[test]
    fn block_comment_allow() {
        let f = file("/* lint:allow(D002): the clock is read for a log line only */\n");
        let s = f.suppressions();
        assert_eq!(s[0].rule, "D002");
        assert_eq!(
            s[0].reason.as_deref(),
            Some("the clock is read for a log line only")
        );
    }
}
