//! A small, robust Rust lexer.
//!
//! The rules in this crate must never fire on text inside comments, string
//! literals, char literals or lifetimes — so the lexer's one job is to
//! classify those regions correctly and *never panic*, no matter what bytes
//! it is fed (source files are read from disk and may be arbitrarily
//! damaged; the proptest suite feeds it random byte soup).
//!
//! It is deliberately not a full Rust lexer: numbers are lexed loosely,
//! multi-character operators are emitted as single-character [`Punct`]
//! tokens (rules match adjacent punct pairs when they need `+=` or `::`),
//! and keywords are ordinary [`Ident`] tokens. What it does get exactly
//! right is the hard part: nested block comments, escapes in strings and
//! chars, raw strings with arbitrary `#` fences, byte strings, raw
//! identifiers, and the `'a` lifetime vs `'a'` char-literal ambiguity.
//!
//! [`Punct`]: TokenKind::Punct
//! [`Ident`]: TokenKind::Ident

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers like `r#fn`).
    Ident,
    /// A lifetime such as `'a` or `'static` (quote included).
    Lifetime,
    /// A string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A number literal (integer or float, prefixes and suffixes included).
    Num,
    /// A `// …` comment (doc comments included), newline excluded.
    LineComment,
    /// A `/* … */` comment, nesting honoured, unterminated accepted.
    BlockComment,
    /// Any other single character (operators, brackets, stray bytes).
    Punct,
}

/// One lexed token: a classified byte range of the source.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of the first byte.
    pub line: u32,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into a token stream covering every non-whitespace byte.
///
/// Total: any input produces a token vector; unterminated constructs extend
/// to end of input. Bytes `>= 0x80` are folded into identifier tokens so
/// multi-byte UTF-8 sequences are never split below a char boundary.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let start = i;
        let start_line = line;
        let c = b[i];
        let kind = match c {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            _ if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                TokenKind::LineComment
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                i = scan_string(b, i + 1, &mut line);
                TokenKind::Str
            }
            b'\'' => scan_quote(b, &mut i, &mut line),
            b'0'..=b'9' => {
                i = scan_number(b, i);
                TokenKind::Num
            }
            _ if is_ident_start(c) => {
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let word = &b[start..i];
                match word {
                    // Possible string prefix: r"…", r#"…"#, b"…", br#"…"#.
                    b"r" | b"b" | b"br" | b"rb" => {
                        let raw = word != b"b";
                        if let Some(end) = try_string_suffix(b, i, raw, &mut line) {
                            i = end;
                            TokenKind::Str
                        } else if word == b"r" && b.get(i) == Some(&b'#') {
                            // Raw identifier `r#ident` (or `r#` garbage).
                            if i + 1 < b.len() && is_ident_start(b[i + 1]) {
                                i += 1;
                                while i < b.len() && is_ident_continue(b[i]) {
                                    i += 1;
                                }
                            }
                            TokenKind::Ident
                        } else if word != b"r" && b.get(i) == Some(&b'\'') {
                            // Byte char literal b'x'.
                            i += 1;
                            let k = scan_quote(b, &mut i, &mut line);
                            if k == TokenKind::Lifetime {
                                TokenKind::Char // b'a is malformed; absorb it
                            } else {
                                k
                            }
                        } else {
                            TokenKind::Ident
                        }
                    }
                    _ => TokenKind::Ident,
                }
            }
            _ => {
                i += 1;
                TokenKind::Punct
            }
        };
        out.push(Token {
            kind,
            start,
            end: i,
            line: start_line,
        });
    }
    out
}

/// Scans the body of a `"…"` string from just past the opening quote;
/// returns the offset one past the closing quote (or end of input).
fn scan_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i = (i + 2).min(b.len()),
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// After an `r`/`b`/`br`/`rb` identifier, tries to continue into a string
/// literal. Returns the end offset if the following bytes open one.
fn try_string_suffix(b: &[u8], i: usize, raw: bool, line: &mut u32) -> Option<usize> {
    if !raw {
        // b"…" — ordinary escapes apply.
        if b.get(i) == Some(&b'"') {
            return Some(scan_string(b, i + 1, line));
        }
        return None;
    }
    // r / br / rb: count the # fence, then require a quote.
    let mut j = i;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    let hashes = j - i;
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
        } else if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && b.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    Some(j)
}

/// Disambiguates `'` at `*i`: lifetime, char literal, or bare punct.
/// Advances `*i` past the token and returns its kind.
fn scan_quote(b: &[u8], i: &mut usize, line: &mut u32) -> TokenKind {
    let mut j = *i + 1; // past the quote
    match b.get(j) {
        Some(&b'\\') => {
            // Escaped char literal: '\n', '\'', '\u{1F600}'.
            j += 2; // backslash + first escaped byte
            while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                j += 1;
            }
            if b.get(j) == Some(&b'\'') {
                j += 1;
            }
            *i = j.min(b.len());
            TokenKind::Char
        }
        Some(&c) if is_ident_continue(c) => {
            // Ident run: 'a' is a char, 'a (no close) is a lifetime.
            let mut k = j;
            while k < b.len() && is_ident_continue(b[k]) {
                k += 1;
            }
            if b.get(k) == Some(&b'\'') {
                *i = k + 1;
                TokenKind::Char
            } else {
                *i = k;
                TokenKind::Lifetime
            }
        }
        Some(&b'\'') => {
            // '' — empty char literal (malformed; absorb both quotes).
            *i = j + 1;
            TokenKind::Char
        }
        // Punctuation char literal like '(' — only if closed right after.
        Some(&c) if b.get(j + 1) == Some(&b'\'') => {
            if c == b'\n' {
                *line += 1;
            }
            *i = j + 2;
            TokenKind::Char
        }
        _ => {
            *i += 1;
            TokenKind::Punct
        }
    }
}

/// Scans a number starting at a digit. Loose: accepts radix prefixes,
/// underscores, one decimal point (not `..`), exponents and suffixes.
fn scan_number(b: &[u8], mut i: usize) -> usize {
    let radix_prefixed = b[i] == b'0'
        && matches!(
            b.get(i + 1),
            Some(&b'x') | Some(&b'X') | Some(&b'o') | Some(&b'O') | Some(&b'b') | Some(&b'B')
        );
    if radix_prefixed {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return i;
    }
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part — but never eat the `..` of a range expression.
    if b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        i += 1;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
    }
    // Exponent.
    if matches!(b.get(i), Some(&b'e') | Some(&b'E')) {
        let sign = matches!(b.get(i + 1), Some(&b'+') | Some(&b'-'));
        let digits_at = if sign { i + 2 } else { i + 1 };
        if b.get(digits_at).is_some_and(|c| c.is_ascii_digit()) {
            i = digits_at;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (u64, f32, …).
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, &src[t.start..t.end]))
            .collect()
    }

    #[test]
    fn comments_and_strings() {
        let toks = kinds("let s = \"a // not a comment\"; // real");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("not a comment")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::LineComment && *t == "// real"));
    }

    #[test]
    fn nested_block_comment() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }

    #[test]
    fn raw_strings() {
        let toks = kinds(r####"let x = r#"quote " inside"# ;"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("quote")));
        let toks = kinds("br##\"bytes\"## + rest");
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[2], (TokenKind::Ident, "rest"));
    }

    #[test]
    fn lifetime_vs_char() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && *t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && *t == "'y'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && *t == "'\\n'"));
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("let r#fn = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "r#fn"));
    }

    #[test]
    fn numbers() {
        let toks = kinds("0xcbf2_9ce4 1.5e-3 1..2 x.0");
        assert_eq!(toks[0], (TokenKind::Num, "0xcbf2_9ce4"));
        assert_eq!(toks[1], (TokenKind::Num, "1.5e-3"));
        assert_eq!(toks[2], (TokenKind::Num, "1"));
        assert_eq!(toks[3], (TokenKind::Punct, "."));
        assert_eq!(toks[4], (TokenKind::Punct, "."));
        assert_eq!(toks[5], (TokenKind::Num, "2"));
    }

    #[test]
    fn line_numbers() {
        let toks = lex("a\nb\n  c");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        for src in ["\"abc", "/* abc", "r#\"abc", "'", "b'", "r#"] {
            let _ = lex(src);
        }
    }
}
