//! Shared token-level analyses the determinism rules build on.
//!
//! Everything here is a *heuristic over the token stream* — there is no type
//! information. The resolution strategy is deliberately conservative:
//!
//! * An identifier counts as a hash container only when the file itself
//!   binds it to one: a struct field declared `name: HashMap<…>`, a
//!   `let`/param binding with a `HashMap`/`HashSet` type ascription, or a
//!   `let name = HashMap::new()`-style initializer.
//! * A method call is attributed to a binding only for the two receiver
//!   shapes that are unambiguous at token level: `name.method(…)` (local)
//!   and `self.name.method(…)` (field). Longer chains (`a.b.iter()`) are
//!   *not* flagged — the middle of a chain can't be resolved without types,
//!   and a false negative is cheaper than teaching the tree to ignore the
//!   linter.
//!
//! Items under `#[cfg(test)]` are excluded by the determinism rules: the
//! byte-identity contract covers shipped code, and tests routinely use hash
//! iteration where order genuinely doesn't matter.

use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::ops::Range;

/// A local or parameter binding, valid only inside its byte span (the
/// enclosing function body), so `tasks: &HashSet<_>` in one function never
/// taints a same-named slice parameter in the next.
#[derive(Debug)]
pub struct LocalBinding {
    /// The bound identifier.
    pub name: String,
    /// Byte range in which a bare `name` receiver resolves to this binding.
    pub span: Range<usize>,
}

/// Identifiers a file binds to `HashMap`/`HashSet`, split by how they are
/// referenced at use sites.
#[derive(Debug, Default)]
pub struct HashBindings {
    /// Struct fields — matched against `self.<name>` receivers, file-wide.
    pub fields: BTreeSet<String>,
    /// Locals and fn params — matched against bare `<name>` receivers
    /// inside their scope span only.
    pub locals: Vec<LocalBinding>,
}

impl HashBindings {
    /// Is there anything to look for at all?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty() && self.locals.is_empty()
    }

    /// Does a bare `name` at byte offset `byte` resolve to a hash binding?
    pub fn local_in_scope(&self, name: &str, byte: usize) -> bool {
        self.locals
            .iter()
            .any(|l| l.name == name && l.span.contains(&byte))
    }
}

fn is_hash_head(name: &str) -> bool {
    name == "HashMap" || name == "HashSet"
}

/// Does the type starting at code index `at` head with `HashMap`/`HashSet`?
///
/// Skips `&`, `mut`, lifetimes and path qualifiers, so
/// `&mut std::collections::HashMap<…>` and `HashSet<…>` both match while
/// `Vec<HashMap<…>>` does not.
fn type_heads_hash(f: &SourceFile, at: usize) -> bool {
    let mut i = at;
    loop {
        match f.code_token(i) {
            Some(t) if t.kind == TokenKind::Punct && f.code_text(i) == "&" => i += 1,
            Some(t) if t.kind == TokenKind::Lifetime => i += 1,
            Some(t) if t.kind == TokenKind::Ident => {
                let text = f.code_text(i);
                if text == "mut" || text == "dyn" {
                    i += 1;
                    continue;
                }
                // Read the path: Ident (:: Ident)*; the last segment before
                // `<` or the end of the path is the head.
                let mut head = text.to_string();
                let mut j = i + 1;
                while f.code_text(j) == ":"
                    && f.code_text(j + 1) == ":"
                    && f.code_token(j + 2)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    head = f.code_text(j + 2).to_string();
                    j += 3;
                }
                return is_hash_head(&head);
            }
            _ => return false,
        }
    }
}

/// Byte spans of every `fn` body in the file (nested fns included), used
/// to scope local bindings to their function.
fn fn_body_spans(f: &SourceFile) -> Vec<Range<usize>> {
    let n = f.code.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        if f.code_text(i) == "fn" && f.code_token(i).map(|t| t.kind) == Some(TokenKind::Ident) {
            // Scan to the body `{` at bracket-depth 0; a `;` first means a
            // bodyless trait method (or an `fn(…)` pointer type ended by the
            // statement) — nothing to scope.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut body_open = None;
            while j < n {
                match f.code_text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body_open {
                let mut k = open;
                let mut braces = 0i32;
                while k < n {
                    match f.code_text(k) {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let start = f.code_token(open).map(|t| t.start).unwrap_or(0);
                let end = f
                    .code_token(k.min(n.saturating_sub(1)))
                    .map(|t| t.end)
                    .unwrap_or(f.text.len());
                out.push(start..end.max(start));
                // Continue *inside* the body so nested fns get spans too.
                i = open;
            } else {
                i = j;
            }
        }
        i += 1;
    }
    out
}

/// End of the innermost fn body containing `byte` (file end when at item
/// level). Properly nested spans make "innermost" the minimum end.
fn innermost_scope_end(spans: &[Range<usize>], byte: usize, file_end: usize) -> usize {
    spans
        .iter()
        .filter(|s| s.contains(&byte))
        .map(|s| s.end)
        .min()
        .unwrap_or(file_end)
}

/// Collects the file's hash-container bindings (fields, locals, params).
pub fn hash_bindings(f: &SourceFile) -> HashBindings {
    let mut out = HashBindings::default();
    let fn_spans = fn_body_spans(f);
    // Brace contexts: `true` for a struct body, so `name: HashMap<…>` at its
    // top level is a field and not a generic bound or match arm.
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_struct = false;
    let n = f.code.len();
    let mut i = 0usize;
    while i < n {
        let text = f.code_text(i);
        let kind = f.code_token(i).map(|t| t.kind);
        match (kind, text) {
            (Some(TokenKind::Ident), "struct") => pending_struct = true,
            (Some(TokenKind::Punct), "{") => {
                stack.push(pending_struct);
                pending_struct = false;
            }
            (Some(TokenKind::Punct), "}") => {
                stack.pop();
            }
            (Some(TokenKind::Punct), ";") if pending_struct => pending_struct = false,
            (Some(TokenKind::Ident), "let") => {
                let mut j = i + 1;
                if f.code_text(j) == "mut" {
                    j += 1;
                }
                if f.code_token(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                    let name = f.code_text(j).to_string();
                    let is_hash = if f.code_text(j + 1) == ":" {
                        type_heads_hash(f, j + 2)
                    } else if f.code_text(j + 1) == "=" {
                        // `let m = HashMap::new()` / `HashSet::with_capacity(…)`.
                        is_hash_head(f.code_text(j + 2)) && f.code_text(j + 3) == ":"
                    } else {
                        false
                    };
                    if is_hash {
                        let start = f.code_token(j).map(|t| t.start).unwrap_or(0);
                        let end = innermost_scope_end(&fn_spans, start, f.text.len());
                        out.locals.push(LocalBinding {
                            name,
                            span: start..end,
                        });
                    }
                }
            }
            (Some(TokenKind::Ident), "fn") => {
                // Find the param list: first `(` at angle-depth 0 (skipping
                // `->` so a return arrow never closes a generic).
                let mut j = i + 1;
                let mut angle = 0i32;
                while j < n {
                    match f.code_text(j) {
                        "<" => angle += 1,
                        ">" => {
                            let arrow = f.code_text(j.wrapping_sub(1)) == "-"
                                && f.code_token(j - 1)
                                    .zip(f.code_token(j))
                                    .is_some_and(|(a, b)| a.end == b.start);
                            if !arrow && angle > 0 {
                                angle -= 1;
                            }
                        }
                        "(" if angle == 0 => break,
                        "{" | ";" => {
                            j = n;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < n {
                    // Scan `name: <type>` pairs at paren-depth 1.
                    let mut params: Vec<String> = Vec::new();
                    let mut depth = 0i32;
                    while j < n {
                        let t = f.code_text(j);
                        match t {
                            "(" | "[" => depth += 1,
                            ")" | "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {
                                if depth == 1
                                    && f.code_token(j).is_some_and(|t| t.kind == TokenKind::Ident)
                                    && f.code_text(j + 1) == ":"
                                    && f.code_text(j + 2) != ":"
                                    && type_heads_hash(f, j + 2)
                                {
                                    params.push(t.to_string());
                                }
                            }
                        }
                        j += 1;
                    }
                    if !params.is_empty() {
                        // Scope the params to this fn's body: the span
                        // opening at the first depth-0 `{` after the params.
                        let mut k = j + 1;
                        let mut d = 0i32;
                        let body = loop {
                            if k >= n {
                                break None;
                            }
                            match f.code_text(k) {
                                "(" | "[" => d += 1,
                                ")" | "]" => d -= 1,
                                "{" if d == 0 => {
                                    break f.code_token(k).and_then(|t| {
                                        fn_spans.iter().find(|s| s.start == t.start)
                                    });
                                }
                                ";" if d == 0 => break None,
                                _ => {}
                            }
                            k += 1;
                        };
                        if let Some(body) = body {
                            for name in params {
                                out.locals.push(LocalBinding {
                                    name,
                                    span: body.clone(),
                                });
                            }
                        }
                    }
                    i = j;
                }
            }
            (Some(TokenKind::Ident), name)
                if stack.last() == Some(&true)
                    && f.code_text(i + 1) == ":"
                    && f.code_text(i + 2) != ":"
                    && name != "pub"
                    && type_heads_hash(f, i + 2) =>
            {
                out.fields.insert(name.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Byte spans of `#[cfg(test)]` items (usually `mod tests { … }`).
pub fn test_spans(f: &SourceFile) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let n = f.code.len();
    let mut i = 0usize;
    while i < n {
        if f.code_text(i) == "#" && f.code_text(i + 1) == "[" && f.code_text(i + 2) == "cfg" {
            let span_start = f.code_token(i).map(|t| t.start).unwrap_or(0);
            // Does the cfg predicate mention `test`?
            let mut j = i + 3;
            let mut depth = 0i32;
            let mut mentions_test = false;
            while j < n {
                match f.code_text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if mentions_test {
                // Skip to the end of this attribute, then over any further
                // attributes, then to the item's `{ … }` or `;`.
                j = skip_to_close_bracket(f, j);
                while f.code_text(j) == "#" && f.code_text(j + 1) == "[" {
                    j = skip_to_close_bracket(f, j + 1);
                }
                let mut depth = 0i32;
                while j < n {
                    match f.code_text(j) {
                        "{" => {
                            depth += 1;
                        }
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let span_end = f
                    .code_token(j.min(n.saturating_sub(1)))
                    .map(|t| t.end)
                    .unwrap_or(f.text.len());
                out.push(span_start..span_end.max(span_start));
                i = j;
            }
        }
        i += 1;
    }
    out
}

/// Advances past the `]` closing the bracket that opens at or after `at`.
fn skip_to_close_bracket(f: &SourceFile, at: usize) -> usize {
    let n = f.code.len();
    let mut j = at;
    let mut depth = 0i32;
    while j < n {
        match f.code_text(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Is the byte offset of `line`-starting token inside any span?
pub fn in_spans(spans: &[Range<usize>], byte: usize) -> bool {
    spans.iter().any(|s| s.contains(&byte))
}

/// How a hash container is iterated at a use site.
#[derive(Debug)]
pub enum SiteKind {
    /// `name.iter()`, `self.name.values()`, … — `after_call` is the code
    /// index one past the call's closing `)`, where a chain may continue.
    Method {
        /// The iterating method (`iter`, `values`, `keys`, `drain`, …).
        method: String,
        /// Code index just past the call's `()`.
        after_call: usize,
    },
    /// `for pat in &name { … }` — `body` is the code-index range of the
    /// loop body (exclusive of the braces).
    ForLoop {
        /// Code-index range of the loop body.
        body: Range<usize>,
    },
}

/// One place a hash container's unordered contents are iterated.
#[derive(Debug)]
pub struct IterSite {
    /// 1-based line of the receiver.
    pub line: u32,
    /// Byte offset (for test-span filtering).
    pub byte: usize,
    /// The container identifier.
    pub name: String,
    /// What kind of iteration.
    pub kind: SiteKind,
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "values",
    "values_mut",
    "into_values",
    "keys",
    "into_keys",
    "drain",
    "into_iter",
];

/// Finds every hash-container iteration site in the file.
pub fn iteration_sites(f: &SourceFile, bindings: &HashBindings) -> Vec<IterSite> {
    let mut out = Vec::new();
    if bindings.is_empty() {
        return out;
    }
    let n = f.code.len();
    for i in 0..n {
        let text = f.code_text(i);
        if f.code_token(i).map(|t| t.kind) != Some(TokenKind::Ident) {
            continue;
        }
        if ITER_METHODS.contains(&text) && f.code_text(i + 1) == "(" {
            // `<recv> . method (` — resolve the receiver.
            if i < 2 || f.code_text(i - 1) != "." {
                continue;
            }
            let Some((name, byte, line)) = resolve_receiver(f, bindings, i - 2) else {
                continue;
            };
            // Find the call's closing paren.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < n {
                match f.code_text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push(IterSite {
                line,
                byte,
                name,
                kind: SiteKind::Method {
                    method: text.to_string(),
                    after_call: j + 1,
                },
            });
        } else if text == "for" && f.code_text(i + 1) != "<" {
            // `for <pat> in <expr> {` — but not `impl Trait for Type` (no
            // `in` before the `{`) and not `for<'a>` bounds.
            let Some(site) = for_loop_site(f, bindings, i) else {
                continue;
            };
            out.push(site);
        }
    }
    out
}

/// Resolves the receiver ending at code index `end` (the token before the
/// `.`): `name` (local) or `self.name` (field). Longer chains return `None`.
fn resolve_receiver(
    f: &SourceFile,
    bindings: &HashBindings,
    end: usize,
) -> Option<(String, usize, u32)> {
    let t = f.code_token(end)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    let name = f.code_text(end);
    let prev = if end >= 1 { f.code_text(end - 1) } else { "" };
    if prev == "." {
        // `<something>.name.` — only `self.name.` is resolvable.
        let head = if end >= 2 { f.code_text(end - 2) } else { "" };
        let before_head = if end >= 3 { f.code_text(end - 3) } else { "" };
        if head == "self" && before_head != "." && bindings.fields.contains(name) {
            return Some((name.to_string(), t.start, t.line));
        }
        None
    } else if bindings.local_in_scope(name, t.start) {
        Some((name.to_string(), t.start, t.line))
    } else {
        None
    }
}

/// Matches a `for … in <hash> { … }` loop starting at the `for` keyword.
fn for_loop_site(f: &SourceFile, bindings: &HashBindings, at: usize) -> Option<IterSite> {
    let n = f.code.len();
    // Find `in` at bracket-depth 0 before any depth-0 `{`.
    let mut j = at + 1;
    let mut depth = 0i32;
    let in_at = loop {
        if j >= n {
            return None;
        }
        match f.code_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return None, // `impl … for … {`
            ";" if depth == 0 => return None,
            "in" if depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    // The iterated expression: tokens between `in` and the body `{`.
    let mut j = in_at + 1;
    let expr_start = j;
    let mut depth = 0i32;
    let body_open = loop {
        if j >= n {
            return None;
        }
        match f.code_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break j,
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    // Match: [&] [mut] (self . name | name), nothing else before the `{`.
    let mut k = expr_start;
    while f.code_text(k) == "&" || f.code_text(k) == "mut" {
        k += 1;
    }
    let (name, name_tok) = if f.code_text(k) == "self" && f.code_text(k + 1) == "." {
        let name = f.code_text(k + 2);
        if !bindings.fields.contains(name) {
            return None;
        }
        (name.to_string(), f.code_token(k + 2)?)
    } else {
        let name = f.code_text(k);
        let tok = f.code_token(k)?;
        if !bindings.local_in_scope(name, tok.start) {
            return None;
        }
        (name.to_string(), tok)
    };
    // A trailing `.method()` chain is handled by the method-site matcher;
    // only a bare container between `in` and `{` counts here.
    let expr_end = if f.code_text(k) == "self" {
        k + 3
    } else {
        k + 1
    };
    if expr_end != body_open {
        return None;
    }
    // Body range: to the matching `}`.
    let mut j = body_open;
    let mut depth = 0i32;
    while j < n {
        match f.code_text(j) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some(IterSite {
        line: name_tok.line,
        byte: name_tok.start,
        name,
        kind: SiteKind::ForLoop {
            body: body_open + 1..j,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(text: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("x.rs"), "x.rs".into(), text.to_string())
    }

    #[test]
    fn binds_fields_lets_and_params() {
        let f = file(
            "struct S { committed: HashMap<u32, u32>, other: Vec<HashMap<u32, u32>> }\n\
             fn go(seen: &HashSet<u32>, v: &[u32]) {\n\
                 let mut groups: std::collections::HashMap<u32, u32> = HashMap::new();\n\
                 let direct = HashSet::new();\n\
             }\n",
        );
        let b = hash_bindings(&f);
        let has = |name: &str| b.locals.iter().any(|l| l.name == name);
        assert!(b.fields.contains("committed"));
        assert!(
            !b.fields.contains("other"),
            "Vec<HashMap> is not a hash head"
        );
        assert!(has("seen"));
        assert!(!has("v"));
        assert!(has("groups"));
        assert!(has("direct"));
        // Params and lets are in scope inside the body…
        let in_body = f.text.find("HashSet::new").unwrap();
        assert!(b.local_in_scope("seen", in_body));
        assert!(b.local_in_scope("groups", in_body));
        // …and out of scope outside it.
        assert!(!b.local_in_scope("seen", 0));
        assert!(!b.local_in_scope("groups", 0));
    }

    #[test]
    fn locals_are_scoped_per_function() {
        // `tasks` is a HashSet param in one fn and a plain slice in the
        // next — iterating the slice must not fire.
        let f = file(
            "fn a(tasks: &HashSet<u32>) {\n\
                 for t in tasks { }\n\
             }\n\
             fn b(tasks: &[u32]) {\n\
                 for t in tasks { }\n\
                 for t in tasks.iter() { }\n\
             }\n",
        );
        let b = hash_bindings(&f);
        let sites = iteration_sites(&f, &b);
        let lines: Vec<u32> = sites.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![2], "only the HashSet loop fires: {sites:?}");
    }

    #[test]
    fn finds_method_and_for_sites() {
        let f = file(
            "struct S { m: HashMap<u32, u32> }\n\
             impl S {\n\
                 fn f(&self, local: HashSet<u32>) {\n\
                     for v in self.m.values() { }\n\
                     for x in &local { }\n\
                     let other = vec![1];\n\
                     for x in &other { }\n\
                 }\n\
             }\n",
        );
        let b = hash_bindings(&f);
        let sites = iteration_sites(&f, &b);
        let lines: Vec<u32> = sites.iter().map(|s| s.line).collect();
        assert!(lines.contains(&4), "self.m.values() site: {sites:?}");
        assert!(lines.contains(&5), "for over &local: {sites:?}");
        assert_eq!(sites.len(), 2, "vec iteration must not fire: {sites:?}");
    }

    #[test]
    fn chains_are_not_resolved() {
        let f = file(
            "struct S { m: HashMap<u32, u32> }\n\
             fn f(s: &Wrapper) { for v in s.inner.m.iter() { } s.cells[0].m.keys(); }\n",
        );
        let b = hash_bindings(&f);
        assert!(iteration_sites(&f, &b).is_empty());
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let f = file(
            "struct S { m: HashMap<u32, u32> }\nimpl Iterator for m { fn next(&mut self) {} }\n",
        );
        let b = hash_bindings(&f);
        // `m` is a field binding, not a local, so `impl … for m {` can't
        // even match — but the guard must also not panic or mis-span.
        assert!(iteration_sites(&f, &b).is_empty());
    }

    #[test]
    fn test_spans_cover_mod_tests() {
        let f = file(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn inner() {}\n\
             }\n\
             fn after() {}\n",
        );
        let spans = test_spans(&f);
        assert_eq!(spans.len(), 1);
        let inner_at = f.text.find("inner").unwrap();
        let after_at = f.text.find("after").unwrap();
        assert!(in_spans(&spans, inner_at));
        assert!(!in_spans(&spans, after_at));
    }
}
