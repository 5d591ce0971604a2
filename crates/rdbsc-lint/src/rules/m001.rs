//! M001 — crate roots must carry `#![deny(missing_docs)]`.
//!
//! Every public item in this workspace is documented; the attribute is what
//! keeps that true as crates grow. The rule checks each crate root
//! (`src/lib.rs` of every member) for an inner `deny` attribute naming
//! `missing_docs`.

use crate::rules::Finding;
use crate::source::SourceFile;

/// Is this file a crate root the rule applies to?
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Runs M001 on one file (the caller scopes it to crate roots).
pub fn check(f: &SourceFile) -> Vec<Finding> {
    // Look for `# ! [ … deny ( … missing_docs … ) … ]` anywhere.
    let n = f.code.len();
    for i in 0..n {
        if f.code_text(i) != "#" || f.code_text(i + 1) != "!" || f.code_text(i + 2) != "[" {
            continue;
        }
        let mut j = i + 3;
        let mut depth = 1i32; // the `[`
        let mut saw_deny = false;
        while j < n && depth > 0 {
            match f.code_text(j) {
                "[" => depth += 1,
                "]" => depth -= 1,
                "deny" => saw_deny = true,
                "missing_docs" if saw_deny => return Vec::new(),
                _ => {}
            }
            j += 1;
        }
    }
    vec![Finding {
        file: f.rel.clone(),
        line: 1,
        rule: "M001",
        message: "crate root lacks `#![deny(missing_docs)]` — every public \
                  item in this workspace is documented, and the attribute is \
                  what keeps that true"
            .to_string(),
    }]
}
