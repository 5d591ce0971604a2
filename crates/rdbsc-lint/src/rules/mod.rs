//! The rule set: each rule is a pure function from lexed source to
//! [`Finding`]s, so golden tests can drive any rule on a fixture file
//! without touching the workspace walker.
//!
//! | Rule | Guards against |
//! |------|----------------|
//! | D001 | `HashMap`/`HashSet` iteration on deterministic paths |
//! | D002 | wall-clock / thread-id reads in engine, solver, WAL code |
//! | D003 | float accumulation over unordered containers |
//! | F001 | re-rolled FNV-1a constants outside `rdbsc-obs::digest` |
//! | M001 | crate roots without `#![deny(missing_docs)]` |
//! | S001 | suppressions without a reason, or naming unknown rules |
//!
//! Every D/F rule skips `#[cfg(test)]` items: the determinism contract is
//! about shipped code, and tests legitimately iterate hash maps where order
//! cannot escape.

pub mod d001;
pub mod d002;
pub mod d003;
pub mod f001;
pub mod m001;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D001`, …).
    pub rule: &'static str,
    /// Human explanation, specific to the site.
    pub message: String,
}

impl Finding {
    /// Renders the canonical `file:line: RULE message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Static description of a rule, for `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Rule id for suppression-hygiene findings (emitted by the engine).
pub const S001: &str = "S001";

/// Every rule the analyzer knows, in report order.
pub const ALL_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "HashMap/HashSet iteration in deterministic-path code \
                  (hash order differs across processes; sort or use BTreeMap)",
    },
    RuleInfo {
        id: "D002",
        summary: "Instant::now/SystemTime::now/thread id in engine, solver \
                  or WAL code (time must enter through the tick)",
    },
    RuleInfo {
        id: "D003",
        summary: "float accumulation (+=, .sum(), fold) over an unordered \
                  container (float addition is order-sensitive)",
    },
    RuleInfo {
        id: "F001",
        summary: "re-rolled FNV-1a constants — use rdbsc_obs::digest \
                  instead of copy-pasting the fold",
    },
    RuleInfo {
        id: "M001",
        summary: "crate root missing #![deny(missing_docs)]",
    },
    RuleInfo {
        id: S001,
        summary: "lint:allow(...) without a reason, or naming an unknown rule",
    },
];

/// Is `id` a known rule id?
pub fn is_known_rule(id: &str) -> bool {
    ALL_RULES.iter().any(|r| r.id == id)
}
