//! Diagnostics: rule identifiers, severities, and rendering.

use incprof_obs::JsonWriter;
use std::fmt;

/// The named project rules. See `docs/LINTS.md` for the full catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock hygiene: `Instant::now` / `SystemTime` only in the
    /// clock abstraction, the wall collector, obs wall spans, and
    /// bench/harness code.
    D01,
    /// Deterministic iteration: no `HashMap`/`HashSet` in the analysis
    /// crates whose iteration order can reach serialized output.
    D02,
    /// Thread hygiene: `std::thread::{spawn,scope}` only in
    /// `incprof-par` and the collector.
    D03,
    /// Chunked float reductions: no raw `.sum()` in parallel-adjacent
    /// analysis code that bypasses `incprof_par::par_reduce_chunks`.
    D04,
    /// Metric-name registry: obs metric/span names must come from
    /// `incprof_obs::names`, never string literals at the call site.
    O01,
    /// Panic hygiene: no `.unwrap()` / `.expect()` in library crates
    /// outside tests without a justified allow marker.
    P01,
    /// Panic reachability: no `panic!`-family macro in library code
    /// that is public API or confidently reachable from one.
    P02,
    /// Blocking in workers: no lock/IO/sleep confidently reachable
    /// from the configured hot-path roots (`D05_ROOTS`).
    D05,
    /// Allocation in hot paths: no Vec/Box/String constructors
    /// confidently reachable from the per-snapshot ingest roots
    /// (`A01_ROOTS`), outside the setup allowlist.
    A01,
    /// Meta: malformed suppression marker (unknown rule, missing
    /// reason). Not suppressible.
    L00,
    /// Meta: a suppression marker that matched no diagnostic (stale
    /// after a refactor). Not suppressible.
    L01,
}

impl RuleId {
    /// All rules, in catalog order.
    pub const ALL: &'static [RuleId] = &[
        RuleId::D01,
        RuleId::D02,
        RuleId::D03,
        RuleId::D04,
        RuleId::O01,
        RuleId::P01,
        RuleId::P02,
        RuleId::D05,
        RuleId::A01,
        RuleId::L00,
        RuleId::L01,
    ];

    /// The rule's catalog identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D01 => "D01",
            RuleId::D02 => "D02",
            RuleId::D03 => "D03",
            RuleId::D04 => "D04",
            RuleId::O01 => "O01",
            RuleId::P01 => "P01",
            RuleId::P02 => "P02",
            RuleId::D05 => "D05",
            RuleId::A01 => "A01",
            RuleId::L00 => "L00",
            RuleId::L01 => "L01",
        }
    }

    /// Parse a catalog identifier (case-sensitive, as documented).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.as_str() == s)
    }

    /// One-line summary, used in `--list-rules` output.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D01 => {
                "wall-clock hygiene: Instant::now/SystemTime outside the clock allowlist"
            }
            RuleId::D02 => "deterministic iteration: HashMap/HashSet banned in analysis crates",
            RuleId::D03 => "thread hygiene: threads spawned outside incprof-par/the collector",
            RuleId::D04 => {
                "chunked float reductions: raw .sum() in parallel-adjacent analysis code"
            }
            RuleId::O01 => "metric-name registry: literal obs names instead of incprof_obs::names",
            RuleId::P01 => {
                "panic hygiene: unwrap/expect in library code without a justified marker"
            }
            RuleId::P02 => "panic reachability: panic! macro reachable from a public library API",
            RuleId::D05 => "blocking in workers: lock/IO/sleep reachable from a hot-path root",
            RuleId::A01 => "alloc in hot path: allocation constructor reachable from ingest roots",
            RuleId::L00 => "malformed lint suppression marker",
            RuleId::L01 => "stale lint suppression (matched no diagnostic)",
        }
    }

    /// Whether a `// lint: allow(...)` marker may silence this rule.
    pub fn suppressible(self) -> bool {
        !matches!(self, RuleId::L00 | RuleId::L01)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How seriously a finding is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled; no diagnostics produced.
    Allow,
    /// Reported; fails the run only under `--deny-warnings`.
    Warn,
    /// Reported; always fails the run.
    Error,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: a rule violated at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity it was configured at when it fired.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What went wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl Diagnostic {
    /// Render as `file:line: severity[RULE] message` plus the excerpt.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: {}[{}] {}\n    | {}",
            self.file,
            self.line,
            self.severity.as_str(),
            self.rule,
            self.message,
            self.excerpt
        )
    }

    /// Render as one compact JSON object.
    pub fn render_json(&self) -> String {
        JsonWriter::object(|w| {
            w.field("rule", self.rule.as_str())
                .field("severity", self.severity.as_str())
                .field("file", &self.file)
                .field("line", self.line)
                .field("message", &self.message)
                .field("excerpt", &self.excerpt)
        })
    }
}

/// The body of a golden-pinned JSON array: one compact `row` per line,
/// indented four spaces, to close with `\n  ]` (so `[]` is `[\n  ]`).
pub(crate) fn json_rows(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|r| format!("\n    {r}")).collect();
    rows.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for &r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("D99"), None);
        assert_eq!(RuleId::parse("p01"), None, "identifiers are case-sensitive");
    }

    #[test]
    fn meta_rules_are_not_suppressible() {
        assert!(!RuleId::L00.suppressible());
        assert!(!RuleId::L01.suppressible());
        assert!(RuleId::P01.suppressible());
    }
}
