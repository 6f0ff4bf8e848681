//! Rule severities and the documented scope/allowlist tables.
//!
//! Scopes are part of each rule's *definition*: D01 is not "no wall
//! clocks anywhere" but "no wall clocks outside the places whose job is
//! wall time". The tables below are therefore deliberate, reviewed
//! configuration — changing them is changing project policy, and the
//! rationale for every entry lives in `docs/LINTS.md`.

use crate::diag::{RuleId, Severity};
use std::collections::BTreeMap;

/// Directories (workspace-relative prefixes) never scanned: vendored
/// dependency shims are third-party API surface, not project code, and
/// build output is not source.
pub const SKIP_PREFIXES: &[&str] = &["shims/", "target/", ".git/"];

/// Crates whose entire source is measurement harness (figure
/// generators, speedup drivers). Exempt from all rules: they are the
/// code that *measures* wall time and prints ad-hoc output.
pub const HARNESS_CRATES: &[&str] = &["bench"];

/// D02: analysis crates whose container iteration can reach serialized
/// output (reports, JSON dumps, rendered tables).
pub const D02_CRATES: &[&str] = &["profile", "cluster", "core", "collect"];

/// D04: crates whose float reductions must go through
/// `incprof_par::par_reduce_chunks` (only files that reference
/// `incprof_par` are in scope — code nowhere near the pool has no
/// chunk-boundary obligation).
pub const D04_CRATES: &[&str] = &["profile", "cluster", "core", "collect", "apps"];

/// P01: library crates held to panic hygiene. Binaries (`cli`), the
/// harness crates, and the simulation substrate (`appekg`, `mpisim`,
/// `apps`) are excluded: their unwraps terminate a tool, not a library
/// caller.
pub const P01_CRATES: &[&str] = &[
    "profile", "cluster", "core", "collect", "runtime", "obs", "par", "lint", "serve", "shard",
    "store",
];

/// O01: crates exempt from the literal-name ban. Only `obs` itself,
/// where the `names` module and the registry internals legitimately
/// spell names out.
pub const O01_EXEMPT_CRATES: &[&str] = &["obs"];

/// D05: hot-path roots (qualified fn names) from which no blocking call
/// may be confidently reachable. `Session::drain_traced` is the serve
/// worker drain (one call per queued snapshot under session lock), and
/// `OnlinePhaseDetector::observe` is the per-interval streaming update
/// both the daemon and the CLI sit on. The `par` pool task bodies are
/// closures — invisible to the item parser — so `Pool::map_chunks`,
/// the execution funnel every pool primitive drains through, stands in
/// for them.
pub const D05_ROOTS: &[&str] = &[
    "Session::drain_traced",
    "OnlinePhaseDetector::observe",
    "Pool::map_chunks",
];

/// A01: per-snapshot ingest roots from which allocation constructors
/// are flagged (Warn: allocation in a hot loop is a cost smell, not a
/// correctness bug). Setup/recovery paths go in `a01_allow`.
pub const A01_ROOTS: &[&str] = &[
    "Session::enqueue",
    "Session::drain_traced",
    "OnlinePhaseDetector::observe",
];

/// Identifier called with a name argument that O01 watches.
pub const O01_CALLEES: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "span",
    "find_span",
    "enter_traced",
];

/// Per-rule severity and scope configuration.
///
/// The D01/D03 allowlists are *data*, not code: callers (and future
/// config files) extend them per deployment, and each default entry is
/// documented where it is declared. An entry matches a file when it
/// equals the workspace-relative path or is a `/`-terminated prefix of
/// it.
#[derive(Debug, Clone)]
pub struct Config {
    severities: BTreeMap<RuleId, Severity>,
    /// Promote warnings to errors for exit-code purposes.
    pub deny_warnings: bool,
    /// D01: files (or `/`-terminated path prefixes) allowed to read the
    /// wall clock directly.
    pub d01_allow: Vec<String>,
    /// D03: files (or `/`-terminated path prefixes) allowed to create
    /// threads.
    pub d03_allow: Vec<String>,
    /// A01: files (or `/`-terminated path prefixes) whose allocations
    /// are setup/recovery work even when reachable from ingest roots.
    pub a01_allow: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let mut severities = BTreeMap::new();
        for &r in RuleId::ALL {
            // D04 flags a heuristic pattern (raw .sum() near the pool),
            // A01 flags allocation *cost* rather than a correctness
            // bug, and L01 flags stale markers; all default to Warn.
            // The invariant rules are errors outright.
            let sev = match r {
                RuleId::D04 | RuleId::A01 | RuleId::L01 => Severity::Warn,
                _ => Severity::Error,
            };
            severities.insert(r, sev);
        }
        let d01_allow = [
            // The clock abstraction itself: the one sanctioned Instant::now.
            "crates/runtime/src/clock.rs",
            // The wall collector ticks on real deadlines by definition.
            "crates/collect/src/collector.rs",
            // Obs spans over TimeSource::Wall.
            "crates/obs/src/span.rs",
            // The app harness stamps wall progress for operator output.
            "crates/apps/src/harness.rs",
            // The daemon's data-plane handler stamps frame arrival for
            // ingest-latency metrics and idle-age eviction.
            "crates/serve/src/server.rs",
            // The admin plane stamps scrape time for idle-age gauges; it
            // is read-only and never feeds the analysis pipeline.
            "crates/serve/src/admin.rs",
        ]
        .map(String::from)
        .to_vec();
        let d03_allow = [
            // The deterministic worker pool is the sanctioned spawner.
            "crates/par/",
            // The wall collector owns its tick thread.
            "crates/collect/src/collector.rs",
            // The wall profiler's 1 ms ticker, gprof's sampling clock.
            "crates/runtime/src/clock.rs",
            // The connection plane: the one acceptor + fixed connection
            // thread set every daemon and router socket runs on.
            "crates/serve/src/plane.rs",
        ]
        .map(String::from)
        .to_vec();
        let a01_allow = [
            // Rehydration from the store is recovery, not steady state.
            "crates/store/",
        ]
        .map(String::from)
        .to_vec();
        Config {
            severities,
            deny_warnings: false,
            d01_allow,
            d03_allow,
            a01_allow,
        }
    }
}

impl Config {
    /// The configured severity for `rule`.
    pub fn severity(&self, rule: RuleId) -> Severity {
        self.severities
            .get(&rule)
            .copied()
            .unwrap_or(Severity::Error)
    }

    /// Set the severity for `rule`.
    pub fn set_severity(&mut self, rule: RuleId, sev: Severity) {
        self.severities.insert(rule, sev);
    }

    /// Builder-style `deny_warnings` toggle.
    pub fn deny_warnings(mut self) -> Self {
        self.deny_warnings = true;
        self
    }

    /// The severity a diagnostic of `rule` is *reported* at, after the
    /// `deny_warnings` promotion.
    pub fn effective_severity(&self, rule: RuleId) -> Severity {
        match self.severity(rule) {
            Severity::Warn if self.deny_warnings => Severity::Error,
            s => s,
        }
    }

    /// Whether `rel_path` may read the wall clock (D01 scope).
    pub fn d01_allows(&self, rel_path: &str) -> bool {
        scope_match(&self.d01_allow, rel_path)
    }

    /// Whether `rel_path` may create threads (D03 scope).
    pub fn d03_allows(&self, rel_path: &str) -> bool {
        scope_match(&self.d03_allow, rel_path)
    }

    /// Whether allocations in `rel_path` are exempt from A01 (setup
    /// or recovery scope).
    pub fn a01_allows(&self, rel_path: &str) -> bool {
        scope_match(&self.a01_allow, rel_path)
    }
}

/// An entry matches on exact path, or as a prefix when `/`-terminated.
fn scope_match(scopes: &[String], rel_path: &str) -> bool {
    scopes
        .iter()
        .any(|p| rel_path == p.as_str() || (p.ends_with('/') && rel_path.starts_with(p.as_str())))
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`),
/// or `None` for the umbrella package's own `src/` and `tests/`.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Whether the whole file is test or bench code by location.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/") || rel_path.contains("/benches/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_severities() {
        let c = Config::default();
        assert_eq!(c.severity(RuleId::P01), Severity::Error);
        assert_eq!(c.severity(RuleId::D04), Severity::Warn);
        assert_eq!(c.effective_severity(RuleId::D04), Severity::Warn);
        assert_eq!(
            c.deny_warnings().effective_severity(RuleId::D04),
            Severity::Error
        );
    }

    #[test]
    fn scopes_are_config_data() {
        let c = Config::default();
        // Exact-path entries.
        assert!(c.d01_allows("crates/runtime/src/clock.rs"));
        assert!(c.d01_allows("crates/serve/src/server.rs"));
        assert!(c.d01_allows("crates/serve/src/admin.rs"));
        assert!(!c.d01_allows("crates/serve/src/plane.rs"));
        // The router's reply deadline is its backend links' socket
        // timeout (`serve::Client`); it reads no clock.
        assert!(!c.d01_allows("crates/shard/src/router.rs"));
        assert!(!c.d01_allows("crates/shard/src/ring.rs"));
        assert!(!c.d01_allows("crates/serve/src/session.rs"));
        assert!(!c.d01_allows("crates/core/src/pipeline.rs"));
        // `/`-terminated entries are prefixes; others are not.
        assert!(c.d03_allows("crates/par/src/pool.rs"));
        assert!(c.d03_allows("crates/serve/src/plane.rs"));
        assert!(c.d03_allows("crates/runtime/src/clock.rs"));
        assert!(!c.d03_allows("crates/runtime/src/profiler.rs"));
        // Sockets spawn threads in the plane only: the daemon and the
        // router are handlers, not servers.
        assert!(!c.d03_allows("crates/serve/src/server.rs"));
        assert!(!c.d03_allows("crates/shard/src/router.rs"));
        assert!(!c.d03_allows("crates/serve/src/client.rs"));
        assert!(!c.d03_allows("crates/collect/src/collector_helper.rs"));
        // A caller can extend the scope without touching rule code.
        let mut c = c;
        c.d03_allow.push("crates/experimental/".to_string());
        assert!(c.d03_allows("crates/experimental/src/x.rs"));
    }

    #[test]
    fn crate_and_test_classification() {
        assert_eq!(crate_of("crates/core/src/pipeline.rs"), Some("core"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert!(is_test_path("tests/sca_gate.rs"));
        assert!(is_test_path("crates/obs/tests/obs_integration.rs"));
        assert!(is_test_path("perfbench/benches/perf/main.rs"));
        assert!(!is_test_path("crates/obs/src/span.rs"));
    }
}
