//! `incprof-lint`: a workspace-aware static-analysis pass enforcing
//! IncProf's determinism, clock, and panic invariants.
//!
//! The reproduction's core claims — identical inputs produce identical
//! phase reports, virtual time drives everything except the sanctioned
//! wall collector, and library crates never panic on caller data — are
//! easy to state and easy to erode one commit at a time. This crate
//! turns them into named, machine-checked rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D01  | wall-clock hygiene: `Instant::now`/`SystemTime` only in the clock allowlist |
//! | D02  | deterministic iteration: no `HashMap`/`HashSet` in analysis crates |
//! | D03  | thread hygiene: threads only in `incprof-par` and the collector |
//! | D04  | chunked float reductions: no raw `.sum()` bypassing `par_reduce_chunks` |
//! | O01  | obs names come from `incprof_obs::names`, not call-site literals |
//! | P01  | no `unwrap`/`expect` in library code without a justified marker |
//! | P02  | no panic macro reachable from a public library API |
//! | D05  | no blocking call reachable from worker/drain hot paths |
//! | A01  | no allocation constructors reachable from per-snapshot ingest |
//! | L00  | malformed suppression marker (meta, unsuppressible) |
//! | L01  | stale suppression marker (meta, unsuppressible) |
//!
//! Analysis is multi-pass: [`lexer`] produces a token stream that
//! distinguishes identifiers, strings, chars, lifetimes, and
//! punctuation (so `"Instant::now"` inside a string or a comment never
//! fires), [`source`] layers `#[cfg(test)]` region detection and
//! suppression-marker parsing on top, and [`rules`] pattern-matches the
//! stream for the per-file rules. On top of that, [`parse`] recovers
//! the item skeleton (fn/impl/trait/mod/use, bodies as token slices),
//! [`symbols`] resolves names per crate, [`callgraph`] links call sites
//! into a workspace call graph with confident/ambiguous edge labels,
//! and [`dataflow`] computes reachability over the confident edges —
//! powering the graph rules (P02/D05/A01).
//! Findings can be silenced per line with
//! `// lint: allow(RULE, reason)` (several rules may share one marker:
//! `// lint: allow(P01, D04, reason)`) — the reason is mandatory, and
//! stale markers are themselves reported (L01) so suppressions cannot
//! outlive the code they excused.
//!
//! The pass runs three ways: as the `incprof lint` CLI subcommand, as
//! the tier-1 `tests/sca_gate.rs` test, and as the `sca` step in
//! `scripts/check.sh` / CI. See `docs/LINTS.md`
//! for the full rule catalog and the rationale behind every scope
//! table entry.

#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod source;
pub mod symbols;

pub use callgraph::StaticCallGraph;
pub use config::Config;
pub use diag::{Diagnostic, RuleId, Severity};
pub use engine::{
    find_workspace_root, lint_files, lint_source, lint_source_counted, lint_workspace_analyzed,
    LintReport, WorkspaceAnalysis,
};
