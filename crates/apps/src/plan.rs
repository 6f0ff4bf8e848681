//! Heartbeat instrumentation plans.
//!
//! The paper instruments each application twice: once with manually chosen
//! "best" sites, once with the sites discovered by phase analysis (§VI).
//! A [`HeartbeatPlan`] captures such a set of ⟨function, type⟩ sites; the
//! app harness resolves it against an [`appekg::AppEkg`] instance so the
//! app code can cheaply ask "does this function have a body/loop
//! heartbeat?" at its hook points.

use appekg::{AppEkg, HeartbeatGuard, HeartbeatId};
use incprof_core::report::ManualSite;
use incprof_core::types::InstrumentationType;
use incprof_core::PhaseAnalysis;
use incprof_profile::FunctionTable;
use std::collections::{BTreeMap, BTreeSet};

/// A set of heartbeat instrumentation sites keyed by function name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeartbeatPlan {
    sites: BTreeMap<String, BTreeSet<InstrumentationType>>,
}

impl HeartbeatPlan {
    /// The empty plan: no heartbeats (profiling-only runs and baselines).
    pub fn none() -> HeartbeatPlan {
        Self::default()
    }

    /// Build a plan from the paper's manual site lists.
    pub fn from_manual(sites: &[ManualSite]) -> HeartbeatPlan {
        let mut plan = HeartbeatPlan::default();
        for s in sites {
            plan.add(&s.function, s.inst_type);
        }
        plan
    }

    /// Build a plan from a phase analysis: every discovered site becomes a
    /// heartbeat (the paper's "instrumented the sites chosen by our phase
    /// discovery methodology").
    pub fn from_analysis(analysis: &PhaseAnalysis, table: &FunctionTable) -> HeartbeatPlan {
        let mut plan = HeartbeatPlan::default();
        for phase in &analysis.phases {
            for site in &phase.sites {
                plan.add(table.name(site.function), site.inst_type);
            }
        }
        plan
    }

    /// Add one site.
    pub fn add(&mut self, name: &str, t: InstrumentationType) {
        self.sites.entry(name.to_string()).or_default().insert(t);
    }

    /// Whether the plan has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of ⟨function, type⟩ sites.
    pub fn len(&self) -> usize {
        self.sites.values().map(BTreeSet::len).sum()
    }

    /// Whether `name` has a site of type `t`.
    pub fn contains(&self, name: &str, t: InstrumentationType) -> bool {
        self.sites.get(name).is_some_and(|s| s.contains(&t))
    }

    /// Iterate `(name, type)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, InstrumentationType)> {
        self.sites
            .iter()
            .flat_map(|(n, ts)| ts.iter().map(move |&t| (n.as_str(), t)))
    }

    /// Resolve against an AppEKG instance, registering one heartbeat per
    /// site. Heartbeat names are `"<function>"` for body sites and
    /// `"<function>[loop]"` for loop sites, so both variants of one
    /// function remain distinguishable in the output.
    pub fn resolve(&self, ekg: &AppEkg) -> ResolvedPlan {
        let mut body = BTreeMap::new();
        let mut loops = BTreeMap::new();
        for (name, t) in self.iter() {
            match t {
                InstrumentationType::Body => {
                    body.insert(name.to_string(), ekg.register_heartbeat(name));
                }
                InstrumentationType::Loop => {
                    loops.insert(
                        name.to_string(),
                        ekg.register_heartbeat(format!("{name}[loop]")),
                    );
                }
            }
        }
        ResolvedPlan { body, loops }
    }
}

/// A plan resolved to heartbeat ids (per-run, per-AppEKG).
#[derive(Debug, Clone, Default)]
pub struct ResolvedPlan {
    body: BTreeMap<String, HeartbeatId>,
    loops: BTreeMap<String, HeartbeatId>,
}

impl ResolvedPlan {
    /// Body-site heartbeat id for `name`, if planned.
    pub fn body(&self, name: &str) -> Option<HeartbeatId> {
        self.body.get(name).copied()
    }

    /// Loop-site heartbeat id for `name`, if planned.
    pub fn loop_site(&self, name: &str) -> Option<HeartbeatId> {
        self.loops.get(name).copied()
    }

    /// Begin a body heartbeat scope for `name` if planned (hook used at
    /// function entry; ends at scope exit).
    pub fn body_scope<'a>(&self, ekg: &'a AppEkg, name: &str) -> Option<HeartbeatGuard<'a>> {
        self.body(name).map(|hb| ekg.scope(hb))
    }

    /// Begin a loop-iteration heartbeat scope for `name` if planned (hook
    /// used inside the function's main loop).
    pub fn loop_scope<'a>(&self, ekg: &'a AppEkg, name: &str) -> Option<HeartbeatGuard<'a>> {
        self.loop_site(name).map(|hb| ekg.scope(hb))
    }
}

/// Helper for tests and tables: find the discovered site functions of an
/// analysis as a name set.
pub fn discovered_site_names(analysis: &PhaseAnalysis, table: &FunctionTable) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for p in &analysis.phases {
        for s in &p.sites {
            out.insert(table.name(s.function).to_string());
        }
    }
    out
}

/// Helper: the discovered ⟨function name, type⟩ pairs of an analysis.
pub fn discovered_sites(
    analysis: &PhaseAnalysis,
    table: &FunctionTable,
) -> BTreeSet<(String, InstrumentationType)> {
    let mut out = BTreeSet::new();
    for p in &analysis.phases {
        for s in &p.sites {
            out.insert((table.name(s.function).to_string(), s.inst_type));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_runtime::Clock;

    #[test]
    fn build_and_query_plan() {
        let plan = HeartbeatPlan::from_manual(&[
            ManualSite::new("run_bfs", InstrumentationType::Body),
            ManualSite::new("run_bfs", InstrumentationType::Loop),
            ManualSite::new("validate_bfs_result", InstrumentationType::Loop),
        ]);
        assert_eq!(plan.len(), 3);
        assert!(plan.contains("run_bfs", InstrumentationType::Body));
        assert!(plan.contains("run_bfs", InstrumentationType::Loop));
        assert!(!plan.contains("validate_bfs_result", InstrumentationType::Body));
        assert!(!plan.contains("missing", InstrumentationType::Body));
    }

    #[test]
    fn none_plan_is_empty() {
        assert!(HeartbeatPlan::none().is_empty());
        assert_eq!(HeartbeatPlan::none().len(), 0);
    }

    #[test]
    fn resolve_registers_distinct_ids() {
        let ekg = AppEkg::new(Clock::virtual_clock(), 1_000);
        let plan = HeartbeatPlan::from_manual(&[
            ManualSite::new("f", InstrumentationType::Body),
            ManualSite::new("f", InstrumentationType::Loop),
        ]);
        let resolved = plan.resolve(&ekg);
        let b = resolved.body("f").unwrap();
        let l = resolved.loop_site("f").unwrap();
        assert_ne!(b, l);
        assert_eq!(ekg.heartbeat_name(b), "f");
        assert_eq!(ekg.heartbeat_name(l), "f[loop]");
    }

    #[test]
    fn scopes_record_only_planned_sites() {
        let clock = Clock::virtual_clock();
        let ekg = AppEkg::new(clock.clone(), 1_000);
        let plan = HeartbeatPlan::from_manual(&[ManualSite::new("a", InstrumentationType::Body)]);
        let resolved = plan.resolve(&ekg);
        {
            let _g = resolved.body_scope(&ekg, "a");
            let none = resolved.body_scope(&ekg, "b");
            assert!(none.is_none());
            clock.advance(5);
        }
        let recs = ekg.finish();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn from_manual_mirrors_site_list() {
        let manual = [
            ManualSite::new("cg_solve", InstrumentationType::Loop),
            ManualSite::new("init_matrix", InstrumentationType::Loop),
        ];
        let plan = HeartbeatPlan::from_manual(&manual);
        assert!(plan.contains("cg_solve", InstrumentationType::Loop));
        assert_eq!(plan.len(), 2);
    }
}
