//! The gprof *call graph* profile: caller→callee arcs.
//!
//! gprof's second table relates function performance to calling contexts.
//! The IncProf paper's published analysis only consumes the flat profile,
//! but notes "ongoing experiments with using the call-graph profile data to
//! improve the results" (§IV) and suggests call-graph-aware site selection
//! as future work (§VI-B). We record the arcs so `incprof-core` can
//! implement that extension.

use crate::error::ProfileError;
use crate::function::FunctionId;
use crate::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// Counters for one caller→callee arc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArcStats {
    /// Number of calls along this arc.
    pub count: u64,
    /// Time spent in the callee (and its children) on behalf of the caller.
    pub child_time: Nanos,
}

impl ArcStats {
    fn is_zero(&self) -> bool {
        self.count == 0 && self.child_time == 0
    }
}

/// Call-graph profile: map from `(caller, callee)` to arc counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraphProfile {
    arcs: BTreeMap<(FunctionId, FunctionId), ArcStats>,
}

impl CallGraphProfile {
    /// Create an empty call graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one call along `caller -> callee`.
    pub fn record_arc(&mut self, caller: FunctionId, callee: FunctionId) {
        self.arcs.entry((caller, callee)).or_default().count += 1;
    }

    /// Record `n` calls along `caller -> callee`.
    pub fn record_arcs(&mut self, caller: FunctionId, callee: FunctionId, n: u64) {
        self.arcs.entry((caller, callee)).or_default().count += n;
    }

    /// Attribute `ns` of callee time to the arc `caller -> callee`.
    pub fn record_arc_time(&mut self, caller: FunctionId, callee: FunctionId, ns: Nanos) {
        self.arcs.entry((caller, callee)).or_default().child_time += ns;
    }

    /// Overwrite one arc (used by decoders).
    pub fn set(&mut self, caller: FunctionId, callee: FunctionId, stats: ArcStats) {
        self.arcs.insert((caller, callee), stats);
    }

    /// Stats for one arc, zero if absent.
    pub fn get(&self, caller: FunctionId, callee: FunctionId) -> ArcStats {
        self.arcs
            .get(&(caller, callee))
            .copied()
            .unwrap_or_default()
    }

    /// Number of distinct arcs recorded.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// True if no arcs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Iterate `((caller, callee), &ArcStats)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = ((FunctionId, FunctionId), &ArcStats)> {
        self.arcs.iter().map(|(&k, v)| (k, v))
    }

    /// All direct callers of `callee`, in id order.
    pub fn callers_of(&self, callee: FunctionId) -> Vec<FunctionId> {
        self.arcs
            .keys()
            .filter(|&&(_, to)| to == callee)
            .map(|&(from, _)| from)
            .collect()
    }

    /// All direct callees of `caller`, in id order.
    pub fn callees_of(&self, caller: FunctionId) -> Vec<FunctionId> {
        self.arcs
            .range((caller, FunctionId(0))..=(caller, FunctionId(u32::MAX)))
            .map(|(&(_, to), _)| to)
            .collect()
    }

    /// Merge `other` into `self` by element-wise addition.
    pub fn merge(&mut self, other: &CallGraphProfile) {
        for (&k, s) in &other.arcs {
            let e = self.arcs.entry(k).or_default();
            e.count += s.count;
            e.child_time += s.child_time;
        }
    }

    /// Interval call graph: `self - earlier` (cumulative semantics, like
    /// [`crate::FlatProfile::delta`]).
    pub fn delta(&self, earlier: &CallGraphProfile) -> Result<CallGraphProfile, ProfileError> {
        let mut out = CallGraphProfile::new();
        for (&k, s) in &self.arcs {
            let prev = earlier.arcs.get(&k).copied().unwrap_or_default();
            let count = s
                .count
                .checked_sub(prev.count)
                .ok_or(ProfileError::NonMonotonicDelta {
                    id: k.0 .0,
                    counter: "arc count",
                })?;
            let child_time = s.child_time.checked_sub(prev.child_time).ok_or(
                ProfileError::NonMonotonicDelta {
                    id: k.0 .0,
                    counter: "arc child_time",
                },
            )?;
            let d = ArcStats { count, child_time };
            if !d.is_zero() {
                out.arcs.insert(k, d);
            }
        }
        for (&k, s) in &earlier.arcs {
            if !self.arcs.contains_key(&k) && !s.is_zero() {
                return Err(ProfileError::NonMonotonicDelta {
                    id: k.0 .0,
                    counter: "arc presence",
                });
            }
        }
        Ok(out)
    }

    /// Transitive ancestors of `f` (every function from which `f` is
    /// reachable along call arcs), excluding `f` itself unless it sits on a
    /// cycle through itself.
    pub fn ancestors_of(&self, f: FunctionId) -> BTreeSet<FunctionId> {
        // Reverse-reachability BFS over the arc set.
        let mut seen = BTreeSet::new();
        let mut frontier = vec![f];
        while let Some(cur) = frontier.pop() {
            for caller in self.callers_of(cur) {
                if seen.insert(caller) {
                    frontier.push(caller);
                }
            }
        }
        seen
    }

    /// Depth of every function reachable from a root (a function with
    /// no recorded caller): the minimum number of arcs from a root.
    /// Roots have depth 0. A function missing from the map is
    /// unreachable from every root (e.g. only on a cycle) or absent from
    /// the graph. One multi-source BFS: O(arcs · log arcs).
    pub fn depths_from_roots(&self) -> BTreeMap<FunctionId, usize> {
        use std::collections::btree_map::Entry;
        let called: BTreeSet<FunctionId> = self.arcs.keys().map(|&(_, to)| to).collect();
        let mut depth: BTreeMap<FunctionId, usize> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        for &(from, _) in self.arcs.keys() {
            if !called.contains(&from) && depth.insert(from, 0).is_none() {
                queue.push_back(from);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let d = depth[&cur];
            for callee in self.callees_of(cur) {
                if let Entry::Vacant(e) = depth.entry(callee) {
                    e.insert(d + 1);
                    queue.push_back(callee);
                }
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> FunctionId {
        FunctionId(n)
    }

    #[test]
    fn arcs_accumulate() {
        let mut g = CallGraphProfile::new();
        g.record_arc(fid(0), fid(1));
        g.record_arcs(fid(0), fid(1), 4);
        g.record_arc_time(fid(0), fid(1), 99);
        assert_eq!(
            g.get(fid(0), fid(1)),
            ArcStats {
                count: 5,
                child_time: 99
            }
        );
        assert_eq!(g.get(fid(1), fid(0)), ArcStats::default());
    }

    #[test]
    fn callers_and_callees() {
        let mut g = CallGraphProfile::new();
        g.record_arc(fid(0), fid(2));
        g.record_arc(fid(1), fid(2));
        g.record_arc(fid(2), fid(3));
        g.record_arc(fid(2), fid(4));
        assert_eq!(g.callers_of(fid(2)), vec![fid(0), fid(1)]);
        assert_eq!(g.callees_of(fid(2)), vec![fid(3), fid(4)]);
        assert!(g.callers_of(fid(0)).is_empty());
        assert!(g.callees_of(fid(4)).is_empty());
    }

    #[test]
    fn delta_semantics_match_flat_profile() {
        let mut a = CallGraphProfile::new();
        a.record_arcs(fid(0), fid(1), 3);
        let mut b = a.clone();
        b.record_arcs(fid(0), fid(1), 2);
        b.record_arc(fid(1), fid(2));
        let d = b.delta(&a).unwrap();
        assert_eq!(d.get(fid(0), fid(1)).count, 2);
        assert_eq!(d.get(fid(1), fid(2)).count, 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn delta_detects_regression() {
        let mut a = CallGraphProfile::new();
        a.record_arcs(fid(0), fid(1), 5);
        let mut b = CallGraphProfile::new();
        b.record_arcs(fid(0), fid(1), 2);
        assert!(b.delta(&a).is_err());
    }

    #[test]
    fn merge_adds() {
        let mut a = CallGraphProfile::new();
        a.record_arcs(fid(0), fid(1), 1);
        let mut b = CallGraphProfile::new();
        b.record_arcs(fid(0), fid(1), 2);
        b.record_arcs(fid(2), fid(3), 7);
        a.merge(&b);
        assert_eq!(a.get(fid(0), fid(1)).count, 3);
        assert_eq!(a.get(fid(2), fid(3)).count, 7);
    }

    #[test]
    fn ancestors_walk_transitively() {
        let mut g = CallGraphProfile::new();
        // main -> a -> b -> c ; helper -> b
        g.record_arc(fid(0), fid(1));
        g.record_arc(fid(1), fid(2));
        g.record_arc(fid(2), fid(3));
        g.record_arc(fid(9), fid(2));
        let anc = g.ancestors_of(fid(3));
        assert!(anc.contains(&fid(2)));
        assert!(anc.contains(&fid(1)));
        assert!(anc.contains(&fid(0)));
        assert!(anc.contains(&fid(9)));
        assert!(!anc.contains(&fid(3)));
    }

    #[test]
    fn ancestors_handle_cycles() {
        let mut g = CallGraphProfile::new();
        g.record_arc(fid(0), fid(1));
        g.record_arc(fid(1), fid(0)); // mutual recursion
        let anc = g.ancestors_of(fid(0));
        assert!(anc.contains(&fid(1)));
        assert!(anc.contains(&fid(0))); // reachable through the cycle
    }

    #[test]
    fn depths_from_roots() {
        let mut g = CallGraphProfile::new();
        g.record_arc(fid(0), fid(1)); // root=0
        g.record_arc(fid(1), fid(2));
        g.record_arc(fid(0), fid(2)); // shortcut makes depth(2)=1
        g.record_arc(fid(5), fid(6)); // 5 <-> 6: a cycle no root reaches
        g.record_arc(fid(6), fid(5));
        let d = g.depths_from_roots();
        assert_eq!(d.get(&fid(0)), Some(&0));
        assert_eq!(d.get(&fid(1)), Some(&1));
        assert_eq!(d.get(&fid(2)), Some(&1));
        assert_eq!(d.get(&fid(5)), None);
        assert_eq!(d.get(&fid(77)), None);
        assert_eq!(d.len(), 3);
    }
}
