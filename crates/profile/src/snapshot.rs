//! Timestamped cumulative profile snapshots.
//!
//! The IncProf collector produces one [`ProfileSnapshot`] per interval —
//! the in-memory analogue of each renamed `gmon.out.N` file in the paper's
//! Fig. 1 data-collection loop.

use crate::callgraph::CallGraphProfile;
use crate::flat::FlatProfile;
use crate::function::FunctionTable;
use crate::gmon::GmonData;

/// One cumulative profile snapshot, tagged with its sample index and the
/// time at which it was taken.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Monotone index assigned by the collector: 0, 1, 2, ...
    pub sample_index: u64,
    /// Clock reading (ns) when the snapshot was taken.
    pub timestamp_ns: u64,
    /// Cumulative flat profile at that instant.
    pub flat: FlatProfile,
    /// Cumulative call-graph profile at that instant.
    pub callgraph: CallGraphProfile,
}

impl ProfileSnapshot {
    /// Package this snapshot with a function table into an encodable
    /// [`GmonData`] record.
    pub fn to_gmon(&self, functions: &FunctionTable) -> GmonData {
        GmonData {
            sample_index: self.sample_index,
            timestamp_ns: self.timestamp_ns,
            functions: functions.clone(),
            flat: self.flat.clone(),
            callgraph: self.callgraph.clone(),
        }
    }

    /// Extract the snapshot part of a decoded [`GmonData`].
    pub fn from_gmon(gmon: &GmonData) -> ProfileSnapshot {
        ProfileSnapshot {
            sample_index: gmon.sample_index,
            timestamp_ns: gmon.timestamp_ns,
            flat: gmon.flat.clone(),
            callgraph: gmon.callgraph.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FunctionStats;

    #[test]
    fn gmon_roundtrip_via_snapshot() {
        let mut table = FunctionTable::new();
        let a = table.register("f");
        let mut snap = ProfileSnapshot {
            sample_index: 3,
            timestamp_ns: 42,
            ..Default::default()
        };
        snap.flat.set(
            a,
            FunctionStats {
                self_time: 10,
                calls: 1,
                child_time: 0,
            },
        );
        snap.callgraph.record_arc(a, a);

        let gmon = snap.to_gmon(&table);
        let decoded = GmonData::decode(&gmon.encode()).unwrap();
        let back = ProfileSnapshot::from_gmon(&decoded);
        assert_eq!(back, snap);
    }
}
