//! Function identities and the symbol table.
//!
//! gprof works in terms of program-counter addresses resolved to symbol
//! names; our instrumentation runtime registers functions explicitly instead
//! (the moral equivalent of the `-pg` compiler pass emitting an `mcount`
//! call per function). [`FunctionTable`] owns the mapping from names and
//! optional source locations to dense [`FunctionId`]s used everywhere else.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Dense numeric identifier for a registered function.
///
/// Ids are assigned in registration order starting from zero, so they can be
/// used directly as indices into per-function vectors (the interval matrix
/// in `incprof-collect` does exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Metadata about one registered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionInfo {
    /// Fully qualified (possibly demangled) function name, e.g.
    /// `PairLJCut::compute` or `validate_bfs_result`.
    pub name: String,
    /// Source file, when known (gprof's line-level legacy mode; optional).
    pub source_file: Option<String>,
    /// 1-based line number of the function definition, when known.
    pub line: Option<u32>,
    /// Synthetic "address" for the function. Real gprof keys everything on
    /// text-segment addresses; we synthesize stable fake addresses so the
    /// gmon format has the same shape. Defaults to `0x1000 + 16 * id`.
    pub address: u64,
}

impl FunctionInfo {
    /// Create metadata with just a name; address is filled in at
    /// registration time.
    pub fn named(name: impl Into<String>) -> Self {
        FunctionInfo {
            name: name.into(),
            source_file: None,
            line: None,
            address: 0,
        }
    }

    /// Create metadata with a source location.
    pub fn with_location(name: impl Into<String>, file: impl Into<String>, line: u32) -> Self {
        FunctionInfo {
            name: name.into(),
            source_file: Some(file.into()),
            line: Some(line),
            address: 0,
        }
    }
}

/// The symbol table: bidirectional mapping between function names and ids.
///
/// Registration is idempotent per name: registering the same name twice
/// returns the same [`FunctionId`]. Iteration order is id order, i.e.
/// registration order, and is fully deterministic.
///
/// The contents are shared: a clone is a reference-count bump, and the
/// first mutation of a shared table copies it (copy on write). Every
/// snapshot of one stream carries the same table, so its readers hold
/// one copy between them, not one per snapshot. Equality compares
/// contents, and two tables that share them are equal without a read.
#[derive(Debug, Clone, Default)]
pub struct FunctionTable {
    contents: Arc<Contents>,
}

impl PartialEq for FunctionTable {
    fn eq(&self, other: &FunctionTable) -> bool {
        self.shares_contents_with(other) || self.contents == other.contents
    }
}

impl Eq for FunctionTable {}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Contents {
    infos: Vec<FunctionInfo>,
    // BTreeMap rather than HashMap so no hash-ordered iteration can ever
    // leak into output (incprof-lint rule D02); the index is lookup-only
    // today, but the ordering guarantee is load-bearing for anything that
    // later walks it.
    by_name: BTreeMap<String, FunctionId>,
}

impl FunctionTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function by name, returning its id. Idempotent.
    pub fn register(&mut self, name: impl Into<String>) -> FunctionId {
        self.register_info(FunctionInfo::named(name))
    }

    /// Register a function with full metadata, returning its id.
    ///
    /// If a function with the same name is already registered, the existing
    /// id is returned and any *new* source location fills previously-unknown
    /// fields (first writer wins for fields already set).
    pub fn register_info(&mut self, mut info: FunctionInfo) -> FunctionId {
        if let Some(id) = self.id_of(&info.name) {
            // Apps re-register known names every interval, between the
            // collector's clones: only a real fill may copy the table.
            let existing = &self.contents.infos[id.index()];
            let fill_file = existing.source_file.is_none() && info.source_file.is_some();
            let fill_line = existing.line.is_none() && info.line.is_some();
            if fill_file || fill_line {
                let existing = &mut Arc::make_mut(&mut self.contents).infos[id.index()];
                if fill_file {
                    existing.source_file = info.source_file.take();
                }
                if fill_line {
                    existing.line = info.line;
                }
            }
            return id;
        }
        let contents = Arc::make_mut(&mut self.contents);
        let id = FunctionId(contents.infos.len() as u32);
        if info.address == 0 {
            // Synthetic, stable, strictly increasing fake text addresses.
            info.address = 0x1000 + 16 * id.0 as u64;
        }
        contents.by_name.insert(info.name.clone(), id);
        contents.infos.push(info);
        id
    }

    /// Look up a function id by exact name.
    pub fn id_of(&self, name: &str) -> Option<FunctionId> {
        self.contents.by_name.get(name).copied()
    }

    /// Metadata for `id`, or `None` if out of range.
    pub fn info(&self, id: FunctionId) -> Option<&FunctionInfo> {
        self.contents.infos.get(id.index())
    }

    /// The name for `id`; `"<unknown>"` if the id is not registered
    /// (useful when rendering reports against a mismatched table).
    pub fn name(&self, id: FunctionId) -> &str {
        self.info(id)
            .map(|i| i.name.as_str())
            .unwrap_or("<unknown>")
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.contents.infos.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.contents.infos.is_empty()
    }

    /// Iterate `(FunctionId, &FunctionInfo)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionInfo)> {
        self.contents
            .infos
            .iter()
            .enumerate()
            .map(|(i, info)| (FunctionId(i as u32), info))
    }

    /// Whether the two tables share one copy of their contents: one is a
    /// clone of the other and neither has been written to since.
    pub fn shares_contents_with(&self, other: &FunctionTable) -> bool {
        Arc::ptr_eq(&self.contents, &other.contents)
    }

    /// `other`'s handle when the two tables are equal, else this table:
    /// equal tables read one after another keep one copy of their names.
    pub fn shared_with(self, other: &FunctionTable) -> FunctionTable {
        if self == *other {
            other.clone()
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_dense_ids() {
        let mut t = FunctionTable::new();
        let a = t.register("alpha");
        let b = t.register("beta");
        let c = t.register("gamma");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut t = FunctionTable::new();
        let a1 = t.register("alpha");
        let a2 = t.register("alpha");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_by_name_and_id() {
        let mut t = FunctionTable::new();
        let id = t.register("cg_solve");
        assert_eq!(t.id_of("cg_solve"), Some(id));
        assert_eq!(t.id_of("missing"), None);
        assert_eq!(t.name(id), "cg_solve");
        assert_eq!(t.name(FunctionId(42)), "<unknown>");
    }

    #[test]
    fn synthetic_addresses_are_distinct_and_increasing() {
        let mut t = FunctionTable::new();
        let a = t.register("a");
        let b = t.register("b");
        let addr_a = t.info(a).unwrap().address;
        let addr_b = t.info(b).unwrap().address;
        assert!(addr_a != 0 && addr_b != 0);
        assert!(addr_b > addr_a);
    }

    #[test]
    fn reregistration_fills_missing_location() {
        let mut t = FunctionTable::new();
        let id = t.register("run_bfs");
        assert!(t.info(id).unwrap().source_file.is_none());
        let id2 = t.register_info(FunctionInfo::with_location("run_bfs", "bfs.c", 120));
        assert_eq!(id, id2);
        let info = t.info(id).unwrap();
        assert_eq!(info.source_file.as_deref(), Some("bfs.c"));
        assert_eq!(info.line, Some(120));
    }

    #[test]
    fn first_location_wins() {
        let mut t = FunctionTable::new();
        t.register_info(FunctionInfo::with_location("f", "a.c", 1));
        t.register_info(FunctionInfo::with_location("f", "b.c", 2));
        let id = t.id_of("f").unwrap();
        assert_eq!(t.info(id).unwrap().source_file.as_deref(), Some("a.c"));
        assert_eq!(t.info(id).unwrap().line, Some(1));
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut t = FunctionTable::new();
        t.register("z");
        t.register("a");
        t.register("m");
        let names: Vec<&str> = t.iter().map(|(_, i)| i.name.as_str()).collect();
        assert_eq!(names, vec!["z", "a", "m"]);
    }

    /// A clone is a value: registering into the original, whether a new
    /// name or a location for a known one, leaves the clone as it was.
    #[test]
    fn clone_is_unchanged_by_later_registration() {
        let mut t = FunctionTable::new();
        t.register("run_bfs");
        let before = t.clone();
        let snapshot = format!("{before:?}");
        t.register("validate");
        t.register_info(FunctionInfo::with_location("run_bfs", "bfs.c", 120));
        assert_eq!(format!("{before:?}"), snapshot);
        assert_eq!(before.len(), 1);
        assert_eq!(before.id_of("validate"), None);
        let info = before.info(FunctionId(0)).unwrap();
        assert_eq!((info.source_file.as_deref(), info.line), (None, None));
        assert_eq!(t.len(), 2);
        assert_eq!(t.info(FunctionId(0)).unwrap().line, Some(120));

        // And the other way round: the clone's own registrations do not
        // reach the table it came from.
        let mut copy = t.clone();
        copy.register("extra");
        assert_eq!((t.len(), t.id_of("extra")), (2, None));
    }
}
