//! The workspace static call graph, built by pattern-matching call
//! shapes inside parsed function bodies against the symbol table.
//!
//! Every edge carries a confidence label:
//!
//! * **Confident** — the callee resolved uniquely (same file, unique in
//!   crate, `use`-aliased unique def, `Type::method` with a unique
//!   definition, or `self.method()` inside the owning impl). These are
//!   the edges the dataflow layer propagates hazards over.
//! * **Ambiguous** — the name matched more than one definition, or a
//!   method receiver we cannot type. Reported in the JSON for human
//!   review but never used to fire a graph rule, so a wrong guess can
//!   cause a missed warning, not a false positive.
//!
//! Besides edges, each node records *facts*: hazard-relevant calls that
//! appear directly in its body (panic macros, blocking primitives,
//! allocation constructors), again with the source line so graph rules
//! can point at the exact site.

use crate::lexer::{Token, TokenKind};
use crate::parse::ParsedFile;
use crate::symbols::SymbolTable;
use std::collections::BTreeMap;

/// Edge label: did the callee resolve uniquely?
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Unique resolution; hazards propagate over this edge.
    Confident,
    /// Multiple candidates or an untyped receiver; reported only.
    Ambiguous,
}

/// One call edge between two workspace functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Caller node index.
    pub caller: usize,
    /// Callee node index.
    pub callee: usize,
    /// Resolution confidence.
    pub confidence: Confidence,
    /// 1-based line of the call site.
    pub line: u32,
}

/// The hazard classes the graph rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FactKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Panic,
    /// Lock acquisition, file/socket IO, or `thread::sleep`.
    Blocking,
    /// Vec/Box/String constructors and `vec!`.
    Alloc,
}

/// A hazard-relevant call observed directly in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Node index of the function whose body contains the site.
    pub node: usize,
    /// Hazard class.
    pub kind: FactKind,
    /// The matched callee text (e.g. `panic!`, `.lock(`, `Vec::new`).
    pub what: String,
    /// 1-based line of the site.
    pub line: u32,
}

/// The workspace call graph. Node indices are indices into the symbol
/// table's def list (`SymbolTable::defs`), so graph consumers can get
/// at names, files, and visibility without a parallel table.
#[derive(Debug, Clone, Default)]
pub struct StaticCallGraph {
    /// All edges, sorted by (caller, callee, line).
    pub edges: Vec<Edge>,
    /// Direct hazard sites per function body.
    pub facts: Vec<Fact>,
    /// Number of nodes (mirrors `SymbolTable::defs.len()`).
    pub nodes: usize,
}

/// Blocking callee patterns: `Type::fn` paths and `.method(` calls.
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("File", "open"),
    ("File", "create"),
    ("fs", "read_to_string"),
    ("fs", "read_dir"),
    ("fs", "read"),
    ("fs", "write"),
    ("TcpListener", "bind"),
    ("TcpStream", "connect"),
    ("UdpSocket", "bind"),
];

/// Blocking method names matched as `.name(` (receiver unknown).
const BLOCKING_METHODS: &[&str] = &["lock", "recv", "join", "read_to_end", "read_to_string"];

/// Allocation constructor paths. Deliberately excludes `format!`,
/// `.to_string()`, and `.to_owned()`: those dominate cold error paths
/// and would drown the signal.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Panic-family macro names (matched as `name!`). `unwrap`/`expect`
/// stay P01's domain so one site never needs two markers.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl StaticCallGraph {
    /// Build the graph. `tokens` maps each workspace-relative path to
    /// its lexed token stream (body ranges in the symbol table index
    /// into these), and `parsed` is kept for module context.
    pub fn build(
        symbols: &SymbolTable,
        tokens: &BTreeMap<String, Vec<Token>>,
        _parsed: &BTreeMap<String, ParsedFile>,
    ) -> StaticCallGraph {
        let mut graph = StaticCallGraph {
            nodes: symbols.defs.len(),
            ..StaticCallGraph::default()
        };
        for (node, def) in symbols.defs.iter().enumerate() {
            let Some(toks) = tokens.get(&def.file) else {
                continue;
            };
            let body = &toks[def.body.clone()];
            scan_body(node, def, body, symbols, &mut graph);
        }
        graph.edges.sort_by_key(|e| (e.caller, e.callee, e.line));
        graph.edges.dedup();
        graph.facts.sort_by(|a, b| {
            (a.node, a.kind, a.line, &a.what).cmp(&(b.node, b.kind, b.line, &b.what))
        });
        graph
    }

    /// Edge counts by confidence, for stats output.
    pub fn edge_counts(&self) -> (usize, usize) {
        let confident = self
            .edges
            .iter()
            .filter(|e| e.confidence == Confidence::Confident)
            .count();
        (confident, self.edges.len() - confident)
    }
}

/// Rust keywords and flow constructs that look like `name(` call shapes
/// but are not calls.
fn is_non_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "loop"
            | "move"
            | "in"
            | "as"
            | "else"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box" // Box::new handled as a path/fact, `Box(..)` is not a call
    )
}

fn scan_body(
    node: usize,
    def: &crate::symbols::FnDef,
    body: &[Token],
    symbols: &SymbolTable,
    graph: &mut StaticCallGraph,
) {
    let owner = def.owner.as_deref();
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let line = t.line;

        // Macro invocation `name!(…)` — panic facts.
        if body.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            if PANIC_MACROS.contains(&name) {
                graph.facts.push(Fact {
                    node,
                    kind: FactKind::Panic,
                    what: format!("{name}!"),
                    line,
                });
            } else if name == "vec" {
                graph.facts.push(Fact {
                    node,
                    kind: FactKind::Alloc,
                    what: "vec!".to_owned(),
                    line,
                });
            }
            i += 2;
            continue;
        }

        // Path call `A::…::name(` — walk the `::` chain.
        if body.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            let mut segs = vec![name.to_owned()];
            let mut j = i;
            while body.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && body.get(j + 2).is_some_and(|n| n.is_punct(':'))
                && body.get(j + 3).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                segs.push(body[j + 3].text.clone());
                j += 3;
            }
            let is_call = body.get(j + 1).is_some_and(|n| n.is_punct('('));
            if is_call && segs.len() >= 2 {
                let last = segs[segs.len() - 1].clone();
                let qual = segs[segs.len() - 2].clone();
                let site_line = body[j].line;
                // Hazard facts on well-known std paths.
                if BLOCKING_PATHS.iter().any(|&(t, f)| t == qual && f == last) {
                    graph.facts.push(Fact {
                        node,
                        kind: FactKind::Blocking,
                        what: format!("{qual}::{last}"),
                        line: site_line,
                    });
                } else if ALLOC_PATHS.iter().any(|&(t, f)| t == qual && f == last) {
                    graph.facts.push(Fact {
                        node,
                        kind: FactKind::Alloc,
                        what: format!("{qual}::{last}"),
                        line: site_line,
                    });
                } else {
                    let (candidates, confident) = symbols.resolve_qualified(&qual, &last);
                    push_edges(graph, node, &candidates, confident, site_line);
                }
            }
            i = j + 1;
            continue;
        }

        // Method call `.name(` — receiver heuristics.
        if i > 0 && body[i - 1].is_punct('.') {
            if body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                if BLOCKING_METHODS.contains(&name) {
                    graph.facts.push(Fact {
                        node,
                        kind: FactKind::Blocking,
                        what: format!(".{name}("),
                        line,
                    });
                } else if name == "to_vec" {
                    graph.facts.push(Fact {
                        node,
                        kind: FactKind::Alloc,
                        what: ".to_vec(".to_owned(),
                        line,
                    });
                } else {
                    let self_recv = i >= 2 && body[i - 2].is_ident("self");
                    let (candidates, confident) = symbols.resolve_method(owner, self_recv, name);
                    push_edges(graph, node, &candidates, confident, line);
                }
            }
            i += 1;
            continue;
        }

        // Bare call `name(` — not a keyword, not preceded by `fn`.
        if body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !is_non_call_keyword(name)
            && !(i > 0 && body[i - 1].is_ident("fn"))
        {
            let (candidates, confident) = symbols.resolve_bare(&def.file, name);
            push_edges(graph, node, &candidates, confident, line);
        }
        i += 1;
    }
}

/// Record edges for a resolution result. A confident resolution yields
/// exactly one confident edge; ambiguous candidates are all recorded as
/// ambiguous (capped to keep pathological fan-out bounded).
fn push_edges(
    graph: &mut StaticCallGraph,
    caller: usize,
    candidates: &[usize],
    confident: bool,
    line: u32,
) {
    const AMBIGUOUS_CAP: usize = 8;
    let confidence = if confident && candidates.len() == 1 {
        Confidence::Confident
    } else {
        Confidence::Ambiguous
    };
    for &callee in candidates
        .iter()
        .take(if confidence == Confidence::Confident {
            1
        } else {
            AMBIGUOUS_CAP
        })
    {
        // Self-recursion edges carry no new reachability information.
        if callee == caller {
            continue;
        }
        graph.edges.push(Edge {
            caller,
            callee,
            confidence,
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn build(files: &[(&str, &str)]) -> (SymbolTable, StaticCallGraph) {
        let mut tokens = BTreeMap::new();
        let mut parsed = BTreeMap::new();
        for (p, src) in files {
            let toks = lex(src).tokens;
            parsed.insert(p.to_string(), parse_items(&toks));
            tokens.insert(p.to_string(), toks);
        }
        let symbols = SymbolTable::build(&parsed);
        let graph = StaticCallGraph::build(&symbols, &tokens, &parsed);
        (symbols, graph)
    }

    fn def_idx(s: &SymbolTable, qualified: &str) -> usize {
        s.defs
            .iter()
            .position(|d| d.qualified == qualified)
            .unwrap_or_else(|| panic!("no def {qualified}"))
    }

    #[test]
    fn bare_same_file_call_is_confident() {
        let (s, g) = build(&[(
            "crates/core/src/a.rs",
            "fn helper() {}\npub fn entry() { helper(); }\n",
        )]);
        let caller = def_idx(&s, "entry");
        let callee = def_idx(&s, "helper");
        assert!(g.edges.iter().any(|e| e.caller == caller
            && e.callee == callee
            && e.confidence == Confidence::Confident));
    }

    #[test]
    fn cross_crate_duplicate_is_ambiguous() {
        let (s, g) = build(&[
            ("crates/core/src/a.rs", "pub fn shared() {}\n"),
            ("crates/par/src/lib.rs", "pub fn shared() {}\n"),
            ("crates/cli/src/lib.rs", "pub fn run() { shared(); }\n"),
        ]);
        let caller = def_idx(&s, "run");
        let amb: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.caller == caller && e.confidence == Confidence::Ambiguous)
            .collect();
        assert_eq!(amb.len(), 2);
    }

    #[test]
    fn self_method_call_resolves_to_owner() {
        let (s, g) = build(&[(
            "crates/serve/src/s.rs",
            "struct S;\nimpl S {\n    pub fn outer(&self) { self.inner(); }\n    fn inner(&self) {}\n}\n",
        )]);
        let caller = def_idx(&s, "S::outer");
        let callee = def_idx(&s, "S::inner");
        assert!(g.edges.iter().any(|e| e.caller == caller
            && e.callee == callee
            && e.confidence == Confidence::Confident));
    }

    #[test]
    fn type_qualified_call_is_confident_when_unique() {
        let (s, g) = build(&[(
            "crates/core/src/a.rs",
            "struct T;\nimpl T {\n    pub fn make() -> T { T }\n}\npub fn f() { T::make(); }\n",
        )]);
        let caller = def_idx(&s, "f");
        let callee = def_idx(&s, "T::make");
        assert!(g.edges.iter().any(|e| e.caller == caller
            && e.callee == callee
            && e.confidence == Confidence::Confident));
    }

    #[test]
    fn hazard_facts_are_collected() {
        let (s, g) = build(&[(
            "crates/core/src/a.rs",
            "pub fn f() {\n    let v = Vec::new();\n    let m = x.lock();\n    panic!(\"boom\");\n    let b = vec![1];\n}\n",
        )]);
        let node = def_idx(&s, "f");
        let kinds: Vec<(FactKind, &str)> = g
            .facts
            .iter()
            .filter(|f| f.node == node)
            .map(|f| (f.kind, f.what.as_str()))
            .collect();
        assert!(kinds.contains(&(FactKind::Alloc, "Vec::new")));
        assert!(kinds.contains(&(FactKind::Blocking, ".lock(")));
        assert!(kinds.contains(&(FactKind::Panic, "panic!")));
        assert!(kinds.contains(&(FactKind::Alloc, "vec!")));
    }

    #[test]
    fn keywords_and_macros_do_not_become_edges() {
        let (s, g) = build(&[(
            "crates/core/src/a.rs",
            "pub fn f(x: u32) {\n    if (x > 0) {}\n    while (x > 0) {}\n    assert_eq!(x, 1);\n}\n",
        )]);
        let caller = def_idx(&s, "f");
        assert!(g.edges.iter().all(|e| e.caller != caller));
    }

    #[test]
    fn self_recursion_is_not_an_edge() {
        let (s, g) = build(&[(
            "crates/core/src/a.rs",
            "pub fn rec(n: u32) { if n > 0 { rec(n - 1); } }\n",
        )]);
        let node = def_idx(&s, "rec");
        assert!(g
            .edges
            .iter()
            .all(|e| !(e.caller == node && e.callee == node)));
    }
}
