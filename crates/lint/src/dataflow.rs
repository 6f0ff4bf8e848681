//! Reachability analysis over the static call graph.
//!
//! This is the "dataflow" layer the graph rules stand on: given the
//! call graph, compute which hazard facts are transitively reachable
//! from which functions, and produce a witness call path for each
//! (root → … → hazard site) so diagnostics can explain *why* a line is
//! flagged rather than just *that* it is.
//!
//! Propagation uses **confident edges only**. Ambiguous edges (multiple
//! candidates, untyped receivers) are deliberately excluded: a wrong
//! guess there would manufacture false positives, and the whole point
//! of the confidence labels is that a miss is recoverable (human
//! review of the ambiguous-edge list) while a false alarm erodes trust
//! in the gate. Closures are invisible to the item parser, so hazards
//! inside them attach to the enclosing function — an over-approximation
//! in the safe direction.

use crate::callgraph::{Confidence, StaticCallGraph};
use crate::symbols::SymbolTable;

/// Reachability over the confident-edge subgraph.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// Adjacency (confident edges only): `succ[n]` = nodes n calls.
    succ: Vec<Vec<usize>>,
    /// Reverse adjacency: `pred[n]` = nodes that call n.
    pred: Vec<Vec<usize>>,
}

impl Reachability {
    /// Build from the graph's confident edges.
    pub fn build(graph: &StaticCallGraph) -> Reachability {
        let n = graph.nodes;
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for e in &graph.edges {
            if e.confidence == Confidence::Confident {
                succ[e.caller].push(e.callee);
                pred[e.callee].push(e.caller);
            }
        }
        for v in succ.iter_mut().chain(pred.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        Reachability { succ, pred }
    }

    /// All nodes reachable from `roots` (inclusive), via BFS in
    /// deterministic node order.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<bool> {
        self.walk(roots, &self.succ)
    }

    /// All nodes that can reach `targets` (inclusive) — reverse
    /// reachability.
    pub fn can_reach(&self, targets: &[usize]) -> Vec<bool> {
        self.walk(targets, &self.pred)
    }

    fn walk(&self, starts: &[usize], adj: &[Vec<usize>]) -> Vec<bool> {
        let mut seen = vec![false; adj.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in starts {
            if s < seen.len() && !seen[s] {
                seen[s] = true;
                queue.push(s);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push(v);
                }
            }
        }
        seen
    }

    /// A shortest call path `from → … → to` over confident edges, as
    /// node indices. `None` when unreachable. BFS visits neighbors in
    /// sorted order, so the witness is deterministic.
    pub fn witness_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from >= self.succ.len() || to >= self.succ.len() {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut prev = vec![usize::MAX; self.succ.len()];
        let mut queue = vec![from];
        prev[from] = from;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &self.succ[u] {
                if prev[v] == usize::MAX {
                    prev[v] = u;
                    if v == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push(v);
                }
            }
        }
        None
    }

    /// Render a witness path as `a -> b -> c` using qualified names.
    pub fn render_path(symbols: &SymbolTable, path: &[usize]) -> String {
        path.iter()
            .map(|&i| symbols.defs[i].qualified.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FactKind;
    use crate::lexer::lex;
    use crate::parse::parse_items;
    use crate::symbols::SymbolTable;
    use std::collections::BTreeMap;

    fn build(files: &[(&str, &str)]) -> (SymbolTable, StaticCallGraph, Reachability) {
        let mut tokens = BTreeMap::new();
        let mut parsed = BTreeMap::new();
        for (p, src) in files {
            let toks = lex(src).tokens;
            parsed.insert(p.to_string(), parse_items(&toks));
            tokens.insert(p.to_string(), toks);
        }
        let symbols = SymbolTable::build(&parsed);
        let graph = StaticCallGraph::build(&symbols, &tokens, &parsed);
        let reach = Reachability::build(&graph);
        (symbols, graph, reach)
    }

    fn idx(s: &SymbolTable, q: &str) -> usize {
        s.defs.iter().position(|d| d.qualified == q).unwrap()
    }

    /// Whether a `panic!` fact is reachable from each node.
    fn reaching_panic(g: &StaticCallGraph, r: &Reachability) -> Vec<bool> {
        let carriers: Vec<usize> = g
            .facts
            .iter()
            .filter(|f| f.kind == FactKind::Panic)
            .map(|f| f.node)
            .collect();
        r.can_reach(&carriers)
    }

    #[test]
    fn transitive_reachability_and_witness() {
        let (s, _g, r) = build(&[(
            "crates/core/src/a.rs",
            "pub fn top() { mid(); }\nfn mid() { bottom(); }\nfn bottom() {}\nfn isolated() {}\n",
        )]);
        let top = idx(&s, "top");
        let bottom = idx(&s, "bottom");
        let isolated = idx(&s, "isolated");
        let fwd = r.reachable_from(&[top]);
        assert!(fwd[bottom]);
        assert!(!fwd[isolated]);
        let path = r.witness_path(top, bottom).unwrap();
        assert_eq!(Reachability::render_path(&s, &path), "top -> mid -> bottom");
        assert_eq!(r.witness_path(bottom, top), None);
    }

    #[test]
    fn panic_facts_propagate_to_callers() {
        let (s, g, r) = build(&[(
            "crates/core/src/a.rs",
            "pub fn api() { inner(); }\nfn inner() { panic!(\"boom\"); }\npub fn clean() {}\n",
        )]);
        let reaches = reaching_panic(&g, &r);
        assert!(reaches[idx(&s, "api")]);
        assert!(reaches[idx(&s, "inner")]);
        assert!(!reaches[idx(&s, "clean")]);
    }

    #[test]
    fn ambiguous_edges_do_not_propagate() {
        let (s, g, r) = build(&[
            // Two `shared` defs in different crates → ambiguous from cli.
            (
                "crates/core/src/a.rs",
                "pub fn shared() { panic!(\"a\"); }\n",
            ),
            ("crates/par/src/lib.rs", "pub fn shared() {}\n"),
            ("crates/cli/src/lib.rs", "pub fn run() { shared(); }\n"),
        ]);
        let reaches = reaching_panic(&g, &r);
        assert!(reaches[idx(&s, "shared")]); // core's own def carries it
        assert!(
            !reaches[idx(&s, "run")],
            "ambiguous edge must not carry hazards"
        );
    }

    #[test]
    fn cycles_terminate() {
        let (s, _g, r) = build(&[(
            "crates/core/src/a.rs",
            "pub fn ping() { pong(); }\npub fn pong() { ping(); }\n",
        )]);
        let fwd = r.reachable_from(&[idx(&s, "ping")]);
        assert!(fwd[idx(&s, "pong")]);
        let path = r.witness_path(idx(&s, "ping"), idx(&s, "pong")).unwrap();
        assert_eq!(path.len(), 2);
    }
}
