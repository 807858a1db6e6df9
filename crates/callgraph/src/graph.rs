//! The resolved whole-program call graph.
//!
//! [`CallGraph::resolve`] turns a [`CorpusCallIndex`] into nodes (defined
//! functions) and direct-call edges with static call-site counts, applying
//! linker-style symbol resolution: a call binds to the caller's own module
//! first, then to the first externally visible definition elsewhere in corpus
//! order; internal definitions in other modules never capture it. Calls with
//! no definition anywhere stay *external* (library calls) and carry no edge.
//!
//! On top of the edges the graph offers Tarjan SCC condensation
//! ([`CallGraph::sccs`], [`CallGraph::condensation`]) and per-function
//! [`Locality`] summaries — the static coupling numbers the cross-module
//! merge pipeline's host-selection policy ranks placements with.

use crate::index::CorpusCallIndex;
use ssa_ir::Linkage;
use std::collections::{BTreeSet, HashMap};

/// One defined function of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallNode {
    /// Index of the defining module in [`CallGraph::modules`].
    pub module: usize,
    /// Symbol name.
    pub name: String,
    /// Linkage of the definition.
    pub linkage: Linkage,
}

/// One direct-call edge, aggregated over all call sites of the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Caller node index.
    pub caller: usize,
    /// Callee node index.
    pub callee: usize,
    /// Number of static call sites behind this edge.
    pub count: u32,
}

/// Static caller/callee locality of one function: how many call sites bind it
/// to its own module vs. other modules. Self-calls are excluded throughout —
/// they move with the body and never force a cross-module hop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Locality {
    /// Call sites in the function's own module that target it.
    pub intra_callers: u32,
    /// Call sites in other modules that target it.
    pub cross_callers: u32,
    /// Call sites in the function's body targeting same-module definitions.
    pub intra_callees: u32,
    /// Call sites in the function's body targeting other-module definitions.
    pub cross_callees: u32,
    /// Call sites in the function's body with no definition in the corpus
    /// (external library calls — placement-neutral).
    pub external_callees: u32,
}

impl Locality {
    /// The number of static call edges that would be forced cross-module if
    /// this function's body moved to another module: its intra-module callers
    /// would hop out, its intra-module callees would be hopped back to.
    pub fn coupling(&self) -> u32 {
        self.intra_callers + self.intra_callees
    }
}

/// The condensation of the call graph: strongly connected components and the
/// DAG between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// Component index of every node (parallel to [`CallGraph::nodes`]).
    pub component_of: Vec<usize>,
    /// Node lists per component, in reverse topological order (callees before
    /// callers, as Tarjan emits them); each list is sorted ascending.
    pub components: Vec<Vec<usize>>,
    /// Deduplicated component-level edges `(caller component, callee
    /// component)`, excluding self-edges.
    pub edges: BTreeSet<(usize, usize)>,
}

/// The resolved whole-program call graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// Module names, in corpus order.
    pub modules: Vec<String>,
    /// One node per defined function, grouped by module in corpus order.
    pub nodes: Vec<CallNode>,
    /// Direct-call edges with static site counts, in deterministic
    /// (caller, callee) order.
    pub edges: Vec<CallEdge>,
    /// Unresolved (external) call sites per node, parallel to `nodes`.
    external_sites: Vec<u32>,
    /// Per-module `symbol -> node` lookup, parallel to `modules` (nested so
    /// [`CallGraph::node_id`] looks up by `&str` without allocating).
    by_symbol: Vec<HashMap<String, usize>>,
}

impl CallGraph {
    /// Resolves a call-site index into the whole-program graph.
    pub fn resolve(index: &CorpusCallIndex) -> CallGraph {
        let modules: Vec<String> = index.modules.iter().map(|m| m.module.clone()).collect();
        let mut nodes = Vec::with_capacity(index.num_functions());
        let mut by_symbol: Vec<HashMap<String, usize>> = vec![HashMap::new(); modules.len()];
        // First externally visible definition of every symbol, corpus order.
        let mut external_def: HashMap<&str, usize> = HashMap::new();
        for (mi, m) in index.modules.iter().enumerate() {
            for f in &m.functions {
                let id = nodes.len();
                nodes.push(CallNode {
                    module: mi,
                    name: f.name.clone(),
                    linkage: f.linkage,
                });
                by_symbol[mi].insert(f.name.clone(), id);
                if f.linkage == Linkage::External {
                    external_def.entry(&f.name).or_insert(id);
                }
            }
        }
        let mut edges = Vec::new();
        let mut external_sites = vec![0u32; nodes.len()];
        let mut caller = 0usize;
        for (mi, m) in index.modules.iter().enumerate() {
            for f in &m.functions {
                for (callee, count) in &f.callees {
                    let target = by_symbol[mi]
                        .get(callee.as_str())
                        .or_else(|| external_def.get(callee.as_str()))
                        .copied();
                    match target {
                        Some(callee) => edges.push(CallEdge {
                            caller,
                            callee,
                            count: *count,
                        }),
                        None => external_sites[caller] += *count,
                    }
                }
                caller += 1;
            }
        }
        edges.sort_unstable_by_key(|e| (e.caller, e.callee));
        CallGraph {
            modules,
            nodes,
            edges,
            external_sites,
            by_symbol,
        }
    }

    /// Looks a node up by module index and symbol name.
    pub fn node_id(&self, module: usize, name: &str) -> Option<usize> {
        self.by_symbol.get(module)?.get(name).copied()
    }

    /// Number of nodes (defined functions).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of aggregated direct-call edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total static call sites resolved to an edge.
    pub fn num_resolved_sites(&self) -> u64 {
        self.edges.iter().map(|e| u64::from(e.count)).sum()
    }

    /// Total static call sites with no definition in the corpus.
    pub fn num_external_sites(&self) -> u64 {
        self.external_sites.iter().map(|&c| u64::from(c)).sum()
    }

    /// Per-function locality summaries, parallel to [`CallGraph::nodes`].
    pub fn locality(&self) -> Vec<Locality> {
        let mut out = vec![Locality::default(); self.nodes.len()];
        for e in &self.edges {
            if e.caller == e.callee {
                continue; // Self-calls move with the body.
            }
            let intra = self.nodes[e.caller].module == self.nodes[e.callee].module;
            if intra {
                out[e.caller].intra_callees += e.count;
                out[e.callee].intra_callers += e.count;
            } else {
                out[e.caller].cross_callees += e.count;
                out[e.callee].cross_callers += e.count;
            }
        }
        for (node, sites) in self.external_sites.iter().enumerate() {
            out[node].external_callees = *sites;
        }
        out
    }

    /// Strongly connected components via Tarjan's algorithm (iterative, so
    /// deep call chains cannot overflow the stack). Components come back in
    /// reverse topological order — every callee component before its callers —
    /// with each component's node list sorted ascending.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        // Adjacency as index ranges into `edges` (edges are caller-sorted).
        let mut first = vec![self.edges.len(); n + 1];
        for (i, e) in self.edges.iter().enumerate().rev() {
            first[e.caller] = i;
        }
        first[n] = self.edges.len();
        // Forward-fill gaps left by callers without outgoing edges.
        for i in (0..n).rev() {
            if first[i] > first[i + 1] {
                first[i] = first[i + 1];
            }
        }
        const UNVISITED: usize = usize::MAX;
        let mut index_of = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut components: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS frames: (node, iterator position into its successors).
        for root in 0..n {
            if index_of[root] != UNVISITED {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                if *pos == 0 {
                    index_of[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let mut advanced = false;
                let out = first[v]..first[v + 1];
                while first[v] + *pos < out.end {
                    let w = self.edges[out.start + *pos].callee;
                    *pos += 1;
                    if index_of[w] == UNVISITED {
                        frames.push((w, 0));
                        advanced = true;
                        break;
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index_of[w]);
                    }
                }
                if advanced {
                    continue;
                }
                // All successors done: close v.
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index_of[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
        components
    }

    /// The SCC condensation: component membership plus the deduplicated DAG
    /// between components.
    pub fn condensation(&self) -> Condensation {
        let components = self.sccs();
        let mut component_of = vec![0usize; self.nodes.len()];
        for (ci, members) in components.iter().enumerate() {
            for &node in members {
                component_of[node] = ci;
            }
        }
        let mut edges = BTreeSet::new();
        for e in &self.edges {
            let (a, b) = (component_of[e.caller], component_of[e.callee]);
            if a != b {
                edges.insert((a, b));
            }
        }
        Condensation {
            component_of,
            components,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::{parse_module, Module};

    fn named(text: &str, name: &str) -> Module {
        let mut m = parse_module(text).unwrap();
        m.name = name.to_string();
        m
    }

    fn diamond_corpus() -> Vec<Module> {
        // a: main -> helper (x2, local), helper -> ext_sink (external, no def)
        // b: entry_b -> shared@b (local), entry_b -> main@a (cross)
        // shared is defined externally in b AND c (ODR pair); c's worker calls
        // its own internal helper (same name as a's external one — no capture).
        let a = named(
            "define i32 @main(i32 %x) {\nentry:\n  %r = call i32 @helper(i32 %x)\n  %s = call i32 @helper(i32 %r)\n  ret i32 %s\n}\n\ndefine i32 @helper(i32 %x) {\nentry:\n  %r = call i32 @ext_sink(i32 %x)\n  ret i32 %r\n}",
            "a",
        );
        let b = named(
            "define i32 @entry_b(i32 %x) {\nentry:\n  %r = call i32 @shared(i32 %x)\n  %s = call i32 @main(i32 %r)\n  ret i32 %s\n}\n\ndefine i32 @shared(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}",
            "b",
        );
        let c = named(
            "define i32 @shared(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}\n\ndefine internal i32 @helper(i32 %x) {\nentry:\n  %r = sub i32 %x, 1\n  ret i32 %r\n}\n\ndefine i32 @worker(i32 %x) {\nentry:\n  %r = call i32 @helper(i32 %x)\n  ret i32 %r\n}",
            "c",
        );
        vec![a, b, c]
    }

    fn graph() -> CallGraph {
        CallGraph::resolve(&CorpusCallIndex::build(&diamond_corpus()))
    }

    #[test]
    fn resolution_prefers_own_module_then_first_external() {
        let g = graph();
        assert_eq!(g.num_nodes(), 7);
        // c's worker binds to c's *internal* helper, not a's external one.
        let worker = g.node_id(2, "worker").unwrap();
        let c_helper = g.node_id(2, "helper").unwrap();
        assert!(g
            .edges
            .iter()
            .any(|e| e.caller == worker && e.callee == c_helper));
        // b's entry_b binds shared to b's own copy and main to a's.
        let entry_b = g.node_id(1, "entry_b").unwrap();
        let b_shared = g.node_id(1, "shared").unwrap();
        let a_main = g.node_id(0, "main").unwrap();
        assert!(g
            .edges
            .iter()
            .any(|e| e.caller == entry_b && e.callee == b_shared));
        assert!(g
            .edges
            .iter()
            .any(|e| e.caller == entry_b && e.callee == a_main));
        // a's main calls helper twice: one edge, count 2.
        let a_helper = g.node_id(0, "helper").unwrap();
        let edge = g
            .edges
            .iter()
            .find(|e| e.caller == a_main && e.callee == a_helper)
            .unwrap();
        assert_eq!(edge.count, 2);
        // ext_sink has no definition: an external site, no edge.
        assert_eq!(g.num_external_sites(), 1);
        assert_eq!(g.num_resolved_sites(), 5);
    }

    #[test]
    fn locality_counts_static_sites_per_side() {
        let g = graph();
        let loc = g.locality();
        let a_helper = g.node_id(0, "helper").unwrap();
        assert_eq!(loc[a_helper].intra_callers, 2);
        assert_eq!(loc[a_helper].cross_callers, 0);
        assert_eq!(loc[a_helper].external_callees, 1);
        assert_eq!(loc[a_helper].coupling(), 2);
        let a_main = g.node_id(0, "main").unwrap();
        assert_eq!(loc[a_main].intra_callees, 2);
        assert_eq!(loc[a_main].cross_callers, 1);
        assert_eq!(loc[a_main].coupling(), 2);
        let b_entry = g.node_id(1, "entry_b").unwrap();
        assert_eq!(loc[b_entry].intra_callees, 1);
        assert_eq!(loc[b_entry].cross_callees, 1);
        assert_eq!(loc[b_entry].coupling(), 1);
    }

    #[test]
    fn self_calls_do_not_count_toward_coupling() {
        let m = named(
            "define i32 @rec(i32 %x) {\nentry:\n  %r = call i32 @rec(i32 %x)\n  ret i32 %r\n}",
            "m",
        );
        let g = CallGraph::resolve(&CorpusCallIndex::build(&[m]));
        assert_eq!(g.num_edges(), 1, "the self-edge itself is kept");
        let loc = g.locality();
        assert_eq!(loc[0], Locality::default());
    }

    #[test]
    fn condensation_orders_callees_before_callers() {
        let g = graph();
        let cond = g.condensation();
        assert_eq!(cond.components.len(), g.num_nodes(), "no cycles here");
        // Reverse topological: every edge goes from a later component to an
        // earlier one.
        for (caller_c, callee_c) in &cond.edges {
            assert!(caller_c > callee_c, "{caller_c} -> {callee_c}");
        }
    }
}
