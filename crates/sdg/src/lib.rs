#![warn(missing_docs)]

//! # thinslice-sdg — dependence graphs for MJ
//!
//! Builds the (partial) system dependence graph the slicers traverse
//! (paper §5.1). Two heap-handling modes exist, matching the paper:
//!
//! * [`build_ci`] — **direct heap edges** (`HeapMode::DirectEdges`): a field
//!   load depends directly on every may-aliased store, program-wide. This
//!   is the scalable representation used by the context-insensitive thin
//!   and traditional slicers (§5.2).
//! * [`build_cs`] — **heap parameters** (`HeapMode::Parameters`): heap state
//!   is threaded through formal/actual in/out nodes per heap partition,
//!   computed from an interprocedural mod-ref analysis (§5.3). This is the
//!   representation whose size explodes on large programs.
//!
//! Every edge is labelled ([`EdgeKind`]) so one graph serves all four
//! slicers: thin slicers skip base-pointer flow edges and control edges;
//! traditional slicers follow everything.
//!
//! # Examples
//!
//! ```
//! use thinslice_ir::compile;
//! use thinslice_pta::{Pta, PtaConfig};
//! use thinslice_sdg::build_ci;
//!
//! let program = compile(&[(
//!     "t.mj",
//!     "class Main { static void main() { int x = 1; print(x); } }",
//! )]).unwrap();
//! let pta = Pta::analyze(&program, PtaConfig::default());
//! let sdg = build_ci(&program, &pta);
//! assert!(sdg.node_count() > 0);
//! ```

pub mod builder;
pub mod cache;
pub mod control;
pub mod csr;
pub mod fingerprint;
pub mod heap_params;
mod height;
pub mod node;
pub mod snap;
pub mod stats;

pub use builder::{build_ci, build_ci_cached};
pub use cache::SdgCache;
pub use csr::{DepGraph, DownConsumers, FrozenSdg, NO_DISPLAY};
pub use fingerprint::body_fingerprint;
pub use heap_params::{build_cs, build_cs_cached};
pub use node::{Edge, EdgeKind, NodeId, NodeKind, SliceKind};
pub use stats::SdgStats;

use thinslice_ir::{MethodId, StmtRef};
use thinslice_pta::CgNode;
use thinslice_util::FxHashMap;
use thinslice_util::IdxVec;

/// How heap-based value flow is represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapMode {
    /// Direct store→load edges (context-insensitive slicing; scalable).
    DirectEdges,
    /// Formal/actual heap parameter nodes (context-sensitive slicing).
    Parameters,
}

/// A dependence graph over statements and parameter nodes.
///
/// Edges are stored on the dependent node and point at its dependencies —
/// the direction the paper's Figure 3 draws, so backward slicing is plain
/// reachability along stored edges.
#[derive(Debug, Clone)]
pub struct Sdg {
    mode: HeapMode,
    nodes: IdxVec<NodeId, NodeKind>,
    node_of: FxHashMap<NodeKind, NodeId>,
    deps: IdxVec<NodeId, Vec<Edge>>,
    /// All instance nodes of a statement (one per analysed clone).
    nodes_of_stmt: FxHashMap<StmtRef, Vec<NodeId>>,
    /// Method of each instance, learned from its statement nodes.
    method_of_inst: FxHashMap<CgNode, MethodId>,
    edge_count: usize,
}

impl Sdg {
    /// Creates an empty graph in the given heap mode.
    pub fn empty(mode: HeapMode) -> Sdg {
        Sdg {
            mode,
            nodes: IdxVec::new(),
            node_of: FxHashMap::default(),
            deps: IdxVec::new(),
            nodes_of_stmt: FxHashMap::default(),
            method_of_inst: FxHashMap::default(),
            edge_count: 0,
        }
    }

    /// The graph's heap mode.
    pub fn mode(&self) -> HeapMode {
        self.mode
    }

    /// Interns a node, creating it if needed.
    pub fn intern(&mut self, kind: NodeKind) -> NodeId {
        if let Some(&n) = self.node_of.get(&kind) {
            return n;
        }
        let n = self.nodes.push(kind);
        self.node_of.insert(kind, n);
        self.deps.push(Vec::new());
        if let NodeKind::Stmt(inst, s) = kind {
            self.nodes_of_stmt.entry(s).or_default().push(n);
            self.method_of_inst.entry(inst).or_insert(s.method);
        }
        n
    }

    /// Looks up a node without creating it.
    pub fn find_node(&self, kind: NodeKind) -> Option<NodeId> {
        self.node_of.get(&kind).copied()
    }

    /// All instance nodes of a statement (empty if unreachable).
    pub fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId] {
        self.nodes_of_stmt.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Some instance node of a statement, if the statement is reachable.
    /// Prefer [`Sdg::stmt_nodes_of`] when all clones matter (seeds do).
    pub fn stmt_node(&self, s: StmtRef) -> Option<NodeId> {
        self.stmt_nodes_of(s).first().copied()
    }

    /// The statement a node is *displayed as* when it appears in a slice:
    /// actual-parameter and heap actual-in/out nodes belong to their call
    /// statement (reaching an argument slot means the user inspects the
    /// call line — e.g. `names.add(firstName)` in the paper's Figure 1
    /// thin slice).
    pub fn display_stmt(&self, n: NodeId) -> Option<StmtRef> {
        let kind = self.nodes[n];
        match kind.site() {
            Some(site) => self.nodes[site].as_stmt(),
            None => kind.as_stmt(),
        }
    }

    /// The kind of a node.
    pub fn node(&self, n: NodeId) -> NodeKind {
        self.nodes[n]
    }

    /// Adds a dependence edge from `from` onto `edge.target` (deduplicated).
    pub fn add_edge(&mut self, from: NodeId, edge: Edge) {
        if self.deps[from].contains(&edge) {
            return;
        }
        self.deps[from].push(edge);
        self.edge_count += 1;
    }

    /// The dependencies of `n`.
    pub fn deps(&self, n: NodeId) -> &[Edge] {
        &self.deps[n]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeKind)> + '_ {
        self.nodes.iter_enumerated()
    }

    /// Iterates over statement nodes only.
    pub fn stmt_nodes(&self) -> impl Iterator<Item = (NodeId, StmtRef)> + '_ {
        self.nodes
            .iter_enumerated()
            .filter_map(|(n, k)| k.as_stmt().map(|s| (n, s)))
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of method instances (call-graph clones) with nodes in the
    /// graph — the CSR segment count for incremental accounting.
    pub fn instance_count(&self) -> usize {
        self.method_of_inst.len()
    }

    /// The method a node belongs to (call-site nodes belong to the caller).
    pub fn method_of(&self, n: NodeId) -> MethodId {
        match self.nodes[n] {
            NodeKind::Stmt(_, s) => s.method,
            NodeKind::ActualParam(site, _)
            | NodeKind::ActualIn(site, _)
            | NodeKind::ActualOut(site, _) => self.method_of(site),
            NodeKind::Entry(i)
            | NodeKind::FormalParam(i, _)
            | NodeKind::RetMerge(i)
            | NodeKind::FormalIn(i, _)
            | NodeKind::FormalOut(i, _)
            | NodeKind::MethodHeap(i, _) => self.instance_method(i),
        }
    }

    /// The instance a node belongs to, when it has one.
    pub fn instance_of(&self, n: NodeId) -> Option<CgNode> {
        match self.nodes[n] {
            NodeKind::Stmt(i, _)
            | NodeKind::Entry(i)
            | NodeKind::FormalParam(i, _)
            | NodeKind::RetMerge(i)
            | NodeKind::FormalIn(i, _)
            | NodeKind::FormalOut(i, _)
            | NodeKind::MethodHeap(i, _) => Some(i),
            NodeKind::ActualParam(site, _)
            | NodeKind::ActualIn(site, _)
            | NodeKind::ActualOut(site, _) => self.instance_of(site),
        }
    }

    fn instance_method(&self, inst: CgNode) -> MethodId {
        // Statement nodes are interned before any parameter/entry node of
        // their instance, so the map is always populated by then.
        *self
            .method_of_inst
            .get(&inst)
            .expect("instance has statements")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{BlockId, Loc};

    fn stmt(m: u32, i: u32) -> NodeKind {
        NodeKind::Stmt(
            CgNode::new(0),
            StmtRef {
                method: MethodId::new(m as usize),
                loc: Loc {
                    block: BlockId::new(0),
                    index: i,
                },
            },
        )
    }

    #[test]
    fn intern_is_idempotent() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let a = g.intern(stmt(0, 0));
        let b = g.intern(stmt(0, 0));
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn edges_dedup() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let a = g.intern(stmt(0, 0));
        let b = g.intern(stmt(0, 1));
        let e = Edge {
            target: b,
            kind: EdgeKind::Control,
        };
        g.add_edge(a, e);
        g.add_edge(a, e);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.deps(a), &[e]);
        // A different kind between the same nodes is a distinct edge.
        g.add_edge(
            a,
            Edge {
                target: b,
                kind: EdgeKind::Flow {
                    excluded_from_thin: false,
                },
            },
        );
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn method_of_follows_node_kind() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let n = g.intern(stmt(3, 0));
        assert_eq!(g.method_of(n), MethodId::new(3));
        assert_eq!(g.instance_of(n), Some(CgNode::new(0)));
    }

    #[test]
    fn stmt_nodes_of_collects_clones() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let sr = StmtRef {
            method: MethodId::new(1),
            loc: Loc {
                block: BlockId::new(0),
                index: 0,
            },
        };
        let a = g.intern(NodeKind::Stmt(CgNode::new(0), sr));
        let b = g.intern(NodeKind::Stmt(CgNode::new(1), sr));
        assert_eq!(g.stmt_nodes_of(sr), &[a, b]);
        assert_eq!(g.display_stmt(a), Some(sr));
        assert_eq!(g.display_stmt(b), Some(sr));
    }
}
