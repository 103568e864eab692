//! A frozen, compressed-sparse-row view of a built dependence graph.
//!
//! [`Sdg`] is built incrementally: each node owns a `Vec<Edge>`, so a BFS
//! hops between heap allocations. Once construction is done the graph is
//! immutable for the whole query phase, which makes the classic CSR layout
//! pay off: one contiguous edge array plus an offset array per node. All
//! slicers traverse the graph through the [`DepGraph`] trait, so they run
//! unchanged over either representation.
//!
//! [`Sdg::freeze`] is a straight copy: frozen node `i` is growable node
//! `i`, and each node's edges keep their order, so a slice over either
//! graph — statement order included — is bit-for-bit identical.
//!
//! A frozen graph has four primary arrays: the heap mode, the CSR
//! `offsets` and `edges`, and the node `kinds`. Everything else it holds —
//! the dense display-statement numbering, in ascending statement order,
//! and the statement → instance-node map — is derived from them by one
//! constructor that both [`Sdg::freeze`] and the snapshot decoder end in,
//! so a snapshot stores only the primary arrays.
//!
//! A session keeps only frozen graphs: it builds a growable graph, freezes
//! it and drops it. An edit rebuilds the growable graph and asks
//! [`FrozenSdg::is_freeze_of`] whether the kept frozen graph is what
//! freezing it would give; if so, the kept graph stays, with everything
//! cached on it.

use crate::node::{Edge, EdgeKind, NodeId, NodeKind, SliceKind};
use crate::{HeapMode, Sdg};
use std::sync::{Arc, OnceLock};
use thinslice_ir::StmtRef;
use thinslice_util::{FxHashSet, Idx, RunCtx};

/// The read-only graph surface the slicers need.
///
/// Implemented by the growable [`Sdg`] and the frozen [`FrozenSdg`]; query
/// code is generic over this trait and never notices which one it walks.
pub trait DepGraph {
    /// Total node count; node ids are dense in `0..node_count()`.
    fn node_count(&self) -> usize;

    /// The dependencies of `n`, in insertion order.
    fn deps(&self, n: NodeId) -> &[Edge];

    /// The kind of a node.
    fn node(&self, n: NodeId) -> NodeKind;

    /// The statement a node is displayed as in a slice (see
    /// [`Sdg::display_stmt`]).
    fn display_stmt(&self, n: NodeId) -> Option<StmtRef>;

    /// All instance nodes of a statement (empty if unreachable).
    fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId];

    /// The graph's heap mode.
    fn mode(&self) -> HeapMode;
}

impl DepGraph for Sdg {
    fn node_count(&self) -> usize {
        Sdg::node_count(self)
    }

    fn deps(&self, n: NodeId) -> &[Edge] {
        Sdg::deps(self, n)
    }

    fn node(&self, n: NodeId) -> NodeKind {
        Sdg::node(self, n)
    }

    fn display_stmt(&self, n: NodeId) -> Option<StmtRef> {
        Sdg::display_stmt(self, n)
    }

    fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId] {
        Sdg::stmt_nodes_of(self, s)
    }

    fn mode(&self) -> HeapMode {
        Sdg::mode(self)
    }
}

/// A dependence graph frozen into compressed-sparse-row arrays.
///
/// `edges[offsets[n] .. offsets[n + 1]]` are the dependencies of node `n`,
/// in exactly the order [`Sdg::deps`] returned them. Node kinds and dense
/// display-statement ids are likewise flattened into arrays, so a
/// backward BFS touches only contiguous memory. The frozen graph is
/// immutable and safe to share across threads ([`Sync`]), which is what
/// the batched query engine relies on.
///
/// # Examples
///
/// ```
/// use thinslice_ir::compile;
/// use thinslice_pta::{Pta, PtaConfig};
/// use thinslice_sdg::{build_ci, DepGraph};
///
/// let program = compile(&[(
///     "t.mj",
///     "class Main { static void main() { int x = 1; print(x); } }",
/// )]).unwrap();
/// let pta = Pta::analyze(&program, PtaConfig::default());
/// let sdg = build_ci(&program, &pta);
/// let frozen = sdg.freeze();
/// assert_eq!(frozen.node_count(), sdg.node_count());
/// assert!(frozen.is_freeze_of(&sdg));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenSdg {
    pub(crate) mode: HeapMode,
    /// CSR row offsets; `offsets.len() == node_count + 1`.
    pub(crate) offsets: Vec<u32>,
    /// All edges, grouped by source node, per-node order preserved.
    pub(crate) edges: Vec<Edge>,
    /// Node kinds, indexed by `NodeId`.
    pub(crate) kinds: Vec<NodeKind>,
    // The fields below are derived from the ones above by
    // `FrozenSdg::from_parts`.
    /// Dense id of each node's display statement ([`NO_DISPLAY`] if none).
    display_idx: Vec<u32>,
    /// The distinct display statements, ascending, indexed by their dense
    /// id: the statements of the statement nodes. Shared with every
    /// answer that names statements by dense id
    /// ([`FrozenSdg::stmt_table`]).
    display_stmts: Arc<[StmtRef]>,
    /// The instance nodes of statement `i`, ascending, are
    /// `stmt_nodes[stmt_starts[i]..stmt_starts[i + 1]]`: seed resolution.
    stmt_starts: Vec<u32>,
    stmt_nodes: Vec<NodeId>,
    /// How many method instances have statement nodes
    /// ([`FrozenSdg::instance_count`]).
    instances: usize,
    /// Lazily built [`DownConsumers`] index (a pure graph fact, so it is
    /// cached on the graph and shared by every batch and thread).
    pub(crate) down: OnceLock<DownConsumers>,
    /// Lazily built dependence heights, one table per [`SliceKind`]
    /// ([`FrozenSdg::heights`]).
    heights: [OnceLock<Vec<u32>>; 3],
}

/// Sentinel dense id for nodes without a display statement.
pub const NO_DISPLAY: u32 = u32::MAX;

impl FrozenSdg {
    /// Builds a frozen graph from its primary arrays and derives the rest:
    /// each statement's instance nodes, the dense numbering of display
    /// statements, in ascending statement order, and the instance count.
    ///
    /// The arrays must fit together: `offsets` a CSR over `edges` with one
    /// row per kind, and every node id in an edge or a kind below the node
    /// count. The snapshot decoder checks this before it calls here.
    pub(crate) fn from_parts(
        mode: HeapMode,
        offsets: Vec<u32>,
        edges: Vec<Edge>,
        kinds: Vec<NodeKind>,
    ) -> FrozenSdg {
        // Every statement node under its statement, sorted: one run of
        // ascending nodes per statement, the runs in statement order.
        let mut pairs: Vec<(StmtRef, NodeId)> = kinds
            .iter()
            .enumerate()
            .filter_map(|(i, kind)| Some((kind.as_stmt()?, NodeId::new(i))))
            .collect();
        pairs.sort_unstable();
        // `slot[n]` is the dense id of statement node `n`'s statement, and
        // `NO_DISPLAY` for any other node.
        let mut slot = vec![NO_DISPLAY; kinds.len()];
        let mut display_stmts = Vec::new();
        let mut stmt_starts = Vec::new();
        for (i, &(s, n)) in pairs.iter().enumerate() {
            if display_stmts.last() != Some(&s) {
                display_stmts.push(s);
                stmt_starts.push(i as u32);
            }
            slot[n.index()] =
                u32::try_from(display_stmts.len() - 1).expect("stmt count exceeds u32");
        }
        stmt_starts.push(u32::try_from(pairs.len()).expect("node count exceeds u32"));
        // A node displays as its own statement, or an actual node as its
        // call site's.
        let display_idx = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| slot[kind.site().map_or(i, NodeId::index)])
            .collect();
        let instances = (kinds.iter())
            .filter_map(|kind| match kind {
                NodeKind::Stmt(inst, _) => Some(*inst),
                _ => None,
            })
            .collect::<FxHashSet<_>>()
            .len();
        FrozenSdg {
            mode,
            offsets,
            edges,
            kinds,
            display_idx,
            display_stmts: display_stmts.into(),
            stmt_starts,
            stmt_nodes: pairs.into_iter().map(|(_, n)| n).collect(),
            instances,
            down: OnceLock::new(),
            heights: Default::default(),
        }
    }

    /// Whether this graph is what freezing `sdg` gives: the same heap
    /// mode, the same node kinds in id order, and each node's row the
    /// node's dependence list in order. Every answer is a function of
    /// these primary arrays, so an edit whose rebuilt graph passes keeps
    /// this frozen graph and everything cached on it.
    pub fn is_freeze_of(&self, sdg: &Sdg) -> bool {
        self.mode == sdg.mode
            && self.kinds == sdg.nodes.as_slice()
            && (sdg.deps.iter_enumerated()).all(|(n, row)| self.deps(n) == row.as_slice())
    }

    /// Number of method instances (call-graph clones) with statement
    /// nodes in the graph, as [`Sdg::instance_count`] counts them: the
    /// CSR segment count of incremental accounting. Counted once, when
    /// the graph is frozen or decoded.
    pub fn instance_count(&self) -> usize {
        self.instances
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Some instance node of a statement, if the statement is reachable.
    pub fn stmt_node(&self, s: StmtRef) -> Option<NodeId> {
        self.stmt_nodes_of(s).first().copied()
    }

    /// The graph's [`DownConsumers`] index, built on first use and cached
    /// for the life of the frozen graph.
    pub fn down_consumers(&self) -> &DownConsumers {
        self.down.get_or_init(|| DownConsumers::build(self))
    }

    /// Each node's dependence height for `kind`, indexed by node id: the
    /// longest path, counted in strongly connected components, from the
    /// node's component to a component with no outgoing edge, over the
    /// edges `kind` follows (the graph's own edges: a context-sensitive
    /// graph's summary edges live outside it). A backward slice from a
    /// node of height `h` reaches its deepest producers about `h` BFS
    /// levels down, so the batch engine walks queries of close height
    /// together.
    ///
    /// Built on first use by one iterative Tarjan pass, which recurses on
    /// nothing, and cached for the life of the frozen graph, so a graph
    /// that replaces this one starts without it. Snapshots do not store
    /// it.
    pub fn heights(&self, kind: SliceKind) -> &[u32] {
        self.heights[kind as usize].get_or_init(|| crate::height::heights(self, kind))
    }

    /// The dense id of `n`'s display statement, or [`NO_DISPLAY`].
    ///
    /// A slice's statement set is the set of display statements of its
    /// visited nodes. Deduplicating those through a hash set is the hottest
    /// per-node operation of a big BFS; the frozen graph instead numbers the
    /// distinct display statements densely, in ascending statement order,
    /// so a traversal dedups with a bit set over the ids of
    /// [`FrozenSdg::stmt_table`], and sorting dense ids sorts statements.
    /// `display_dense(n)` is [`NO_DISPLAY`] exactly when
    /// [`DepGraph::display_stmt`] is `None`, and
    /// `stmt_table()[display_dense(n)]` is the statement otherwise.
    pub fn display_dense(&self, n: NodeId) -> u32 {
        self.display_idx[n.index()]
    }

    /// The distinct display statements, ascending, indexed by dense id.
    /// An answer that lists dense ids keeps this table alive, so it
    /// outlives the graph it came from.
    pub fn stmt_table(&self) -> &Arc<[StmtRef]> {
        &self.display_stmts
    }
}

/// The call-return index demand-driven tabulation needs: `(call site,
/// callee exit)` → caller-side consumer nodes, i.e. an index of every
/// `ParamOut` edge. A pure graph fact, so it can be shared across any
/// number of queries and threads; [`FrozenSdg::down_consumers`] caches one
/// per frozen graph.
///
/// Stored as sorted key groups rather than a hash map: building is one
/// collect + sort with no per-entry allocation (the build used to cost
/// more than the small queries it served), and the lookup — a binary
/// search, only on the hit path of a tabulation ascent — is rare enough
/// that hashing never paid for its setup.
#[derive(Debug, Clone, Default)]
pub struct DownConsumers {
    /// Distinct `(site, exit)` keys, sorted.
    pub(crate) keys: Vec<(NodeId, NodeId)>,
    /// `consumers[offsets[i]..offsets[i + 1]]` = consumers of `keys[i]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) consumers: Vec<NodeId>,
}

impl DownConsumers {
    /// Scans `sdg` and indexes all `ParamOut` edges.
    pub fn build<G: DepGraph + ?Sized>(sdg: &G) -> DownConsumers {
        let mut triples: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        for n in (0..sdg.node_count()).map(NodeId::from_usize) {
            for e in sdg.deps(n) {
                if let EdgeKind::ParamOut { site } = e.kind {
                    triples.push((site, e.target, n));
                }
            }
        }
        triples.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut consumers = Vec::with_capacity(triples.len());
        for (site, exit, consumer) in triples {
            if keys.last() != Some(&(site, exit)) {
                keys.push((site, exit));
                offsets.push(consumers.len() as u32);
            }
            consumers.push(consumer);
        }
        offsets.push(consumers.len() as u32);
        DownConsumers {
            keys,
            offsets,
            consumers,
        }
    }

    /// The consumers that descend into `exit` at call site `site`.
    pub fn get(&self, site: NodeId, exit: NodeId) -> Option<&[NodeId]> {
        let i = self.keys.binary_search(&(site, exit)).ok()?;
        Some(&self.consumers[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Every callee exit some consumer descends into, ascending, each once.
    pub fn exits(&self) -> Vec<NodeId> {
        let mut exits: Vec<NodeId> = self.keys.iter().map(|&(_, exit)| exit).collect();
        exits.sort_unstable();
        exits.dedup();
        exits
    }
}

impl DepGraph for FrozenSdg {
    fn node_count(&self) -> usize {
        self.kinds.len()
    }

    fn deps(&self, n: NodeId) -> &[Edge] {
        let i = n.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn node(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    fn display_stmt(&self, n: NodeId) -> Option<StmtRef> {
        let d = self.display_idx[n.index()];
        (d != NO_DISPLAY).then(|| self.display_stmts[d as usize])
    }

    fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId] {
        self.display_stmts.binary_search(&s).map_or(&[], |k| {
            &self.stmt_nodes[self.stmt_starts[k] as usize..self.stmt_starts[k + 1] as usize]
        })
    }

    fn mode(&self) -> HeapMode {
        self.mode
    }
}

impl Sdg {
    /// Like [`Sdg::freeze`], but under a [`RunCtx`]: the freeze is recorded
    /// as a `sdg.freeze` span with a `sdg.csr_edges` counter and gauge.
    /// With a disabled context this is exactly [`Sdg::freeze`].
    pub fn freeze_ctx(&self, ctx: &RunCtx) -> FrozenSdg {
        let tel = ctx.telemetry();
        let csr = {
            let mut span = tel.span("sdg.freeze");
            let csr = self.freeze();
            span.add("sdg.csr_edges", csr.edge_count() as u64);
            csr
        };
        tel.gauge("sdg.csr_edges", csr.edge_count() as u64);
        csr
    }

    /// Freezes the graph into its CSR form: frozen node `i` is node `i`
    /// of `self`, with its dependence list in the same order, so
    /// traversals over the frozen graph visit the same nodes in the same
    /// order as over `self` and report identical results.
    pub fn freeze(&self) -> FrozenSdg {
        let mut offsets = Vec::with_capacity(Sdg::node_count(self) + 1);
        let mut edges = Vec::with_capacity(self.edge_count());
        offsets.push(0);
        for row in self.deps.iter() {
            edges.extend_from_slice(row);
            offsets.push(u32::try_from(edges.len()).expect("edge count exceeds u32"));
        }
        let kinds = self.nodes.as_slice().to_vec();
        FrozenSdg::from_parts(Sdg::mode(self), offsets, edges, kinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{BlockId, Loc, MethodId};
    use thinslice_pta::CgNode;

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
    fn freeze_preserves_nodes_edges_and_order() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let a = g.intern(stmt(0, 0));
        let b = g.intern(stmt(0, 1));
        let c = g.intern(stmt(0, 2));
        // Two edges out of `a` in a deliberate order, one out of `c`.
        g.add_edge(
            a,
            Edge {
                target: c,
                kind: EdgeKind::Control,
            },
        );
        g.add_edge(
            a,
            Edge {
                target: b,
                kind: EdgeKind::Flow {
                    excluded_from_thin: false,
                },
            },
        );
        g.add_edge(
            c,
            Edge {
                target: b,
                kind: EdgeKind::Call,
            },
        );

        let f = g.freeze();
        assert_eq!(DepGraph::node_count(&f), Sdg::node_count(&g));
        assert_eq!(f.edge_count(), g.edge_count());
        for (id, _) in g.nodes() {
            // Every node keeps its id, kind, display statement, and
            // dependence list in the original order.
            assert_eq!(DepGraph::deps(&f, id), Sdg::deps(&g, id), "edges at {id:?}");
            assert_eq!(DepGraph::node(&f, id), Sdg::node(&g, id));
            assert_eq!(DepGraph::display_stmt(&f, id), Sdg::display_stmt(&g, id));
        }
        assert_eq!(DepGraph::mode(&f), HeapMode::DirectEdges);
    }

    #[test]
    fn freeze_preserves_stmt_node_mapping() {
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
        let f = g.freeze();
        assert_eq!(DepGraph::stmt_nodes_of(&f, sr), &[a, b]);
        assert_eq!(f.stmt_node(sr), Some(a));
    }

    #[test]
    fn dense_display_is_consistent_with_display_stmt() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        // Two clones of the same statement share a dense id; distinct
        // statements get distinct ids.
        let sr0 = StmtRef {
            method: MethodId::new(0),
            loc: Loc {
                block: BlockId::new(0),
                index: 0,
            },
        };
        g.intern(NodeKind::Stmt(CgNode::new(0), sr0));
        g.intern(NodeKind::Stmt(CgNode::new(1), sr0));
        g.intern(stmt(0, 1));
        let f = g.freeze();
        assert_eq!(f.stmt_table().len(), 2);
        let mut seen = std::collections::HashSet::new();
        for (id, _) in g.nodes() {
            let dense = f.display_dense(id);
            match DepGraph::display_stmt(&f, id) {
                None => assert_eq!(dense, NO_DISPLAY),
                Some(s) => {
                    assert_ne!(dense, NO_DISPLAY);
                    assert_eq!(f.stmt_table()[dense as usize], s);
                    seen.insert(dense);
                }
            }
        }
        assert_eq!(seen.len(), f.stmt_table().len());
    }

    #[test]
    fn empty_graph_freezes() {
        let g = Sdg::empty(HeapMode::Parameters);
        let f = g.freeze();
        assert_eq!(DepGraph::node_count(&f), 0);
        assert_eq!(f.edge_count(), 0);
        assert_eq!(DepGraph::mode(&f), HeapMode::Parameters);
    }
}
