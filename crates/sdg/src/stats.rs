//! SDG size statistics, used by Table 1 and the scalability experiment.

use crate::node::{NodeId, NodeKind};
use crate::DepGraph;

/// Node/edge counts of one dependence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdgStats {
    /// Total nodes.
    pub nodes: usize,
    /// Nodes that are real statements (the paper's "SDG statements, but
    /// excluding parameter passing statements introduced to model the
    /// heap").
    pub stmt_nodes: usize,
    /// Parameter-passing nodes for ordinary params/returns.
    pub param_nodes: usize,
    /// Heap-parameter nodes (formal/actual in/out + aggregators) — the
    /// explosion source in context-sensitive mode.
    pub heap_param_nodes: usize,
    /// Total edges.
    pub edges: usize,
}

impl SdgStats {
    /// Computes statistics for `graph`, growable or frozen.
    pub fn compute<G: DepGraph + ?Sized>(graph: &G) -> SdgStats {
        let mut stmt_nodes = 0;
        let mut param_nodes = 0;
        let mut heap_param_nodes = 0;
        let mut edges = 0;
        for n in (0..graph.node_count()).map(NodeId::new) {
            edges += graph.deps(n).len();
            match graph.node(n) {
                NodeKind::Stmt(..) => stmt_nodes += 1,
                NodeKind::FormalParam(..) | NodeKind::ActualParam(..) | NodeKind::RetMerge(_) => {
                    param_nodes += 1
                }
                NodeKind::FormalIn(..)
                | NodeKind::FormalOut(..)
                | NodeKind::ActualIn(..)
                | NodeKind::ActualOut(..)
                | NodeKind::MethodHeap(..) => heap_param_nodes += 1,
                NodeKind::Entry(_) => {}
            }
        }
        SdgStats {
            nodes: graph.node_count(),
            stmt_nodes,
            param_nodes,
            heap_param_nodes,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_ci, build_cs};
    use thinslice_ir::compile;
    use thinslice_pta::{ModRef, Pta, PtaConfig};

    #[test]
    fn cs_heap_param_nodes_dominate_growth() {
        let p = compile(&[(
            "t.mj",
            "class Main { static void main() {
                Vector v = new Vector();
                v.add(new Main());
                Object o = v.get(0);
            } }",
        )])
        .unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let ci_sdg = build_ci(&p, &pta);
        let ci = SdgStats::compute(&ci_sdg);
        assert_eq!(SdgStats::compute(&ci_sdg.freeze()), ci, "frozen = growable");
        assert_eq!(ci.edges, ci_sdg.edge_count());
        let modref = ModRef::compute(&p, &pta);
        let cs = SdgStats::compute(&build_cs(&p, &pta, &modref));
        assert_eq!(ci.heap_param_nodes, 0);
        assert!(cs.heap_param_nodes > 0);
        assert_eq!(
            ci.stmt_nodes, cs.stmt_nodes,
            "same statements in both modes"
        );
        assert!(cs.nodes > ci.nodes);
    }
}
