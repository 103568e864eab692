//! Dependence-graph nodes and edges.
//!
//! Nodes are keyed by call-graph *instance* ([`CgNode`]: method × analysis
//! context), not by method: a container method cloned per receiver object
//! contributes one set of statement nodes per clone, exactly like the SDG
//! the paper derives from WALA's cloned call graph. This is what makes the
//! object-sensitivity comparison (`NoObjSens` columns of Tables 2–3)
//! meaningful: without cloning, one `Vector.get` node serves every vector
//! in the program and the slicer wades through all their clients.

use thinslice_ir::StmtRef;
use thinslice_pta::{CgNode, PartId};
use thinslice_util::new_index;

new_index!(
    /// Identifies a node in an [`crate::Sdg`].
    pub struct NodeId
);

/// What a dependence-graph node stands for.
///
/// Only statement-backed nodes are *counted* by the inspection metric;
/// parameter/entry/heap nodes are traversed silently. Actual-parameter and
/// heap actual-in/out nodes carry the [`NodeId`] of their call statement so
/// they display as the call line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A real IR statement in one method instance.
    Stmt(CgNode, StmtRef),
    /// A method-instance entry (anchor for interprocedural control).
    Entry(CgNode),
    /// Formal parameter `index` of an instance (0 = `this`).
    FormalParam(CgNode, u32),
    /// Actual argument `index` at a call site (the call statement's node).
    ActualParam(NodeId, u32),
    /// The merged return value of a method instance.
    RetMerge(CgNode),
    /// Heap partition flowing *into* an instance (context-sensitive mode).
    FormalIn(CgNode, PartId),
    /// Heap partition flowing *out of* an instance (context-sensitive mode).
    FormalOut(CgNode, PartId),
    /// Heap partition state entering a call site (context-sensitive mode).
    ActualIn(NodeId, PartId),
    /// Heap partition state leaving a call site (context-sensitive mode).
    ActualOut(NodeId, PartId),
    /// Aggregator for a heap partition's definitions within one instance
    /// (context-sensitive mode).
    MethodHeap(CgNode, PartId),
}

impl NodeKind {
    /// The statement directly behind the node, if it is one.
    pub fn as_stmt(&self) -> Option<StmtRef> {
        match self {
            NodeKind::Stmt(_, s) => Some(*s),
            _ => None,
        }
    }

    /// The call-site node an actual-parameter or heap actual-in/out node
    /// belongs to.
    pub(crate) fn site(&self) -> Option<NodeId> {
        match *self {
            NodeKind::ActualParam(site, _)
            | NodeKind::ActualIn(site, _)
            | NodeKind::ActualOut(site, _) => Some(site),
            _ => None,
        }
    }
}

/// A dependence edge, stored on the *dependent* node and pointing at what it
/// depends on (the paper's Figure 3 draws edges in this direction, so
/// slicing is plain reachability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The dependency (producer side).
    pub target: NodeId,
    /// Classification.
    pub kind: EdgeKind,
}

/// Dependence-edge classification.
///
/// Thin slices follow only `Flow { excluded_from_thin: false }` and the
/// parameter-passing edges; everything else is an *explainer* edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A (possibly heap-based) flow dependence. `excluded_from_thin` marks
    /// base-pointer and array-index uses — the dependences a thin slice
    /// ignores (paper §3).
    Flow {
        /// True for base-pointer and array-index flow dependences.
        excluded_from_thin: bool,
    },
    /// Intra-method control dependence (to the controlling branch) or the
    /// method-entry membership edge.
    Control,
    /// Interprocedural control: method entry → call site invoking it.
    Call,
    /// Ascend from a formal (param or heap in) to the matching actual at
    /// `site` — callee to caller.
    ParamIn {
        /// The call statement node this binding belongs to.
        site: NodeId,
    },
    /// Descend from a caller-side consumer (call result, actual-out) to the
    /// callee's exit (return merge, formal-out) at `site`.
    ParamOut {
        /// The call statement node this binding belongs to.
        site: NodeId,
    },
    /// A summary edge (actual-out → actual-in), inserted during
    /// context-sensitive tabulation.
    Summary,
}

impl EdgeKind {
    /// Whether a thin slicer follows this edge.
    pub fn in_thin_slice(&self) -> bool {
        match self {
            EdgeKind::Flow { excluded_from_thin } => !excluded_from_thin,
            EdgeKind::ParamIn { .. } | EdgeKind::ParamOut { .. } | EdgeKind::Summary => true,
            EdgeKind::Control | EdgeKind::Call => false,
        }
    }

    /// Whether a traditional (full) slicer follows this edge.
    pub fn in_traditional_slice(&self) -> bool {
        true
    }

    /// Whether a traditional *data* slicer (no control dependence, as in the
    /// paper's experimental configuration) follows this edge.
    pub fn in_data_slice(&self) -> bool {
        !matches!(self, EdgeKind::Control | EdgeKind::Call)
    }
}

/// Which dependence relation a slice follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceKind {
    /// Producer flow dependences only: no base-pointer/array-index flow, no
    /// control dependence. The paper's contribution (§2–3).
    Thin,
    /// All flow dependences (including base pointers) but no control
    /// dependence — the "traditional data slicer" configuration the paper
    /// evaluates against (§6.1 handles control dependence out of band).
    TraditionalData,
    /// Everything, including control and interprocedural control (Call)
    /// edges: Weiser-style full relevance.
    TraditionalFull,
}

impl SliceKind {
    /// Whether this slice follows `kind`-labelled edges.
    pub fn follows(&self, kind: &EdgeKind) -> bool {
        match self {
            SliceKind::Thin => kind.in_thin_slice(),
            SliceKind::TraditionalData => kind.in_data_slice(),
            SliceKind::TraditionalFull => kind.in_traditional_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_classification() {
        assert!(EdgeKind::Flow {
            excluded_from_thin: false
        }
        .in_thin_slice());
        assert!(!EdgeKind::Flow {
            excluded_from_thin: true
        }
        .in_thin_slice());
        assert!(EdgeKind::Flow {
            excluded_from_thin: true
        }
        .in_data_slice());
        assert!(!EdgeKind::Control.in_thin_slice());
        assert!(!EdgeKind::Control.in_data_slice());
        assert!(EdgeKind::Control.in_traditional_slice());
        assert!(EdgeKind::Summary.in_thin_slice());
    }
}
