//! Context-insensitive slicing as graph reachability (paper §5.2).
//!
//! One metered BFS loop, `slice_dense`, walks the frozen graph behind
//! every CI answer: [`crate::AnalysisSession`] queries, the batch engine,
//! the degradation ladder and the §4 expansions of [`crate::expand`]. The
//! tests pin it against `slice_sparse`, a sort-based reference that walks
//! any [`DepGraph`](thinslice_sdg::DepGraph), the growable graph
//! included. An ungoverned caller passes an unlimited [`Meter`] (one
//! predictable branch per node), a governed one an armed meter.
//!
//! A walk yields a crate-internal `Slice`: its statements and the number
//! of graph nodes it visited. Callers read it as a
//! [`SliceResult`](crate::SliceResult).

use crate::stmtset::StmtSet;
#[cfg(test)]
use thinslice_ir::StmtRef;
#[cfg(test)]
use thinslice_sdg::DepGraph;
use thinslice_sdg::{DenseDisplay, NodeId, NO_DISPLAY};
#[cfg(test)]
use thinslice_util::FxHashSet;
use thinslice_util::{BitSet, Completeness, Idx, Meter};

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
    pub fn follows(&self, kind: &thinslice_sdg::EdgeKind) -> bool {
        match self {
            SliceKind::Thin => kind.in_thin_slice(),
            SliceKind::TraditionalData => kind.in_data_slice(),
            SliceKind::TraditionalFull => kind.in_traditional_slice(),
        }
    }
}

/// The result of a backward slice, by reachability or by tabulation: the
/// engines' internal answer, which [`crate::batch`] labels into a
/// [`SliceResult`](crate::SliceResult).
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    /// The dependence relation used.
    pub(crate) kind: SliceKind,
    /// How many dependence-graph nodes the walk visited, statements and
    /// connective nodes alike.
    pub(crate) nodes_visited: usize,
    /// Statements in the slice, in the engine's canonical order: BFS from
    /// the seed (distance first, node id within a level) for
    /// reachability, sorted for tabulation.
    pub(crate) stmts: StmtSet,
    /// The visited nodes' ids, ascending: the membership the tests compare
    /// across slicers and graph representations.
    #[cfg(test)]
    pub(crate) visited: Vec<NodeId>,
}

/// Reusable buffers for repeated slicing queries over one graph.
///
/// A BFS needs a visited set, the current and next wavefront, and a
/// statement-dedup set; on a query-per-seed workload, allocating them anew
/// per query dominates the cost of small slices. The scratch keeps them
/// warm: after each query only the touched bits are cleared, so reuse is
/// O(|slice|), not O(|graph|).
#[derive(Debug, Default)]
pub struct SliceScratch {
    visited: BitSet<NodeId>,
    touched: Vec<NodeId>,
    /// The current BFS level, sorted into canonical (ascending-id) order.
    cur: Vec<NodeId>,
    /// The next BFS level, collected during expansion.
    next: Vec<NodeId>,
    /// Word-level discovery set for the dense wavefront's wide levels, and
    /// the set that puts every narrow level in canonical order. Empty
    /// between uses.
    next_bits: BitSet<NodeId>,
    /// Statement dedup for the test-only `slice_sparse`.
    #[cfg(test)]
    stmt_set: FxHashSet<StmtRef>,
    /// Dense-id statement dedup for [`slice_dense`]: a bit test instead of
    /// a hash per node.
    stmt_seen: BitSet<u32>,
    stmt_touched: Vec<u32>,
}

impl SliceScratch {
    /// Creates an empty scratch. Buffers grow on first use.
    pub fn new() -> SliceScratch {
        SliceScratch::default()
    }

    /// Whether every buffer is empty, as a finished query must leave it.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.visited.is_empty()
            && self.next_bits.is_empty()
            && self.stmt_seen.is_empty()
            && self.stmt_set.is_empty()
            && self.touched.is_empty()
            && self.cur.is_empty()
            && self.next.is_empty()
            && self.stmt_touched.is_empty()
    }
}

/// Once the current level's frontier covers this fraction of the graph
/// (one node per `WIDE_LEVEL_DIVISOR` graph nodes), the dense wavefront
/// switches from per-edge visited tests to word-level bitset discovery.
const WIDE_LEVEL_DIVISOR: usize = 16;

/// Moves the level collected in `next` (distinct ids) into `cur` in
/// canonical order — ascending id — leaving `next` empty. Sets one bit per
/// node in `bits`, which must be empty and is left empty, and drains the
/// words the bits span: O(nodes + words spanned), no comparisons.
fn order_level(next: &mut Vec<NodeId>, cur: &mut Vec<NodeId>, bits: &mut BitSet<NodeId>) {
    cur.clear();
    let (mut lo, mut hi) = (usize::MAX, 0);
    for &n in next.iter() {
        bits.insert(n);
        lo = lo.min(n.index());
        hi = hi.max(n.index());
    }
    if lo <= hi {
        bits.drain_span_into(NodeId::new(lo), NodeId::new(hi), cur);
    }
    next.clear();
}

/// `ids`, ascending: a slice's visited-node membership, which only the
/// tests read.
#[cfg(test)]
pub(crate) fn sorted_ids(ids: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = ids.into_iter().collect();
    ids.sort_unstable();
    ids
}

/// The reference backward-reachability loop the tests pin
/// [`slice_dense`] against: a metered level-synchronous wavefront, generic
/// over [`DepGraph`], hash statement dedup and sorted levels.
///
/// The canonical visit order is (BFS level, ascending node id): each
/// level is discovered as a set, sorted, and emitted in that order. The
/// order is a property of the dependence relation alone — independent of
/// the graph representation and of the order edges are expanded in —
/// which is what keeps batched, sequential, growable and CSR runs
/// bit-identical.
///
/// With an unlimited meter the completeness is always `Complete`; once an
/// armed meter exhausts, emission stops at the failing node and the
/// emitted prefix — an exact prefix of the canonical order — is returned
/// `Truncated` with the abandoned frontier size.
#[cfg(test)]
pub(crate) fn slice_sparse<G: DepGraph>(
    sdg: &G,
    seeds: &[NodeId],
    kind: SliceKind,
    scratch: &mut SliceScratch,
    meter: &mut Meter,
) -> (Slice, Completeness) {
    let SliceScratch {
        visited,
        touched,
        cur,
        next,
        stmt_set,
        ..
    } = scratch;
    let mut stmts = Vec::new();
    for &n in seeds {
        if visited.insert(n) {
            cur.push(n);
        }
    }
    cur.sort_unstable();
    let mut leftover = 0usize;
    while !cur.is_empty() {
        // Emit this level in canonical order, one meter tick per node.
        let mut emitted = 0;
        for &n in cur.iter() {
            if !meter.tick_tracked(touched.len()) {
                leftover = cur.len() - emitted;
                break;
            }
            touched.push(n);
            if let Some(stmt) = sdg.display_stmt(n) {
                if stmt_set.insert(stmt) {
                    stmts.push(stmt);
                }
            }
            emitted += 1;
        }
        if leftover > 0 {
            // Discovered-but-unemitted bits must not leak into the next
            // query on this scratch.
            for &n in &cur[emitted..] {
                visited.remove(n);
            }
            break;
        }
        // Expand: discover the next level (set semantics — expansion order
        // within a level cannot affect membership).
        for &n in cur.iter() {
            for e in sdg.deps(n) {
                if kind.follows(&e.kind) && visited.insert(e.target) {
                    next.push(e.target);
                }
            }
        }
        next.sort_unstable();
        std::mem::swap(cur, next);
        next.clear();
    }
    let completeness = meter.completeness(leftover);
    cur.clear();
    let slice = Slice {
        kind,
        nodes_visited: touched.len(),
        stmts: StmtSet::from_ordered(stmts),
        #[cfg(test)]
        visited: sorted_ids(touched.iter().copied()),
    };
    for n in touched.drain(..) {
        visited.remove(n);
    }
    stmt_set.clear();
    (slice, completeness)
}

/// The backward-reachability loop over a frozen graph: a metered
/// level-synchronous wavefront whose canonical visit order is (BFS level,
/// ascending node id), using the graph's dense statement numbering
/// ([`DenseDisplay`]) so the per-node statement dedup is a bit test
/// instead of a hash. With `prefiltered` the graph's edges are already
/// exactly the ones `kind` follows (see `FrozenSdg::filtered`) and the
/// inner loop skips the per-edge kind test. Truncation behaves as in
/// `slice_sparse`: the emitted prefix of the canonical order, marked with
/// the abandoned frontier size.
///
/// Wide levels (more than one frontier node per [`WIDE_LEVEL_DIVISOR`]
/// graph nodes) switch discovery to word-parallel bitset algebra: targets
/// are OR-ed into a discovery set unconditionally, then one `subtract` and
/// one `union_with` per level replace the per-edge visited tests, and the
/// drained discovery set is already in ascending id order. Every narrow
/// level gets its order by draining a bitset instead of by sorting. Level
/// membership — and therefore the canonical (level, id) order and the
/// slice — matches `slice_sparse` exactly; only the bookkeeping
/// differs. Every scratch bitset is empty again when this returns,
/// truncated or not.
pub(crate) fn slice_dense<G: DenseDisplay>(
    sdg: &G,
    seeds: &[NodeId],
    kind: SliceKind,
    scratch: &mut SliceScratch,
    prefiltered: bool,
    meter: &mut Meter,
) -> (Slice, Completeness) {
    let SliceScratch {
        visited,
        touched,
        cur,
        next,
        next_bits,
        stmt_seen,
        stmt_touched,
        ..
    } = scratch;
    let node_count = sdg.node_count();
    let mut stmts = Vec::new();
    for &n in seeds {
        if visited.insert(n) {
            next.push(n);
        }
    }
    order_level(next, cur, next_bits);
    let mut leftover = 0usize;
    while !cur.is_empty() {
        let mut emitted = 0;
        for &n in cur.iter() {
            if !meter.tick_tracked(touched.len()) {
                leftover = cur.len() - emitted;
                break;
            }
            touched.push(n);
            let d = sdg.display_dense(n);
            if d != NO_DISPLAY && stmt_seen.insert(d) {
                stmt_touched.push(d);
                stmts.push(sdg.dense_stmt(d));
            }
            emitted += 1;
        }
        if leftover > 0 {
            for &n in &cur[emitted..] {
                visited.remove(n);
            }
            break;
        }
        if cur.len() * WIDE_LEVEL_DIVISOR >= node_count {
            // Word mode: unconditional discovery, then level-wide algebra.
            for &n in cur.iter() {
                for e in sdg.deps(n) {
                    if prefiltered || kind.follows(&e.kind) {
                        next_bits.insert(e.target);
                    }
                }
            }
            next_bits.subtract(visited);
            visited.union_with(next_bits);
            cur.clear();
            next_bits.drain_into(cur);
        } else {
            for &n in cur.iter() {
                for e in sdg.deps(n) {
                    if (prefiltered || kind.follows(&e.kind)) && visited.insert(e.target) {
                        next.push(e.target);
                    }
                }
            }
            order_level(next, cur, next_bits);
        }
    }
    let completeness = meter.completeness(leftover);
    cur.clear();
    let slice = Slice {
        kind,
        nodes_visited: touched.len(),
        stmts: StmtSet::from_ordered(stmts),
        #[cfg(test)]
        visited: sorted_ids(touched.iter().copied()),
    };
    for n in touched.drain(..) {
        visited.remove(n);
    }
    for d in stmt_touched.drain(..) {
        stmt_seen.remove(d);
    }
    (slice, completeness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{compile, InstrKind};
    use thinslice_pta::{Pta, PtaConfig};
    use thinslice_sdg::{build_ci, Sdg};

    fn setup(src: &str) -> (thinslice_ir::Program, Sdg) {
        let p = compile(&[("t.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let sdg = build_ci(&p, &pta);
        (p, sdg)
    }

    fn slice(sdg: &Sdg, seeds: &[NodeId], kind: SliceKind) -> Slice {
        slice_sparse(
            sdg,
            seeds,
            kind,
            &mut SliceScratch::new(),
            &mut Meter::unlimited(),
        )
        .0
    }

    fn print_seed(p: &thinslice_ir::Program, sdg: &Sdg) -> NodeId {
        let s = p
            .all_stmts()
            .find(|s| {
                s.method == p.main_method && matches!(p.instr(*s).kind, InstrKind::Print { .. })
            })
            .unwrap();
        sdg.stmt_node(s).unwrap()
    }

    #[test]
    fn thin_slice_excludes_container_internals() {
        // The paper's Figure 1 in miniature: the thin slice from the print
        // includes the stored value's chain but not the Vector's
        // constructor internals.
        let (p, sdg) = setup(
            "class Main { static void main() {
                Vector names = new Vector();
                String first = \"John\";
                names.add(first);
                String got = (String) names.get(0);
                print(got);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice(&sdg, &[seed], SliceKind::Thin);
        let trad = slice(&sdg, &[seed], SliceKind::TraditionalData);

        // The string literal (producer) is in both slices.
        let lit = p
            .all_stmts()
            .find(|s| matches!(&p.instr(*s).kind, InstrKind::StrConst { value, .. } if value == "John"))
            .unwrap();
        assert!(
            thin.stmts.contains(lit),
            "thin slice must trace the value to its literal"
        );
        assert!(trad.stmts.contains(lit));

        // The Vector constructor's array allocation is an explainer: only
        // the traditional slice contains it.
        let vector = p.class_named("Vector").unwrap();
        let ctor = p.ctor_of(vector).unwrap();
        let ctor_alloc = p
            .all_stmts()
            .find(|s| s.method == ctor && matches!(p.instr(*s).kind, InstrKind::NewArray { .. }))
            .unwrap();
        assert!(
            !thin.stmts.contains(ctor_alloc),
            "thin slice must not contain the Vector's backing-array allocation"
        );
        assert!(
            trad.stmts.contains(ctor_alloc),
            "the traditional slice reaches the allocation through base pointers"
        );
        assert!(thin.stmts.len() < trad.stmts.len());
    }

    #[test]
    fn thin_slice_traces_through_heap() {
        let (p, sdg) = setup(
            "class Box { Object item; }
             class Main { static void main() {
                Box b = new Box();
                b.item = new Main();
                Object got = b.item;
                print(got);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice(&sdg, &[seed], SliceKind::Thin);
        let alloc = p
            .all_stmts()
            .find(|s| {
                matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                    if *class == p.class_named("Main").unwrap())
            })
            .unwrap();
        assert!(thin.stmts.contains(alloc), "value flows store→load→print");
        // But the Box allocation (base pointer) is not a producer.
        let box_alloc = p
            .all_stmts()
            .find(|s| {
                matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                    if *class == p.class_named("Box").unwrap())
            })
            .unwrap();
        assert!(!thin.stmts.contains(box_alloc));
    }

    #[test]
    fn full_slice_includes_control() {
        let (p, sdg) = setup(
            "class Main { static void main() {
                int x = 7;
                if (x > 3) { print(1); }
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice(&sdg, &[seed], SliceKind::Thin);
        let full = slice(&sdg, &[seed], SliceKind::TraditionalFull);
        let if_stmt = p
            .all_stmts()
            .find(|s| s.method == p.main_method && matches!(p.instr(*s).kind, InstrKind::If { .. }))
            .unwrap();
        assert!(
            !thin.stmts.contains(if_stmt),
            "thin slices exclude control dependence"
        );
        assert!(full.stmts.contains(if_stmt));
        // The full slice pulls the condition's data deps too.
        assert!(full.stmts.len() > thin.stmts.len());
    }

    #[test]
    fn frozen_graph_slices_identically() {
        let (p, sdg) = setup(
            "class Main { static void main() {
                Vector names = new Vector();
                String first = \"John\";
                names.add(first);
                String got = (String) names.get(0);
                print(got);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let frozen = sdg.freeze();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let warm = slice(&sdg, &[seed], kind);
            let cold = slice_sparse(
                &frozen,
                &[seed],
                kind,
                &mut SliceScratch::new(),
                &mut Meter::unlimited(),
            )
            .0;
            let dense = slice_dense(
                &frozen,
                &[seed],
                kind,
                &mut SliceScratch::new(),
                false,
                &mut Meter::unlimited(),
            )
            .0;
            assert_eq!(
                warm.stmts, cold.stmts,
                "{kind:?}: BFS order must be bit-identical over the CSR graph"
            );
            assert_eq!(
                warm.stmts, dense.stmts,
                "{kind:?}: the dense-dedup loop must match too"
            );
            assert_eq!(warm.visited, cold.visited);
        }
    }

    #[test]
    fn seed_is_in_its_own_slice() {
        let (p, sdg) = setup("class Main { static void main() { print(1); } }");
        let seed = print_seed(&p, &sdg);
        let thin = slice(&sdg, &[seed], SliceKind::Thin);
        assert_eq!(
            thin.stmts.in_order().first().copied(),
            sdg.node(seed).as_stmt()
        );
    }

    #[test]
    fn bfs_order_is_distance_sorted() {
        let (p, sdg) = setup(
            "class Main { static void main() {
                int a = 1;
                int b = a + 1;
                int c = b + 1;
                print(c);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice(&sdg, &[seed], SliceKind::Thin);
        // Seed first; then c's def, then b's, then a's chain.
        let order = thin.stmts.in_order();
        let pos = |pred: &dyn Fn(&InstrKind) -> bool| {
            order.iter().position(|s| pred(&p.instr(*s).kind)).unwrap()
        };
        let print_pos = pos(&|k| matches!(k, InstrKind::Print { .. }));
        let c_pos = pos(&|k| {
            matches!(k, InstrKind::Binary { lhs, .. }
                if matches!(lhs, thinslice_ir::Operand::Var(_)))
        });
        assert!(print_pos < c_pos);
    }
}
