//! Context-insensitive slicing as graph reachability (paper §5.2).
//!
//! One metered BFS loop, `slice_dense`, walks the frozen graph behind
//! every single CI answer: [`crate::AnalysisSession`] queries, the
//! degradation ladder and the §4 expansions of [`crate::expand`]. The
//! batch engine answers up to 64 queries per walk with `slice_lanes`, the
//! same loop run for a word of lanes at once. Both walk the whole graph
//! and test each edge's label against the slice kind. The tests pin both
//! against `slice_sparse`, a sort-based reference that walks any
//! [`DepGraph`], the growable graph included. An ungoverned caller passes
//! an unlimited [`Meter`] (one predictable branch per node), a governed
//! one an armed meter.
//!
//! A walk yields a crate-internal `Slice`: its statements and the number
//! of graph nodes it visited. Callers read it as a
//! [`SliceResult`](crate::SliceResult). Every walk writes each statement
//! emission once, to a log on its scratch, and its answers are views of
//! one copy of that log ([`StmtSet`]). A lane walk logs with each
//! statement the lanes that newly emit it, so it neither pushes an id per
//! lane nor copies a list per query.

use crate::stmtset::StmtSet;
#[cfg(test)]
use thinslice_ir::StmtRef;
use thinslice_sdg::{DepGraph, FrozenSdg, NodeId, NO_DISPLAY};
#[cfg(test)]
use thinslice_util::FxHashSet;
use thinslice_util::{BitSet, Completeness, Idx, Meter};

// Which dependence relation a slice follows: defined beside the edge
// labels it tests, in `thinslice_sdg`, whose frozen graphs keep facts per
// kind.
pub use thinslice_sdg::SliceKind;

/// The result of a backward slice, by CI reachability or by the
/// context-sensitive walk: the engines' internal answer, which
/// [`crate::batch`] labels into a [`SliceResult`](crate::SliceResult).
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    /// The dependence relation used.
    pub(crate) kind: SliceKind,
    /// How many dependence-graph nodes the walk visited, statements and
    /// connective nodes alike.
    pub(crate) nodes_visited: usize,
    /// Statements in the slice, in the engine's canonical order: BFS from
    /// the seed (distance first, node id within a level) for CI
    /// reachability, sorted for the context-sensitive walk.
    pub(crate) stmts: StmtSet,
    /// The visited nodes' ids, ascending: the membership the tests compare
    /// across slicers and graph representations.
    #[cfg(test)]
    pub(crate) visited: Vec<NodeId>,
}

/// Reusable buffers for repeated slicing queries over one graph, by single
/// walks ([`slice_dense`]) and lane walks ([`slice_lanes`]).
///
/// A BFS needs a visited set, the current and next wavefront, and a
/// statement-dedup set; on a query-per-seed workload, allocating them anew
/// per query dominates the cost of small slices. The scratch keeps them
/// warm: after each query only the touched bits are cleared, so reuse is
/// O(|slice|), not O(|graph|).
#[derive(Debug, Default)]
pub(crate) struct SliceScratch {
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
    /// a hash per node. The walk's log is its clear list.
    stmt_seen: BitSet<u32>,
    /// The lane walk's ([`slice_lanes`]) masks per node, zero between uses.
    lane_masks: Vec<LaneMasks>,
    /// The lane walk's current level, ascending, each node with the lanes
    /// whose level holds it.
    lane_level: Vec<(NodeId, u64)>,
    /// The lanes that have emitted each dense display statement, zero
    /// between uses.
    stmt_lanes: Vec<u64>,
    /// The emission log, empty between uses: each dense display statement
    /// the walk emits, in walk order. A lane walk keeps beside each the
    /// lanes that newly emit it, and the statements are also
    /// `stmt_lanes`' clear list.
    log: Vec<u32>,
    log_lanes: Vec<u64>,
}

impl SliceScratch {
    /// Creates an empty scratch. Buffers grow on first use.
    pub(crate) fn new() -> SliceScratch {
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
            && self.lane_masks.iter().all(|m| m.seen == 0 && m.next == 0)
            && self.lane_level.is_empty()
            && self.stmt_lanes.iter().all(|&m| m == 0)
            && self.log.is_empty()
            && self.log_lanes.is_empty()
    }

    /// How many nodes the lane walk's masks cover: 0 until a lane walk
    /// runs on this scratch.
    #[cfg(test)]
    pub(crate) fn lane_nodes(&self) -> usize {
        self.lane_masks.len()
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
/// ([`FrozenSdg::display_dense`]) so the per-node statement dedup is a bit
/// test instead of a hash. The walk tests each edge's label against
/// `kind`, except for the full slicer, which follows every edge.
/// Truncation behaves as in `slice_sparse`: the emitted prefix of the
/// canonical order, marked with the abandoned frontier size.
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
pub(crate) fn slice_dense(
    sdg: &FrozenSdg,
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
        next_bits,
        stmt_seen,
        log: stmts,
        ..
    } = scratch;
    let node_count = sdg.node_count();
    // The full slicer follows every edge: matching on the kind spares its
    // walk the per-edge test.
    let every = kind == SliceKind::TraditionalFull;
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
                stmts.push(d);
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
                    if every || kind.follows(&e.kind) {
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
                    if (every || kind.follows(&e.kind)) && visited.insert(e.target) {
                        next.push(e.target);
                    }
                }
            }
            order_level(next, cur, next_bits);
        }
    }
    let completeness = meter.completeness(leftover);
    cur.clear();
    for &d in stmts.iter() {
        stmt_seen.remove(d);
    }
    let slice = Slice {
        kind,
        nodes_visited: touched.len(),
        stmts: StmtSet::from_ids(stmts, sdg.stmt_table()),
        #[cfg(test)]
        visited: sorted_ids(touched.iter().copied()),
    };
    stmts.clear();
    for n in touched.drain(..) {
        visited.remove(n);
    }
    (slice, completeness)
}

/// How many queries one lane walk answers: the bits of a machine word.
pub(crate) const LANES: usize = u64::BITS as usize;

/// One node's lane masks in a lane walk: bit `l` stands for query `l`.
#[derive(Debug, Default, Clone, Copy)]
struct LaneMasks {
    /// Lanes that have discovered the node.
    seen: u64,
    /// Lanes whose next level holds the node.
    next: u64,
}

/// The lanes whose meter can run out: a lane walk ticks only these.
pub(crate) fn metered_lanes(meters: &[Meter]) -> u64 {
    (meters.iter().enumerate())
        .filter(|(_, m)| !m.is_unlimited())
        .fold(0, |mask, (l, _)| mask | 1 << l)
}

/// The lanes set in `mask`, lowest first.
pub(crate) fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// A count per lane, kept as bit planes: `planes[k]` holds bit `k` of
/// every lane's count, so one addition counts for all the lanes of a mask.
#[derive(Default)]
pub(crate) struct LaneCounts {
    planes: [u64; 32],
}

impl LaneCounts {
    /// Adds one to the count of every lane in `lanes`.
    pub(crate) fn add(&mut self, mut lanes: u64) {
        for plane in &mut self.planes {
            if lanes == 0 {
                break;
            }
            let carry = *plane & lanes;
            *plane ^= lanes;
            lanes = carry;
        }
    }

    /// Lane `l`'s count.
    pub(crate) fn get(&self, l: usize) -> usize {
        (self.planes.iter().enumerate())
            .map(|(k, plane)| ((plane >> l & 1) as usize) << k)
            .sum()
    }
}

/// [`slice_dense`] for up to [`LANES`] queries at once: one
/// level-synchronous walk over the union of their wavefronts (multi-source
/// BFS), with a `u64` lane mask per node and per display statement. Query
/// `l` seeds lane `l` and is metered by `meters[l]`.
///
/// Each level's union frontier is emitted in ascending node id, so every
/// lane emits exactly its own level in the canonical (level, id) order.
/// A lane ticks its own meter once per node it emits, with its own emitted
/// count as the tracked size, and dedups statements through its own bit of
/// the statement masks. A lane whose meter cannot run out emits every node
/// it discovers without a tick, and its nodes are counted once the walk
/// ends. Each node is expanded once, for the lanes that emitted it. A
/// lane whose meter runs out stops emitting, counts its unemitted nodes
/// of that level as its frontier and is dropped from the next level,
/// exactly where the single walk stops. So each lane answers
/// what `slice_dense` answers for its query under the same meter; what the
/// lanes share is the scan of each node's edges, which every lane holding
/// the node would otherwise repeat.
///
/// The walk logs each statement emission once, in walk order, with the
/// lanes that newly emit it, and the answers are views of that log
/// ([`StmtSet::lanes`]): a lane's statements are the entries that hold
/// its bit, in walk order, which is the lane's canonical order.
pub(crate) fn slice_lanes<Q: AsRef<[NodeId]>>(
    sdg: &FrozenSdg,
    queries: &[Q],
    kind: SliceKind,
    scratch: &mut SliceScratch,
    meters: &mut [Meter],
) -> Vec<(Slice, Completeness)> {
    assert!(queries.len() <= LANES && meters.len() == queries.len());
    let SliceScratch {
        lane_masks: masks,
        touched,
        lane_level: cur,
        next,
        cur: ordered,
        next_bits,
        stmt_lanes,
        log,
        log_lanes,
        ..
    } = scratch;
    if masks.len() < sdg.node_count() {
        masks.resize(sdg.node_count(), LaneMasks::default());
    }
    if stmt_lanes.len() < sdg.stmt_table().len() {
        stmt_lanes.resize(sdg.stmt_table().len(), 0);
    }
    // As in `slice_dense`: the full slicer skips the per-edge test.
    let every = kind == SliceKind::TraditionalFull;
    let lanes = queries.len();
    let mut emitted = vec![0usize; lanes];
    let mut leftover = vec![0usize; lanes];
    #[cfg(test)]
    let mut visited: Vec<Vec<NodeId>> = vec![Vec::new(); lanes];
    // Lanes whose meter can run out, and those whose meter has.
    let metered = metered_lanes(meters);
    let mut exhausted = 0u64;
    // Discovers `t` for the lanes in `lanes` that have not seen it yet.
    let mut discover = |masks: &mut [LaneMasks], next: &mut Vec<NodeId>, t: NodeId, lanes: u64| {
        let m = &mut masks[t.index()];
        let new = lanes & !m.seen;
        if new != 0 {
            if m.seen == 0 {
                touched.push(t);
            }
            if m.next == 0 {
                next.push(t);
            }
            m.seen |= new;
            m.next |= new;
        }
    };
    for (l, seeds) in queries.iter().enumerate() {
        for &n in seeds.as_ref() {
            discover(masks, next, n, 1 << l);
        }
    }
    loop {
        // The next level, less the lanes cut short in the last one.
        order_level(next, ordered, next_bits);
        cur.clear();
        for n in ordered.drain(..) {
            let at = std::mem::take(&mut masks[n.index()].next) & !exhausted;
            if at != 0 {
                cur.push((n, at));
            }
        }
        if cur.is_empty() {
            break;
        }
        for &(n, at) in cur.iter() {
            let mut emit = at & !metered;
            for l in lanes_of(at & metered) {
                if exhausted & 1 << l != 0 {
                    leftover[l] += 1;
                } else if meters[l].tick_tracked(emitted[l]) {
                    emitted[l] += 1;
                    emit |= 1 << l;
                    #[cfg(test)]
                    visited[l].push(n);
                } else {
                    exhausted |= 1 << l;
                    leftover[l] = 1;
                }
            }
            if emit == 0 {
                continue;
            }
            let d = sdg.display_dense(n);
            if d != NO_DISPLAY {
                let seen = &mut stmt_lanes[d as usize];
                let new = emit & !*seen;
                if new != 0 {
                    *seen |= new;
                    log.push(d);
                    log_lanes.push(new);
                }
            }
            for e in sdg.deps(n) {
                if every || kind.follows(&e.kind) {
                    discover(masks, next, e.target, emit);
                }
            }
        }
    }
    // An unmetered lane emitted every node it saw.
    let mut unmetered = LaneCounts::default();
    for n in touched.drain(..) {
        let seen = std::mem::take(&mut masks[n.index()].seen) & !metered;
        unmetered.add(seen);
        #[cfg(test)]
        for l in lanes_of(seen) {
            visited[l].push(n);
        }
    }
    for &d in log.iter() {
        stmt_lanes[d as usize] = 0;
    }
    let answers = StmtSet::lanes(log, log_lanes, lanes, sdg.stmt_table());
    log.clear();
    log_lanes.clear();
    answers
        .into_iter()
        .enumerate()
        .map(|(l, stmts)| {
            let slice = Slice {
                kind,
                nodes_visited: match metered & 1 << l {
                    0 => unmetered.get(l),
                    _ => emitted[l],
                },
                stmts,
                #[cfg(test)]
                visited: sorted_ids(std::mem::take(&mut visited[l])),
            };
            (slice, meters[l].completeness(leftover[l]))
        })
        .collect()
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
    fn lane_walks_visit_what_the_sparse_reference_visits() {
        // Groups of up to 64 queries, each lane checked against its own
        // single walk: unlimited, and with per-lane step limits that cut
        // some lanes mid-level while their neighbours run on. Each group
        // also holds a repeated query and one with no seed node, and every
        // walk must leave the scratch clean.
        use crate::order_tests::{corpus, seeds};
        use crate::AnalysisSession;
        use thinslice_util::{Budget, SmallRng};
        let mut rng = SmallRng::new(0x1a9e_5eed);
        let (mut lanes, mut sparse) = (SliceScratch::new(), SliceScratch::new());
        let (mut groups, mut cut) = (0, 0);
        for (name, files) in corpus() {
            let refs: Vec<(&str, &str)> = files
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            let mut session = AnalysisSession::new(&refs).unwrap();
            let stmts = seeds(&mut session, &mut rng);
            let graph = session.ci_graph();
            let mut queries: Vec<Vec<NodeId>> = stmts
                .iter()
                .map(|&s| graph.stmt_nodes_of(s).to_vec())
                .collect();
            queries.insert(1, queries[0].clone());
            queries.insert(2, Vec::new());
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                for (g, group) in queries.chunks(LANES).enumerate() {
                    let at = format!("{name} {kind:?} group {g}");
                    let unlimited = |_: &Vec<NodeId>| Meter::unlimited();
                    let full: Vec<(Slice, Completeness)> = group
                        .iter()
                        .map(|q| slice_sparse(graph, q, kind, &mut sparse, &mut unlimited(q)))
                        .collect();
                    let mut meters: Vec<Meter> = group.iter().map(unlimited).collect();
                    let walked = slice_lanes(graph, group, kind, &mut lanes, &mut meters);
                    assert!(lanes.is_clean(), "{at}");
                    for (l, ((got, c), (want, _))) in walked.iter().zip(&full).enumerate() {
                        assert!(c.is_complete(), "{at} lane {l}");
                        assert_eq!(got.stmts, want.stmts, "{at} lane {l}");
                        assert_eq!(got.visited, want.visited, "{at} lane {l}");
                        assert_eq!(got.nodes_visited, want.nodes_visited, "{at} lane {l}");
                    }
                    // Every third lane unlimited, the others cut at a
                    // point of their own.
                    let limits: Vec<Option<u64>> = full
                        .iter()
                        .enumerate()
                        .map(|(l, (s, _))| {
                            (l % 3 != 0 && s.nodes_visited > 1)
                                .then(|| 1 + (l * 7 % s.nodes_visited) as u64)
                        })
                        .collect();
                    let meter = |limit: &Option<u64>| match limit {
                        Some(n) => Budget::unlimited().with_step_limit(*n).meter(),
                        None => Meter::unlimited(),
                    };
                    let mut meters: Vec<Meter> = limits.iter().map(meter).collect();
                    let walked = slice_lanes(graph, group, kind, &mut lanes, &mut meters);
                    assert!(lanes.is_clean(), "{at}");
                    for (l, ((got, c), q)) in walked.iter().zip(group).enumerate() {
                        let (want, w) =
                            slice_sparse(graph, q, kind, &mut sparse, &mut meter(&limits[l]));
                        let at = format!("{at} lane {l} limit {:?}", limits[l]);
                        assert_eq!(*c, w, "{at}");
                        assert_eq!(got.stmts, want.stmts, "{at}");
                        assert_eq!(got.visited, want.visited, "{at}");
                        cut += usize::from(!c.is_complete());
                    }
                    groups += 1;
                }
            }
        }
        assert!(
            groups > 3 * corpus().len(),
            "some program needs several groups"
        );
        assert!(cut > 0, "some lane must be cut short");
    }

    #[test]
    fn seed_is_in_its_own_slice() {
        let (p, sdg) = setup("class Main { static void main() { print(1); } }");
        let seed = print_seed(&p, &sdg);
        let thin = slice(&sdg, &[seed], SliceKind::Thin);
        assert_eq!(thin.stmts.iter().next(), sdg.node(seed).as_stmt());
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
        let order: Vec<StmtRef> = thin.stmts.iter().collect();
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
