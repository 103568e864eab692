//! Context-sensitive backward slicing: summary edges by demand-driven
//! tabulation, answers by a two-phase walk.
//!
//! Implements the paper's §5.3 algorithm: "context-sensitive reachability
//! as a partially balanced parentheses problem … a backwards, demand-driven
//! tabulation algorithm" (citing Reps–Horwitz–Sagiv). Descending into a
//! callee (through a return value or heap actual-out) opens a parenthesis
//! at the call site; ascending back to a caller must close it at the same
//! site. Procedure *summary edges* (call-site consumer → call-site actual)
//! are computed as entry nodes are reached from exits.
//!
//! The tabulation is meant for graphs whose *every* cross-procedure edge
//! is a labelled parameter/call edge — the heap-parameter mode of
//! [`thinslice_sdg::build_cs`] (or call-free regions of any graph). On the
//! direct-heap-edge graph, store→load edges cross procedures without call
//! labels, so summarisation cannot continue past them and heap-borne flow
//! is truncated; the paper likewise only pairs tabulation with heap
//! parameters.
//!
//! Once every summary edge of a (graph, kind) pair is known, an answer
//! needs no tabulation: it is two-phase reachability (Horwitz, Reps and
//! Binkley's slicer). `SummaryGraph` runs the tabulation loop once from
//! every callee exit and adds the summary edges it records to the graph's
//! edges, and `cs_lanes` answers up to 64 queries with one bit-parallel,
//! level-synchronous walk over that graph, each query under its own
//! meter. So [`crate::AnalysisSession`] answers every `Engine::Cs` query,
//! governed or not, alone or batched, by that walk over its kind's summary
//! graph (a single query is one lane). A lane whose meter can run out
//! expands its (node, phase) states in a canonical order that depends
//! only on its own seeds, so where a budget cuts it depends only on the
//! graph, the kind, the seeds and the budget.
//!
//! A walk answers with the same `Slice` shape as reachability: its
//! statements, sorted, and the number of nodes it expanded. The walk sorts
//! the statements any lane holds once, and passes them with each one's
//! lane mask to `StmtSet::lanes`, so every lane's answer is a view of
//! that one sorted list rather than a list of its own.

use crate::slice::{lanes_of, metered_lanes, LaneCounts, Slice, SliceKind, LANES};
use crate::stmtset::StmtSet;
use std::collections::VecDeque;
use std::sync::OnceLock;
#[cfg(test)]
use thinslice_ir::StmtRef;
use thinslice_sdg::{DepGraph, EdgeKind, FrozenSdg, NodeId, NodeKind, NO_DISPLAY};
use thinslice_util::{Completeness, Idx, IdxVec, Meter, Telemetry};
#[cfg(test)]
use thinslice_util::{FxHashMap, FxHashSet};

/// The source of a tabulation path edge: either the seed region (ascending
/// allowed) or a callee exit being summarised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Src {
    /// A query's seed region: only the tests' reference tabulation
    /// ([`cs_oneshot`]) starts there.
    #[cfg_attr(not(test), allow(dead_code))]
    Seed,
    Exit(NodeId),
}

/// How an edge moves between procedures when followed backwards.
enum Step {
    Local,
    /// Callee → caller (formal → actual, entry → call site) at a site.
    Up(NodeId),
    /// Caller → callee exit (call result → ret-merge, actual-out →
    /// formal-out) at a site.
    Down(NodeId),
}

fn classify<G: DepGraph>(kind: &EdgeKind, sdg: &G, target: NodeId) -> Step {
    match kind {
        EdgeKind::ParamIn { site } => Step::Up(*site),
        EdgeKind::ParamOut { site } => Step::Down(*site),
        EdgeKind::Call => {
            // entry(callee) → call stmt: the target *is* the call site.
            match sdg.node(target) {
                NodeKind::Stmt(..) => Step::Up(target),
                _ => Step::Local,
            }
        }
        _ => Step::Local,
    }
}

pub use thinslice_sdg::DownConsumers;

/// Storage for the tabulation's path-edge and summary relations.
///
/// The algorithm ([`tabulate`]) is written once against this trait; the
/// two implementations trade differently:
///
/// * [`DenseStore`] — [`NodeId`]-indexed tables, O(graph) setup, per-step
///   array indexing: what builds every [`SummaryGraph`].
/// * `SparseStore` (tests only) — hash maps, no setup cost, per-step
///   hashing, and a sort-based `finish`: the complete tabulation from a
///   query's seeds, the reference the tests hold the two-phase walk to.
///
/// Both store exactly the same relations, so the traversal is identical
/// whichever backs it.
trait TabStore {
    /// Adds `src` to `n`'s path-edge set; true if it was not there.
    fn add_path(&mut self, n: NodeId, src: Src) -> bool;
    /// Copies `n`'s current sources into `out` (which is cleared first).
    fn copy_srcs(&self, n: NodeId, out: &mut Vec<Src>);
    /// Records the summary edge `consumer → actual`; true if new.
    fn add_summary(&mut self, consumer: NodeId, actual: NodeId) -> bool;
    /// Copies `n`'s known summary continuations into `out` (cleared first).
    fn copy_summaries(&self, n: NodeId, out: &mut Vec<NodeId>);
}

/// Hash-map tabulation storage. See [`TabStore`].
#[cfg(test)]
#[derive(Debug, Default)]
struct SparseStore {
    path: FxHashMap<NodeId, FxHashSet<Src>>,
    summaries: FxHashMap<NodeId, Vec<NodeId>>,
}

#[cfg(test)]
impl TabStore for SparseStore {
    fn add_path(&mut self, n: NodeId, src: Src) -> bool {
        self.path.entry(n).or_default().insert(src)
    }

    fn copy_srcs(&self, n: NodeId, out: &mut Vec<Src>) {
        out.clear();
        if let Some(srcs) = self.path.get(&n) {
            out.extend(srcs.iter().copied());
        }
    }

    fn add_summary(&mut self, consumer: NodeId, actual: NodeId) -> bool {
        let v = self.summaries.entry(consumer).or_default();
        if v.contains(&actual) {
            return false;
        }
        v.push(actual);
        true
    }

    fn copy_summaries(&self, n: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        if let Some(conts) = self.summaries.get(&n) {
            out.extend(conts.iter().copied());
        }
    }
}

#[cfg(test)]
impl SparseStore {
    /// Builds the result from every node with a path edge: their count and
    /// the sorted, deduplicated statements, by sorting. Tabulation
    /// discovery order depends on the store, so sorting is the canonical
    /// order that makes answers comparable across stores.
    fn finish<G: DepGraph>(self, sdg: &G, kind: SliceKind) -> Slice {
        let mut stmts: Vec<StmtRef> = self
            .path
            .keys()
            .filter_map(|&n| sdg.display_stmt(n))
            .collect();
        stmts.sort_unstable();
        stmts.dedup();
        Slice {
            kind,
            nodes_visited: self.path.len(),
            stmts: StmtSet::from_ordered(stmts),
            visited: crate::slice::sorted_ids(self.path.keys().copied()),
        }
    }
}

/// Dense tabulation storage for one [`SummaryGraph`] build. See
/// [`TabStore`].
#[derive(Debug)]
struct DenseStore {
    /// `path[n]` = sources with a path edge to `n`. The per-node source
    /// sets are tiny (almost always 1–3), so a vector with linear dedup
    /// beats a hash set.
    path: IdxVec<NodeId, Vec<Src>>,
    /// Summary edges discovered so far: consumer node → continuations.
    summaries: IdxVec<NodeId, Vec<NodeId>>,
}

impl DenseStore {
    /// Empty tables covering `node_count` nodes.
    fn new(node_count: usize) -> DenseStore {
        DenseStore {
            path: IdxVec::from_elem(Vec::new(), node_count),
            summaries: IdxVec::from_elem(Vec::new(), node_count),
        }
    }
}

impl TabStore for DenseStore {
    fn add_path(&mut self, n: NodeId, src: Src) -> bool {
        let srcs = &mut self.path[n];
        if srcs.contains(&src) {
            return false;
        }
        srcs.push(src);
        true
    }

    fn copy_srcs(&self, n: NodeId, out: &mut Vec<Src>) {
        out.clear();
        out.extend(self.path[n].iter().copied());
    }

    fn add_summary(&mut self, consumer: NodeId, actual: NodeId) -> bool {
        let v = &mut self.summaries[consumer];
        if v.contains(&actual) {
            return false;
        }
        v.push(actual);
        true
    }

    fn copy_summaries(&self, n: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.summaries[n].iter().copied());
    }
}

/// One thread's context-sensitive scratch: the buffers of a [`cs_lanes`]
/// walk. Every walk leaves it empty or zero, so it serves any graph and
/// any kind, and in steady state a query allocates nothing but its
/// result. Buffers grow on first use.
#[derive(Debug, Default)]
pub(crate) struct CsScratch {
    /// Masks per node, zero between walks.
    masks: Vec<PhaseMasks>,
    /// The nodes of the next level, in discovery order.
    next: Vec<NodeId>,
    /// The current level's nodes.
    ordered: Vec<NodeId>,
    /// In a walk with metered lanes, the current level's lanes per phase,
    /// node by node, taken when the level starts.
    level: Vec<[u64; 2]>,
    /// Nodes some lane reached, the clear list.
    touched: Vec<NodeId>,
    /// The lanes holding each dense display statement, zero between walks,
    /// and the statements some lane holds.
    stmt_lanes: Vec<u64>,
    stmt_touched: Vec<u32>,
    /// Each of `stmt_touched`'s statements' lanes, once they are sorted:
    /// the walk's emission log. Empty between walks.
    stmt_masks: Vec<u64>,
}

impl CsScratch {
    /// Whether the scratch is empty, as every query must leave it.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.masks
            .iter()
            .all(|m| m.reached == [0; 2] && m.next == [0; 2])
            && self.next.is_empty()
            && self.ordered.is_empty()
            && self.level.is_empty()
            && self.touched.is_empty()
            && self.stmt_lanes.iter().all(|&m| m == 0)
            && self.stmt_touched.is_empty()
            && self.stmt_masks.is_empty()
    }

    /// How many nodes the walk's masks cover: 0 until a walk runs on this
    /// scratch.
    #[cfg(test)]
    pub(crate) fn lane_nodes(&self) -> usize {
        self.masks.len()
    }
}

/// The number of [`SliceKind`] variants, one summary graph slot each.
const KINDS: usize = 3;

/// A session's context-sensitive graph facts: one [`SummaryGraph`] per
/// slice kind of its CS graph, each built by the first CS query or batch
/// of its kind and kept until [`SummaryGraphs::clear`], which the session
/// calls whenever the CS graph changes. Batch workers read them through a
/// shared reference.
#[derive(Debug, Default)]
pub(crate) struct SummaryGraphs([OnceLock<SummaryGraph>; KINDS]);

impl SummaryGraphs {
    /// The summary graph of `graph` for `kind`, built on first use. The
    /// build is timed as a `cs.summary_index` span that carries the number
    /// of summary edges as `cs.summary_edges`.
    pub(crate) fn get(&self, graph: &FrozenSdg, kind: SliceKind, tel: &Telemetry) -> &SummaryGraph {
        let slot = match kind {
            SliceKind::Thin => 0,
            SliceKind::TraditionalData => 1,
            SliceKind::TraditionalFull => 2,
        };
        self.0[slot].get_or_init(|| {
            let mut span = tel.span("cs.summary_index");
            let built = SummaryGraph::build(graph, graph.down_consumers(), kind);
            span.add("cs.summary_edges", built.summary_edges as u64);
            built
        })
    }

    fn built(&self) -> impl Iterator<Item = &SummaryGraph> {
        self.0.iter().filter_map(OnceLock::get)
    }

    /// How many summary graphs are built.
    pub(crate) fn count(&self) -> usize {
        self.built().count()
    }

    /// The built summary graphs' nodes plus edge targets, in the unit of
    /// the session's resident estimate.
    pub(crate) fn resident(&self) -> usize {
        self.built()
            .map(|g| g.rows.len() / 3 + g.targets.len())
            .sum()
    }

    /// Drops every built summary graph, returning how many there were.
    pub(crate) fn clear(&mut self) -> usize {
        std::mem::take(self).count()
    }
}

/// The graph a context-sensitive walk ([`cs_lanes`]) follows for one
/// (graph, slice kind) pair: each node's edges that the kind follows,
/// sorted by [`classify`] into local, up and down rows, with every summary
/// edge of the pair (call-site consumer → call-site actual) added to the
/// consumer's local row.
///
/// The summary edges come from running [`tabulate`] to fixpoint from every
/// callee exit a consumer descends into. Summary edges are facts of the
/// pair, and an `Exit` region grows the same whichever query starts it, so
/// this run records every summary edge any query's tabulation can record.
#[derive(Debug)]
pub(crate) struct SummaryGraph {
    /// Row `i` of node `n`, local (0), up (1) or down (2), is
    /// `targets[rows[3 * n + i]..rows[3 * n + i + 1]]`.
    rows: Vec<u32>,
    targets: Vec<NodeId>,
    /// How many summary edges the local rows hold.
    summary_edges: usize,
}

impl SummaryGraph {
    /// Tabulates `sdg`'s callee exits under `kind` and lays out the walk's
    /// rows.
    pub(crate) fn build<G: DepGraph>(
        sdg: &G,
        index: &DownConsumers,
        kind: SliceKind,
    ) -> SummaryGraph {
        let mut store = DenseStore::new(sdg.node_count());
        let exits = index.exits().into_iter().map(|x| (Src::Exit(x), x));
        tabulate(sdg, index, exits, kind, &mut store);
        let row_end =
            |targets: &Vec<NodeId>| u32::try_from(targets.len()).expect("edge count exceeds u32");
        let mut rows = Vec::with_capacity(3 * sdg.node_count() + 1);
        let mut targets = Vec::new();
        rows.push(0);
        let (mut up, mut down, mut summary_edges) = (Vec::new(), Vec::new(), 0);
        for n in (0..sdg.node_count()).map(NodeId::new) {
            for e in sdg.deps(n).iter().filter(|e| kind.follows(&e.kind)) {
                match classify(&e.kind, sdg, e.target) {
                    Step::Local => targets.push(e.target),
                    Step::Up(_) => up.push(e.target),
                    Step::Down(_) => down.push(e.target),
                }
            }
            targets.extend_from_slice(&store.summaries[n]);
            summary_edges += store.summaries[n].len();
            rows.push(row_end(&targets));
            targets.append(&mut up);
            rows.push(row_end(&targets));
            targets.append(&mut down);
            rows.push(row_end(&targets));
        }
        SummaryGraph {
            rows,
            targets,
            summary_edges,
        }
    }

    /// Node `n`'s local, up and down rows.
    fn rows(&self, n: NodeId) -> [&[NodeId]; 3] {
        let r = &self.rows[3 * n.index()..3 * n.index() + 4];
        let row = |i: usize| &self.targets[r[i] as usize..r[i + 1] as usize];
        [row(0), row(1), row(2)]
    }
}

/// The phases of a walk: the seed's own context, and inside a callee
/// entered through a down edge.
const SEED: usize = 0;
const CALLEE: usize = 1;

/// One node's lane masks in a [`cs_lanes`] walk: bit `l` stands for query
/// `l`.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseMasks {
    /// Per phase, the lanes that have reached the node, less a cut lane's
    /// states it never expanded.
    reached: [u64; 2],
    /// Per phase, the lanes whose next level holds the node.
    next: [u64; 2],
}

/// Marks `t` reached in `phase` by `lanes`, putting it in the next level
/// of the lanes new to it; `touched` lists the nodes any lane reached.
fn reach(
    masks: &mut [PhaseMasks],
    next: &mut Vec<NodeId>,
    touched: &mut Vec<NodeId>,
    t: NodeId,
    phase: usize,
    lanes: u64,
) {
    let m = &mut masks[t.index()];
    let new = lanes & !m.reached[phase];
    if new == 0 {
        return;
    }
    if m.reached == [0; 2] {
        touched.push(t);
    }
    if m.next == [0; 2] {
        next.push(t);
    }
    m.reached[phase] |= new;
    m.next[phase] |= new;
}

/// Answers up to [`LANES`] context-sensitive queries with one walk over
/// `graph`, the [`SummaryGraph`] of `sdg` and `kind`: two-phase
/// reachability (Horwitz, Reps and Binkley) over (node, phase) states,
/// with one bit per query in each phase's mask of a node. Query `l` seeds
/// lane `l` in the seed phase and is metered by `meters[l]`.
///
/// The seed phase follows local, up and summary edges; the callee phase
/// follows local and summary edges and never ascends. A down edge taken
/// in either phase enters its exit in the callee phase.
///
/// The walk is level-synchronous, as [`crate::slice::slice_lanes`] is.
/// When some lane's meter can run out, each level's nodes are taken in
/// ascending id, with their lanes fixed as the level starts, and a node's
/// seed phase before its callee phase, so every metered lane expands its
/// own states in the canonical order (BFS level, ascending node id, seed
/// phase before callee phase), whatever else shares the walk. A metered
/// lane ticks its own meter once per state it expands, with its expanded
/// count as the tracked size. A lane whose meter runs out stops, counts
/// its unexpanded states of that level as its frontier and is dropped
/// from the next level; it answers the nodes and statements of the states
/// it expanded. A lane whose meter cannot run out expands every state it
/// reaches, without a tick, and its answer does not depend on the order:
/// so a walk without metered lanes takes each node's lanes as it expands
/// the node, and lanes that reach the node later in the same level join
/// them.
///
/// A complete answer equals the complete tabulation's. At the
/// tabulation's fixpoint, the `Seed`-sourced path edges are exactly the
/// seed phase, and the union of its `Exit` regions is exactly the callee
/// phase: a summary edge fires only at a reached consumer, and the
/// tabulation always enters that consumer's exits, since every kind
/// follows `ParamOut`. So a lane reaches the tabulation's visited nodes,
/// and its statements, sorted, are the tabulation's statements.
pub(crate) fn cs_lanes<Q: AsRef<[NodeId]>>(
    sdg: &FrozenSdg,
    graph: &SummaryGraph,
    queries: &[Q],
    kind: SliceKind,
    scratch: &mut CsScratch,
    meters: &mut [Meter],
) -> Vec<(Slice, Completeness)> {
    assert!(queries.len() <= LANES && meters.len() == queries.len());
    let CsScratch {
        masks,
        next,
        ordered,
        level,
        touched,
        stmt_lanes,
        stmt_touched,
        stmt_masks,
    } = scratch;
    if masks.len() < sdg.node_count() {
        masks.resize(sdg.node_count(), PhaseMasks::default());
    }
    if stmt_lanes.len() < sdg.stmt_table().len() {
        stmt_lanes.resize(sdg.stmt_table().len(), 0);
    }
    let lanes = queries.len();
    let mut expanded = vec![0usize; lanes];
    let mut leftover = vec![0usize; lanes];
    // Lanes whose meter can run out, and those whose meter has. A lane
    // whose meter cannot run out expands every state it reaches, without a
    // tick.
    let metered = metered_lanes(meters);
    let mut exhausted = 0u64;
    for (l, seeds) in queries.iter().enumerate() {
        for &n in seeds.as_ref() {
            reach(masks, next, touched, n, SEED, 1 << l);
        }
    }
    loop {
        // The next level. Its order and its bounds decide only where a
        // metered lane stops, so only a walk with metered lanes sorts it and
        // fixes its lanes, less those cut short in the last level.
        if metered != 0 {
            next.sort_unstable();
        }
        std::mem::swap(next, ordered);
        if metered != 0 {
            // A lane cut short in the last level never expands its states
            // of this one: they leave its reached set.
            level.clear();
            level.extend(ordered.iter().map(|&n| {
                let m = &mut masks[n.index()];
                let at = std::mem::take(&mut m.next);
                m.reached = [0, 1].map(|p| m.reached[p] & !(at[p] & exhausted));
                at.map(|lanes| lanes & !exhausted)
            }));
        }
        if ordered.is_empty() {
            break;
        }
        for (i, &n) in ordered.iter().enumerate() {
            let [seed, callee] = if metered == 0 {
                std::mem::take(&mut masks[n.index()].next)
            } else {
                let mut emit = level[i];
                for (phase, emit) in emit.iter_mut().enumerate() {
                    let waiting = *emit;
                    for l in lanes_of(waiting & metered) {
                        if exhausted & 1 << l != 0 {
                            leftover[l] += 1;
                        } else if meters[l].tick_tracked(expanded[l]) {
                            expanded[l] += 1;
                        } else {
                            exhausted |= 1 << l;
                            leftover[l] = 1;
                        }
                    }
                    *emit &= !exhausted;
                    if *emit != waiting {
                        // The states a cut lane did not expand leave its
                        // reached set.
                        masks[n.index()].reached[phase] &= *emit | !waiting;
                    }
                }
                emit
            };
            if seed | callee == 0 {
                continue;
            }
            let [local, up, down] = graph.rows(n);
            for &t in local {
                reach(masks, next, touched, t, SEED, seed);
                reach(masks, next, touched, t, CALLEE, callee);
            }
            for &t in up {
                reach(masks, next, touched, t, SEED, seed);
            }
            for &t in down {
                reach(masks, next, touched, t, CALLEE, seed | callee);
            }
        }
        ordered.clear();
    }
    level.clear();
    // Each lane's nodes, counted for all lanes at once, and the statements
    // any lane holds, sorted once for the group, which orders every lane's.
    let mut nodes = LaneCounts::default();
    #[cfg(test)]
    let mut visited: Vec<Vec<NodeId>> = vec![Vec::new(); lanes];
    for n in touched.drain(..) {
        let [seed, callee] = std::mem::take(&mut masks[n.index()]).reached;
        let at = seed | callee;
        nodes.add(at);
        #[cfg(test)]
        for l in lanes_of(at) {
            visited[l].push(n);
        }
        let d = sdg.display_dense(n);
        if d != NO_DISPLAY && at != 0 {
            let held = &mut stmt_lanes[d as usize];
            if *held == 0 {
                stmt_touched.push(d);
            }
            *held |= at;
        }
    }
    stmt_touched.sort_unstable();
    let masks = stmt_touched
        .iter()
        .map(|&d| std::mem::take(&mut stmt_lanes[d as usize]));
    stmt_masks.extend(masks);
    let answers = StmtSet::lanes(stmt_touched, stmt_masks, lanes, sdg.stmt_table());
    stmt_touched.clear();
    stmt_masks.clear();
    answers
        .into_iter()
        .enumerate()
        .map(|(l, stmts)| {
            let slice = Slice {
                kind,
                nodes_visited: nodes.get(l),
                stmts,
                #[cfg(test)]
                visited: crate::slice::sorted_ids(std::mem::take(&mut visited[l])),
            };
            (slice, meters[l].completeness(leftover[l]))
        })
        .collect()
}

/// The complete tabulation from `seeds` on a fresh `SparseStore` (no
/// O(graph) setup, cost proportional to the slice): the reference the
/// tests hold complete [`cs_lanes`] answers to, on any [`DepGraph`].
#[cfg(test)]
pub(crate) fn cs_oneshot<G: DepGraph>(
    sdg: &G,
    index: &DownConsumers,
    seeds: &[NodeId],
    kind: SliceKind,
) -> Slice {
    let mut store = SparseStore::default();
    let seeds = seeds.iter().map(|&s| (Src::Seed, s));
    tabulate(sdg, index, seeds, kind, &mut store);
    store.finish(sdg, kind)
}

/// The reference the tests pin [`cs_lanes`] against, governed or not: the
/// metered two-phase walk of one query over `graph` (the [`SummaryGraph`]
/// of `sdg` and `kind`), with a hash set of reached (node, phase) states
/// and each level sorted into the canonical order. A cut answer holds the
/// nodes of the states expanded before the meter ran out, with the rest
/// of that level as its frontier.
#[cfg(test)]
pub(crate) fn cs_walk_sparse<G: DepGraph>(
    sdg: &G,
    graph: &SummaryGraph,
    seeds: &[NodeId],
    kind: SliceKind,
    meter: &mut Meter,
) -> (Slice, Completeness) {
    let mut reached: FxHashSet<(NodeId, usize)> = FxHashSet::default();
    let mut level: Vec<(NodeId, usize)> = seeds
        .iter()
        .map(|&n| (n, SEED))
        .filter(|&s| reached.insert(s))
        .collect();
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let (mut expanded, mut leftover) = (0, 0);
    while !level.is_empty() {
        level.sort_unstable();
        let mut next = Vec::new();
        for (i, &(n, phase)) in level.iter().enumerate() {
            if !meter.tick_tracked(expanded) {
                leftover = level.len() - i;
                break;
            }
            expanded += 1;
            nodes.insert(n);
            let [local, up, down] = graph.rows(n);
            let ups = if phase == SEED { up } else { &[] };
            let steps = (local.iter().map(|&t| (t, phase)))
                .chain(ups.iter().map(|&t| (t, SEED)))
                .chain(down.iter().map(|&t| (t, CALLEE)));
            next.extend(steps.filter(|&s| reached.insert(s)));
        }
        if leftover > 0 {
            break;
        }
        level = next;
    }
    let mut stmts: Vec<StmtRef> = nodes.iter().filter_map(|&n| sdg.display_stmt(n)).collect();
    stmts.sort_unstable();
    stmts.dedup();
    let slice = Slice {
        kind,
        nodes_visited: nodes.len(),
        stmts: StmtSet::from_ordered(stmts),
        visited: crate::slice::sorted_ids(nodes),
    };
    (slice, meter.completeness(leftover))
}

/// The paper's §5.3 tabulation, generic over graph and storage; see
/// [`TabStore`] for why two storages exist. It runs to fixpoint from the
/// path edges `start`: every callee exit in its own `Exit` context, for a
/// [`SummaryGraph`], or (in the tests) a query's seeds in the `Seed`
/// context.
fn tabulate<G: DepGraph, S: TabStore>(
    sdg: &G,
    index: &DownConsumers,
    start: impl IntoIterator<Item = (Src, NodeId)>,
    kind: SliceKind,
    store: &mut S,
) {
    let mut wl: VecDeque<(Src, NodeId)> = VecDeque::new();
    // Staging buffers for a consumer's sources and summary continuations
    // (extending them mutates the store, so neither can stay borrowed).
    let (mut tmp_srcs, mut tmp_conts) = (Vec::new(), Vec::new());

    let add = |store: &mut S, wl: &mut VecDeque<(Src, NodeId)>, src: Src, n: NodeId| {
        if store.add_path(n, src) {
            wl.push_back((src, n));
        }
    };

    for (src, n) in start {
        add(store, &mut wl, src, n);
    }

    while let Some((src, n)) = wl.pop_front() {
        for e in sdg.deps(n) {
            if !kind.follows(&e.kind) {
                continue;
            }
            match classify(&e.kind, sdg, e.target) {
                Step::Local => add(store, &mut wl, src, e.target),
                Step::Up(site) => {
                    match src {
                        // Phase 1: unbalanced ascents are allowed from the
                        // seed region.
                        Src::Seed => add(store, &mut wl, Src::Seed, e.target),
                        // Summarising a callee: reaching an entry node and
                        // ascending to site `c` completes a summary for
                        // every consumer that descended into `exit` at `c`.
                        Src::Exit(exit) => {
                            let actual = e.target;
                            if let Some(consumers) = index.get(site, exit) {
                                for &consumer in consumers {
                                    if store.add_summary(consumer, actual) {
                                        // Extend everyone who already
                                        // reached the consumer.
                                        store.copy_srcs(consumer, &mut tmp_srcs);
                                        for &s2 in tmp_srcs.iter() {
                                            add(store, &mut wl, s2, actual);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                Step::Down(_site) => {
                    let exit = e.target;
                    // Start (or continue) the callee's tabulation.
                    add(store, &mut wl, Src::Exit(exit), exit);
                    // Apply already-known summaries for this consumer.
                    store.copy_summaries(n, &mut tmp_conts);
                    for &c in tmp_conts.iter() {
                        add(store, &mut wl, src, c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{slice_sparse, SliceScratch};
    use thinslice_ir::{compile, InstrKind, Program};
    use thinslice_pta::{ModRef, Pta, PtaConfig};
    use thinslice_sdg::{build_ci, build_cs, Sdg};

    fn cs_slice<G: DepGraph>(sdg: &G, seeds: &[NodeId], kind: SliceKind) -> Slice {
        cs_oneshot(sdg, &DownConsumers::build(sdg), seeds, kind)
    }

    fn slice_from<G: DepGraph>(sdg: &G, seeds: &[NodeId], kind: SliceKind) -> Slice {
        slice_sparse(
            sdg,
            seeds,
            kind,
            &mut SliceScratch::new(),
            &mut Meter::unlimited(),
        )
        .0
    }

    fn setup(src: &str) -> (Program, Sdg, Sdg) {
        let (p, pta, ci) = ci_of(&[("t.mj", src)]);
        let modref = ModRef::compute(&p, &pta);
        let cs = build_cs(&p, &pta, &modref);
        (p, ci, cs)
    }

    /// A program with its points-to result and growable CI graph.
    fn ci_of(sources: &[(&str, &str)]) -> (Program, Pta, Sdg) {
        let p = compile(sources).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let ci = build_ci(&p, &pta);
        (p, pta, ci)
    }

    /// Finds the statement that materialises integer constant `n` (either a
    /// `Const` instruction or a `Move` with an inline constant operand).
    fn find_const_def(p: &Program, n: i64) -> thinslice_ir::StmtRef {
        use thinslice_ir::{Const, Operand};
        p.all_stmts()
            .find(|s| match &p.instr(*s).kind {
                InstrKind::Const {
                    value: Const::Int(v),
                    ..
                } => *v == n,
                InstrKind::Move {
                    src: Operand::Const(Const::Int(v)),
                    ..
                } => *v == n,
                _ => false,
            })
            .unwrap_or_else(|| panic!("no def of constant {n}"))
    }

    fn print_seed(p: &Program, sdg: &Sdg, which: i64) -> NodeId {
        let s = p
            .all_stmts()
            .find(|s| {
                s.method == p.main_method
                    && match &p.instr(*s).kind {
                        InstrKind::Print { value } => {
                            // identify by printed constant when available
                            matches!(value, thinslice_ir::Operand::Var(_)) && which < 0
                                || matches!(
                                    value,
                                    thinslice_ir::Operand::Const(thinslice_ir::Const::Int(n)) if *n == which
                                )
                        }
                        _ => false,
                    }
            })
            .unwrap();
        sdg.stmt_node(s).unwrap()
    }

    /// The unrealizable-path litmus test: two calls to an identity
    /// function; context-insensitive slicing smears the arguments, the
    /// tabulation keeps them apart.
    const TWO_CALLS: &str = "class Id { int id(int x) { return x; } }
        class Main { static void main() {
            Id f = new Id();
            int a = 111;
            int b = 222;
            int ra = f.id(a);
            int rb = f.id(b);
            print(ra);
        } }";

    #[test]
    fn tabulation_avoids_unrealizable_paths() {
        let (p, ci, _) = setup(TWO_CALLS);
        let seed = print_seed(&p, &ci, -1);
        let ci_slice = slice_from(&ci, &[seed], SliceKind::Thin);
        let cs = cs_slice(&ci, &[seed], SliceKind::Thin);

        let a_def = find_const_def(&p, 111);
        let b_def = find_const_def(&p, 222);

        assert!(ci_slice.stmts.contains(a_def));
        assert!(
            ci_slice.stmts.contains(b_def),
            "context-insensitive slicing includes the unrealizable path through id"
        );
        assert!(cs.stmts.contains(a_def));
        assert!(
            !cs.stmts.contains(b_def),
            "tabulation must keep the two call sites apart"
        );
    }

    #[test]
    fn cs_slice_is_subset_of_ci_slice() {
        let (p, ci, _) = setup(TWO_CALLS);
        let seed = print_seed(&p, &ci, -1);
        let ci_slice = slice_from(&ci, &[seed], SliceKind::Thin);
        let cs = cs_slice(&ci, &[seed], SliceKind::Thin);
        assert!(cs.stmts.is_subset(&ci_slice.stmts));
    }

    #[test]
    fn heap_params_carry_value_flow() {
        // The CS graph routes heap flow through formals/actuals; the value
        // must still be reachable end to end.
        let (p, _, cs_graph) = setup(
            "class Box { Object item;
                void fill(Object o) { this.item = o; }
                Object take() { return this.item; }
             }
             class Main { static void main() {
                Box b = new Box();
                Main m = new Main();
                b.fill(m);
                Object got = b.take();
                print(1);
             } }",
        );
        // Seed at the load inside take … easier: seed at `got`'s def (the
        // call) and expect the Main allocation in the slice.
        let call = p
            .all_stmts()
            .find(|s| {
                s.method == p.main_method
                    && matches!(&p.instr(*s).kind, InstrKind::Call { callee, .. }
                        if p.methods[*callee].name == "take")
            })
            .unwrap();
        let seed = cs_graph.stmt_node(call).unwrap();
        let slice = cs_slice(&cs_graph, &[seed], SliceKind::Thin);
        let alloc = p
            .all_stmts()
            .find(|s| {
                matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                    if *class == p.class_named("Main").unwrap())
            })
            .unwrap();
        assert!(
            slice.stmts.contains(alloc),
            "value must flow store→formal-out→actual-out→load across calls"
        );
    }

    #[test]
    fn frozen_graph_tabulates_identically() {
        let (p, ci, cs_graph) = setup(TWO_CALLS);
        let seed = print_seed(&p, &ci, -1);
        for (graph, seed) in [
            (&ci, seed),
            (
                &cs_graph,
                cs_graph
                    .stmt_node(ci.node(seed).as_stmt().unwrap())
                    .unwrap(),
            ),
        ] {
            let frozen = graph.freeze();
            let warm = cs_slice(graph, &[seed], SliceKind::Thin);
            let cold = cs_slice(&frozen, &[seed], SliceKind::Thin);
            assert_eq!(warm.visited, cold.visited);
            assert_eq!(warm.stmts, cold.stmts);
        }
    }

    #[test]
    fn context_sensitive_slices_are_never_larger() {
        // Tabulation vs reachability on the *same* graph, the direct-edge
        // one, from the first three reachable prints of every suite
        // benchmark.
        for b in thinslice_suite::all_benchmarks() {
            let (program, _, sdg) = ci_of(&b.sources);
            let prints = program.all_stmts().filter(|&s| {
                matches!(program.instr(s).kind, InstrKind::Print { .. })
                    && !sdg.stmt_nodes_of(s).is_empty()
            });
            for seed in prints.take(3) {
                let nodes = sdg.stmt_nodes_of(seed).to_vec();
                let ci = slice_from(&sdg, &nodes, SliceKind::Thin);
                let cs = cs_slice(&sdg, &nodes, SliceKind::Thin);
                assert!(
                    cs.stmts.is_subset(&ci.stmts),
                    "{}: tabulation must not add statements at {seed:?}",
                    b.name
                );
            }
        }
    }

    /// The context-sensitive tabulation result is always a subset of the
    /// context-insensitive reachability result on the same graph, for
    /// every slice kind, on generated programs.
    #[test]
    fn tabulation_is_a_refinement() {
        use thinslice_suite::{generate, GeneratorConfig};
        use thinslice_util::SmallRng;
        for case in 0..8u64 {
            let seed = SmallRng::new(case ^ 0x7ab).next_u64() % 200;
            let config = GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            };
            let src = generate(&config);
            let (program, _, sdg) = ci_of(&[("gen.mj", &src)]);
            let seed_stmt = program
                .all_stmts()
                .find(|s| matches!(program.instr(*s).kind, InstrKind::Print { .. }))
                .unwrap();
            let nodes = sdg.stmt_nodes_of(seed_stmt).to_vec();
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let ci = slice_from(&sdg, &nodes, kind);
                let cs = cs_slice(&sdg, &nodes, kind);
                assert!(cs.stmts.is_subset(&ci.stmts), "kind {kind:?}");
            }
        }
    }

    /// Calls `check` with the CS graph of every order-test program and its
    /// queries: two full lane groups and a short one, holding a repeated
    /// query, one with no seed node and one seeded at two statements'
    /// nodes.
    fn for_each_cs_corpus(rng: u64, mut check: impl FnMut(&str, &FrozenSdg, &[Vec<NodeId>])) {
        use crate::order_tests::{corpus, seeds};
        use crate::AnalysisSession;
        use thinslice_util::SmallRng;
        let mut rng = SmallRng::new(rng);
        let (mut groups, mut multi) = (0, 0);
        for (name, files) in corpus() {
            let refs: Vec<(&str, &str)> = files
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            let mut session = AnalysisSession::new(&refs).unwrap();
            let stmts = seeds(&mut session, &mut rng);
            let graph = session.cs_graph();
            let mut queries: Vec<Vec<NodeId>> = stmts
                .iter()
                .map(|&s| graph.stmt_nodes_of(s).to_vec())
                .filter(|q| !q.is_empty())
                .take(2 * LANES)
                .collect();
            let pair = [queries[0].clone(), queries[1].clone()].concat();
            queries.insert(1, queries[0].clone());
            queries.insert(2, Vec::new());
            queries.insert(3, pair);
            multi += queries.iter().filter(|q| q.len() > 1).count();
            groups += queries.len().div_ceil(LANES);
            check(&name, graph, &queries);
        }
        assert!(groups > corpus().len(), "some program needs several groups");
        assert!(multi > corpus().len(), "few multi-node seeds: {multi}");
    }

    const KINDS: [SliceKind; 3] = [
        SliceKind::Thin,
        SliceKind::TraditionalData,
        SliceKind::TraditionalFull,
    ];

    #[test]
    fn lane_walks_answer_like_the_tabulation() {
        // Unmetered groups of up to 64 queries on the CS graph of every
        // order-test program, each lane against the one-shot tabulation
        // from its seeds, every kind; every walk must leave the scratch
        // clean.
        let mut scratch = CsScratch::default();
        for_each_cs_corpus(0xc5_1a9e, |name, graph, queries| {
            let index = graph.down_consumers();
            for kind in KINDS {
                let lanes = SummaryGraph::build(graph, index, kind);
                for (g, group) in queries.chunks(LANES).enumerate() {
                    let at = format!("{name} {kind:?} group {g}");
                    let mut meters: Vec<Meter> = group.iter().map(|_| Meter::unlimited()).collect();
                    let walked = cs_lanes(graph, &lanes, group, kind, &mut scratch, &mut meters);
                    assert!(scratch.is_clean(), "{at}");
                    for (l, ((got, c), q)) in walked.iter().zip(group).enumerate() {
                        let want = cs_oneshot(graph, index, q, kind);
                        assert!(c.is_complete(), "{at} lane {l}");
                        assert_eq!(got.stmts, want.stmts, "{at} lane {l}");
                        assert_eq!(got.visited, want.visited, "{at} lane {l}");
                        assert_eq!(got.nodes_visited, want.nodes_visited, "{at} lane {l}");
                    }
                }
            }
        });
    }

    #[test]
    fn lane_walks_expand_what_the_sparse_walk_expands() {
        // The groups of `lane_walks_answer_like_the_tabulation`, each lane
        // against its own sort-based walk: unlimited, and with per-lane
        // step limits that cut some lanes mid-level while their
        // neighbours run on.
        use thinslice_util::Budget;
        let mut scratch = CsScratch::default();
        let mut cut = 0;
        for_each_cs_corpus(0x5ca1_ab1e, |name, graph, queries| {
            for kind in KINDS {
                let lanes = SummaryGraph::build(graph, graph.down_consumers(), kind);
                for (g, group) in queries.chunks(LANES).enumerate() {
                    let at = format!("{name} {kind:?} group {g}");
                    let full: Vec<Slice> = group
                        .iter()
                        .map(|q| cs_walk_sparse(graph, &lanes, q, kind, &mut Meter::unlimited()).0)
                        .collect();
                    // Every third lane unlimited, the others cut at a
                    // point of their own.
                    let limits: Vec<Option<u64>> = full
                        .iter()
                        .enumerate()
                        .map(|(l, s)| {
                            (l % 3 != 0 && s.nodes_visited > 1)
                                .then(|| 1 + (l * 7 % s.nodes_visited) as u64)
                        })
                        .collect();
                    let meter = |limit: &Option<u64>| match limit {
                        Some(n) => Budget::unlimited().with_step_limit(*n).meter(),
                        None => Meter::unlimited(),
                    };
                    for limited in [false, true] {
                        let mut meters: Vec<Meter> = limits
                            .iter()
                            .map(|limit| meter(if limited { limit } else { &None }))
                            .collect();
                        let walked =
                            cs_lanes(graph, &lanes, group, kind, &mut scratch, &mut meters);
                        assert!(scratch.is_clean(), "{at}");
                        for (l, ((got, c), q)) in walked.iter().zip(group).enumerate() {
                            let limit = if limited { limits[l] } else { None };
                            let (want, w) =
                                cs_walk_sparse(graph, &lanes, q, kind, &mut meter(&limit));
                            let at = format!("{at} lane {l} limit {limit:?}");
                            assert_eq!(*c, w, "{at}");
                            assert_eq!(got.stmts, want.stmts, "{at}");
                            assert_eq!(got.visited, want.visited, "{at}");
                            assert_eq!(got.nodes_visited, want.nodes_visited, "{at}");
                            cut += usize::from(!c.is_complete());
                        }
                    }
                }
            }
        });
        assert!(cut > 0, "some lane must be cut short");
    }

    #[test]
    fn summaries_are_reused_across_call_sites() {
        // Both calls to `wrap` need the same summary; the second should
        // reuse it and still give correct per-site flow.
        let (p, ci, _) = setup(
            "class W { int wrap(int x) { int y = x; return y; } }
             class Main { static void main() {
                W w = new W();
                int a5 = 5;
                int b6 = 6;
                int p1 = w.wrap(a5);
                int p2 = w.wrap(b6);
                print(p2);
             } }",
        );
        let seed = print_seed(&p, &ci, -1);
        let cs = cs_slice(&ci, &[seed], SliceKind::Thin);
        let five = find_const_def(&p, 5);
        let six = find_const_def(&p, 6);
        assert!(cs.stmts.contains(six));
        assert!(!cs.stmts.contains(five));
    }
}
