//! Pins the frozen-graph answers — whose canonical orders come from
//! bitset drains — against the sort-based references ([`slice_sparse`],
//! the sparse tabulation store and the sparse two-phase walk) on a corpus
//! whose levels and visited sets span many bitset words and need
//! reordering, unbudgeted and truncated, with truncated and unbudgeted
//! queries interleaved on each session's reused scratch; and against the
//! same references walking the growable graphs the frozen ones came from.
//!
//! Each answer is compared in statement order and in visited-node
//! membership. Answers carry only a visited-node count; the membership is
//! the test-only `visited` field of [`crate::slice::Slice`] and
//! [`SliceResult`], and the count is pinned to its length.

use crate::session::{AnalysisSession, Engine, Query, QueryPolicy, SliceResult};
use crate::slice::{slice_sparse, SliceKind, SliceScratch};
use crate::stmtset::StmtSet;
use crate::tabulation::{cs_oneshot, cs_walk_sparse, DownConsumers, SummaryGraph};
use thinslice_ir::{compile, InstrKind, StmtRef};
use thinslice_pta::{ModRef, Pta, PtaConfig};
use thinslice_sdg::{build_ci, build_cs, DepGraph, FrozenSdg, NodeId};
use thinslice_suite::{all_benchmarks, generate, GeneratorConfig};
use thinslice_util::{Budget, Idx, Meter, SmallRng};

/// Seeds per program besides its `print`s.
const SAMPLED: usize = 200;

/// Bits per bitset word: a list of more ids than this spans several words.
const WORD_BITS: usize = 64;

const KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

/// Every suite program plus generated programs at scales 1, 2 and 4.
pub(crate) fn corpus() -> Vec<(String, Vec<(String, String)>)> {
    let mut out: Vec<(String, Vec<(String, String)>)> = all_benchmarks()
        .into_iter()
        .map(|b| {
            let files = b
                .sources
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect();
            (b.name.to_string(), files)
        })
        .collect();
    for scale in [1, 2, 4] {
        let text = generate(&GeneratorConfig::scaled(scale));
        out.push((format!("gen-x{scale}"), vec![("gen.mj".into(), text)]));
    }
    out
}

/// Every reachable `print`, then a seeded sample of reachable statements.
pub(crate) fn seeds(session: &mut AnalysisSession, rng: &mut SmallRng) -> Vec<StmtRef> {
    let candidates: Vec<StmtRef> = session.program().all_stmts().collect();
    let graph = session.ci_graph();
    let reachable: Vec<StmtRef> = candidates
        .into_iter()
        .filter(|&s| graph.stmt_node(s).is_some())
        .collect();
    let program = session.program();
    let mut out: Vec<StmtRef> = reachable
        .iter()
        .copied()
        .filter(|&s| matches!(program.instr(s).kind, InstrKind::Print { .. }))
        .collect();
    for _ in 0..SAMPLED.min(reachable.len()) {
        out.push(reachable[rng.range_usize(0, reachable.len())]);
    }
    out
}

/// The widest BFS level of a backward slice, and whether some level is
/// discovered out of ascending id order — a level the ordering must sort.
/// Counted independently of the slicers.
fn level_shape(graph: &FrozenSdg, seeds: &[NodeId], kind: SliceKind) -> (usize, bool) {
    let mut seen = vec![false; graph.node_count()];
    let mut level: Vec<NodeId> = Vec::new();
    for &n in seeds {
        if !std::mem::replace(&mut seen[n.index()], true) {
            level.push(n);
        }
    }
    let (mut widest, mut unsorted) = (0, false);
    while !level.is_empty() {
        widest = widest.max(level.len());
        unsorted |= level.windows(2).any(|w| w[0] > w[1]);
        level.sort_unstable();
        let mut next = Vec::new();
        for &n in &level {
            for e in graph.deps(n) {
                if kind.follows(&e.kind) && !std::mem::replace(&mut seen[e.target.index()], true) {
                    next.push(e.target);
                }
            }
        }
        level = next;
    }
    (widest, unsorted)
}

/// Step limits that cut a query of `full` steps: 1, half and `full - 1`.
fn cuts(full: usize) -> Vec<u64> {
    let mut out: Vec<u64> = [1, full / 2, full.saturating_sub(1)]
        .into_iter()
        .filter(|&c| c >= 1 && c < full)
        .map(|c| c as u64)
        .collect();
    out.dedup();
    out
}

fn limited(steps: u64, degrade: bool) -> QueryPolicy {
    QueryPolicy {
        budget: Some(Budget::unlimited().with_step_limit(steps)),
        degrade,
    }
}

/// Asserts that `got` holds `want_stmts` in order and visited exactly the
/// nodes `want_visited`, and that its count says so.
fn assert_same(got: &SliceResult, want_stmts: &StmtSet, want_visited: &[NodeId], at: &str) {
    assert_eq!(got.stmts, *want_stmts, "{at}: stmts");
    assert_eq!(got.visited, want_visited, "{at}: visited nodes");
    assert_eq!(got.nodes_visited, want_visited.len(), "{at}: visited count");
}

#[test]
fn frozen_answers_match_the_sort_based_references_on_wide_inputs() {
    let mut rng = SmallRng::new(0x5eed_0e0d);
    let (mut widest, mut unsorted, mut widest_ci_set, mut widest_cs_set) = (0, false, 0, 0);
    let mut degraded = 0;
    let mut sparse = SliceScratch::new();
    for (name, files) in corpus() {
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let mut session = AnalysisSession::new(&refs).unwrap();
        let stmts = seeds(&mut session, &mut rng);
        let ci = session.ci_graph().clone();
        let cs = session.cs_graph().clone();
        let index = cs.down_consumers();
        let summary = SummaryGraph::build(&cs, index, SliceKind::Thin);
        for (i, &stmt) in stmts.iter().enumerate() {
            let ci_seeds = ci.stmt_nodes_of(stmt).to_vec();
            for kind in KINDS {
                let at = format!("{name} seed {i} {kind:?}");
                let q = Query::new(vec![stmt], kind, Engine::Ci);
                let (want, _) =
                    slice_sparse(&ci, &ci_seeds, kind, &mut sparse, &mut Meter::unlimited());
                let got = session.query(&q);
                assert!(got.completeness.is_complete(), "{at}");
                assert_same(&got, &want.stmts, &want.visited, &at);
                let (w, p) = level_shape(&ci, &ci_seeds, kind);
                widest = widest.max(w);
                unsorted |= p;
                widest_ci_set = widest_ci_set.max(got.nodes_visited);
                // Truncated prefixes, interleaved on the session's scratch.
                for steps in cuts(got.nodes_visited) {
                    let cut = session.query(&q.clone().with_policy(limited(steps, false)));
                    let mut meter = Budget::unlimited().with_step_limit(steps).meter();
                    let (want, c) = slice_sparse(&ci, &ci_seeds, kind, &mut sparse, &mut meter);
                    assert!(!cut.completeness.is_complete() && !c.is_complete());
                    assert_same(&cut, &want.stmts, &want.visited, &format!("{at} /{steps}"));
                    assert!(session.scratch_is_clean(), "{at} /{steps}");
                }
                assert!(session.scratch_is_clean(), "{at}");
            }

            let at = format!("{name} seed {i} cs-thin");
            let kind = SliceKind::Thin;
            let cs_seeds = cs.stmt_nodes_of(stmt).to_vec();
            let q = Query::new(vec![stmt], kind, Engine::Cs);
            let want = cs_oneshot(&cs, index, &cs_seeds, kind);
            let got = session.query(&q);
            assert!(got.completeness.is_complete() && !got.degraded, "{at}");
            assert_same(&got, &want.stmts, &want.visited, &at);
            widest_cs_set = widest_cs_set.max(got.nodes_visited);
            for steps in cuts(got.nodes_visited) {
                let at = format!("{at} /{steps}");
                let budget = || Budget::unlimited().with_step_limit(steps).meter();
                // The session's walk expands the query's (node, phase)
                // states in the canonical order, as the sort-based walk
                // does, so it is cut where the sort-based walk is cut.
                let cut = session.query(&q.clone().with_policy(limited(steps, false)));
                let (want, w) = cs_walk_sparse(&cs, &summary, &cs_seeds, kind, &mut budget());
                assert!(!w.is_complete(), "{at}");
                assert_eq!(cut.completeness, w, "{at}");
                assert_same(&cut, &want.stmts, &want.visited, &at);
                // With degradation on, the cut walk is re-answered by the
                // dense BFS over the CS graph under a fresh meter.
                let ladder = session.query(&q.clone().with_policy(limited(steps, true)));
                assert!(ladder.degraded, "{at}");
                let (want, _) = slice_sparse(&cs, &cs_seeds, kind, &mut sparse, &mut budget());
                assert_same(&ladder, &want.stmts, &want.visited, &at);
                degraded += 1;
                assert!(session.scratch_is_clean(), "{at}");
            }
        }
    }
    assert!(
        widest > WORD_BITS,
        "some BFS level must span several bitset words (widest {widest})"
    );
    assert!(unsorted, "some BFS level must need reordering");
    assert!(widest_ci_set > WORD_BITS && widest_cs_set > WORD_BITS);
    assert!(degraded > 0, "the degradation ladder must run");
}

/// The growable graphs as one more reference: on every print seed of
/// every suite program, both engines answer every kind exactly as the
/// sort-based slicers answer over the growable `Sdg`s — the direct-edge
/// graph for CI, the heap-parameter graph for CS — in statement order and
/// visited nodes.
#[test]
fn session_answers_match_the_sort_based_references_on_the_growable_graphs() {
    let mut scratch = SliceScratch::new();
    for b in all_benchmarks() {
        let program = compile(&b.sources).unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        let ci_sdg = build_ci(&program, &pta);
        let cs_sdg = build_cs(&program, &pta, &ModRef::compute(&program, &pta));
        let cs_index = DownConsumers::build(&cs_sdg);
        let mut session = AnalysisSession::new(&b.sources).unwrap();
        let prints = program
            .all_stmts()
            .filter(|&s| matches!(program.instr(s).kind, InstrKind::Print { .. }));
        for stmt in prints {
            for (engine, sdg) in [(Engine::Ci, &ci_sdg), (Engine::Cs, &cs_sdg)] {
                let seeds = sdg.stmt_nodes_of(stmt).to_vec();
                if seeds.is_empty() {
                    continue;
                }
                for kind in KINDS {
                    let at = format!("{} {stmt:?} {engine:?}/{kind:?}", b.name);
                    let unlimited = &mut Meter::unlimited();
                    let want = match engine {
                        Engine::Ci => slice_sparse(sdg, &seeds, kind, &mut scratch, unlimited).0,
                        Engine::Cs => cs_oneshot(sdg, &cs_index, &seeds, kind),
                    };
                    let got = session.query(&Query::new(vec![stmt], kind, engine));
                    assert_eq!((got.engine, got.kind), (engine, kind), "{at}");
                    assert!(got.completeness.is_complete() && !got.degraded, "{at}");
                    assert_same(&got, &want.stmts, &want.visited, &at);
                }
            }
        }
    }
}
