//! The parallel batched query engine must be a pure performance feature:
//! for every slicer variant, every benchmark program and every thread
//! count, `AnalysisSession::query_batch` answers bit-for-bit what
//! `AnalysisSession::query` answers one query at a time.
//!
//! This holds by construction — workers share only immutable data (the
//! frozen CSR graph, the down-edge index) and per-worker scratch reuse
//! clears or memoises only query-independent facts — and this test pins
//! the construction down against the whole evaluation suite.

use thinslice::{AnalysisSession, Engine, Query, QueryOutcome, RunCtx, SliceKind};
use thinslice_ir::InstrKind;
use thinslice_pta::PtaConfig;
use thinslice_sdg::DepGraph;
use thinslice_suite::GeneratorConfig;

const BFS_KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

/// One query per print statement the engine's graph reaches.
fn print_queries(s: &mut AnalysisSession, kind: SliceKind, engine: Engine) -> Vec<Query> {
    let prints: Vec<_> = s
        .program()
        .all_stmts()
        .filter(|st| matches!(s.program().instr(*st).kind, InstrKind::Print { .. }))
        .collect();
    let graph = match engine {
        Engine::Ci => s.ci_graph(),
        Engine::Cs => s.cs_graph(),
    };
    prints
        .into_iter()
        .filter(|&st| !graph.stmt_nodes_of(st).is_empty())
        .map(|st| Query::new(vec![st], kind, engine))
        .collect()
}

/// Asserts every batched outcome equals the single query's answer.
fn assert_matches_queries(s: &mut AnalysisSession, queries: &[Query], batched: &[QueryOutcome]) {
    assert_eq!(batched.len(), queries.len());
    for (i, (q, got)) in queries.iter().zip(batched).enumerate() {
        let want = s.query(q);
        let got = got.slice.as_ref().expect("ungoverned batch never fails");
        let at = format!("query {i}: {:?}/{:?}", q.engine, q.kind);
        assert_eq!(got.stmts, want.stmts, "{at}");
        assert_eq!(got.nodes_visited, want.nodes_visited, "{at}");
        assert_eq!(got.engine, want.engine, "{at}");
        assert_eq!(got.completeness, want.completeness, "{at}");
    }
}

#[test]
fn batched_bfs_slices_match_sequential_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        for kind in BFS_KINDS {
            let queries = print_queries(&mut s, kind, Engine::Ci);
            assert!(!queries.is_empty(), "{}: no print queries", b.name);
            for threads in [1, 2, 4, 8] {
                let batched = s.query_batch(&queries, threads);
                assert_matches_queries(&mut s, &queries, &batched);
            }
        }
    }
}

#[test]
fn batched_tabulation_matches_sequential_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        // The tabulation is paired with the heap-parameter graph, as in
        // the paper (§5.3).
        let queries = print_queries(&mut s, SliceKind::Thin, Engine::Cs);
        assert!(!queries.is_empty(), "{}: no print queries", b.name);
        for threads in [1, 2, 4, 8] {
            let batched = s.query_batch(&queries, threads);
            assert_matches_queries(&mut s, &queries, &batched);
        }
    }
}

#[test]
fn large_batches_match_sequential_through_every_fast_path() {
    // Tile the queries to a batch of 20 so two workers both run, reusing
    // their scratch and (for tabulation) sharing callee-exit regions, on
    // every kind of both engines.
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml exists");
    let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
    for engine in [Engine::Ci, Engine::Cs] {
        for kind in BFS_KINDS {
            let queries: Vec<Query> = print_queries(&mut s, kind, engine)
                .into_iter()
                .cycle()
                .take(20)
                .collect();
            let batched = s.query_batch(&queries, 2);
            assert_matches_queries(&mut s, &queries, &batched);
        }
    }
}

/// Every statement of the generated scale-2 program that the CI graph
/// reaches, one query each.
fn generated_statement_queries(s: &mut AnalysisSession, kind: SliceKind) -> Vec<Query> {
    let stmts: Vec<_> = {
        let program = s.program();
        program
            .all_stmts()
            .filter(|&st| {
                let span = program.instr(st).span;
                !span.is_synthetic() && program.files[span.file].name == "gen.mj"
            })
            .collect()
    };
    let graph = s.ci_graph();
    stmts
        .into_iter()
        .filter(|&st| !graph.stmt_nodes_of(st).is_empty())
        .map(|st| Query::new(vec![st], kind, Engine::Ci))
        .collect()
}

#[test]
fn lane_walked_batches_match_sequential_across_group_boundaries() {
    // CI batches are answered 64 queries per walk, in runs of consecutive
    // queries. Every statement of a generated program spans many runs;
    // the prefixes put a boundary at each side of one and two full runs;
    // the mixed batch repeats a query and holds one that resolves to no
    // node, inside one run.
    let generated = thinslice_suite::generate(&GeneratorConfig::scaled(2));
    let mut s = AnalysisSession::new(&[("gen.mj", generated.as_str())]).unwrap();
    let stmts: Vec<_> = s.program().all_stmts().collect();
    let graph = s.ci_graph();
    let unreachable = stmts
        .into_iter()
        .find(|&st| graph.stmt_nodes_of(st).is_empty())
        .expect("the standard library holds unreachable statements");
    for kind in BFS_KINDS {
        let all = generated_statement_queries(&mut s, kind);
        assert!(all.len() > 4 * 64, "{} queries", all.len());
        let mut mixed = all[..10].to_vec();
        mixed.insert(3, all[0].clone());
        mixed.insert(6, Query::new(vec![unreachable], kind, Engine::Ci));
        let batches = [2, 63, 64, 65, 129]
            .into_iter()
            .map(|n| all[..n].to_vec())
            .chain([all.clone(), mixed]);
        for queries in batches {
            for threads in [1, 2, 4, 8] {
                let batched = s.query_batch(&queries, threads);
                assert_matches_queries(&mut s, &queries, &batched);
            }
        }
    }
}

#[test]
fn cs_lane_walked_batches_match_sequential_across_group_boundaries() {
    // Ungoverned CS batches of two or more queries are answered 64 queries
    // per walk over the graph's summary edges; the prefixes put a group
    // boundary at each side of one and two full groups.
    let generated = thinslice_suite::generate(&GeneratorConfig::scaled(2));
    let mut s = AnalysisSession::new(&[("gen.mj", generated.as_str())]).unwrap();
    let stmts: Vec<_> = {
        let program = s.program();
        program
            .all_stmts()
            .filter(|&st| program.files[program.instr(st).span.file].name == "gen.mj")
            .collect()
    };
    let graph = s.cs_graph();
    let stmts: Vec<_> = stmts
        .into_iter()
        .filter(|&st| !graph.stmt_nodes_of(st).is_empty())
        .collect();
    assert!(stmts.len() > 129, "{} statements", stmts.len());
    for kind in BFS_KINDS {
        let all: Vec<Query> = stmts
            .iter()
            .map(|&st| Query::new(vec![st], kind, Engine::Cs))
            .collect();
        for n in [2, 63, 64, 65, 129] {
            let queries = &all[..n];
            for threads in [1, 2, 4, 8] {
                let batched = s.query_batch(queries, threads);
                assert_matches_queries(&mut s, queries, &batched);
                for (i, got) in batched.iter().enumerate() {
                    let got = got.slice.as_ref().expect("ungoverned batch never fails");
                    assert!(!got.degraded, "query {i} of {n}: {kind:?}");
                }
            }
        }
    }
}
