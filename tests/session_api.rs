//! The unified `AnalysisSession`/`Query` entrypoint on every suite
//! benchmark: governed queries return sound truncations of the full
//! answers; the batched path is indistinguishable from the sequential
//! one; and a warm session answers like a cold one. (The comparisons
//! against the sort-based reference slicers, over the frozen graphs and
//! the growable ones, CI and CS, live with those crate-private references
//! in `thinslice`'s `order_tests`.)

use thinslice::{Budget, Completeness, Engine, Query, QueryPolicy, RunCtx, SliceKind};
use thinslice_ir::InstrKind;
use thinslice_pta::PtaConfig;

const KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

/// Up to `n` single-statement print seeds of the program.
fn print_seeds(program: &thinslice_ir::Program, n: usize) -> Vec<thinslice_ir::StmtRef> {
    program
        .all_stmts()
        .filter(|s| matches!(program.instr(*s).kind, InstrKind::Print { .. }))
        .take(n)
        .collect()
}

#[test]
fn governed_queries_return_truncated_subsets_of_the_full_answer() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        let seeds = print_seeds(s.program(), 2);
        for seed in seeds {
            for (kind, engine) in [
                (SliceKind::Thin, Engine::Ci),
                (SliceKind::TraditionalData, Engine::Ci),
                (SliceKind::Thin, Engine::Cs),
            ] {
                let q = Query::new(vec![seed], kind, engine);
                let full = s.query(&q);
                if full.nodes_visited < 2 || full.stmts.len() < 2 {
                    continue;
                }
                // Neither engine carries anything over from earlier
                // queries, so half the visits truncates both.
                let quota = full.nodes_visited as u64 / 2;
                let policy = QueryPolicy {
                    budget: Some(Budget::unlimited().with_step_limit(quota)),
                    degrade: false,
                };
                let partial = s.query(&q.clone().with_policy(policy));
                assert!(
                    matches!(partial.completeness, Completeness::Truncated { .. }),
                    "{}: {kind:?}/{engine:?} gave {:?}",
                    b.name,
                    partial.completeness
                );
                assert!(!partial.stmts.is_empty(), "{}", b.name);
                assert!(
                    partial.stmts.is_subset(&full.stmts),
                    "{}: {kind:?}/{engine:?} truncated slice escaped the full slice",
                    b.name
                );
                if engine == Engine::Ci {
                    // The governed BFS walks in the same order, so the CI
                    // truncation is a *prefix* of the full answer.
                    assert_eq!(
                        partial.stmts.iter().collect::<Vec<_>>(),
                        full.stmts
                            .iter()
                            .take(partial.stmts.len())
                            .collect::<Vec<_>>(),
                        "{}: {kind:?} truncation is not a prefix",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn batched_queries_match_sequential_queries_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        // A mixed batch: every kind on both engines for every seed, so the
        // batch path has to group by (engine, kind) and reassemble.
        let mut queries = Vec::new();
        for seed in print_seeds(s.program(), 2) {
            for kind in KINDS {
                queries.push(Query::new(vec![seed], kind, Engine::Ci));
                queries.push(Query::new(vec![seed], kind, Engine::Cs));
            }
        }
        let sequential: Vec<_> = queries.iter().map(|q| s.query(q)).collect();
        for threads in [1, 2, 4, 8] {
            let batched = s.query_batch(&queries, threads);
            assert_eq!(batched.len(), sequential.len());
            for (i, (got, want)) in batched.iter().zip(&sequential).enumerate() {
                let got = got.slice.as_ref().expect("ungoverned batch never fails");
                assert_eq!(
                    got.stmts, want.stmts,
                    "{}: query {i} at {threads} threads",
                    b.name
                );
                assert_eq!(
                    got.nodes_visited, want.nodes_visited,
                    "{}: query {i}",
                    b.name
                );
                assert_eq!(got.engine, want.engine, "{}: query {i}", b.name);
                assert_eq!(got.completeness, want.completeness, "{}: query {i}", b.name);
            }
        }
    }
}

#[test]
fn a_fresh_session_answers_like_a_warm_one() {
    // Cache invariant: memoised artifacts (scratch, summary graphs) never
    // change answers — a session that has already answered other queries
    // agrees with a cold session on every later query.
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml exists");
    let mut warm = b.session(PtaConfig::default(), RunCtx::disabled());
    let seeds = print_seeds(warm.program(), 4);
    // Warm the session up on everything once.
    for &seed in &seeds {
        for engine in [Engine::Ci, Engine::Cs] {
            let _ = warm.query(&Query::new(vec![seed], SliceKind::Thin, engine));
        }
    }
    for &seed in &seeds {
        for engine in [Engine::Ci, Engine::Cs] {
            let q = Query::new(vec![seed], SliceKind::Thin, engine);
            let mut cold = b.session(PtaConfig::default(), RunCtx::disabled());
            let want = cold.query(&q);
            let got = warm.query(&q);
            assert_eq!(got.stmts, want.stmts);
            assert_eq!(got.nodes_visited, want.nodes_visited);
        }
    }
}
