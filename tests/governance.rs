//! Resource governance across the pipeline: budget-exhausted queries
//! return sound truncated prefixes (never panics or hangs), context-
//! sensitive queries degrade to context-insensitive reachability, a
//! governed batch answers each query as the governed single query does,
//! and a panicking worker in a batch cannot corrupt its siblings.

use std::time::Duration;
use thinslice::batch::FaultInjection;
use thinslice::{
    AnalysisSession, BatchOptions, Budget, CancelToken, Completeness, Engine, ExhaustReason, Query,
    QueryError, QueryOutcome, QueryPolicy, RunCtx, SliceKind, SliceResult,
};
use thinslice_ir::{InstrKind, Program, StmtRef};
use thinslice_pta::PtaConfig;
use thinslice_suite::GeneratorConfig;

/// One single-statement seed per print statement of the program.
fn print_seeds(program: &Program) -> Vec<Vec<StmtRef>> {
    program
        .all_stmts()
        .filter(|s| matches!(program.instr(*s).kind, InstrKind::Print { .. }))
        .map(|s| vec![s])
        .collect()
}

fn queries(program: &Program, kind: SliceKind, engine: Engine) -> Vec<Query> {
    print_seeds(program)
        .into_iter()
        .map(|seeds| Query::new(seeds, kind, engine))
        .collect()
}

fn steps(n: u64) -> Budget {
    Budget::unlimited().with_step_limit(n)
}

fn budgeted(budget: Budget) -> QueryPolicy {
    QueryPolicy {
        budget: Some(budget),
        ..QueryPolicy::default()
    }
}

fn nanoxml_session() -> AnalysisSession {
    thinslice_suite::benchmark_named("nanoxml")
        .expect("nanoxml exists")
        .session(PtaConfig::default(), RunCtx::disabled())
}

#[test]
fn truncated_bfs_slices_are_nonempty_prefixes_of_the_full_slice() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        for kind in [SliceKind::Thin, SliceKind::TraditionalData] {
            let qs = queries(s.program(), kind, Engine::Ci);
            assert!(!qs.is_empty(), "{}: no print queries", b.name);
            for q in qs.iter().take(3) {
                let full = s.query(q);
                if full.nodes_visited < 2 {
                    continue;
                }
                // Quotas strictly below the full visit count must truncate;
                // a quota of exactly the fixpoint size must not.
                for quota in [1, (full.nodes_visited as u64) / 2] {
                    let partial = s.query(&q.clone().with_policy(budgeted(steps(quota))));
                    assert!(
                        matches!(
                            partial.completeness,
                            Completeness::Truncated {
                                reason: ExhaustReason::StepQuota,
                                ..
                            }
                        ),
                        "{}: quota {quota} of {} visits gave {:?}",
                        b.name,
                        full.nodes_visited,
                        partial.completeness,
                    );
                    assert!(!partial.stmts.is_empty(), "{}", b.name);
                    assert!(partial.stmts.len() <= full.stmts.len(), "{}", b.name);
                    // The governed run walks in the same order, so the
                    // partial slice is a *prefix*, not just a subset.
                    assert_eq!(
                        partial.stmts.iter().collect::<Vec<_>>(),
                        full.stmts
                            .iter()
                            .take(partial.stmts.len())
                            .collect::<Vec<_>>(),
                        "{}: {kind:?} truncated slice is not a prefix",
                        b.name
                    );
                    assert!(
                        partial.nodes_visited <= full.nodes_visited,
                        "{}: truncated slice escaped the full slice",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn unbudgeted_governed_slices_match_the_ungoverned_slicer() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let qs = queries(s.program(), kind, Engine::Ci);
            for q in qs.iter().take(2) {
                let full = s.query(q);
                let governed = s.query(&q.clone().with_policy(budgeted(Budget::unlimited())));
                assert!(governed.completeness.is_complete(), "{}", b.name);
                assert_eq!(governed.stmts, full.stmts);
                assert_eq!(governed.nodes_visited, full.nodes_visited);
            }
        }
    }
}

#[test]
fn truncated_tabulation_slices_are_nonempty_subsets_of_the_fixpoint() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        for kind in [SliceKind::Thin, SliceKind::TraditionalData] {
            let qs = queries(s.program(), kind, Engine::Cs);
            assert!(!qs.is_empty(), "{}: no print queries", b.name);
            let q = &qs[0];
            let full = s.query(q);
            if full.stmts.len() < 2 {
                continue;
            }
            // degrade=false pins the truncated tabulation result instead of
            // falling back to context-insensitive reachability.
            let partial = s.query(&q.clone().with_policy(QueryPolicy {
                budget: Some(steps(1)),
                degrade: false,
            }));
            assert_eq!(partial.engine, Engine::Cs, "{}", b.name);
            assert!(
                matches!(partial.completeness, Completeness::Truncated { .. }),
                "{}: {kind:?} quota 1 gave {:?}",
                b.name,
                partial.completeness,
            );
            assert!(!partial.stmts.is_empty(), "{}", b.name);
            assert!(
                partial.stmts.iter().all(|st| full.stmts.contains(st)),
                "{}: truncated tabulation escaped the fixpoint slice",
                b.name
            );
            assert!(partial.nodes_visited <= full.nodes_visited, "{}", b.name);
        }
    }
}

#[test]
fn one_millisecond_deadline_always_returns_outcomes() {
    let mut s = nanoxml_session();
    let policy = budgeted(Budget::unlimited().with_deadline(Duration::from_millis(1)));
    let qs: Vec<Query> = queries(s.program(), SliceKind::Thin, Engine::Ci)
        .into_iter()
        .map(|q| q.with_policy(policy.clone()))
        .collect();
    let outcomes = s.query_batch(&qs, 2);
    assert_eq!(outcomes.len(), qs.len());
    for out in &outcomes {
        // Deadline exhaustion is a truncated result, never a hard error.
        let slice = out.slice.as_ref().expect("no worker may panic");
        assert!(!slice.degraded);
        // Either the query finished inside 1 ms or it was truncated by the
        // deadline — both are legitimate outcomes; a hang would have kept
        // this test from ever getting here.
        if let Completeness::Truncated { reason, .. } = slice.completeness {
            assert_eq!(reason, ExhaustReason::Deadline);
        }
    }
}

#[test]
fn exhausted_cs_queries_degrade_to_ci_reachability() {
    let mut s = nanoxml_session();
    let policy = budgeted(steps(1));
    let qs: Vec<Query> = queries(s.program(), SliceKind::Thin, Engine::Cs)
        .into_iter()
        .map(|q| q.with_policy(policy.clone()))
        .collect();
    let outcomes = s.query_batch(&qs, 2);
    assert_eq!(outcomes.len(), qs.len());
    let mut saw_degraded = false;
    for out in &outcomes {
        let slice = out.slice.as_ref().expect("no worker may panic");
        if slice.degraded {
            saw_degraded = true;
            // The CI fallback answered from the same frozen graph; with a
            // one-step budget it is itself truncated but non-empty.
            assert_eq!(slice.engine, Engine::Ci);
            assert!(!slice.stmts.is_empty());
            assert!(!slice.completeness.is_complete());
        }
    }
    assert!(saw_degraded, "a one-step budget must exhaust tabulation");
}

#[test]
fn injected_worker_panic_cannot_corrupt_sibling_queries() {
    let mut s = nanoxml_session();
    let qs = queries(s.program(), SliceKind::Thin, Engine::Ci);
    assert!(qs.len() >= 3, "need at least three queries");

    let clean = s.query_batch(&qs, 2);

    // The faulty query panics on every allowed attempt (2 > 1 retry).
    let opts = BatchOptions {
        fault: Some(FaultInjection {
            query: 1,
            attempts: 2,
        }),
        retries: Some(1),
        ..BatchOptions::default()
    };
    let faulty = s.query_batch_with(&qs, 2, &opts);
    assert_eq!(faulty.len(), clean.len());
    for (i, (got, want)) in faulty.iter().zip(&clean).enumerate() {
        if i == 1 {
            assert_eq!(got.retries, 1);
            assert!(
                matches!(&got.slice, Err(QueryError::Panicked { message })
                    if message.contains("injected worker fault")),
                "query 1 must fail: {:?}",
                got.slice
            );
            continue;
        }
        let (got, want) = (
            got.slice.as_ref().expect("sibling must succeed"),
            want.slice.as_ref().expect("clean run must succeed"),
        );
        // Bit-identical siblings: the panic and the scratch replacement
        // leaked nothing into other workers.
        assert_eq!(got.stmts, want.stmts, "query {i}");
        assert_eq!(got.nodes_visited, want.nodes_visited, "query {i}");
        assert!(got.completeness.is_complete());
    }
}

#[test]
fn a_retry_on_fresh_scratch_recovers_from_a_transient_panic() {
    let mut s = nanoxml_session();
    let qs = queries(s.program(), SliceKind::Thin, Engine::Ci);
    let clean = s.query_batch(&qs, 2);
    // One panic, one allowed retry: the query recovers with an identical
    // result on fresh scratch.
    let opts = BatchOptions {
        fault: Some(FaultInjection {
            query: 0,
            attempts: 1,
        }),
        retries: Some(1),
        ..BatchOptions::default()
    };
    let outcomes = s.query_batch_with(&qs, 2, &opts);
    let recovered = outcomes[0].slice.as_ref().expect("retry must succeed");
    let want = clean[0].slice.as_ref().unwrap();
    assert_eq!(outcomes[0].retries, 1);
    assert_eq!(recovered.stmts, want.stmts);
    assert_eq!(recovered.nodes_visited, want.nodes_visited);
}

/// One context-sensitive thin query per line of nanoxml's sources that
/// holds a reachable statement.
fn cs_line_queries(s: &mut AnalysisSession) -> Vec<Query> {
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml exists");
    let mut qs = Vec::new();
    for (file, text) in &b.sources {
        for line in 1..=text.lines().count() as u32 {
            if let Some(seeds) = s.seed_at_line(file, line) {
                qs.push(Query::new(seeds, SliceKind::Thin, Engine::Cs));
            }
        }
    }
    qs
}

#[test]
fn a_panicking_cs_worker_cannot_corrupt_its_siblings() {
    // Sixteen or more queries at two threads run two workers, each on its
    // own CS scratch; the panicking query's worker continues on a fresh
    // scratch.
    let mut s = nanoxml_session();
    let qs = cs_line_queries(&mut s);
    assert!(qs.len() >= 16, "two workers need at least 16 queries");
    let k = qs.len() / 2;
    let wants: Vec<SliceResult> = qs.iter().map(|q| s.query(q)).collect();
    let clean = s.query_batch(&qs, 2);
    for (i, (got, want)) in clean.iter().zip(&wants).enumerate() {
        assert_answers_like(got, want, &format!("clean query {i}"));
    }

    // Query k panics on every allowed attempt (2 > 1 retry).
    let fault = |attempts| BatchOptions {
        fault: Some(FaultInjection { query: k, attempts }),
        retries: Some(1),
        ..BatchOptions::default()
    };
    let faulty = s.query_batch_with(&qs, 2, &fault(2));
    assert_eq!(faulty.len(), qs.len());
    for (i, got) in faulty.iter().enumerate() {
        if i == k {
            assert_eq!(got.retries, 1);
            assert!(
                matches!(&got.slice, Err(QueryError::Panicked { message })
                    if message.contains("injected worker fault")),
                "query {k} must fail: {:?}",
                got.slice
            );
            continue;
        }
        let at = format!("sibling {i}");
        assert_eq!(got.retries, 0, "{at}");
        assert_answers_like(got, clean[i].slice.as_ref().unwrap(), &at);
        assert_answers_like(got, &wants[i], &at);
    }

    // One panic, one allowed retry: query k recovers with the same answer.
    let recovered = s.query_batch_with(&qs, 2, &fault(1));
    assert_eq!(recovered[k].retries, 1);
    for (i, (got, want)) in recovered.iter().zip(&wants).enumerate() {
        assert_answers_like(got, want, &format!("recovered batch query {i}"));
    }
}

#[test]
fn fail_fast_cancels_the_queries_after_a_hard_failure() {
    let mut s = nanoxml_session();
    let qs = queries(s.program(), SliceKind::Thin, Engine::Ci);
    assert!(qs.len() >= 3);
    // One worker, so queries run in order and the cancellation from query
    // 0's hard failure deterministically precedes every later query.
    let opts = BatchOptions {
        fault: Some(FaultInjection {
            query: 0,
            attempts: 2,
        }),
        retries: Some(1),
        fail_fast: true,
    };
    let outcomes = s.query_batch_with(&qs, 1, &opts);
    assert!(outcomes[0].slice.is_err());
    for (i, out) in outcomes.iter().enumerate().skip(1) {
        let slice = out.slice.as_ref().expect("cancelled, not failed");
        assert!(
            matches!(
                slice.completeness,
                Completeness::Truncated {
                    reason: ExhaustReason::Cancelled,
                    ..
                }
            ),
            "query {i}: {:?}",
            slice.completeness
        );
    }
}

/// Four queries in two (engine, kind, policy) groups: three thin CI
/// queries, then one data CI query.
fn two_group_batch(s: &AnalysisSession) -> Vec<Query> {
    let thin = queries(s.program(), SliceKind::Thin, Engine::Ci);
    assert!(thin.len() >= 3, "need at least three queries");
    let data = Query::new(
        thin[0].seeds.clone(),
        SliceKind::TraditionalData,
        Engine::Ci,
    );
    let mut qs = thin[..3].to_vec();
    qs.push(data);
    qs
}

/// Query `query` panics once and is not retried.
fn fault_at(query: usize, fail_fast: bool) -> BatchOptions {
    BatchOptions {
        fault: Some(FaultInjection { query, attempts: 1 }),
        retries: Some(0),
        fail_fast,
    }
}

fn assert_cancelled(out: &QueryOutcome, i: usize) {
    let slice = out.slice.as_ref().expect("cancelled, not failed");
    assert!(
        matches!(
            slice.completeness,
            Completeness::Truncated {
                reason: ExhaustReason::Cancelled,
                ..
            }
        ),
        "query {i}: {:?}",
        slice.completeness
    );
}

#[test]
fn fail_fast_cancels_the_later_queries_of_every_group() {
    let mut s = nanoxml_session();
    let qs = two_group_batch(&s);
    // One worker, so the failure of query 1 precedes queries 2 and 3.
    let out = s.query_batch_with(&qs, 1, &fault_at(1, true));
    assert!(out[0].is_clean());
    assert!(out[1].slice.is_err());
    assert_cancelled(&out[2], 2);
    assert_cancelled(&out[3], 3);
}

#[test]
fn fault_at_a_query_of_a_later_group_panics_that_query() {
    let mut s = nanoxml_session();
    let qs = two_group_batch(&s);
    let out = s.query_batch_with(&qs, 1, &fault_at(3, false));
    for (i, o) in out.iter().enumerate().take(3) {
        assert!(o.is_clean(), "query {i}: {:?}", o.slice);
    }
    assert!(
        matches!(&out[3].slice, Err(QueryError::Panicked { message })
            if message.contains("injected worker fault")),
        "query 3 must fail: {:?}",
        out[3].slice
    );
}

#[test]
fn fault_at_a_query_panics_no_query_of_another_group() {
    let mut s = nanoxml_session();
    let qs = two_group_batch(&s);
    let out = s.query_batch_with(&qs, 1, &fault_at(0, false));
    assert!(out[0].slice.is_err());
    for (i, o) in out.iter().enumerate().skip(1) {
        assert!(o.is_clean(), "query {i}: {:?}", o.slice);
    }
}

#[test]
fn fail_fast_failure_leaves_the_session_token_uncancelled() {
    // The session's budget carries a token; a fail-fast batch runs under a
    // token of its own, so its failure cancels neither the session's token
    // nor any later query or batch on the session.
    let token = CancelToken::new();
    let ctx = RunCtx::disabled().with_budget(Budget::unlimited().with_cancel(token.clone()));
    let mut s = thinslice_suite::benchmark_named("nanoxml")
        .expect("nanoxml exists")
        .session(PtaConfig::default(), ctx);
    let qs = two_group_batch(&s);
    let out = s.query_batch_with(&qs, 1, &fault_at(1, true));
    assert!(out[1].slice.is_err());
    assert_cancelled(&out[2], 2);
    assert_cancelled(&out[3], 3);
    assert!(!token.is_cancelled(), "the session token must stay live");
    for (i, q) in qs.iter().enumerate() {
        assert!(s.query(q).completeness.is_complete(), "query {i}");
    }
    for opts in [BatchOptions::default(), fault_at(9, true)] {
        for (i, o) in s.query_batch_with(&qs, 1, &opts).iter().enumerate() {
            assert!(o.is_clean(), "query {i}: {:?}", o.slice);
        }
    }
    // A cancelled session token still stops a fail-fast batch, as it
    // stops every single query.
    token.cancel();
    for (i, o) in s
        .query_batch_with(&qs, 1, &fault_at(9, true))
        .iter()
        .enumerate()
    {
        assert_cancelled(o, i);
    }
}

/// Asserts a batched outcome equals the single query's answer.
fn assert_answers_like(got: &QueryOutcome, want: &SliceResult, at: &str) {
    let got = got.slice.as_ref().expect("no worker may panic");
    assert_eq!(got.stmts, want.stmts, "{at}: stmts");
    assert_eq!(got.nodes_visited, want.nodes_visited, "{at}: nodes visited");
    assert_eq!(got.completeness, want.completeness, "{at}: completeness");
    assert_eq!(
        (got.engine, got.degraded),
        (want.engine, want.degraded),
        "{at}"
    );
}

#[test]
fn governed_batches_answer_like_governed_queries() {
    // Batches of 16 queries and of 3, CI and CS, are lane-walked under
    // the budget with a meter per lane, and each lane must stop where the
    // single query's walk stops. Step limits of 1, half and full - 1 of the
    // largest answer cut every query, some and only the largest; two
    // threads run two workers on 16 queries.
    let generated = thinslice_suite::generate(&GeneratorConfig::scaled(2));
    let programs = [
        ("nanoxml", nanoxml_session()),
        (
            "gen-x2",
            AnalysisSession::new(&[("gen.mj", generated.as_str())]).unwrap(),
        ),
    ];
    for (name, mut s) in programs {
        for (engine, kind) in [Engine::Ci, Engine::Cs].into_iter().flat_map(|e| {
            [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ]
            .map(|k| (e, k))
        }) {
            let prints = queries(s.program(), kind, engine);
            let n = prints.len().max(16);
            let qs: Vec<Query> = prints.into_iter().cycle().take(n).collect();
            let sizes: Vec<usize> = qs.iter().map(|q| s.query(q).nodes_visited).collect();
            let full = *sizes.iter().max().unwrap();
            let largest = sizes.iter().position(|&len| len == full).unwrap();
            assert!(
                full > 2,
                "{name}: {engine:?}/{kind:?} answers too small to cut"
            );
            for limit in [1, full / 2, full - 1] {
                let policy = budgeted(steps(limit as u64));
                let governed: Vec<Query> = qs
                    .iter()
                    .map(|q| q.clone().with_policy(policy.clone()))
                    .collect();
                // A short batch: the largest query and the two after it.
                let small: Vec<Query> = governed
                    .iter()
                    .cycle()
                    .skip(largest)
                    .take(3)
                    .cloned()
                    .collect();
                for (threads, batch) in [(1, &governed), (2, &governed), (1, &small)] {
                    let len = batch.len();
                    let at = format!(
                        "{name} {engine:?}/{kind:?} limit {limit} threads {threads} of {len}"
                    );
                    let batched = s.query_batch(batch, threads);
                    let mut truncated = 0;
                    for (i, (q, got)) in batch.iter().zip(&batched).enumerate() {
                        let want = s.query(q);
                        truncated += usize::from(!want.completeness.is_complete() || want.degraded);
                        assert_answers_like(got, &want, &format!("{at} query {i}"));
                    }
                    assert!(truncated > 0, "{at}: the limit must cut something");
                }
            }
        }
    }
}

#[test]
fn governed_cs_queries_answer_alike_on_fresh_and_warm_sessions() {
    // Every print query of every suite program, thin and data, cut at a
    // quarter, half and three quarters of its full answer, with the
    // fallback to CI on and off: a fresh session, restored from a snapshot
    // taken before any CS query, answers it as a session that has already
    // answered every CS query of the program does.
    let mut compared = 0;
    for b in thinslice_suite::all_benchmarks() {
        let mut warm = b.session(PtaConfig::default(), RunCtx::disabled());
        warm.cs_graph();
        let bytes = warm.write_snapshot("k").expect("complete stages snapshot");
        let fresh = || {
            AnalysisSession::from_snapshot(&bytes, "k", PtaConfig::default(), RunCtx::disabled())
                .expect("the snapshot restores")
        };
        let mut qs = queries(warm.program(), SliceKind::Thin, Engine::Cs);
        qs.extend(queries(
            warm.program(),
            SliceKind::TraditionalData,
            Engine::Cs,
        ));
        let fulls: Vec<usize> = qs.iter().map(|q| warm.query(q).nodes_visited).collect();
        for (q, full) in qs.iter().zip(fulls) {
            for limit in [full / 4, full / 2, 3 * full / 4] {
                if limit == 0 {
                    continue;
                }
                for degrade in [true, false] {
                    let q = q.clone().with_policy(QueryPolicy {
                        budget: Some(steps(limit as u64)),
                        degrade,
                    });
                    let want = fresh().query(&q);
                    let at = format!(
                        "{} {:?} limit {limit} of {full} degrade {degrade}",
                        b.name, q.kind
                    );
                    assert!(want.degraded || !want.completeness.is_complete(), "{at}");
                    let got = warm.query(&q);
                    assert_eq!(got.stmts, want.stmts, "{at}: stmts");
                    assert_eq!(got.nodes_visited, want.nodes_visited, "{at}: nodes visited");
                    assert_eq!(got.completeness, want.completeness, "{at}: completeness");
                    assert_eq!(
                        (got.engine, got.degraded),
                        (want.engine, want.degraded),
                        "{at}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 100, "only {compared} governed queries compared");
}

#[test]
fn one_query_ungoverned_batches_answer_like_queries() {
    let mut s = nanoxml_session();
    for engine in [Engine::Ci, Engine::Cs] {
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let q = queries(s.program(), kind, engine)
                .into_iter()
                .find(|q| s.query(q).stmts.len() > 1)
                .expect("a print with a non-trivial slice");
            let out = s.query_batch(std::slice::from_ref(&q), 1);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].retries, 0);
            let want = s.query(&q);
            assert!(want.completeness.is_complete());
            assert_answers_like(&out[0], &want, &format!("{engine:?}/{kind:?}"));
        }
    }
}

#[test]
fn one_query_governed_cs_batches_answer_like_cold_queries() {
    // A one-query governed CS batch walks the summary graph from its
    // seeds, as the session's own query does. Cut short, it answers as
    // the first CS query of a fresh session does: by the ladder to CI, or
    // with the truncated CS prefix when the policy forbids degrading.
    let mut warm = nanoxml_session();
    let q = queries(warm.program(), SliceKind::Thin, Engine::Cs)
        .into_iter()
        .max_by_key(|q| warm.query(q).nodes_visited)
        .expect("a print query");
    let full = warm.query(&q).nodes_visited;
    assert!(full > 2, "answer too small to cut");
    for limit in [1, full / 2, full - 1] {
        for degrade in [true, false] {
            let policy = QueryPolicy {
                budget: Some(steps(limit as u64)),
                degrade,
            };
            let q = q.clone().with_policy(policy);
            let mut s = nanoxml_session();
            let out = s.query_batch(std::slice::from_ref(&q), 1);
            let want = s.query(&q);
            assert!(want.degraded || !want.completeness.is_complete());
            let at = format!("limit {limit} degrade {degrade}");
            assert_answers_like(&out[0], &want, &at);
        }
    }
}

/// The runs of consecutive outcomes that share one latency: a lane group
/// reports its walk's wall time for every query, and a query answered
/// alone forms a run of its own.
fn latency_runs(out: &[QueryOutcome]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=out.len() {
        if i == out.len() || out[i].latency != out[start].latency {
            runs.push(start..i);
            start = i;
        }
    }
    runs
}

/// The outcomes bucketed by equal latency, each bucket's indices
/// ascending: a lane group reports its walk's wall time for every query,
/// wherever the engine's order put its queries in the batch.
fn latency_groups(out: &[QueryOutcome]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, o) in out.iter().enumerate() {
        match groups.iter_mut().find(|g| out[g[0]].latency == o.latency) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

#[test]
fn governed_lane_groups_answer_like_governed_queries() {
    // The step limits of `governed_batches_answer_like_governed_queries`
    // on batches of more than 64 queries, CI and CS, which the engine
    // walks in several lane groups: each lane runs on its own meter, so a
    // group holds cut and uncut lanes side by side. A cut CS lane takes
    // the ladder to CI, as the single query does.
    let generated = thinslice_suite::generate(&GeneratorConfig::scaled(2));
    let programs = [
        ("nanoxml", nanoxml_session()),
        (
            "gen-x2",
            AnalysisSession::new(&[("gen.mj", generated.as_str())]).unwrap(),
        ),
    ];
    for (name, mut s) in programs {
        for (engine, kind) in [Engine::Ci, Engine::Cs].into_iter().flat_map(|e| {
            [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ]
            .map(|k| (e, k))
        }) {
            let prints = queries(s.program(), kind, engine);
            let qs: Vec<Query> = prints.into_iter().cycle().take(100).collect();
            let sizes: Vec<usize> = qs.iter().map(|q| s.query(q).nodes_visited).collect();
            let full = *sizes.iter().max().unwrap();
            assert!(
                full > 2,
                "{name}: {engine:?}/{kind:?} answers too small to cut"
            );
            let mut mixed_groups = 0;
            for limit in [1, full / 2, full - 1] {
                let policy = budgeted(steps(limit as u64));
                let governed: Vec<Query> = qs
                    .iter()
                    .map(|q| q.clone().with_policy(policy.clone()))
                    .collect();
                for threads in [1, 2] {
                    let at = format!("{name} {engine:?}/{kind:?} limit {limit} threads {threads}");
                    let batched = s.query_batch(&governed, threads);
                    let mut cut = vec![false; governed.len()];
                    for (i, (q, got)) in governed.iter().zip(&batched).enumerate() {
                        let want = s.query(q);
                        cut[i] = !want.completeness.is_complete() || want.degraded;
                        assert_answers_like(got, &want, &format!("{at} query {i}"));
                    }
                    let groups = latency_groups(&batched);
                    assert!(groups.iter().all(|g| g.len() <= 64), "{at}: {groups:?}");
                    mixed_groups += groups
                        .into_iter()
                        .filter(|g| g.iter().any(|&i| cut[i]) && g.iter().any(|&i| !cut[i]))
                        .count();
                }
            }
            assert!(
                mixed_groups > 0,
                "{name} {engine:?}/{kind:?}: no group mixes cut and uncut lanes"
            );
        }
    }
}

#[test]
fn fail_fast_fault_in_a_later_lane_group_cancels_what_follows() {
    // 150 thin queries run as three groups of 50 on one worker. The first
    // group is walked before the fault, the second holds it and is
    // answered one query at a time, and the third starts cancelled.
    let mut s = nanoxml_session();
    let qs: Vec<Query> = queries(s.program(), SliceKind::Thin, Engine::Ci)
        .into_iter()
        .cycle()
        .take(150)
        .collect();
    let fault = 60;
    let opts = BatchOptions {
        fault: Some(FaultInjection {
            query: fault,
            attempts: 2,
        }),
        retries: Some(1),
        fail_fast: true,
    };
    let out = s.query_batch_with(&qs, 1, &opts);
    // A walked group's queries all report the group's wall time; the
    // faulty group's queries are timed one by one.
    let runs = latency_runs(&out);
    assert_eq!(runs.first(), Some(&(0..50)));
    assert!(out[100..].iter().all(|o| o.latency == out[100].latency));
    assert!(runs.len() > 3, "the faulty group was lane-walked: {runs:?}");
    for (i, o) in out.iter().enumerate().take(fault) {
        assert!(o.is_clean(), "query {i}: {:?}", o.slice);
        assert_answers_like(o, &s.query(&qs[i]), &format!("query {i}"));
    }
    assert_eq!(out[fault].retries, 1);
    assert!(
        matches!(&out[fault].slice, Err(QueryError::Panicked { message })
            if message.contains("injected worker fault")),
        "query {fault} must fail: {:?}",
        out[fault].slice
    );
    for (i, o) in out.iter().enumerate().skip(fault + 1) {
        assert_cancelled(o, i);
    }
}

#[test]
fn batches_under_a_deadline_answer_each_query_on_its_own_clock() {
    // A deadline is per query, and every lane of a walk would run on the
    // group's clock. So under a deadline a 64-query batch, which one lane
    // walk would answer, is answered one query at a time: each query is
    // timed alone, and each answer is the governed query's, complete.
    let mut s = nanoxml_session();
    let policy = budgeted(Budget::unlimited().with_deadline(Duration::from_secs(60)));
    for kind in [
        SliceKind::Thin,
        SliceKind::TraditionalData,
        SliceKind::TraditionalFull,
    ] {
        let qs: Vec<Query> = queries(s.program(), kind, Engine::Ci)
            .into_iter()
            .cycle()
            .take(64)
            .map(|q| q.with_policy(policy.clone()))
            .collect();
        for threads in [1, 2] {
            let out = s.query_batch(&qs, threads);
            for (i, (q, o)) in qs.iter().zip(&out).enumerate() {
                assert!(o.is_clean(), "{kind:?} query {i}: {:?}", o.slice);
                assert_answers_like(o, &s.query(q), &format!("{kind:?} query {i}"));
            }
            let runs = latency_runs(&out);
            assert!(
                runs.len() > 2,
                "{kind:?} threads {threads}: walked as {runs:?}"
            );
        }
    }
}
