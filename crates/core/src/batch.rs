//! Parallel batched slicing: N queries over one shared frozen graph.
//!
//! The paper's evaluation workload is query-heavy: one dependence graph,
//! many seeds (every task of Table 2/3 slices the same benchmark). This
//! module amortises everything that does not depend on the seed —
//! the CSR graph ([`FrozenSdg`]), per-worker scratch buffers (the BFS and
//! lane-walk buffers), the tabulation's down-edge index
//! ([`FrozenSdg::down_consumers`]) and the summary edges — and fans the
//! queries out across threads over the shared immutable graph.
//!
//! Results are returned in query order, and each result is identical to
//! what the sequential single-query path ([`AnalysisSession::query`])
//! produces, whatever the thread count: workers share only immutable
//! data, and each query's answer depends on its own seeds and meter alone.
//!
//! Each engine answers every query by one walk, each query under its own
//! meter. A context-insensitive query is a BFS that tests each edge's
//! label against its kind. A context-sensitive query is two-phase
//! reachability over the graph plus its summary edges (Horwitz, Reps and
//! Binkley), which the session builds once per slice kind and graph, on
//! the first CS query or batch of the kind, outside every meter.
//!
//! A batch is cut into lane groups of at most 64 queries, and each group
//! is answered by one lane walk that carries a 64-bit lane mask per node,
//! so the queries of a group share the scan of every node they reach at
//! the same BFS level; a CI group is a multi-source BFS (Then et al., *The
//! More the Merrier*, VLDB 2014). A lane whose meter can run out expands
//! its own nodes in its own canonical order and ticks its own meter, and a
//! lane whose meter cannot is never ticked, so each lane answers what its
//! query answers alone. A lane-walked batch gets one worker per group.
//!
//! A group's answers share memory. Its walk writes each statement once,
//! to one emission log, with the lanes that newly emit it, and each
//! query's statements are a view of that log ([`StmtSet`]): no id is
//! pushed once per lane or copied into a list per query. Cloning an
//! outcome copies no ids, and an answer kept alone keeps its group's log
//! alive.
//!
//! Consecutive statements form dependence chains whose lanes reach their
//! shared producers one level apart, and so scan them once per level. A
//! lane-walked batch of two or more groups is therefore cut from its
//! queries ordered by dependence height ([`FrozenSdg::heights`]), deepest
//! first, so that a group's queries reach shared producers at about the
//! same level. The order decides only which queries share a walk, never
//! an answer, and outcomes come back in query order. A fail-fast batch
//! keeps query order, because a failure cancels the queries after it, and
//! so does every batch of one group or answered one query at a time.
//!
//! The calling thread is one of a batch's workers. It answers the first
//! group on the scratch it was passed (the session's), then claims further
//! groups from one shared counter, as do the other workers: scoped threads
//! spawned for the batch, each on empty scratch. Groups are near-equal in
//! length and the deepest, costliest walks are claimed first, so the
//! cheap ones fill in at the end and one counter keeps the workers busy
//! without stealing.
//!
//! A group of one query, the group holding a fault-injected query, a
//! group whose walk panicked, and every group of a batch without retries
//! or under a deadline are answered one query at a time instead, each by
//! a walk of its own. A deadline is per query, and a lane's clock would
//! also run during its siblings' work. A batch answered one query at a
//! time gets a worker per 8 queries, and at least one group per worker.
//!
//! One engine answers every batch, governed or not; an ungoverned batch
//! simply runs under an unlimited budget. Every walk runs under
//! `catch_unwind`: a query that panics is retried on fresh scratch and, if
//! it keeps panicking, answered with a [`QueryError`] while its siblings
//! are unaffected. A context-sensitive query cut short by its budget takes
//! the CS → CI ladder unless the policy forbids it.
//!
//! # Examples
//!
//! ```
//! use thinslice::{AnalysisSession, Engine, Query, SliceKind};
//!
//! let mut session = AnalysisSession::new(&[(
//!     "t.mj",
//!     "class Main { static void main() {\nint x = 1;\nprint(x);\nprint(2);\n} }",
//! )])?;
//! let queries: Vec<Query> = [3, 4]
//!     .into_iter()
//!     .map(|line| {
//!         let seeds = session.seed_at_line("t.mj", line).unwrap();
//!         Query::new(seeds, SliceKind::Thin, Engine::Ci)
//!     })
//!     .collect();
//! let outcomes = session.query_batch(&queries, 2);
//! assert_eq!(outcomes.len(), 2);
//! let first = outcomes[0].slice.as_ref().unwrap();
//! assert_eq!(first.stmts, session.query(&queries[0]).stmts);
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```
//!
//! [`AnalysisSession::query`]: crate::AnalysisSession::query
//! [`StmtSet`]: crate::StmtSet

use crate::session::{Engine, SliceResult};
use crate::slice::{slice_dense, slice_lanes, Slice, SliceKind, SliceScratch, LANES};
use crate::tabulation::{cs_lanes, CsScratch, SummaryGraphs};
use std::cmp::Reverse;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use thinslice_sdg::{FrozenSdg, NodeId};
use thinslice_util::{
    panic_message, Budget, CancelToken, Completeness, Idx, Meter, RunCtx, Telemetry,
};

/// Minimum queries a worker must stand to receive before it is worth
/// spawning, in a batch answered one query at a time: an OS thread costs
/// tens of microseconds to start, which a worker handed one or two
/// microsecond-scale slices never earns back. A lane-walked batch gets one
/// worker per lane group instead ([`BatchConfig::workers`]). Results are
/// unaffected — batches are bit-identical at every thread count.
const MIN_QUERIES_PER_WORKER: usize = 8;

/// Deterministic fault injection for robustness tests: query `query`
/// panics on its first `attempts` attempts (so `attempts <= retries`
/// exercises recovery, `attempts > retries` exercises a hard failure).
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection {
    /// Index, into the queries passed to
    /// [`AnalysisSession::query_batch_with`], of the query whose worker
    /// panics.
    ///
    /// [`AnalysisSession::query_batch_with`]: crate::AnalysisSession::query_batch_with
    pub query: usize,
    /// How many of its attempts panic before it would succeed.
    pub attempts: u32,
}

/// One thread's query scratch: the BFS and CI lane-walk buffers, and the
/// CS walk buffers. Both parts start empty and grow on first use, and
/// every query leaves them empty again.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub bfs: SliceScratch,
    pub cs: CsScratch,
}

/// How one batch runs: the group's context and robustness options.
#[derive(Debug, Clone)]
pub(crate) struct BatchConfig {
    /// Shared run context: the telemetry sink for per-query metrics and
    /// budget-exhaustion events, plus the per-query resource budget
    /// (deadline measured per attempt).
    pub ctx: RunCtx,
    /// Under fail-fast, the token cancelled after the first hard query
    /// failure; the call's budgets carry it, so the queries after the
    /// failure stop.
    pub fail_fast: Option<CancelToken>,
    /// How many times a panicked query is retried on fresh scratch.
    pub retries: u32,
    /// Test-only deterministic fault injection, indexed into this batch.
    pub fault: Option<FaultInjection>,
    /// Whether a context-sensitive query that exhausts its budget is
    /// re-answered by the cheaper context-insensitive slicer (the
    /// paper's scalability ladder). `false` returns the truncated CS
    /// prefix as-is.
    pub degrade: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            ctx: RunCtx::disabled(),
            fail_fast: None,
            retries: 1,
            fault: None,
            degrade: true,
        }
    }
}

impl BatchConfig {
    /// Whether batches run in lane walks under this configuration, for
    /// either engine. Never without a retry, since a walk that panics is
    /// charged as each query's first attempt, and never under a deadline:
    /// a deadline is per query, and a lane's clock would also run during
    /// its siblings' work.
    fn lanes(&self) -> bool {
        self.retries > 0 && self.ctx.budget().time_limit().is_none()
    }

    /// How many workers a batch of `queries` queries runs on when
    /// `threads` are asked for, never below 1: one per lane group of
    /// [`LANES`] queries when the batch is lane-walked, otherwise one per
    /// [`MIN_QUERIES_PER_WORKER`] queries.
    pub(crate) fn workers(&self, threads: usize, queries: usize) -> usize {
        let per_worker = if self.lanes() {
            LANES
        } else {
            MIN_QUERIES_PER_WORKER
        };
        threads.clamp(1, queries.div_ceil(per_worker).max(1))
    }
}

/// A hard per-query failure (distinct from a truncated-but-sound result).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The worker panicked on every allowed attempt.
    Panicked {
        /// The final panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Panicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One query's outcome in a batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The slice, or the hard error that survived all retries.
    pub slice: Result<SliceResult, QueryError>,
    /// Wall-clock time spent on this query, all attempts included.
    /// Measured for every query of every batch, governed or not. A query
    /// answered in a lane walk with up to 63 others, context-insensitive
    /// or context-sensitive, reports the walk's wall time, the same for
    /// every query of its group; the walk that first needs a graph's
    /// summary edges also includes building them.
    pub latency: Duration,
    /// How many retries ran (0 = first attempt sufficed).
    pub retries: u32,
}

impl QueryOutcome {
    /// Whether the query produced a complete, non-degraded slice.
    pub fn is_clean(&self) -> bool {
        matches!(
            &self.slice,
            Ok(s) if s.completeness.is_complete() && !s.degraded
        )
    }
}

/// Answers one context-insensitive query: the BFS over `graph` on warm
/// scratch, under a meter freshly armed from `budget`. Under a limited
/// budget the meter's slow checks are counted as `govern.meter_checks`.
pub(crate) fn answer_ci(
    graph: &FrozenSdg,
    seeds: &[NodeId],
    kind: SliceKind,
    budget: &Budget,
    scratch: &mut SliceScratch,
    tel: &Telemetry,
) -> SliceResult {
    let mut meter = budget.meter();
    let (slice, completeness) = slice_dense(graph, seeds, kind, scratch, &mut meter);
    if !budget.is_unlimited() {
        tel.count("govern.meter_checks", meter.slow_checks());
    }
    answer(slice, Engine::Ci, completeness, false)
}

/// Answers a group of up to [`LANES`] context-insensitive queries with one
/// lane walk over `graph`, each query under its own meter armed from
/// `budget`, so each answer is the one [`answer_ci`] gives.
fn answer_lanes(
    graph: &FrozenSdg,
    queries: &[&[NodeId]],
    kind: SliceKind,
    budget: &Budget,
    scratch: &mut SliceScratch,
    tel: &Telemetry,
) -> Vec<SliceResult> {
    let mut meters: Vec<Meter> = queries.iter().map(|_| budget.meter()).collect();
    let walked = slice_lanes(graph, queries, kind, scratch, &mut meters);
    if !budget.is_unlimited() {
        tel.count(
            "govern.meter_checks",
            meters.iter().map(Meter::slow_checks).sum(),
        );
    }
    walked
        .into_iter()
        .map(|(slice, completeness)| answer(slice, Engine::Ci, completeness, false))
        .collect()
}

/// The answer `slice` makes, labelled with its engine and honesty flags.
fn answer(slice: Slice, engine: Engine, completeness: Completeness, degraded: bool) -> SliceResult {
    SliceResult {
        engine,
        kind: slice.kind,
        stmts: slice.stmts,
        nodes_visited: slice.nodes_visited,
        #[cfg(test)]
        visited: slice.visited,
        completeness,
        degraded,
    }
}

/// Answers up to [`LANES`] context-sensitive queries over `graph` with one
/// [`cs_lanes`] walk over the kind's summary graph in `summaries`, each
/// query under its own meter armed from `budget`. The first walk that
/// needs the summary graph builds it, before any meter is armed. A query
/// cut short with `degrade` set takes the scalability ladder, CS → CI →
/// truncated: the CI BFS over the same graph answers instead, under a
/// second meter from the same budget, and the result is marked `degraded`
/// (and counted as `govern.degraded_queries`). A single query is a walk of
/// one lane.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer_cs<Q: AsRef<[NodeId]>>(
    graph: &FrozenSdg,
    summaries: &SummaryGraphs,
    queries: &[Q],
    kind: SliceKind,
    budget: &Budget,
    degrade: bool,
    scratch: &mut Scratch,
    tel: &Telemetry,
) -> Vec<SliceResult> {
    let summary = summaries.get(graph, kind, tel);
    let mut meters: Vec<Meter> = queries.iter().map(|_| budget.meter()).collect();
    let walked = cs_lanes(graph, summary, queries, kind, &mut scratch.cs, &mut meters);
    let mut checks: u64 = meters.iter().map(Meter::slow_checks).sum();
    let answers = walked
        .into_iter()
        .zip(queries)
        .map(|((slice, completeness), seeds)| {
            if completeness.is_complete() || !degrade {
                return answer(slice, Engine::Cs, completeness, false);
            }
            let mut ci_meter = budget.meter();
            let bfs = &mut scratch.bfs;
            let (ci, ci_completeness) =
                slice_dense(graph, seeds.as_ref(), kind, bfs, &mut ci_meter);
            checks += ci_meter.slow_checks();
            tel.count("govern.degraded_queries", 1);
            answer(ci, Engine::Ci, ci_completeness, true)
        })
        .collect();
    if !budget.is_unlimited() {
        tel.count("govern.meter_checks", checks);
    }
    answers
}

/// Runs query `i`'s attempts under `catch_unwind`: a panic poisons only
/// this worker's scratch (replaced fresh), is retried up to `cfg.retries`
/// times, and on final failure under fail-fast cancels the call's token,
/// which the rest of the call's queries run under. `spent` attempts (a
/// failed lane walk) are already charged against the retries.
fn run_guarded(
    i: usize,
    cfg: &BatchConfig,
    spent: u32,
    scratch: &mut Scratch,
    attempt: impl Fn(&mut Scratch) -> SliceResult,
) -> QueryOutcome {
    let start = Instant::now();
    let mut attempts_used = spent;
    loop {
        let inject = cfg
            .fault
            .is_some_and(|f| f.query == i && attempts_used < f.attempts);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected worker fault");
            }
            attempt(scratch)
        }));
        let payload = match outcome {
            Ok(slice) => {
                return QueryOutcome {
                    slice: Ok(slice),
                    latency: start.elapsed(),
                    retries: attempts_used,
                }
            }
            Err(payload) => payload,
        };
        // The unwound attempt may have left the scratch mid-update;
        // replace it so the retry (and the worker's later queries) start
        // from known-good state.
        *scratch = Scratch::default();
        if attempts_used < cfg.retries {
            attempts_used += 1;
            continue;
        }
        if let Some(cancel) = &cfg.fail_fast {
            cancel.cancel();
        }
        return QueryOutcome {
            slice: Err(QueryError::Panicked {
                message: panic_message(payload.as_ref()),
            }),
            latency: start.elapsed(),
            retries: attempts_used,
        };
    }
}

/// The batch recorder: one query's latency and retries, its failure or
/// the number of nodes its walk visited, and, for a truncated answer, a
/// `govern.budget_exhausted` event carrying the stage, the reason and the
/// abandoned-frontier size.
fn record_outcome(tel: &Telemetry, stage: &str, out: &QueryOutcome) {
    if !tel.is_enabled() {
        return;
    }
    tel.record("batch.query_us", out.latency.as_secs_f64() * 1e6);
    tel.count("batch.retries", u64::from(out.retries));
    let s = match &out.slice {
        Ok(s) => s,
        Err(e) => {
            tel.count("batch.query_failures", 1);
            tel.event(
                "batch.query_failed",
                &[("stage", stage.to_string()), ("error", e.to_string())],
            );
            return;
        }
    };
    tel.count("slice.nodes_visited", s.nodes_visited as u64);
    if let Completeness::Truncated { reason, frontier } = &s.completeness {
        tel.count("govern.budget_exhaustions", 1);
        tel.event(
            "govern.budget_exhausted",
            &[
                ("stage", stage.to_string()),
                ("reason", reason.to_string()),
                ("frontier", frontier.to_string()),
            ],
        );
    }
}

/// The batch engine: answers `queries` (seed nodes of `graph`) on up to
/// `threads` workers, in query order, under `cfg`. See the module docs. A
/// batch that runs on the calling thread alone walks on `scratch`; a CS
/// batch walks the summary graph of `kind` in `summaries`, built on first
/// use.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    engine: Engine,
    threads: usize,
    cfg: &BatchConfig,
    scratch: &mut Scratch,
    summaries: &SummaryGraphs,
) -> Vec<QueryOutcome> {
    let mut span = cfg.ctx.telemetry().span("batch.slices");
    span.add("batch.queries", queries.len() as u64);
    let threads = cfg.workers(threads, queries.len());
    let lanes = cfg.lanes();
    match engine {
        Engine::Ci => run_ci(graph, queries, kind, threads, lanes, cfg, scratch),
        Engine::Cs => run_cs(
            graph, queries, kind, threads, lanes, cfg, scratch, summaries,
        ),
    }
}

/// `n` queries cut into lane groups of near-equal length: as few as lane
/// walks allow ([`LANES`] queries each), but at least one per worker. A
/// lane-walked batch has no more workers than that, so its groups are
/// full words but for the remainder spread over them. Each range is a
/// span of the order [`run_groups`] takes the queries in.
fn lane_groups(n: usize, workers: usize) -> Vec<Range<usize>> {
    let groups = n.div_ceil(LANES).max(workers).max(1);
    let (per, extra) = (n / groups, n % groups);
    let mut start = 0;
    (0..groups)
        .map(|g| {
            let len = per + usize::from(g < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// The queries' indices, deepest first: by the highest dependence height
/// ([`FrozenSdg::heights`]) among each query's seeds, ties in query
/// order. A seed outside the graph, and a query with no seed, count as
/// height 0.
fn by_height(queries: &[Vec<NodeId>], heights: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_cached_key(|&i| {
        let deepest = queries[i].iter().filter_map(|n| heights.get(n.index()));
        Reverse(deepest.max().copied().unwrap_or(0))
    });
    order
}

/// Answers `queries` (seed nodes of `graph`) in lane groups ([`lane_groups`])
/// on `threads` workers, and returns the outcomes in query order. The
/// calling thread answers group 0 on `scratch`, then claims further groups
/// from one counter, as do `threads - 1` scoped helpers, each on empty
/// scratch; each query's outcome lands in its own slot. With one worker
/// the caller answers every group in order and nothing is spawned.
///
/// A lane-walked batch of two or more groups that is not fail-fast is cut
/// in height order ([`by_height`]; see the module docs). Every other
/// batch is cut in query order and builds no height table.
///
/// With `lanes` set, a group of two or more queries is answered by `walk`,
/// one lane walk. A group is answered one query at a time instead, each
/// query by `single` under `run_guarded`, when `lanes` is off, when it
/// holds one query or the fault-injected query, and after its walk
/// panicked. The failed walk is recorded as a `batch.lane_walk_failed`
/// event and charged as each query's first attempt. So retries, fail-fast
/// order and sibling isolation are those of single queries. Every query
/// of a lane-walked group reports the group's wall time as its latency.
#[allow(clippy::too_many_arguments)]
fn run_groups(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    cfg: &BatchConfig,
    stage: &str,
    lanes: bool,
    scratch: &mut Scratch,
    walk: impl Fn(&mut Scratch, &[&[NodeId]]) -> Vec<SliceResult> + Sync,
    single: impl Fn(&mut Scratch, &[NodeId]) -> SliceResult + Sync,
) -> Vec<QueryOutcome> {
    let tel = cfg.ctx.telemetry();
    let record = |out: QueryOutcome| {
        record_outcome(tel, stage, &out);
        out
    };
    let answer_group = |scratch: &mut Scratch, group: &[usize]| {
        let faulty = cfg.fault.is_some_and(|f| group.contains(&f.query));
        let (mut spent, mut wasted) = (0, Duration::ZERO);
        if lanes && group.len() > 1 && !faulty {
            let seeds: Vec<&[NodeId]> = group.iter().map(|&i| queries[i].as_slice()).collect();
            let start = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| walk(scratch, &seeds))) {
                Ok(answers) => {
                    let latency = start.elapsed();
                    return answers
                        .into_iter()
                        .map(|slice| {
                            record(QueryOutcome {
                                slice: Ok(slice),
                                latency,
                                retries: 0,
                            })
                        })
                        .collect();
                }
                Err(payload) => {
                    // The unwound walk may have left the scratch mid-update.
                    *scratch = Scratch::default();
                    tel.count("batch.lane_walk_failures", 1);
                    tel.event(
                        "batch.lane_walk_failed",
                        &[
                            ("queries", group.len().to_string()),
                            ("error", panic_message(payload.as_ref())),
                        ],
                    );
                    (spent, wasted) = (1, start.elapsed());
                }
            }
        }
        group
            .iter()
            .map(|&i| {
                let mut out = run_guarded(i, cfg, spent, scratch, |s| single(s, &queries[i]));
                out.latency += wasted;
                record(out)
            })
            .collect::<Vec<_>>()
    };
    let groups = lane_groups(queries.len(), threads);
    let order = if lanes && cfg.fail_fast.is_none() && groups.len() > 1 {
        by_height(queries, graph.heights(kind))
    } else {
        (0..queries.len()).collect()
    };
    let group = |g: usize| &order[groups[g].clone()];
    let next = AtomicUsize::new(1);
    let claim = |scratch: &mut Scratch| {
        let mut answered = Vec::new();
        loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            if g >= groups.len() {
                return answered;
            }
            answered.push((g, answer_group(scratch, group(g))));
        }
    };
    let mut slots: Vec<Option<QueryOutcome>> = queries.iter().map(|_| None).collect();
    let mut place = |g: usize, answered: Vec<QueryOutcome>| {
        for (&i, out) in group(g).iter().zip(answered) {
            slots[i] = Some(out);
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| claim(&mut Scratch::default())))
            .collect();
        place(0, answer_group(scratch, group(0)));
        let mine = claim(scratch);
        // A panic that escapes `answer_group` on a helper surfaces here.
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("batch helper panicked"));
        for (g, answered) in mine.into_iter().chain(theirs) {
            place(g, answered);
        }
    });
    slots
        .into_iter()
        .map(|out| out.expect("every query is in one group"))
        .collect()
}

/// Answers a CI batch over `graph` through [`run_groups`], each lane
/// walk under per-lane meters. With one worker the groups walk on
/// `scratch`.
fn run_ci(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    lanes: bool,
    cfg: &BatchConfig,
    scratch: &mut Scratch,
) -> Vec<QueryOutcome> {
    let tel = cfg.ctx.telemetry();
    let budget = cfg.ctx.budget();
    run_groups(
        graph,
        queries,
        kind,
        threads,
        cfg,
        "slice",
        lanes,
        scratch,
        |s, group| answer_lanes(graph, group, kind, budget, &mut s.bfs, tel),
        |s, seeds| answer_ci(graph, seeds, kind, budget, &mut s.bfs, tel),
    )
}

/// Answers a context-sensitive batch over `graph` through [`run_groups`]:
/// a lane-walked group, and each query answered alone, by [`answer_cs`].
/// Workers share only the immutable graph, its down-edge index and the
/// summary graphs; with one worker the groups run on `scratch`.
#[allow(clippy::too_many_arguments)]
fn run_cs(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    lanes: bool,
    cfg: &BatchConfig,
    scratch: &mut Scratch,
    summaries: &SummaryGraphs,
) -> Vec<QueryOutcome> {
    let tel = cfg.ctx.telemetry();
    let budget = cfg.ctx.budget();
    let answer = |s: &mut Scratch, queries: &[&[NodeId]]| {
        answer_cs(graph, summaries, queries, kind, budget, cfg.degrade, s, tel)
    };
    run_groups(
        graph,
        queries,
        kind,
        threads,
        cfg,
        "cs_slice",
        lanes,
        scratch,
        answer,
        |s, seeds| answer(s, &[seeds]).pop().expect("one query, one answer"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::slice_sparse;
    use crate::tabulation::{cs_oneshot, cs_walk_sparse, DownConsumers, SummaryGraph};
    use thinslice_ir::{compile, Program};
    use thinslice_pta::{Pta, PtaConfig};
    use thinslice_sdg::{build_ci, DepGraph, Sdg};
    use thinslice_util::Meter;

    /// Sequential oracle: the one-shot CI slice over the growable graph.
    fn slice_from(sdg: &thinslice_sdg::Sdg, seeds: &[NodeId], kind: SliceKind) -> Slice {
        slice_sparse(
            sdg,
            seeds,
            kind,
            &mut SliceScratch::new(),
            &mut Meter::unlimited(),
        )
        .0
    }

    /// Sequential oracle: the one-shot CS slice over the growable graph.
    fn cs_slice(sdg: &thinslice_sdg::Sdg, seeds: &[NodeId], kind: SliceKind) -> Slice {
        cs_oneshot(sdg, &DownConsumers::build(sdg), seeds, kind)
    }

    /// Sequential oracle: the sort-based two-phase walk over the growable
    /// graph's summary graph, under a meter from `budget`.
    fn cs_slice_under(
        sdg: &thinslice_sdg::Sdg,
        seeds: &[NodeId],
        kind: SliceKind,
        budget: &Budget,
    ) -> (Slice, Completeness) {
        let summary = SummaryGraph::build(sdg, &DownConsumers::build(sdg), kind);
        cs_walk_sparse(sdg, &summary, seeds, kind, &mut budget.meter())
    }

    /// The ungoverned batch's answers, unwrapped.
    fn batch(
        graph: &FrozenSdg,
        queries: &[Vec<NodeId>],
        kind: SliceKind,
        engine: Engine,
        threads: usize,
    ) -> Vec<SliceResult> {
        run_batch(
            graph,
            queries,
            kind,
            engine,
            threads,
            &BatchConfig::default(),
            &mut Scratch::default(),
            &SummaryGraphs::default(),
        )
        .into_iter()
        .map(|o| {
            let s = o.slice.expect("no faults injected");
            assert!(s.completeness.is_complete() && !s.degraded);
            s
        })
        .collect()
    }

    /// The test program with its growable CI graph (the sequential
    /// oracles' input) and the same graph frozen (the batches' input).
    struct Fixture {
        program: Program,
        sdg: Sdg,
        csr: FrozenSdg,
    }

    fn setup() -> Fixture {
        let program = compile(&[(
            "t.mj",
            "class Box { Object item;
                void fill(Object o) { this.item = o; }
                Object take() { return this.item; }
             }
             class Main { static void main() {
                Box b = new Box();
                String s = \"deep\";
                b.fill(s);
                Object got = b.take();
                print(got);
                int x = 3;
                int y = x + 4;
                print(y);
             } }",
        )])
        .unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        let sdg = build_ci(&program, &pta);
        let csr = sdg.freeze();
        Fixture { program, sdg, csr }
    }

    fn all_print_queries(a: &Fixture) -> Vec<Vec<NodeId>> {
        use thinslice_ir::InstrKind;
        a.program
            .all_stmts()
            .filter(|s| matches!(a.program.instr(*s).kind, InstrKind::Print { .. }))
            .filter_map(|s| {
                let nodes = a.csr.stmt_nodes_of(s).to_vec();
                if nodes.is_empty() {
                    None
                } else {
                    Some(nodes)
                }
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_kind_and_thread_count() {
        let a = setup();
        let queries = all_print_queries(&a);
        assert!(queries.len() >= 2);
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let sequential: Vec<Slice> = queries
                .iter()
                .map(|q| slice_from(&a.sdg, q, kind))
                .collect();
            for threads in [1, 2, 4, 8] {
                let batched = batch(&a.csr, &queries, kind, Engine::Ci, threads);
                assert_eq!(batched.len(), sequential.len());
                for (b, s) in batched.iter().zip(&sequential) {
                    assert_eq!(b.stmts, s.stmts, "{kind:?}/{threads}");
                    assert_eq!(b.visited, s.visited);
                }
            }
        }
    }

    #[test]
    fn batch_cs_matches_sequential() {
        let a = setup();
        let queries = all_print_queries(&a);
        let sequential: Vec<Slice> = queries
            .iter()
            .map(|q| cs_slice(&a.sdg, q, SliceKind::Thin))
            .collect();
        for threads in [1, 2, 4, 8] {
            let batched = batch(&a.csr, &queries, SliceKind::Thin, Engine::Cs, threads);
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.stmts, s.stmts, "threads={threads}");
                assert_eq!(b.visited, s.visited);
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_queries() {
        // Same query twice in one batch on one thread: the second run uses
        // a dirtied scratch and must still match.
        let a = setup();
        let q = all_print_queries(&a);
        let twice: Vec<Vec<NodeId>> = vec![q[0].clone(), q[1].clone(), q[0].clone()];
        let out = batch(&a.csr, &twice, SliceKind::TraditionalFull, Engine::Ci, 1);
        assert_eq!(out[0].stmts, out[2].stmts);
        assert_eq!(out[0].visited, out[2].visited);
    }

    #[test]
    fn reused_cs_scratch_does_not_change_results() {
        // Three rounds of the same queries on one thread, every kind, with
        // and without a step limit: each walk reuses the scratch the one
        // before it left, and each answer must still match a from-scratch
        // sequential walk under the same budget.
        let a = setup();
        let q = all_print_queries(&a);
        let tiled: Vec<Vec<NodeId>> = q.iter().cycle().take(3 * q.len()).cloned().collect();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            for budget in [Budget::unlimited(), Budget::unlimited().with_step_limit(3)] {
                let cfg = BatchConfig {
                    ctx: RunCtx::new(Telemetry::disabled(), budget.clone()),
                    degrade: false,
                    ..BatchConfig::default()
                };
                let mut scratch = Scratch::default();
                let summaries = SummaryGraphs::default();
                let out = run_batch(
                    &a.csr,
                    &tiled,
                    kind,
                    Engine::Cs,
                    1,
                    &cfg,
                    &mut scratch,
                    &summaries,
                );
                assert!(scratch.cs.is_clean(), "{kind:?}");
                for (o, seeds) in out.iter().zip(&tiled) {
                    let b = o.slice.as_ref().expect("no faults injected");
                    let (s, c) = cs_slice_under(&a.sdg, seeds, kind, &budget);
                    assert_eq!(b.stmts, s.stmts, "{kind:?}");
                    assert_eq!(b.visited, s.visited);
                    assert_eq!(b.completeness, c);
                }
            }
        }
    }

    #[test]
    fn tiled_batches_on_two_workers_still_match() {
        // A tiled batch of 17 queries on two workers: every answer, CI and
        // CS, matches the sequential one.
        let a = setup();
        let q = all_print_queries(&a);
        let tiled: Vec<Vec<NodeId>> = q.iter().cycle().take(17).cloned().collect();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let batched = batch(&a.csr, &tiled, kind, Engine::Ci, 2);
            for (b, seeds) in batched.iter().zip(&tiled) {
                let s = slice_from(&a.sdg, seeds, kind);
                assert_eq!(b.stmts, s.stmts, "{kind:?}");
                assert_eq!(b.visited, s.visited);
            }
            let cs_batched = batch(&a.csr, &tiled, kind, Engine::Cs, 2);
            for (b, seeds) in cs_batched.iter().zip(&tiled) {
                let s = cs_slice(&a.sdg, seeds, kind);
                assert_eq!(b.stmts, s.stmts, "{kind:?}");
                assert_eq!(b.visited, s.visited);
            }
        }
    }

    #[test]
    fn the_caller_answers_a_share_of_a_multi_worker_batch() {
        // 150 queries are three lane groups of 50 on two workers. The
        // caller answers the first group on the scratch it passes, so that
        // scratch grows its lane buffers, and every walk leaves it clean.
        let a = setup();
        let q = all_print_queries(&a);
        let tiled: Vec<Vec<NodeId>> = q.iter().cycle().take(150).cloned().collect();
        let cfg = BatchConfig::default();
        assert_eq!(cfg.workers(2, tiled.len()), 2);
        assert_eq!(lane_groups(tiled.len(), 2).len(), 3);
        for engine in [Engine::Ci, Engine::Cs] {
            let summaries = SummaryGraphs::default();
            let run = |threads, scratch: &mut Scratch| {
                run_batch(
                    &a.csr,
                    &tiled,
                    SliceKind::Thin,
                    engine,
                    threads,
                    &cfg,
                    scratch,
                    &summaries,
                )
            };
            let alone = run(1, &mut Scratch::default());
            let mut scratch = Scratch::default();
            let shared = run(2, &mut scratch);
            let grown = match engine {
                Engine::Ci => scratch.bfs.lane_nodes(),
                Engine::Cs => scratch.cs.lane_nodes(),
            };
            assert!(grown >= a.csr.node_count(), "{engine:?}: {grown} nodes");
            assert!(
                scratch.bfs.is_clean() && scratch.cs.is_clean(),
                "{engine:?}"
            );
            assert_eq!(shared.len(), alone.len());
            for (s, o) in shared.iter().zip(&alone) {
                let (s, o) = (s.slice.as_ref().unwrap(), o.slice.as_ref().unwrap());
                assert_eq!(s.stmts, o.stmts, "{engine:?}");
                assert_eq!(s.visited, o.visited, "{engine:?}");
            }
        }
    }

    /// The chain program of the CLI's batch tests: 245 seed lines, one of
    /// them in the standard library, so four lane groups. Each `Box` reads
    /// the one before it, so the statements of one step range from
    /// allocations, which depend on nothing, to reads whose dependence
    /// height grows down the file.
    fn wide() -> String {
        let mut text = String::from(
            "class Box { int v; Box next; }\nclass Main {\n  static void main() {\n    \
             Box b0 = new Box();\n    b0.v = 0;\n",
        );
        for i in 1..=60 {
            text += &format!(
                "    Box b{i} = new Box();\n    b{i}.next = b{p};\n    b{i}.v = b{p}.v + {i};\n    \
                 if (b{i}.v > {i}) {{ print(b{i}.next.v); }}\n",
                p = i - 1
            );
        }
        text + "  }\n}\n"
    }

    #[test]
    fn lane_groups_are_cut_deepest_first() {
        // A lane-walked group's queries share one latency, the walk's wall
        // time. Taken from the deepest group down, each group's shallowest
        // seed is at least as high as the next group's deepest: the groups
        // are cut from the queries in height order. Consecutive statements
        // would put an allocation and a deep read in every group.
        use crate::session::{AnalysisSession, Query};
        use thinslice_util::Idx;
        let mut s = AnalysisSession::new(&[("wide.mj", &wide())]).unwrap();
        // Every source line with a statement, as `--all-seeds` takes them.
        let lines: std::collections::BTreeSet<(String, u32)> = {
            let program = s.program();
            (program.all_stmts().map(|st| program.instr(st).span))
                .filter(|span| !span.is_synthetic())
                .map(|span| (program.files[span.file].name.clone(), span.line))
                .collect()
        };
        let seeds: Vec<_> = (lines.iter())
            .filter_map(|(file, line)| s.seed_at_line(file, *line))
            .collect();
        assert_eq!(seeds.len(), 245);
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let graph = match engine {
                    Engine::Ci => s.ci_graph(),
                    Engine::Cs => s.cs_graph(),
                };
                let heights = graph.heights(kind);
                let key: Vec<u32> = seeds
                    .iter()
                    .map(|q| {
                        let nodes = q.iter().flat_map(|&st| graph.stmt_nodes_of(st));
                        nodes.map(|n| heights[n.index()]).max().unwrap_or(0)
                    })
                    .collect();
                let queries: Vec<Query> = seeds
                    .iter()
                    .map(|q| Query::new(q.clone(), kind, engine))
                    .collect();
                for threads in [1, 2] {
                    let at = format!("{engine:?}/{kind:?} at {threads} thread(s)");
                    let out = s.query_batch(&queries, threads);
                    // Each group's (deepest, shallowest) seed height.
                    let mut groups: Vec<(Duration, u32, u32)> = Vec::new();
                    for (o, &k) in out.iter().zip(&key) {
                        match groups.iter_mut().find(|g| g.0 == o.latency) {
                            Some(g) => (g.1, g.2) = (g.1.max(k), g.2.min(k)),
                            None => groups.push((o.latency, k, k)),
                        }
                    }
                    assert_eq!(groups.len(), 4, "{at}");
                    groups.sort_by_key(|&(_, deepest, shallowest)| {
                        std::cmp::Reverse((deepest, shallowest))
                    });
                    for pair in groups.windows(2) {
                        assert!(pair[0].2 >= pair[1].1, "{at}: {groups:?}");
                    }
                    for (q, o) in queries.iter().zip(&out) {
                        let got = o.slice.as_ref().expect("no faults injected");
                        assert_eq!(got.stmts, s.query(q).stmts, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_outside_the_graph_do_not_stop_the_height_order() {
        // A batch of three lane groups is ordered by height before any walk
        // runs, outside `catch_unwind`. There a seed past the graph's last
        // node and a query with no seed count as height 0; only the walk
        // that holds the bad seed panics, and only its query fails.
        let a = setup();
        let q = all_print_queries(&a);
        let mut tiled: Vec<Vec<NodeId>> = q.iter().cycle().take(150).cloned().collect();
        tiled[7] = vec![NodeId::new(a.csr.node_count())];
        tiled[8] = Vec::new();
        let kind = SliceKind::Thin;
        for engine in [Engine::Ci, Engine::Cs] {
            let out = run_batch(
                &a.csr,
                &tiled,
                kind,
                engine,
                1,
                &BatchConfig::default(),
                &mut Scratch::default(),
                &SummaryGraphs::default(),
            );
            assert_eq!(out.len(), tiled.len());
            assert!(out[7].slice.is_err(), "{engine:?}");
            for (o, seeds) in out.iter().zip(&tiled).filter(|(_, s)| **s != tiled[7]) {
                let want = match engine {
                    Engine::Ci => slice_from(&a.sdg, seeds, kind),
                    Engine::Cs => cs_slice(&a.sdg, seeds, kind),
                };
                let got = o.slice.as_ref().expect("only the bad seed fails");
                assert_eq!(got.stmts, want.stmts, "{engine:?}");
            }
        }
    }

    #[test]
    fn lane_groups_are_full_words_unless_workers_need_more() {
        // A lane-walked batch gets one worker per group of 64, so its runs
        // are full words; one answered a query at a time gets a worker per
        // 8 queries, and at least a run per worker.
        let walked = BatchConfig::default();
        let single = BatchConfig {
            retries: 0,
            ..BatchConfig::default()
        };
        let lens = |cfg: &BatchConfig, n, threads| -> Vec<usize> {
            let groups = lane_groups(n, cfg.workers(threads, n));
            assert_eq!(groups.last().map_or(0, |g| g.end), n);
            groups.iter().map(ExactSizeIterator::len).collect()
        };
        assert_eq!(lens(&walked, 150, 1), [50, 50, 50]);
        assert_eq!(lens(&walked, 150, 8), [50, 50, 50]);
        assert_eq!(lens(&walked, 3520, 2), [64; 55]);
        assert_eq!(lens(&walked, 64, 1), [64]);
        assert_eq!(lens(&walked, 64, 2), [64]);
        assert_eq!(lens(&walked, 128, 8), [64, 64]);
        assert_eq!(lens(&walked, 65, 3), [33, 32]);
        assert_eq!(lens(&walked, 0, 1), [0]);
        assert_eq!(lens(&single, 64, 2), [32, 32]);
        assert_eq!(lens(&single, 128, 8), [16; 8]);
        assert_eq!(lens(&single, 65, 3), [22, 22, 21]);
        assert_eq!(walked.workers(8, 26), 1);
        assert_eq!(single.workers(8, 26), 4);
        // A step limit keeps a batch of either engine on lane walks; only a
        // deadline keeps it off them.
        let governed = |budget: Budget| BatchConfig {
            ctx: RunCtx::new(Telemetry::disabled(), budget),
            ..BatchConfig::default()
        };
        let limited = governed(Budget::unlimited().with_step_limit(9));
        let deadline = governed(Budget::unlimited().with_deadline(Duration::from_secs(9)));
        assert_eq!(limited.workers(8, 26), 1);
        assert_eq!(deadline.workers(8, 26), 4);
    }

    /// A seed past the graph's last node panics every walk of `engine`:
    /// its group's lane walk, then its own retry. The sibling is answered
    /// on its retry; without retries the group is never lane-walked, so no
    /// query runs twice.
    fn assert_panicked_walks_are_charged(engine: Engine) {
        let a = setup();
        let q = all_print_queries(&a)[0].clone();
        let queries = vec![q.clone(), vec![NodeId::new(a.csr.node_count())]];
        for retries in [1, 0] {
            let cfg = BatchConfig {
                ctx: RunCtx::new(Telemetry::enabled(), Budget::unlimited()),
                retries,
                ..BatchConfig::default()
            };
            let kind = SliceKind::Thin;
            let out = run_batch(
                &a.csr,
                &queries,
                kind,
                engine,
                1,
                &cfg,
                &mut Scratch::default(),
                &SummaryGraphs::default(),
            );
            let report = cfg.ctx.telemetry().report();
            let failed_walks = report
                .events
                .iter()
                .filter(|e| e.name == "batch.lane_walk_failed")
                .count();
            assert_eq!(failed_walks, retries as usize, "retries {retries}");
            let sibling = out[0].slice.as_ref().expect("the sibling is answered");
            let want = match engine {
                Engine::Ci => slice_from(&a.sdg, &q, kind),
                Engine::Cs => cs_slice(&a.sdg, &q, kind),
            };
            assert_eq!(sibling.stmts, want.stmts);
            assert_eq!((out[0].retries, out[1].retries), (retries, retries));
            assert!(out[1].slice.is_err());
        }
    }

    #[test]
    fn a_panicked_lane_walk_is_recorded_and_charged_as_a_first_attempt() {
        assert_panicked_walks_are_charged(Engine::Ci);
    }

    #[test]
    fn a_panicked_cs_lane_walk_is_recorded_and_charged_as_a_first_attempt() {
        assert_panicked_walks_are_charged(Engine::Cs);
    }

    #[test]
    fn empty_batch_and_empty_query() {
        let a = setup();
        let none: &[Vec<NodeId>] = &[];
        assert!(batch(&a.csr, none, SliceKind::Thin, Engine::Ci, 4).is_empty());
        let out = batch(&a.csr, &[Vec::new()], SliceKind::Thin, Engine::Ci, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }
}
