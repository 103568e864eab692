//! Parallel batched slicing: N queries over one shared frozen graph.
//!
//! The paper's evaluation workload is query-heavy: one dependence graph,
//! many seeds (every task of Table 2/3 slices the same benchmark). This
//! module amortises everything that does not depend on the seed —
//! the CSR graph ([`FrozenSdg`]), per-worker scratch buffers
//! ([`SliceScratch`]) and the tabulation's down-edge index
//! ([`DownConsumers`]) — and fans the queries out across a thread pool
//! over the shared immutable graph.
//!
//! Results are returned in query order, and each result is identical to
//! what the sequential single-query path ([`AnalysisSession::query`])
//! produces, whatever the thread count: workers share only immutable
//! data, and each query's traversal is fully independent.
//!
//! One engine serves both the plain and the governed batch: a
//! [`BatchConfig`] whose [`RunCtx`] is ungoverned (and that injects no
//! faults) runs the zero-overhead fast path — no `catch_unwind`, no
//! meter arming beyond one predictable branch per work item — while a
//! governed config adds per-query budgets, panic isolation with bounded
//! retry, and the CS → CI degradation ladder.
//!
//! # Examples
//!
//! ```
//! use thinslice::{batch, Analysis, SliceKind};
//!
//! let analysis = Analysis::build(&[(
//!     "t.mj",
//!     "class Main { static void main() {\nint x = 1;\nprint(x);\nprint(2);\n} }",
//! )])?;
//! let seeds = vec![
//!     analysis.seed_at_line("t.mj", 3).unwrap(),
//!     analysis.seed_at_line("t.mj", 4).unwrap(),
//! ];
//! let slices = analysis.batch_slices(&seeds, SliceKind::Thin, 2);
//! assert_eq!(slices.len(), 2);
//! assert_eq!(slices[0].stmt_set(), analysis.thin_slice(&seeds[0]).stmt_set());
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```
//!
//! [`AnalysisSession::query`]: crate::AnalysisSession::query

use crate::nodeset::NodeSet;
use crate::session::{Engine, SliceResult};
use crate::slice::{slice_dense, Slice, SliceKind, SliceScratch};
use crate::tabulation::{
    cs_oneshot, cs_reusing, CsScratch, CsSlice, DownConsumers, ExitShare, MemoStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use thinslice_sdg::{DenseDisplay, DepGraph, FrozenSdg, NodeId};
use thinslice_util::{par, Budget, CancelToken, Completeness, Meter, RunCtx, Telemetry};

/// Minimum batch size at which pre-filtering the edge array by the slice
/// kind pays for its O(edges) setup scan. Below it, queries run directly
/// on the shared graph with per-edge kind tests — both paths produce
/// identical output, this is purely a cost model.
const FILTER_THRESHOLD: usize = 16;

/// Minimum cs batch size for the dense reusable scratch. Its node-indexed
/// tables cost O(graph) to set up, repaid by cheaper per-step bookkeeping
/// and cross-query memoisation — below this, the hash-based one-shot
/// store (with the shared down-edge index) wins.
const CS_DENSE_THRESHOLD: usize = 2;

/// Minimum queries a worker must stand to receive before it is worth
/// spawning: an OS thread costs tens of microseconds to start, which a
/// worker handed one or two microsecond-scale slices never earns back.
/// Clamping here (not in [`par`]) keeps the executor a pure mechanism
/// while every engine entry point shares the one cost model. Results are
/// unaffected — batches are bit-identical at every thread count.
const MIN_QUERIES_PER_WORKER: usize = 8;

/// `threads` clamped so each worker averages at least
/// [`MIN_QUERIES_PER_WORKER`] queries (and never below 1).
fn effective_threads(threads: usize, queries: usize) -> usize {
    threads.clamp(1, queries.div_ceil(MIN_QUERIES_PER_WORKER).max(1))
}

// ---- the plain (ungoverned) fast path ----

/// The ungoverned context-insensitive batch: one BFS per query on shared
/// scratch, with the per-batch prefilter cost model. Telemetry-optional;
/// a disabled handle leaves the traversal untouched.
pub(crate) fn ci_plain(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    tel: &Telemetry,
) -> Vec<Slice> {
    let mut span = tel.span("batch.slices");
    span.add("batch.queries", queries.len() as u64);
    let threads = effective_threads(threads, queries.len());
    // The traditional-full slicer follows every edge kind, so the graph
    // is its own filtered view: skip both the copy and the per-edge tests.
    if matches!(kind, SliceKind::TraditionalFull) {
        return par::map_with(queries, threads, SliceScratch::new, |scratch, _, seeds| {
            measured_bfs(tel, graph, seeds, kind, scratch, true)
        });
    }
    if queries.len() < FILTER_THRESHOLD {
        return par::map_with(queries, threads, SliceScratch::new, |scratch, _, seeds| {
            measured_bfs(tel, graph, seeds, kind, scratch, false)
        });
    }
    // Filter once per batch: whether a kind follows an edge depends only
    // on the edge's label, so dropping unfollowed edges up front leaves
    // every query's traversal — and output — unchanged.
    let filtered = graph.filtered(|e| kind.follows(&e.kind));
    par::map_with(queries, threads, SliceScratch::new, |scratch, _, seeds| {
        measured_bfs(tel, &filtered, seeds, kind, scratch, true)
    })
}

/// Runs one BFS query; with telemetry enabled, also records its latency
/// and traversal size. The traversal itself is untouched either way.
fn measured_bfs<G: DenseDisplay>(
    tel: &Telemetry,
    graph: &G,
    seeds: &[NodeId],
    kind: SliceKind,
    scratch: &mut SliceScratch,
    prefiltered: bool,
) -> Slice {
    if !tel.is_enabled() {
        return slice_dense(
            graph,
            seeds,
            kind,
            scratch,
            prefiltered,
            &mut Meter::unlimited(),
        )
        .0;
    }
    let started = Instant::now();
    let slice = slice_dense(
        graph,
        seeds,
        kind,
        scratch,
        prefiltered,
        &mut Meter::unlimited(),
    )
    .0;
    record_traversal(tel, graph, &slice.nodes, started);
    slice
}

/// Post-hoc traversal accounting: the BFS scans every out-edge of every
/// node it visits, so summing CSR degrees over the visited set reproduces
/// the edges-visited figure without touching the hot loop.
fn record_traversal<G: DepGraph>(tel: &Telemetry, graph: &G, nodes: &NodeSet, started: Instant) {
    tel.record("batch.query_us", started.elapsed().as_secs_f64() * 1e6);
    tel.count("slice.nodes_visited", nodes.len() as u64);
    tel.count(
        "slice.csr_edges_visited",
        // Result nodes are external ids; degrees live on the internal CSR.
        nodes
            .iter()
            .map(|&n| graph.deps(graph.to_internal(n)).len() as u64)
            .sum(),
    );
}

/// The ungoverned context-sensitive batch: the down-edge index is built
/// once and shared by all workers, so a batch of N queries scans the
/// graph's edges once, not N times.
pub(crate) fn cs_plain(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    tel: &Telemetry,
) -> Vec<CsSlice> {
    let mut span = tel.span("batch.cs_slices");
    span.add("batch.queries", queries.len() as u64);
    let threads = effective_threads(threads, queries.len());
    // Each worker reuses its tabulation state across queries. Unlike the
    // CI batch, no filtered view is built: the tabulation tests the edge
    // kind in its own loop regardless, so the view's O(edges) copy bought
    // nothing the test didn't already provide.
    if queries.len() < CS_DENSE_THRESHOLD {
        let index = graph.down_consumers();
        return par::map_with(
            queries,
            threads,
            || (),
            |_, _, seeds| {
                if !tel.is_enabled() {
                    return cs_oneshot(graph, index, seeds, kind, &mut Meter::unlimited()).0;
                }
                let started = Instant::now();
                let slice = cs_oneshot(graph, index, seeds, kind, &mut Meter::unlimited()).0;
                record_traversal(tel, graph, &slice.nodes, started);
                slice
            },
        );
    }
    // With several workers, each worker's scratch memoises callee-exit
    // regions privately; a batch-wide share lets the first worker to
    // complete a region publish it so the others splice instead of
    // re-tabulating. Single-threaded batches skip the (small) publication
    // cost: one scratch already sees every region.
    let share = (threads > 1).then(|| Arc::new(ExitShare::new(graph.node_count())));
    let new_scratch = || match &share {
        Some(s) => CsScratch::with_share(Arc::clone(s)),
        None => CsScratch::new(),
    };
    let index = graph.down_consumers();
    par::map_with(queries, threads, new_scratch, |scratch, _, seeds| {
        measured_cs(tel, graph, index, seeds, kind, scratch)
    })
}

/// Runs one tabulation query on reusable scratch; with telemetry enabled,
/// also records latency, traversal size and the per-query memo deltas.
fn measured_cs<G: DenseDisplay>(
    tel: &Telemetry,
    graph: &G,
    index: &DownConsumers,
    seeds: &[NodeId],
    kind: SliceKind,
    scratch: &mut CsScratch,
) -> CsSlice {
    if !tel.is_enabled() {
        return cs_reusing(graph, index, seeds, kind, scratch, &mut Meter::unlimited()).0;
    }
    let started = Instant::now();
    let before = scratch.memo_stats();
    let slice = cs_reusing(graph, index, seeds, kind, scratch, &mut Meter::unlimited()).0;
    record_memo(tel, scratch.memo_stats().since(&before));
    record_traversal(tel, graph, &slice.nodes, started);
    slice
}

fn record_memo(tel: &Telemetry, delta: MemoStats) {
    tel.count("cs.exit_memo_hits", delta.exit_hits);
    tel.count("cs.exit_memo_misses", delta.exit_misses);
    tel.count("cs.summary_edges", delta.summary_edges);
    tel.count("cs.shared_memo_hits", delta.shared_hits);
    tel.count("cs.shared_memo_published", delta.shared_published);
}

// ---- governed batches: budgets, panic isolation, graceful degradation ----

/// Deterministic fault injection for robustness tests: query `query`
/// panics on its first `attempts` attempts (so `attempts <= retries`
/// exercises recovery, `attempts > retries` exercises a hard failure).
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection {
    /// Index of the query whose worker panics.
    pub query: usize,
    /// How many of its attempts panic before it would succeed.
    pub attempts: u32,
}

/// Configuration for a batch run.
///
/// The default is the zero-overhead fast path: an ungoverned
/// [`RunCtx`], no fault injection, no fail-fast. Any governed feature
/// (a limited budget in the context, fault injection, fail-fast) routes
/// the batch through the guarded engine instead — per-query budgets,
/// `catch_unwind` panic isolation, bounded retry.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Shared run context: the telemetry sink for per-query latency /
    /// retry metrics and budget-exhaustion events, plus the per-query
    /// resource budget (deadline measured per attempt).
    pub ctx: RunCtx,
    /// Cancel the remaining queries after the first hard query failure.
    pub fail_fast: bool,
    /// How many times a panicked query is retried on fresh scratch.
    pub retries: u32,
    /// Test-only deterministic fault injection.
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
            fail_fast: false,
            retries: 1,
            fault: None,
            degrade: true,
        }
    }
}

impl BatchConfig {
    /// Whether this config needs the guarded engine (budgets, panic
    /// isolation, cancellation) rather than the zero-overhead fast path.
    pub(crate) fn needs_guarded(&self) -> bool {
        self.ctx.is_governed() || self.fault.is_some() || self.fail_fast
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

/// The pre-0.4 name for a governed batch's per-query slice result.
#[deprecated(since = "0.4.0", note = "use `SliceResult` instead")]
pub type GovernedSlice = SliceResult;

/// One query's outcome in a batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The slice, or the hard error that survived all retries.
    pub slice: Result<SliceResult, QueryError>,
    /// Wall-clock time spent on this query (all attempts). Zero on the
    /// ungoverned fast path with telemetry disabled — per-query clock
    /// reads are part of what "zero overhead" means there.
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

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one query's attempts under `catch_unwind`: a panic poisons only
/// this worker's scratch (replaced fresh), is retried up to `cfg.retries`
/// times, and on final failure optionally cancels the rest of the batch.
fn run_guarded<S>(
    i: usize,
    cfg: &BatchConfig,
    cancel: &CancelToken,
    scratch: &mut S,
    fresh: impl Fn() -> S,
    attempt: impl Fn(&mut S) -> SliceResult,
) -> QueryOutcome {
    let start = Instant::now();
    let mut attempts_used = 0u32;
    loop {
        let inject = cfg
            .fault
            .as_ref()
            .is_some_and(|f| f.query == i && attempts_used < f.attempts);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected worker fault (query {i})");
            }
            attempt(scratch)
        }));
        match outcome {
            Ok(slice) => {
                return QueryOutcome {
                    slice: Ok(slice),
                    latency: start.elapsed(),
                    retries: attempts_used,
                }
            }
            Err(payload) => {
                // The unwound attempt may have left the scratch mid-update;
                // replace it so the retry (and the worker's later queries)
                // start from known-good state.
                *scratch = fresh();
                if attempts_used < cfg.retries {
                    attempts_used += 1;
                    continue;
                }
                if cfg.fail_fast {
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
    }
}

/// The effective budget and cancel token for a governed batch: fail-fast
/// needs a shared token, so one is created unless the caller provided one.
fn armed_budget(cfg: &BatchConfig) -> (Budget, CancelToken) {
    let cancel = cfg.ctx.budget().cancel_token().cloned().unwrap_or_default();
    let budget = cfg.ctx.budget().clone().with_cancel(cancel.clone());
    (budget, cancel)
}

/// Records one governed query's outcome: latency, retries, failures, and —
/// when the budget ran out — a `govern.budget_exhausted` event carrying the
/// stage, the reason and the abandoned-frontier size.
fn record_governed(tel: &Telemetry, stage: &str, out: &QueryOutcome) {
    if !tel.is_enabled() {
        return;
    }
    tel.record("batch.query_us", out.latency.as_secs_f64() * 1e6);
    tel.count("batch.retries", out.retries as u64);
    match &out.slice {
        Err(e) => {
            tel.count("batch.query_failures", 1);
            tel.event(
                "batch.query_failed",
                &[("stage", stage.to_string()), ("error", e.to_string())],
            );
        }
        Ok(s) => {
            tel.count("slice.nodes_visited", s.nodes.len() as u64);
            if s.degraded {
                tel.count("govern.degraded_queries", 1);
            }
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
    }
}

/// The guarded context-insensitive batch: per-query budgets, panic
/// isolation with bounded retry, and per-query latency/retry reporting.
///
/// Traversal per query is identical to the ungoverned engine's; a query
/// that exhausts its budget returns its truncated prefix labelled
/// `Truncated` instead of blocking the batch.
pub(crate) fn ci_guarded(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    cfg: &BatchConfig,
) -> Vec<QueryOutcome> {
    let (budget, cancel) = armed_budget(cfg);
    let tel = cfg.ctx.telemetry();
    let mut span = tel.span("batch.governed_slices");
    span.add("batch.queries", queries.len() as u64);
    let threads = effective_threads(threads, queries.len());
    // The traditional-full slicer follows every edge, so the shared graph
    // is its own filtered view (as in the plain batch).
    let prefiltered = matches!(kind, SliceKind::TraditionalFull);
    par::map_with(queries, threads, SliceScratch::new, |scratch, i, seeds| {
        let out = run_guarded(i, cfg, &cancel, scratch, SliceScratch::new, |s| {
            let mut meter = budget.meter();
            let (slice, completeness) = slice_dense(graph, seeds, kind, s, prefiltered, &mut meter);
            tel.count("govern.meter_checks", meter.slow_checks());
            SliceResult {
                engine: Engine::Ci,
                kind,
                stmts: slice.stmts,
                nodes: slice.nodes,
                completeness,
                degraded: false,
            }
        });
        record_governed(tel, "slice", &out);
        out
    })
}

/// The guarded context-sensitive batch, with graceful degradation: a
/// query whose tabulation exhausts its budget is re-answered by the
/// context-insensitive reachability slicer over the same frozen graph
/// (fresh meter) and marked `degraded` — the paper's scalability ladder,
/// CS → CI → truncated. `cfg.degrade = false` keeps the truncated CS
/// prefix instead.
pub(crate) fn cs_guarded(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    cfg: &BatchConfig,
) -> Vec<QueryOutcome> {
    let (budget, cancel) = armed_budget(cfg);
    let tel = cfg.ctx.telemetry();
    let mut span = tel.span("batch.governed_cs_slices");
    span.add("batch.queries", queries.len() as u64);
    let threads = effective_threads(threads, queries.len());
    let index = graph.down_consumers();
    // Guarded batches share exit regions the same way the plain CS batch
    // does; a panicked worker's replacement scratch re-attaches to the
    // batch share (only *complete* queries publish, so a scratch discarded
    // mid-query has published nothing unsound).
    let share = (threads > 1).then(|| Arc::new(ExitShare::new(graph.node_count())));
    let fresh = || {
        let cs = match &share {
            Some(s) => CsScratch::with_share(Arc::clone(s)),
            None => CsScratch::new(),
        };
        (cs, SliceScratch::new())
    };
    par::map_with(queries, threads, fresh, |scratch, i, seeds| {
        let out = run_guarded(i, cfg, &cancel, scratch, fresh, |(cs, bfs)| {
            let mut meter = budget.meter();
            let memo_before = if tel.is_enabled() {
                Some(cs.memo_stats())
            } else {
                None
            };
            let (slice, completeness) = cs_reusing(graph, index, seeds, kind, cs, &mut meter);
            if let Some(before) = memo_before {
                record_memo(tel, cs.memo_stats().since(&before));
            }
            if completeness.is_complete() || !cfg.degrade {
                tel.count("govern.meter_checks", meter.slow_checks());
                return SliceResult {
                    engine: Engine::Cs,
                    kind,
                    stmts: slice.stmts,
                    nodes: slice.nodes,
                    completeness,
                    degraded: false,
                };
            }
            // Degradation ladder: answer with the cheaper CI slicer over
            // the same graph, under a fresh meter from the same budget.
            let mut ci_meter = budget.meter();
            let (ci, ci_completeness) = slice_dense(graph, seeds, kind, bfs, false, &mut ci_meter);
            tel.count(
                "govern.meter_checks",
                meter.slow_checks() + ci_meter.slow_checks(),
            );
            SliceResult {
                engine: Engine::Ci,
                kind,
                stmts: ci.stmts,
                nodes: ci.nodes,
                completeness: ci_completeness,
                degraded: true,
            }
        });
        record_governed(tel, "cs_slice", &out);
        out
    })
}

/// The one batch entrypoint: dispatches on the engine and on whether the
/// config needs the guarded path, and wraps fast-path results in
/// [`QueryOutcome`]s so callers see one shape.
pub(crate) fn run_batch(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    engine: Engine,
    threads: usize,
    cfg: &BatchConfig,
) -> Vec<QueryOutcome> {
    if cfg.needs_guarded() {
        return match engine {
            Engine::Ci => ci_guarded(graph, queries, kind, threads, cfg),
            Engine::Cs => cs_guarded(graph, queries, kind, threads, cfg),
        };
    }
    let tel = cfg.ctx.telemetry();
    let complete = |engine: Engine, stmts, nodes| QueryOutcome {
        slice: Ok(SliceResult {
            engine,
            kind,
            stmts,
            nodes,
            completeness: Completeness::Complete,
            degraded: false,
        }),
        latency: Duration::ZERO,
        retries: 0,
    };
    match engine {
        Engine::Ci => ci_plain(graph, queries, kind, threads, tel)
            .into_iter()
            .map(|s| complete(Engine::Ci, s.stmts, s.nodes))
            .collect(),
        Engine::Cs => cs_plain(graph, queries, kind, threads, tel)
            .into_iter()
            .map(|s| complete(Engine::Cs, s.stmts, s.nodes))
            .collect(),
    }
}

// ---- pre-0.4 entrypoints, kept as thin wrappers ----

/// Computes one backward slice per query, in query order.
#[deprecated(since = "0.4.0", note = "use `AnalysisSession::query_batch` instead")]
pub fn slices(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
) -> Vec<Slice> {
    ci_plain(graph, queries, kind, threads, &Telemetry::disabled())
}

/// [`slices`] recording batch telemetry: a `batch.slices` span, a per-query
/// latency histogram (`batch.query_us`) and post-hoc traversal counters.
#[deprecated(since = "0.4.0", note = "use `AnalysisSession::query_batch` instead")]
pub fn slices_telemetry(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    tel: &Telemetry,
) -> Vec<Slice> {
    ci_plain(graph, queries, kind, threads, tel)
}

/// Computes one context-sensitive (tabulation) slice per query, in query
/// order.
#[deprecated(since = "0.4.0", note = "use `AnalysisSession::query_batch` instead")]
pub fn cs_slices(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
) -> Vec<CsSlice> {
    cs_plain(graph, queries, kind, threads, &Telemetry::disabled())
}

/// [`cs_slices`] recording batch telemetry: a `batch.cs_slices` span, the
/// `batch.query_us` latency histogram, traversal counters and the
/// tabulation's exit-region memo hit/miss + summary-edge counters.
#[deprecated(since = "0.4.0", note = "use `AnalysisSession::query_batch` instead")]
pub fn cs_slices_telemetry(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    tel: &Telemetry,
) -> Vec<CsSlice> {
    cs_plain(graph, queries, kind, threads, tel)
}

/// The CI batch under a [`BatchConfig`]: per-query budgets, panic
/// isolation with bounded retry, and per-query latency/retry reporting.
#[deprecated(since = "0.4.0", note = "use `AnalysisSession::query_batch` instead")]
pub fn governed_slices(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    cfg: &BatchConfig,
) -> Vec<QueryOutcome> {
    ci_guarded(graph, queries, kind, threads, cfg)
}

/// The CS batch under a [`BatchConfig`], with the CS → CI degradation
/// ladder.
#[deprecated(since = "0.4.0", note = "use `AnalysisSession::query_batch` instead")]
pub fn governed_cs_slices(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    threads: usize,
    cfg: &BatchConfig,
) -> Vec<QueryOutcome> {
    cs_guarded(graph, queries, kind, threads, cfg)
}

/// Resolves statement-level queries to node-level ones against `graph`.
pub fn node_queries(graph: &FrozenSdg, queries: &[Vec<thinslice_ir::StmtRef>]) -> Vec<Vec<NodeId>> {
    queries
        .iter()
        .map(|ss| {
            ss.iter()
                .flat_map(|&s| graph.stmt_nodes_of(s).to_vec())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::slice_sparse;
    use crate::Analysis;

    /// Sequential oracle: the historical one-shot CI slice.
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

    /// Sequential oracle: the historical one-shot CS slice.
    fn cs_slice(sdg: &thinslice_sdg::Sdg, seeds: &[NodeId], kind: SliceKind) -> CsSlice {
        cs_oneshot(
            sdg,
            &DownConsumers::build(sdg),
            seeds,
            kind,
            &mut Meter::unlimited(),
        )
        .0
    }

    fn setup() -> Analysis {
        Analysis::build(&[(
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
        .unwrap()
    }

    fn all_print_queries(a: &Analysis) -> Vec<Vec<NodeId>> {
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
                let batched = ci_plain(&a.csr, &queries, kind, threads, &Telemetry::disabled());
                assert_eq!(batched.len(), sequential.len());
                for (b, s) in batched.iter().zip(&sequential) {
                    assert_eq!(b.stmts, s.stmts, "{kind:?}/{threads}");
                    assert_eq!(b.nodes, s.nodes);
                }
            }
        }
    }

    #[test]
    fn batch_cs_matches_sequential() {
        let a = setup();
        let queries = all_print_queries(&a);
        let sequential: Vec<CsSlice> = queries
            .iter()
            .map(|q| cs_slice(&a.sdg, q, SliceKind::Thin))
            .collect();
        for threads in [1, 2, 4, 8] {
            let batched = cs_plain(
                &a.csr,
                &queries,
                SliceKind::Thin,
                threads,
                &Telemetry::disabled(),
            );
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.stmts, s.stmts, "threads={threads}");
                assert_eq!(b.nodes, s.nodes);
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
        let out = ci_plain(
            &a.csr,
            &twice,
            SliceKind::TraditionalFull,
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(out[0].stmts, out[2].stmts);
        assert_eq!(out[0].nodes, out[2].nodes);
    }

    #[test]
    fn cs_exit_memoisation_does_not_change_results() {
        // Many repeats of the same queries on one thread: from the second
        // query on, every callee-exit region comes from the scratch's
        // memo (spliced) rather than fresh tabulation, and each result
        // must still match a from-scratch sequential run.
        let a = setup();
        let q = all_print_queries(&a);
        let tiled: Vec<Vec<NodeId>> = q.iter().cycle().take(3 * q.len()).cloned().collect();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let batched = cs_plain(&a.csr, &tiled, kind, 1, &Telemetry::disabled());
            for (b, seeds) in batched.iter().zip(&tiled) {
                let s = cs_slice(&a.sdg, seeds, kind);
                assert_eq!(b.stmts, s.stmts, "{kind:?}");
                assert_eq!(b.nodes, s.nodes);
            }
        }
    }

    #[test]
    fn large_batches_take_the_filtered_path_and_still_match() {
        // Tile the queries past the CI filter threshold so the prefiltered
        // BFS actually runs (the CS batch never filters).
        let a = setup();
        let q = all_print_queries(&a);
        let tiled: Vec<Vec<NodeId>> = q
            .iter()
            .cycle()
            .take(FILTER_THRESHOLD + 1)
            .cloned()
            .collect();
        assert!(tiled.len() > FILTER_THRESHOLD);
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let batched = ci_plain(&a.csr, &tiled, kind, 2, &Telemetry::disabled());
            for (b, seeds) in batched.iter().zip(&tiled) {
                let s = slice_from(&a.sdg, seeds, kind);
                assert_eq!(b.stmts, s.stmts, "{kind:?}");
                assert_eq!(b.nodes, s.nodes);
            }
            let cs_batched = cs_plain(&a.csr, &tiled, kind, 2, &Telemetry::disabled());
            for (b, seeds) in cs_batched.iter().zip(&tiled) {
                let s = cs_slice(&a.sdg, seeds, kind);
                assert_eq!(b.stmts, s.stmts, "{kind:?}");
                assert_eq!(b.nodes, s.nodes);
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_query() {
        let a = setup();
        let none: &[Vec<NodeId>] = &[];
        assert!(ci_plain(&a.csr, none, SliceKind::Thin, 4, &Telemetry::disabled()).is_empty());
        let out = ci_plain(
            &a.csr,
            &[Vec::new()],
            SliceKind::Thin,
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn run_batch_fast_path_matches_guarded_path() {
        // The same queries through both halves of the dispatcher must
        // agree on statements and nodes (the guarded path merely adds
        // isolation, never changes a traversal).
        let a = setup();
        let queries = all_print_queries(&a);
        let plain_cfg = BatchConfig::default();
        let guarded_cfg = BatchConfig {
            ctx: RunCtx::disabled().with_budget(Budget::unlimited().with_step_limit(u64::MAX)),
            ..BatchConfig::default()
        };
        for engine in [Engine::Ci, Engine::Cs] {
            let fast = run_batch(&a.csr, &queries, SliceKind::Thin, engine, 1, &plain_cfg);
            let slow = run_batch(&a.csr, &queries, SliceKind::Thin, engine, 1, &guarded_cfg);
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                let (f, s) = (f.slice.as_ref().unwrap(), s.slice.as_ref().unwrap());
                assert_eq!(f.stmts, s.stmts, "{engine:?}");
                assert_eq!(f.nodes, s.nodes);
                assert!(f.completeness.is_complete() && s.completeness.is_complete());
                assert!(!f.degraded && !s.degraded);
            }
        }
    }
}
