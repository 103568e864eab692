//! The unified query session: one object, one entrypoint, every slicer.
//!
//! [`AnalysisSession`] answers all four slicers of the paper's §5, one
//! query at a time or in batches:
//!
//! * it owns the pipeline's stage artifacts (compiled program → points-to
//!   → dependence graph → frozen CSR → down-edge index → summary graphs)
//!   and builds each **lazily, once** — a session that only ever answers
//!   context-insensitive queries never pays for the context-sensitive
//!   graph, and repeated queries reuse warm scratch;
//! * one [`RunCtx`] (telemetry + budget) threads through every stage, so
//!   the same calls serve traced, governed and plain sessions;
//! * one request shape, [`Query`] — seeds, slice kind, engine, policy —
//!   answered by [`AnalysisSession::query`] with one result shape,
//!   [`SliceResult`], and by [`AnalysisSession::query_batch`] through the
//!   one batch engine ([`crate::batch`]).
//!
//! Cache invariants: stage artifacts are immutable once built (the MJ
//! program never changes under a session), so memoisation is pure — a
//! warm query returns exactly what a cold one would. The only
//! context-sensitive graph facts a session keeps are its summary graphs,
//! one per slice kind because summary edges depend on which edges a kind
//! follows: the first CS query or batch of a kind, governed or not,
//! builds its summary graph, and the session drops them all whenever the
//! CS graph changes. A CS query walks that graph from its seeds in an
//! order that depends only on its seeds, on scratch that keeps nothing
//! between queries, so its answer, truncated or not, never depends on
//! what the session answered before.
//!
//! # Examples
//!
//! ```
//! use thinslice::{AnalysisSession, Engine, Query, SliceKind};
//!
//! let mut session = AnalysisSession::new(&[(
//!     "t.mj",
//!     "class Main { static void main() {\nint x = 1;\nprint(x);\n} }",
//! )])?;
//! let seeds = session.seed_at_line("t.mj", 3).unwrap();
//! let thin = session.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
//! assert!(thin.completeness.is_complete());
//! assert!(!thin.stmts.is_empty());
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```

use crate::batch::{
    answer_ci, answer_cs, run_batch, BatchConfig, FaultInjection, QueryOutcome, Scratch,
};
use crate::slice::SliceKind;
use crate::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::stmtset::StmtSet;
use crate::tabulation::SummaryGraphs;
use crate::BuildReport;
use thinslice_ir::delta::{ProgramDelta, ProgramFingerprints};
use thinslice_ir::{compile_fingerprinted, CompileError, Program, StmtRef};
use thinslice_pta::{incr, GenCache, ModRef, Pta, PtaConfig};
use thinslice_sdg::{
    body_fingerprint, build_ci_cached, build_cs_cached, DepGraph, FrozenSdg, HeapMode, NodeId,
    SdgCache,
};
use thinslice_util::{
    Budget, ByteReader, ByteWriter, CancelToken, CodecError, Completeness, FxHashSet, Idx, RunCtx,
    SnapshotReader, SnapshotWriter,
};

/// Which slicing engine answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Context-insensitive reachability (BFS over the CI dependence
    /// graph): cheap, may follow unrealisable call/return paths.
    Ci,
    /// Context-sensitive reachability over the heap-parameter graph and
    /// its summary edges (demand-driven RHS tabulation): precise across
    /// calls, more expensive.
    Cs,
}

/// Per-query execution policy: optional budget and degradation choice.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPolicy {
    /// Resource budget for this query; `None` inherits the session
    /// context's budget (unlimited for a disabled context).
    pub budget: Option<Budget>,
    /// Whether a context-sensitive query that exhausts its budget is
    /// re-answered by the context-insensitive engine over the same graph
    /// (the scalability ladder CS → CI → truncated).
    pub degrade: bool,
}

impl Default for QueryPolicy {
    fn default() -> Self {
        QueryPolicy {
            budget: None,
            degrade: true,
        }
    }
}

/// One slicing request: what to slice from, which dependence relation to
/// follow, which engine answers, and under what policy.
#[derive(Debug, Clone)]
pub struct Query {
    /// Seed statements (all IR statements of the seed line, typically).
    pub seeds: Vec<StmtRef>,
    /// The dependence relation to follow.
    pub kind: SliceKind,
    /// The engine that answers.
    pub engine: Engine,
    /// Budget and degradation policy.
    pub policy: QueryPolicy,
}

impl Query {
    /// A query with the default policy (inherit the session budget,
    /// degrade on exhaustion).
    pub fn new(seeds: Vec<StmtRef>, kind: SliceKind, engine: Engine) -> Query {
        Query {
            seeds,
            kind,
            engine,
            policy: QueryPolicy::default(),
        }
    }

    /// Replaces the policy.
    pub fn with_policy(mut self, policy: QueryPolicy) -> Query {
        self.policy = policy;
        self
    }
}

/// The one slice-result shape: statements, the size of the walk, and the
/// honesty labels.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// The engine that actually answered (after any degradation — a
    /// degraded CS query reports [`Engine::Ci`]).
    pub engine: Engine,
    /// The dependence relation the slice followed.
    pub kind: SliceKind,
    /// Statements in the slice, in the answering engine's canonical
    /// order: BFS (distance) order for CI reachability, sorted for the
    /// context-sensitive walk.
    pub stmts: StmtSet,
    /// How many dependence-graph nodes the walk visited, statements and
    /// connective nodes alike: the work a query did, which the daemon
    /// charges a client.
    pub nodes_visited: usize,
    /// The visited nodes' ids, ascending (see
    /// [`crate::slice::Slice`]'s field of the same name).
    #[cfg(test)]
    pub(crate) visited: Vec<NodeId>,
    /// Whether the traversal reached its fixpoint.
    pub completeness: Completeness,
    /// Whether a context-sensitive query fell back to the
    /// context-insensitive slicer after exhausting its budget.
    pub degraded: bool,
}

impl SliceResult {
    /// Number of statements in the slice.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice is empty (possible only for unreachable seeds).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Whether the slice contains `stmt`.
    pub fn contains(&self, stmt: StmtRef) -> bool {
        self.stmts.contains(stmt)
    }

    /// The statements as a hash set, for set algebra.
    pub fn stmt_set(&self) -> FxHashSet<StmtRef> {
        self.stmts.to_hash_set()
    }
}

/// Batch-level robustness options for [`AnalysisSession::query_batch_with`]:
/// everything about *how* a batch runs that is not per-query policy.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Cancel the rest of the call after the first hard query failure,
    /// whatever their (engine, kind, policy) group: queries that start
    /// afterwards come back truncated, and running ones stop at their
    /// meter's next check. The call then runs under a cancel token of its
    /// own, which replaces the token of the session's or a policy's
    /// budget, so a failure never cancels the session. A group whose
    /// own token is already cancelled when it starts keeps that token.
    pub fail_fast: bool,
    /// How many times a panicked query is retried on fresh scratch.
    /// `None` keeps the engine default (one retry). A lane walk that
    /// panics counts as one attempt of each query it was answering, so
    /// with `Some(0)` context-insensitive queries are answered one at a
    /// time, never in lane walks.
    pub retries: Option<u32>,
    /// Test-only deterministic fault injection. The fault's query index
    /// is an index into the `queries` passed to
    /// [`AnalysisSession::query_batch_with`]; only that query panics.
    pub fault: Option<FaultInjection>,
}

/// The counters of the callee-exit region memo that context-sensitive
/// tabulation once kept. The memo is gone, so both counters read 0; the
/// type stays because the benchmark ledger reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Descents answered from the memo: always 0.
    pub exit_hits: u64,
    /// Descents that missed the memo: always 0.
    pub exit_misses: u64,
}

impl MemoStats {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            exit_hits: self.exit_hits - earlier.exit_hits,
            exit_misses: self.exit_misses - earlier.exit_misses,
        }
    }
}

/// Counters from one [`AnalysisSession::update`]: how much pipeline work
/// the edit actually caused, against the from-scratch totals.
///
/// The pair structure (`*_total` vs the work done) is the incremental
/// contract: for a body-only edit, every "work" counter is bounded by the
/// edit's footprint, not the program's size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Methods with bodies in the updated program.
    pub methods_total: usize,
    /// Methods the delta classified as changed (body, signature, renamed,
    /// added, or removed).
    pub methods_changed: usize,
    /// Whitespace/comment-only edit: every artifact was kept.
    pub noop: bool,
    /// Declarations changed shape (add/remove/rename/signature/field/class
    /// edits): identifier numbering shifted, so previously built stages
    /// were rebuilt from scratch.
    pub structural: bool,
    /// No retained fingerprints to diff against (first update of a session
    /// opened from a compiled program): treated like a structural edit.
    pub undiffed: bool,
    /// The points-to result was reused without re-solving — the edit
    /// touched no constraint-relevant instruction.
    pub pta_reused: bool,
    /// The CI dependence graph came out identical, keeping its frozen CSR.
    pub ci_graph_reused: bool,
    /// The CS dependence graph came out identical, keeping its frozen CSR,
    /// down-edge index and summary graphs.
    pub cs_graph_reused: bool,
    /// Constraint-generation sites in the updated program (what a
    /// from-scratch solve generates).
    pub constraints_total: u64,
    /// Sites retracted with the changed methods' old bodies (0 when the
    /// points-to result was reused or never built).
    pub constraints_retracted: u64,
    /// Sites re-generated from the changed methods' new bodies.
    pub constraints_readded: u64,
    /// Per-method control-dependence/def-site artifacts recomputed during
    /// the update's graph rebuilds.
    pub control_deps_recomputed: u64,
    /// Per-method artifacts served from the warm cache instead.
    pub control_deps_reused: u64,
    /// CSR segments (method instances) across the session's built graphs.
    pub csr_segments_total: usize,
    /// Segments re-frozen because their graph changed.
    pub csr_segments_refrozen: usize,
    /// Per-kind summary graphs dropped because the CS graph changed.
    pub memo_entries_invalidated: usize,
    /// Per-kind summary graphs kept warm.
    pub memo_entries_kept: usize,
}

impl UpdateStats {
    /// Whether the update reused *any* stage artifact (the complement of a
    /// cold rebuild). A no-op edit trivially qualifies.
    pub fn any_reuse(&self) -> bool {
        self.noop || self.pta_reused || self.ci_graph_reused || self.cs_graph_reused
    }
}

/// A lazily-built, memoising slicing session over one program.
///
/// See the [module docs](self) for the architecture. All stage accessors
/// take `&mut self` because they build on first use; everything built is
/// kept for the session's lifetime.
#[derive(Debug)]
pub struct AnalysisSession {
    ctx: RunCtx,
    config: PtaConfig,
    program: Program,
    /// Span-free fingerprints of the sources the program was compiled
    /// from, computed by the compiling parse and retained for
    /// [`AnalysisSession::update`]'s diff — so an update never re-reads
    /// the previous version's text. `None` when the session was opened
    /// from a pre-compiled program (the first update then rebuilds fully
    /// and starts retaining fingerprints).
    fingerprints: Option<ProgramFingerprints>,
    pta: Option<(Pta, Completeness)>,
    /// The frozen CI graph and the completeness of its build. The growable
    /// graph it was frozen from is dropped once frozen: queries walk the
    /// frozen graph, and an edit compares its rebuilt graph with it.
    ci: Option<(FrozenSdg, Completeness)>,
    /// The frozen CS graph, kept alone like the CI one.
    cs: Option<FrozenSdg>,
    /// The CS graph's summary graphs, one per slice kind, built on first
    /// use by CS queries.
    summaries: SummaryGraphs,
    scratch: Scratch,
    /// Per-method constraint-generation streams (solver input), kept warm
    /// across updates for unchanged methods.
    gen_cache: GenCache,
    /// Per-method def-site/control-dependence artifacts (SDG build input),
    /// ditto.
    sdg_cache: SdgCache,
    /// [`AnalysisSession::resident_estimate`], kept current by every
    /// path that builds, decodes or replaces a counted artifact, so
    /// reading it costs nothing.
    resident: usize,
}

impl AnalysisSession {
    /// Compiles `sources` (with the standard library) and opens a session
    /// with a disabled context and the default points-to configuration.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn new(sources: &[(&str, &str)]) -> Result<AnalysisSession, CompileError> {
        Self::with_ctx(sources, PtaConfig::default(), RunCtx::disabled())
    }

    /// Compiles `sources` and opens a session whose every stage runs under
    /// `ctx` — its telemetry records the pipeline spans, its budget
    /// governs compilation-free stages (points-to, graph build) and is the
    /// default budget for queries.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn with_ctx(
        sources: &[(&str, &str)],
        config: PtaConfig,
        ctx: RunCtx,
    ) -> Result<AnalysisSession, CompileError> {
        let (program, fingerprints) = compile_fingerprinted(sources, &ctx)?;
        let mut session = Self::from_program(program, config, ctx);
        session.fingerprints = Some(fingerprints);
        Ok(session)
    }

    /// Opens a session over an already-compiled program. Without retained
    /// fingerprints, the first [`AnalysisSession::update`] cannot diff and
    /// takes the full-rebuild path; later updates diff normally.
    pub fn from_program(program: Program, config: PtaConfig, ctx: RunCtx) -> AnalysisSession {
        let mut session = AnalysisSession {
            ctx,
            config,
            program,
            fingerprints: None,
            pta: None,
            ci: None,
            cs: None,
            summaries: SummaryGraphs::default(),
            scratch: Scratch::default(),
            gen_cache: GenCache::new(),
            sdg_cache: SdgCache::new(),
            resident: 0,
        };
        session.refresh_resident();
        session
    }

    /// The session's run context.
    pub fn ctx(&self) -> &RunCtx {
        &self.ctx
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A rough resident-set estimate for this session, in elements (IR
    /// statements plus nodes and edges of every graph built so far,
    /// summary graphs included) — the same unit
    /// [`Budget::with_resident_limit`] polices.
    ///
    /// This is what a session pool feeds into govern's watermark
    /// machinery after every request: a stored number (no allocation, no
    /// walk, no stage is forced), monotone as lazy stages materialise,
    /// and deterministic for a given program and set of built stages.
    ///
    /// [`Budget::with_resident_limit`]: thinslice_util::Budget::with_resident_limit
    pub fn resident_estimate(&self) -> usize {
        self.resident
    }

    /// Recounts [`AnalysisSession::resident_estimate`]; called wherever a
    /// counted artifact changes.
    fn refresh_resident(&mut self) {
        self.resident = self.count_resident();
    }

    /// The resident estimate counted from scratch: a walk over the program
    /// and every built artifact.
    fn count_resident(&self) -> usize {
        let mut elems = self.program.all_stmts().count();
        for graph in self.graphs() {
            elems += graph.node_count() + graph.edge_count();
        }
        elems += self.summaries.resident();
        // Solved and cached state is resident too: the points-to sets, the
        // warm constraint streams, and the per-method SDG artifacts all
        // survive across queries and updates, so a watermark that ignored
        // them would under-report exactly the sessions that are most
        // expensive to keep.
        if let Some((pta, _)) = &self.pta {
            elems += pta.resident_estimate();
        }
        elems += self.gen_cache.resident_estimate();
        elems += self.sdg_cache.resident_estimate();
        elems
    }

    /// The counters of the callee-exit region memo, which reads 0: CS
    /// answers no longer memoise regions (see [`MemoStats`]).
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }

    // ---- incremental update ----

    /// Re-analyses the session for an edited version of its sources,
    /// invalidating only what the edit can reach and keeping everything
    /// else warm. Returns the work/reuse accounting.
    ///
    /// The contract is *bit-identity*: after `update`, every query answers
    /// exactly what a fresh session over `new_sources` would answer. Three
    /// paths deliver it:
    ///
    /// * **no-op** (whitespace/comment edit): only the program (and its
    ///   spans) is swapped; every analysis key in the pipeline is
    ///   span-free, so all artifacts remain valid.
    /// * **body-only edit**: per-method caches for the changed methods are
    ///   dropped; the points-to result is kept when the edit's
    ///   [constraint-relevant fingerprint][incr::stream_hash] is unchanged
    ///   (else re-solved by replay — same unique least fixpoint). When on
    ///   top of that every changed method's [literal-erased graph
    ///   fingerprint][body_fingerprint] is unchanged (a value-only edit),
    ///   graph re-derivation is skipped outright — the graphs would come
    ///   out byte-identical. Otherwise built graphs are re-derived over
    ///   the warm per-method caches, and a graph that comes out identical
    ///   keeps its frozen CSR, down-edge index and, for the CS graph, its
    ///   summary graphs.
    /// * **structural edit** (or no retained fingerprints): identifier
    ///   numbering shifted, so caches are cleared and previously built
    ///   stages rebuild from scratch — still deterministic, still
    ///   bit-identical to a fresh session.
    ///
    /// Stage laziness is preserved: a stage never built is not built now.
    /// A changed CS graph drops every per-kind summary graph; the next CS
    /// query or batch of a kind rebuilds it.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend; the session is left
    /// untouched in that case.
    pub fn update(&mut self, new_sources: &[(&str, &str)]) -> Result<UpdateStats, CompileError> {
        let tel = self.ctx.telemetry().clone();
        let mut span = tel.span("session.update");
        // Compile first: an invalid edit must leave the session untouched.
        // The same parse yields the new version's fingerprints, so the
        // diff against the retained previous-version fingerprints costs
        // no extra pass over either version's text.
        let (new_program, new_fingerprints) = compile_fingerprinted(new_sources, &self.ctx)?;
        let delta = self
            .fingerprints
            .as_ref()
            .map(|old| ProgramDelta::between_fingerprints(old, &new_fingerprints));
        let mut stats = UpdateStats {
            methods_total: new_program
                .methods
                .iter_enumerated()
                .filter(|(_, m)| m.body.is_some())
                .count(),
            constraints_total: total_sites(&new_program),
            ..UpdateStats::default()
        };
        match &delta {
            Some(d) if d.is_noop() => self.apply_noop(new_program, &mut stats),
            Some(d) if !d.is_structural() => self.apply_body_edit(new_program, d, &mut stats),
            _ => {
                stats.structural = delta.is_some();
                stats.undiffed = delta.is_none();
                stats.methods_changed = delta
                    .as_ref()
                    .map_or(stats.methods_total, ProgramDelta::len);
                self.rebuild_all(new_program, &mut stats);
            }
        }
        self.fingerprints = Some(new_fingerprints);
        self.refresh_resident();
        span.add("update.methods_changed", stats.methods_changed as u64);
        span.add("update.constraints_readded", stats.constraints_readded);
        span.add("update.csr_refrozen", stats.csr_segments_refrozen as u64);
        tel.count("session.updates", 1);
        Ok(stats)
    }

    /// No analysable change: swap the program (refreshing spans for seed
    /// lookup) and keep every artifact.
    fn apply_noop(&mut self, new_program: Program, stats: &mut UpdateStats) {
        stats.noop = true;
        stats.pta_reused = self.pta.is_some();
        stats.ci_graph_reused = self.ci.is_some();
        stats.cs_graph_reused = self.cs.is_some();
        stats.control_deps_reused = self.sdg_cache.len() as u64;
        stats.csr_segments_total = self.segments_total();
        stats.memo_entries_kept = self.summaries.count();
        self.program = new_program;
    }

    /// Body edits with unchanged declarations: identifier numbering is
    /// stable, so invalidation is per changed method.
    fn apply_body_edit(
        &mut self,
        new_program: Program,
        delta: &ProgramDelta,
        stats: &mut UpdateStats,
    ) {
        let changed = delta.changed_method_ids(&new_program);
        stats.methods_changed = changed.len();
        self.gen_cache.invalidate(&changed);
        self.sdg_cache.invalidate(&changed);

        // Old-program fingerprints must be read before the swap.
        let pta_unchanged = changed
            .iter()
            .all(|&m| incr::stream_hash(&self.program, m) == incr::stream_hash(&new_program, m));
        // With the solver reused, equal literal-erased fingerprints mean a
        // graph rebuild would reproduce every graph byte-for-byte — so it
        // can be skipped wholesale (the value-only fast path below).
        let graphs_unchanged = pta_unchanged
            && changed
                .iter()
                .all(|&m| body_fingerprint(&self.program, m) == body_fingerprint(&new_program, m));
        let old_sites: u64 = changed
            .iter()
            .map(|&m| incr::gen_site_count(&self.program, m))
            .sum();
        self.program = new_program;

        let (hits0, misses0) = (self.sdg_cache.hits, self.sdg_cache.misses);

        if graphs_unchanged {
            // Value-only edit (constants, string contents): nothing any
            // graph — or anything frozen from one — can observe changed,
            // so the built graphs, CSRs, down-edge index and summary
            // graphs all stay valid as-is. The per-method cache entries
            // invalidated above simply repopulate on the next real build.
            stats.pta_reused = self.pta.is_some();
            stats.ci_graph_reused = self.ci.is_some();
            stats.cs_graph_reused = self.cs.is_some();
            stats.memo_entries_kept = self.summaries.count();
            stats.control_deps_reused = self.sdg_cache.len() as u64;
            stats.csr_segments_total = self.segments_total();
            return;
        }

        if self.pta.is_some() {
            if pta_unchanged {
                stats.pta_reused = true;
            } else {
                stats.constraints_retracted = old_sites;
                stats.constraints_readded = changed
                    .iter()
                    .map(|&m| incr::gen_site_count(&self.program, m))
                    .sum();
                self.pta = Some(Pta::analyze_cached(
                    &self.program,
                    self.config.clone(),
                    &self.ctx,
                    &mut self.gen_cache,
                ));
            }
        }

        // CI graph: re-derive over the warm per-method caches and compare
        // the result with the kept frozen graph, which stays when equal.
        if let Some((old_ci, _)) = self.ci.take() {
            let (pta, _) = self.pta.as_ref().expect("ci implies pta");
            let (new_ci, comp) =
                build_ci_cached(&self.program, pta, &self.ctx, &mut self.sdg_cache);
            let ci = if old_ci.is_freeze_of(&new_ci) {
                stats.ci_graph_reused = true;
                old_ci
            } else {
                stats.csr_segments_refrozen += new_ci.instance_count();
                new_ci.freeze_ctx(&self.ctx)
            };
            self.ci = Some((ci, comp));
        }

        // CS graph: same, and an equal graph keeps the summary graphs that
        // hang off it too (its down-edge index is cached on the graph).
        if let Some(old_cs) = self.cs.take() {
            let (pta, _) = self.pta.as_ref().expect("cs implies pta");
            let modref = ModRef::compute(&self.program, pta);
            let new_cs =
                build_cs_cached(&self.program, pta, &modref, &self.ctx, &mut self.sdg_cache);
            self.cs = Some(if old_cs.is_freeze_of(&new_cs) {
                stats.cs_graph_reused = true;
                stats.memo_entries_kept = self.summaries.count();
                old_cs
            } else {
                stats.csr_segments_refrozen += new_cs.instance_count();
                stats.memo_entries_invalidated = self.summaries.clear();
                new_cs.freeze_ctx(&self.ctx)
            });
        }

        stats.control_deps_recomputed = self.sdg_cache.misses - misses0;
        stats.control_deps_reused = self.sdg_cache.hits - hits0;
        stats.csr_segments_total = self.segments_total();
    }

    /// Structural (or undiffable) change: clear the per-method caches and
    /// rebuild exactly the stages that had been built, preserving laziness.
    fn rebuild_all(&mut self, new_program: Program, stats: &mut UpdateStats) {
        if self.pta.is_some() {
            stats.constraints_retracted = total_sites(&self.program);
            stats.constraints_readded = stats.constraints_total;
        }
        self.gen_cache.clear();
        self.sdg_cache.clear();
        stats.memo_entries_invalidated = self.summaries.clear();
        let pta_was = self.pta.take().is_some();
        let ci_was = self.ci.take().is_some();
        let cs_was = self.cs.take().is_some();
        self.program = new_program;
        let misses0 = self.sdg_cache.misses;
        if pta_was {
            self.ensure_pta();
        }
        if ci_was {
            self.ensure_ci();
        }
        if cs_was {
            self.ensure_cs();
        }
        stats.control_deps_recomputed = self.sdg_cache.misses - misses0;
        // Every graph was rebuilt, and every graph built is frozen.
        stats.csr_segments_total = self.segments_total();
        stats.csr_segments_refrozen = stats.csr_segments_total;
    }

    /// The frozen graphs built so far: the CI graph, then the CS graph.
    fn graphs(&self) -> impl Iterator<Item = &FrozenSdg> {
        self.ci.iter().map(|(g, _)| g).chain(self.cs.iter())
    }

    /// CSR segment count across the built graphs (method instances).
    fn segments_total(&self) -> usize {
        self.graphs().map(FrozenSdg::instance_count).sum()
    }

    // ---- lazy stage artifacts ----

    fn ensure_pta(&mut self) {
        if self.pta.is_none() {
            self.pta = Some(Pta::analyze_cached(
                &self.program,
                self.config.clone(),
                &self.ctx,
                &mut self.gen_cache,
            ));
            self.refresh_resident();
        }
    }

    /// Builds the CI graph, freezes it and drops the growable graph.
    fn ensure_ci(&mut self) {
        self.ensure_pta();
        if self.ci.is_none() {
            let (pta, _) = self.pta.as_ref().expect("pta ensured");
            let (sdg, comp) = build_ci_cached(&self.program, pta, &self.ctx, &mut self.sdg_cache);
            self.ci = Some((sdg.freeze_ctx(&self.ctx), comp));
            self.refresh_resident();
        }
    }

    /// Builds the CS graph, freezes it and drops the growable graph.
    fn ensure_cs(&mut self) {
        self.ensure_pta();
        if self.cs.is_none() {
            let (pta, _) = self.pta.as_ref().expect("pta ensured");
            let modref = ModRef::compute(&self.program, pta);
            let sdg = build_cs_cached(&self.program, pta, &modref, &self.ctx, &mut self.sdg_cache);
            self.cs = Some(sdg.freeze_ctx(&self.ctx));
            self.refresh_resident();
        }
    }

    /// Points-to and call-graph results (built on first use).
    pub fn pta(&mut self) -> &Pta {
        self.ensure_pta();
        &self.pta.as_ref().expect("pta ensured").0
    }

    /// The same as [`AnalysisSession::ci_graph`]. It stays only because
    /// the benchmark ledger calls it.
    pub fn ci_sdg(&mut self) -> &FrozenSdg {
        self.ci_graph()
    }

    /// The frozen (CSR) context-insensitive graph — what CI queries
    /// traverse (built on first use).
    pub fn ci_graph(&mut self) -> &FrozenSdg {
        self.ensure_ci();
        &self.ci.as_ref().expect("ci ensured").0
    }

    /// The program, its points-to result and the frozen CI graph, lent
    /// together (the last two built on first use): what the §6.1
    /// inspection ([`crate::inspect`]) and the §4 expansions
    /// ([`crate::expand`]) read. A session restored from a snapshot lends
    /// its restored graph.
    pub fn ci_parts(&mut self) -> (&Program, &Pta, &FrozenSdg) {
        self.ensure_ci();
        (
            &self.program,
            &self.pta.as_ref().expect("pta ensured").0,
            &self.ci.as_ref().expect("ci ensured").0,
        )
    }

    /// The frozen context-sensitive (heap-parameter) graph — what CS
    /// queries traverse (built on first use). Expensive on large
    /// programs; that is the paper's point.
    pub fn cs_graph(&mut self) -> &FrozenSdg {
        self.ensure_cs();
        self.cs.as_ref().expect("cs ensured")
    }

    /// Per-stage completeness of the governed pipeline stages built so
    /// far (forces points-to and the CI graph).
    pub fn build_report(&mut self) -> BuildReport {
        self.ensure_ci();
        BuildReport {
            pta: self.pta.as_ref().expect("pta ensured").1,
            sdg: self.ci.as_ref().expect("ci ensured").1,
        }
    }

    // ---- seed helpers ----

    /// All IR statements on `line` of the source file named `file`
    /// (excluding synthetic code), usable as a seed or desired set.
    pub fn stmts_at_line(&self, file: &str, line: u32) -> Vec<StmtRef> {
        self.program.stmts_at_line(file, line).to_vec()
    }

    /// The seed statements for slicing "from `file:line`" — all reachable
    /// statements on that line. Returns `None` when the line has no
    /// reachable statement. Forces the frozen CI graph (reachability is
    /// defined against it), which queries need anyway.
    pub fn seed_at_line(&mut self, file: &str, line: u32) -> Option<Vec<StmtRef>> {
        self.ensure_ci();
        let (sdg, _) = self.ci.as_ref().expect("ci ensured");
        let stmts: Vec<StmtRef> = self
            .program
            .stmts_at_line(file, line)
            .iter()
            .copied()
            .filter(|s| sdg.stmt_node(*s).is_some())
            .collect();
        if stmts.is_empty() {
            None
        } else {
            Some(stmts)
        }
    }

    // ---- the query entrypoints ----

    /// Whether every query scratch is back to empty per-query state.
    #[cfg(test)]
    pub(crate) fn scratch_is_clean(&self) -> bool {
        self.scratch.bfs.is_clean() && self.scratch.cs.is_clean()
    }

    /// The budget a query runs under: its own, or the session's.
    fn effective_budget(&self, policy: &QueryPolicy) -> Budget {
        policy
            .budget
            .clone()
            .unwrap_or_else(|| self.ctx.budget().clone())
    }

    /// Answers one query. Artifacts the query needs are built on first
    /// use, a CS query's summary graph among them, and scratch
    /// is reused across queries, so a warm session answers repeated
    /// queries without re-deriving anything — and, by the cache
    /// invariants, identically to a cold one.
    pub fn query(&mut self, q: &Query) -> SliceResult {
        let budget = self.effective_budget(&q.policy);
        let tel = self.ctx.telemetry().clone();
        let mut span = tel.span("session.query");
        let result = match q.engine {
            Engine::Ci => {
                self.ensure_ci();
                let (graph, _) = self.ci.as_ref().expect("ci ensured");
                let seeds = resolve_seeds(graph, &q.seeds);
                answer_ci(graph, &seeds, q.kind, &budget, &mut self.scratch.bfs, &tel)
            }
            Engine::Cs => {
                self.ensure_cs();
                let built = self.summaries.count();
                let graph = self.cs.as_ref().expect("cs ensured");
                let seeds = resolve_seeds(graph, &q.seeds);
                let result = answer_cs(
                    graph,
                    &self.summaries,
                    &[seeds],
                    q.kind,
                    &budget,
                    q.policy.degrade,
                    &mut self.scratch,
                    &tel,
                )
                .pop()
                .expect("one query, one answer");
                if self.summaries.count() != built {
                    self.refresh_resident();
                }
                result
            }
        };
        span.add("slice.stmts", result.stmts.len() as u64);
        result
    }

    /// Answers a batch of queries fanned out over `threads` workers, in
    /// query order, with default robustness (see
    /// [`AnalysisSession::query_batch_with`]).
    ///
    /// Every batch, governed or not, runs through the one batch engine:
    /// each [`QueryOutcome::latency`] is measured, and a query whose
    /// walk panics is isolated and retried on fresh scratch — if it keeps
    /// panicking, its outcome is an `Err` while the rest of the batch
    /// answers normally. Nothing unwinds out of this call.
    pub fn query_batch(&mut self, queries: &[Query], threads: usize) -> Vec<QueryOutcome> {
        self.query_batch_with(queries, threads, &BatchOptions::default())
    }

    /// Answers a batch of queries fanned out over `threads` workers.
    ///
    /// Queries are grouped by (engine, kind, policy) and each group runs
    /// through the batch engine — graph and down-edge index built once,
    /// per-worker scratch reuse, and per-query budgets with panic
    /// isolation and bounded retry (see [`AnalysisSession::query_batch`]).
    /// Results come back in the original query order; each answer is
    /// identical to what [`AnalysisSession::query`] would return for that
    /// query.
    pub fn query_batch_with(
        &mut self,
        queries: &[Query],
        threads: usize,
        opts: &BatchOptions,
    ) -> Vec<QueryOutcome> {
        let mut out: Vec<Option<QueryOutcome>> = (0..queries.len()).map(|_| None).collect();
        let built = self.summaries.count();
        for (idxs, cfg) in self.batch_groups(queries, opts) {
            let q = &queries[idxs[0]];
            let graph = match q.engine {
                Engine::Ci => {
                    self.ensure_ci();
                    &self.ci.as_ref().expect("ci ensured").0
                }
                Engine::Cs => {
                    self.ensure_cs();
                    self.cs.as_ref().expect("cs ensured")
                }
            };
            let node_q: Vec<Vec<NodeId>> = idxs
                .iter()
                .map(|&i| resolve_seeds(graph, &queries[i].seeds))
                .collect();
            let results = run_batch(
                graph,
                &node_q,
                q.kind,
                q.engine,
                threads,
                &cfg,
                &mut self.scratch,
                &self.summaries,
            );
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(r);
            }
        }
        if self.summaries.count() != built {
            self.refresh_resident();
        }
        out.into_iter()
            .map(|o| o.expect("every query answered by its group"))
            .collect()
    }

    /// How many workers [`AnalysisSession::query_batch_with`] runs these
    /// queries on when `threads` are asked for: the most that any of its
    /// (engine, kind, policy) groups gets from the batch engine's rule.
    pub fn batch_workers(&self, queries: &[Query], threads: usize, opts: &BatchOptions) -> usize {
        self.batch_groups(queries, opts)
            .iter()
            .map(|(idxs, cfg)| cfg.workers(threads, idxs.len()))
            .max()
            .unwrap_or(1)
    }

    /// The (engine, kind, policy) groups of a batch call, each with its
    /// queries' indices in call order and the configuration it runs under.
    fn batch_groups(
        &self,
        queries: &[Query],
        opts: &BatchOptions,
    ) -> Vec<(Vec<usize>, BatchConfig)> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let found = groups.iter_mut().find(|idxs| {
                let r = &queries[idxs[0]];
                r.engine == q.engine && r.kind == q.kind && r.policy == q.policy
            });
            match found {
                Some(idxs) => idxs.push(i),
                None => groups.push(vec![i]),
            }
        }
        // One fresh token for the whole call, so that under fail-fast a
        // hard failure cancels every later query, whatever its group, and
        // never a token the session or a policy keeps.
        let cancel = opts.fail_fast.then(CancelToken::new);
        groups
            .into_iter()
            .map(|idxs| {
                let q = &queries[idxs[0]];
                let mut budget = self.effective_budget(&q.policy);
                if let Some(cancel) = &cancel {
                    // A group whose own token is already cancelled keeps
                    // it, and answers as its single queries would.
                    if !budget.cancel_token().is_some_and(CancelToken::is_cancelled) {
                        budget = budget.with_cancel(cancel.clone());
                    }
                }
                // The fault names a query of the call; only its group sees
                // it, at that query's position within the group.
                let fault = opts.fault.and_then(|f| {
                    let query = idxs.iter().position(|&i| i == f.query)?;
                    Some(FaultInjection { query, ..f })
                });
                let cfg = BatchConfig {
                    ctx: self.ctx.clone().with_budget(budget),
                    fail_fast: cancel.clone(),
                    retries: opts.retries.unwrap_or(BatchConfig::default().retries),
                    fault,
                    degrade: q.policy.degrade,
                };
                (idxs, cfg)
            })
            .collect()
    }

    // ---- warm-start snapshots ----

    /// Serializes every built stage artifact into a versioned snapshot
    /// keyed by `key` (the program content hash, see
    /// [`crate::snapshot::source_hash`]). Stage presence mirrors the
    /// session's lazy state: a stage never built is not written, and a
    /// restored session stays lazy about it. Each dependence graph is
    /// written once, in the frozen form the session keeps. Returns `None`
    /// when any built stage is truncated — a budget-cut artifact must be
    /// rebuilt, not warmed over — so only exact, complete results are ever
    /// persisted.
    ///
    /// Scratch space, summary graphs and the per-method caches are
    /// deliberately *not* serialized: they are performance
    /// state that repopulates on use, and the bit-identity contract holds
    /// without them.
    ///
    /// The write is timed as a `snapshot.write` span on the session's
    /// telemetry, carrying the bytes written as `snapshot.bytes`.
    pub fn write_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        let mut span = self.ctx.telemetry().span("snapshot.write");
        if self.pta.iter().any(|(_, c)| !c.is_complete()) {
            return None;
        }
        if self.ci.iter().any(|(_, c)| !c.is_complete()) {
            return None;
        }
        let mut snap = SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, key);
        let mut w = ByteWriter::new();
        thinslice_pta::snap::encode_config(&self.config, &mut w);
        snap.section("config", w.into_bytes());
        let mut w = ByteWriter::new();
        thinslice_ir::snap::encode_program(&self.program, &mut w);
        snap.section("program", w.into_bytes());
        if let Some(fp) = &self.fingerprints {
            let mut w = ByteWriter::new();
            fp.encode(&mut w);
            snap.section("fingerprints", w.into_bytes());
        }
        if let Some((pta, _)) = &self.pta {
            let mut w = ByteWriter::new();
            thinslice_pta::snap::encode_pta(pta, &mut w);
            snap.section("pta", w.into_bytes());
            let mut w = ByteWriter::new();
            let hashes = thinslice_pta::snap::reachable_stream_hashes(pta, &self.program);
            thinslice_pta::snap::encode_stream_hashes(&hashes, &mut w);
            snap.section("streams", w.into_bytes());
        }
        for (name, graph) in [
            ("ci_csr", self.ci.as_ref().map(|(g, _)| g)),
            ("cs_csr", self.cs.as_ref()),
        ] {
            let Some(graph) = graph else { continue };
            let mut w = ByteWriter::new();
            thinslice_sdg::snap::encode_frozen(graph, &mut w);
            snap.section(name, w.into_bytes());
        }
        let bytes = snap.finish();
        span.add("snapshot.bytes", bytes.len() as u64);
        Some(bytes)
    }

    /// Restores a session from snapshot bytes written by
    /// [`AnalysisSession::write_snapshot`].
    ///
    /// Adoption is gated by, in order: the container's magic, format
    /// version, and whole-file checksum; the key (the caller's program
    /// content hash must equal the snapshot's); the points-to
    /// configuration (canonical encodings must be byte-equal); the
    /// points-to result's method ids (every reachable method must exist
    /// in the restored program); the constraint-stream cross-check
    /// (every reachable method's stream hash, recomputed over the
    /// restored program, must match what the solve was keyed on); the
    /// structural checks of each frozen graph's decoder; each graph's
    /// heap mode (direct edges in `ci_csr`, heap parameters in `cs_csr`);
    /// each graph's statements (every one must name an instruction of the
    /// restored program); and stage presence (a graph without its
    /// points-to input is rejected). Any failure returns `None` — the
    /// caller falls back to a clean full build, never an error on the
    /// query path.
    ///
    /// The restore, adopted or rejected, is timed as a `snapshot.restore`
    /// span on `ctx`'s telemetry, carrying the bytes read as
    /// `snapshot.bytes`.
    pub fn from_snapshot(
        bytes: &[u8],
        key: &str,
        config: PtaConfig,
        ctx: RunCtx,
    ) -> Option<AnalysisSession> {
        let tel = ctx.telemetry().clone();
        let mut span = tel.span("snapshot.restore");
        span.add("snapshot.bytes", bytes.len() as u64);
        let snap = SnapshotReader::open(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).ok()?;
        if snap.key() != key {
            return None;
        }
        let mut want = ByteWriter::new();
        thinslice_pta::snap::encode_config(&config, &mut want);
        if snap.section("config")? != want.into_bytes().as_slice() {
            return None;
        }
        let program = decode_section(snap.section("program")?, thinslice_ir::snap::decode_program)?;
        let fingerprints = match snap.section("fingerprints") {
            Some(b) => Some(decode_section(b, ProgramFingerprints::decode)?),
            None => None,
        };
        let pta = match snap.section("pta") {
            Some(b) => {
                let pta = decode_section(b, thinslice_pta::snap::decode_pta)?;
                let stored = decode_section(
                    snap.section("streams")?,
                    thinslice_pta::snap::decode_stream_hashes,
                )?;
                // Recomputing a stream hash indexes the program's methods
                // by the solve's (sorted) reachable method ids.
                let reachable = pta.reachable_methods();
                if reachable
                    .last()
                    .is_some_and(|m| m.index() >= program.methods.len())
                {
                    return None;
                }
                if stored != thinslice_pta::snap::reachable_stream_hashes(&pta, &program) {
                    return None;
                }
                Some((pta, Completeness::Complete))
            }
            None => None,
        };
        let frozen = |name, mode| match snap.section(name) {
            Some(b) => {
                let graph = decode_section(b, thinslice_sdg::snap::decode_frozen)?;
                // A graph of the other heap mode would answer the other
                // engine's queries, and one naming a statement the program
                // lacks would index past it when an answer is rendered.
                (graph.mode() == mode && names_only_program_stmts(&graph, &program))
                    .then_some(Some(graph))
            }
            None => Some(None),
        };
        let ci = frozen("ci_csr", HeapMode::DirectEdges)?;
        let cs = frozen("cs_csr", HeapMode::Parameters)?;
        // A graph implies its points-to input.
        if pta.is_none() && (ci.is_some() || cs.is_some()) {
            return None;
        }
        let mut session = AnalysisSession {
            ctx,
            config,
            program,
            fingerprints,
            pta,
            ci: ci.map(|g| (g, Completeness::Complete)),
            cs,
            summaries: SummaryGraphs::default(),
            scratch: Scratch::default(),
            gen_cache: GenCache::new(),
            sdg_cache: SdgCache::new(),
            resident: 0,
        };
        session.refresh_resident();
        Some(session)
    }
}

/// Decodes one snapshot section, requiring the decoder to consume it
/// exactly; `None` on any codec error (the caller rebuilds instead).
fn decode_section<'a, T>(
    bytes: &'a [u8],
    f: impl FnOnce(&mut ByteReader<'a>) -> Result<T, CodecError>,
) -> Option<T> {
    let mut r = ByteReader::new(bytes);
    let v = f(&mut r).ok()?;
    r.is_at_end().then_some(v)
}

/// Whether every statement `graph` displays names an instruction of
/// `program`: a method with a body, and a block and an instruction index
/// inside it.
fn names_only_program_stmts(graph: &FrozenSdg, program: &Program) -> bool {
    graph.stmt_table().iter().all(|s| {
        program
            .methods
            .get(s.method)
            .and_then(|m| m.body.as_ref())
            .and_then(|body| body.blocks.get(s.loc.block))
            .is_some_and(|block| (s.loc.index as usize) < block.instrs.len())
    })
}

/// Total constraint-generation sites across a program's method bodies.
fn total_sites(program: &Program) -> u64 {
    program
        .methods
        .iter_enumerated()
        .map(|(m, _)| incr::gen_site_count(program, m))
        .sum()
}

/// Resolves statement seeds to graph nodes.
fn resolve_seeds(graph: &FrozenSdg, seeds: &[StmtRef]) -> Vec<NodeId> {
    seeds
        .iter()
        .flat_map(|&s| graph.stmt_nodes_of(s).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const SRC: &str = "class Box { Object item;
        void fill(Object o) { this.item = o; }
        Object take() { return this.item; }
     }
     class Main { static void main() {
        Box b = new Box();
        String s = \"x\";
        b.fill(s);
        Object got = b.take();
        print(got);
     } }";

    #[test]
    fn session_builds_stages_lazily() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        assert!(s.pta.is_none() && s.ci.is_none() && s.cs.is_none());
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        assert!(s.pta.is_some() && s.ci.is_some(), "seed lookup forces CI");
        assert!(s.cs.is_none(), "CS graph not built until a CS query");
        let r = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        assert!(s.cs.is_none());
        assert!(r.completeness.is_complete() && !r.degraded);
        let r2 = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        assert!(s.cs.is_some(), "CS query forces the CS graph");
        assert!(r2.completeness.is_complete());
        assert_eq!(r2.engine, Engine::Cs);
    }

    #[test]
    fn warm_queries_match_cold_queries() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let q = Query::new(seeds.clone(), kind, engine);
                let cold = s.query(&q);
                let warm = s.query(&q);
                assert_eq!(cold.stmts, warm.stmts, "{engine:?}/{kind:?}");
                assert_eq!(cold.visited, warm.visited);
            }
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        // A heterogeneous batch: both engines, two kinds.
        let queries = vec![
            Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci),
            Query::new(seeds.clone(), SliceKind::Thin, Engine::Cs),
            Query::new(seeds.clone(), SliceKind::TraditionalData, Engine::Ci),
            Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci),
        ];
        for threads in [1, 2, 4, 8] {
            let batched = s.query_batch(&queries, threads);
            assert_eq!(batched.len(), queries.len());
            for (q, out) in queries.iter().zip(&batched) {
                let single = s.query(q);
                let got = out.slice.as_ref().expect("no faults injected");
                assert_eq!(
                    got.stmts, single.stmts,
                    "{:?}/{:?}/threads={threads}",
                    q.engine, q.kind
                );
                assert_eq!(got.visited, single.visited);
                assert_eq!(got.engine, single.engine);
            }
        }
    }

    #[test]
    fn answers_share_their_graphs_statement_table() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        for engine in [Engine::Ci, Engine::Cs] {
            // One query, two (a lane walk) and twenty (a lane walk on
            // each of two workers).
            let q = Query::new(seeds.clone(), SliceKind::Thin, engine);
            let single = s.query(&q);
            let table = Arc::clone(match engine {
                Engine::Ci => s.ci_graph().stmt_table(),
                Engine::Cs => s.cs_graph().stmt_table(),
            });
            assert!(Arc::ptr_eq(single.stmts.table(), &table), "{engine:?}");
            for n in [1, 2, 20] {
                for out in s.query_batch(&vec![q.clone(); n], 2) {
                    let got = out.slice.expect("no faults injected");
                    assert!(Arc::ptr_eq(got.stmts.table(), &table), "{engine:?} x{n}");
                    assert_eq!(got.stmts, single.stmts);
                }
            }
        }
    }

    #[test]
    fn answers_taken_before_an_update_keep_their_statements() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let before: Vec<(SliceResult, Vec<StmtRef>)> = [Engine::Ci, Engine::Cs]
            .into_iter()
            .map(|engine| {
                let r = s.query(&Query::new(seeds.clone(), SliceKind::Thin, engine));
                let stmts = r.stmts.iter().collect();
                (r, stmts)
            })
            .collect();
        // A statement inserted ahead of the slice's shifts the locations
        // of every statement after it, so both graphs are renumbered.
        let edited = SRC.replace("Box b = new Box();", "int pad = 0; Box b = new Box();");
        s.update(&[("t.mj", &edited)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        for (engine, (old, stmts)) in [Engine::Ci, Engine::Cs].into_iter().zip(&before) {
            let now = s.query(&Query::new(seeds.clone(), SliceKind::Thin, engine));
            assert!(
                !Arc::ptr_eq(old.stmts.table(), now.stmts.table()),
                "{engine:?}"
            );
            assert_ne!(old.stmts.table()[..], now.stmts.table()[..], "{engine:?}");
            assert!(old.stmts.iter().eq(stmts.iter().copied()), "{engine:?}");
            assert!(stmts.iter().all(|&st| old.stmts.contains(st)), "{engine:?}");
            assert_ne!(old.stmts, now.stmts, "{engine:?}");
            assert_eq!(old.stmts.len(), now.stmts.len(), "{engine:?}");
        }
    }

    #[test]
    fn batch_answers_outlive_the_session_that_answered_them() {
        // Lane-walked batches of 150 queries (three lane groups) over
        // every seed line, both engines and every kind: each answer is a
        // view of its group's shared log, and must still list its
        // statements once the session and its graphs are gone.
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds: Vec<Vec<StmtRef>> = (1..=11)
            .filter_map(|line| s.seed_at_line("t.mj", line))
            .collect();
        let mut queries = Vec::new();
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let batch: Vec<Query> = (seeds.iter().cycle().take(150))
                    .map(|seeds| Query::new(seeds.clone(), kind, engine))
                    .collect();
                queries.push(batch);
            }
        }
        let want: Vec<Vec<Vec<StmtRef>>> = (queries.iter())
            .map(|batch| {
                batch
                    .iter()
                    .map(|q| s.query(q).stmts.iter().collect())
                    .collect()
            })
            .collect();
        let answers: Vec<Vec<QueryOutcome>> = queries.iter().map(|b| s.query_batch(b, 2)).collect();
        drop(s);
        for (batch, want) in answers.iter().zip(&want) {
            for (out, want) in batch.iter().zip(want) {
                let got = &out.slice.as_ref().expect("no faults injected").stmts;
                assert!(!want.is_empty());
                assert!(got.iter().eq(want.iter().copied()));
                assert_eq!(got.len(), want.len());
                assert!(want.iter().all(|&st| got.contains(st)));
                assert_eq!(*got, got.clone());
            }
        }
    }

    /// Every engine × kind answer of `s` must be byte-identical to a fresh
    /// session compiled from `src`, seeding at `line`.
    fn assert_matches_fresh(s: &mut AnalysisSession, src: &str, line: u32) {
        let mut fresh = AnalysisSession::new(&[("t.mj", src)]).unwrap();
        let seeds = fresh.seed_at_line("t.mj", line).unwrap();
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let q = Query::new(seeds.clone(), kind, engine);
                let updated = s.query(&q);
                let cold = fresh.query(&q);
                assert_eq!(updated.stmts, cold.stmts, "{engine:?}/{kind:?}");
                assert_eq!(updated.visited, cold.visited);
                assert_eq!(updated.completeness, cold.completeness);
            }
        }
    }

    #[test]
    fn update_noop_keeps_everything() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let before = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        let edited = format!("// header comment\n{SRC}");
        let stats = s.update(&[("t.mj", &edited)]).unwrap();
        assert!(stats.noop, "{stats:?}");
        assert!(stats.pta_reused && stats.ci_graph_reused && stats.cs_graph_reused);
        assert_eq!(stats.methods_changed, 0);
        assert_eq!(stats.csr_segments_refrozen, 0);
        assert_eq!(stats.memo_entries_invalidated, 0);
        assert!(stats.memo_entries_kept > 0, "warm memos must be retained");
        // Spans refreshed: the seed line moved down by the comment.
        let seeds = s.seed_at_line("t.mj", 11).unwrap();
        let after = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        assert_eq!(before.stmts, after.stmts);
        assert_matches_fresh(&mut s, &edited, 11);
    }

    #[test]
    fn update_constant_tweak_keeps_solver_and_graphs() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        let edited = SRC.replace("\"x\"", "\"tweaked\"");
        let stats = s.update(&[("t.mj", &edited)]).unwrap();
        assert!(!stats.noop && !stats.structural && !stats.undiffed);
        assert_eq!(stats.methods_changed, 1);
        assert!(stats.pta_reused, "literal value is constraint-irrelevant");
        assert!(stats.ci_graph_reused && stats.cs_graph_reused);
        assert_eq!(stats.constraints_retracted, 0);
        assert_eq!(stats.csr_segments_refrozen, 0);
        assert_eq!(stats.memo_entries_invalidated, 0);
        assert!(
            stats.control_deps_recomputed <= 1,
            "only the edited method rebuilds its per-method artifacts: {stats:?}"
        );
        assert_matches_fresh(&mut s, &edited, 10);
    }

    #[test]
    fn update_statement_insert_resolves_incrementally() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        let edited = SRC.replace("print(got);", "Object extra = b.take();\nprint(got);");
        let stats = s.update(&[("t.mj", &edited)]).unwrap();
        assert!(!stats.structural, "body-only edit: {stats:?}");
        assert!(!stats.pta_reused, "a new call site must re-solve");
        assert!(
            0 < stats.constraints_retracted
                && stats.constraints_retracted < stats.constraints_total,
            "retraction is edit-sized: {stats:?}"
        );
        assert!(stats.constraints_readded < stats.constraints_total);
        assert!(
            stats.control_deps_recomputed < stats.methods_total as u64,
            "unchanged methods keep their artifacts: {stats:?}"
        );
        assert_matches_fresh(&mut s, &edited, 10);
    }

    #[test]
    fn update_structural_edit_rebuilds_built_stages_only() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        assert!(s.cs.is_none());
        let edited = SRC.replace(
            "Object take() { return this.item; }",
            "Object take() { return this.item; }\n        Object peek() { return this.item; }",
        );
        let stats = s.update(&[("t.mj", &edited)]).unwrap();
        assert!(stats.structural, "{stats:?}");
        assert!(!stats.pta_reused && !stats.ci_graph_reused);
        assert_eq!(stats.constraints_readded, stats.constraints_total);
        assert!(s.cs.is_none(), "laziness preserved: CS stays unbuilt");
        assert!(s.pta.is_some() && s.ci.is_some());
        assert_matches_fresh(&mut s, &edited, 10);
    }

    #[test]
    fn update_compile_error_leaves_session_untouched() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let before = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        assert!(s.update(&[("t.mj", "class Broken {")]).is_err());
        let after = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        assert_eq!(before.stmts, after.stmts);
    }

    #[test]
    fn update_without_retained_sources_rebuilds() {
        let program = thinslice_ir::compile(&[("t.mj", SRC)]).unwrap();
        let mut s =
            AnalysisSession::from_program(program, PtaConfig::default(), RunCtx::disabled());
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        let stats = s.update(&[("t.mj", SRC)]).unwrap();
        assert!(stats.undiffed && !stats.structural && !stats.noop);
        // Sources are retained now: the next identical update is a no-op.
        let stats = s.update(&[("t.mj", SRC)]).unwrap();
        assert!(stats.noop);
    }

    #[test]
    fn governed_query_truncates_honestly() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let full = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        let tight = QueryPolicy {
            budget: Some(Budget::unlimited().with_step_limit(1)),
            degrade: true,
        };
        let partial = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci).with_policy(tight));
        assert!(!partial.completeness.is_complete());
        assert!(partial.stmts.is_subset(&full.stmts));
        // The truncated CI result is a prefix of the full BFS order.
        assert_eq!(
            partial.stmts.iter().collect::<Vec<_>>(),
            full.stmts
                .iter()
                .take(partial.stmts.len())
                .collect::<Vec<_>>()
        );
    }

    /// Every engine × kind answer of `a` and `b` must be identical,
    /// statement order included.
    fn assert_sessions_identical(a: &mut AnalysisSession, b: &mut AnalysisSession, line: u32) {
        let seeds = a.seed_at_line("t.mj", line).unwrap();
        assert_eq!(seeds, b.seed_at_line("t.mj", line).unwrap());
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let q = Query::new(seeds.clone(), kind, engine);
                let ra = a.query(&q);
                let rb = b.query(&q);
                assert_eq!(ra.stmts, rb.stmts, "{engine:?}/{kind:?}");
                assert_eq!(ra.visited, rb.visited);
                assert_eq!(ra.completeness, rb.completeness);
            }
        }
    }

    fn full_session() -> AnalysisSession {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        // Force every stage: CI CSR, CS CSR, and the down-edge index.
        s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        s
    }

    #[test]
    fn snapshot_restore_answers_bit_identically() {
        let mut s = full_session();
        let bytes = s
            .write_snapshot("deadbeef")
            .expect("complete stages snapshot");
        let mut restored = AnalysisSession::from_snapshot(
            &bytes,
            "deadbeef",
            PtaConfig::default(),
            RunCtx::disabled(),
        )
        .expect("clean snapshot restores");
        assert!(restored.pta.is_some());
        assert!(restored.ci.is_some() && restored.cs.is_some());
        let again = |r: &AnalysisSession| r.write_snapshot("deadbeef").unwrap();
        assert_eq!(again(&restored), bytes, "re-encoded before querying");
        assert_sessions_identical(&mut restored, &mut s, 10);
        assert_eq!(again(&restored), bytes, "re-encoded after querying");
        // And against a genuinely fresh build.
        assert_matches_fresh(&mut restored, SRC, 10);
    }

    #[test]
    fn snapshot_preserves_stage_laziness() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        assert!(s.cs.is_none());
        let bytes = s.write_snapshot("k").unwrap();
        let restored =
            AnalysisSession::from_snapshot(&bytes, "k", PtaConfig::default(), RunCtx::disabled())
                .unwrap();
        assert!(restored.pta.is_some() && restored.ci.is_some());
        assert!(
            restored.cs.is_none(),
            "a stage never built must not materialise through a snapshot"
        );
    }

    /// The paper's Figure 4: a `File` is closed through one alias fetched
    /// from a `Vector` and read through another; line 17 throws.
    const FIGURE4: &str = r#"class File {
    boolean open;
    File() { this.open = true; }
    boolean isOpen() { return this.open; }
    void closeFile() { this.open = false; }
}
class Main {
    static void main() {
        File f = new File();
        Vector files = new Vector();
        files.add(f);
        File g = (File) files.get(0);
        g.closeFile();
        File h = (File) files.get(0);
        boolean open = h.isOpen();
        if (!open) {
            throw new Exception("read from closed file");
        }
        print("file ok");
    }
}"#;

    /// The three §4 expansions from a seed line, asked as the Table 2
    /// harness asks them: the seed's control dependences, the heap-flow
    /// pairs of the thin slice from the seed and those conditionals, and
    /// each pair's aliasing explanation (rendered with `Debug`).
    fn expansions(s: &mut AnalysisSession, file: &str, line: u32) -> Vec<String> {
        let mut seeds = s.seed_at_line(file, line).unwrap();
        let (_, _, graph) = s.ci_parts();
        let ctrl: Vec<StmtRef> = seeds
            .iter()
            .flat_map(|&st| crate::expand::exposed_control_deps(graph, st))
            .collect();
        seeds.extend(&ctrl);
        let thin = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        let (program, pta, graph) = s.ci_parts();
        let pairs = crate::expand::heap_flow_pairs(program, graph, &thin.stmts);
        assert!(!pairs.is_empty(), "{file}:{line}: no heap flow to explain");
        let mut out = vec![format!("{ctrl:?}"), format!("{pairs:?}")];
        for (load, store) in pairs {
            let e = crate::expand::explain_aliasing(program, pta, graph, load, store);
            out.push(format!("{e:?}"));
        }
        out
    }

    #[test]
    fn restored_sessions_expand_like_fresh_ones_without_a_build() {
        let nanoxml = thinslice_suite::benchmark_named("nanoxml").unwrap();
        let task = thinslice_suite::all_bug_tasks()
            .into_iter()
            .find(|t| t.id == "nanoxml-5")
            .unwrap();
        let nano_line = thinslice_suite::line_with(nanoxml.sources[0].1, task.seed.snippet);
        for (sources, file, line) in [
            (vec![("file.mj", FIGURE4)], "file.mj", 17),
            (nanoxml.sources.clone(), "nanoxml.mj", nano_line),
        ] {
            let mut fresh = AnalysisSession::new(&sources).unwrap();
            let want = expansions(&mut fresh, file, line);
            let bytes = fresh.write_snapshot("k").unwrap();
            let mut restored = AnalysisSession::from_snapshot(
                &bytes,
                "k",
                PtaConfig::default(),
                RunCtx::disabled(),
            )
            .unwrap();
            assert_eq!(expansions(&mut restored, file, line), want, "{file}:{line}");
            assert!(
                restored.sdg_cache.misses == 0 && restored.cs.is_none(),
                "{file}:{line}: expanding built a graph"
            );
        }
    }

    #[test]
    fn snapshot_rejects_mismatch_and_corruption() {
        let s = full_session();
        let bytes = s.write_snapshot("cafe").unwrap();
        let ok = |b: &[u8], key: &str, config: PtaConfig| {
            AnalysisSession::from_snapshot(b, key, config, RunCtx::disabled()).is_some()
        };
        assert!(ok(&bytes, "cafe", PtaConfig::default()));
        // Wrong key: the caller's sources hash elsewhere.
        assert!(!ok(&bytes, "beef", PtaConfig::default()));
        // Config drift: the solved result answers a different question.
        let other = PtaConfig {
            object_sensitive_containers: false,
            ..PtaConfig::default()
        };
        assert!(!ok(&bytes, "cafe", other));
        // Truncation anywhere is caught by the container checks.
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                !ok(&bytes[..cut], "cafe", PtaConfig::default()),
                "cut={cut}"
            );
        }
        // Any single bit flip is caught by the whole-file checksum.
        for pos in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(!ok(&bad, "cafe", PtaConfig::default()), "flip at {pos}");
        }
    }

    #[test]
    fn snapshot_rejects_a_resealed_graph_whose_edges_leave_the_graph() {
        // A checksum-valid file whose frozen CI graph is structurally
        // broken: every edge target of `ci_csr` overwritten with
        // 0xFFFF_FFF0, then the file re-sealed so its checksum passes.
        let src = "class Main { static void main() {\nint x = 1;\nint y = x + 2;\nprint(y);\n} }";
        let mut s = AnalysisSession::new(&[("t.mj", src)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 4).unwrap();
        let want = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        let (n, m) = (s.ci_graph().node_count(), s.ci_graph().edge_count());
        assert!(n < 127 && m < 128, "one-byte length varints below");
        let bytes = s.write_snapshot("k").unwrap();
        let snap = SnapshotReader::open(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).unwrap();
        let mut resealed = SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "k");
        for name in snap.section_names() {
            let mut payload = snap.section(name).unwrap().to_vec();
            if name == "ci_csr" {
                // The section starts with the heap mode byte, the CSR
                // offsets (a length varint, then n + 1 little-endian
                // u32s), and the edge targets (a length varint, then m
                // little-endian u32s).
                let targets_at = 1 + 1 + 4 * (n + 1) + 1;
                assert_eq!(usize::from(payload[targets_at - 1]), m);
                for entry in payload[targets_at..targets_at + 4 * m].chunks_exact_mut(4) {
                    entry.copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
                }
                assert_eq!(
                    thinslice_sdg::snap::decode_frozen(&mut ByteReader::new(&payload)).unwrap_err(),
                    CodecError::Malformed("csr edge node id")
                );
            }
            resealed.section(name, payload);
        }
        let restore = |b: &[u8]| {
            AnalysisSession::from_snapshot(b, "k", PtaConfig::default(), RunCtx::disabled())
        };
        assert!(
            restore(&resealed.finish()).is_none(),
            "a structurally invalid graph must not restore"
        );
        let got = restore(&bytes)
            .expect("the untampered file restores")
            .query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        assert_eq!(got.stmts, want.stmts);
    }

    #[test]
    fn snapshot_rejects_a_points_to_result_naming_methods_the_program_lacks() {
        // A checksum-valid file whose `pta`, `streams` and graph sections
        // come from javac and whose other sections come from a one-method
        // program, re-sealed: the solve names methods the program lacks.
        let javac = thinslice_suite::benchmark_named("javac").unwrap();
        let mut donor = AnalysisSession::new(&javac.sources).unwrap();
        donor.ci_graph();
        let donor = donor.write_snapshot("k").unwrap();
        let src = "class Main { static void main() {\nint x = 1;\nprint(x);\n} }";
        let mut small = AnalysisSession::new(&[("t.mj", src)]).unwrap();
        small.ci_graph();
        let small = small.write_snapshot("k").unwrap();
        let open = |b| SnapshotReader::open(b, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).unwrap();
        let (from_donor, from_small) = (open(&donor), open(&small));
        let mut resealed = SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "k");
        for name in from_small.section_names() {
            let from = match name {
                "pta" | "streams" | "ci_csr" => &from_donor,
                _ => &from_small,
            };
            resealed.section(name, from.section(name).unwrap().to_vec());
        }
        let restore = |b: &[u8]| {
            AnalysisSession::from_snapshot(b, "k", PtaConfig::default(), RunCtx::disabled())
        };
        assert!(restore(&resealed.finish()).is_none());
        assert!(restore(&small).is_some(), "the untampered file restores");
    }

    #[test]
    fn snapshot_rejects_a_graph_naming_statements_the_program_lacks() {
        // A checksum-valid file holding a one-method program's sections
        // around javac's `ci_csr`, re-sealed: the graph decodes, but most
        // of its statements name methods the program lacks, and rendering
        // an answer would index past the program.
        let javac = thinslice_suite::benchmark_named("javac").unwrap();
        let mut donor = AnalysisSession::new(&javac.sources).unwrap();
        donor.ci_graph();
        let donor = donor.write_snapshot("k").unwrap();
        let src = "class Main { static void main() {\nint x = 1;\nprint(x);\n} }";
        let mut small = AnalysisSession::new(&[("t.mj", src)]).unwrap();
        small.ci_graph();
        let methods = small.program().methods.len();
        let small = small.write_snapshot("k").unwrap();
        let open = |b| SnapshotReader::open(b, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).unwrap();
        let (from_donor, from_small) = (open(&donor), open(&small));
        let graph = from_donor.section("ci_csr").unwrap();
        let decoded = decode_section(graph, thinslice_sdg::snap::decode_frozen).unwrap();
        assert!(
            decoded
                .stmt_table()
                .iter()
                .any(|s| s.method.index() >= methods),
            "the donor graph names methods past the small program's"
        );
        let mut resealed = SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "k");
        for name in from_small.section_names() {
            let from = if name == "ci_csr" {
                &from_donor
            } else {
                &from_small
            };
            resealed.section(name, from.section(name).unwrap().to_vec());
        }
        let restore = |b: &[u8]| {
            AnalysisSession::from_snapshot(b, "k", PtaConfig::default(), RunCtx::disabled())
        };
        assert!(restore(&resealed.finish()).is_none());
        assert!(restore(&small).is_some(), "the untampered file restores");
    }

    #[test]
    fn snapshot_rejects_graph_sections_of_the_wrong_heap_mode() {
        // A checksum-valid javac file with its `ci_csr` and `cs_csr`
        // sections swapped, re-sealed: both graphs decode, and each would
        // answer the other engine's queries without any error.
        let javac = thinslice_suite::benchmark_named("javac").unwrap();
        let mut s = AnalysisSession::new(&javac.sources).unwrap();
        s.ci_graph();
        s.cs_graph();
        let bytes = s.write_snapshot("k").unwrap();
        let snap = SnapshotReader::open(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).unwrap();
        let mut resealed = SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "k");
        for name in snap.section_names() {
            let from = match name {
                "ci_csr" => "cs_csr",
                "cs_csr" => "ci_csr",
                other => other,
            };
            let payload = snap.section(from).unwrap();
            if from != name {
                let graph = decode_section(payload, thinslice_sdg::snap::decode_frozen)
                    .expect("the moved graph decodes");
                let mode = match name {
                    "ci_csr" => HeapMode::Parameters,
                    _ => HeapMode::DirectEdges,
                };
                assert_eq!(graph.mode(), mode, "{name}");
            }
            resealed.section(name, payload.to_vec());
        }
        let restore = |b: &[u8]| {
            AnalysisSession::from_snapshot(b, "k", PtaConfig::default(), RunCtx::disabled())
        };
        assert!(restore(&resealed.finish()).is_none());
        assert!(restore(&bytes).is_some(), "the untampered file restores");
    }

    #[test]
    fn snapshot_declines_truncated_stages() {
        let mut s = full_session();
        assert!(s.write_snapshot("k").is_some());
        s.pta.as_mut().unwrap().1 = Completeness::Truncated {
            reason: crate::ExhaustReason::StepQuota,
            frontier: 1,
        };
        assert!(
            s.write_snapshot("k").is_none(),
            "a truncated stage must be rebuilt, not persisted"
        );
    }

    #[test]
    fn update_after_restore_matches_fresh() {
        let s = full_session();
        let bytes = s.write_snapshot("k").unwrap();
        let mut restored =
            AnalysisSession::from_snapshot(&bytes, "k", PtaConfig::default(), RunCtx::disabled())
                .unwrap();
        // Body-only edit on the restored session: the retained
        // fingerprints must drive the same incremental path a live
        // session takes, and the answers must match a fresh build.
        let edited = SRC.replace("print(got);", "Object extra = b.take();\nprint(got);");
        let stats = restored.update(&[("t.mj", &edited)]).unwrap();
        assert!(!stats.structural && !stats.undiffed, "{stats:?}");
        assert_matches_fresh(&mut restored, &edited, 10);
    }

    #[test]
    fn snapshot_store_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("tsnap-test-{}", std::process::id()));
        let store = crate::snapshot::SnapshotStore::new(&dir);
        let mut s = full_session();
        let key = "0123456789abcdef";
        assert!(store
            .load(key, PtaConfig::default(), RunCtx::disabled())
            .is_none());
        let size = store.save(&s, key).expect("save succeeds");
        assert!(size > 0 && store.path(key).exists());
        let mut restored = store
            .load(key, PtaConfig::default(), RunCtx::disabled())
            .expect("load succeeds");
        assert_sessions_identical(&mut restored, &mut s, 10);
        assert!(store.invalidate(key));
        assert!(!store.path(key).exists());
        assert!(store
            .load(key, PtaConfig::default(), RunCtx::disabled())
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_estimate_counts_solved_and_cached_state() {
        let s = full_session();
        // The old estimator: program statements plus graph nodes/edges
        // only. Solved points-to sets, constraint streams, and per-method
        // SDG artifacts were invisible to the eviction watermark.
        let mut csr_only = s.program.all_stmts().count();
        for csr in s.graphs() {
            csr_only += csr.node_count() + csr.edge_count();
        }
        let full = s.resident_estimate();
        assert!(
            full > csr_only,
            "solved+cached state must register: {full} vs {csr_only}"
        );
        let (pta, _) = s.pta.as_ref().unwrap();
        assert!(pta.resident_estimate() > 0);
        assert!(s.gen_cache.resident_estimate() > 0);
        assert!(s.sdg_cache.resident_estimate() > 0);
    }

    /// Reference for the line index: a scan over every statement of the
    /// program.
    fn scan_stmts_at_line(p: &Program, file: &str, line: u32) -> Vec<StmtRef> {
        p.all_stmts()
            .filter(|s| {
                let span = p.instr(*s).span;
                !span.is_synthetic() && span.line == line && p.files[span.file].name == file
            })
            .collect()
    }

    /// Asserts that the caches a warm request reads agree with
    /// recomputation: the stored resident estimate with a fresh count, and
    /// every line's statements (and, once the CI graph is frozen, its
    /// seeds) with a full scan. Never forces a stage.
    fn assert_caches_fresh(s: &mut AnalysisSession, at: &str) {
        assert_eq!(
            s.resident_estimate(),
            s.count_resident(),
            "resident estimate after {at}"
        );
        let files: Vec<(String, u32)> = s
            .program
            .files
            .iter()
            .map(|f| (f.name.clone(), f.text().lines().count() as u32))
            .collect();
        for (file, lines) in &files {
            for line in 0..=lines + 1 {
                let scan = scan_stmts_at_line(&s.program, file, line);
                assert_eq!(
                    s.stmts_at_line(file, line),
                    scan,
                    "{file}:{line} after {at}"
                );
                if let Some(&st) = scan.first() {
                    let slot = s.program.line_slot(s.program.instr(st).span).unwrap();
                    let f = s.program.files.iter().find(|f| f.name == *file).unwrap();
                    let text = f.text().lines().nth(line as usize - 1).unwrap().trim();
                    assert_eq!(
                        &*s.program.source_line(slot),
                        format!("{file}:{line}: {text}"),
                        "rendered {file}:{line} after {at}"
                    );
                }
                let Some((csr, _)) = &s.ci else { continue };
                let reachable: Vec<StmtRef> = scan
                    .into_iter()
                    .filter(|st| csr.stmt_node(*st).is_some())
                    .collect();
                let want = (!reachable.is_empty()).then_some(reachable);
                assert_eq!(
                    s.seed_at_line(file, line),
                    want,
                    "seed {file}:{line} after {at}"
                );
            }
        }
    }

    #[test]
    fn resident_estimate_and_line_index_track_every_stage_transition() {
        use thinslice_suite::edits::EditScript;
        fn refs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
            sources
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect()
        }
        /// A CS query of `kind` from the first print the CS graph reaches;
        /// answering it builds the kind's summary graph.
        fn cs_query(s: &mut AnalysisSession, kind: SliceKind) -> Query {
            s.ensure_cs();
            let graph = s.cs.as_ref().expect("cs ensured");
            let print = (s.program.all_stmts())
                .find(|&st| {
                    matches!(
                        s.program.instr(st).kind,
                        thinslice_ir::InstrKind::Print { .. }
                    ) && graph.stmt_node(st).is_some()
                })
                .expect("a reachable print");
            Query::new(vec![print], kind, Engine::Cs)
        }
        // Which update paths the edit scripts reached: no-op, body edit,
        // structural, undiffed.
        let mut paths = [false; 4];
        // Summary graphs dropped by edits that changed the CS graph.
        let mut dropped = 0;
        let mut record = |stats: &UpdateStats| {
            let path = if stats.noop {
                0
            } else if stats.undiffed {
                3
            } else if stats.structural {
                2
            } else {
                1
            };
            paths[path] = true;
        };
        for (name, seed) in [("jess", 3), ("mtrt", 11)] {
            let bench = thinslice_suite::benchmark_named(name).unwrap();
            let mut sources: Vec<(String, String)> = bench
                .sources
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect();
            let mut s = AnalysisSession::new(&refs(&sources)).unwrap();
            assert_caches_fresh(&mut s, "new");
            s.pta();
            assert_caches_fresh(&mut s, "pta");
            s.ci_graph();
            assert_caches_fresh(&mut s, "ci_graph");
            s.cs_graph();
            assert_caches_fresh(&mut s, "cs_graph");
            let before = s.resident_estimate();
            let q = cs_query(&mut s, SliceKind::Thin);
            s.query(&q);
            assert!(s.resident_estimate() > before, "the summary graph counts");
            assert_caches_fresh(&mut s, "cs query");
            let before = s.resident_estimate();
            let q = cs_query(&mut s, SliceKind::TraditionalData);
            s.query_batch(&[q.clone(), q], 1);
            assert!(
                s.resident_estimate() > before,
                "a batch's summary graph counts"
            );
            assert_caches_fresh(&mut s, "cs batch");

            // A blank first line shifts every line of the file without
            // changing the program: the no-op path must still re-key seeds.
            sources[0].1.insert(0, '\n');
            let stats = s.update(&refs(&sources)).unwrap();
            assert!(stats.noop);
            record(&stats);
            assert_caches_fresh(&mut s, "whitespace update");
            let mut script = EditScript::new(seed);
            for step in 0..10 {
                let (edited, edit) = script.step(&sources);
                sources = edited;
                let stats = s.update(&refs(&sources)).unwrap();
                record(&stats);
                dropped += stats.memo_entries_invalidated;
                let at = format!("{name} edit {step} ({})", edit.kind.label());
                assert_caches_fresh(&mut s, &at);
                let q = cs_query(&mut s, SliceKind::Thin);
                s.query(&q);
                assert_caches_fresh(&mut s, &format!("{at}, then a cs query"));
            }

            // Restore, then edit.
            let bytes = s.write_snapshot("k").expect("complete stages");
            let mut r = AnalysisSession::from_snapshot(
                &bytes,
                "k",
                PtaConfig::default(),
                RunCtx::disabled(),
            )
            .expect("snapshot restores");
            assert_caches_fresh(&mut r, "from_snapshot");
            let (edited, _) = script.step(&sources);
            record(&r.update(&refs(&edited)).unwrap());
            assert_caches_fresh(&mut r, "update after restore");

            // Without retained fingerprints the first update is undiffed.
            let program = r.program().clone();
            let mut u =
                AnalysisSession::from_program(program, PtaConfig::default(), RunCtx::disabled());
            assert_caches_fresh(&mut u, "from_program");
            u.ci_graph();
            record(&u.update(&refs(&sources)).unwrap());
            assert_caches_fresh(&mut u, "undiffed update");
        }
        assert_eq!(paths, [true; 4], "no-op, body, structural, undiffed");
        assert!(dropped > 0, "no edit dropped a summary graph");
    }

    #[test]
    fn governed_cs_query_degrades_to_ci() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let tight = QueryPolicy {
            budget: Some(Budget::unlimited().with_step_limit(1)),
            degrade: true,
        };
        let out = s.query(
            &Query::new(seeds.clone(), SliceKind::Thin, Engine::Cs).with_policy(tight.clone()),
        );
        assert!(out.degraded, "a one-step CS budget must degrade");
        assert_eq!(out.engine, Engine::Ci);
        let no_ladder = QueryPolicy {
            degrade: false,
            ..tight
        };
        let out = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs).with_policy(no_ladder));
        assert!(!out.degraded);
        assert_eq!(out.engine, Engine::Cs);
        assert!(!out.completeness.is_complete());
    }
}
