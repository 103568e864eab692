//! Slicing benchmark: sequential vs batched queries on the Table 2 workload.
//!
//! Hand-rolled harness (`harness = false`; the build must work offline, so
//! no external benchmark crates). Run with `cargo bench -p thinslice-bench`.
//!
//! For every benchmark that appears in the Table 2 debugging tasks, the
//! harness measures:
//!
//! * **build** — compile + pointer analysis + CI SDG construction, and the
//!   CSR freeze on top;
//! * **per-slicer query time** — for each of the four slicer variants
//!   (thin, traditional-data, traditional-full, context-sensitive thin):
//!   - `seq`: `AnalysisSession::query`, one query at a time on a warm
//!     session (graphs, summary graphs and scratch reused),
//!   - `batch`: `AnalysisSession::query_batch` over all the seeds at once
//!     on the same session;
//! * **throughput** — slices/sec for `seq` vs `batch`.
//!
//! Every batched result is asserted equal to its sequential counterpart
//! before any number is reported. Results go to stdout as a table and to
//! `BENCH_slicing.json` at the repository root as machine-readable JSON.

use std::fmt::Write as _;
use std::time::Instant;
use thinslice::{AnalysisSession, Engine, Query, QueryOutcome, RunCtx, SliceKind, StmtSet};
use thinslice_ir::StmtRef;
use thinslice_pta::PtaConfig;
use thinslice_sdg::{build_ci, DepGraph};
use thinslice_suite::{
    all_bug_tasks, benchmark_named, generate, line_with, Benchmark, GeneratorConfig,
};
use thinslice_util::{par, Histogram};

/// Timing rounds per measurement; the median over rounds is reported.
const ROUNDS: usize = 25;
/// Untimed warm-up runs before the rounds (caches, lazy allocations).
const WARMUP: usize = 2;
/// Thread counts exercised by the scaling matrix.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Rounds for the thread matrix and the synthetic workload: each round
/// runs a whole multi-query batch, so fewer rounds give a stable median.
const MATRIX_ROUNDS: usize = 9;
/// Seed queries in the synthetic stress workload.
const SYNTHETIC_QUERIES: usize = 100_000;
/// Slice requests per round in the server-throughput measurement.
const SERVER_REQUESTS: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slicer {
    Thin,
    Data,
    Full,
    CsThin,
}

impl Slicer {
    const ALL: [Slicer; 4] = [Slicer::Thin, Slicer::Data, Slicer::Full, Slicer::CsThin];

    fn name(self) -> &'static str {
        match self {
            Slicer::Thin => "thin",
            Slicer::Data => "traditional-data",
            Slicer::Full => "traditional-full",
            Slicer::CsThin => "cs-thin",
        }
    }

    /// This slicer's query from `seeds`.
    fn query(self, seeds: Vec<StmtRef>) -> Query {
        match self {
            Slicer::Thin => Query::new(seeds, SliceKind::Thin, Engine::Ci),
            Slicer::Data => Query::new(seeds, SliceKind::TraditionalData, Engine::Ci),
            Slicer::Full => Query::new(seeds, SliceKind::TraditionalFull, Engine::Ci),
            Slicer::CsThin => Query::new(seeds, SliceKind::Thin, Engine::Cs),
        }
    }
}

struct SlicerResult {
    slicer: Slicer,
    queries: usize,
    seq_mean_us: f64,
    batch_mean_us: f64,
    seq_total_s: f64,
    batch_total_s: f64,
}

struct BenchResult {
    name: String,
    build_ms: f64,
    freeze_ms: f64,
    nodes: usize,
    edges: usize,
    slicers: Vec<SlicerResult>,
}

/// Median seconds per run of each of `configs` configurations — `run(i)`
/// runs configuration `i` once — measured in interleaved rounds: every
/// round times each configuration once, back to back, after [`WARMUP`]
/// untimed rounds. Interleaving means machine-load drift hits all
/// configurations alike instead of biasing whichever happened to run
/// during a busy stretch, and the median discards the rounds a scheduler
/// preemption inflated — both matter for microsecond-scale measurements
/// on a shared single-core machine.
fn time_interleaved(configs: usize, mut run: impl FnMut(usize), n_rounds: usize) -> Vec<f64> {
    for _ in 0..WARMUP {
        for i in 0..configs {
            run(i);
        }
    }
    // Samples go through the telemetry histogram so the percentile math
    // here is the same nearest-rank implementation the run reports use.
    let mut rounds: Vec<Histogram> = (0..configs).map(|_| Histogram::new()).collect();
    for _ in 0..n_rounds {
        for (i, h) in rounds.iter_mut().enumerate() {
            let start = Instant::now();
            run(i);
            h.record(start.elapsed().as_secs_f64());
        }
    }
    rounds.iter().map(Histogram::median).collect()
}

fn stmt_sets(outcomes: &[QueryOutcome]) -> Vec<StmtSet> {
    outcomes
        .iter()
        .map(|o| {
            let s = o.slice.as_ref().expect("an ungoverned batch never fails");
            s.stmts.clone()
        })
        .collect()
}

/// The seed statements of the Table 2 tasks of one benchmark.
fn table2_seeds(b: &Benchmark, s: &AnalysisSession) -> Vec<Vec<StmtRef>> {
    all_bug_tasks()
        .iter()
        .filter(|t| t.benchmark == b.name)
        .map(|t| {
            let src = b
                .sources
                .iter()
                .find(|(f, _)| *f == t.seed.file)
                .expect("seed file");
            s.stmts_at_line(t.seed.file, line_with(src.1, t.seed.snippet))
        })
        .collect()
}

fn run_benchmark(name: &str, threads: usize) -> BenchResult {
    let b = benchmark_named(name).expect("benchmark exists");

    // Compile → points-to → CI build → freeze, then one more freeze alone,
    // of a CI graph built outside the timer.
    let t0 = Instant::now();
    let program = thinslice_ir::compile(&b.sources).expect("benchmark compiles");
    let mut built =
        AnalysisSession::from_program(program, PtaConfig::default(), RunCtx::disabled());
    built.ci_graph();
    let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let (program, pta, _) = built.ci_parts();
    let sdg = build_ci(program, pta);
    let t1 = Instant::now();
    let frozen = sdg.freeze();
    let freeze_ms = t1.elapsed().as_secs_f64() * 1000.0;

    let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
    let seeds = table2_seeds(&b, &session);
    let n = seeds.len();
    let mut slicers = Vec::new();
    for slicer in Slicer::ALL {
        let queries: Vec<Query> = seeds.iter().map(|s| slicer.query(s.clone())).collect();
        let seq: Vec<StmtSet> = queries.iter().map(|q| session.query(q).stmts).collect();
        assert_eq!(
            seq,
            stmt_sets(&session.query_batch(&queries, threads)),
            "{name}/{}: batch must equal sequential (order included)",
            slicer.name()
        );
        let t = time_interleaved(
            2,
            |i| {
                if i == 0 {
                    for q in &queries {
                        std::hint::black_box(session.query(q));
                    }
                } else {
                    std::hint::black_box(session.query_batch(&queries, threads));
                }
            },
            ROUNDS,
        );
        let (seq_total_s, batch_total_s) = (t[0], t[1]);
        slicers.push(SlicerResult {
            slicer,
            queries: n,
            seq_mean_us: seq_total_s / n as f64 * 1e6,
            batch_mean_us: batch_total_s / n as f64 * 1e6,
            seq_total_s,
            batch_total_s,
        });
    }

    BenchResult {
        name: name.to_string(),
        build_ms,
        freeze_ms,
        nodes: frozen.node_count(),
        edges: frozen.edge_count(),
        slicers,
    }
}

/// One benchmark's warm session and its Table 2 queries for all four
/// slicers, kept alive for the thread matrix.
struct MatrixBench {
    session: AnalysisSession,
    queries: Vec<Query>,
}

/// Builds the full Table 2 workload once (all benchmarks, all four
/// slicers) so the thread matrix can re-batch it at every thread count
/// without re-running the analysis pipeline.
fn matrix_workload(names: &[&'static str]) -> Vec<MatrixBench> {
    names
        .iter()
        .map(|name| {
            let b = benchmark_named(name).expect("benchmark exists");
            let session = b.session(PtaConfig::default(), RunCtx::disabled());
            let seeds = table2_seeds(&b, &session);
            let queries = Slicer::ALL
                .iter()
                .flat_map(|&slicer| seeds.iter().map(move |s| slicer.query(s.clone())))
                .collect();
            MatrixBench { session, queries }
        })
        .collect()
}

/// Runs every benchmark's batch at `threads`.
fn run_matrix_batches(benches: &mut [MatrixBench], threads: usize) -> Vec<QueryOutcome> {
    let mut out = Vec::new();
    for b in benches {
        out.extend(b.session.query_batch(&b.queries, threads));
    }
    out
}

/// Batch throughput of the Table 2 workload at each thread count, with
/// every thread count's results asserted bit-identical to single-threaded.
fn thread_matrix(benches: &mut [MatrixBench]) -> Vec<(usize, f64)> {
    let queries: usize = benches.iter().map(|b| b.queries.len()).sum();
    let base = stmt_sets(&run_matrix_batches(benches, 1));
    for &t in &THREAD_COUNTS[1..] {
        let got = stmt_sets(&run_matrix_batches(benches, t));
        assert_eq!(base, got, "threads={t}");
    }
    let totals = time_interleaved(
        THREAD_COUNTS.len(),
        |i| {
            std::hint::black_box(run_matrix_batches(benches, THREAD_COUNTS[i]));
        },
        MATRIX_ROUNDS,
    );
    THREAD_COUNTS
        .iter()
        .zip(totals)
        .map(|(&t, s)| (t, queries as f64 / s.max(1e-12)))
        .collect()
}

struct SyntheticResult {
    nodes: usize,
    edges: usize,
    queries: usize,
    /// (threads, batch slices/sec).
    rows: Vec<(usize, f64)>,
}

/// A generated large-program stress workload: every statement of a
/// generator-built program becomes a seed, tiled to
/// [`SYNTHETIC_QUERIES`] thin-slice queries over the frozen CI graph.
fn run_synthetic() -> SyntheticResult {
    let src = generate(&GeneratorConfig::scaled(2));
    let mut session =
        AnalysisSession::new(&[("gen.mj", &src)]).expect("generated program compiles");
    let stmts: Vec<StmtRef> = session.program().all_stmts().collect();
    let graph = session.ci_graph();
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let seeds: Vec<Query> = stmts
        .into_iter()
        .filter(|&s| !graph.stmt_nodes_of(s).is_empty())
        .map(|s| Query::new(vec![s], SliceKind::Thin, Engine::Ci))
        .collect();
    assert!(!seeds.is_empty());
    let queries: Vec<Query> = seeds
        .iter()
        .cycle()
        .take(SYNTHETIC_QUERIES)
        .cloned()
        .collect();

    // Determinism across the matrix before anything is timed.
    let base = stmt_sets(&session.query_batch(&queries, 1));
    for &t in &THREAD_COUNTS[1..] {
        let got = stmt_sets(&session.query_batch(&queries, t));
        assert_eq!(base, got, "synthetic threads={t}");
    }

    let totals = time_interleaved(
        THREAD_COUNTS.len(),
        |i| {
            std::hint::black_box(session.query_batch(&queries, THREAD_COUNTS[i]));
        },
        MATRIX_ROUNDS,
    );
    SyntheticResult {
        nodes,
        edges,
        queries: SYNTHETIC_QUERIES,
        rows: THREAD_COUNTS
            .iter()
            .zip(totals)
            .map(|(&t, s)| (t, SYNTHETIC_QUERIES as f64 / s.max(1e-12)))
            .collect(),
    }
}

struct IncrementalResult {
    benchmarks: usize,
    /// Median ms for a from-scratch rebuild + one warm thin CI slice.
    full_rebuild_ms: f64,
    /// Median ms for `AnalysisSession::update` + the same slice.
    update_ms: f64,
    /// full_rebuild_ms / update_ms — the edit-sized-invalidation payoff.
    speedup: f64,
}

fn owned_sources(b: &Benchmark) -> Vec<(String, String)> {
    b.sources
        .iter()
        .map(|(n, t)| ((*n).to_string(), (*t).to_string()))
        .collect()
}

fn as_refs(v: &[(String, String)]) -> Vec<(&str, &str)> {
    v.iter().map(|(n, t)| (n.as_str(), t.as_str())).collect()
}

fn first_print_seed(s: &thinslice::AnalysisSession) -> thinslice_ir::StmtRef {
    let program = s.program();
    program
        .all_stmts()
        .find(|st| {
            matches!(
                program.instr(*st).kind,
                thinslice_ir::InstrKind::Print { .. }
            )
        })
        .expect("benchmark has a print statement")
}

fn thin_ci(s: &mut thinslice::AnalysisSession) -> thinslice::StmtSet {
    use thinslice::{Engine, Query};
    let seed = first_print_seed(s);
    s.query(&Query::new(vec![seed], SliceKind::Thin, Engine::Ci))
        .stmts
}

/// Edit-to-answer latency: for each Table 2 benchmark, toggle a warm
/// session between two versions differing by one integer literal (the
/// canonical single-method body edit) and time `update` + one thin CI
/// slice, against building a fresh session + the same slice. Both paths
/// are asserted bit-identical before anything is timed. Rounds pool
/// across benchmarks; the medians are per-edit latencies.
fn run_incremental(names: &[&'static str]) -> IncrementalResult {
    use thinslice::AnalysisSession;
    use thinslice_suite::edits::tweak_first_int;

    let (mut full, mut upd) = (Histogram::new(), Histogram::new());
    let mut benchmarks = 0usize;
    for &name in names {
        let b = benchmark_named(name).expect("table2 benchmark exists");
        let v0: Vec<(String, String)> = owned_sources(&b);
        let mut v1 = v0.clone();
        v1[0].1 = tweak_first_int(&v0[0].1).expect("benchmark has an int literal");
        benchmarks += 1;

        // Correctness before timing: updated ≡ fresh on the edit.
        let mut live = AnalysisSession::new(&as_refs(&v0)).expect("compiles");
        let _ = thin_ci(&mut live);
        live.update(&as_refs(&v1)).expect("update compiles");
        let mut fresh = AnalysisSession::new(&as_refs(&v1)).expect("compiles");
        assert_eq!(
            thin_ci(&mut live),
            thin_ci(&mut fresh),
            "{name}: update ≡ rebuild"
        );

        for round in 0..(WARMUP + ROUNDS) {
            // Alternate the edit direction so every round is a real edit.
            let target = if round % 2 == 0 { &v0 } else { &v1 };
            let refs = as_refs(target);

            let start = Instant::now();
            live.update(&refs).expect("update compiles");
            std::hint::black_box(thin_ci(&mut live));
            let t_upd = start.elapsed().as_secs_f64();

            let start = Instant::now();
            let mut scratch = AnalysisSession::new(&refs).expect("compiles");
            std::hint::black_box(thin_ci(&mut scratch));
            let t_full = start.elapsed().as_secs_f64();

            if round >= WARMUP {
                upd.record(t_upd);
                full.record(t_full);
            }
        }
    }
    let (full_s, upd_s) = (full.median().max(1e-12), upd.median().max(1e-12));
    IncrementalResult {
        benchmarks,
        full_rebuild_ms: full_s * 1e3,
        update_ms: upd_s * 1e3,
        speedup: full_s / upd_s,
    }
}

struct SnapshotResult {
    /// Benchmarks whose restored sessions were asserted bit-identical.
    benchmarks_verified: usize,
    /// The benchmark the timed rows ran on (the largest table2 program).
    benchmark: &'static str,
    /// Median ms for a from-scratch build + one thin CI slice.
    cold_build_ms: f64,
    /// Median ms for serialising the forced session to snapshot bytes.
    write_ms: f64,
    /// Median ms for restoring from those bytes + the same slice.
    restore_ms: f64,
    /// Size of the persisted snapshot, in bytes.
    snapshot_bytes: usize,
    /// cold_build_ms / restore_ms — the warm-start payoff.
    restore_speedup: f64,
}

/// Warm-start payoff: restoring an [`AnalysisSession`] from its binary
/// snapshot vs rebuilding it from source. Before anything is timed,
/// every table2 benchmark is round-tripped through
/// `write_snapshot`/`from_snapshot` and the restored session is
/// asserted bit-identical to a fresh build across all four slicer
/// variants. The timed rows then run on the largest benchmark: a cold
/// build + one thin CI slice, the snapshot write, and a restore + the
/// same slice (the snapshot holds exactly the stages the cold path
/// builds, so the comparison is stage-for-stage fair).
///
/// The verification sweep covers every suite benchmark — all eight,
/// not just the four that carry Table 2 bug tasks — because snapshot
/// fidelity is a whole-pipeline property, not a workload one.
///
/// [`AnalysisSession`]: thinslice::AnalysisSession
fn run_snapshot() -> SnapshotResult {
    use thinslice::{source_hash, AnalysisSession, Engine, Query, RunCtx};
    use thinslice_suite::all_benchmarks;

    const COMBOS: [(SliceKind, Engine); 4] = [
        (SliceKind::Thin, Engine::Ci),
        (SliceKind::TraditionalData, Engine::Ci),
        (SliceKind::TraditionalFull, Engine::Ci),
        (SliceKind::Thin, Engine::Cs),
    ];

    let mut benchmarks_verified = 0usize;
    for b in all_benchmarks() {
        let name = b.name;
        let sources = owned_sources(&b);
        let refs = as_refs(&sources);
        let key = source_hash(&refs);
        let mut fresh = AnalysisSession::new(&refs).expect("compiles");
        let seed = first_print_seed(&fresh);
        let want: Vec<thinslice::StmtSet> = COMBOS
            .iter()
            .map(|&(kind, engine)| fresh.query(&Query::new(vec![seed], kind, engine)).stmts)
            .collect();
        let bytes = fresh
            .write_snapshot(&key)
            .expect("complete session snapshots");
        let mut warm =
            AnalysisSession::from_snapshot(&bytes, &key, PtaConfig::default(), RunCtx::disabled())
                .expect("snapshot restores");
        for (&(kind, engine), want) in COMBOS.iter().zip(&want) {
            assert_eq!(
                &warm.query(&Query::new(vec![seed], kind, engine)).stmts,
                want,
                "{name}: snapshot-restored ≡ fresh ({kind:?}/{engine:?})"
            );
        }
        benchmarks_verified += 1;
    }

    // Time on javac, the largest benchmark and the acceptance target.
    let name = "javac";
    let b = benchmark_named(name).expect("benchmark exists");
    let sources = owned_sources(&b);
    let refs = as_refs(&sources);
    let key = source_hash(&refs);

    // The donor holds exactly the stages the cold path builds (program,
    // points-to, CI SDG + CSR), so restore and cold build are
    // stage-for-stage comparable.
    let mut donor = AnalysisSession::new(&refs).expect("compiles");
    let _ = thin_ci(&mut donor);
    let snapshot_bytes = donor.write_snapshot(&key).expect("snapshots").len();

    let (mut cold, mut write, mut restore) = (Histogram::new(), Histogram::new(), Histogram::new());
    for round in 0..(WARMUP + ROUNDS) {
        let start = Instant::now();
        let mut scratch = AnalysisSession::new(&refs).expect("compiles");
        std::hint::black_box(thin_ci(&mut scratch));
        let t_cold = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let bytes = std::hint::black_box(donor.write_snapshot(&key).expect("snapshots"));
        let t_write = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut warm =
            AnalysisSession::from_snapshot(&bytes, &key, PtaConfig::default(), RunCtx::disabled())
                .expect("snapshot restores");
        std::hint::black_box(thin_ci(&mut warm));
        let t_restore = start.elapsed().as_secs_f64();

        if round >= WARMUP {
            cold.record(t_cold);
            write.record(t_write);
            restore.record(t_restore);
        }
    }
    let (cold_s, write_s, restore_s) = (
        cold.median().max(1e-12),
        write.median().max(1e-12),
        restore.median().max(1e-12),
    );
    SnapshotResult {
        benchmarks_verified,
        benchmark: name,
        cold_build_ms: cold_s * 1e3,
        write_ms: write_s * 1e3,
        restore_ms: restore_s * 1e3,
        snapshot_bytes,
        restore_speedup: cold_s / restore_s,
    }
}

struct ServerResult {
    requests: usize,
    requests_per_sec: f64,
}

struct ObservabilityResult {
    requests: usize,
    recorder_on_rps: f64,
    recorder_off_rps: f64,
    /// Flight-recorder cost on the warm request path, in percent of the
    /// recorder-off round time (positive = recording is slower).
    overhead_pct: f64,
}

/// The warm-session serve script: one `load` plus [`SERVER_REQUESTS`]
/// thin-slice requests by program hash, then `shutdown`. After the first
/// request the session is warm and the graph build is amortised across
/// the round.
fn server_script() -> String {
    use thinslice_serve::protocol::SourceFile;

    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    let b = benchmark_named("nanoxml").expect("benchmark exists");
    let files: Vec<SourceFile> = b
        .sources
        .iter()
        .map(|(n, t)| SourceFile {
            name: n.to_string(),
            text: t.to_string(),
        })
        .collect();
    let hash = thinslice_serve::pool::program_hash(&files);
    let seeds: Vec<(String, u32)> = all_bug_tasks()
        .iter()
        .filter(|t| t.benchmark == b.name)
        .map(|t| {
            let src = b
                .sources
                .iter()
                .find(|(f, _)| *f == t.seed.file)
                .expect("seed file");
            (t.seed.file.to_string(), line_with(src.1, t.seed.snippet))
        })
        .collect();
    assert!(!seeds.is_empty());

    let mut script = String::from("{\"op\":\"load\",\"sources\":[");
    for (i, f) in files.iter().enumerate() {
        if i > 0 {
            script.push(',');
        }
        let _ = write!(
            script,
            "{{\"name\":\"{}\",\"text\":\"{}\"}}",
            esc(&f.name),
            esc(&f.text)
        );
    }
    script.push_str("]}\n");
    for i in 0..SERVER_REQUESTS {
        let (file, line) = &seeds[i % seeds.len()];
        let _ = writeln!(
            script,
            "{{\"op\":\"slice\",\"id\":{i},\"program\":\"{hash}\",\
             \"seed\":{{\"file\":\"{}\",\"line\":{line}}}}}",
            esc(file)
        );
    }
    script.push_str("{\"op\":\"shutdown\"}\n");
    script
}

/// One timed pass of `script` through a fresh in-process server. The time
/// measured is the full request path — line parsing, admission,
/// scheduling, query, response serialization.
fn server_round(script: &str, cfg: thinslice_serve::ServeConfig) -> f64 {
    use thinslice_serve::{shared_out, Server};
    let server = Server::new(cfg);
    let out = shared_out(std::io::sink());
    let start = Instant::now();
    let summary = server.serve(std::io::Cursor::new(script.as_bytes()), out);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(summary.errors, 0, "server round must be error-free");
    assert_eq!(summary.served as usize, SERVER_REQUESTS + 2);
    elapsed
}

/// Whole-daemon throughput of `thinslice-serve` on the Table 2 workload
/// under the default configuration (flight recorder on).
fn run_server_throughput(script: &str) -> ServerResult {
    let mut h = Histogram::new();
    for round in 0..(WARMUP + MATRIX_ROUNDS) {
        let elapsed = server_round(script, thinslice_serve::ServeConfig::default());
        if round >= WARMUP {
            h.record(elapsed);
        }
    }
    ServerResult {
        requests: SERVER_REQUESTS,
        requests_per_sec: SERVER_REQUESTS as f64 / h.median().max(1e-12),
    }
}

/// Flight-recorder overhead on the warm serve path: the same script run
/// with the recorder at its default capacity vs disabled
/// (`recorder_capacity: 0`), interleaved round by round so machine-load
/// drift hits both configurations alike.
fn run_observability(script: &str) -> ObservabilityResult {
    use thinslice_serve::ServeConfig;
    let (mut on, mut off) = (Histogram::new(), Histogram::new());
    for round in 0..(WARMUP + MATRIX_ROUNDS) {
        let t_on = server_round(script, ServeConfig::default());
        let t_off = server_round(
            script,
            ServeConfig {
                recorder_capacity: 0,
                ..ServeConfig::default()
            },
        );
        if round >= WARMUP {
            on.record(t_on);
            off.record(t_off);
        }
    }
    let (t_on, t_off) = (on.median().max(1e-12), off.median().max(1e-12));
    ObservabilityResult {
        requests: SERVER_REQUESTS,
        recorder_on_rps: SERVER_REQUESTS as f64 / t_on,
        recorder_off_rps: SERVER_REQUESTS as f64 / t_off,
        overhead_pct: (t_on / t_off - 1.0) * 100.0,
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    results: &[BenchResult],
    threads: usize,
    matrix: &[(usize, f64)],
    synthetic: &SyntheticResult,
    server: &ServerResult,
    obs: &ObservabilityResult,
    incr: &IncrementalResult,
    snap: &SnapshotResult,
) -> String {
    let mut queries = 0usize;
    let mut seq_s = 0.0f64;
    let mut batch_s = 0.0f64;
    for r in results {
        for s in &r.slicers {
            queries += s.queries;
            seq_s += s.seq_total_s;
            batch_s += s.batch_total_s;
        }
    }
    let seq_tput = queries as f64 / seq_s.max(1e-12);
    let batch_tput = queries as f64 / batch_s.max(1e-12);

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"table2-bug-task-seeds\",");
    let _ = writeln!(out, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"build_ms\": {:.3},", r.build_ms);
        let _ = writeln!(out, "      \"freeze_ms\": {:.3},", r.freeze_ms);
        let _ = writeln!(out, "      \"sdg_nodes\": {},", r.nodes);
        let _ = writeln!(out, "      \"sdg_edges\": {},", r.edges);
        out.push_str("      \"slicers\": [\n");
        for (j, s) in r.slicers.iter().enumerate() {
            out.push_str("        {");
            let _ = write!(out, "\"kind\": \"{}\", ", s.slicer.name());
            let _ = write!(out, "\"queries\": {}, ", s.queries);
            let _ = write!(out, "\"seq_mean_us\": {:.3}, ", s.seq_mean_us);
            let _ = write!(out, "\"batch_mean_us\": {:.3}, ", s.batch_mean_us);
            let _ = write!(
                out,
                "\"seq_slices_per_sec\": {:.1}, ",
                s.queries as f64 / s.seq_total_s.max(1e-12)
            );
            let _ = write!(
                out,
                "\"batch_slices_per_sec\": {:.1}, ",
                s.queries as f64 / s.batch_total_s.max(1e-12)
            );
            let _ = write!(
                out,
                "\"batch_speedup\": {:.2}",
                s.seq_total_s / s.batch_total_s.max(1e-12)
            );
            out.push('}');
            out.push_str(if j + 1 < r.slicers.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"aggregate\": {");
    let _ = write!(out, "\"queries\": {queries}, ");
    let _ = write!(out, "\"seq_slices_per_sec\": {seq_tput:.1}, ");
    let _ = write!(out, "\"batch_slices_per_sec\": {batch_tput:.1}, ");
    let _ = write!(
        out,
        "\"batch_speedup\": {:.2}",
        batch_tput / seq_tput.max(1e-12)
    );
    out.push_str("},\n");

    // Batch throughput at each worker count, table2 and synthetic
    // workloads side by side. On a single-core host the columns stay
    // flat — `host_cpus` above says which case a given file records.
    let matrix_base = matrix.first().map_or(1.0, |&(_, tput)| tput);
    let syn_base = synthetic.rows.first().map_or(1.0, |&(_, tput)| tput);
    out.push_str("  \"thread_matrix\": [\n");
    for (i, (&(t, table2_tput), &(_, syn_tput))) in matrix.iter().zip(&synthetic.rows).enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"threads\": {t}, ");
        let _ = write!(out, "\"table2_batch_slices_per_sec\": {table2_tput:.1}, ");
        let _ = write!(
            out,
            "\"table2_speedup_vs_1t\": {:.2}, ",
            table2_tput / matrix_base.max(1e-12)
        );
        let _ = write!(out, "\"synthetic_batch_slices_per_sec\": {syn_tput:.1}, ");
        let _ = write!(
            out,
            "\"synthetic_speedup_vs_1t\": {:.2}",
            syn_tput / syn_base.max(1e-12)
        );
        out.push('}');
        out.push_str(if i + 1 < matrix.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"synthetic\": {");
    let _ = write!(out, "\"workload\": \"generated-scaled-2-thin\", ");
    let _ = write!(out, "\"queries\": {}, ", synthetic.queries);
    let _ = write!(out, "\"sdg_nodes\": {}, ", synthetic.nodes);
    let _ = write!(out, "\"sdg_edges\": {}", synthetic.edges);
    out.push_str("},\n");
    // Warm-session server throughput: the full thinslice-serve request
    // path (parse, admission, query, response) with the graph build
    // amortised across the round's requests by the session pool.
    out.push_str("  \"server\": {");
    let _ = write!(out, "\"workload\": \"serve-warm-session-table2-thin\", ");
    let _ = write!(out, "\"requests\": {}, ", server.requests);
    let _ = write!(out, "\"requests_per_sec\": {:.1}", server.requests_per_sec);
    out.push_str("},\n");
    // Observability-plane cost: the same warm serve rounds with the
    // flight recorder at its default capacity vs disabled.
    out.push_str("  \"observability\": {");
    let _ = write!(out, "\"workload\": \"serve-warm-session-table2-thin\", ");
    let _ = write!(out, "\"requests\": {}, ", obs.requests);
    let _ = write!(
        out,
        "\"recorder_on_requests_per_sec\": {:.1}, ",
        obs.recorder_on_rps
    );
    let _ = write!(
        out,
        "\"recorder_off_requests_per_sec\": {:.1}, ",
        obs.recorder_off_rps
    );
    let _ = write!(out, "\"recorder_overhead_pct\": {:.2}", obs.overhead_pct);
    out.push_str("},\n");
    // Edit-to-answer latency: one-literal body edit through
    // `AnalysisSession::update` vs a from-scratch rebuild, each followed
    // by the same warm thin CI slice (medians pooled over the table2
    // benchmarks).
    out.push_str("  \"incremental\": {");
    let _ = write!(out, "\"workload\": \"table2-single-literal-edit\", ");
    let _ = write!(out, "\"benchmarks\": {}, ", incr.benchmarks);
    let _ = write!(out, "\"full_rebuild_ms\": {:.3}, ", incr.full_rebuild_ms);
    let _ = write!(out, "\"update_ms\": {:.3}, ", incr.update_ms);
    let _ = write!(out, "\"speedup\": {:.2}", incr.speedup);
    out.push_str("},\n");
    // Warm start: cold build + one thin CI slice vs snapshot write and
    // restore + the same slice on the largest table2 benchmark.
    // Restored sessions are asserted bit-identical to fresh builds
    // across every benchmark and slicer before the timed rounds.
    out.push_str("  \"snapshot\": {");
    let _ = write!(out, "\"workload\": \"session-snapshot-warm-start\", ");
    let _ = write!(out, "\"benchmark\": \"{}\", ", snap.benchmark);
    let _ = write!(
        out,
        "\"benchmarks_verified\": {}, ",
        snap.benchmarks_verified
    );
    let _ = write!(out, "\"cold_build_ms\": {:.3}, ", snap.cold_build_ms);
    let _ = write!(out, "\"write_ms\": {:.3}, ", snap.write_ms);
    let _ = write!(out, "\"restore_ms\": {:.3}, ", snap.restore_ms);
    let _ = write!(out, "\"snapshot_bytes\": {}, ", snap.snapshot_bytes);
    let _ = write!(out, "\"restore_speedup\": {:.2}", snap.restore_speedup);
    out.push_str("}\n}\n");
    out
}

fn main() {
    let threads = par::default_threads();
    let mut names: Vec<&'static str> = Vec::new();
    for t in all_bug_tasks() {
        if !names.contains(&t.benchmark) {
            names.push(t.benchmark);
        }
    }

    let mut results = Vec::new();
    for &name in &names {
        eprintln!("benchmarking {name} …");
        let r = run_benchmark(name, threads);
        println!(
            "{:<10} build {:>8.1} ms  freeze {:>6.2} ms  ({} nodes, {} edges)",
            r.name, r.build_ms, r.freeze_ms, r.nodes, r.edges
        );
        for s in &r.slicers {
            println!(
                "  {:<17} {:>2} queries  seq {:>9.1} µs  batch {:>9.1} µs  speedup {:>5.2}x",
                s.slicer.name(),
                s.queries,
                s.seq_mean_us,
                s.batch_mean_us,
                s.seq_total_s / s.batch_total_s.max(1e-12),
            );
        }
        results.push(r);
    }

    eprintln!("thread matrix (table2 workload) …");
    let mut benches = matrix_workload(&names);
    let matrix = thread_matrix(&mut benches);
    eprintln!("synthetic workload ({SYNTHETIC_QUERIES} seeds) …");
    let synthetic = run_synthetic();
    for (&(t, table2_tput), &(_, syn_tput)) in matrix.iter().zip(&synthetic.rows) {
        println!(
            "threads {t}: table2 {:>9.1} slices/s   synthetic {:>11.1} slices/s",
            table2_tput, syn_tput
        );
    }
    eprintln!("server throughput ({SERVER_REQUESTS} warm-session requests) …");
    let script = server_script();
    let server = run_server_throughput(&script);
    println!(
        "server: {:>9.1} requests/s over a warm session",
        server.requests_per_sec
    );
    eprintln!("observability overhead (flight recorder on vs off) …");
    let obs = run_observability(&script);
    println!(
        "observability: recorder on {:>9.1} req/s, off {:>9.1} req/s ({:+.1}% overhead)",
        obs.recorder_on_rps, obs.recorder_off_rps, obs.overhead_pct
    );

    eprintln!("incremental re-analysis (single-literal edits) …");
    let incr = run_incremental(&names);
    println!(
        "incremental: update {:.2} ms vs rebuild {:.2} ms ({:.1}x) over {} benchmarks",
        incr.update_ms, incr.full_rebuild_ms, incr.speedup, incr.benchmarks
    );

    eprintln!("session snapshots (cold build vs warm restore) …");
    let snap = run_snapshot();
    println!(
        "snapshot: restore {:.2} ms vs cold build {:.2} ms ({:.1}x; {} bytes, write {:.2} ms) on {}",
        snap.restore_ms,
        snap.cold_build_ms,
        snap.restore_speedup,
        snap.snapshot_bytes,
        snap.write_ms,
        snap.benchmark
    );

    let json = render_json(
        &results, threads, &matrix, &synthetic, &server, &obs, &incr, &snap,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_slicing.json");
    std::fs::write(path, &json).expect("write BENCH_slicing.json");
    println!("\nwrote {path}");
    print!("{json}");
}
