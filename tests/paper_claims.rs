//! The paper's four headline claims (§6), each as an executable test.

use thinslice::{AnalysisSession, Engine, Query, RunCtx, SliceKind};
use thinslice_pta::{ModRef, ProgramStats, PtaConfig};
use thinslice_sdg::{build_cs, SdgStats};

/// Claim 1 (§6.2, §6.3): "thin slices usually included the desired
/// statements for the tasks".
#[test]
fn claim1_thin_slices_contain_the_desired_statements() {
    let bug_rows = thinslice_bench_rows(&thinslice_suite::all_bug_tasks());
    let found = bug_rows.iter().filter(|r| r.thin.found).count();
    assert_eq!(
        found,
        bug_rows.len(),
        "every sliceable bug must be findable with thin slicing (+expansion)"
    );
    let cast_rows = thinslice_bench_rows(&thinslice_suite::all_cast_tasks());
    let found = cast_rows.iter().filter(|r| r.thin.found).count();
    assert_eq!(
        found,
        cast_rows.len(),
        "every tough cast must be explainable"
    );
}

/// Claim 2 (§6.2, §6.3): thin slicing needs fewer inspected statements than
/// traditional slicing, in aggregate.
#[test]
fn claim2_thin_beats_traditional_in_aggregate() {
    for tasks in [
        thinslice_suite::all_bug_tasks(),
        thinslice_suite::all_cast_tasks(),
    ] {
        let rows = thinslice_bench_rows(&tasks);
        let thin: usize = rows.iter().map(|r| r.thin.inspected).sum();
        let trad: usize = rows.iter().map(|r| r.trad.inspected).sum();
        assert!(
            trad as f64 >= 1.3 * thin as f64,
            "aggregate advantage must be substantial: thin={thin} trad={trad}"
        );
        // Full-slice sizes (the classical measure) separate even more.
        let thin_full: usize = rows.iter().map(|r| r.thin.full_slice).sum();
        let trad_full: usize = rows.iter().map(|r| r.trad.full_slice).sum();
        assert!(
            trad_full as f64 >= 1.5 * thin_full as f64,
            "full-slice advantage: thin={thin_full} trad={trad_full}"
        );
    }
}

/// Claim 3 (§6.1): "a precise pointer analysis is key to effective thin
/// slicing" — dropping object-sensitive container handling inflates the
/// inspected counts.
#[test]
fn claim3_object_sensitivity_matters() {
    let rows = thinslice_bench_rows(&thinslice_suite::all_cast_tasks());
    let thin: usize = rows.iter().map(|r| r.thin.inspected).sum();
    let thin_no: usize = rows.iter().map(|r| r.thin_noobjsens.inspected).sum();
    assert!(
        thin_no > thin,
        "NoObjSens must inspect more statements: precise={thin} coarse={thin_no}"
    );
    // Per-row: some rows degrade measurably (the paper's jack rows).
    let degraded = rows
        .iter()
        .filter(|r| r.thin_noobjsens.inspected as f64 >= 1.2 * r.thin.inspected as f64)
        .count();
    assert!(
        degraded >= 3,
        "several rows must degrade without object sensitivity"
    );
}

/// Claim 4 (§6.1): context-insensitive thin slicing is cheap; the
/// heap-parameter (context-sensitive) representation explodes with program
/// size.
#[test]
fn claim4_scalability() {
    use std::time::Instant;
    let b = thinslice_suite::benchmark_named("javac").unwrap();
    let program = thinslice_ir::compile(&b.sources).unwrap();

    let t0 = Instant::now();
    let _pta = thinslice_pta::Pta::analyze(&program, PtaConfig::default());
    let pta_time = t0.elapsed();

    let mut session =
        AnalysisSession::from_program(program, PtaConfig::default(), RunCtx::disabled());
    let print = session
        .program()
        .all_stmts()
        .find(|s| {
            matches!(
                session.program().instr(*s).kind,
                thinslice_ir::InstrKind::Print { .. }
            )
        })
        .unwrap();
    let query = Query::new(vec![print], SliceKind::Thin, Engine::Ci);
    // Warm the session first — graph, freeze and scratch are built — so
    // the timer sees one query's walk.
    assert!(!session.query(&query).is_empty(), "the print is reachable");
    let t1 = Instant::now();
    let _ = session.query(&query);
    let slice_time = t1.elapsed();
    assert!(
        slice_time < pta_time,
        "one thin slice must cost less than the pointer analysis \
         (slice {slice_time:?} vs pta {pta_time:?})"
    );

    // Heap-parameter blow-up grows superlinearly with generated program
    // size.
    let small = cs_nodes_of_generated(1);
    let big = cs_nodes_of_generated(3);
    let small_ci = ci_nodes_of_generated(1);
    let big_ci = ci_nodes_of_generated(3);
    let cs_growth = big as f64 / small as f64;
    let ci_growth = big_ci as f64 / small_ci as f64;
    assert!(
        cs_growth > ci_growth,
        "heap parameters must grow faster than the CI graph: cs {cs_growth:.1}x vs ci {ci_growth:.1}x"
    );
}

/// Table 1's caption: call-graph nodes exceed distinct methods due to
/// cloning, on every benchmark.
#[test]
fn table1_cloning_shows_on_every_benchmark() {
    for b in thinslice_suite::all_benchmarks() {
        let stats_of = |config| {
            let mut s = b.session(config, RunCtx::disabled());
            let (program, pta, _) = s.ci_parts();
            ProgramStats::compute(program, pta)
        };
        let stats = stats_of(PtaConfig::default());
        assert!(stats.cg_nodes > stats.methods, "{}: {stats:?}", b.name);
        // And the coarse configuration has exactly one node per method.
        let cstats = stats_of(PtaConfig::without_object_sensitivity());
        assert_eq!(cstats.cg_nodes, cstats.methods, "{}", b.name);
    }
}

/// One slicer's numbers in a table row: `(#inspected, found, full-slice
/// lines)`.
type Measured = (usize, bool, usize);

/// Every Table 2 and Table 3 row as `table2` and `table3` compute it:
/// `(task, #Control, [thin, trad, thin NoObjSens, trad NoObjSens])`.
/// Counts are deterministic, so any change here is an answer change.
#[rustfmt::skip]
const TABLE_ROWS: &[(&str, u32, [Measured; 4])] = &[
    ("nanoxml-1", 0, [(10, true, 16), (27, true, 98), (10, true, 16), (47, true, 111)]),
    ("nanoxml-2", 0, [(7, true, 13), (21, true, 29), (11, true, 25), (40, true, 108)]),
    ("nanoxml-3", 0, [(7, true, 13), (14, true, 93), (7, true, 13), (14, true, 120)]),
    ("nanoxml-4", 1, [(5, true, 10), (6, true, 84), (5, true, 10), (6, true, 112)]),
    ("nanoxml-5", 1, [(19, true, 19), (18, true, 96), (19, true, 19), (18, true, 123)]),
    ("nanoxml-6", 0, [(6, true, 20), (6, true, 101), (6, true, 20), (6, true, 114)]),
    ("jtopas-1", 0, [(1, true, 9), (1, true, 33), (1, true, 9), (1, true, 37)]),
    ("jtopas-2", 1, [(10, true, 14), (13, true, 39), (10, true, 14), (13, true, 43)]),
    ("ant-1", 1, [(8, true, 15), (11, true, 73), (8, true, 15), (11, true, 83)]),
    ("ant-2", 0, [(4, true, 10), (5, true, 71), (4, true, 10), (5, true, 81)]),
    ("ant-3", 15, [(21, true, 40), (21, true, 56), (21, true, 45), (21, true, 104)]),
    ("ant-4", 2, [(21, true, 30), (40, true, 64), (25, true, 35), (49, true, 82)]),
    ("xml-security-1", 1, [(8, true, 28), (8, true, 43), (8, true, 28), (8, true, 48)]),
    ("mtrt-1", 0, [(10, true, 10), (21, true, 26), (11, true, 11), (23, true, 29)]),
    ("mtrt-2", 0, [(10, true, 10), (21, true, 26), (12, true, 12), (24, true, 30)]),
    ("jess-1", 2, [(9, true, 9), (10, true, 53), (9, true, 9), (10, true, 70)]),
    ("jess-2", 0, [(13, true, 15), (25, true, 47), (16, true, 23), (41, true, 64)]),
    ("jess-3", 2, [(9, true, 9), (10, true, 53), (9, true, 9), (10, true, 70)]),
    ("jess-4", 2, [(9, true, 9), (10, true, 53), (9, true, 9), (10, true, 70)]),
    ("jess-5", 2, [(13, true, 18), (30, true, 51), (20, true, 22), (39, true, 65)]),
    ("jess-6", 2, [(9, true, 10), (27, true, 35), (15, true, 18), (44, true, 63)]),
    ("javac-1", 1, [(17, true, 17), (29, true, 179), (17, true, 17), (29, true, 189)]),
    ("javac-2", 1, [(17, true, 17), (29, true, 179), (17, true, 17), (29, true, 189)]),
    ("javac-3", 1, [(17, true, 17), (29, true, 179), (17, true, 17), (29, true, 189)]),
    ("javac-4", 1, [(17, true, 17), (29, true, 179), (17, true, 17), (29, true, 189)]),
    ("jack-1", 0, [(6, true, 18), (19, true, 93), (7, true, 30), (24, true, 104)]),
    ("jack-2", 0, [(11, true, 11), (27, true, 29), (16, true, 28), (35, true, 104)]),
    ("jack-3", 0, [(6, true, 8), (19, true, 33), (8, true, 30), (25, true, 104)]),
    ("jack-4", 0, [(7, true, 9), (16, true, 39), (7, true, 9), (16, true, 39)]),
    ("jack-5", 0, [(6, true, 14), (14, true, 37), (9, true, 30), (21, true, 104)]),
    ("jack-6", 0, [(7, true, 9), (16, true, 39), (7, true, 9), (16, true, 39)]),
    ("jack-7", 0, [(12, true, 27), (22, true, 93), (13, true, 34), (26, true, 104)]),
    ("jack-8", 0, [(12, true, 13), (26, true, 33), (18, true, 35), (45, true, 104)]),
    ("jack-9", 0, [(6, true, 14), (12, true, 37), (9, true, 30), (19, true, 104)]),
    ("jack-10", 0, [(6, true, 24), (7, true, 96), (6, true, 34), (7, true, 106)]),
];

/// Tables 2 and 3 exactly: every row's `#Thin`, `#Trad`, `#Control`, both
/// NoObjSens counts, whether each slicer found the desired statements, and
/// each full-slice size. The claims above only bound these numbers.
#[test]
fn tables_2_and_3_rows_are_pinned() {
    let mut tasks = thinslice_suite::all_bug_tasks();
    tasks.extend(thinslice_suite::all_cast_tasks());
    let rows = thinslice_bench_rows(&tasks);
    assert_eq!(rows.len(), TABLE_ROWS.len());
    for (r, want) in rows.iter().zip(TABLE_ROWS) {
        let measured = [r.thin, r.trad, r.thin_noobjsens, r.trad_noobjsens]
            .map(|m| (m.inspected, m.found, m.full_slice));
        assert_eq!((r.id, r.control_deps, measured), *want);
    }
}

fn thinslice_bench_rows(tasks: &[thinslice_suite::Task]) -> Vec<thinslice_suite::TaskResult> {
    let mut rows = Vec::new();
    let mut cache: std::collections::HashMap<
        &'static str,
        (thinslice_suite::Benchmark, AnalysisSession, AnalysisSession),
    > = std::collections::HashMap::new();
    for task in tasks {
        let (b, precise, noobjsens) = cache.entry(task.benchmark).or_insert_with(|| {
            let b = thinslice_suite::benchmark_named(task.benchmark).unwrap();
            let p = b.session(PtaConfig::default(), RunCtx::disabled());
            let n = b.session(PtaConfig::without_object_sensitivity(), RunCtx::disabled());
            (b, p, n)
        });
        rows.push(thinslice_suite::run_task(b, task, precise, noobjsens));
    }
    rows
}

fn cs_nodes_of_generated(factor: usize) -> usize {
    let src = thinslice_suite::generate(&thinslice_suite::GeneratorConfig::scaled(factor));
    let program = thinslice_ir::compile(&[("gen.mj", &src)]).unwrap();
    let pta = thinslice_pta::Pta::analyze(&program, PtaConfig::default());
    let modref = ModRef::compute(&program, &pta);
    SdgStats::compute(&build_cs(&program, &pta, &modref)).nodes
}

fn ci_nodes_of_generated(factor: usize) -> usize {
    let src = thinslice_suite::generate(&thinslice_suite::GeneratorConfig::scaled(factor));
    let program = thinslice_ir::compile(&[("gen.mj", &src)]).unwrap();
    let pta = thinslice_pta::Pta::analyze(&program, PtaConfig::default());
    SdgStats::compute(&thinslice_sdg::build_ci(&program, &pta)).nodes
}
