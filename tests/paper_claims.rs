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
        let a = b.analyze(PtaConfig::default());
        let stats = ProgramStats::compute(&a.program, &a.pta);
        assert!(stats.cg_nodes > stats.methods, "{}: {stats:?}", b.name);
        // And the coarse configuration has exactly one node per method.
        let coarse = b.analyze(PtaConfig::without_object_sensitivity());
        let cstats = ProgramStats::compute(&coarse.program, &coarse.pta);
        assert_eq!(cstats.cg_nodes, cstats.methods, "{}", b.name);
    }
}

fn thinslice_bench_rows(tasks: &[thinslice_suite::Task]) -> Vec<thinslice_suite::TaskResult> {
    let mut rows = Vec::new();
    let mut cache: std::collections::HashMap<
        &'static str,
        (
            thinslice_suite::Benchmark,
            thinslice::Analysis,
            thinslice::Analysis,
        ),
    > = std::collections::HashMap::new();
    for task in tasks {
        let entry = cache.entry(task.benchmark).or_insert_with(|| {
            let b = thinslice_suite::benchmark_named(task.benchmark).unwrap();
            let p = b.analyze(PtaConfig::default());
            let n = b.analyze(PtaConfig::without_object_sensitivity());
            (b, p, n)
        });
        rows.push(thinslice_suite::run_task(
            &entry.0, task, &entry.1, &entry.2,
        ));
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
