//! End-to-end pipeline tests across all crates: every benchmark compiles,
//! analyses, and satisfies the structural relations between the four
//! slicers.

use thinslice::{AnalysisSession, Engine, Query, RunCtx, SliceKind, SliceResult};
use thinslice_ir::{InstrKind, StmtRef};
use thinslice_pta::PtaConfig;

/// Every reachable print statement of the program, as a slicing seed.
fn print_seeds(s: &mut AnalysisSession) -> Vec<StmtRef> {
    let (program, _, graph) = s.ci_parts();
    program
        .all_stmts()
        .filter(|s| matches!(program.instr(*s).kind, InstrKind::Print { .. }))
        .filter(|s| graph.stmt_node(*s).is_some())
        .collect()
}

/// The context-insensitive `kind` slice from one statement.
fn ci_slice(s: &mut AnalysisSession, seed: StmtRef, kind: SliceKind) -> SliceResult {
    s.query(&Query::new(vec![seed], kind, Engine::Ci))
}

#[test]
fn slicer_inclusion_hierarchy_holds_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut a = b.session(PtaConfig::default(), RunCtx::disabled());
        for seed in print_seeds(&mut a) {
            let thin = ci_slice(&mut a, seed, SliceKind::Thin);
            let data = ci_slice(&mut a, seed, SliceKind::TraditionalData);
            let full = ci_slice(&mut a, seed, SliceKind::TraditionalFull);
            let thin_set = thin.stmt_set();
            let data_set = data.stmt_set();
            let full_set = full.stmt_set();
            assert!(
                thin_set.is_subset(&data_set),
                "{}: thin ⊆ traditional-data violated at {seed:?}",
                b.name
            );
            assert!(
                data_set.is_subset(&full_set),
                "{}: traditional-data ⊆ full violated at {seed:?}",
                b.name
            );
            // The seed is always in its own slice.
            assert!(
                thin_set.contains(&seed),
                "{}: seed missing from its slice",
                b.name
            );
        }
    }
}

#[test]
fn heap_parameter_graphs_preserve_thin_reachability() {
    // The CS graph routes heap flow differently but must not lose it: a
    // value reachable in the CI thin slice through one store/load pair is
    // reachable in the CS graph too (possibly through heap parameters).
    let b = thinslice_suite::benchmark_named("jtopas").unwrap();
    let mut s = b.session(PtaConfig::default(), RunCtx::disabled());

    for seed in print_seeds(&mut s) {
        let ci = s.query(&Query::new(vec![seed], SliceKind::Thin, Engine::Ci));
        let cs = s.query(&Query::new(vec![seed], SliceKind::Thin, Engine::Cs));
        // Not equality (the CS graph is context-sensitive and strictly more
        // precise), but the CS thin slice must still find producers beyond
        // the seed's own method whenever the CI one does.
        let ci_cross_method = ci.stmts.iter().filter(|s| s.method != seed.method).count();
        let cs_cross_method = cs.stmts.iter().filter(|s| s.method != seed.method).count();
        if ci_cross_method > 0 {
            assert!(
                cs_cross_method > 0,
                "CS thin slice lost all interprocedural flow at {seed:?}"
            );
        }
    }
}

#[test]
fn noobjsens_slices_contain_the_precise_slices() {
    // Dropping object sensitivity only merges abstract state: every
    // statement in the precise thin slice must also be in the imprecise
    // one (monotonicity of abstraction coarsening).
    for name in ["nanoxml", "jack"] {
        let b = thinslice_suite::benchmark_named(name).unwrap();
        let mut precise = b.session(PtaConfig::default(), RunCtx::disabled());
        let mut coarse = b.session(PtaConfig::without_object_sensitivity(), RunCtx::disabled());
        for seed in print_seeds(&mut precise).into_iter().take(4) {
            if coarse.ci_graph().stmt_node(seed).is_none() {
                continue;
            }
            let p = ci_slice(&mut precise, seed, SliceKind::Thin).stmt_set();
            let c = ci_slice(&mut coarse, seed, SliceKind::Thin).stmt_set();
            assert!(
                p.is_subset(&c),
                "{name}: coarsening must not remove statements at {seed:?}"
            );
        }
    }
}

#[test]
fn all_examples_compile_against_the_suite() {
    // The four tough-cast benchmarks expose casts the pointer analysis
    // cannot verify; the debugging benchmarks expose at least one seed per
    // bug task. This is the contract the examples and tables rely on.
    for task in thinslice_suite::all_bug_tasks() {
        let b = thinslice_suite::benchmark_named(task.benchmark).unwrap();
        let mut a = b.session(PtaConfig::default(), RunCtx::disabled());
        let resolved = task.resolve(&b, &mut a);
        assert!(!resolved.seeds.is_empty(), "{}", task.id);
    }
    for task in thinslice_suite::all_cast_tasks() {
        let b = thinslice_suite::benchmark_named(task.benchmark).unwrap();
        let mut a = b.session(PtaConfig::default(), RunCtx::disabled());
        let resolved = task.resolve(&b, &mut a);
        assert!(!resolved.seeds.is_empty(), "{}", task.id);
    }
}
