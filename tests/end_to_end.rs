//! End-to-end pipeline tests across all crates: every benchmark compiles,
//! analyses, and satisfies the structural relations between the four
//! slicers.

use thinslice::{Analysis, Engine, Query, RunCtx, SliceKind};
use thinslice_ir::InstrKind;
use thinslice_pta::PtaConfig;

/// Every print statement of every benchmark, as a slicing seed.
fn print_seeds(a: &Analysis) -> Vec<thinslice_ir::StmtRef> {
    a.program
        .all_stmts()
        .filter(|s| matches!(a.program.instr(*s).kind, InstrKind::Print { .. }))
        .filter(|s| !a.sdg.stmt_nodes_of(*s).is_empty())
        .collect()
}

#[test]
fn slicer_inclusion_hierarchy_holds_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let a = b.analyze(PtaConfig::default());
        for seed in print_seeds(&a) {
            let thin = a.thin_slice(&[seed]);
            let data = a.traditional_slice(&[seed]);
            let full = a.full_slice(&[seed]);
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
    let a = b.analyze(PtaConfig::default());
    let mut s = b.session(PtaConfig::default(), RunCtx::disabled());

    for seed in print_seeds(&a) {
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
        let precise = b.analyze(PtaConfig::default());
        let coarse = b.analyze(PtaConfig::without_object_sensitivity());
        for seed in print_seeds(&precise).into_iter().take(4) {
            if coarse.sdg.stmt_nodes_of(seed).is_empty() {
                continue;
            }
            let p = precise.thin_slice(&[seed]).stmt_set();
            let c = coarse.thin_slice(&[seed]).stmt_set();
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
        let a = b.analyze(PtaConfig::default());
        let resolved = task.resolve(&b, &a);
        assert!(!resolved.seeds.is_empty(), "{}", task.id);
    }
    for task in thinslice_suite::all_cast_tasks() {
        let b = thinslice_suite::benchmark_named(task.benchmark).unwrap();
        let a = b.analyze(PtaConfig::default());
        let resolved = task.resolve(&b, &a);
        assert!(!resolved.seeds.is_empty(), "{}", task.id);
    }
}
