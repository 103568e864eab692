//! Property-based tests over generated programs: structural invariants of
//! the whole pipeline that must hold for *any* MJ program the generator can
//! produce.

use thinslice::Analysis;
use thinslice_pta::PtaConfig;
use thinslice_suite::{generate, GeneratorConfig};
use thinslice_util::SmallRng;

fn arb_config(rng: &mut SmallRng) -> GeneratorConfig {
    GeneratorConfig {
        node_classes: rng.range_usize(1, 6),
        passes: rng.range_usize(1, 3),
        container_chains: rng.range_usize(1, 5),
        call_depth: rng.range_usize(1, 4),
        seed: rng.next_u64() % 1000,
    }
}

/// Every generated program compiles, analyses, and slices without
/// panicking; thin ⊆ data ⊆ full holds for every print seed.
#[test]
fn pipeline_invariants_on_generated_programs() {
    for case in 0..12u64 {
        let config = arb_config(&mut SmallRng::new(case));
        let src = generate(&config);
        let a = Analysis::build(&[("gen.mj", &src)]).expect("generated program compiles");
        let seeds: Vec<_> = a
            .program
            .all_stmts()
            .filter(|s| {
                matches!(
                    a.program.instr(*s).kind,
                    thinslice_ir::InstrKind::Print { .. }
                )
            })
            .filter(|s| !a.sdg.stmt_nodes_of(*s).is_empty())
            .collect();
        assert!(!seeds.is_empty(), "generated programs always print");
        for seed in seeds {
            let thin = a.thin_slice(&[seed]);
            let data = a.traditional_slice(&[seed]);
            let full = a.full_slice(&[seed]);
            assert!(thin.stmt_set().is_subset(&data.stmt_set()));
            assert!(data.stmt_set().is_subset(&full.stmt_set()));
            assert!(thin.contains(seed));
            // BFS order has no duplicates.
            let mut seen = std::collections::HashSet::new();
            for s in &thin.stmts {
                assert!(seen.insert(*s), "duplicate statement in BFS order");
            }
        }
    }
}

/// Slicing is deterministic: two runs over the same program produce the
/// same slices.
#[test]
fn slicing_is_deterministic() {
    for case in 0..8u64 {
        let seed = SmallRng::new(case).next_u64() % 500;
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let a1 = Analysis::build(&[("gen.mj", &src)]).unwrap();
        let a2 = Analysis::build(&[("gen.mj", &src)]).unwrap();
        let seed_stmt = a1
            .program
            .all_stmts()
            .find(|s| {
                matches!(
                    a1.program.instr(*s).kind,
                    thinslice_ir::InstrKind::Print { .. }
                )
            })
            .unwrap();
        let s1 = a1.thin_slice(&[seed_stmt]);
        let s2 = a2.thin_slice(&[seed_stmt]);
        assert_eq!(s1.stmts, s2.stmts);
    }
}

/// Object-sensitivity coarsening is monotone on generated programs.
#[test]
fn coarsening_is_monotone() {
    for case in 0..6u64 {
        let seed = SmallRng::new(case ^ 0xc0a5).next_u64() % 200;
        let config = GeneratorConfig {
            seed,
            container_chains: 3,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let precise = Analysis::build(&[("gen.mj", &src)]).unwrap();
        let coarse =
            Analysis::with_config(&[("gen.mj", &src)], PtaConfig::without_object_sensitivity())
                .unwrap();
        let seed_stmt = precise
            .program
            .all_stmts()
            .find(|s| {
                matches!(
                    precise.program.instr(*s).kind,
                    thinslice_ir::InstrKind::Print { .. }
                )
            })
            .unwrap();
        if coarse.sdg.stmt_nodes_of(seed_stmt).is_empty() {
            continue;
        }
        let p = precise.thin_slice(&[seed_stmt]).stmt_set();
        let c = coarse.thin_slice(&[seed_stmt]).stmt_set();
        assert!(p.is_subset(&c));
    }
}
