//! Extra harness tests: inspection ordering, report rendering and whole-
//! program SSA validation.

use thinslice::{
    explain_aliasing, simulate_inspection, AnalysisSession, Engine, InspectTask, InspectionResult,
    Query, SliceKind,
};
use thinslice_ir::ssa::validate_ssa;

/// The thin-slice inspection of `p.mj` from the seed line to the desired
/// line.
fn inspect_thin(src: &str, seed_line: u32, desired_line: u32) -> InspectionResult {
    let mut s = AnalysisSession::new(&[("p.mj", src)]).unwrap();
    let task = InspectTask {
        seeds: s.seed_at_line("p.mj", seed_line).unwrap(),
        desired: vec![s.stmts_at_line("p.mj", desired_line)],
    };
    let (program, _, graph) = s.ci_parts();
    simulate_inspection(program, graph, &task, SliceKind::Thin)
}

#[test]
fn inspection_order_is_distance_monotone() {
    // In the BFS order, a statement's producers never precede the first
    // statement that uses them at a *smaller* distance; spot-check with a
    // straight-line chain, where the order must be exactly reversed.
    let src = "\
class Main { static void main() {
int a = 1;
int b = a + 1;
int c = b + 1;
int d = c + 1;
print(d);
} }";
    let r = inspect_thin(src, 6, 2);
    assert!(r.found_all);
    let lines: Vec<u32> = r.order.iter().map(|(_, l)| *l).collect();
    assert_eq!(
        lines,
        vec![6, 5, 4, 3, 2],
        "strict distance ordering on a chain"
    );
    assert_eq!(r.inspected, 5);
}

#[test]
fn inspection_counts_lines_not_ir_statements() {
    // One dense source line lowering to many IR instructions still costs
    // one unit of inspection.
    let src = "\
class Main { static void main() {
int x = 1 + 2 * 3 - 4 + 5 * 6;
print(x);
} }";
    let r = inspect_thin(src, 3, 2);
    assert_eq!(r.inspected, 2, "seed line + producer line");
}

#[test]
fn reports_render_inspection_transcripts() {
    let src = "\
class Main { static void main() {
int x = 41;
print(x + 1);
} }";
    let r = inspect_thin(src, 3, 2);
    let report = thinslice::report::inspection_report(&r);
    assert!(report.contains("p.mj:3"), "{report}");
    assert!(report.contains("all desired statements found"), "{report}");
}

#[test]
fn every_benchmark_method_is_valid_ssa() {
    for b in thinslice_suite::all_benchmarks() {
        let program = thinslice_ir::compile(&b.sources).unwrap();
        for (_, m) in program.methods.iter_enumerated() {
            if let Some(body) = &m.body {
                validate_ssa(body)
                    .unwrap_or_else(|e| panic!("{}: {} is not valid SSA: {e}", b.name, m.name));
            }
        }
    }
}

#[test]
fn full_slice_of_seed_with_no_deps_is_just_the_seed_line() {
    let src = "\
class Main { static void main() {
print(7);
} }";
    let mut a = AnalysisSession::new(&[("p.mj", src)]).unwrap();
    let seeds = a.seed_at_line("p.mj", 2).unwrap();
    let thin = a.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
    let lines: std::collections::HashSet<u32> = thin
        .stmts
        .iter()
        .map(|s| a.program().instr(s).span.line)
        .filter(|&l| l > 0)
        .collect();
    assert_eq!(lines, std::collections::HashSet::from([2]));
}

#[test]
fn cs_graph_slicing_matches_ci_on_call_free_code() {
    // Without calls or heap, all four slicers agree exactly.
    let src = "\
class Main { static void main() {
int a = 2;
int b = a * a;
print(b);
} }";
    let mut s = AnalysisSession::new(&[("p.mj", src)]).unwrap();
    let seeds = s.seed_at_line("p.mj", 4).unwrap();
    let ci = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
    let cs = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
    assert_eq!(cs.engine, Engine::Cs);
    assert_eq!(ci.stmt_set(), cs.stmt_set());
}

#[test]
fn expansion_statements_are_outside_the_thin_slice() {
    // The aliasing explanation shows statements the thin slice excluded —
    // that is its purpose.
    let src = "class Box { Object item; }
    class Main { static void main() {
        Box b = new Box();
        b.item = new Main();
        Object got = b.item;
        print(got);
    } }";
    let mut a = AnalysisSession::new(&[("t.mj", src)]).unwrap();
    let program = a.program();
    let main_stmt = |pick: fn(&thinslice_ir::InstrKind) -> bool| {
        program
            .all_stmts()
            .find(|s| s.method == program.main_method && pick(&program.instr(*s).kind))
            .unwrap()
    };
    let load = main_stmt(|k| matches!(k, thinslice_ir::InstrKind::Load { .. }));
    let store = main_stmt(|k| matches!(k, thinslice_ir::InstrKind::Store { .. }));
    let box_alloc = program
        .all_stmts()
        .find(|s| {
            matches!(&program.instr(*s).kind, thinslice_ir::InstrKind::New { class, .. }
                if *class == program.class_named("Box").unwrap())
        })
        .unwrap();
    let thin = a.query(&Query::new(vec![load], SliceKind::Thin, Engine::Ci));
    let (program, pta, graph) = a.ci_parts();
    let explanation = explain_aliasing(program, pta, graph, load, store).unwrap();
    assert!(
        !thin.contains(box_alloc),
        "the Box allocation is an explainer"
    );
    assert!(
        explanation.statements().contains(&box_alloc),
        "…and the expansion reveals it"
    );
}
