//! Extra harness tests: inspection ordering, report rendering and whole-
//! program SSA validation.

use thinslice::{Analysis, AnalysisSession, Engine, InspectTask, Query, SliceKind};
use thinslice_ir::ssa::validate_ssa;

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
    let a = Analysis::build(&[("p.mj", src)]).unwrap();
    let seeds = a.seed_at_line("p.mj", 6).unwrap();
    let task = InspectTask {
        seeds,
        desired: vec![a.stmts_at_line("p.mj", 2)],
    };
    let r = a.inspect(&task, SliceKind::Thin);
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
    let a = Analysis::build(&[("p.mj", src)]).unwrap();
    let seeds = a.seed_at_line("p.mj", 3).unwrap();
    let task = InspectTask {
        seeds,
        desired: vec![a.stmts_at_line("p.mj", 2)],
    };
    let r = a.inspect(&task, SliceKind::Thin);
    assert_eq!(r.inspected, 2, "seed line + producer line");
}

#[test]
fn reports_render_inspection_transcripts() {
    let src = "\
class Main { static void main() {
int x = 41;
print(x + 1);
} }";
    let a = Analysis::build(&[("p.mj", src)]).unwrap();
    let seeds = a.seed_at_line("p.mj", 3).unwrap();
    let task = InspectTask {
        seeds,
        desired: vec![a.stmts_at_line("p.mj", 2)],
    };
    let r = a.inspect(&task, SliceKind::Thin);
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
    let a = Analysis::build(&[("p.mj", src)]).unwrap();
    let seeds = a.seed_at_line("p.mj", 2).unwrap();
    let thin = a.thin_slice(&seeds);
    let lines: std::collections::HashSet<u32> = thin
        .stmts
        .iter()
        .map(|&s| a.program.instr(s).span.line)
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
    let a = Analysis::build(&[("t.mj", src)]).unwrap();
    let load = a
        .program
        .all_stmts()
        .find(|s| {
            s.method == a.program.main_method
                && matches!(
                    a.program.instr(*s).kind,
                    thinslice_ir::InstrKind::Load { .. }
                )
        })
        .unwrap();
    let store = a
        .program
        .all_stmts()
        .find(|s| {
            s.method == a.program.main_method
                && matches!(
                    a.program.instr(*s).kind,
                    thinslice_ir::InstrKind::Store { .. }
                )
        })
        .unwrap();
    let seeds = vec![load];
    let thin = a.thin_slice(&seeds);
    let explanation = a.explain_aliasing(load, store).unwrap();
    let box_alloc = a
        .program
        .all_stmts()
        .find(|s| {
            matches!(&a.program.instr(*s).kind, thinslice_ir::InstrKind::New { class, .. }
                if *class == a.program.class_named("Box").unwrap())
        })
        .unwrap();
    assert!(
        !thin.contains(box_alloc),
        "the Box allocation is an explainer"
    );
    assert!(
        explanation.statements().contains(&box_alloc),
        "…and the expansion reveals it"
    );
}
