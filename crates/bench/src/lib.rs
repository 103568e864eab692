#![warn(missing_docs)]

//! # thinslice-bench — the experiment harness
//!
//! Binaries regenerating every table of the paper's evaluation:
//!
//! * `table1` — benchmark characteristics (paper Table 1),
//! * `table2` — the debugging experiment (paper Table 2),
//! * `table3` — the tough-casts experiment (paper Table 3),
//! * `scalability` — the §6.1 scalability observations (slicing time vs
//!   pointer analysis; heap-parameter SDG blow-up; full-slice size vs BFS
//!   inspection divergence).
//!
//! This library hosts the row computation and plain-text table rendering
//! shared by those binaries, so the logic is unit-testable.

use std::time::{Duration, Instant};
use thinslice::{AnalysisSession, Engine, Query, RunCtx, SliceKind};
use thinslice_pta::{ProgramStats, PtaConfig};
use thinslice_sdg::SdgStats;
use thinslice_suite::{run_task, Benchmark, Task, TaskResult};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Program/analysis statistics.
    pub stats: ProgramStats,
    /// Context-insensitive SDG statistics.
    pub sdg: SdgStats,
    /// Time to run pointer analysis + call graph construction.
    pub analysis_time: Duration,
}

/// Computes Table 1 for every suite benchmark.
pub fn table1_rows() -> Vec<Table1Row> {
    thinslice_suite::all_benchmarks()
        .into_iter()
        .map(|b| {
            let start = Instant::now();
            let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
            let (program, pta, graph) = session.ci_parts();
            let analysis_time = start.elapsed();
            Table1Row {
                name: b.name.to_string(),
                stats: ProgramStats::compute(program, pta),
                sdg: SdgStats::compute(graph),
                analysis_time,
            }
        })
        .collect()
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Benchmark characteristics\n");
    out.push_str(&format!(
        "{:<10} {:>8} {:>8} {:>9} {:>10} {:>9} {:>12}\n",
        "Benchmark", "Classes", "Methods", "CG Nodes", "SDG Stmts", "Objects", "Analysis(ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>8} {:>8} {:>9} {:>10} {:>9} {:>12.1}\n",
            r.name,
            r.stats.classes,
            r.stats.methods,
            r.stats.cg_nodes,
            r.sdg.stmt_nodes,
            r.stats.abstract_objects,
            r.analysis_time.as_secs_f64() * 1000.0,
        ));
    }
    out.push_str(
        "\nNote: CG Nodes > Methods on every benchmark, \"due to limited cloning-based\n\
         context-sensitivity in the points-to analysis\" (paper Table 1 caption).\n",
    );
    out
}

/// Computes the rows for Table 2 or Table 3 from a task list, grouping the
/// (expensive) sessions per benchmark.
pub fn run_tasks(tasks: &[Task]) -> Vec<TaskResult> {
    let mut rows = Vec::new();
    let mut current: Option<(Benchmark, AnalysisSession, AnalysisSession)> = None;
    for task in tasks {
        let needs_new = current
            .as_ref()
            .map(|(b, _, _)| b.name != task.benchmark)
            .unwrap_or(true);
        if needs_new {
            let b = thinslice_suite::benchmark_named(task.benchmark)
                .unwrap_or_else(|| panic!("unknown benchmark {}", task.benchmark));
            let precise = b.session(PtaConfig::default(), RunCtx::disabled());
            let noobjsens = b.session(PtaConfig::without_object_sensitivity(), RunCtx::disabled());
            current = Some((b, precise, noobjsens));
        }
        let (b, precise, noobjsens) = current.as_mut().unwrap();
        rows.push(run_task(b, task, precise, noobjsens));
    }
    rows
}

/// Renders Table 2/3 in the paper's column layout, with the paper's own
/// numbers alongside for comparison, plus aggregate ratios.
pub fn render_task_table(title: &str, rows: &[TaskResult]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<16} {:>6} {:>6} {:>6} {:>9} {:>14} {:>14} {:>12} {:>12}\n",
        "Task",
        "#Thin",
        "#Trad",
        "Ratio",
        "#Control",
        "#ThinNoObjSen",
        "#TradNoObjSen",
        "paper#Thin",
        "paper#Trad"
    ));
    let mut total_thin = 0usize;
    let mut total_trad = 0usize;
    let mut total_thin_no = 0usize;
    let mut total_trad_no = 0usize;
    let mut full_thin = 0usize;
    let mut full_trad = 0usize;
    let mut all_found = true;
    for r in rows {
        full_thin += r.thin.full_slice;
        full_trad += r.trad.full_slice;
        out.push_str(&format!(
            "{:<16} {:>6} {:>6} {:>6.2} {:>9} {:>14} {:>14} {:>12} {:>12}\n",
            r.id,
            r.thin.inspected,
            r.trad.inspected,
            r.ratio(),
            r.control_deps,
            r.thin_noobjsens.inspected,
            r.trad_noobjsens.inspected,
            r.paper_thin,
            r.paper_trad,
        ));
        total_thin += r.thin.inspected;
        total_trad += r.trad.inspected;
        total_thin_no += r.thin_noobjsens.inspected;
        total_trad_no += r.trad_noobjsens.inspected;
        all_found &= r.thin.found && r.trad.found;
    }
    out.push_str(&format!(
        "{:<16} {:>6} {:>6} {:>6.2} {:>9} {:>14} {:>14}\n",
        "TOTAL",
        total_thin,
        total_trad,
        total_trad as f64 / total_thin.max(1) as f64,
        "",
        total_thin_no,
        total_trad_no,
    ));
    out.push_str(&format!(
        "aggregate #Trad/#Thin ratio: {:.2} (paper: {})\n",
        total_trad as f64 / total_thin.max(1) as f64,
        if title.contains("Table 2") {
            "3.3"
        } else {
            "9.4"
        },
    ));
    out.push_str(&format!(
        "NoObjSens inflation: thin {:.2}x, trad {:.2}x\n",
        total_thin_no as f64 / total_thin.max(1) as f64,
        total_trad_no as f64 / total_trad.max(1) as f64,
    ));
    out.push_str(&format!(
        "full-slice sizes (classical measure): thin {} vs trad {} lines — ratio {:.2}\n",
        full_thin,
        full_trad,
        full_trad as f64 / full_thin.max(1) as f64,
    ));
    if !all_found {
        out.push_str("WARNING: some desired statements were not found\n");
    }
    out
}

/// One row of the scalability experiment.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Program label (benchmark name or generator scale).
    pub label: String,
    /// Pointer analysis + call graph time.
    pub pta_time: Duration,
    /// CI SDG construction time, the freeze into the query graph included.
    pub ci_sdg_time: Duration,
    /// Mean time of one CI thin-slice query on the warm session (averaged
    /// over seeds).
    pub thin_slice_time: Duration,
    /// CI SDG total nodes.
    pub ci_nodes: usize,
    /// CS (heap-parameter) SDG total nodes.
    pub cs_nodes: usize,
    /// CS heap-parameter nodes alone.
    pub cs_heap_param_nodes: usize,
}

/// Measures one program for the scalability table, stage by stage through
/// one session.
pub fn measure_scalability(label: &str, sources: &[(&str, &str)]) -> ScalabilityRow {
    let program = thinslice_ir::compile(sources).expect("program compiles");
    let mut session =
        AnalysisSession::from_program(program, PtaConfig::default(), RunCtx::disabled());
    let t0 = Instant::now();
    session.pta();
    let pta_time = t0.elapsed();
    let t1 = Instant::now();
    session.ci_graph();
    let ci_sdg_time = t1.elapsed();

    // Slice from every print statement (the natural seeds), one query per
    // seed on the warm session: graphs built before the timer, scratch
    // reused across queries.
    let (program, _, graph) = session.ci_parts();
    let ci_stats = SdgStats::compute(graph);
    let queries: Vec<Query> = program
        .all_stmts()
        .filter(|s| {
            matches!(
                program.instr(*s).kind,
                thinslice_ir::InstrKind::Print { .. }
            ) && graph.stmt_node(*s).is_some()
        })
        .map(|s| Query::new(vec![s], SliceKind::Thin, Engine::Ci))
        .collect();
    let t2 = Instant::now();
    for q in &queries {
        std::hint::black_box(session.query(q));
    }
    let thin_slice_time = if queries.is_empty() {
        Duration::ZERO
    } else {
        t2.elapsed() / queries.len() as u32
    };
    let cs_stats = SdgStats::compute(session.cs_graph());

    ScalabilityRow {
        label: label.to_string(),
        pta_time,
        ci_sdg_time,
        thin_slice_time,
        ci_nodes: ci_stats.nodes,
        cs_nodes: cs_stats.nodes,
        cs_heap_param_nodes: cs_stats.heap_param_nodes,
    }
}

/// Renders the scalability table.
pub fn render_scalability(rows: &[ScalabilityRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Scalability (paper §6.1): thin slicing cost vs pointer analysis; heap-parameter blow-up\n",
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}\n",
        "Program", "PTA(ms)", "SDG(ms)", "thin(µs)", "CI nodes", "CS nodes", "CS heap-par"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>10.1} {:>10.1} {:>12.1} {:>10} {:>10} {:>12}\n",
            r.label,
            r.pta_time.as_secs_f64() * 1000.0,
            r.ci_sdg_time.as_secs_f64() * 1000.0,
            r.thin_slice_time.as_secs_f64() * 1e6,
            r.ci_nodes,
            r.cs_nodes,
            r.cs_heap_param_nodes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_benchmarks_with_cloning() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.stats.cg_nodes > r.stats.methods,
                "{}: cloning must inflate call-graph nodes ({} vs {})",
                r.name,
                r.stats.cg_nodes,
                r.stats.methods
            );
            assert!(r.sdg.stmt_nodes > 0);
        }
        let rendered = render_table1(&rows);
        assert!(rendered.contains("nanoxml"));
        assert!(rendered.contains("javac"));
    }

    #[test]
    fn scalability_shows_heap_parameter_blowup() {
        let b = thinslice_suite::benchmark_named("jack").unwrap();
        let row = measure_scalability("jack", &b.sources);
        assert!(row.cs_nodes > row.ci_nodes);
        assert!(row.cs_heap_param_nodes > 0);
    }
}
