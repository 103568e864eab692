//! Human-readable slice reports.

use crate::batch::QueryOutcome;
use crate::inspect::InspectionResult;
use crate::stmtset::StmtSet;
use thinslice_ir::{pretty, Program};
use thinslice_util::{BitSet, Completeness};

pub use thinslice_ir::Line;

/// Renders a slice's statements (a [`SliceResult`](crate::SliceResult)'s
/// `stmts`) as source lines, deduplicated and in the set's canonical
/// order: inspection (BFS) order for a CI slice. Synthetic statements
/// (compiler-generated) are skipped. Each line is rendered once per
/// program ([`Program::source_line`]) and borrowed after that, so an
/// answer costs a bit test per statement and a copy of two references
/// per line, whatever the files' length.
pub fn stmt_lines<'p>(program: &'p Program, stmts: &StmtSet) -> Vec<Line<'p>> {
    let mut seen: BitSet = BitSet::with_domain_size(program.line_slots());
    let mut out = Vec::new();
    for s in stmts {
        if let Some(slot) = program.line_slot(program.instr(s).span) {
            if seen.insert(slot) {
                out.push(program.source_line(slot));
            }
        }
    }
    out
}

/// Renders a slice's statements at IR granularity (one line per IR
/// statement), useful for debugging the analyses themselves.
pub fn slice_instrs(program: &Program, stmts: &StmtSet) -> Vec<String> {
    stmts.iter().map(|s| pretty::stmt_str(program, s)).collect()
}

/// Renders an inspection transcript: the lines a simulated user reads, in
/// order, with a footer summarising the effort.
pub fn inspection_report(result: &InspectionResult) -> String {
    let mut out = String::new();
    for (i, (file, line)) in result.order.iter().enumerate() {
        out.push_str(&format!("{:>4}. {}:{}\n", i + 1, file, line));
    }
    out.push_str(&format!(
        "-- inspected {} line(s); {}; full slice = {} line(s)\n",
        result.inspected,
        if result.found_all {
            "all desired statements found"
        } else {
            "NOT all desired statements found"
        },
        result.full_slice_lines,
    ));
    out
}

/// The marker a report appends to a truncated result; empty for complete
/// results, so ungoverned output is unchanged.
pub fn completeness_marker(c: &Completeness) -> String {
    match c {
        Completeness::Complete => String::new(),
        Completeness::Truncated { reason, frontier } => {
            format!(" [TRUNCATED: {reason}; ~{frontier} pending]")
        }
    }
}

/// One-line summary of a governed batch: how many queries came back
/// complete, truncated, degraded (CS → CI fallback) or failed, plus total
/// retries.
pub fn governed_batch_footer(outcomes: &[QueryOutcome]) -> String {
    let mut complete = 0usize;
    let mut truncated = 0usize;
    let mut degraded = 0usize;
    let mut errors = 0usize;
    let mut retries = 0u32;
    for o in outcomes {
        retries += o.retries;
        match &o.slice {
            Ok(s) => {
                if s.degraded {
                    degraded += 1;
                } else if s.completeness.is_complete() {
                    complete += 1;
                }
                if !s.completeness.is_complete() {
                    truncated += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    format!(
        "-- {} quer{}: {complete} complete, {truncated} truncated, {degraded} degraded, {errors} failed, {retries} retr{}",
        outcomes.len(),
        if outcomes.len() == 1 { "y" } else { "ies" },
        if retries == 1 { "y" } else { "ies" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisSession, Engine, Query, SliceKind};

    #[test]
    fn report_renders_source_lines_once() {
        let src = "class Main { static void main() {\nint x = 1;\nint y = x + x;\nprint(y);\n} }";
        let mut s = AnalysisSession::new(&[("demo.mj", src)]).unwrap();
        let seed = s.seed_at_line("demo.mj", 4).unwrap();
        let slice = s.query(&Query::new(seed, SliceKind::Thin, Engine::Ci));
        let lines = stmt_lines(s.program(), &slice.stmts);
        assert_eq!(lines.len(), 3, "three distinct source lines: {lines:?}");
        assert!(lines[0].contains("print(y);"));
        assert!(lines.iter().any(|l| l.contains("int x = 1;")));
        let instrs = slice_instrs(s.program(), &slice.stmts);
        assert!(instrs.len() >= lines.len());
    }

    #[test]
    fn truncation_markers_render() {
        use thinslice_util::ExhaustReason;
        assert_eq!(completeness_marker(&Completeness::Complete), "");
        assert_eq!(
            completeness_marker(&Completeness::Truncated {
                reason: ExhaustReason::Deadline,
                frontier: 12
            }),
            " [TRUNCATED: deadline; ~12 pending]"
        );
    }
}
