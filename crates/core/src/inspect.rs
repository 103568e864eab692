//! The paper's §6.1 evaluation metric: simulated breadth-first inspection.
//!
//! "We use a breadth-first traversal strategy to simulate the order in
//! which statements are inspected by the user … the user gradually explores
//! statements of increasing distance (defined by the dependence graph of
//! the technique) from the seed until the desired statements are found."
//!
//! Statements are counted at source-line granularity: one line inspected is
//! one unit of user effort, however many IR instructions it lowered to.
//! Connective nodes (parameter nodes, entries, heap parameters) are
//! traversed but never counted.

use crate::slice::SliceKind;
use thinslice_ir::{Program, Span, StmtRef};
use thinslice_sdg::{DepGraph, NodeId};
use thinslice_util::{FxHashSet, Worklist};

/// The outcome of one simulated inspection session.
#[derive(Debug, Clone)]
pub struct InspectionResult {
    /// Source lines inspected until every desired group was satisfied (or
    /// the whole slice, if not all were found). Includes the seed's line.
    pub inspected: usize,
    /// Whether every desired group was found in the slice.
    pub found_all: bool,
    /// The inspected lines, in BFS order, up to the stopping point.
    pub order: Vec<(String, u32)>,
    /// Total distinct source lines in the full slice (the classical "slice
    /// size" measure, reported for comparison).
    pub full_slice_lines: usize,
}

/// A line-level inspection task: slice from `seeds`, stop once each desired
/// group has had one of its alternatives inspected.
#[derive(Debug, Clone)]
pub struct InspectTask {
    /// Seed statements (all IR statements of the seed line, typically).
    pub seeds: Vec<StmtRef>,
    /// Desired statements: each inner group is satisfied by inspecting any
    /// one of its members.
    pub desired: Vec<Vec<StmtRef>>,
}

/// Runs the breadth-first inspection simulation.
///
/// Generic over [`DepGraph`]; pass the frozen CSR graph
/// ([`thinslice_sdg::FrozenSdg`]) for repeated simulations.
pub fn simulate_inspection<G: DepGraph>(
    program: &Program,
    sdg: &G,
    task: &InspectTask,
    kind: SliceKind,
) -> InspectionResult {
    let line_of = |s: StmtRef| -> Option<(String, u32)> {
        let span: Span = program.instr(s).span;
        if span.is_synthetic() {
            return None;
        }
        Some((program.files[span.file].name.clone(), span.line))
    };

    // Desired groups as line sets (a desired statement is "found" when its
    // line is inspected).
    let desired_lines: Vec<FxHashSet<(String, u32)>> = task
        .desired
        .iter()
        .map(|group| group.iter().filter_map(|&s| line_of(s)).collect())
        .collect();
    let mut satisfied: Vec<bool> = desired_lines.iter().map(FxHashSet::is_empty).collect();

    let mut visited: thinslice_util::BitSet<NodeId> =
        thinslice_util::BitSet::with_domain_size(sdg.node_count());
    let mut inspected_lines: Vec<(String, u32)> = Vec::new();
    let mut inspected_set: FxHashSet<(String, u32)> = FxHashSet::default();
    let mut frontier: Worklist<NodeId> = Worklist::new();
    for &s in &task.seeds {
        for &n in sdg.stmt_nodes_of(s) {
            frontier.push(n);
        }
    }

    let mut stop_at: Option<usize> = None;
    while let Some(n) = frontier.pop() {
        if !visited.insert(n) {
            continue;
        }
        if let Some(stmt) = sdg.display_stmt(n) {
            if let Some(line) = line_of(stmt) {
                if inspected_set.insert(line.clone()) {
                    inspected_lines.push(line.clone());
                }
                if stop_at.is_none() {
                    for (i, group) in desired_lines.iter().enumerate() {
                        if !satisfied[i] && group.contains(&line) {
                            satisfied[i] = true;
                        }
                    }
                    if satisfied.iter().all(|&s| s) {
                        stop_at = Some(inspected_lines.len());
                    }
                }
            }
        }
        for e in sdg.deps(n) {
            if kind.follows(&e.kind) && !visited.contains(e.target) {
                frontier.push(e.target);
            }
        }
    }

    let found_all = stop_at.is_some();
    let inspected = stop_at.unwrap_or(inspected_lines.len());
    InspectionResult {
        inspected,
        found_all,
        order: inspected_lines[..inspected].to_vec(),
        full_slice_lines: inspected_lines.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{compile, InstrKind};
    use thinslice_pta::{Pta, PtaConfig};
    use thinslice_sdg::{build_ci, Sdg};

    fn setup(src: &str) -> (thinslice_ir::Program, Sdg) {
        let p = compile(&[("prog.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let sdg = build_ci(&p, &pta);
        (p, sdg)
    }

    fn stmts_at_line(p: &Program, line: u32) -> Vec<StmtRef> {
        p.stmts_at_line("prog.mj", line).to_vec()
    }

    #[test]
    fn seed_only_task_inspects_one_line() {
        let (p, sdg) = setup("class Main { static void main() {\nprint(1);\n} }");
        let seeds = stmts_at_line(&p, 2);
        assert!(!seeds.is_empty());
        let task = InspectTask {
            seeds: seeds.clone(),
            desired: vec![seeds],
        };
        let r = simulate_inspection(&p, &sdg, &task, SliceKind::Thin);
        assert!(r.found_all);
        assert_eq!(r.inspected, 1);
    }

    #[test]
    fn thin_inspection_is_cheaper_on_containers() {
        // Value through a Vector: the thin traversal finds the producer
        // line without wading through Vector internals.
        let src = "\
class Main { static void main() {
Vector v = new Vector();
String bad = \"oops\";
v.add(bad);
String got = (String) v.get(0);
print(got);
} }";
        let (p, sdg) = setup(src);
        let seeds = stmts_at_line(&p, 6); // print(got)
        let desired = stmts_at_line(&p, 3); // the literal
        let task = InspectTask {
            seeds,
            desired: vec![desired],
        };
        let thin = simulate_inspection(&p, &sdg, &task, SliceKind::Thin);
        let trad = simulate_inspection(&p, &sdg, &task, SliceKind::TraditionalData);
        assert!(thin.found_all && trad.found_all);
        assert!(
            thin.inspected <= trad.inspected,
            "thin={} trad={}",
            thin.inspected,
            trad.inspected
        );
        assert!(thin.full_slice_lines < trad.full_slice_lines);
    }

    #[test]
    fn missing_desired_reports_not_found() {
        let (p, sdg) =
            setup("class Main { static void main() {\nint x = 1;\nprint(x);\nprint(2);\n} }");
        let seeds = stmts_at_line(&p, 4); // print(2) — constant, no deps
        let desired = stmts_at_line(&p, 2); // int x = 1 — not in slice
        let task = InspectTask {
            seeds,
            desired: vec![desired],
        };
        let r = simulate_inspection(&p, &sdg, &task, SliceKind::Thin);
        assert!(!r.found_all);
        assert_eq!(r.inspected, r.full_slice_lines);
    }

    #[test]
    fn multiple_desired_groups_all_required() {
        let src = "\
class Main { static void main() {
int a = 1;
int b = 2;
int c = a + b;
print(c);
} }";
        let (p, sdg) = setup(src);
        let seeds = stmts_at_line(&p, 5);
        let task = InspectTask {
            seeds,
            desired: vec![stmts_at_line(&p, 2), stmts_at_line(&p, 3)],
        };
        let r = simulate_inspection(&p, &sdg, &task, SliceKind::Thin);
        assert!(r.found_all);
        // Lines 5, 4, 2, 3 all inspected (both defs needed).
        assert_eq!(r.inspected, 4);
    }

    #[test]
    fn traversal_passes_through_uncounted_param_nodes() {
        let src = "\
class A { int id(int x) { return x; } }
class Main { static void main() {
A a = new A();
int r = a.id(41);
print(r);
} }";
        let (p, sdg) = setup(src);
        let seeds = stmts_at_line(&p, 5);
        // Desired: the `return x` line inside A.id.
        let desired: Vec<StmtRef> = p
            .all_stmts()
            .filter(|s| matches!(p.instr(*s).kind, InstrKind::Return { value: Some(_) }))
            .filter(|s| {
                let a = p.class_named("A").unwrap();
                p.methods[s.method].class == a
            })
            .collect();
        assert!(!desired.is_empty());
        let task = InspectTask {
            seeds,
            desired: vec![desired],
        };
        let r = simulate_inspection(&p, &sdg, &task, SliceKind::Thin);
        assert!(r.found_all, "thin slicing crosses the call boundary");
        assert!(r.inspected <= 4);
    }
}
