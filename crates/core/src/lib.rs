#![warn(missing_docs)]

//! # thinslice — Thin Slicing (PLDI 2007) for MJ
//!
//! This crate implements the paper's contribution: **thin slicing**, a
//! backward slice containing only *producer* statements — the chain of
//! assignments that computes and copies a value to the seed — excluding
//! base-pointer manipulation and control flow, which become on-demand
//! *explainers* ([`expand`]).
//!
//! The four slicers of the paper's §5 are all answered by one entrypoint,
//! [`AnalysisSession::query`]:
//!
//! | | context-insensitive | context-sensitive |
//! |---|---|---|
//! | thin | [`Engine::Ci`] + [`SliceKind::Thin`] | [`Engine::Cs`] + [`SliceKind::Thin`] |
//! | traditional | [`Engine::Ci`] + [`SliceKind::TraditionalData`] | [`Engine::Cs`] + [`SliceKind::TraditionalData`] |
//!
//! plus the §6.1 evaluation harness ([`inspect`]) that simulates a tool
//! user inspecting statements breadth-first from the seed.
//!
//! Two façades are available:
//!
//! * [`AnalysisSession`] — the lazy, memoising query session: stage
//!   artifacts built on first use, one [`RunCtx`] for telemetry and
//!   governance, one [`Query`] → [`SliceResult`] shape, and
//!   [`AnalysisSession::query_batch`] for many queries at once through the
//!   one batch engine ([`batch`]);
//! * [`Analysis`] — the eager context-insensitive pipeline, convenient
//!   for scripts and tests that slice a program once.
//!
//! # Examples
//!
//! ```
//! use thinslice::Analysis;
//!
//! // The paper's Figure 1 in miniature.
//! let analysis = Analysis::build(&[(
//!     "names.mj",
//!     "class Main { static void main() {\n\
//!         Vector names = new Vector();\n\
//!         String first = \"John\";\n\
//!         names.add(first);\n\
//!         String got = (String) names.get(0);\n\
//!         print(got);\n\
//!     } }",
//! )])?;
//! let seed = analysis.seed_at_line("names.mj", 6).unwrap();
//! let thin = analysis.thin_slice(&seed);
//! let trad = analysis.traditional_slice(&seed);
//! assert!(thin.len() < trad.len());
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```

pub mod batch;
pub mod expand;
pub mod inspect;
#[cfg(test)]
mod order_tests;
pub mod report;
pub mod session;
pub mod slice;
pub mod snapshot;
mod stmtset;
pub mod tabulation;

pub use batch::{FaultInjection, QueryError, QueryOutcome};
pub use expand::{
    explain_aliasing, explain_aliasing_ctx, exposed_control_deps, heap_flow_pairs, AliasExplanation,
};
pub use inspect::{simulate_inspection, InspectTask, InspectionResult};
pub use session::{
    AnalysisSession, BatchOptions, Engine, Query, QueryPolicy, SliceResult, UpdateStats,
};
pub use slice::{Slice, SliceKind, SliceScratch};
pub use snapshot::{source_hash, SnapshotLoad, SnapshotStore};
pub use stmtset::StmtSet;
pub use tabulation::{CsScratch, DownConsumers, MemoStats};
pub use thinslice_util::{
    Budget, CancelToken, Completeness, ExhaustReason, Meter, Outcome, RunCtx, RunReport, Telemetry,
};

use thinslice_ir::{compile, CompileError, Program, StmtRef};
use thinslice_pta::{ModRef, Pta, PtaConfig};
use thinslice_sdg::{build_cs, FrozenSdg, NodeId, Sdg};

/// Per-stage completeness of a governed analysis build (see
/// [`AnalysisSession::build_report`]).
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Whether the points-to solve reached its fixpoint.
    pub pta: Completeness,
    /// Whether SDG construction processed every instance and heap access.
    pub sdg: Completeness,
}

impl BuildReport {
    /// Whether every stage ran to completion.
    pub fn is_complete(&self) -> bool {
        self.pta.is_complete() && self.sdg.is_complete()
    }
}

/// A compiled program plus the analyses slicing needs: points-to results,
/// call graph and the context-insensitive dependence graph, all built
/// eagerly.
///
/// For lazy stage construction, governance, telemetry or
/// context-sensitive queries, use [`AnalysisSession`]; an `Analysis` is
/// what [`AnalysisSession::into_analysis`] leaves behind.
#[derive(Debug)]
pub struct Analysis {
    /// The compiled program.
    pub program: Program,
    /// Points-to and call-graph results.
    pub pta: Pta,
    /// The context-insensitive dependence graph (direct heap edges).
    pub sdg: Sdg,
    /// The same graph frozen into CSR arrays — the representation every
    /// query traverses.
    pub csr: FrozenSdg,
}

impl Analysis {
    /// Compiles `sources` (with the standard library) and runs the default
    /// analysis pipeline.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn build(sources: &[(&str, &str)]) -> Result<Analysis, CompileError> {
        Self::with_config(sources, PtaConfig::default())
    }

    /// Like [`Analysis::build`] with an explicit pointer-analysis
    /// configuration (e.g. [`PtaConfig::without_object_sensitivity`] for
    /// the paper's `NoObjSens` runs).
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn with_config(
        sources: &[(&str, &str)],
        config: PtaConfig,
    ) -> Result<Analysis, CompileError> {
        let program = compile(sources)?;
        Ok(Self::from_program(program, config))
    }

    /// Like [`Analysis::with_config`], with every pipeline stage running
    /// under `ctx` — its telemetry records the pipeline spans, its budget
    /// governs the points-to solve and SDG construction.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn with_ctx(
        sources: &[(&str, &str)],
        config: PtaConfig,
        ctx: &RunCtx,
    ) -> Result<Analysis, CompileError> {
        Ok(AnalysisSession::with_ctx(sources, config, ctx.clone())?.into_analysis())
    }

    /// Runs the analysis pipeline on an already-compiled program.
    pub fn from_program(program: Program, config: PtaConfig) -> Analysis {
        Self::from_program_ctx(program, config, &RunCtx::disabled())
    }

    /// [`Analysis::from_program`] with every stage running under `ctx`.
    pub fn from_program_ctx(program: Program, config: PtaConfig, ctx: &RunCtx) -> Analysis {
        AnalysisSession::from_program(program, config, ctx.clone()).into_analysis()
    }

    /// Builds the context-sensitive (heap-parameter) dependence graph.
    /// Expensive on large programs — that is the paper's point.
    pub fn build_cs_sdg(&self) -> Sdg {
        let modref = ModRef::compute(&self.program, &self.pta);
        build_cs(&self.program, &self.pta, &modref)
    }

    /// All IR statements on `line` of the source file named `file`
    /// (excluding synthetic code), usable as a seed or desired set.
    pub fn stmts_at_line(&self, file: &str, line: u32) -> Vec<StmtRef> {
        self.program.stmts_at_line(file, line).to_vec()
    }

    /// The seed statements for slicing "from `file:line`" — all reachable
    /// statements on that line. Returns `None` when the line has no
    /// reachable statement.
    pub fn seed_at_line(&self, file: &str, line: u32) -> Option<Vec<StmtRef>> {
        let stmts: Vec<StmtRef> = self
            .program
            .stmts_at_line(file, line)
            .iter()
            .copied()
            .filter(|s| self.sdg.stmt_node(*s).is_some())
            .collect();
        if stmts.is_empty() {
            None
        } else {
            Some(stmts)
        }
    }

    fn nodes_of(&self, seeds: &[StmtRef]) -> Vec<NodeId> {
        seeds
            .iter()
            .flat_map(|&s| self.sdg.stmt_nodes_of(s).to_vec())
            .collect()
    }

    fn slice(&self, seeds: &[StmtRef], kind: SliceKind) -> Slice {
        slice::slice_sparse(
            &self.csr,
            &self.nodes_of(seeds),
            kind,
            &mut SliceScratch::new(),
            &mut Meter::unlimited(),
        )
        .0
    }

    /// The thin slice from `seeds`: producer statements only.
    pub fn thin_slice(&self, seeds: &[StmtRef]) -> Slice {
        self.slice(seeds, SliceKind::Thin)
    }

    /// The traditional data slice from `seeds` (all flow dependences,
    /// control handled out of band as in the paper's evaluation).
    pub fn traditional_slice(&self, seeds: &[StmtRef]) -> Slice {
        self.slice(seeds, SliceKind::TraditionalData)
    }

    /// The full Weiser-style slice from `seeds` (including control).
    pub fn full_slice(&self, seeds: &[StmtRef]) -> Slice {
        self.slice(seeds, SliceKind::TraditionalFull)
    }

    /// Runs the §6.1 breadth-first inspection simulation.
    pub fn inspect(&self, task: &InspectTask, kind: SliceKind) -> InspectionResult {
        simulate_inspection(&self.program, &self.csr, task, kind)
    }

    /// Explains the aliasing between two heap accesses in a thin slice
    /// (paper §4.1).
    ///
    /// # Errors
    ///
    /// See [`expand::explain_aliasing`].
    pub fn explain_aliasing(
        &self,
        load: StmtRef,
        store: StmtRef,
    ) -> Result<AliasExplanation, expand::ExpandError> {
        explain_aliasing(&self.program, &self.pta, &self.sdg, load, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1, transliterated to MJ (the stdlib provides the
    /// Vector; readNames/printNames/main as in the paper).
    const FIGURE1: &str = r#"class Names {
    static Vector readNames(InputStream input) {
        Vector firstNames = new Vector();
        while (!input.eof()) {
            String fullName = input.readLine();
            int spaceInd = fullName.indexOf(" ");
            String firstName = fullName.substring(0, spaceInd - 1);
            firstNames.add(firstName);
        }
        return firstNames;
    }
    static void printNames(Vector firstNames) {
        for (int i = 0; i < firstNames.size(); i++) {
            String firstName = (String) firstNames.get(i);
            print("FIRST NAME: " + firstName);
        }
    }
}
class SessionState {
    Vector names;
    void setNames(Vector v) { this.names = v; }
    Vector getNames() { return this.names; }
}
class Main {
    static SessionState state;
    static SessionState getState() {
        if (Main.state == null) { Main.state = new SessionState(); }
        return Main.state;
    }
    static void main() {
        Vector firstNames = Names.readNames(new InputStream("input"));
        SessionState s = Main.getState();
        s.setNames(firstNames);
        SessionState t = Main.getState();
        Names.printNames(t.getNames());
    }
}"#;

    #[test]
    fn figure1_thin_slice_matches_the_paper() {
        let a = Analysis::build(&[("fig1.mj", FIGURE1)]).unwrap();
        // Seed: the print at line 15 of fig1.mj.
        let seed = a
            .seed_at_line("fig1.mj", 15)
            .expect("print line is reachable");
        let thin = a.thin_slice(&seed);
        let trad = a.traditional_slice(&seed);

        let lines_of = |s: &Slice| -> Vec<u32> {
            let mut ls: Vec<u32> = s
                .stmts
                .iter()
                .map(|&st| a.program.instr(st).span)
                .filter(|sp| !sp.is_synthetic() && a.program.files[sp.file].name == "fig1.mj")
                .map(|sp| sp.line)
                .collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        };
        let thin_lines = lines_of(&thin);
        let trad_lines = lines_of(&trad);

        // The paper's six underlined statements map to these fig1.mj lines:
        //  7  (substring — the buggy producer)
        //  8  (firstNames.add(firstName))
        // 14  (firstNames.get(i))
        // 15  (the print itself)
        for expected in [7u32, 8, 14, 15] {
            assert!(
                thin_lines.contains(&expected),
                "thin slice must contain fig1.mj:{expected}; got {thin_lines:?}"
            );
        }
        // Explainers excluded from the thin slice but present in the
        // traditional slice: the container construction (line 3) and the
        // SessionState plumbing (lines 21-22).
        for excluded in [3u32, 21, 22] {
            assert!(
                !thin_lines.contains(&excluded),
                "thin slice must NOT contain fig1.mj:{excluded}; got {thin_lines:?}"
            );
            assert!(
                trad_lines.contains(&excluded),
                "traditional slice must contain fig1.mj:{excluded}; got {trad_lines:?}"
            );
        }
        assert!(thin_lines.len() < trad_lines.len());
    }

    #[test]
    fn seed_at_line_misses_unreachable_code() {
        let a = Analysis::build(&[(
            "t.mj",
            "class Dead { void never() {\nprint(1);\n} }\nclass Main { static void main() { print(2); } }",
        )])
        .unwrap();
        assert!(
            a.seed_at_line("t.mj", 2).is_none(),
            "never() is unreachable"
        );
        assert!(a.seed_at_line("t.mj", 4).is_some());
    }

    #[test]
    fn inspection_favors_thin_slicing_on_figure1() {
        let a = Analysis::build(&[("fig1.mj", FIGURE1)]).unwrap();
        let seed = a.seed_at_line("fig1.mj", 15).unwrap();
        let buggy = a.stmts_at_line("fig1.mj", 7); // the substring line
        let task = InspectTask {
            seeds: seed,
            desired: vec![buggy],
        };
        let thin = a.inspect(&task, SliceKind::Thin);
        let trad = a.inspect(&task, SliceKind::TraditionalData);
        assert!(thin.found_all && trad.found_all);
        assert!(
            thin.inspected < trad.inspected,
            "thin={} trad={}",
            thin.inspected,
            trad.inspected
        );
    }

    #[test]
    fn session_and_facade_agree() {
        let a = Analysis::build(&[("fig1.mj", FIGURE1)]).unwrap();
        let mut s = AnalysisSession::new(&[("fig1.mj", FIGURE1)]).unwrap();
        let seed = a.seed_at_line("fig1.mj", 15).unwrap();
        assert_eq!(s.seed_at_line("fig1.mj", 15).unwrap(), seed);
        let facade = a.thin_slice(&seed);
        let session = s.query(&Query::new(seed, SliceKind::Thin, Engine::Ci));
        assert_eq!(facade.stmts, session.stmts);
        assert_eq!(facade.visited, session.visited);
    }
}
