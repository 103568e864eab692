//! Benchmark, bug and tough-cast specifications.
//!
//! Seeds and desired statements are anchored by *source snippets* rather
//! than line numbers, so the MJ programs can be edited without silently
//! corrupting the experiment definitions.

use thinslice::{AnalysisSession, InspectTask, RunCtx};

/// A benchmark program: a name and its MJ sources.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name (matches the paper's benchmark names).
    pub name: &'static str,
    /// `(file name, source)` pairs.
    pub sources: Vec<(&'static str, &'static str)>,
}

impl Benchmark {
    /// Opens an [`AnalysisSession`] on the benchmark — the query
    /// entrypoint the experiments and tests drive.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark sources fail to compile — they are fixtures
    /// and must always build.
    pub fn session(&self, config: thinslice_pta::PtaConfig, ctx: RunCtx) -> AnalysisSession {
        AnalysisSession::with_ctx(&self.sources, config, ctx)
            .unwrap_or_else(|e| panic!("benchmark {} failed to compile: {e}", self.name))
    }
}

/// A point in a benchmark source, identified by file and a unique snippet
/// of the line's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// File name within the benchmark.
    pub file: &'static str,
    /// Substring uniquely identifying the line.
    pub snippet: &'static str,
}

/// What kind of experiment a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A debugging task (Table 2): seed = failure point, desired = the
    /// injected bug.
    Bug,
    /// A program-understanding task (Table 3): seed = a tough cast,
    /// desired = the statements establishing the safety invariant.
    ToughCast,
}

/// One experimental task (a row of Table 2 or Table 3).
#[derive(Debug, Clone)]
pub struct Task {
    /// Row id, e.g. `"nanoxml-1"`.
    pub id: &'static str,
    /// The benchmark the task runs on.
    pub benchmark: &'static str,
    /// Bug or tough cast.
    pub kind: TaskKind,
    /// Where the slice starts.
    pub seed: Marker,
    /// What must be discovered; each entry is one desired statement.
    pub desired: Vec<Marker>,
    /// The manually pre-determined relevant control dependences (the
    /// paper's `#Control` column; added to both slicers' counts).
    pub control_deps: u32,
    /// Whether completing the task requires one level of aliasing
    /// expansion (paper §4.1; nanoxml-5 in Table 2).
    pub needs_alias_expansion: bool,
    /// The paper's reported `#Thin` (for EXPERIMENTS.md comparison).
    pub paper_thin: u32,
    /// The paper's reported `#Trad` column.
    pub paper_trad: u32,
}

/// Finds the 1-based line containing `snippet` in `src`.
///
/// # Panics
///
/// Panics if the snippet is missing or ambiguous — specs must be exact.
pub fn line_with(src: &str, snippet: &str) -> u32 {
    let matches: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(snippet))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    match matches.as_slice() {
        [one] => *one,
        [] => panic!("snippet {snippet:?} not found"),
        many => panic!("snippet {snippet:?} ambiguous: lines {many:?}"),
    }
}

impl Task {
    /// Resolves the task to concrete IR statements against a session on
    /// its benchmark.
    ///
    /// # Panics
    ///
    /// Panics if a marker resolves to a line with no reachable statement —
    /// that indicates a broken spec.
    pub fn resolve(&self, benchmark: &Benchmark, session: &mut AnalysisSession) -> InspectTask {
        let line_of_marker = |m: &Marker| -> (&'static str, u32) {
            let src = benchmark
                .sources
                .iter()
                .find(|(f, _)| *f == m.file)
                .unwrap_or_else(|| panic!("{}: no file {}", self.id, m.file));
            (m.file, line_with(src.1, m.snippet))
        };
        let (seed_file, seed_line) = line_of_marker(&self.seed);
        let seeds = session
            .seed_at_line(seed_file, seed_line)
            .unwrap_or_else(|| {
                panic!("{}: seed line {seed_file}:{seed_line} unreachable", self.id)
            });
        let desired = self
            .desired
            .iter()
            .map(|m| {
                let (f, l) = line_of_marker(m);
                let stmts = session.stmts_at_line(f, l);
                assert!(
                    !stmts.is_empty(),
                    "{}: desired line {f}:{l} has no statements",
                    self.id
                );
                stmts
            })
            .collect();
        InspectTask { seeds, desired }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_with_finds_unique_lines() {
        let src = "a\nbb\nccc\n";
        assert_eq!(line_with(src, "bb"), 2);
        assert_eq!(line_with(src, "ccc"), 3);
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn line_with_missing_panics() {
        line_with("a\nb\n", "zzz");
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn line_with_ambiguous_panics() {
        line_with("xx\nxx\n", "xx");
    }
}
