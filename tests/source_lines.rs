//! `SourceFile::line` agrees with `str::lines` on every real input.
//!
//! The line lookup indexes a file's line starts on first use; this pins
//! that index to `text.lines().nth(n - 1)` for every line number from 0
//! to past the end, over every suite file, the stdlib, generated programs
//! and programs restored from session snapshots. The edge cases (empty
//! text, lone `\n`, `\r\n`, a final `\r`, …) are unit tests in `ir`.

use thinslice::{AnalysisSession, RunCtx};
use thinslice_ir::{Program, SourceFile};
use thinslice_pta::PtaConfig;
use thinslice_suite::generator::{generate, GeneratorConfig};

fn assert_lines_match(file: &SourceFile, origin: &str) {
    let text = file.text();
    let count = text.lines().count() as u32;
    for n in 0..=count + 2 {
        let want = (n as usize)
            .checked_sub(1)
            .and_then(|i| text.lines().nth(i));
        assert_eq!(file.line(n), want, "{origin}: {}:{n}", file.name);
    }
}

fn assert_program_lines_match(program: &Program, origin: &str) {
    for file in program.files.iter() {
        assert_lines_match(file, origin);
    }
}

/// Every suite program and a few generated ones, as `(origin, sources)`.
fn corpus() -> Vec<(String, Vec<(String, String)>)> {
    let mut out: Vec<(String, Vec<(String, String)>)> = thinslice_suite::all_benchmarks()
        .into_iter()
        .map(|b| {
            let sources = b
                .sources
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect();
            (b.name.to_string(), sources)
        })
        .collect();
    for (scale, seed) in [(1, 7), (2, 11), (4, 23)] {
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::scaled(scale)
        };
        let text = generate(&config);
        out.push((format!("gen-x{scale}"), vec![("gen.mj".into(), text)]));
    }
    out
}

#[test]
fn line_matches_str_lines_on_compiled_and_restored_programs() {
    for (origin, sources) in corpus() {
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let mut session = AnalysisSession::new(&refs).unwrap();
        // The stdlib is file 0 of every compiled program.
        assert_eq!(session.program().files.len(), sources.len() + 1);
        assert_program_lines_match(session.program(), &origin);

        session.ci_graph();
        let bytes = session.write_snapshot("k").expect("complete stages");
        let restored =
            AnalysisSession::from_snapshot(&bytes, "k", PtaConfig::default(), RunCtx::disabled())
                .expect("snapshot restores");
        assert_program_lines_match(restored.program(), &format!("{origin} (restored)"));
    }
}
