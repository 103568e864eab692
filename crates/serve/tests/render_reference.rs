//! Slice responses pinned byte for byte against an independent renderer.
//!
//! The served path renders a slice through `report::stmt_lines` (each
//! source line looked up in its file's line index, duplicate lines
//! dropped with a hash set) and `protocol::slice_line` (lines escaped
//! straight into the response buffer). The reference below keeps the
//! straightforward algorithm those replaced: `str::lines().nth` per line,
//! a `BTreeSet` for duplicate lines, `format!` per line and one escaped
//! string per line. Every seed line of every suite program, a generated
//! scale-2 program and a program full of characters JSON must escape is
//! sliced with all four served variants, and both renderings must agree.

use std::collections::BTreeSet;

use thinslice::report::stmt_lines;
use thinslice::{AnalysisSession, Engine, Query, SliceKind, SliceResult};
use thinslice_ir::Program;
use thinslice_serve::pool::program_hash;
use thinslice_serve::protocol::{engine_str, kind_str, slice_line, SourceFile};
use thinslice_serve::{Admission, RESPONSE_SCHEMA};
use thinslice_suite::generator::{generate, GeneratorConfig};
use thinslice_util::Completeness;

/// The four variants a served request asks for.
const VARIANTS: [(SliceKind, Engine); 4] = [
    (SliceKind::Thin, Engine::Ci),
    (SliceKind::TraditionalData, Engine::Ci),
    (SliceKind::TraditionalFull, Engine::Ci),
    (SliceKind::Thin, Engine::Cs),
];

/// A JSON string literal, escaped one character at a time.
fn reference_json(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The slice's source lines: first occurrence of each `(file, line)` in
/// the slice's canonical order, synthetic statements skipped.
fn reference_lines(program: &Program, slice: &SliceResult) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for s in &slice.stmts {
        let span = program.instr(s).span;
        if span.is_synthetic() || !seen.insert((span.file.raw(), span.line)) {
            continue;
        }
        let file = &program.files[span.file];
        let text = file
            .text()
            .lines()
            .nth(span.line as usize - 1)
            .map(str::trim)
            .unwrap_or("<unknown>");
        out.push(format!("{}:{}: {}", file.name, span.line, text));
    }
    out
}

/// The whole `slice` response line.
fn reference_response(
    id: Option<u64>,
    hash: &str,
    program: &Program,
    kind: SliceKind,
    admission: Admission,
    slice: &SliceResult,
) -> String {
    let lines = reference_lines(program, slice);
    let mut out = format!(
        "{{\"schema\":{},\"id\":{},\"ok\":true,\"op\":\"slice\",\"program\":{},\"engine\":{},\
         \"kind\":{},\"admission\":{},\"degraded\":{}",
        reference_json(RESPONSE_SCHEMA),
        id.map_or("null".to_string(), |n| n.to_string()),
        reference_json(hash),
        reference_json(engine_str(slice.engine)),
        reference_json(kind_str(kind)),
        reference_json(admission.as_str()),
        slice.degraded,
    );
    match slice.completeness {
        Completeness::Complete => out.push_str(",\"completeness\":\"complete\""),
        Completeness::Truncated { reason, frontier } => out.push_str(&format!(
            ",\"completeness\":\"truncated\",\"reason\":{},\"frontier\":{frontier}",
            reference_json(&reason.to_string())
        )),
    }
    let escaped: Vec<String> = lines.iter().map(|l| reference_json(l)).collect();
    out.push_str(&format!(
        ",\"stmt_count\":{},\"stmts\":[{}]}}",
        lines.len(),
        escaped.join(",")
    ));
    out
}

/// Slices every seed line of the user files with every variant and
/// compares the served rendering with the reference. Returns how many
/// responses were compared.
fn assert_renderings_agree(name: &str, sources: &[(&str, &str)]) -> usize {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(n, t)| SourceFile {
            name: n.to_string(),
            text: t.to_string(),
        })
        .collect();
    let hash = program_hash(&files);
    let mut session = AnalysisSession::new(sources).unwrap();
    let admissions = [Admission::Full, Admission::DegradeCi, Admission::Truncate];
    let mut compared = 0;
    for (file, text) in sources {
        for line in 1..=text.lines().count() as u32 {
            let Some(seeds) = session.seed_at_line(file, line) else {
                continue;
            };
            for (kind, engine) in VARIANTS {
                let slice = session.query(&Query::new(seeds.clone(), kind, engine));
                // Vary the id and admission fields so the header escapes
                // are pinned too.
                let id = (compared % 5 != 0).then_some(compared as u64);
                let admission = admissions[compared % admissions.len()];
                let served = slice_line(
                    id,
                    &hash,
                    slice.engine,
                    kind,
                    admission,
                    slice.degraded,
                    slice.completeness,
                    &stmt_lines(session.program(), &slice.stmts),
                );
                let want =
                    reference_response(id, &hash, session.program(), kind, admission, &slice);
                assert_eq!(served, want, "{name} {file}:{line} {kind:?}/{engine:?}");
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn served_slices_match_the_reference_renderer_on_every_suite_program() {
    for b in thinslice_suite::all_benchmarks() {
        let compared = assert_renderings_agree(b.name, &b.sources);
        assert!(compared > 0, "{} has seed lines", b.name);
    }
}

#[test]
fn served_slices_match_the_reference_renderer_on_a_generated_program() {
    let text = generate(&GeneratorConfig::scaled(2));
    assert!(assert_renderings_agree("gen-x2", &[("gen.mj", &text)]) > 0);
}

#[test]
fn served_slices_escape_like_the_reference_renderer() {
    // CRLF line endings, a final line with no newline, tabs inside lines,
    // and comments holding quotes, backslashes, a control character and
    // non-ASCII text: every escape the response encoder knows.
    let text = "class Main { static void main() {\r\n\
                \tint x = 1;\t// \"quoted\" back\\slash\r\n\
                \r\n\
                int y = x + 2; // é ∀ \u{1} bell\u{7}\r\n\
                String s = \"a\\\\b\";\r\n\
                print(y); print(s); // two seeds, one line\r\n\
                } }";
    let compared = assert_renderings_agree("escapes", &[("odd \"name\".mj", text)]);
    assert_eq!(
        compared,
        5 * 4,
        "five seed lines (the method header among them), four variants each"
    );
}
