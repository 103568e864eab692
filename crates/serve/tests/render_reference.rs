//! Slice responses pinned byte for byte against an independent renderer.
//!
//! The served path renders a slice through `report::stmt_lines` (each
//! distinct source line rendered once per program into its line memo,
//! duplicate lines dropped with a bitset over the program's line
//! numbering) and `protocol::slice_line` (each line's memoized JSON
//! literal copied into the response). The reference below keeps the
//! straightforward algorithm those replaced: `str::lines().nth` per line,
//! a `BTreeSet` for duplicate lines, `format!` per line and one escaped
//! string per line. Every seed line of every suite program, a generated
//! scale-2 program and a program full of characters JSON must escape is
//! sliced with all four served variants, and both renderings must agree.
//! Each of those requests is also sent to an in-process daemon, whose
//! response line must equal the reference too; and a `reload` that
//! rewrites a sliced line must be answered with the new text.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

use thinslice::report::stmt_lines;
use thinslice::{AnalysisSession, Engine, Query, SliceKind, SliceResult};
use thinslice_ir::Program;
use thinslice_serve::pool::program_hash;
use thinslice_serve::protocol::{engine_str, kind_str, slice_line, SourceFile};
use thinslice_serve::{Admission, ServeConfig, Server, RESPONSE_SCHEMA};
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

/// A shared byte sink the daemon writes its response lines into.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A closed-loop client: it hands the daemon its next request line only
/// once every earlier request is answered.
struct ClosedLoop {
    lines: std::vec::IntoIter<String>,
    sink: Sink,
    sent: usize,
    /// Responses counted so far, and how many sink bytes that took.
    answered: usize,
    scanned: usize,
    pending: Vec<u8>,
}

impl Read for ClosedLoop {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            while self.answered < self.sent {
                let out = self.sink.0.lock().unwrap();
                self.answered += out[self.scanned..].iter().filter(|&&b| b == b'\n').count();
                self.scanned = out.len();
                drop(out);
                if self.answered < self.sent {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let Some(line) = self.lines.next() else {
                return Ok(0);
            };
            self.pending = line.into_bytes();
            self.pending.push(b'\n');
            self.sent += 1;
        }
        let n = buf.len().min(self.pending.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// Serves `script` on an in-process daemon at its default one worker, as
/// the chaos suite's closed-loop client does: nothing is buffered behind
/// a request, so the daemon answers every slice on its reader thread, in
/// script order. Returns the response lines.
fn serve_closed_loop(script: Vec<String>) -> Vec<String> {
    let sink = Sink::default();
    let out: thinslice_serve::SharedOut = Arc::new(Mutex::new(sink.clone()));
    let input = ClosedLoop {
        lines: script.into_iter(),
        sink: sink.clone(),
        sent: 0,
        answered: 0,
        scanned: 0,
        pending: Vec::new(),
    };
    Server::new(ServeConfig::default()).serve(input, out);
    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    text.lines().map(str::to_string).collect()
}

/// A `load` request carrying `sources`.
fn load_request(id: u64, sources: &[(&str, &str)]) -> String {
    let files: Vec<String> = sources
        .iter()
        .map(|(name, text)| {
            format!(
                "{{\"name\":{},\"text\":{}}}",
                reference_json(name),
                reference_json(text)
            )
        })
        .collect();
    format!(
        "{{\"op\":\"load\",\"id\":{id},\"sources\":[{}]}}",
        files.join(",")
    )
}

/// A `slice` request for `file:line` on the program loaded under `hash`.
fn slice_request(
    id: Option<u64>,
    hash: &str,
    file: &str,
    line: u32,
    kind: SliceKind,
    engine: Engine,
) -> String {
    format!(
        "{{\"op\":\"slice\",\"id\":{},\"program\":{},\"seed\":{{\"file\":{},\"line\":{line}}},\
         \"kind\":{},\"engine\":{}}}",
        id.map_or("null".to_string(), |n| n.to_string()),
        reference_json(hash),
        reference_json(file),
        reference_json(kind_str(kind)),
        reference_json(engine_str(engine)),
    )
}

/// Slices every seed line of the user files with every variant and
/// compares the served rendering with the reference, both as
/// `slice_line` renders it and as an in-process daemon answers it.
/// Returns how many responses were compared.
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
    // The daemon's script, and the response it must give each request:
    // a lone closed-loop client is always admitted in full.
    let mut script = vec![load_request(0, sources)];
    let mut served_want = Vec::new();
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
                script.push(slice_request(id, &hash, file, line, kind, engine));
                served_want.push((
                    format!("{name} {file}:{line} {kind:?}/{engine:?}"),
                    reference_response(id, &hash, session.program(), kind, Admission::Full, &slice),
                ));
                compared += 1;
            }
        }
    }
    let responses = serve_closed_loop(script);
    assert_eq!(
        responses.len(),
        served_want.len() + 1,
        "{name}: one response per request"
    );
    for (response, (what, want)) in responses[1..].iter().zip(&served_want) {
        assert_eq!(response, want, "daemon: {what}");
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

#[test]
fn a_reload_that_rewrites_a_sliced_line_is_answered_with_the_new_text() {
    let before = "class Main { static void main() {\nint x = 1;\nint y = x + 2;\nprint(y);\n} }";
    // Line 3, which the slice from the print holds, gains a comment: the
    // reload keeps every analysis but swaps the program and its memo.
    let after = "class Main { static void main() {\nint x = 1;\nint y = x + 2; // \"new\" \u{e9}\nprint(y);\n} }";
    let hash = |text: &str| {
        program_hash(&[SourceFile {
            name: "t.mj".to_string(),
            text: text.to_string(),
        }])
    };
    let (h1, h2) = (hash(before), hash(after));
    let slice =
        |id: u64, hash: &str| slice_request(Some(id), hash, "t.mj", 4, SliceKind::Thin, Engine::Ci);
    let reload = format!(
        "{{\"op\":\"reload\",\"id\":3,\"program\":{},\"sources\":[{{\"name\":\"t.mj\",\"text\":{}}}]}}",
        reference_json(&h1),
        reference_json(after)
    );
    let edited = serve_closed_loop(vec![
        load_request(1, &[("t.mj", before)]),
        slice(2, &h1),
        reload,
        slice(4, &h1),
    ]);
    let fresh = serve_closed_loop(vec![load_request(1, &[("t.mj", after)]), slice(4, &h2)]);
    assert!(
        edited[1].contains("\"t.mj:3: int y = x + 2;\""),
        "{}",
        edited[1]
    );
    assert!(edited[2].contains("\"path\":\"noop\""), "{}", edited[2]);
    let new_line = reference_json("t.mj:3: int y = x + 2; // \"new\" \u{e9}");
    assert!(edited[3].contains(&new_line), "{}", edited[3]);
    assert_eq!(
        edited[3].replace(&h1, "_"),
        fresh[1].replace(&h2, "_"),
        "post-reload answer ≡ a fresh daemon's on the edited program"
    );
}
