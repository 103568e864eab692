//! `Json::parse`'s string decoder against the one it replaced.
//!
//! The decoder copies each run of bytes up to the next `"` or `\` in one
//! step. The reference below is the earlier decoder, kept verbatim in
//! behaviour: it copies one UTF-8 scalar at a time and validates each.
//! Seeded documents holding one string literal mix plain runs, every
//! escape, 1- to 4-byte characters, raw control characters, bad and
//! truncated escapes, missing closing quotes and trailing data; for each,
//! both decoders must return the same value or the same error message.

use thinslice_util::telemetry::Json;
use thinslice_util::SmallRng;

/// The earlier string decoder: one UTF-8 scalar per step.
fn reference_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(str::to_string)?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// What `Json::parse` returned for a document that starts with a string
/// literal, with the reference decoder in place of its own.
fn reference(doc: &str) -> Result<Json, String> {
    let b = doc.as_bytes();
    let mut pos = 0;
    let s = reference_string(b, &mut pos)?;
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(Json::Str(s))
}

/// Pieces a string body is built from: plain runs, every escape, good and
/// bad `\u` escapes, multi-byte characters, raw control characters, a
/// bad escape and a backslash before a multi-byte character.
const PIECES: &[&str] = &[
    "a",
    "plain run of ascii ",
    "x = 1;",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\t",
    "\\r",
    "\\b",
    "\\f",
    "\\u00e9",
    "\\u0041",
    "\\u20AC",
    "\\ud800",
    "\\u+0e9",
    "\\u12",
    "\\uzzzz",
    "\\u\u{e9}12",
    "\\u\u{20ac}",
    "\\x",
    "\\\u{e9}",
    "\u{e9}",
    "\u{2200}",
    "\u{1f600}",
    "\u{1}",
    "\u{7f}",
    "\t",
    "\n",
    "\r",
];

/// A document: an opening quote, a body of random pieces, then usually a
/// closing quote, sometimes followed by whitespace or trailing data.
fn document(rng: &mut SmallRng) -> String {
    let mut doc = String::from("\"");
    for _ in 0..rng.range_usize(0, 12) {
        doc.push_str(rng.choose::<&str>(PIECES));
    }
    match rng.range_usize(0, 10) {
        0 => {}                         // unterminated
        1 => doc.push('\\'),            // a backslash at the very end
        2 => doc.push_str("\" \r\n"),   // whitespace after the literal
        3 => doc.push_str("\" \u{e9}"), // trailing data
        _ => doc.push('"'),
    }
    doc
}

#[test]
fn run_copying_decoder_matches_the_scalar_decoder() {
    let mut rng = SmallRng::new(0x0dd5_7e1c);
    let (mut values, mut errors) = (0, 0);
    for _ in 0..20_000 {
        let doc = document(&mut rng);
        let want = reference(&doc);
        assert_eq!(Json::parse(&doc), want, "document {doc:?}");
        match want {
            Ok(_) => values += 1,
            Err(_) => errors += 1,
        }
    }
    // Both outcomes are common, so each side of the comparison is tested.
    assert!(
        values > 2_000 && errors > 2_000,
        "{values} values, {errors} errors"
    );
}

#[test]
fn run_boundaries_decode_like_the_reference() {
    for doc in [
        "\"\"",
        "\"abc\"",
        "\"\\\"\"",
        "\"\\\\\\\\\"",
        "\"a\\\"b\\\\c\\nd\\u00e9e\"",
        "\"\u{e9}\\n\u{2200}\\t\u{1f600}\"",
        "\"\u{1f600}\\u00e9\u{1f600}\"",
        "\"\u{1}\u{1f}\t\n\r\"",
        "\"unterminated",
        "\"unterminated \u{1f600}",
        "\"ends in a backslash\\",
        "\"bad \\q escape\"",
        "\"bad \\\u{1f600} escape\"",
        "\"truncated \\u00",
        "\"split \\u\u{1f600}\"",
        "\"trailing\" x",
    ] {
        assert_eq!(Json::parse(doc), reference(doc), "document {doc:?}");
    }
}
