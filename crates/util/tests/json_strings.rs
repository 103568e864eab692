//! `Json::parse`'s string decoder against a reference decoder.
//!
//! The decoder copies each run of bytes up to the next `"`, `\` or
//! control character in one step. The reference below copies one UTF-8
//! scalar at a time and decodes `\u` escapes through
//! `char::decode_utf16`, under the rules of RFC 8259: a raw control
//! character is an error, `\u` takes exactly four hex digits, and a
//! surrogate must be a high one escaped right before a low one. Seeded
//! documents holding one string literal mix plain runs, every escape,
//! surrogate halves, 1- to 4-byte characters, raw control characters, bad
//! and truncated escapes, missing closing quotes and trailing data; for
//! each, both decoders must return the same value or the same error
//! message.

use thinslice_util::telemetry::Json;
use thinslice_util::SmallRng;

/// The UTF-16 unit of the `\u` escape whose `u` is at `pos`, leaving `pos`
/// on its last hex digit.
fn reference_unit(b: &[u8], pos: &mut usize) -> Result<u16, String> {
    let digits = b
        .get(*pos + 1..*pos + 5)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    if !digits.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {pos}"));
    }
    let unit = u16::from_str_radix(std::str::from_utf8(digits).unwrap(), 16).unwrap();
    *pos += 4;
    Ok(unit)
}

/// The reference string decoder: one UTF-8 scalar per step.
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
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "control character {c:#04x} in string at byte {pos}"
                ))
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
                        let at = *pos;
                        let mut units = vec![reference_unit(b, pos)?];
                        let high = (0xD800..0xDC00).contains(&units[0]);
                        if high && b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u')
                        {
                            *pos += 2;
                            units.push(reference_unit(b, pos)?);
                        }
                        match char::decode_utf16(units).next().unwrap() {
                            Ok(c) => out.push(c),
                            Err(e) => {
                                return Err(format!(
                                    "unpaired surrogate \\u{:04x} at byte {at}",
                                    e.unpaired_surrogate()
                                ))
                            }
                        }
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
/// bad `\u` escapes, surrogate pairs and halves, multi-byte characters,
/// raw control characters, a bad escape and a backslash before a
/// multi-byte character.
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
    "\\u0001",
    "\\ud83d\\ude00",
    "\\uDBFF\\uDFFF",
    "\\ud800",
    "\\udc00",
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

#[test]
fn strings_decode_as_rfc_8259_defines_them() {
    let decoded = |doc: &str| {
        assert_eq!(Json::parse(doc), reference(doc), "document {doc:?}");
        Json::parse(doc)
    };
    let value = |s: &str| Ok(Json::Str(s.to_string()));
    // A surrogate pair is one scalar, however its hex digits are cased.
    assert_eq!(decoded("\"\\ud83d\\ude00\""), value("\u{1f600}"));
    assert_eq!(decoded("\"a\\uD83D\\uDE00b\""), value("a\u{1f600}b"));
    for (doc, error) in [
        ("\"\\ud83d\"", "unpaired surrogate \\ud83d at byte 2"),
        ("\"\\ude00\"", "unpaired surrogate \\ude00 at byte 2"),
        ("\"\\ud83d\\u0041\"", "unpaired surrogate \\ud83d at byte 2"),
        ("\"\\ud83d\\ud83d\"", "unpaired surrogate \\ud83d at byte 2"),
        ("\"\\u+0e9\"", "bad \\u escape at byte 2"),
        ("\"\\u0e9\"", "bad \\u escape at byte 2"),
        ("\"\\u12", "truncated \\u escape"),
        ("\"a\tb\"", "control character 0x09 in string at byte 2"),
        ("\"\u{1f}\"", "control character 0x1f in string at byte 1"),
    ] {
        assert_eq!(decoded(doc), Err(error.to_string()), "document {doc:?}");
    }
    // DEL and escaped control characters are fine.
    assert_eq!(decoded("\"\u{7f}\\u0009\""), value("\u{7f}\t"));
}
