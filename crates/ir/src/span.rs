//! Source positions and spans.

use std::fmt;
use std::sync::OnceLock;
use thinslice_util::new_index;

new_index!(
    /// Identifies a source file in a [`crate::Program`]'s file table.
    pub struct FileId
);

/// A point in a source file (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// File containing the span.
    pub file: FileId,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Span {
    /// A span pointing at the start of `file`.
    pub fn start_of(file: FileId) -> Self {
        Self {
            file,
            line: 1,
            col: 1,
        }
    }

    /// A placeholder span for synthesized code (file 0, line 0).
    pub fn synthetic() -> Self {
        Self {
            file: FileId::new(0),
            line: 0,
            col: 0,
        }
    }

    /// Whether this span was synthesized by the compiler.
    pub fn is_synthetic(&self) -> bool {
        self.line == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A named source file and its text.
///
/// Line lookups index the text once: the first [`SourceFile::line`] call
/// records where every line starts, and every later call is a slice of
/// the text. The text is therefore read-only after construction.
#[derive(Clone)]
pub struct SourceFile {
    /// Display name of the file (e.g. `"nanoxml.mj"`).
    pub name: String,
    text: String,
    /// Byte offset of each line's first byte, in the line numbering of
    /// [`str::lines`]; built on the first [`SourceFile::line`] call.
    line_starts: OnceLock<Vec<usize>>,
}

impl SourceFile {
    /// A file named `name` holding `text`.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            text: text.into(),
            line_starts: OnceLock::new(),
        }
    }

    /// Full source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Returns the 1-based `line` of the file, if it exists: exactly
    /// `text.lines().nth(line - 1)`, in O(1) once the file is indexed.
    pub fn line(&self, line: u32) -> Option<&str> {
        let starts = self.line_starts();
        let i = (line as usize).checked_sub(1)?;
        let start = *starts.get(i)?;
        let end = starts.get(i + 1).copied().unwrap_or(self.text.len());
        let piece = &self.text[start..end];
        // A `\r` is stripped only together with the `\n` it precedes.
        Some(match piece.strip_suffix('\n') {
            Some(piece) => piece.strip_suffix('\r').unwrap_or(piece),
            None => piece,
        })
    }

    /// How many lines the file has: `text.lines().count()`.
    pub(crate) fn line_count(&self) -> usize {
        self.line_starts().len()
    }

    fn line_starts(&self) -> &[usize] {
        self.line_starts.get_or_init(|| {
            // `str::lines` yields one line per `\n`-terminated piece plus a
            // final unterminated one, so a line starts at 0 and after every
            // `\n`, except at the end of the text.
            let len = self.text.len();
            std::iter::once(0)
                .chain(self.text.match_indices('\n').map(|(i, _)| i + 1))
                .filter(|&start| start < len)
                .collect()
        })
    }
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The line index is derived from `text`; leave it out so a file
        // prints the same before and after its first lookup.
        f.debug_struct("SourceFile")
            .field("name", &self.name)
            .field("text", &self.text)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_span_is_marked() {
        assert!(Span::synthetic().is_synthetic());
        assert!(!Span::start_of(FileId::new(0)).is_synthetic());
    }

    #[test]
    fn source_file_line_lookup() {
        let f = SourceFile::new("t.mj", "a\nb\nc");
        assert_eq!(f.line(2), Some("b"));
        assert_eq!(f.line(0), None);
        assert_eq!(f.line(4), None);
    }

    #[test]
    fn line_matches_str_lines_on_edge_cases() {
        let cases = [
            "",
            "\n",
            "\n\n",
            "a",
            "a\n",
            "a\nb",
            "a\n\nb\n\n",
            "a\r\nb\r\n",
            "a\r\nb",
            "a\r",
            "a\n\r",
            "\r",
            "\r\n",
            "a\rb\r\r\n",
            "  x = 1;  \n\tprint(x);\n",
            "é\nü\r\n∀",
        ];
        for text in cases {
            let f = SourceFile::new("t.mj", text);
            let n = text.lines().count() as u32;
            assert_eq!(f.line_count(), n as usize, "line count of {text:?}");
            for line in 0..=n + 2 {
                let want = (line as usize)
                    .checked_sub(1)
                    .and_then(|i| text.lines().nth(i));
                assert_eq!(f.line(line), want, "line {line} of {text:?}");
            }
            assert_eq!(f.line(u32::MAX), None);
        }
    }

    #[test]
    fn debug_and_clone_ignore_the_line_index() {
        let f = SourceFile::new("t.mj", "a\nb");
        let before = format!("{f:?}");
        assert_eq!(f.line(2), Some("b"));
        assert_eq!(format!("{f:?}"), before);
        let g = f.clone();
        assert_eq!(g.line(1), Some("a"));
        assert_eq!(g.text(), "a\nb");
    }
}
