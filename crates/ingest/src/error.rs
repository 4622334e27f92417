//! Parse-error reporting shared by the JSON / CSV / XML parsers, and
//! the typed [`IngestError`] the fusion / graph-loading API surfaces.

use std::fmt;

/// Deepest nesting the JSON and XML parsers accept: containers for
/// JSON, elements for XML. Both parsers recurse once per level, and so
/// does every later walk of the tree they return, so deeper input is a
/// [`ParseError`] rather than a stack overflow, which would abort the
/// process where no `catch_unwind` or lenient mode can contain it.
/// Rendered sources nest a handful of levels; the cap leaves ample
/// room above that and still fits a spawned thread's default stack in
/// an unoptimized build.
pub const MAX_NESTING: usize = 256;

/// A parse error with positional context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Which parser produced the error ("json", "csv", "xml").
    pub format: &'static str,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Builds an error at a byte offset, computing line/column from the
    /// original input.
    pub fn at(
        format: &'static str,
        input: &str,
        offset: usize,
        message: impl Into<String>,
    ) -> Self {
        let clamped = offset.min(input.len());
        let prefix = input.as_bytes().get(..clamped).unwrap_or_default();
        let line = prefix.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = clamped
            - prefix
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|p| p + 1)
                .unwrap_or(0)
            + 1;
        Self {
            format,
            offset: clamped,
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} parse error at line {}, column {} (offset {}): {}",
            self.format, self.line, self.column, self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Typed error for the ingest pipeline above the parser layer. Library
/// code propagates this instead of panicking, so malformed or
/// inconsistent inputs surface as structured failures the chaos
/// harness and the CLI can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A source failed to parse or adapt; carries the positional error.
    Parse(ParseError),
    /// A fused claim batch referenced a raw-source index that does not
    /// exist in the source list handed to graph loading — the fusion
    /// output and the source slice are out of sync.
    SourceIndexOutOfRange {
        /// The offending index from the fusion output.
        index: usize,
        /// Number of raw sources actually provided.
        sources: usize,
    },
}

impl From<ParseError> for IngestError {
    fn from(err: ParseError) -> Self {
        IngestError::Parse(err)
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse(err) => err.fmt(f),
            IngestError::SourceIndexOutOfRange { index, sources } => write!(
                f,
                "fused output references source index {index}, but only {sources} raw source(s) were provided"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Parse(err) => Some(err),
            IngestError::SourceIndexOutOfRange { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_line_and_column() {
        let input = "ab\ncd\nef";
        let err = ParseError::at("json", input, 4, "boom");
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 2);
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn clamps_out_of_range_offsets() {
        let err = ParseError::at("csv", "xy", 99, "eof");
        assert_eq!(err.offset, 2);
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 3);
    }

    #[test]
    fn first_line_first_column() {
        let err = ParseError::at("xml", "hello", 0, "start");
        assert_eq!((err.line, err.column), (1, 1));
    }

    #[test]
    fn display_mentions_everything() {
        let err = ParseError::at("json", "x", 0, "unexpected char");
        let text = err.to_string();
        assert!(text.contains("json"));
        assert!(text.contains("line 1"));
        assert!(text.contains("unexpected char"));
    }

    #[test]
    fn ingest_error_wraps_and_explains() {
        let parse = ParseError::at("csv", "x", 0, "boom");
        let wrapped = IngestError::from(parse.clone());
        assert_eq!(wrapped.to_string(), parse.to_string());
        let oob = IngestError::SourceIndexOutOfRange {
            index: 7,
            sources: 3,
        };
        let text = oob.to_string();
        assert!(text.contains('7') && text.contains('3'));
    }
}
