//! Chaos proptests for the ingest path: corrupted, arbitrary or
//! structurally hostile input must parse or return a positional error —
//! never panic — and lenient fusion must always deliver whatever still
//! parses.

use multirag_faults::{corrupt_text, CorruptionKind};
use multirag_ingest::{
    fuse_sources_with, load_into_graph, IngestError, IngestMode, ParseError, RawSource,
    SourceFormat,
};
use multirag_kg::{Object, Value};
use proptest::prelude::*;

/// A small well-formed document per format, with enough structure
/// (quotes, nesting, unicode) that bit flips and truncations can land
/// somewhere interesting.
fn sample_content(format: SourceFormat) -> &'static str {
    match format {
        SourceFormat::Csv => {
            "title,year,director,note\nHeat,1995,Mann,\"crime, drama\"\nAm\u{00e9}lie,2001,Jeunet,\"caf\u{00e9} scene\"\nTenet,2020,Nolan,\"time \"\"stuff\"\"\"\n"
        }
        SourceFormat::Json => {
            "[{\"name\":\"Heat\",\"year\":1995,\"cast\":[\"Pacino\",\"De Niro\"]},{\"name\":\"Am\u{00e9}lie\",\"year\":2001,\"tags\":{\"mood\":\"whimsical\"}}]"
        }
        SourceFormat::Xml => {
            "<films><film id=\"1\"><name>Heat</name><year>1995</year></film><film id=\"2\"><name>Am\u{00e9}lie</name><year>2001</year></film></films>"
        }
        SourceFormat::Kg => {
            "# dump\nHeat|year|1995\nHeat|director|Mann\nAm\u{00e9}lie|year|2001\n"
        }
        SourceFormat::Text => "Heat opens with a heist.\n\nAm\u{00e9}lie is set in Montmartre.\n",
    }
}

fn any_format() -> impl Strategy<Value = SourceFormat> {
    prop_oneof![
        Just(SourceFormat::Csv),
        Just(SourceFormat::Json),
        Just(SourceFormat::Xml),
        Just(SourceFormat::Kg),
        Just(SourceFormat::Text),
    ]
}

fn any_corruption() -> impl Strategy<Value = CorruptionKind> {
    prop_oneof![
        Just(CorruptionKind::BitFlip),
        Just(CorruptionKind::Truncation)
    ]
}

/// One CSV cell: numeric extremes and non-finite spellings, quoted
/// commas, quotes and newlines, empties and short plain text.
fn csv_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("1e999".to_string()),
        Just("-0".to_string()),
        Just("9223372036854775808".to_string()),
        Just("NaN".to_string()),
        Just("inf".to_string()),
        Just("\"a,b\"".to_string()),
        Just("\"say \"\"hi\"\"\"".to_string()),
        Just("\"two\nlines\"".to_string()),
        Just(String::new()),
        "[a-z0-9 .-]{1,6}",
    ]
}

/// A CSV document whose header names come from a three-name alphabet,
/// so repeats are common, above ragged rows.
fn structural_csv() -> impl Strategy<Value = (Vec<&'static str>, String)> {
    (
        proptest::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c")], 1..5),
        proptest::collection::vec(proptest::collection::vec(csv_cell(), 1..6), 0..6),
    )
        .prop_map(|(headers, rows)| {
            let mut content = headers.join(",");
            for row in rows {
                content.push('\n');
                content.push_str(&row.join(","));
            }
            content.push('\n');
            (headers, content)
        })
}

/// An error is positional when its line and column are those of its
/// offset, and the offset lies inside the input (`ParseError::at`
/// clamps it there).
fn assert_positional(err: &ParseError, content: &str) -> Result<(), TestCaseError> {
    let at = ParseError::at(err.format, content, err.offset, err.message.clone());
    prop_assert_eq!(&at, err);
    Ok(())
}

fn source(format: SourceFormat, content: String) -> RawSource {
    RawSource {
        name: format!("chaos.{}", format.tag()),
        domain: "movies".to_string(),
        format,
        content,
    }
}

proptest! {
    /// Seeded corruption of valid documents: every adapter either
    /// parses the wreckage or reports an error. Lenient fusion always
    /// succeeds, and its output loads into a graph without panicking.
    #[test]
    fn corrupted_sources_parse_or_error(
        seed in any::<u64>(),
        kind in any_corruption(),
        format in any_format(),
    ) {
        let corrupted = corrupt_text(kind, seed, "chaos", sample_content(format));
        let sources = [source(format, corrupted)];
        let _ = fuse_sources_with(&sources, IngestMode::Strict);
        let report = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
        let _ = load_into_graph(&sources, &report.adapted);
    }

    /// Arbitrary text through every adapter: parses or errors, never
    /// panics, in both modes.
    #[test]
    fn arbitrary_input_never_panics(
        input in "\\PC{0,200}",
        format in any_format(),
    ) {
        let sources = [source(format, input)];
        let _ = fuse_sources_with(&sources, IngestMode::Strict);
        let report = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
        let _ = load_into_graph(&sources, &report.adapted);
    }

    /// Truncating a valid document at every byte boundary — the classic
    /// half-written-file crash — must never panic an adapter.
    #[test]
    fn truncation_at_any_boundary_is_safe(
        format in any_format(),
        fraction in 0.0f64..1.0,
    ) {
        let full = sample_content(format);
        let mut cut = (full.len() as f64 * fraction) as usize;
        while cut < full.len() && !full.is_char_boundary(cut) {
            cut += 1;
        }
        let sources = [source(format, full[..cut].to_string())];
        let _ = fuse_sources_with(&sources, IngestMode::Strict);
        let _ = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
    }

    /// Structural CSV: a repeated header fails strict fusion and is one
    /// lenient diagnostic; any other failure is positional too; lenient
    /// output always loads, and every float that reaches the graph is
    /// finite.
    #[test]
    fn structural_csv_parses_or_fails_positionally((headers, content) in structural_csv()) {
        let sources = [source(SourceFormat::Csv, content.clone())];
        let repeated = headers.iter().enumerate().any(|(i, h)| headers[..i].contains(h));
        let strict = fuse_sources_with(&sources, IngestMode::Strict);
        let report = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
        match &strict {
            Ok(_) => prop_assert!(!repeated, "a repeated header must fail"),
            Err(IngestError::Parse(err)) => {
                assert_positional(err, &content)?;
                prop_assert_eq!(err.message.contains("repeated header"), repeated);
                prop_assert_eq!(report.diagnostics.len(), 1);
                prop_assert_eq!(&report.diagnostics[0].error, err);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        let kg = load_into_graph(&sources, &report.adapted).unwrap();
        for (_, triple) in kg.iter_triples() {
            if let Object::Literal(Value::Float(f)) = &triple.object {
                prop_assert!(f.is_finite(), "non-finite float {f} in the graph");
            }
        }
    }
}
