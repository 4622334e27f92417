//! Property-based round-trip tests for the ingest parsers.

use multirag_ingest::json::{self, JsonValue};
use multirag_ingest::xml::{self, XmlElement, XmlNode};
use multirag_ingest::{csv, ColumnStore};
use multirag_kg::Value;
use proptest::prelude::*;

// -------------------------------------------------------------------
// JSON
// -------------------------------------------------------------------

fn json_value(depth: u32) -> BoxedStrategy<JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(JsonValue::Int),
        (-1.0e9f64..1.0e9).prop_map(JsonValue::Float),
        "[a-zA-Z0-9 _\\-\"'\\\\\n\t\u{00e9}\u{4e16}]{0,16}".prop_map(JsonValue::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..6).prop_map(|members| {
                // Deduplicate keys: our parser keeps duplicates, but we
                // compare trees post-parse, so keys must be unique.
                let mut seen = std::collections::HashSet::new();
                JsonValue::Object(
                    members
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
    .boxed()
}

proptest! {
    /// serialize → parse is the identity on JSON trees.
    #[test]
    fn json_round_trip(value in json_value(3)) {
        let text = json::to_string(&value);
        let reparsed = json::parse(&text).unwrap();
        prop_assert_eq!(reparsed, value);
    }

    /// Arbitrary strings survive escaping.
    #[test]
    fn json_string_escaping_round_trip(s in "\\PC{0,32}") {
        let value = JsonValue::Str(s.clone());
        let reparsed = json::parse(&json::to_string(&value)).unwrap();
        prop_assert_eq!(reparsed.as_str(), Some(s.as_str()));
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn json_parser_total(input in "\\PC{0,64}") {
        let _ = json::parse(&input);
    }
}

// -------------------------------------------------------------------
// CSV
// -------------------------------------------------------------------

proptest! {
    /// Table → text → table preserves shape and cell values.
    #[test]
    fn csv_round_trip(
        headers in proptest::collection::vec("[a-z]{1,6}", 1..5),
        cells in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9 ,\"\n\u{00fc}]{0,12}", 1..5),
            0..6,
        ),
    ) {
        // Unique headers, rectangular rows.
        let mut headers = headers;
        headers.sort();
        headers.dedup();
        let width = headers.len();
        let rows: Vec<Vec<Value>> = cells
            .into_iter()
            .map(|row| {
                let mut row: Vec<Value> = row.into_iter().map(Value::from).collect();
                row.resize(width, Value::Null);
                row.truncate(width);
                row
            })
            .collect();
        let table = csv::Table { headers, rows };
        let text = csv::to_string(&table);
        let reparsed = csv::parse(&text).unwrap();
        prop_assert_eq!(&reparsed.headers, &table.headers);
        prop_assert_eq!(reparsed.rows.len(), table.rows.len());
        for (orig_row, new_row) in table.rows.iter().zip(&reparsed.rows) {
            for (orig, new) in orig_row.iter().zip(new_row) {
                // Sniffing may re-type ("12" → Int), so compare canonically.
                let orig_key = orig.canonical_key();
                let new_key = new.canonical_key();
                let equivalent = orig_key == new_key
                    // Unquoted empty strings reparse as Null.
                    || (orig.as_str() == Some("") && new.is_null())
                    // Whitespace-only unquoted strings get trimmed.
                    || (orig.as_str().is_some_and(|s| s.trim().is_empty()) && new.is_null())
                    // Unquoted strings get trimmed.
                    || (orig.as_str().map(str::trim).map(str::to_lowercase)
                        == new.as_str().map(str::to_lowercase))
                    // Numeric-looking strings re-type to numbers; compare text.
                    || orig.as_str().is_some_and(|s| s.trim().to_lowercase() == new.to_string().to_lowercase());
                prop_assert!(equivalent, "cell mismatch: {:?} vs {:?}", orig, new);
            }
        }
    }

    /// The CSV parser never panics.
    #[test]
    fn csv_parser_total(input in "\\PC{0,64}") {
        let _ = csv::parse(&input);
    }
}

// -------------------------------------------------------------------
// XML
// -------------------------------------------------------------------

fn xml_tree(depth: u32) -> BoxedStrategy<XmlElement> {
    let name = "[a-z][a-z0-9]{0,6}";
    let attrs = proptest::collection::vec(("[a-z]{1,5}", "[a-zA-Z0-9 &<>'\"]{0,10}"), 0..3)
        .prop_map(|attrs| {
            let mut seen = std::collections::HashSet::new();
            attrs
                .into_iter()
                .filter(|(k, _)| seen.insert(k.clone()))
                .collect::<Vec<_>>()
        });
    let leaf =
        (name, attrs.clone(), "[a-zA-Z0-9 &<>]{0,12}").prop_map(|(name, attributes, text)| {
            let children = if text.trim().is_empty() {
                vec![]
            } else {
                vec![XmlNode::Text(text)]
            };
            XmlElement {
                name,
                attributes,
                children,
            }
        });
    leaf.prop_recursive(depth, 32, 4, move |inner| {
        (
            "[a-z][a-z0-9]{0,6}",
            proptest::collection::vec(("[a-z]{1,5}", "[a-zA-Z0-9 ]{0,8}"), 0..3).prop_map(
                |attrs| {
                    let mut seen = std::collections::HashSet::new();
                    attrs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect::<Vec<_>>()
                },
            ),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attributes, kids)| XmlElement {
                name,
                attributes,
                children: kids.into_iter().map(XmlNode::Element).collect(),
            })
    })
    .boxed()
}

proptest! {
    /// serialize → parse is the identity on XML trees (modulo text
    /// trimming at the edges, which the generator avoids by using
    /// non-whitespace-only text).
    #[test]
    fn xml_round_trip(tree in xml_tree(3)) {
        let text = xml::to_string(&tree);
        let reparsed = xml::parse(&text).unwrap();
        prop_assert_eq!(reparsed, tree);
    }

    /// The XML parser never panics.
    #[test]
    fn xml_parser_total(input in "\\PC{0,64}") {
        let _ = xml::parse(&input);
    }
}

// -------------------------------------------------------------------
// DSM
// -------------------------------------------------------------------

proptest! {
    /// The inverted index always agrees with a full column scan.
    #[test]
    fn dsm_index_matches_scan(
        rows in proptest::collection::vec(
            proptest::collection::vec(-3i64..3, 3),
            0..20,
        ),
    ) {
        let mut store = ColumnStore::new(&["a", "b", "c"]);
        for row in &rows {
            store.push_row(row.iter().map(|&v| Value::Int(v)).collect());
        }
        for needle in -3i64..3 {
            let needle = Value::Int(needle);
            for (col_idx, name) in ["a", "b", "c"].iter().enumerate() {
                let via_index = store.column(name).unwrap().rows_with(&needle).to_vec();
                let via_scan: Vec<u32> = rows
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| Value::Int(row[col_idx]) == needle)
                    .map(|(i, _)| i as u32)
                    .collect();
                prop_assert_eq!(via_index, via_scan);
            }
        }
    }
}
