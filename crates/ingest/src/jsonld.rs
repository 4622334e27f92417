//! JSON-LD normalization (Definition 1 of the paper).
//!
//! Every parsed artifact — a CSV row, a JSON object, an XML element, a
//! text chunk — becomes a [`NormalizedRecord`]
//! `D̂ = {id, d, name, jsc, meta, (cols_index)}`: a unique id, the domain
//! the file belongs to, the file/attribute name, the content re-encoded
//! as JSON-LD linked data, file metadata, and (for columnar formats) the
//! column index that enables DSM-style fast attribute access.

use crate::json::JsonValue;
use multirag_kg::{FxHashMap, Value};

/// The JSON-LD `@context` we stamp on normalized documents.
pub const DEFAULT_CONTEXT: &str = "https://multirag.dev/contexts/record.jsonld";

/// A normalized multi-source record (Definition 1).
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedRecord {
    /// Unique identifier assigned at normalization time.
    pub id: u64,
    /// Domain of the data file ("movies", "flights", …).
    pub domain: String,
    /// File / attribute name the record came from.
    pub name: String,
    /// Content as a JSON-LD document (always an object with `@context`
    /// and `@id` members).
    pub jsc: JsonValue,
    /// File metadata (format, source name, chunk index, …).
    pub meta: FxHashMap<String, String>,
    /// Column index for columnar formats: attribute name → column
    /// position. `None` for tree / text formats.
    pub cols_index: Option<Vec<(String, usize)>>,
}

impl NormalizedRecord {
    /// Builds a record, wrapping `content` into a JSON-LD envelope.
    pub fn new(
        id: u64,
        domain: &str,
        name: &str,
        content: JsonValue,
        meta: FxHashMap<String, String>,
        cols_index: Option<Vec<(String, usize)>>,
    ) -> Self {
        let mut members = vec![
            (
                "@context".to_string(),
                JsonValue::Str(DEFAULT_CONTEXT.into()),
            ),
            (
                "@id".to_string(),
                JsonValue::Str(format!("urn:multirag:{domain}:{name}:{id}")),
            ),
        ];
        match content {
            JsonValue::Object(existing) => {
                for (k, v) in existing {
                    if k != "@context" && k != "@id" {
                        members.push((k, v));
                    }
                }
            }
            other => members.push(("@value".to_string(), other)),
        }
        Self {
            id,
            domain: domain.to_string(),
            name: name.to_string(),
            jsc: JsonValue::Object(members),
            meta,
            cols_index,
        }
    }

    /// Fetches a content attribute. `@`-keywords are envelope fields,
    /// not content, and return `None`; read them via `jsc.get` directly.
    pub fn attribute(&self, key: &str) -> Option<&JsonValue> {
        if key.starts_with('@') {
            return None;
        }
        self.jsc.get(key)
    }

    /// Iterates the content attributes (skipping `@context` / `@id`).
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.jsc
            .as_object()
            .into_iter()
            .flatten()
            .filter(|(k, _)| !k.starts_with('@'))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Flattens the record's content into `(path, scalar)` claims.
    /// Nested containers contribute dotted paths (`legs.0.from`). Used
    /// by the semi-structured adapter to emit attribute claims.
    pub fn flatten(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        for (key, value) in self.attributes() {
            flatten_into(key, value, &mut out);
        }
        out
    }
}

fn flatten_into(path: &str, value: &JsonValue, out: &mut Vec<(String, Value)>) {
    match value {
        JsonValue::Array(items) => {
            // A flat array of scalars is one multi-valued claim; mixed or
            // nested arrays flatten element-wise with positional paths.
            if items.iter().all(|i| !i.is_container()) {
                out.push((
                    path.to_string(),
                    Value::List(items.iter().map(JsonValue::to_value).collect()),
                ));
            } else {
                for (i, item) in items.iter().enumerate() {
                    flatten_into(&format!("{path}.{i}"), item, out);
                }
            }
        }
        JsonValue::Object(members) => {
            for (k, v) in members {
                flatten_into(&format!("{path}.{k}"), v, out);
            }
        }
        scalar => out.push((path.to_string(), scalar.to_value())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn meta() -> FxHashMap<String, String> {
        let mut m = FxHashMap::default();
        m.insert("format".into(), "json".into());
        m
    }

    #[test]
    fn wraps_objects_in_jsonld_envelope() {
        let content = parse(r#"{"status": "delayed", "gate": "C12"}"#).unwrap();
        let rec = NormalizedRecord::new(7, "flights", "feed-a", content, meta(), None);
        assert_eq!(
            rec.jsc.get("@id").unwrap().as_str(),
            Some("urn:multirag:flights:feed-a:7")
        );
        assert_eq!(
            rec.jsc.get("@context").unwrap().as_str(),
            Some(DEFAULT_CONTEXT)
        );
        assert_eq!(rec.attribute("status").unwrap().as_str(), Some("delayed"));
    }

    #[test]
    fn non_object_content_becomes_at_value() {
        let rec = NormalizedRecord::new(1, "d", "n", JsonValue::Int(5), meta(), None);
        assert_eq!(rec.attribute("@value"), None, "@-keys are not attributes");
        assert_eq!(rec.jsc.get("@value").unwrap().as_i64(), Some(5));
    }

    #[test]
    fn existing_at_keys_are_not_duplicated() {
        let content = parse(r#"{"@id": "urn:other", "a": 1}"#).unwrap();
        let rec = NormalizedRecord::new(2, "d", "n", content, meta(), None);
        // Our envelope @id wins; the embedded one is dropped.
        assert_eq!(
            rec.jsc.get("@id").unwrap().as_str(),
            Some("urn:multirag:d:n:2")
        );
        let ids: Vec<_> = rec
            .jsc
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| k == "@id")
            .collect();
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn attributes_skips_keywords() {
        let content = parse(r#"{"a": 1, "b": 2}"#).unwrap();
        let rec = NormalizedRecord::new(3, "d", "n", content, meta(), None);
        let keys: Vec<&str> = rec.attributes().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn flatten_produces_dotted_paths() {
        let content =
            parse(r#"{"legs": [{"from": "PEK"}, {"from": "JFK"}], "code": "CA981"}"#).unwrap();
        let rec = NormalizedRecord::new(4, "flights", "n", content, meta(), None);
        let flat = rec.flatten();
        assert!(flat.contains(&("legs.0.from".to_string(), Value::from("PEK"))));
        assert!(flat.contains(&("legs.1.from".to_string(), Value::from("JFK"))));
        assert!(flat.contains(&("code".to_string(), Value::from("CA981"))));
    }

    #[test]
    fn flat_scalar_arrays_stay_multivalued() {
        let content = parse(r#"{"directors": ["Lana", "Lilly"]}"#).unwrap();
        let rec = NormalizedRecord::new(5, "movies", "n", content, meta(), None);
        let flat = rec.flatten();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].0, "directors");
        assert_eq!(flat[0].1.as_list().unwrap().len(), 2);
    }
}
