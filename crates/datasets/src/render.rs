//! Serializes generated sources to CSV / JSON / XML text so the full
//! ingest path (parsers → adapters → claims → graph) can be exercised
//! end to end. Used by examples and integration tests.

use crate::spec::MultiSourceDataset;
use multirag_ingest::{RawSource, SourceFormat};
use multirag_kg::{Object, SourceId, Value};
use std::collections::BTreeMap;

/// Renders one generated source as raw text in its declared format.
pub fn render_source(data: &MultiSourceDataset, source: SourceId) -> RawSource {
    let kg = &data.graph;
    let info = data
        .sources
        .iter()
        .find(|s| s.id == source)
        .expect("unknown source");
    // Collect entity → (attr → values) for this source's triples.
    let mut rows: Vec<(String, BTreeMap<String, Vec<Value>>)> = Vec::new();
    let mut row_lookup: BTreeMap<String, usize> = BTreeMap::new();
    let mut attr_order: Vec<String> = Vec::new();
    for (_, t) in kg.iter_triples() {
        if t.source != source {
            continue;
        }
        let entity = kg.entity_name(t.subject).to_string();
        let attr = kg.relation_name(t.predicate).to_string();
        let value = match &t.object {
            Object::Entity(e) => Value::Str(kg.entity_name(*e).to_string()),
            Object::Literal(v) => v.clone(),
        };
        let idx = *row_lookup.entry(entity.clone()).or_insert_with(|| {
            rows.push((entity.clone(), BTreeMap::new()));
            rows.len() - 1
        });
        if !attr_order.contains(&attr) {
            attr_order.push(attr.clone());
        }
        rows[idx].1.entry(attr).or_default().push(value);
    }

    let format = match info.format.as_str() {
        "csv" => SourceFormat::Csv,
        "json" => SourceFormat::Json,
        "xml" => SourceFormat::Xml,
        "kg" => SourceFormat::Kg,
        _ => SourceFormat::Text,
    };
    let content = match format {
        SourceFormat::Csv => render_csv(&rows, &attr_order),
        SourceFormat::Json => render_json(&rows, &attr_order),
        SourceFormat::Xml => render_xml(&rows, &attr_order),
        SourceFormat::Kg | SourceFormat::Text => render_kg(&rows, &attr_order),
    };
    RawSource {
        name: info.name.clone(),
        domain: data.spec.domain.clone(),
        format,
        content,
    }
}

/// Renders every source of the dataset.
pub fn render_all_sources(data: &MultiSourceDataset) -> Vec<RawSource> {
    data.sources
        .iter()
        .map(|s| render_source(data, s.id))
        .collect()
}

fn value_text(values: &[Value]) -> String {
    if values.len() == 1 {
        values[0].to_string()
    } else {
        values
            .iter()
            .map(Value::to_string)
            .collect::<Vec<_>>()
            .join(" and ")
    }
}

fn render_csv(rows: &[(String, BTreeMap<String, Vec<Value>>)], attrs: &[String]) -> String {
    let mut out = String::from("name");
    for attr in attrs {
        out.push(',');
        out.push_str(attr);
    }
    out.push('\n');
    for (entity, values) in rows {
        out.push_str(&csv_escape(entity));
        for attr in attrs {
            out.push(',');
            if let Some(vs) = values.get(attr) {
                out.push_str(&csv_escape(&value_text(vs)));
            }
        }
        out.push('\n');
    }
    out
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn render_json(rows: &[(String, BTreeMap<String, Vec<Value>>)], attrs: &[String]) -> String {
    use multirag_ingest::json::{to_string, JsonValue};
    let objects: Vec<JsonValue> = rows
        .iter()
        .map(|(entity, values)| {
            let mut members = vec![("name".to_string(), JsonValue::Str(entity.clone()))];
            for attr in attrs {
                if let Some(vs) = values.get(attr) {
                    let jv = if vs.len() == 1 {
                        value_to_json(&vs[0])
                    } else {
                        JsonValue::Array(vs.iter().map(value_to_json).collect())
                    };
                    members.push((attr.clone(), jv));
                }
            }
            JsonValue::Object(members)
        })
        .collect();
    to_string(&JsonValue::Array(objects))
}

fn value_to_json(v: &Value) -> multirag_ingest::json::JsonValue {
    use multirag_ingest::json::JsonValue;
    match v {
        Value::Null => JsonValue::Null,
        Value::Bool(b) => JsonValue::Bool(*b),
        Value::Int(i) => JsonValue::Int(*i),
        Value::Float(f) => JsonValue::Float(*f),
        Value::Str(s) => JsonValue::Str(s.clone()),
        Value::List(items) => JsonValue::Array(items.iter().map(value_to_json).collect()),
    }
}

fn render_xml(rows: &[(String, BTreeMap<String, Vec<Value>>)], attrs: &[String]) -> String {
    let mut out = String::from("<records>");
    for (entity, values) in rows {
        out.push_str("<record>");
        out.push_str(&format!("<name>{}</name>", xml_escape(entity)));
        for attr in attrs {
            if let Some(vs) = values.get(attr) {
                for v in vs {
                    out.push_str(&format!("<{attr}>{}</{attr}>", xml_escape(&v.to_string())));
                }
            }
        }
        out.push_str("</record>");
    }
    out.push_str("</records>");
    out
}

fn xml_escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn render_kg(rows: &[(String, BTreeMap<String, Vec<Value>>)], attrs: &[String]) -> String {
    let mut out = String::new();
    for (entity, values) in rows {
        for attr in attrs {
            if let Some(vs) = values.get(attr) {
                for v in vs {
                    out.push_str(&format!("{entity}|{attr}|{v}\n"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movies::MoviesSpec;
    use multirag_ingest::{fuse_sources, load_into_graph};

    #[test]
    fn rendered_sources_parse_back_through_ingest() {
        let data = MoviesSpec::small().generate(42);
        let raw = render_all_sources(&data);
        assert_eq!(raw.len(), 13);
        let fused = fuse_sources(&raw).expect("rendered sources must parse");
        let kg = load_into_graph(&raw, &fused).unwrap();
        assert_eq!(kg.source_count(), 13);
        // The reconstructed graph should carry a comparable number of
        // claims (JSON/CSV collapse multi-valued slots into one claim,
        // so counts differ but not wildly).
        let original = data.graph.triple_count() as f64;
        let recovered = kg.triple_count() as f64;
        assert!(
            recovered > original * 0.5 && recovered < original * 1.5,
            "original {original}, recovered {recovered}"
        );
    }

    #[test]
    fn csv_rendering_escapes_fields() {
        let rows = vec![("A, \"B\"".to_string(), BTreeMap::new())];
        let text = render_csv(&rows, &[]);
        assert!(text.contains("\"A, \"\"B\"\"\""));
    }

    #[test]
    fn xml_rendering_escapes_entities() {
        let mut values: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        values.insert("note".into(), vec![Value::from("a < b & c")]);
        let rows = vec![("E".to_string(), values)];
        let text = render_xml(&rows, &["note".to_string()]);
        assert!(text.contains("a &lt; b &amp; c"));
        assert!(multirag_ingest::xml::parse(&text).is_ok());
    }

    #[test]
    fn kg_rendering_is_line_per_claim() {
        let data = MoviesSpec::small().generate(42);
        let kg_source = data.sources.iter().find(|s| s.format == "kg").unwrap().id;
        let raw = render_source(&data, kg_source);
        assert!(raw.content.lines().all(|l| l.split('|').count() >= 3));
    }
}
