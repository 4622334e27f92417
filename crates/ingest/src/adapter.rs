//! Per-format adapters and the multi-source fusion union (Eq. 2).
//!
//! The paper designs "a unique adapter for each distinct data format":
//! structured (CSV tables), semi-structured (JSON / XML trees), and
//! unstructured (text, deferred to LLM extraction). Here each adapter
//! is one private function that goes from parsed bytes straight to
//! uniform [`Claim`]s — `(entity, attribute, value)` assertions with
//! provenance — ready for knowledge-graph loading, and counts the
//! records it read. [`fuse_sources`] is the union
//! `D_Fusion = ⋃ A_i(D_i)`.

use crate::csv;
use crate::error::{IngestError, ParseError};
use crate::json::{self, JsonValue};
use crate::xml::{self, XmlElement, XmlNode};
use multirag_kg::{FxHashMap, KnowledgeGraph, Value};

/// Declared storage format of a raw source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceFormat {
    /// Structured tabular data.
    Csv,
    /// Semi-structured nested JSON.
    Json,
    /// Semi-structured XML.
    Xml,
    /// Native knowledge-graph triples, one `subject|predicate|object`
    /// per line.
    Kg,
    /// Unstructured text.
    Text,
}

impl SourceFormat {
    /// Short tag used in metadata and source registration.
    pub fn tag(self) -> &'static str {
        match self {
            SourceFormat::Csv => "csv",
            SourceFormat::Json => "json",
            SourceFormat::Xml => "xml",
            SourceFormat::Kg => "kg",
            SourceFormat::Text => "text",
        }
    }
}

/// A raw multi-source input file.
#[derive(Debug, Clone)]
pub struct RawSource {
    /// Source / file name.
    pub name: String,
    /// Domain of the data (Definition 1's `d`).
    pub domain: String,
    /// Storage format.
    pub format: SourceFormat,
    /// Raw content bytes (UTF-8).
    pub content: String,
}

/// A uniform `(entity, attribute, value)` assertion with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Entity the claim is about.
    pub entity: String,
    /// Attribute / relation name.
    pub attribute: String,
    /// Asserted value.
    pub value: Value,
    /// Chunk index within the source.
    pub chunk: u32,
}

/// The output of one adapter run.
#[derive(Debug, Clone, Default)]
pub struct AdaptedSource {
    /// Records read: CSV rows and JSON objects or XML elements that
    /// name an entity, KG triple lines, and text chunks.
    pub records: usize,
    /// Uniform claims extracted from structured / semi-structured data.
    pub claims: Vec<Claim>,
    /// Raw text chunks for unstructured data (LLM extraction happens
    /// downstream in `multirag-llmsim`).
    pub text_chunks: Vec<String>,
}

/// JSON keys that name a record's entity, tried in order. None of them
/// becomes a claim.
const JSON_ENTITY_KEYS: [&str; 5] = ["name", "id", "title", "code", "symbol"];

/// XML attributes or child tags that name a record's entity, tried in
/// order. None of them becomes a claim.
const XML_ENTITY_TAGS: [&str; 4] = ["name", "id", "title", "isbn"];

/// Soft limit on the characters of a text chunk, which splits only at
/// paragraph boundaries.
const MAX_CHUNK_CHARS: usize = 800;

/// Runs the adapter of the source's format. Only KG skips bad records
/// one at a time: given `skipped`, it records each malformed line there
/// and keeps going. Every other format fails the whole source on its
/// first parse error.
fn adapt(
    source: &RawSource,
    skipped: Option<&mut Vec<ParseError>>,
) -> Result<AdaptedSource, ParseError> {
    let content = source.content.as_str();
    match source.format {
        SourceFormat::Csv => adapt_csv(content),
        SourceFormat::Json => adapt_json(content),
        SourceFormat::Xml => adapt_xml(content),
        SourceFormat::Kg => adapt_kg(content, skipped),
        SourceFormat::Text => Ok(adapt_text(content)),
    }
}

/// Structured tabular data: the first column names the entity; every
/// other non-empty cell is an attribute claim.
fn adapt_csv(content: &str) -> Result<AdaptedSource, ParseError> {
    let table = csv::parse(content)?;
    let mut out = AdaptedSource::default();
    for (row_idx, row) in table.rows.into_iter().enumerate() {
        let mut cells = row.into_iter();
        let entity = cells.next().map(|v| v.to_string()).unwrap_or_default();
        if entity.is_empty() {
            continue;
        }
        for (header, value) in table.headers.iter().skip(1).zip(cells) {
            if value.is_null() {
                continue;
            }
            out.claims.push(Claim {
                entity: entity.clone(),
                attribute: header.clone(),
                value,
                chunk: row_idx as u32,
            });
        }
        out.records += 1;
    }
    Ok(out)
}

/// Semi-structured JSON: a top-level array of objects (or a single
/// object). The entity is the first of [`JSON_ENTITY_KEYS`] present
/// with a non-empty string or integer value.
fn adapt_json(content: &str) -> Result<AdaptedSource, ParseError> {
    let doc = json::parse(content)?;
    let objects = match &doc {
        JsonValue::Array(items) => items.as_slice(),
        JsonValue::Object(_) => std::slice::from_ref(&doc),
        _ => {
            return Err(ParseError::at(
                "json",
                content,
                0,
                "expected an object or array of objects",
            ))
        }
    };
    let mut out = AdaptedSource::default();
    for (chunk, object) in objects.iter().enumerate() {
        if let Some(entity) = json_entity(object) {
            push_record(&mut out, entity, object, &JSON_ENTITY_KEYS, chunk);
        }
    }
    Ok(out)
}

fn json_entity(object: &JsonValue) -> Option<String> {
    JSON_ENTITY_KEYS.iter().find_map(|key| {
        let text = match object.get(key)? {
            JsonValue::Str(s) => s.clone(),
            JsonValue::Int(i) => i.to_string(),
            _ => return None,
        };
        (!text.is_empty()).then_some(text)
    })
}

/// Semi-structured XML: each child element of the root is a record; its
/// attributes and children become claims through their JSON mirror. The
/// entity is the first of [`XML_ENTITY_TAGS`] present, as a non-empty
/// attribute or child text.
fn adapt_xml(content: &str) -> Result<AdaptedSource, ParseError> {
    let root = xml::parse(content)?;
    let mut out = AdaptedSource::default();
    for (chunk, element) in root.child_elements().into_iter().enumerate() {
        if let Some(entity) = xml_entity(element) {
            let mirror = element_to_json(element);
            push_record(&mut out, entity, &mirror, &XML_ENTITY_TAGS, chunk);
        }
    }
    Ok(out)
}

fn xml_entity(element: &XmlElement) -> Option<String> {
    XML_ENTITY_TAGS.iter().find_map(|tag| {
        if let Some(v) = element.attribute(tag).filter(|v| !v.is_empty()) {
            return Some(v.to_string());
        }
        element
            .child(tag)
            .map(XmlElement::text)
            .filter(|text| !text.is_empty())
    })
}

/// Counts one JSON or XML record and emits its claims: every flattened
/// path except the entity keys, and no nulls.
fn push_record(
    out: &mut AdaptedSource,
    entity: String,
    object: &JsonValue,
    entity_keys: &[&str],
    chunk: usize,
) {
    for (path, value) in flatten(object) {
        if entity_keys.contains(&path.as_str()) || value.is_null() {
            continue;
        }
        out.claims.push(Claim {
            entity: entity.clone(),
            attribute: path,
            value,
            chunk: chunk as u32,
        });
    }
    out.records += 1;
}

/// Flattens a record into `(path, scalar)` pairs. Nested containers
/// contribute dotted paths (`legs.0.from`). Top-level keys that start
/// with `@` are JSON-LD keywords (`@context`, `@id`, `@type`), not
/// content, and are skipped; a record that is not an object has no
/// attributes.
fn flatten(object: &JsonValue) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for (key, value) in object.as_object().into_iter().flatten() {
        if !key.starts_with('@') {
            flatten_into(key, value, &mut out);
        }
    }
    out
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

/// Converts an XML element subtree into a JSON object mirror.
fn element_to_json(element: &XmlElement) -> JsonValue {
    let mut members: Vec<(String, JsonValue)> = element
        .attributes
        .iter()
        .map(|(k, v)| (k.clone(), sniff_scalar(v)))
        .collect();
    // Group repeated child tags into arrays.
    let mut order: Vec<String> = Vec::new();
    let mut grouped: FxHashMap<String, Vec<JsonValue>> = FxHashMap::default();
    for node in &element.children {
        if let XmlNode::Element(child) = node {
            let value = if child.child_elements().is_empty() && child.attributes.is_empty() {
                sniff_scalar(&child.text())
            } else {
                element_to_json(child)
            };
            if !grouped.contains_key(&child.name) {
                order.push(child.name.clone());
            }
            grouped.entry(child.name.clone()).or_default().push(value);
        }
    }
    for name in order {
        let Some(mut values) = grouped.remove(&name) else {
            continue;
        };
        let value = match values.len() {
            1 => values.remove(0),
            _ => JsonValue::Array(values),
        };
        members.push((name, value));
    }
    let text = element.text();
    if !text.is_empty() && members.is_empty() {
        return sniff_scalar(&text);
    }
    if !text.is_empty() {
        members.push(("#text".to_string(), JsonValue::Str(text)));
    }
    JsonValue::Object(members)
}

fn sniff_scalar(text: &str) -> JsonValue {
    if let Ok(i) = text.parse::<i64>() {
        return JsonValue::Int(i);
    }
    if let Ok(f) = text.parse::<f64>() {
        if f.is_finite() {
            return JsonValue::Float(f);
        }
    }
    match text {
        "true" => JsonValue::Bool(true),
        "false" => JsonValue::Bool(false),
        _ => JsonValue::Str(text.to_string()),
    }
}

/// Native triple dumps: one `subject|predicate|object` per line ('#'
/// comments and blank lines skipped). With `skipped`, a malformed line
/// is recorded there and the rest still loads; without, it fails the
/// source.
fn adapt_kg(
    content: &str,
    mut skipped: Option<&mut Vec<ParseError>>,
) -> Result<AdaptedSource, ParseError> {
    let mut out = AdaptedSource::default();
    let mut offset = 0usize;
    for (line_no, raw_line) in content.split('\n').enumerate() {
        let line_offset = offset;
        offset += raw_line.len() + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '|');
        let (Some(s), Some(p), Some(o)) = (parts.next(), parts.next(), parts.next()) else {
            let err = ParseError::at(
                "kg",
                content,
                line_offset,
                format!("malformed triple on line {}", line_no + 1),
            );
            match skipped.as_deref_mut() {
                Some(skipped) => {
                    skipped.push(err);
                    continue;
                }
                None => return Err(err),
            }
        };
        out.claims.push(Claim {
            entity: s.trim().to_string(),
            attribute: p.trim().to_string(),
            value: sniff_scalar(o.trim()).to_value(),
            chunk: line_no as u32,
        });
        out.records += 1;
    }
    Ok(out)
}

/// Unstructured text: slices the input into paragraph chunks of about
/// [`MAX_CHUNK_CHARS`]; triple extraction is the simulated LLM's job
/// downstream.
fn adapt_text(content: &str) -> AdaptedSource {
    let mut chunks = Vec::new();
    let mut current = String::new();
    for paragraph in content.split("\n\n") {
        if !current.is_empty() && current.len() + paragraph.len() + 2 > MAX_CHUNK_CHARS {
            flush_chunk(&mut current, &mut chunks);
        }
        if !current.is_empty() {
            current.push_str("\n\n");
        }
        current.push_str(paragraph);
        if current.len() >= MAX_CHUNK_CHARS {
            flush_chunk(&mut current, &mut chunks);
        }
    }
    flush_chunk(&mut current, &mut chunks);
    AdaptedSource {
        records: chunks.len(),
        claims: Vec::new(),
        text_chunks: chunks,
    }
}

/// Moves the pending chunk, trimmed, into `chunks`; a blank one stays
/// pending.
fn flush_chunk(current: &mut String, chunks: &mut Vec<String>) {
    let text = current.trim();
    if !text.is_empty() {
        chunks.push(text.to_string());
        current.clear();
    }
}

// -------------------------------------------------------------------
// Fusion (Eq. 2)
// -------------------------------------------------------------------

/// Runs the right adapter for each source and unions the outputs —
/// `D_Fusion = ⋃_{i} A_i(D_i)`; claims keep per-source provenance via
/// `sources` order.
///
/// # Examples
///
/// ```
/// use multirag_ingest::{fuse_sources, RawSource, SourceFormat};
///
/// let sources = vec![RawSource {
///     name: "movies.csv".into(),
///     domain: "movies".into(),
///     format: SourceFormat::Csv,
///     content: "name,year\nHeat,1995\n".into(),
/// }];
/// let fused = fuse_sources(&sources).unwrap();
/// assert_eq!(fused[0].1.claims.len(), 1);
/// ```
pub fn fuse_sources(sources: &[RawSource]) -> Result<Vec<(usize, AdaptedSource)>, IngestError> {
    Ok(fuse_sources_with(sources, IngestMode::Strict)?.adapted)
}

/// How [`fuse_sources_with`] treats malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// The first parse error aborts the whole fusion (the historical
    /// [`fuse_sources`] behavior).
    #[default]
    Strict,
    /// Malformed sources — or, for record-oriented formats, just the
    /// malformed records — are skipped with positional diagnostics, and
    /// the healthy remainder still loads.
    Lenient,
}

/// One skipped input from a lenient fusion run.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestDiagnostic {
    /// Index of the offending source in the input slice.
    pub source_index: usize,
    /// Name of the offending source.
    pub source: String,
    /// The positional parse error explaining the skip.
    pub error: ParseError,
}

/// Fused sources plus any skip diagnostics. Strict runs never carry
/// diagnostics; lenient runs never fail.
#[derive(Debug, Clone, Default)]
pub struct FusionReport {
    /// `(source index, adapted output)` pairs, in input order. A source
    /// dropped in lenient mode still appears here with empty output, so
    /// downstream credibility tracking can see it produced nothing.
    pub adapted: Vec<(usize, AdaptedSource)>,
    /// Skips recorded in lenient mode.
    pub diagnostics: Vec<IngestDiagnostic>,
}

impl FusionReport {
    /// Total claims across the fused sources.
    pub fn claim_count(&self) -> usize {
        self.adapted.iter().map(|(_, a)| a.claims.len()).sum()
    }

    /// Counts the fusion into a metrics registry: source/record/claim
    /// throughput plus the lenient-skip events that used to vanish
    /// silently (`ingest_lenient_skips_total`, broken down per parser
    /// format).
    pub fn record_metrics(&self, metrics: &multirag_obs::MetricsRegistry) {
        metrics.inc("ingest_sources_total", self.adapted.len() as u64);
        metrics.inc(
            "ingest_records_total",
            self.adapted.iter().map(|(_, a)| a.records as u64).sum(),
        );
        metrics.inc("ingest_claims_total", self.claim_count() as u64);
        metrics.inc("ingest_lenient_skips_total", self.diagnostics.len() as u64);
        for diag in &self.diagnostics {
            metrics.inc(
                &multirag_obs::labeled(
                    "ingest_lenient_skips_by_format_total",
                    &[("format", diag.error.format)],
                ),
                1,
            );
        }
    }
}

/// [`fuse_sources`] with an explicit [`IngestMode`]. In
/// [`IngestMode::Lenient`] a malformed source no longer poisons the
/// whole fusion: whatever parses survives, and each skip is reported as
/// an [`IngestDiagnostic`] with file position.
pub fn fuse_sources_with(
    sources: &[RawSource],
    mode: IngestMode,
) -> Result<FusionReport, IngestError> {
    let mut report = FusionReport::default();
    for (index, source) in sources.iter().enumerate() {
        let adapted = match mode {
            IngestMode::Strict => adapt(source, None)?,
            IngestMode::Lenient => {
                let mut skipped = Vec::new();
                let adapted = adapt(source, Some(&mut skipped)).unwrap_or_else(|err| {
                    skipped.push(err);
                    AdaptedSource::default()
                });
                report
                    .diagnostics
                    .extend(skipped.into_iter().map(|error| IngestDiagnostic {
                        source_index: index,
                        source: source.name.clone(),
                        error,
                    }));
                adapted
            }
        };
        report.adapted.push((index, adapted));
    }
    Ok(report)
}

/// Loads fused claims into a fresh [`KnowledgeGraph`], registering one
/// graph source per raw source. Fails with
/// [`IngestError::SourceIndexOutOfRange`] if the fusion output
/// references a source the slice does not contain — a mismatched
/// `(sources, fused)` pair must surface as a typed error, not a panic.
pub fn load_into_graph(
    sources: &[RawSource],
    fused: &[(usize, AdaptedSource)],
) -> Result<KnowledgeGraph, IngestError> {
    let total_claims: usize = fused.iter().map(|(_, a)| a.claims.len()).sum();
    let mut kg = KnowledgeGraph::with_capacity(total_claims / 2 + 8, total_claims);
    for (index, adapted) in fused {
        let raw = sources
            .get(*index)
            .ok_or(IngestError::SourceIndexOutOfRange {
                index: *index,
                sources: sources.len(),
            })?;
        let source_id = kg.add_source(&raw.name, raw.format.tag(), &raw.domain);
        for claim in &adapted.claims {
            let subject = kg.add_entity(&claim.entity, &raw.domain);
            let predicate = kg.add_relation(&claim.attribute);
            // String values that name an existing entity in the same
            // domain become entity edges; everything else is a literal.
            let object: multirag_kg::Object = match &claim.value {
                Value::Str(s) => match kg.find_entity(s, &raw.domain) {
                    Some(e) => multirag_kg::Object::Entity(e),
                    None => multirag_kg::Object::Literal(claim.value.clone()),
                },
                other => multirag_kg::Object::Literal(other.clone()),
            };
            kg.add_triple(subject, predicate, object, source_id, claim.chunk);
        }
    }
    Ok(kg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv_source() -> RawSource {
        RawSource {
            name: "movies.csv".into(),
            domain: "movies".into(),
            format: SourceFormat::Csv,
            content: "title,year,director\nHeat,1995,Mann\nTenet,2020,Nolan\n".into(),
        }
    }

    fn json_source() -> RawSource {
        RawSource {
            name: "movies.json".into(),
            domain: "movies".into(),
            format: SourceFormat::Json,
            content: r#"[
                {"title": "Heat", "year": 1995, "cast": ["Pacino", "De Niro"]},
                {"title": "Tenet", "year": 2020, "meta": {"runtime": 150}}
            ]"#
            .into(),
        }
    }

    fn xml_source() -> RawSource {
        RawSource {
            name: "books.xml".into(),
            domain: "books".into(),
            format: SourceFormat::Xml,
            content: "<books>\
                <book><title>Dune</title><year>1965</year><author>Herbert</author></book>\
                <book id=\"2\"><title>Solaris</title><author>Lem</author><author>Kilmartin</author></book>\
            </books>"
                .into(),
        }
    }

    fn source(name: &str, format: SourceFormat, content: &str) -> RawSource {
        RawSource {
            name: name.into(),
            domain: "d".into(),
            format,
            content: content.into(),
        }
    }

    #[test]
    fn structured_adapter_emits_row_claims() {
        let adapted = adapt(&csv_source(), None).unwrap();
        assert_eq!(adapted.records, 2);
        assert_eq!(adapted.claims.len(), 4); // 2 rows × (year, director)
        let claim = &adapted.claims[0];
        assert_eq!(claim.entity, "Heat");
        assert_eq!(claim.attribute, "year");
        assert_eq!(claim.value, Value::Int(1995));
    }

    fn repeated_header_sources() -> Vec<RawSource> {
        vec![
            source("dup.csv", SourceFormat::Csv, "a,a\n1,2\n"),
            json_source(),
        ]
    }

    #[test]
    fn repeated_csv_header_fails_strict_fusion() {
        let Err(IngestError::Parse(err)) = fuse_sources(&repeated_header_sources()) else {
            panic!("a repeated header must fail strict fusion");
        };
        // The second `a`.
        assert_eq!((err.line, err.column, err.offset), (1, 3, 2));
        assert!(err.message.contains("repeated header"), "{err}");
    }

    #[test]
    fn repeated_csv_header_is_skipped_leniently() {
        let report = fuse_sources_with(&repeated_header_sources(), IngestMode::Lenient).unwrap();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].source_index, 0);
        assert_eq!(report.diagnostics[0].error.offset, 2);
        assert_eq!(report.adapted[0].1.records, 0);
        assert!(report.adapted[0].1.claims.is_empty());
        assert_eq!(report.adapted[1].1.records, 2, "healthy source loads");
    }

    #[test]
    fn json_adapter_flattens_nested_content() {
        let adapted = adapt(&json_source(), None).unwrap();
        assert_eq!(adapted.records, 2);
        let attrs: Vec<&str> = adapted
            .claims
            .iter()
            .map(|c| c.attribute.as_str())
            .collect();
        assert!(attrs.contains(&"year"));
        assert!(attrs.contains(&"cast"));
        assert!(attrs.contains(&"meta.runtime"));
        // The entity key itself is not a claim.
        assert!(!attrs.contains(&"title"));
    }

    #[test]
    fn json_adapter_skips_top_level_at_keys() {
        let ld = source(
            "ld.json",
            SourceFormat::Json,
            r#"{"@context": "https://schema.org", "@id": "urn:heat", "@type": "Movie",
                "name": "Heat", "year": 1995, "meta": {"@b": 1}}"#,
        );
        let adapted = adapt(&ld, None).unwrap();
        let claims: Vec<(&str, &str, &Value)> = adapted
            .claims
            .iter()
            .map(|c| (c.entity.as_str(), c.attribute.as_str(), &c.value))
            .collect();
        assert_eq!(
            claims,
            [
                ("Heat", "year", &Value::Int(1995)),
                ("Heat", "meta.@b", &Value::Int(1)),
            ]
        );
    }

    #[test]
    fn json_adapter_skips_objects_without_entity() {
        let unnamed = source(
            "x.json",
            SourceFormat::Json,
            r#"[{"title": "Named"}, {"year": 2020}]"#,
        );
        assert_eq!(adapt(&unnamed, None).unwrap().records, 1);
    }

    #[test]
    fn json_adapter_rejects_scalar_roots() {
        assert!(adapt(&source("x.json", SourceFormat::Json, "42"), None).is_err());
    }

    #[test]
    fn flatten_produces_dotted_paths() {
        let content =
            json::parse(r#"{"legs": [{"from": "PEK"}, {"from": "JFK"}], "code": "CA981"}"#)
                .unwrap();
        let flat = flatten(&content);
        assert!(flat.contains(&("legs.0.from".to_string(), Value::from("PEK"))));
        assert!(flat.contains(&("legs.1.from".to_string(), Value::from("JFK"))));
        assert!(flat.contains(&("code".to_string(), Value::from("CA981"))));
    }

    #[test]
    fn flat_scalar_arrays_stay_multivalued() {
        let content = json::parse(r#"{"directors": ["Lana", "Lilly"]}"#).unwrap();
        let flat = flatten(&content);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].0, "directors");
        assert_eq!(flat[0].1.as_list().unwrap().len(), 2);
    }

    #[test]
    fn xml_adapter_groups_repeated_tags() {
        let adapted = adapt(&xml_source(), None).unwrap();
        assert_eq!(adapted.records, 2);
        // The second book (entity "2" via its id attribute) has two
        // authors → a single multi-valued claim.
        let solaris_authors: Vec<&Claim> = adapted
            .claims
            .iter()
            .filter(|c| c.entity == "2" && c.attribute == "author")
            .collect();
        assert_eq!(solaris_authors.len(), 1);
        assert_eq!(solaris_authors[0].value.as_list().unwrap().len(), 2);
    }

    #[test]
    fn xml_adapter_uses_attribute_or_child_for_entity() {
        // The entity tags are tried in order: "name" (absent), then "id"
        // as attribute or child, then "title".
        let adapted = adapt(&xml_source(), None).unwrap();
        let mut entities: Vec<&str> = adapted.claims.iter().map(|c| c.entity.as_str()).collect();
        entities.dedup();
        // Book 1 has no name/id → falls to title "Dune"; book 2 has
        // id="2" → entity "2".
        assert_eq!(entities, ["Dune", "2"]);
    }

    #[test]
    fn kg_adapter_parses_triple_lines() {
        let dump = source(
            "dump.kg",
            SourceFormat::Kg,
            "# comment\nHeat|year|1995\nHeat|director|Mann\n\n",
        );
        let adapted = adapt(&dump, None).unwrap();
        assert_eq!(adapted.claims.len(), 2);
        assert_eq!(adapted.claims[0].value, Value::Int(1995));
        assert_eq!(adapted.claims[1].value, Value::from("Mann"));
    }

    #[test]
    fn kg_adapter_rejects_malformed_lines() {
        assert!(adapt(&source("bad.kg", SourceFormat::Kg, "only|two"), None).is_err());
    }

    #[test]
    fn kg_adapter_lenient_skips_bad_lines_with_positions() {
        let dump = source(
            "dump.kg",
            SourceFormat::Kg,
            "Heat|year|1995\nonly|two\nHeat|director|Mann\n",
        );
        let mut skipped = Vec::new();
        let adapted = adapt(&dump, Some(&mut skipped)).unwrap();
        assert_eq!(adapted.claims.len(), 2, "good lines must survive");
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].line, 2);
        assert!(skipped[0].message.contains("malformed triple"));
    }

    #[test]
    fn million_level_nesting_is_a_parse_error_not_an_abort() {
        const LEVELS: usize = 1_000_000;
        let deep = |name: &str, format, open: &str, close: &str| RawSource {
            name: name.into(),
            domain: "movies".into(),
            format,
            content: open.repeat(LEVELS) + &close.repeat(LEVELS),
        };
        let sources = vec![
            deep("deep.json", SourceFormat::Json, "[", "]"),
            deep("deep.xml", SourceFormat::Xml, "<a>", "</a>"),
            json_source(),
        ];
        // A spawned thread gets the default stack, a quarter of the
        // main thread's: recursion this deep would overflow it and
        // abort the test binary.
        let (strict, lenient) = std::thread::spawn(move || {
            let strict: Vec<_> = sources[..2]
                .iter()
                .map(|source| fuse_sources(std::slice::from_ref(source)).map(|_| ()))
                .collect();
            (strict, fuse_sources_with(&sources, IngestMode::Lenient))
        })
        .join()
        .expect("fusion returns instead of overflowing");
        for result in strict {
            let Err(IngestError::Parse(err)) = result else {
                panic!("strict fusion must fail: {result:?}");
            };
            assert!(err.message.starts_with("nesting deeper than"), "{err}");
        }
        let report = lenient.expect("lenient fusion never fails");
        let skipped: Vec<usize> = report.diagnostics.iter().map(|d| d.source_index).collect();
        assert_eq!(skipped, [0, 1]);
        assert_eq!(report.adapted[0].1.records, 0);
        assert_eq!(report.adapted[1].1.records, 0);
        assert_ne!(report.adapted[2].1.records, 0, "healthy source loads");
    }

    #[test]
    fn fuse_sources_with_lenient_keeps_healthy_sources() {
        let broken_csv = RawSource {
            name: "broken.csv".into(),
            domain: "movies".into(),
            format: SourceFormat::Csv,
            content: "title,year\n\"Heat,1995\n".into(),
        };
        let sources = vec![broken_csv, json_source()];
        // Strict fusion aborts on the broken quote...
        assert!(fuse_sources(&sources).is_err());
        // ...lenient fusion drops the broken source with a diagnostic
        // and still fuses the rest.
        let report = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
        assert_eq!(report.adapted.len(), 2);
        assert_eq!(report.adapted[0].1.records, 0);
        assert_ne!(report.adapted[1].1.records, 0);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].source_index, 0);
        assert_eq!(report.diagnostics[0].source, "broken.csv");
    }

    #[test]
    fn lenient_skips_surface_as_counted_metrics_and_events() {
        let broken_csv = RawSource {
            name: "broken.csv".into(),
            domain: "movies".into(),
            format: SourceFormat::Csv,
            content: "name,year\n\"Heat,1995\n".into(),
        };
        let sources = vec![broken_csv, json_source()];
        let report = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
        let metrics = multirag_obs::MetricsRegistry::new();
        report.record_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("ingest_sources_total"), 2);
        assert_eq!(snap.counter("ingest_lenient_skips_total"), 1);
        assert_eq!(
            snap.counter("ingest_lenient_skips_by_format_total{format=\"csv\"}"),
            1
        );
        assert_eq!(
            snap.counter("ingest_claims_total") as usize,
            report.claim_count()
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].source, "broken.csv");
        assert_eq!(report.diagnostics[0].error.format, "csv");
    }

    #[test]
    fn lenient_mode_matches_strict_on_clean_input() {
        let sources = vec![csv_source(), json_source(), xml_source()];
        let strict = fuse_sources(&sources).unwrap();
        let report = fuse_sources_with(&sources, IngestMode::Lenient).unwrap();
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.adapted.len(), strict.len());
        for ((si, sa), (li, la)) in strict.iter().zip(report.adapted.iter()) {
            assert_eq!(si, li);
            assert_eq!(sa.claims, la.claims);
            assert_eq!(sa.records, la.records);
        }
    }

    #[test]
    fn text_adapter_chunks_paragraphs() {
        // Two 600-character paragraphs do not fit one 800-character
        // chunk; the short third paragraph joins the second.
        let text = source(
            "report.txt",
            SourceFormat::Text,
            &format!(
                "{}\n\n{}\n\n{}",
                "p1 ".repeat(200),
                "p2 ".repeat(200),
                "p3 short"
            ),
        );
        let adapted = adapt(&text, None).unwrap();
        assert_eq!(adapted.text_chunks.len(), 2);
        assert!(adapted.text_chunks[0].starts_with("p1"));
        assert!(adapted.text_chunks[1].ends_with("p3 short"));
        assert!(adapted
            .text_chunks
            .iter()
            .all(|c| c.len() <= MAX_CHUNK_CHARS));
        assert!(adapted.claims.is_empty());
        assert_eq!(adapted.records, adapted.text_chunks.len());
    }

    #[test]
    fn load_into_graph_builds_provenance() {
        let sources = vec![csv_source(), json_source()];
        let fused = fuse_sources(&sources).unwrap();
        let kg = load_into_graph(&sources, &fused).unwrap();
        assert_eq!(kg.source_count(), 2);
        let heat = kg.find_entity("Heat", "movies").unwrap();
        let year = kg.find_relation("year").unwrap();
        // Heat's year asserted by both sources.
        assert_eq!(kg.slot_triples(heat, year).len(), 2);
        let stats = kg.stats();
        assert!(stats.triples >= 6);
    }

    #[test]
    fn load_into_graph_links_string_values_to_entities() {
        // If "Mann" exists as an entity, director claims become edges.
        let kg_dump = RawSource {
            name: "people.kg".into(),
            domain: "movies".into(),
            format: SourceFormat::Kg,
            content: "Mann|type|person\nHeat|director|Mann".into(),
        };
        let sources = vec![kg_dump];
        let fused = fuse_sources(&sources).unwrap();
        let kg = load_into_graph(&sources, &fused).unwrap();
        let heat = kg.find_entity("Heat", "movies").unwrap();
        let mann = kg.find_entity("Mann", "movies").unwrap();
        assert_eq!(kg.neighbors(heat), vec![mann]);
    }
}
