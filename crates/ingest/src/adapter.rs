//! Per-format adapters and the multi-source fusion union (Eq. 2).
//!
//! The paper designs "a unique adapter for each distinct data format":
//! structured (CSV tables → DSM columns), semi-structured (JSON / XML
//! trees), and unstructured (text, deferred to LLM extraction). Each
//! adapter emits normalized JSON-LD records plus uniform [`Claim`]s —
//! `(entity, attribute, value)` assertions with provenance — ready for
//! knowledge-graph loading. [`fuse_sources`] is the union
//! `D_Fusion = ⋃ A_i(D_i)`.

use crate::csv;
use crate::dsm::ColumnStore;
use crate::error::{IngestError, ParseError};
use crate::json::{self, JsonValue};
use crate::jsonld::NormalizedRecord;
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
    /// Normalized record the claim came from.
    pub record_id: u64,
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
    /// Normalized JSON-LD records.
    pub records: Vec<NormalizedRecord>,
    /// Uniform claims extracted from structured / semi-structured data.
    pub claims: Vec<Claim>,
    /// Raw text chunks for unstructured data (LLM extraction happens
    /// downstream in `multirag-llmsim`).
    pub text_chunks: Vec<String>,
}

/// A format adapter: `A_i` in Eq. 2.
pub trait Adapter {
    /// Parses a raw source into normalized records and claims, numbering
    /// records from `start_id`.
    fn adapt(&self, source: &RawSource, start_id: u64) -> Result<AdaptedSource, ParseError>;

    /// Lenient variant: instead of aborting on the first malformed
    /// input, skips what cannot be parsed and reports each skip as a
    /// positional [`ParseError`]. The default implementation treats the
    /// source as one unit (a parse error drops the whole source);
    /// record-oriented adapters override it to skip only the bad
    /// records.
    fn adapt_lenient(&self, source: &RawSource, start_id: u64) -> (AdaptedSource, Vec<ParseError>) {
        match self.adapt(source, start_id) {
            Ok(out) => (out, Vec::new()),
            Err(err) => (AdaptedSource::default(), vec![err]),
        }
    }
}

fn base_meta(source: &RawSource) -> FxHashMap<String, String> {
    let mut meta = FxHashMap::default();
    meta.insert("format".to_string(), source.format.tag().to_string());
    meta.insert("source".to_string(), source.name.clone());
    meta.insert("domain".to_string(), source.domain.clone());
    meta
}

// -------------------------------------------------------------------
// Structured (CSV → DSM)
// -------------------------------------------------------------------

/// Adapter for structured tabular data. The first column (or the column
/// named by `entity_column`) identifies the entity; every other cell is
/// an attribute claim.
#[derive(Debug, Clone, Default)]
pub struct StructuredAdapter {
    /// Name of the column identifying the entity; defaults to the first
    /// column.
    pub entity_column: Option<String>,
}

impl Adapter for StructuredAdapter {
    fn adapt(&self, source: &RawSource, start_id: u64) -> Result<AdaptedSource, ParseError> {
        let table = csv::parse(&source.content)?;
        let store = ColumnStore::from_table(&table);
        let cols_index = store.cols_index();
        let entity_idx = match &self.entity_column {
            Some(name) => table.column_index(name).ok_or_else(|| {
                ParseError::at(
                    "csv",
                    &source.content,
                    0,
                    format!("entity column '{name}' not found"),
                )
            })?,
            None => 0,
        };
        let meta = base_meta(source);
        let mut out = AdaptedSource::default();
        for (row_idx, row) in table.rows.iter().enumerate() {
            let entity = row
                .get(entity_idx)
                .map(|v| v.to_string())
                .unwrap_or_default();
            if entity.is_empty() {
                continue;
            }
            let members: Vec<(String, JsonValue)> = table
                .headers
                .iter()
                .zip(row.iter())
                .map(|(h, v)| (h.clone(), value_to_json(v)))
                .collect();
            let record_id = start_id + out.records.len() as u64;
            let record = NormalizedRecord::new(
                record_id,
                &source.domain,
                &source.name,
                JsonValue::Object(members),
                meta.clone(),
                Some(cols_index.clone()),
            );
            for (col_idx, (header, value)) in table.headers.iter().zip(row.iter()).enumerate() {
                if col_idx == entity_idx || value.is_null() {
                    continue;
                }
                out.claims.push(Claim {
                    record_id,
                    entity: entity.clone(),
                    attribute: header.clone(),
                    value: value.clone(),
                    chunk: row_idx as u32,
                });
            }
            out.records.push(record);
        }
        Ok(out)
    }
}

// -------------------------------------------------------------------
// Semi-structured (JSON)
// -------------------------------------------------------------------

/// Adapter for semi-structured JSON: a top-level array of objects (or a
/// single object). The entity is identified by the first present key in
/// `entity_keys`.
#[derive(Debug, Clone)]
pub struct JsonAdapter {
    /// Candidate entity-identifying keys, tried in order.
    pub entity_keys: Vec<String>,
}

impl Default for JsonAdapter {
    fn default() -> Self {
        Self {
            entity_keys: vec![
                "name".to_string(),
                "id".to_string(),
                "title".to_string(),
                "code".to_string(),
                "symbol".to_string(),
            ],
        }
    }
}

impl JsonAdapter {
    fn entity_of(&self, object: &JsonValue) -> Option<String> {
        for key in &self.entity_keys {
            if let Some(v) = object.get(key) {
                let text = match v {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::Int(i) => i.to_string(),
                    _ => continue,
                };
                if !text.is_empty() {
                    return Some(text);
                }
            }
        }
        None
    }
}

impl Adapter for JsonAdapter {
    fn adapt(&self, source: &RawSource, start_id: u64) -> Result<AdaptedSource, ParseError> {
        let doc = json::parse(&source.content)?;
        let objects: Vec<&JsonValue> = match &doc {
            JsonValue::Array(items) => items.iter().collect(),
            obj @ JsonValue::Object(_) => vec![obj],
            _ => {
                return Err(ParseError::at(
                    "json",
                    &source.content,
                    0,
                    "expected an object or array of objects",
                ))
            }
        };
        let meta = base_meta(source);
        let mut out = AdaptedSource::default();
        for (chunk, object) in objects.iter().enumerate() {
            let Some(entity) = self.entity_of(object) else {
                continue;
            };
            let record_id = start_id + out.records.len() as u64;
            let record = NormalizedRecord::new(
                record_id,
                &source.domain,
                &source.name,
                (*object).clone(),
                meta.clone(),
                None,
            );
            for (path, value) in record.flatten() {
                if self.entity_keys.contains(&path) || value.is_null() {
                    continue;
                }
                out.claims.push(Claim {
                    record_id,
                    entity: entity.clone(),
                    attribute: path,
                    value,
                    chunk: chunk as u32,
                });
            }
            out.records.push(record);
        }
        Ok(out)
    }
}

// -------------------------------------------------------------------
// Semi-structured (XML)
// -------------------------------------------------------------------

/// Adapter for semi-structured XML: each child element of the root is a
/// record; its attributes and leaf children become claims. The entity is
/// the first present of `entity_tags` (as attribute or child text).
#[derive(Debug, Clone)]
pub struct XmlAdapter {
    /// Candidate entity-identifying tags / attributes, tried in order.
    pub entity_tags: Vec<String>,
}

impl Default for XmlAdapter {
    fn default() -> Self {
        Self {
            entity_tags: vec![
                "name".to_string(),
                "id".to_string(),
                "title".to_string(),
                "isbn".to_string(),
            ],
        }
    }
}

impl XmlAdapter {
    fn entity_of(&self, element: &XmlElement) -> Option<String> {
        for tag in &self.entity_tags {
            if let Some(v) = element.attribute(tag) {
                if !v.is_empty() {
                    return Some(v.to_string());
                }
            }
            if let Some(child) = element.child(tag) {
                let text = child.text();
                if !text.is_empty() {
                    return Some(text);
                }
            }
        }
        None
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

fn value_to_json(value: &Value) -> JsonValue {
    match value {
        Value::Null => JsonValue::Null,
        Value::Bool(b) => JsonValue::Bool(*b),
        Value::Int(i) => JsonValue::Int(*i),
        Value::Float(f) => JsonValue::Float(*f),
        Value::Str(s) => JsonValue::Str(s.clone()),
        Value::List(items) => JsonValue::Array(items.iter().map(value_to_json).collect()),
    }
}

impl Adapter for XmlAdapter {
    fn adapt(&self, source: &RawSource, start_id: u64) -> Result<AdaptedSource, ParseError> {
        let root = xml::parse(&source.content)?;
        let meta = base_meta(source);
        let mut out = AdaptedSource::default();
        for (chunk, element) in root.child_elements().into_iter().enumerate() {
            let Some(entity) = self.entity_of(element) else {
                continue;
            };
            let json_mirror = element_to_json(element);
            let record_id = start_id + out.records.len() as u64;
            let record = NormalizedRecord::new(
                record_id,
                &source.domain,
                &source.name,
                json_mirror,
                meta.clone(),
                None,
            );
            for (path, value) in record.flatten() {
                if self.entity_tags.contains(&path) || value.is_null() {
                    continue;
                }
                out.claims.push(Claim {
                    record_id,
                    entity: entity.clone(),
                    attribute: path,
                    value,
                    chunk: chunk as u32,
                });
            }
            out.records.push(record);
        }
        Ok(out)
    }
}

// -------------------------------------------------------------------
// Native KG
// -------------------------------------------------------------------

/// Adapter for native triple dumps: one `subject|predicate|object` per
/// line ('#' comments and blank lines skipped).
#[derive(Debug, Clone, Copy, Default)]
pub struct KgAdapter;

impl KgAdapter {
    fn adapt_impl(
        &self,
        source: &RawSource,
        start_id: u64,
        lenient: bool,
    ) -> (AdaptedSource, Vec<ParseError>) {
        let meta = base_meta(source);
        let mut out = AdaptedSource::default();
        let mut skipped = Vec::new();
        let mut offset = 0usize;
        for (line_no, raw_line) in source.content.split('\n').enumerate() {
            let line_offset = offset;
            offset += raw_line.len() + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '|');
            let (Some(s), Some(p), Some(o)) = (parts.next(), parts.next(), parts.next()) else {
                skipped.push(ParseError::at(
                    "kg",
                    &source.content,
                    line_offset,
                    format!("malformed triple on line {}", line_no + 1),
                ));
                if lenient {
                    continue;
                }
                return (out, skipped);
            };
            let (subject, predicate, object) = (s.trim(), p.trim(), o.trim());
            let record_id = start_id + out.records.len() as u64;
            let content = JsonValue::Object(vec![
                ("subject".to_string(), JsonValue::Str(subject.to_string())),
                (
                    "predicate".to_string(),
                    JsonValue::Str(predicate.to_string()),
                ),
                ("object".to_string(), sniff_scalar(object)),
            ]);
            out.records.push(NormalizedRecord::new(
                record_id,
                &source.domain,
                &source.name,
                content,
                meta.clone(),
                None,
            ));
            out.claims.push(Claim {
                record_id,
                entity: subject.to_string(),
                attribute: predicate.to_string(),
                value: match sniff_scalar(object) {
                    JsonValue::Int(i) => Value::Int(i),
                    JsonValue::Float(f) => Value::Float(f),
                    JsonValue::Bool(b) => Value::Bool(b),
                    other => Value::Str(match other {
                        JsonValue::Str(s) => s,
                        _ => object.to_string(),
                    }),
                },
                chunk: line_no as u32,
            });
        }
        (out, skipped)
    }
}

impl Adapter for KgAdapter {
    fn adapt(&self, source: &RawSource, start_id: u64) -> Result<AdaptedSource, ParseError> {
        let (out, mut skipped) = self.adapt_impl(source, start_id, false);
        match skipped.pop() {
            Some(err) => Err(err),
            None => Ok(out),
        }
    }

    fn adapt_lenient(&self, source: &RawSource, start_id: u64) -> (AdaptedSource, Vec<ParseError>) {
        self.adapt_impl(source, start_id, true)
    }
}

// -------------------------------------------------------------------
// Unstructured text
// -------------------------------------------------------------------

/// Adapter for unstructured text: slices the input into paragraph
/// chunks and records them; triple extraction is the simulated LLM's
/// job downstream.
#[derive(Debug, Clone, Copy)]
pub struct TextAdapter {
    /// Maximum characters per chunk (soft limit, split at paragraph
    /// boundaries).
    pub max_chunk_chars: usize,
}

impl Default for TextAdapter {
    fn default() -> Self {
        Self {
            max_chunk_chars: 800,
        }
    }
}

impl Adapter for TextAdapter {
    fn adapt(&self, source: &RawSource, start_id: u64) -> Result<AdaptedSource, ParseError> {
        let meta = base_meta(source);
        let mut out = AdaptedSource::default();
        let mut current = String::new();
        let flush = |current: &mut String, out: &mut AdaptedSource| {
            let text = current.trim().to_string();
            if text.is_empty() {
                return;
            }
            let record_id = start_id + out.records.len() as u64;
            out.records.push(NormalizedRecord::new(
                record_id,
                &source.domain,
                &source.name,
                JsonValue::Object(vec![("text".to_string(), JsonValue::Str(text.clone()))]),
                meta.clone(),
                None,
            ));
            out.text_chunks.push(text);
            current.clear();
        };
        for paragraph in source.content.split("\n\n") {
            if !current.is_empty() && current.len() + paragraph.len() + 2 > self.max_chunk_chars {
                flush(&mut current, &mut out);
            }
            if !current.is_empty() {
                current.push_str("\n\n");
            }
            current.push_str(paragraph);
            if current.len() >= self.max_chunk_chars {
                flush(&mut current, &mut out);
            }
        }
        flush(&mut current, &mut out);
        Ok(out)
    }
}

// -------------------------------------------------------------------
// Fusion (Eq. 2)
// -------------------------------------------------------------------

/// Runs the right adapter for each source and unions the outputs —
/// `D_Fusion = ⋃_{i} A_i(D_i)`. Records receive globally sequential
/// ids; claims keep per-source provenance via `sources` order.
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
            self.adapted
                .iter()
                .map(|(_, a)| a.records.len() as u64)
                .sum(),
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

    /// The lenient skips as structured trace events, ready for a
    /// [`multirag_obs::QueryTrace`] or direct observer recording.
    pub fn trace_events(&self) -> Vec<multirag_obs::TraceEvent> {
        self.diagnostics
            .iter()
            .map(|diag| multirag_obs::TraceEvent::LenientSkip {
                source: diag.source.clone(),
                detail: format!(
                    "{}:{}:{}: {}",
                    diag.error.format, diag.error.line, diag.error.column, diag.error.message
                ),
            })
            .collect()
    }
}

fn adapter_for(format: SourceFormat) -> Box<dyn Adapter> {
    match format {
        SourceFormat::Csv => Box::new(StructuredAdapter::default()),
        SourceFormat::Json => Box::new(JsonAdapter::default()),
        SourceFormat::Xml => Box::new(XmlAdapter::default()),
        SourceFormat::Kg => Box::new(KgAdapter),
        SourceFormat::Text => Box::new(TextAdapter::default()),
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
    let mut next_id = 0u64;
    for (index, source) in sources.iter().enumerate() {
        let adapter = adapter_for(source.format);
        let adapted = match mode {
            IngestMode::Strict => adapter.adapt(source, next_id)?,
            IngestMode::Lenient => {
                let (adapted, skipped) = adapter.adapt_lenient(source, next_id);
                for error in skipped {
                    report.diagnostics.push(IngestDiagnostic {
                        source_index: index,
                        source: source.name.clone(),
                        error,
                    });
                }
                adapted
            }
        };
        next_id += adapted.records.len() as u64;
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

    #[test]
    fn structured_adapter_emits_row_claims() {
        let adapted = StructuredAdapter::default()
            .adapt(&csv_source(), 0)
            .unwrap();
        assert_eq!(adapted.records.len(), 2);
        assert_eq!(adapted.claims.len(), 4); // 2 rows × (year, director)
        let claim = &adapted.claims[0];
        assert_eq!(claim.entity, "Heat");
        assert_eq!(claim.attribute, "year");
        assert_eq!(claim.value, Value::Int(1995));
        assert!(adapted.records[0].is_columnar());
    }

    #[test]
    fn structured_adapter_honors_entity_column() {
        let adapter = StructuredAdapter {
            entity_column: Some("director".into()),
        };
        let adapted = adapter.adapt(&csv_source(), 0).unwrap();
        assert_eq!(adapted.claims[0].entity, "Mann");
        assert!(adapted.claims.iter().all(|c| c.attribute != "director"));
    }

    #[test]
    fn structured_adapter_rejects_missing_entity_column() {
        let adapter = StructuredAdapter {
            entity_column: Some("nope".into()),
        };
        assert!(adapter.adapt(&csv_source(), 0).is_err());
    }

    #[test]
    fn json_adapter_flattens_nested_content() {
        let adapted = JsonAdapter::default().adapt(&json_source(), 10).unwrap();
        assert_eq!(adapted.records.len(), 2);
        assert_eq!(adapted.records[0].id, 10);
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
    fn json_adapter_skips_objects_without_entity() {
        let source = RawSource {
            name: "x.json".into(),
            domain: "d".into(),
            format: SourceFormat::Json,
            content: r#"[{"title": "Named"}, {"year": 2020}]"#.into(),
        };
        let adapted = JsonAdapter::default().adapt(&source, 0).unwrap();
        assert_eq!(adapted.records.len(), 1);
    }

    #[test]
    fn json_adapter_rejects_scalar_roots() {
        let source = RawSource {
            name: "x.json".into(),
            domain: "d".into(),
            format: SourceFormat::Json,
            content: "42".into(),
        };
        assert!(JsonAdapter::default().adapt(&source, 0).is_err());
    }

    #[test]
    fn xml_adapter_groups_repeated_tags() {
        let adapted = XmlAdapter::default().adapt(&xml_source(), 0).unwrap();
        assert_eq!(adapted.records.len(), 2);
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
        // `title` is the entity tag here (first match in defaults is
        // "name", absent; then "id" as XML attribute on book 2).
        let adapted = XmlAdapter::default().adapt(&xml_source(), 0).unwrap();
        let entities: Vec<&str> = adapted
            .records
            .iter()
            .enumerate()
            .filter_map(|(i, _)| adapted.claims.iter().find(|c| c.record_id == i as u64))
            .map(|c| c.entity.as_str())
            .collect();
        // Book 1 has no name/id → falls to title "Dune".
        assert!(entities.contains(&"Dune"));
        // Book 2 has id="2" → entity "2".
        assert!(entities.contains(&"2"));
    }

    #[test]
    fn kg_adapter_parses_triple_lines() {
        let source = RawSource {
            name: "dump.kg".into(),
            domain: "movies".into(),
            format: SourceFormat::Kg,
            content: "# comment\nHeat|year|1995\nHeat|director|Mann\n\n".into(),
        };
        let adapted = KgAdapter.adapt(&source, 0).unwrap();
        assert_eq!(adapted.claims.len(), 2);
        assert_eq!(adapted.claims[0].value, Value::Int(1995));
        assert_eq!(adapted.claims[1].value, Value::from("Mann"));
    }

    #[test]
    fn kg_adapter_rejects_malformed_lines() {
        let source = RawSource {
            name: "bad.kg".into(),
            domain: "d".into(),
            format: SourceFormat::Kg,
            content: "only|two".into(),
        };
        assert!(KgAdapter.adapt(&source, 0).is_err());
    }

    #[test]
    fn kg_adapter_lenient_skips_bad_lines_with_positions() {
        let source = RawSource {
            name: "dump.kg".into(),
            domain: "movies".into(),
            format: SourceFormat::Kg,
            content: "Heat|year|1995\nonly|two\nHeat|director|Mann\n".into(),
        };
        let (adapted, skipped) = KgAdapter.adapt_lenient(&source, 0);
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
        assert!(report.adapted[0].1.records.is_empty());
        assert!(report.adapted[1].1.records.is_empty());
        assert!(
            !report.adapted[2].1.records.is_empty(),
            "healthy source loads"
        );
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
        assert!(report.adapted[0].1.records.is_empty());
        assert!(!report.adapted[1].1.records.is_empty());
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
        let events = report.trace_events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            multirag_obs::TraceEvent::LenientSkip { source, detail } => {
                assert_eq!(source, "broken.csv");
                assert!(detail.starts_with("csv:"), "positional detail: {detail}");
            }
            other => panic!("unexpected event {other:?}"),
        }
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
            assert_eq!(sa.records.len(), la.records.len());
        }
    }

    #[test]
    fn text_adapter_chunks_paragraphs() {
        let source = RawSource {
            name: "report.txt".into(),
            domain: "flights".into(),
            format: SourceFormat::Text,
            content: format!(
                "{}\n\n{}\n\n{}",
                "p1 ".repeat(100),
                "p2 ".repeat(100),
                "p3 short"
            ),
        };
        let adapter = TextAdapter {
            max_chunk_chars: 350,
        };
        let adapted = adapter.adapt(&source, 0).unwrap();
        assert!(adapted.text_chunks.len() >= 2);
        assert!(adapted.claims.is_empty());
        assert_eq!(adapted.records.len(), adapted.text_chunks.len());
    }

    #[test]
    fn fuse_sources_numbers_records_globally() {
        let sources = vec![csv_source(), json_source()];
        let fused = fuse_sources(&sources).unwrap();
        let all_ids: Vec<u64> = fused
            .iter()
            .flat_map(|(_, a)| a.records.iter().map(|r| r.id))
            .collect();
        let mut sorted = all_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all_ids.len(), "record ids must be unique");
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
