//! Graph persistence: a line-oriented text dump format.
//!
//! The paper stores normalized knowledge as linked data; this module
//! gives the knowledge graph a durable, diffable on-disk form so
//! pipelines can snapshot an aggregated graph and reload it without
//! re-running ingestion. The format is deliberately simple:
//!
//! ```text
//! #multirag-kg v1
//! S|<name>|<format>|<domain>          one line per source
//! E|<name>|<domain>                   one line per entity
//! T|<subj-idx>|<pred>|<kind>|<object>|<src-idx>|<chunk>
//! ```
//!
//! `kind` is `e` (object entity index), `s` (string), `i` (int),
//! `f` (float), `b` (bool) or `n` (null). Strings are escaped
//! (`\|`, `\\`, `\n`, `\r`).

use crate::graph::KnowledgeGraph;
use crate::triple::{EntityId, Object, SourceId};
use crate::value::Value;

/// Errors from [`load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kg dump error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PersistError {}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\|"),
            '\n' => out.push_str("\\n"),
            // A raw `\r` must not reach the dump: `load` splits on
            // `text.lines()`, which treats `\r\n` as one terminator and
            // would silently swallow a trailing carriage return.
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('|') => out.push('|'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Splits a dump line on unescaped `|`.
fn split_fields(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                current.push('\\');
                if let Some(next) = chars.next() {
                    current.push(next);
                }
            }
            '|' => fields.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    fields.push(current);
    fields
}

/// Serializes a graph to the dump format.
pub fn dump(kg: &KnowledgeGraph) -> String {
    let mut out = String::from("#multirag-kg v1\n");
    for sid in kg.source_ids() {
        let rec = kg.source(sid);
        out.push_str(&format!(
            "S|{}|{}|{}\n",
            escape(kg.resolve(rec.name)),
            escape(kg.resolve(rec.format)),
            escape(kg.resolve(rec.domain)),
        ));
    }
    for e in kg.entity_ids() {
        out.push_str(&format!(
            "E|{}|{}\n",
            escape(kg.entity_name(e)),
            escape(kg.entity_domain(e)),
        ));
    }
    for (_, t) in kg.iter_triples() {
        let (kind, object) = match &t.object {
            Object::Entity(e) => ("e", e.0.to_string()),
            Object::Literal(Value::Str(s)) => ("s", escape(s)),
            Object::Literal(Value::Int(i)) => ("i", i.to_string()),
            Object::Literal(Value::Float(f)) => ("f", format!("{f:?}")),
            Object::Literal(Value::Bool(b)) => ("b", b.to_string()),
            Object::Literal(Value::Null) => ("n", String::new()),
            Object::Literal(Value::List(items)) => {
                ("s", escape(&Value::List(items.clone()).to_string()))
            }
        };
        out.push_str(&format!(
            "T|{}|{}|{kind}|{object}|{}|{}\n",
            t.subject.0,
            escape(kg.relation_name(t.predicate)),
            t.source.0,
            t.chunk,
        ));
    }
    out
}

/// Parses a dump back into a graph.
pub fn load(text: &str) -> Result<KnowledgeGraph, PersistError> {
    let err = |line: usize, message: &str| PersistError {
        line,
        message: message.to_string(),
    };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == "#multirag-kg v1" => {}
        _ => return Err(err(1, "missing '#multirag-kg v1' header")),
    }
    let mut kg = KnowledgeGraph::new();
    let mut entities: Vec<EntityId> = Vec::new();
    let mut sources: Vec<SourceId> = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields = split_fields(line);
        match fields[0].as_str() {
            "S" => {
                if fields.len() != 4 {
                    return Err(err(line_no, "source line needs 4 fields"));
                }
                sources.push(kg.add_source(
                    &unescape(&fields[1]),
                    &unescape(&fields[2]),
                    &unescape(&fields[3]),
                ));
            }
            "E" => {
                if fields.len() != 3 {
                    return Err(err(line_no, "entity line needs 3 fields"));
                }
                entities.push(kg.add_entity(&unescape(&fields[1]), &unescape(&fields[2])));
            }
            "T" => {
                if fields.len() != 7 {
                    return Err(err(line_no, "triple line needs 7 fields"));
                }
                let subj: usize = fields[1]
                    .parse()
                    .map_err(|_| err(line_no, "bad subject index"))?;
                let subject = *entities
                    .get(subj)
                    .ok_or_else(|| err(line_no, "subject index out of range"))?;
                let predicate = kg.add_relation(&unescape(&fields[2]));
                let object: Object = match fields[3].as_str() {
                    "e" => {
                        let oi: usize = fields[4]
                            .parse()
                            .map_err(|_| err(line_no, "bad object entity index"))?;
                        Object::Entity(
                            *entities
                                .get(oi)
                                .ok_or_else(|| err(line_no, "object entity index out of range"))?,
                        )
                    }
                    "s" => Object::Literal(Value::Str(unescape(&fields[4]))),
                    "i" => Object::Literal(Value::Int(
                        fields[4].parse().map_err(|_| err(line_no, "bad int"))?,
                    )),
                    // Ingest keeps only finite floats; a `NaN` or `inf`
                    // literal would otherwise enter MCC as a claim that
                    // can win its slot.
                    "f" => Object::Literal(Value::Float(
                        fields[4]
                            .parse::<f64>()
                            .ok()
                            .filter(|f| f.is_finite())
                            .ok_or_else(|| err(line_no, "bad float"))?,
                    )),
                    "b" => Object::Literal(Value::Bool(
                        fields[4].parse().map_err(|_| err(line_no, "bad bool"))?,
                    )),
                    "n" => Object::Literal(Value::Null),
                    other => return Err(err(line_no, &format!("unknown kind '{other}'"))),
                };
                let src: usize = fields[5]
                    .parse()
                    .map_err(|_| err(line_no, "bad source index"))?;
                let source = *sources
                    .get(src)
                    .ok_or_else(|| err(line_no, "source index out of range"))?;
                let chunk: u32 = fields[6].parse().map_err(|_| err(line_no, "bad chunk"))?;
                kg.add_triple(subject, predicate, object, source, chunk);
            }
            other => return Err(err(line_no, &format!("unknown record '{other}'"))),
        }
    }
    Ok(kg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let s0 = kg.add_source("feed|weird", "csv", "flights");
        let s1 = kg.add_source("feed-b", "json", "flights");
        let f = kg.add_entity("CA981", "flights");
        let city = kg.add_entity("New\nYork", "flights");
        let status = kg.add_relation("status");
        let dest = kg.add_relation("destination");
        let count = kg.add_relation("gate");
        kg.add_triple(f, status, Value::from("delayed|badly"), s0, 0);
        kg.add_triple(f, dest, city, s0, 1);
        kg.add_triple(f, count, Value::Int(12), s1, 0);
        kg.add_triple(f, count, Value::Float(2.5), s1, 1);
        kg.add_triple(f, count, Value::Bool(true), s1, 2);
        kg.add_triple(f, count, Value::Null, s1, 3);
        kg
    }

    #[test]
    fn dump_load_round_trips() {
        let kg = sample();
        let text = dump(&kg);
        let loaded = load(&text).unwrap();
        assert_eq!(loaded.source_count(), kg.source_count());
        assert_eq!(loaded.entity_count(), kg.entity_count());
        assert_eq!(loaded.triple_count(), kg.triple_count());
        // Value-level equality of every triple.
        for ((_, a), (_, b)) in kg.iter_triples().zip(loaded.iter_triples()) {
            assert_eq!(a.object.canonical_key(), b.object.canonical_key());
            assert_eq!(a.source, b.source);
            assert_eq!(a.chunk, b.chunk);
        }
        // Escaped names survive.
        assert!(loaded.find_entity("New\nYork", "flights").is_some());
        assert_eq!(loaded.source_name(SourceId(0)), "feed|weird");
    }

    #[test]
    fn entity_edges_reconnect() {
        let kg = sample();
        let loaded = load(&dump(&kg)).unwrap();
        let f = loaded.find_entity("CA981", "flights").unwrap();
        let city = loaded.find_entity("New\nYork", "flights").unwrap();
        assert_eq!(loaded.neighbors(f), vec![city]);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(load("S|a|b|c\n").is_err());
        assert!(load("").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        let cases = [
            "#multirag-kg v1\nS|only|two\n",
            "#multirag-kg v1\nE|one\n",
            "#multirag-kg v1\nT|0|r|s|v|0\n",
            "#multirag-kg v1\nX|what\n",
            "#multirag-kg v1\nE|a|d\nS|s|f|d\nT|9|r|s|v|0|0\n",
            "#multirag-kg v1\nE|a|d\nS|s|f|d\nT|0|r|e|9|0|0\n",
            "#multirag-kg v1\nE|a|d\nS|s|f|d\nT|0|r|i|notanint|0|0\n",
        ];
        for (i, case) in cases.iter().enumerate() {
            assert!(load(case).is_err(), "case {i} should fail");
        }
    }

    #[test]
    fn rejects_non_finite_float_literals() {
        for literal in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let text = format!("#multirag-kg v1\nE|a|d\nS|s|f|d\nT|0|r|f|{literal}|0|0\n");
            let err = load(&text).expect_err(literal);
            assert_eq!(
                (err.line, err.message.as_str()),
                (4, "bad float"),
                "{literal}"
            );
        }
        let finite = "#multirag-kg v1\nE|a|d\nS|s|f|d\nT|0|r|f|-2.5e3|0|0\n";
        assert_eq!(load(finite).unwrap().triple_count(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "#multirag-kg v1\n\n# a comment\nE|a|d\nS|s|f|d\nT|0|r|i|5|0|0\n";
        let kg = load(text).unwrap();
        assert_eq!(kg.triple_count(), 1);
    }

    #[test]
    fn float_precision_survives() {
        let mut kg = KnowledgeGraph::new();
        let s = kg.add_source("s", "csv", "d");
        let e = kg.add_entity("e", "d");
        let r = kg.add_relation("r");
        kg.add_triple(e, r, Value::Float(0.1 + 0.2), s, 0);
        let loaded = load(&dump(&kg)).unwrap();
        let t = loaded.triple(crate::graph::TripleId(0));
        assert_eq!(t.object.as_literal().unwrap().as_f64().unwrap(), 0.1 + 0.2);
    }

    #[test]
    fn generated_dataset_round_trips() {
        // A bigger structural round trip via stats equality.
        let mut kg = KnowledgeGraph::new();
        let s = kg.add_source("s", "kg", "d");
        let r = kg.add_relation("r");
        let ids: Vec<_> = (0..50)
            .map(|i| kg.add_entity(&format!("n{i}"), "d"))
            .collect();
        for i in 0..49 {
            kg.add_triple(ids[i], r, ids[i + 1], s, i as u32);
        }
        let loaded = load(&dump(&kg)).unwrap();
        assert_eq!(loaded.stats(), kg.stats());
    }
}
