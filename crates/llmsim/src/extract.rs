//! SPO triple extraction and entity standardization (the `triple.py`
//! and `std.py` prompt analogues).
//!
//! Extraction is pattern-driven over sentences, constrained — exactly
//! as the paper's `triple.py` instruction requires — to subjects that
//! appear in the entity list produced by NER. Supported shapes:
//!
//! * `the <attr> of <ent> is/was <val>`
//! * `<ent>'s <attr> is/was <val>`
//! * `<ent> <attr>: <val>` (colon-separated key-value)
//! * `<ent> is/was <attr-verb> by <val>` (passive: "directed by")
//! * `<ent> <verb-phrase> <val>` for schema relation aliases
//!   ("departs from", "arrives at")

use crate::ner::{extract_entities, Mention};
use crate::schema::{normalize, Schema};
use multirag_kg::Value;

/// An extracted `(subject, predicate, object)` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedTriple {
    /// Canonical subject entity.
    pub subject: String,
    /// Canonical relation.
    pub predicate: String,
    /// Extracted object value (standardized).
    pub object: Value,
}

/// Extracts SPO triples from a text chunk, guided by `schema`.
/// Subjects are constrained to NER mentions; predicates to schema
/// relations (aliases included).
pub fn extract_triples(text: &str, schema: &Schema) -> Vec<ExtractedTriple> {
    let mentions = extract_entities(text, schema);
    if mentions.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<ExtractedTriple> = Vec::new();
    for sentence in text.split(['.', '!', '?', '\n']) {
        let sentence = sentence.trim();
        if sentence.is_empty() {
            continue;
        }
        for triple in extract_from_sentence(sentence, &mentions, schema) {
            if !out.contains(&triple) {
                out.push(triple);
            }
        }
    }
    out
}

fn extract_from_sentence(
    sentence: &str,
    mentions: &[Mention],
    schema: &Schema,
) -> Vec<ExtractedTriple> {
    let mut out = Vec::new();
    let lower = sentence.to_lowercase();

    // Shape: "the <attr> of <ent> is <val>"
    if let Some(rest) = lower.strip_prefix("the ") {
        if let Some(of_pos) = rest.find(" of ") {
            let attr = &rest[..of_pos];
            let tail = &rest[of_pos + 4..];
            if let Some((ent_part, val_part)) = split_copula(tail) {
                if let Some(subject) = match_mention(ent_part, mentions) {
                    if let Some(relation) = schema.resolve_relation(attr) {
                        out.push(ExtractedTriple {
                            subject,
                            predicate: relation.to_string(),
                            object: standardize_value(val_part),
                        });
                    }
                }
            }
        }
    }

    // Shape: "<ent>'s <attr> is <val>"
    if let Some(apos) = lower.find("'s ") {
        let ent_part = &lower[..apos];
        let tail = &lower[apos + 3..];
        if let Some((attr_part, val_part)) = split_copula(tail) {
            if let Some(subject) = match_mention(ent_part, mentions) {
                if let Some(relation) = schema.resolve_relation(attr_part) {
                    out.push(ExtractedTriple {
                        subject,
                        predicate: relation.to_string(),
                        object: standardize_value(val_part),
                    });
                }
            }
        }
    }

    // Shape: "<ent> <attr>: <val>"
    if let Some(colon) = sentence.find(':') {
        let head = &sentence[..colon];
        let val_part = sentence[colon + 1..].trim();
        let head_lower = head.to_lowercase();
        // Longest mention that prefixes the head; the rest is the attr.
        for mention in mentions {
            let m_norm = normalize(&mention.surface);
            let head_norm = normalize(&head_lower);
            if let Some(attr) = head_norm.strip_prefix(&m_norm) {
                let attr = attr.trim();
                if attr.is_empty() {
                    continue;
                }
                if let Some(relation) = schema.resolve_relation(attr) {
                    out.push(ExtractedTriple {
                        subject: mention.name.clone(),
                        predicate: relation.to_string(),
                        object: standardize_value(val_part),
                    });
                    break;
                }
            }
        }
    }

    // Shape: "<ent> is/was <verb> by <val>" (passive voice).
    for copula in [" was ", " is ", " were ", " are "] {
        if let Some(cop_pos) = lower.find(copula) {
            let ent_part = &lower[..cop_pos];
            let tail = &lower[cop_pos + copula.len()..];
            if let Some(by_pos) = tail.find(" by ") {
                let verb = tail[..by_pos].trim();
                let val_part = tail[by_pos + 4..].trim();
                if let Some(subject) = match_mention(ent_part, mentions) {
                    let phrase = format!("{verb} by");
                    if let Some(relation) = schema
                        .resolve_relation(&phrase)
                        .or_else(|| schema.resolve_relation(verb))
                    {
                        out.push(ExtractedTriple {
                            subject,
                            predicate: relation.to_string(),
                            object: standardize_value(val_part),
                        });
                    }
                }
            }
        }
    }

    // Shape: "<ent> <verb-phrase> <val>" for registered aliases.
    for mention in mentions {
        let m_norm = normalize(&mention.surface);
        let s_norm = normalize(&lower);
        if let Some(after) = s_norm.strip_prefix(&m_norm) {
            let after = after.trim();
            // Try progressively shorter verb phrases (up to 3 tokens).
            let words: Vec<&str> = after.split_whitespace().collect();
            for take in (1..=3usize.min(words.len().saturating_sub(1))).rev() {
                let phrase = words[..take].join(" ");
                if let Some(relation) = schema.resolve_relation(&phrase) {
                    let val_part = words[take..].join(" ");
                    if !val_part.is_empty() {
                        out.push(ExtractedTriple {
                            subject: mention.name.clone(),
                            predicate: relation.to_string(),
                            object: standardize_value(&val_part),
                        });
                        break;
                    }
                }
            }
        }
    }

    out
}

/// Splits `"<head> is/was/are/were <tail>"`.
fn split_copula(text: &str) -> Option<(&str, &str)> {
    for copula in [" is ", " was ", " are ", " were "] {
        if let Some(pos) = text.find(copula) {
            return Some((text[..pos].trim(), text[pos + copula.len()..].trim()));
        }
    }
    None
}

/// Strips a leading article from a normalized phrase.
fn strip_article(s: &str) -> &str {
    s.strip_prefix("the ")
        .or_else(|| s.strip_prefix("a "))
        .or_else(|| s.strip_prefix("an "))
        .unwrap_or(s)
}

/// Finds the mention whose normalized surface matches `text` (articles
/// stripped on both sides), preferring the longest.
fn match_mention(text: &str, mentions: &[Mention]) -> Option<String> {
    let full = normalize(text.trim());
    let cleaned = strip_article(&full).to_string();
    let mut best: Option<&Mention> = None;
    for mention in mentions {
        let m_norm = normalize(&mention.surface);
        let n_norm = normalize(&mention.name);
        let m_stripped = strip_article(&m_norm);
        let n_stripped = strip_article(&n_norm);
        let hit = full == m_norm
            || full == n_norm
            || cleaned == m_stripped
            || cleaned == n_stripped
            || full.ends_with(&m_norm);
        if hit && best.is_none_or(|b| normalize(&b.surface).len() < m_norm.len()) {
            best = Some(mention);
        }
    }
    best.map(|m| m.name.clone())
}

/// Entity / value standardization (the `std.py` analogue): trims,
/// collapses whitespace, strips trailing punctuation, and sniffs
/// numerics. Multi-valued "A and B" / "A, B" objects become lists.
pub fn standardize_value(raw: &str) -> Value {
    let cleaned = raw
        .trim()
        .trim_end_matches(['.', ',', ';', '!', '?'])
        .trim();
    // Multi-valued split: "x, y and z" → [x, y, z].
    let parts: Vec<&str> = cleaned
        .split(',')
        .flat_map(|p| p.split(" and "))
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect();
    if parts.len() > 1 {
        return Value::List(parts.iter().map(|p| standardize_scalar(p)).collect());
    }
    standardize_scalar(cleaned)
}

fn standardize_scalar(text: &str) -> Value {
    let collapsed: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
    if let Ok(i) = collapsed.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = collapsed.parse::<f64>() {
        if f.is_finite() {
            return Value::Float(f);
        }
    }
    Value::Str(collapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_entity_verbatim("CA981");
        s.add_entity_verbatim("Heat");
        s.add_entity_verbatim("Inception");
        s.add_relation_alias("status", "status");
        s.add_relation_alias("directed by", "director");
        s.add_relation_alias("directed", "director");
        s.add_relation_alias("departs from", "departs_from");
        s.add_relation("departure_time");
        s.add_relation_alias("departure time", "departure_time");
        s.add_relation("year");
        s
    }

    #[test]
    fn extracts_the_attr_of_ent_shape() {
        let triples = extract_triples("The status of CA981 is delayed.", &schema());
        assert_eq!(
            triples,
            vec![ExtractedTriple {
                subject: "CA981".into(),
                predicate: "status".into(),
                object: Value::from("delayed"),
            }]
        );
    }

    #[test]
    fn extracts_possessive_shape() {
        let triples = extract_triples("CA981's departure time is 14:30.", &schema());
        assert!(triples.iter().any(|t| t.subject == "CA981"
            && t.predicate == "departure_time"
            && t.object == Value::from("14:30")));
    }

    #[test]
    fn extracts_colon_shape() {
        let triples = extract_triples("CA981 status: on-time", &schema());
        assert!(triples
            .iter()
            .any(|t| t.predicate == "status" && t.object == Value::from("on-time")));
    }

    #[test]
    fn extracts_passive_voice() {
        let triples = extract_triples("Heat was directed by Michael Mann.", &schema());
        assert!(triples.iter().any(|t| t.subject == "Heat"
            && t.predicate == "director"
            && t.object == Value::from("michael mann")));
    }

    #[test]
    fn extracts_verb_phrase_alias() {
        let triples = extract_triples("CA981 departs from Beijing.", &schema());
        assert!(triples
            .iter()
            .any(|t| t.subject == "CA981" && t.predicate == "departs_from"));
    }

    #[test]
    fn subjects_must_be_known_entities() {
        // "UnknownFilm" isn't in the gazetteer or capitalizable in a way
        // that survives; and is not in mentions, so no triple.
        let triples = extract_triples("The year of unknownfilm is 1990.", &schema());
        assert!(triples.is_empty());
    }

    #[test]
    fn multivalued_objects_split() {
        let v = standardize_value("Lana Wachowski and Lilly Wachowski");
        let list = v.as_list().unwrap();
        assert_eq!(list.len(), 2);
        let v = standardize_value("a, b and c");
        assert_eq!(v.as_list().unwrap().len(), 3);
    }

    #[test]
    fn standardize_sniffs_numbers() {
        assert_eq!(standardize_value(" 1995. "), Value::Int(1995));
        assert_eq!(standardize_value("3.5"), Value::Float(3.5));
        assert_eq!(standardize_value("n/a"), Value::from("n/a"));
    }

    #[test]
    fn standardize_collapses_whitespace() {
        assert_eq!(
            standardize_value("  two   words  "),
            Value::from("two words")
        );
    }

    #[test]
    fn duplicate_triples_are_merged() {
        let text = "The status of CA981 is delayed. The status of CA981 is delayed.";
        let triples = extract_triples(text, &schema());
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn multiple_sentences_yield_multiple_triples() {
        let text = "The status of CA981 is delayed. The year of Heat is 1995.";
        let triples = extract_triples(text, &schema());
        assert_eq!(triples.len(), 2);
    }

    #[test]
    fn empty_text_or_schema_is_safe() {
        assert!(extract_triples("", &schema()).is_empty());
        assert!(extract_triples("some text", &Schema::new()).is_empty());
    }
}
