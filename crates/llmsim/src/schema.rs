//! Extraction schema.
//!
//! The paper defines "relevant entity types in the schema" and relation
//! lists that guide OpenSPG's SchemaFreeExtractor prompts. [`Schema`]
//! plays that role here: entity gazetteer, relation vocabulary with
//! natural-language aliases, and entity alias tables for
//! standardization.

use multirag_kg::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};

/// Extraction schema guiding NER, triple extraction and logic-form
/// generation.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Known entity surface forms → canonical names (the gazetteer).
    entities: FxHashMap<String, String>,
    /// Relation names in canonical (snake_case) form.
    relations: Vec<String>,
    /// Natural-language alias → relation name ("directed by" →
    /// "director").
    relation_aliases: FxHashMap<String, String>,
    /// Incremental content fingerprint: the XOR of every live entry's
    /// hash, so it is order-independent and updated in O(1) per
    /// mutation. Response-cache keys include it so a schema change
    /// (a new epoch's graph) namespaces the cache instead of serving
    /// stale parses.
    fingerprint: u64,
}

fn entry_hash(kind: &str, key: &str, value: &str) -> u64 {
    let mut h = FxHasher::default();
    kind.hash(&mut h);
    key.hash(&mut h);
    value.hash(&mut h);
    h.finish()
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an entity and its canonical name. The surface form is
    /// matched case-insensitively.
    pub fn add_entity(&mut self, surface: &str, canonical: &str) {
        let norm = normalize(surface);
        if let Some(old) = self.entities.insert(norm.clone(), canonical.to_string()) {
            self.fingerprint ^= entry_hash("ent", &norm, &old);
        }
        self.fingerprint ^= entry_hash("ent", &norm, canonical);
    }

    /// Registers an entity whose surface form is its canonical name.
    pub fn add_entity_verbatim(&mut self, name: &str) {
        self.add_entity(name, name);
    }

    /// Registers a relation.
    pub fn add_relation(&mut self, name: &str) {
        if !self.relations.iter().any(|r| r == name) {
            self.relations.push(name.to_string());
            self.fingerprint ^= entry_hash("rel", name, "");
        }
        // A relation is trivially an alias of itself, including a
        // space-separated variant of snake_case.
        self.insert_alias(&normalize(name), name);
        self.insert_alias(&normalize(&name.replace('_', " ")), name);
    }

    /// Registers a natural-language alias for a relation.
    pub fn add_relation_alias(&mut self, alias: &str, relation: &str) {
        self.add_relation(relation);
        self.insert_alias(&normalize(alias), relation);
    }

    fn insert_alias(&mut self, norm: &str, relation: &str) {
        if let Some(old) = self
            .relation_aliases
            .insert(norm.to_string(), relation.to_string())
        {
            self.fingerprint ^= entry_hash("ali", norm, &old);
        }
        self.fingerprint ^= entry_hash("ali", norm, relation);
    }

    /// Order-independent content fingerprint of the whole schema.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Canonical name for a surface form, if known.
    pub fn resolve_entity(&self, surface: &str) -> Option<&str> {
        self.entities.get(&normalize(surface)).map(String::as_str)
    }

    /// Relation behind a natural-language phrase, if known.
    pub fn resolve_relation(&self, phrase: &str) -> Option<&str> {
        self.relation_aliases
            .get(&normalize(phrase))
            .map(String::as_str)
    }

    /// All canonical relations.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Number of gazetteer entries.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Iterates `(normalized_surface, canonical)` pairs.
    pub fn entities(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entities.iter().map(|(s, c)| (s.as_str(), c.as_str()))
    }
}

/// Normalizes a surface form for matching: lowercase, collapsed
/// whitespace, no punctuation.
pub fn normalize(text: &str) -> String {
    multirag_retrieval::text::normalize_mention(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_resolution_is_case_and_punct_insensitive() {
        let mut schema = Schema::new();
        schema.add_entity("J.R.R. Tolkien", "J. R. R. Tolkien");
        assert_eq!(
            schema.resolve_entity("j r r tolkien"),
            Some("J. R. R. Tolkien")
        );
        assert_eq!(
            schema.resolve_entity("J.R.R. TOLKIEN"),
            Some("J. R. R. Tolkien")
        );
        assert_eq!(schema.resolve_entity("unknown"), None);
    }

    #[test]
    fn relation_aliases_resolve() {
        let mut schema = Schema::new();
        schema.add_relation_alias("directed by", "director");
        schema.add_relation_alias("who directed", "director");
        assert_eq!(schema.resolve_relation("Directed By"), Some("director"));
        assert_eq!(schema.resolve_relation("who directed"), Some("director"));
        assert_eq!(schema.resolve_relation("director"), Some("director"));
        assert_eq!(schema.relations(), &["director".to_string()]);
    }

    #[test]
    fn snake_case_relations_match_spaced_phrases() {
        let mut schema = Schema::new();
        schema.add_relation("departure_time");
        assert_eq!(
            schema.resolve_relation("departure time"),
            Some("departure_time")
        );
    }

    #[test]
    fn duplicate_registrations_are_idempotent() {
        let mut schema = Schema::new();
        schema.add_relation("year");
        schema.add_relation("year");
        assert_eq!(schema.relations().len(), 1);
    }

    #[test]
    fn fingerprint_tracks_content_not_order() {
        let mut a = Schema::new();
        a.add_relation("year");
        a.add_entity_verbatim("CA981");
        let mut b = Schema::new();
        b.add_entity_verbatim("CA981");
        b.add_relation("year");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), Schema::new().fingerprint());
        // Idempotent registration leaves the fingerprint alone...
        let before = a.fingerprint();
        a.add_relation("year");
        a.add_entity_verbatim("CA981");
        assert_eq!(a.fingerprint(), before);
        // ...while new content moves it.
        a.add_entity_verbatim("CA982");
        assert_ne!(a.fingerprint(), before);
        // Remapping an existing surface form also moves it.
        let mut c = Schema::new();
        c.add_entity("x", "X1");
        let c1 = c.fingerprint();
        c.add_entity("x", "X2");
        assert_ne!(c.fingerprint(), c1);
    }

    #[test]
    fn verbatim_entities() {
        let mut schema = Schema::new();
        schema.add_entity_verbatim("CA981");
        assert_eq!(schema.resolve_entity("ca981"), Some("CA981"));
        assert_eq!(schema.entity_count(), 1);
    }
}
