//! Logic-form generation (Algorithm 2, step 1).
//!
//! Parses a natural-language query into a [`LogicForm`]: a target
//! entity, a relation, and (for multi-hop questions) a chain of hops.
//! Recognized shapes:
//!
//! * `what is the <attr> of <ent>?`
//! * `who <verb-alias> <ent>?`  ("who directed Heat?")
//! * `<attr> of <ent>`
//! * `what is the <attr2> of the <attr1> of <ent>?` (two-hop chains)

use crate::schema::{normalize, Schema};

/// A parsed query: entity + relation chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicForm {
    /// The entity the query anchors on.
    pub entity: String,
    /// Relation chain from the entity to the asked value; length 1 for
    /// single-hop queries.
    pub relations: Vec<String>,
}

impl LogicForm {
    /// Single-hop convenience constructor.
    pub fn single(entity: impl Into<String>, relation: impl Into<String>) -> Self {
        Self {
            entity: entity.into(),
            relations: vec![relation.into()],
        }
    }

    /// The final relation in the chain (the asked attribute).
    pub fn target_relation(&self) -> &str {
        self.relations.last().expect("logic forms have ≥1 relation")
    }
}

/// Parses `query` into a logic form, resolving entities and relations
/// through `schema`. Returns `None` when no shape matches.
pub fn generate_logic_form(query: &str, schema: &Schema) -> Option<LogicForm> {
    let q = normalize(query);
    let q = q
        .trim_start_matches("what is ")
        .trim_start_matches("what are ")
        .trim_start_matches("what was ")
        .trim();

    // Shape: "who <verb> <ent>"
    if let Some(rest) = normalize(query).strip_prefix("who ") {
        let words: Vec<&str> = rest.split_whitespace().collect();
        for take in (1..=3usize.min(words.len().saturating_sub(1))).rev() {
            let phrase = words[..take].join(" ");
            if let Some(relation) = schema.resolve_relation(&phrase) {
                let ent_raw = words[take..].join(" ");
                let entity = resolve_entity_tail(&ent_raw, schema)?;
                return Some(LogicForm::single(entity, relation));
            }
        }
    }

    // Shape: "[the] <attrN> of [the] <attrN-1> of ... of <ent>"
    let parts: Vec<&str> = q.split(" of ").collect();
    if parts.len() >= 2 {
        let entity_raw = parts.last().expect("len>=2");
        let entity = resolve_entity_tail(entity_raw, schema)?;
        let mut relations = Vec::with_capacity(parts.len() - 1);
        for attr in &parts[..parts.len() - 1] {
            let attr = attr.trim_start_matches("the ").trim();
            let relation = schema.resolve_relation(attr)?;
            relations.push(relation.to_string());
        }
        // Innermost attribute applies first: "the director of the sequel
        // of X" = sequel(X) then director.
        relations.reverse();
        return Some(LogicForm { entity, relations });
    }

    None
}

/// Resolves the entity tail of a query, trying the gazetteer first and
/// falling back to the cleaned surface form.
fn resolve_entity_tail(raw: &str, schema: &Schema) -> Option<String> {
    let cleaned = raw.trim_start_matches("the ").trim();
    if cleaned.is_empty() {
        return None;
    }
    Some(
        schema
            .resolve_entity(cleaned)
            .map(str::to_string)
            .unwrap_or_else(|| cleaned.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_entity_verbatim("CA981");
        s.add_entity("heat", "Heat");
        s.add_relation_alias("directed", "director");
        s.add_relation("status");
        s.add_relation("departure_time");
        s.add_relation_alias("departure time", "departure_time");
        s.add_relation("sequel");
        s.add_relation("director");
        s
    }

    #[test]
    fn parses_what_is_the_attr_of_ent() {
        let lf = generate_logic_form("What is the status of CA981?", &schema()).unwrap();
        assert_eq!(lf, LogicForm::single("CA981", "status"));
        assert_eq!(lf.relations.len(), 1);
    }

    #[test]
    fn parses_who_verb_ent() {
        let lf = generate_logic_form("Who directed Heat?", &schema()).unwrap();
        assert_eq!(lf, LogicForm::single("Heat", "director"));
    }

    #[test]
    fn parses_bare_attr_of_ent() {
        let lf = generate_logic_form("departure time of ca981", &schema()).unwrap();
        assert_eq!(lf.entity, "CA981");
        assert_eq!(lf.target_relation(), "departure_time");
    }

    #[test]
    fn parses_two_hop_chains_in_application_order() {
        let lf =
            generate_logic_form("What is the director of the sequel of Heat?", &schema()).unwrap();
        assert_eq!(lf.entity, "Heat");
        assert_eq!(
            lf.relations,
            vec!["sequel".to_string(), "director".to_string()]
        );
        assert_eq!(lf.target_relation(), "director");
        assert_eq!(lf.relations.len(), 2);
    }

    #[test]
    fn unknown_relation_fails() {
        assert!(generate_logic_form("What is the smell of CA981?", &schema()).is_none());
    }

    #[test]
    fn unknown_entity_passes_through_as_surface() {
        let lf = generate_logic_form("What is the status of XY123?", &schema()).unwrap();
        assert_eq!(lf.entity, "xy123");
    }

    #[test]
    fn garbage_queries_fail_gracefully() {
        assert!(generate_logic_form("", &schema()).is_none());
        assert!(generate_logic_form("tell me a joke", &schema()).is_none());
    }

    #[test]
    fn entity_resolution_is_case_insensitive() {
        let lf = generate_logic_form("what is the status of HEAT?", &schema()).unwrap();
        assert_eq!(lf.entity, "Heat");
    }
}
