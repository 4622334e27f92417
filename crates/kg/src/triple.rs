//! Triples with provenance.
//!
//! A triple asserts `(subject, predicate, object)` where the object is
//! either another entity or a literal [`Value`]. Every triple carries the
//! [`SourceId`] of the data source it came from plus the chunk index
//! within that source — the provenance the confidence machinery needs to
//! weight claims by source credibility (Eq. 11 of the paper).

use crate::value::Value;
use std::fmt;

/// Identifier of an entity node in a [`crate::KnowledgeGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of a relation (predicate) kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u32);

impl RelationId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a data source (one of the multi-source feeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl SourceId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// The object position of a triple: entity reference or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Object {
    /// Reference to another entity node.
    Entity(EntityId),
    /// Literal value.
    Literal(Value),
}

impl Object {
    /// Entity view of the object.
    pub fn as_entity(&self) -> Option<EntityId> {
        match self {
            Object::Entity(e) => Some(*e),
            Object::Literal(_) => None,
        }
    }

    /// Literal view of the object.
    pub fn as_literal(&self) -> Option<&Value> {
        match self {
            Object::Entity(_) => None,
            Object::Literal(v) => Some(v),
        }
    }

    /// Canonical bucketing key for consistency computations. Entities
    /// bucket by id; literals by [`Value::canonical_key`].
    pub fn canonical_key(&self) -> String {
        match self {
            Object::Entity(e) => format!("\u{0}e:{}", e.0),
            Object::Literal(v) => v.canonical_key(),
        }
    }
}

impl From<EntityId> for Object {
    fn from(e: EntityId) -> Self {
        Object::Entity(e)
    }
}

impl From<Value> for Object {
    fn from(v: Value) -> Self {
        Object::Literal(v)
    }
}

/// A provenance-carrying triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triple {
    /// Subject entity.
    pub subject: EntityId,
    /// Predicate / relation kind.
    pub predicate: RelationId,
    /// Object: entity or literal.
    pub object: Object,
    /// Source that asserted this triple.
    pub source: SourceId,
    /// Chunk index within the source the triple was extracted from.
    pub chunk: u32,
}

impl Triple {
    /// Creates a triple with explicit provenance.
    pub fn new(
        subject: EntityId,
        predicate: RelationId,
        object: impl Into<Object>,
        source: SourceId,
        chunk: u32,
    ) -> Self {
        Self {
            subject,
            predicate,
            object: object.into(),
            source,
            chunk,
        }
    }

    /// Whether the triple's object is an entity (a graph edge) rather
    /// than a literal (an attribute).
    pub fn is_edge(&self) -> bool {
        matches!(self.object, Object::Entity(_))
    }

    /// The entity endpoints the triple touches: always the subject, plus
    /// the object when it is an entity. Line-graph adjacency
    /// (Definition 2) is defined over these endpoints.
    pub fn endpoints(&self) -> (EntityId, Option<EntityId>) {
        (self.subject, self.object.as_entity())
    }

    /// Whether two triples share at least one entity endpoint —
    /// the adjacency predicate of the line-graph transform.
    pub fn shares_endpoint(&self, other: &Triple) -> bool {
        let (s1, o1) = self.endpoints();
        let (s2, o2) = other.endpoints();
        s1 == s2 || Some(s1) == o2 || Some(s2) == o1 || (o1.is_some() && o1 == o2)
    }

    /// The `(subject, predicate)` slot this triple fills. Triples from
    /// different sources in the same slot are *homologous candidates*
    /// (Definition 3).
    pub fn slot(&self) -> (EntityId, RelationId) {
        (self.subject, self.predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: Object) -> Triple {
        Triple::new(EntityId(s), RelationId(p), o, SourceId(0), 0)
    }

    #[test]
    fn endpoints_of_attribute_triples_exclude_object() {
        let triple = t(1, 2, Object::Literal(Value::from("14:30")));
        assert_eq!(triple.endpoints(), (EntityId(1), None));
        assert!(!triple.is_edge());
    }

    #[test]
    fn endpoints_of_edge_triples_include_object() {
        let triple = t(1, 2, Object::Entity(EntityId(9)));
        assert_eq!(triple.endpoints(), (EntityId(1), Some(EntityId(9))));
        assert!(triple.is_edge());
    }

    #[test]
    fn shares_endpoint_matches_all_four_cases() {
        let a = t(1, 0, Object::Entity(EntityId(2)));
        // subject == subject
        assert!(a.shares_endpoint(&t(1, 1, Object::Entity(EntityId(3)))));
        // subject == other.object
        assert!(a.shares_endpoint(&t(5, 1, Object::Entity(EntityId(1)))));
        // object == other.subject
        assert!(a.shares_endpoint(&t(2, 1, Object::Entity(EntityId(7)))));
        // object == other.object
        assert!(a.shares_endpoint(&t(8, 1, Object::Entity(EntityId(2)))));
        // disjoint
        assert!(!a.shares_endpoint(&t(8, 1, Object::Entity(EntityId(9)))));
    }

    #[test]
    fn literal_objects_never_create_adjacency() {
        let a = t(1, 0, Object::Literal(Value::from("x")));
        let b = t(2, 0, Object::Literal(Value::from("x")));
        assert!(!a.shares_endpoint(&b));
    }

    #[test]
    fn slot_groups_by_subject_and_predicate() {
        let a = t(1, 4, Object::Literal(Value::from("x")));
        let b = Triple::new(EntityId(1), RelationId(4), Value::from("y"), SourceId(3), 7);
        assert_eq!(a.slot(), b.slot());
    }

    #[test]
    fn object_canonical_keys_distinguish_entities_from_literals() {
        let e = Object::Entity(EntityId(3));
        let l = Object::Literal(Value::Int(3));
        assert_ne!(e.canonical_key(), l.canonical_key());
    }

    #[test]
    fn object_accessors() {
        let e = Object::Entity(EntityId(3));
        assert_eq!(e.as_entity(), Some(EntityId(3)));
        assert!(e.as_literal().is_none());
        let l = Object::Literal(Value::from("v"));
        assert!(l.as_entity().is_none());
        assert_eq!(l.as_literal().unwrap().as_str(), Some("v"));
    }

    #[test]
    fn display_impls_are_compact() {
        assert_eq!(EntityId(4).to_string(), "e4");
        assert_eq!(RelationId(2).to_string(), "r2");
        assert_eq!(SourceId(1).to_string(), "src1");
    }
}
