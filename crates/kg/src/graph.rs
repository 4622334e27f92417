//! The indexed multi-source triple store.
//!
//! [`KnowledgeGraph`] owns the interner, the entity / relation / source
//! tables and the triple log, and maintains secondary indexes over
//! subject, object entity and `(subject, predicate)` slots so
//! the retrieval and homologous-matching layers never scan the full log.

use crate::hash::FxHashMap;
use crate::intern::{Interner, Symbol};
use crate::triple::{EntityId, Object, RelationId, SourceId, Triple};
use crate::value::Value;

/// Identifier of a triple within its graph — also the node id of the
/// triple's image in the line graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TripleId(pub u32);

impl TripleId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TripleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Entity record: interned name plus the domain it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRecord {
    /// Interned entity name.
    pub name: Symbol,
    /// Interned domain (e.g. "movies", "flights").
    pub domain: Symbol,
}

/// Source record: interned name, declared format and domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceRecord {
    /// Interned source name.
    pub name: Symbol,
    /// Interned storage format tag ("csv", "json", "xml", "kg", "text").
    pub format: Symbol,
    /// Interned domain the source covers.
    pub domain: Symbol,
}

/// Aggregate statistics of a graph (backs Table I).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphStats {
    /// Number of entity nodes.
    pub entities: usize,
    /// Number of distinct relation kinds.
    pub relations: usize,
    /// Number of triples.
    pub triples: usize,
    /// Number of registered sources.
    pub sources: usize,
    /// Number of entity→entity edges (non-literal triples).
    pub edges: usize,
    /// Mean out-degree over entities (triples per subject).
    pub mean_degree: f64,
}

/// The multi-source knowledge graph `G` of the paper.
///
/// # Examples
///
/// ```
/// use multirag_kg::{KnowledgeGraph, Value};
///
/// let mut kg = KnowledgeGraph::new();
/// let src = kg.add_source("airline-feed", "csv", "flights");
/// let flight = kg.add_entity("CA981", "flights");
/// let status = kg.add_relation("status");
/// kg.add_triple(flight, status, Value::from("delayed"), src, 0);
/// assert_eq!(kg.stats().triples, 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct KnowledgeGraph {
    interner: Interner,
    entities: Vec<EntityRecord>,
    entity_lookup: FxHashMap<(Symbol, Symbol), EntityId>,
    relations: Vec<Symbol>,
    relation_lookup: FxHashMap<Symbol, RelationId>,
    sources: Vec<SourceRecord>,
    triples: Vec<Triple>,
    by_subject: Vec<Vec<TripleId>>,
    by_object_entity: FxHashMap<EntityId, Vec<TripleId>>,
    by_slot: FxHashMap<(EntityId, RelationId), Vec<TripleId>>,
}

impl KnowledgeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph pre-sized for roughly `entities` entities and
    /// `triples` triples.
    pub fn with_capacity(entities: usize, triples: usize) -> Self {
        Self {
            interner: Interner::with_capacity(entities),
            entities: Vec::with_capacity(entities),
            entity_lookup: FxHashMap::with_capacity_and_hasher(entities, Default::default()),
            triples: Vec::with_capacity(triples),
            by_subject: Vec::with_capacity(entities),
            ..Self::default()
        }
    }

    // ---------------------------------------------------------------
    // Registration
    // ---------------------------------------------------------------

    /// Interns an arbitrary string through the graph's interner.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves a symbol interned by this graph.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Adds (or finds) an entity named `name` in `domain`.
    pub fn add_entity(&mut self, name: &str, domain: &str) -> EntityId {
        let name = self.interner.intern(name);
        let domain = self.interner.intern(domain);
        if let Some(&id) = self.entity_lookup.get(&(name, domain)) {
            return id;
        }
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(EntityRecord { name, domain });
        self.by_subject.push(Vec::new());
        self.entity_lookup.insert((name, domain), id);
        id
    }

    /// Looks up an entity without creating it.
    pub fn find_entity(&self, name: &str, domain: &str) -> Option<EntityId> {
        let name = self.interner.get(name)?;
        let domain = self.interner.get(domain)?;
        self.entity_lookup.get(&(name, domain)).copied()
    }

    /// Adds (or finds) a relation kind.
    pub fn add_relation(&mut self, name: &str) -> RelationId {
        let sym = self.interner.intern(name);
        if let Some(&id) = self.relation_lookup.get(&sym) {
            return id;
        }
        let id = RelationId(self.relations.len() as u32);
        self.relations.push(sym);
        self.relation_lookup.insert(sym, id);
        id
    }

    /// Looks up a relation without creating it.
    pub fn find_relation(&self, name: &str) -> Option<RelationId> {
        let sym = self.interner.get(name)?;
        self.relation_lookup.get(&sym).copied()
    }

    /// Registers a data source.
    pub fn add_source(&mut self, name: &str, format: &str, domain: &str) -> SourceId {
        let record = SourceRecord {
            name: self.interner.intern(name),
            format: self.interner.intern(format),
            domain: self.interner.intern(domain),
        };
        let id = SourceId(self.sources.len() as u32);
        self.sources.push(record);
        id
    }

    /// Appends a triple, updating every secondary index.
    pub fn add_triple(
        &mut self,
        subject: EntityId,
        predicate: RelationId,
        object: impl Into<Object>,
        source: SourceId,
        chunk: u32,
    ) -> TripleId {
        let triple = Triple::new(subject, predicate, object, source, chunk);
        debug_assert!(subject.index() < self.entities.len(), "unknown subject");
        let id = TripleId(self.triples.len() as u32);
        self.by_subject[subject.index()].push(id);
        if let Object::Entity(obj) = triple.object {
            debug_assert!(obj.index() < self.entities.len(), "unknown object entity");
            self.by_object_entity.entry(obj).or_default().push(id);
        }
        self.by_slot
            .entry((subject, predicate))
            .or_default()
            .push(id);
        self.triples.push(triple);
        id
    }

    // ---------------------------------------------------------------
    // Access
    // ---------------------------------------------------------------

    /// The triple behind an id.
    pub fn triple(&self, id: TripleId) -> &Triple {
        &self.triples[id.index()]
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The triple's object as a [`Value`]: literals verbatim, entity
    /// objects as their surface name — the form the confidence layer
    /// standardizes and compares.
    pub fn triple_value(&self, id: TripleId) -> Value {
        match &self.triple(id).object {
            Object::Entity(e) => Value::Str(self.entity_name(*e).to_string()),
            Object::Literal(v) => v.clone(),
        }
    }

    /// Iterates `(TripleId, &Triple)`.
    pub fn iter_triples(&self) -> impl Iterator<Item = (TripleId, &Triple)> {
        self.triples
            .iter()
            .enumerate()
            .map(|(i, t)| (TripleId(i as u32), t))
    }

    /// Entity record behind an id.
    pub fn entity(&self, id: EntityId) -> &EntityRecord {
        &self.entities[id.index()]
    }

    /// Entity name behind an id.
    pub fn entity_name(&self, id: EntityId) -> &str {
        self.interner.resolve(self.entities[id.index()].name)
    }

    /// Entity domain behind an id.
    pub fn entity_domain(&self, id: EntityId) -> &str {
        self.interner.resolve(self.entities[id.index()].domain)
    }

    /// Relation name behind an id.
    pub fn relation_name(&self, id: RelationId) -> &str {
        self.interner.resolve(self.relations[id.index()])
    }

    /// Source record behind an id.
    pub fn source(&self, id: SourceId) -> &SourceRecord {
        &self.sources[id.index()]
    }

    /// Source name behind an id.
    pub fn source_name(&self, id: SourceId) -> &str {
        self.interner.resolve(self.sources[id.index()].name)
    }

    /// Number of entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of relation kinds.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of triples.
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Iterates all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len() as u32).map(EntityId)
    }

    /// Iterates all source ids.
    pub fn source_ids(&self) -> impl Iterator<Item = SourceId> {
        (0..self.sources.len() as u32).map(SourceId)
    }

    // ---------------------------------------------------------------
    // Index queries
    // ---------------------------------------------------------------

    /// Triples whose subject is `e`.
    pub fn outgoing(&self, e: EntityId) -> &[TripleId] {
        &self.by_subject[e.index()]
    }

    /// Triples whose object entity is `e`.
    pub fn incoming(&self, e: EntityId) -> &[TripleId] {
        self.by_object_entity
            .get(&e)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Triples filling the `(subject, predicate)` slot — the homologous
    /// candidate set for that slot (Definition 3).
    pub fn slot_triples(&self, subject: EntityId, predicate: RelationId) -> &[TripleId] {
        self.by_slot
            .get(&(subject, predicate))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Entity neighbours of `e` via edge triples (both directions).
    pub fn neighbors(&self, e: EntityId) -> Vec<EntityId> {
        let mut out = Vec::new();
        for &tid in self.outgoing(e) {
            if let Object::Entity(obj) = self.triples[tid.index()].object {
                out.push(obj);
            }
        }
        for &tid in self.incoming(e) {
            out.push(self.triples[tid.index()].subject);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Literal attribute values of `e` under predicate `r`.
    pub fn attribute_values(&self, e: EntityId, r: RelationId) -> Vec<&Value> {
        self.slot_triples(e, r)
            .iter()
            .filter_map(|&tid| self.triples[tid.index()].object.as_literal())
            .collect()
    }

    /// Aggregate statistics (Table I backing data).
    pub fn stats(&self) -> GraphStats {
        let edges = self.triples.iter().filter(|t| t.is_edge()).count();
        let mean_degree = if self.entities.is_empty() {
            0.0
        } else {
            self.triples.len() as f64 / self.entities.len() as f64
        };
        GraphStats {
            entities: self.entities.len(),
            relations: self.relations.len(),
            triples: self.triples.len(),
            sources: self.sources.len(),
            edges,
            mean_degree,
        }
    }

    /// Builds a sub-graph restricted to the given sources, re-using this
    /// graph's string table semantics (names survive, ids do not).
    /// Used by the experiment harness to evaluate source combinations
    /// (the J/K, J/C, … columns of Table II).
    pub fn restrict_to_sources(&self, keep: &[SourceId]) -> KnowledgeGraph {
        let keep_set: crate::hash::FxHashSet<SourceId> = keep.iter().copied().collect();
        let mut out = KnowledgeGraph::with_capacity(self.entities.len(), self.triples.len());
        // Re-register kept sources in original order, remembering the mapping.
        let mut source_map: FxHashMap<SourceId, SourceId> = FxHashMap::default();
        for (i, rec) in self.sources.iter().enumerate() {
            let old = SourceId(i as u32);
            if keep_set.contains(&old) {
                let name = self.interner.resolve(rec.name).to_string();
                let format = self.interner.resolve(rec.format).to_string();
                let domain = self.interner.resolve(rec.domain).to_string();
                let new = out.add_source(&name, &format, &domain);
                source_map.insert(old, new);
            }
        }
        let mut entity_map: FxHashMap<EntityId, EntityId> = FxHashMap::default();
        let map_entity = |g: &Self,
                          out: &mut KnowledgeGraph,
                          map: &mut FxHashMap<EntityId, EntityId>,
                          e: EntityId| {
            *map.entry(e).or_insert_with(|| {
                let rec = g.entity(e);
                let name = g.interner.resolve(rec.name).to_string();
                let domain = g.interner.resolve(rec.domain).to_string();
                out.add_entity(&name, &domain)
            })
        };
        for t in &self.triples {
            let Some(&new_src) = source_map.get(&t.source) else {
                continue;
            };
            let s = map_entity(self, &mut out, &mut entity_map, t.subject);
            let p_name = self.relation_name(t.predicate).to_string();
            let p = out.add_relation(&p_name);
            let obj: Object = match &t.object {
                Object::Entity(e) => {
                    Object::Entity(map_entity(self, &mut out, &mut entity_map, *e))
                }
                Object::Literal(v) => Object::Literal(v.clone()),
            };
            out.add_triple(s, p, obj, new_src, t.chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let s0 = kg.add_source("feed-a", "csv", "flights");
        let s1 = kg.add_source("feed-b", "json", "flights");
        let ca981 = kg.add_entity("CA981", "flights");
        let beijing = kg.add_entity("Beijing", "flights");
        let depart = kg.add_relation("departs_from");
        let status = kg.add_relation("status");
        kg.add_triple(ca981, depart, beijing, s0, 0);
        kg.add_triple(ca981, status, Value::from("delayed"), s0, 1);
        kg.add_triple(ca981, status, Value::from("on-time"), s1, 0);
        kg
    }

    #[test]
    fn add_entity_deduplicates_by_name_and_domain() {
        let mut kg = KnowledgeGraph::new();
        let a = kg.add_entity("X", "movies");
        let b = kg.add_entity("X", "movies");
        let c = kg.add_entity("X", "books");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(kg.entity_count(), 2);
    }

    #[test]
    fn find_entity_and_relation_do_not_create() {
        let mut kg = KnowledgeGraph::new();
        assert!(kg.find_entity("X", "movies").is_none());
        assert!(kg.find_relation("directed_by").is_none());
        let e = kg.add_entity("X", "movies");
        let r = kg.add_relation("directed_by");
        assert_eq!(kg.find_entity("X", "movies"), Some(e));
        assert_eq!(kg.find_relation("directed_by"), Some(r));
    }

    #[test]
    fn indexes_track_subject_object_predicate_and_slot() {
        let kg = sample_graph();
        let ca981 = kg.find_entity("CA981", "flights").unwrap();
        let beijing = kg.find_entity("Beijing", "flights").unwrap();
        let status = kg.find_relation("status").unwrap();
        assert_eq!(kg.outgoing(ca981).len(), 3);
        assert_eq!(kg.incoming(beijing).len(), 1);
        assert_eq!(kg.slot_triples(ca981, status).len(), 2);
    }

    #[test]
    fn attribute_values_collects_literals_only() {
        let kg = sample_graph();
        let ca981 = kg.find_entity("CA981", "flights").unwrap();
        let status = kg.find_relation("status").unwrap();
        let depart = kg.find_relation("departs_from").unwrap();
        let values = kg.attribute_values(ca981, status);
        assert_eq!(values.len(), 2);
        assert!(kg.attribute_values(ca981, depart).is_empty());
    }

    #[test]
    fn neighbors_are_bidirectional_and_deduped() {
        let kg = sample_graph();
        let ca981 = kg.find_entity("CA981", "flights").unwrap();
        let beijing = kg.find_entity("Beijing", "flights").unwrap();
        assert_eq!(kg.neighbors(ca981), vec![beijing]);
        assert_eq!(kg.neighbors(beijing), vec![ca981]);
    }

    #[test]
    fn stats_count_edges_and_degree() {
        let kg = sample_graph();
        let stats = kg.stats();
        assert_eq!(stats.entities, 2);
        assert_eq!(stats.relations, 2);
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.sources, 2);
        assert_eq!(stats.edges, 1);
        assert!((stats.mean_degree - 1.5).abs() < 1e-9);
    }

    #[test]
    fn restrict_to_sources_drops_foreign_triples() {
        let kg = sample_graph();
        let restricted = kg.restrict_to_sources(&[SourceId(0)]);
        assert_eq!(restricted.source_count(), 1);
        assert_eq!(restricted.triple_count(), 2);
        // Source-1's conflicting "on-time" claim is gone.
        let ca981 = restricted.find_entity("CA981", "flights").unwrap();
        let status = restricted.find_relation("status").unwrap();
        let values = restricted.attribute_values(ca981, status);
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].as_str(), Some("delayed"));
    }

    #[test]
    fn restrict_to_sources_keeps_entity_names() {
        let kg = sample_graph();
        let restricted = kg.restrict_to_sources(&[SourceId(1)]);
        assert!(restricted.find_entity("CA981", "flights").is_some());
        // Beijing only appeared in src0's triple, so it is absent.
        assert!(restricted.find_entity("Beijing", "flights").is_none());
    }

    #[test]
    fn empty_graph_stats_are_zeroed() {
        let kg = KnowledgeGraph::new();
        let stats = kg.stats();
        assert_eq!(stats.entities, 0);
        assert_eq!(stats.mean_degree, 0.0);
    }
}
