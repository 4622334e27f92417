//! Tiered retrieval index: the one slot structure derived per graph,
//! which MKA aggregation and every pipeline read (DESIGN.md §5.15).
//!
//! MultiRAG's entity → attribute-slot → claim hierarchy is implicit in
//! the `(subject, predicate)` slot structure of the knowledge graph;
//! this module materializes it as three tiers in flat arenas:
//!
//! * **tier 0 — entities**: each entity owns a contiguous span of
//!   slots (`entity_slot_offsets`), contiguous because slots are
//!   sorted by `(entity, relation)`;
//! * **tier 1 — attribute slots**: struct-of-arrays columns
//!   (`slot_entities`, `slot_relations`, per-slot distinct-source
//!   counts) over a CSR arena of claim postings. Read in slot order,
//!   they are the homologous groups and isolated points of
//!   Definitions 3–5;
//! * **tier 2 — claims**: per-relation claim [`Bitset`]s — the
//!   adjacency that turns "claims of entity `e` under relation `r`"
//!   into a probe of `e`'s claim span against `r`'s bitset
//!   ([`TieredIndex::descend`]).
//!
//! Everything is built from sorted dense ids: no per-triple allocation
//! after construction, no hash-order iteration anywhere, and every
//! query iterates ascending ids — the determinism argument is that
//! each array is a pure function of the insertion order the graph
//! already fixes. The sort-based matcher in `multirag-core` is the
//! reference oracle: property tests and `repro_index` gate the slot
//! tier against it.
//!
//! Graphs only grow by appending, so the index of a grown graph is
//! derived from the previous one ([`TieredIndex::extend`]): the
//! appended claims are sorted and merged into the old arenas, and the
//! result equals a fresh build. [`TieredIndex::build`] is that merge
//! from an empty index.

use crate::graph::{KnowledgeGraph, TripleId};
use crate::triple::{EntityId, RelationId, SourceId};
use std::ops::Range;

/// A fixed-width bitset over dense `u32` ids: `u64` blocks, one
/// membership probe per lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// An empty bitset sized for ids `0..bits`.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// Sets `bit`, growing the block array as needed. Returns whether
    /// the bit was newly set.
    pub fn insert(&mut self, bit: u32) -> bool {
        let word = (bit / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % 64);
        match self.words.get_mut(word) {
            Some(w) => {
                let fresh = *w & mask == 0;
                *w |= mask;
                fresh
            }
            None => false,
        }
    }

    /// Whether `bit` is set. Out-of-range ids are simply absent.
    pub fn contains(&self, bit: u32) -> bool {
        self.words
            .get((bit / 64) as usize)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Number of `u64` blocks backing the set.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }
}

/// Dense id of one attribute slot (tier 1), assigned in ascending
/// `(entity, relation)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

impl SlotId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Monotonic descent-cost counters. Plain integers (not atomics) by
/// design: each pipeline owns its own counter block, so flushing
/// deltas into a metrics registry can never double-count, and the
/// values are a pure function of the query stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TindexCounters {
    /// Tier descents performed (entity → slot → claims resolutions).
    pub tier_descents: u64,
    /// Bitset membership probes spent in descents.
    pub bitset_and_ops: u64,
    /// Candidate claims pruned relative to the entity's full claim
    /// span (what a per-entity scan would have examined).
    pub candidates_pruned: u64,
}

impl TindexCounters {
    /// Counter deltas since `earlier` (for registry flushes).
    pub fn since(self, earlier: TindexCounters) -> TindexCounters {
        TindexCounters {
            tier_descents: self.tier_descents - earlier.tier_descents,
            bitset_and_ops: self.bitset_and_ops - earlier.bitset_and_ops,
            candidates_pruned: self.candidates_pruned - earlier.candidates_pruned,
        }
    }
}

/// Index shape summary (for bench tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TindexStats {
    /// Tier-0 entity count.
    pub entities: usize,
    /// Tier-1 slot count.
    pub slots: usize,
    /// Tier-2 claim count.
    pub claims: usize,
    /// Relations with a claim bitset.
    pub relations: usize,
    /// Total `u64` blocks across the relation bitsets.
    pub bitset_words: usize,
}

/// The three-tier index. All arrays are flat arenas over dense ids;
/// see the module docs for the tier layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TieredIndex {
    // -- tier 1: slots sorted by (entity, relation) --
    slot_entities: Vec<EntityId>,
    slot_relations: Vec<RelationId>,
    /// CSR offsets into `slot_claims` (`slots + 1` entries).
    slot_offsets: Vec<u32>,
    /// Claim postings arena: ascending [`TripleId`] within each slot.
    slot_claims: Vec<TripleId>,
    /// Distinct sources asserting each slot.
    slot_sources: Vec<u32>,
    // -- tier 0: entity spans over the slot array --
    /// CSR offsets into the slot array (`entities + 1` entries).
    entity_slot_offsets: Vec<u32>,
    // -- tier 2: claim adjacency --
    /// Per-relation claim bitsets (tier-1 → tier-2 adjacency).
    relation_bits: Vec<Bitset>,
}

impl TieredIndex {
    /// Builds the index from a graph: [`TieredIndex::extend`] from an
    /// empty index, so construction sorts the claim keys once
    /// (`O(n log n)`, same bound as homologous matching) and fills
    /// every arena with counting passes — sorted vectors only, no
    /// hash-order iteration.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        Self::default().extend(kg)
    }

    /// The index of `kg`, derived from this one, which must have been
    /// built for an earlier state of the same graph: graphs only grow
    /// by appending entities, relations, sources and triples. Equals
    /// [`TieredIndex::build`] over `kg` field for field, at the cost of
    /// the appended claims plus one copy of the arenas:
    ///
    /// * only the appended claims are sorted, by `(entity, relation,
    ///   id)`, so their ids ascend within each slot as in the graph's
    ///   own `slot_triples`;
    /// * one merge pass copies untouched slot runs as they are, appends
    ///   each appended run to its slot (its ids follow every old one)
    ///   or opens a new slot in `(entity, relation)` order, and
    ///   recounts distinct sources only for the slots it touched;
    /// * the entity spans are recounted, and each relation's bitset is
    ///   copied, resized to the graph's claim count and given the
    ///   appended claims' bits.
    pub fn extend(&self, kg: &KnowledgeGraph) -> Self {
        let n = kg.triple_count();
        let covered = self.slot_claims.len();
        let appended = kg.triples().get(covered..).unwrap_or(&[]);
        let mut keyed: Vec<(EntityId, RelationId, TripleId)> = appended
            .iter()
            .zip(covered as u32..)
            .map(|(t, id)| (t.subject, t.predicate, TripleId(id)))
            .collect();
        keyed.sort_unstable();
        let runs: Vec<&[(EntityId, RelationId, TripleId)]> =
            keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).collect();

        let slots = self.slot_count() + runs.len();
        let mut next = Self {
            slot_entities: Vec::with_capacity(slots),
            slot_relations: Vec::with_capacity(slots),
            slot_offsets: Vec::with_capacity(slots + 1),
            slot_claims: Vec::with_capacity(n),
            slot_sources: Vec::with_capacity(slots),
            ..Self::default()
        };
        next.slot_offsets.push(0);
        let mut scratch_sources: Vec<SourceId> = Vec::new();
        // Old slots below `copied` are in `next` already.
        let mut copied = 0;
        for run in runs {
            let Some(&(entity, relation, _)) = run.first() else {
                continue;
            };
            let at = self.slot_position(entity, relation);
            next.copy_slots(self, copied..at);
            let key = (self.slot_entities.get(at), self.slot_relations.get(at));
            let old: &[TripleId] = if key == (Some(&entity), Some(&relation)) {
                copied = at + 1;
                self.claims(SlotId(at as u32))
            } else {
                copied = at;
                &[]
            };
            let claims = old
                .iter()
                .copied()
                .chain(run.iter().map(|&(_, _, tid)| tid));
            next.push_slot(kg, entity, relation, claims, &mut scratch_sources);
        }
        next.copy_slots(self, copied..self.slot_count());

        // Tier-0 spans: slots are entity-sorted, so each entity's
        // slots are contiguous; a counting pass yields the offsets.
        let mut entity_slot_counts = vec![0u32; kg.entity_count()];
        for e in &next.slot_entities {
            if let Some(c) = entity_slot_counts.get_mut(e.index()) {
                *c += 1;
            }
        }
        next.entity_slot_offsets = Vec::with_capacity(entity_slot_counts.len() + 1);
        let mut acc = 0u32;
        next.entity_slot_offsets.push(0);
        for c in &entity_slot_counts {
            acc += c;
            next.entity_slot_offsets.push(acc);
        }

        // Per-relation claim bitsets, each sized for ids `0..n`.
        next.relation_bits = (0..kg.relation_count())
            .map(|r| {
                let mut bits = self.relation_bits.get(r).cloned().unwrap_or_default();
                bits.words.resize(n.div_ceil(64), 0);
                bits
            })
            .collect();
        for &(_, relation, tid) in &keyed {
            if let Some(bits) = next.relation_bits.get_mut(relation.index()) {
                bits.insert(tid.0);
            }
        }
        next
    }

    /// The first slot whose key is at least `(entity, relation)`: the
    /// slot itself when it exists, else where it would open.
    fn slot_position(&self, entity: EntityId, relation: RelationId) -> usize {
        let span = self.entity_slot_offsets.get(entity.index());
        match span.zip(self.entity_slot_offsets.get(entity.index() + 1)) {
            Some((&lo, &hi)) => {
                let relations = self.slot_relations.get(lo as usize..hi as usize);
                lo as usize + relations.map_or(0, |rs| rs.partition_point(|&r| r < relation))
            }
            // Entities past the indexed ones own no slot yet.
            None => self.slot_count(),
        }
    }

    /// Appends one slot whose postings are `claims`, ascending by id.
    fn push_slot(
        &mut self,
        kg: &KnowledgeGraph,
        entity: EntityId,
        relation: RelationId,
        claims: impl Iterator<Item = TripleId>,
        scratch_sources: &mut Vec<SourceId>,
    ) {
        self.slot_entities.push(entity);
        self.slot_relations.push(relation);
        scratch_sources.clear();
        for tid in claims {
            self.slot_claims.push(tid);
            scratch_sources.push(kg.triple(tid).source);
        }
        scratch_sources.sort_unstable();
        scratch_sources.dedup();
        self.slot_sources.push(scratch_sources.len() as u32);
        self.slot_offsets.push(self.slot_claims.len() as u32);
    }

    /// Appends `from`'s slots `slots` unchanged, shifting their claim
    /// offsets past the claims `self` holds already.
    fn copy_slots(&mut self, from: &TieredIndex, slots: Range<usize>) {
        let columns = (
            from.slot_entities.get(slots.clone()),
            from.slot_relations.get(slots.clone()),
            from.slot_sources.get(slots.clone()),
            from.slot_offsets.get(slots.start..=slots.end),
        );
        let (Some(entities), Some(relations), Some(sources), Some(offsets)) = columns else {
            return;
        };
        let (Some(&lo), Some(&hi)) = (offsets.first(), offsets.last()) else {
            return;
        };
        let base = self.slot_claims.len() as u32;
        self.slot_entities.extend_from_slice(entities);
        self.slot_relations.extend_from_slice(relations);
        self.slot_sources.extend_from_slice(sources);
        let claims = from.slot_claims.get(lo as usize..hi as usize);
        self.slot_claims.extend_from_slice(claims.unwrap_or(&[]));
        self.slot_offsets
            .extend(offsets.iter().skip(1).map(|&o| o - lo + base));
    }

    /// Tier-1 slot count.
    pub fn slot_count(&self) -> usize {
        self.slot_entities.len()
    }

    /// The slot's entity.
    pub fn slot_entity(&self, slot: SlotId) -> EntityId {
        self.slot_entities
            .get(slot.index())
            .copied()
            .unwrap_or(EntityId(0))
    }

    /// The slot's relation.
    pub fn slot_relation(&self, slot: SlotId) -> RelationId {
        self.slot_relations
            .get(slot.index())
            .copied()
            .unwrap_or(RelationId(0))
    }

    /// Distinct sources asserting the slot.
    pub fn slot_source_count(&self, slot: SlotId) -> usize {
        self.slot_sources.get(slot.index()).copied().unwrap_or(0) as usize
    }

    /// The slot's claim postings, ascending by id — identical to the
    /// graph's `slot_triples` for the same `(entity, relation)`.
    pub fn claims(&self, slot: SlotId) -> &[TripleId] {
        let a = self.slot_offsets.get(slot.index()).copied().unwrap_or(0) as usize;
        let b = self
            .slot_offsets
            .get(slot.index() + 1)
            .copied()
            .unwrap_or(0) as usize;
        self.slot_claims.get(a..b).unwrap_or(&[])
    }

    /// All claims whose subject is `entity`: the concatenation of the
    /// entity's slot postings (contiguous in the arena by layout).
    fn entity_claims(&self, entity: EntityId) -> &[TripleId] {
        let lo = self
            .entity_slot_offsets
            .get(entity.index())
            .copied()
            .unwrap_or(0) as usize;
        let hi = self
            .entity_slot_offsets
            .get(entity.index() + 1)
            .copied()
            .unwrap_or(lo as u32) as usize;
        let a = self.slot_offsets.get(lo).copied().unwrap_or(0) as usize;
        let b = self.slot_offsets.get(hi).copied().unwrap_or(0) as usize;
        self.slot_claims.get(a..b).unwrap_or(&[])
    }

    /// Tier descent: entity lookup → slot bitset → claim postings.
    /// Probes the entity's claim span against the relation's claim
    /// bitset; the survivors are exactly the slot's postings, in
    /// ascending id order (bit-identical to the linear-scan oracle).
    /// Costs are charged to `counters`: one descent, one AND op per
    /// membership probe, and every non-surviving claim counts as
    /// pruned (what an entity-neighborhood scan would have examined).
    pub fn descend(
        &self,
        entity: EntityId,
        relation: RelationId,
        counters: &mut TindexCounters,
    ) -> Vec<TripleId> {
        counters.tier_descents += 1;
        let span = self.entity_claims(entity);
        let mut kept = Vec::new();
        if let Some(bits) = self.relation_bits.get(relation.index()) {
            for &tid in span {
                counters.bitset_and_ops += 1;
                if bits.contains(tid.0) {
                    kept.push(tid);
                }
            }
        }
        counters.candidates_pruned += (span.len() - kept.len()) as u64;
        kept
    }

    /// Index shape summary.
    pub fn stats(&self) -> TindexStats {
        TindexStats {
            entities: self.entity_slot_offsets.len().saturating_sub(1),
            slots: self.slot_count(),
            // Every claim is posted under exactly one slot.
            claims: self.slot_claims.len(),
            relations: self.relation_bits.len(),
            bitset_words: self.relation_bits.iter().map(Bitset::word_count).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Object;
    use crate::value::Value;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let s0 = kg.add_source("a", "csv", "flights");
        let s1 = kg.add_source("b", "json", "flights");
        let f1 = kg.add_entity("CA981", "flights");
        let f2 = kg.add_entity("CA982", "flights");
        let status = kg.add_relation("status");
        let gate = kg.add_relation("gate");
        let follows = kg.add_relation("follows");
        kg.add_triple(f1, status, Value::from("delayed"), s0, 0);
        kg.add_triple(f1, status, Value::from("on-time"), s1, 0);
        kg.add_triple(f1, gate, Value::Int(12), s0, 0);
        kg.add_triple(f2, status, Value::from("boarding"), s1, 0);
        kg.add_triple(f2, follows, Object::Entity(f1), s0, 1);
        kg
    }

    #[test]
    fn bitset_membership_and_growth() {
        let mut bits = Bitset::with_capacity(10);
        for b in [130u32, 3, 64, 0] {
            assert!(bits.insert(b));
        }
        assert!(!bits.insert(3), "re-insert is not fresh");
        assert!(bits.contains(130) && bits.contains(0));
        assert!(!bits.contains(65));
        assert_eq!(bits.word_count(), 3, "grown to cover bit 130");
    }

    #[test]
    fn slot_tier_is_the_graph_slot_map_in_slot_order() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        let mut previous = None;
        for slot in (0..index.slot_count() as u32).map(SlotId) {
            let key = (index.slot_entity(slot), index.slot_relation(slot));
            assert!(previous < Some(key), "slots ascend by (entity, relation)");
            assert_eq!(index.claims(slot), kg.slot_triples(key.0, key.1));
            previous = Some(key);
        }
        let first = SlotId(0);
        assert_eq!(index.slot_source_count(first), 2, "CA981.status: a and b");
    }

    #[test]
    fn descend_equals_graph_slot_triples() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        let mut c = TindexCounters::default();
        for e in kg.entity_ids() {
            for r in 0..kg.relation_count() {
                let r = RelationId(r as u32);
                assert_eq!(index.descend(e, r, &mut c), kg.slot_triples(e, r).to_vec());
            }
        }
        assert!(c.tier_descents > 0);
        assert!(c.bitset_and_ops > 0);
    }

    #[test]
    fn pruning_counts_non_slot_claims() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        let f1 = kg.find_entity("CA981", "flights").unwrap();
        let gate = kg.find_relation("gate").unwrap();
        let mut c = TindexCounters::default();
        let kept = index.descend(f1, gate, &mut c);
        assert_eq!(kept.len(), 1);
        // CA981 has 3 subject claims; 2 are pruned by the gate bitset.
        assert_eq!(c.candidates_pruned, 2);
        assert_eq!(c.bitset_and_ops, 3);
    }

    #[test]
    fn entity_claims_are_the_subject_postings() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        for e in kg.entity_ids() {
            let mut expect = kg.outgoing(e).to_vec();
            expect.sort_unstable();
            let mut got = index.entity_claims(e).to_vec();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn extend_equals_build_at_every_cut() {
        // Grown one claim at a time, registering names on first use:
        // entities and relations arrive past the indexed counts, and
        // slots open before, between and after indexed ones.
        let mut kg = KnowledgeGraph::new();
        let sources = [
            kg.add_source("a", "csv", "flights"),
            kg.add_source("b", "json", "flights"),
        ];
        let claims = [
            ("CA982", "status", 0),
            ("CA981", "gate", 0),
            ("CA982", "gate", 1),
            ("CA981", "status", 1),
            ("CA983", "follows", 0),
            ("CA982", "status", 1),
            ("CA981", "gate", 0),
        ];
        let mut index = TieredIndex::build(&kg);
        assert_eq!(index, TieredIndex::build(&KnowledgeGraph::new()));
        for (i, (entity, relation, source)) in claims.into_iter().enumerate() {
            let e = kg.add_entity(entity, "flights");
            let r = kg.add_relation(relation);
            kg.add_triple(e, r, Value::Int(i as i64), sources[source], 0);
            let extended = index.extend(&kg);
            assert_eq!(extended, TieredIndex::build(&kg), "after claim {i}");
            index = extended;
        }
        assert_eq!(index.extend(&kg), index, "an empty delta changes nothing");
        let whole = TieredIndex::build(&KnowledgeGraph::new()).extend(&kg);
        assert_eq!(whole, index, "one merge from an empty index");
        // CA982.status gained a second source; CA981.gate a second
        // claim from the same one.
        let (ca982_status, ca981_gate) = (SlotId(0), SlotId(3));
        assert_eq!(index.claims(ca982_status), &[TripleId(0), TripleId(5)]);
        assert_eq!(index.slot_source_count(ca982_status), 2);
        assert_eq!(index.claims(ca981_gate), &[TripleId(1), TripleId(6)]);
        assert_eq!(index.slot_source_count(ca981_gate), 1);
    }

    #[test]
    fn stats_and_empty_graph() {
        let kg = sample();
        let stats = TieredIndex::build(&kg).stats();
        assert_eq!(stats.claims, kg.triple_count());
        assert_eq!(stats.slots, 4);
        assert_eq!(stats.entities, kg.entity_count());
        let empty = TieredIndex::build(&KnowledgeGraph::new());
        assert_eq!(empty.slot_count(), 0);
        assert_eq!(empty.stats().claims, 0);
        let mut c = TindexCounters::default();
        assert!(empty.descend(EntityId(0), RelationId(0), &mut c).is_empty());
    }
}
