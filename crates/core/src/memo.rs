//! Per-epoch subgraph-confidence memoization for the serving path.
//!
//! MCC (Algorithm 1) is a pure function of the slot's content once the
//! history store is frozen: the graph-level gate `C(G)` depends only on
//! the claims' pairwise agreement, and each node-level `A(v)` blends a
//! seeded LLM authority score with the (frozen) historical credibility.
//! Paraphrased queries hitting the same `(entity, attribute)` slot can
//! therefore reuse the whole verdict instead of re-running the
//! consistency checks and their simulated LLM cost.
//!
//! The memo key is a [`profile_fingerprint`]: entity name, relation
//! name, and the sorted `(source name, interned standardized value
//! key)` pairs of the slot's [`ClaimProfile`]s — resolved from the
//! pipeline's [`multirag_kg::KeyInterner`], so no per-lookup `String`
//! is built. Keys are content-addressed so a slot whose membership
//! changed (a source quarantined mid-plan, a new claim streamed in)
//! misses cleanly. Entries are only valid within one epoch — `C(G)`
//! thresholds, `max_degree` and frozen credibility are epoch-scoped —
//! so the serving layer clears the memo on every swap. The memo itself
//! is the one cache type, [`multirag_kg::SharedCache`].

use crate::confidence::{ClaimProfile, GraphConfidence, NodeConfidence};
use multirag_kg::{EntityId, KeyInterner, KnowledgeGraph, RelationId, SharedCache};
use std::hash::{Hash, Hasher};

/// A memoized MCC verdict for one slot subgraph.
#[derive(Debug, Clone, Default)]
pub struct SlotVerdict {
    /// Graph-level confidence (None for isolated slots).
    pub graph: Option<GraphConfidence>,
    /// Claims that survived node-level assessment.
    pub kept: Vec<NodeConfidence>,
    /// Number of claims dropped.
    pub dropped: usize,
    /// Claims that reached node-level assessment (post graph gate).
    pub gated: usize,
}

/// Canonical content hash of a slot subgraph: entity name, relation
/// name, and sorted `(source name, standardized value key)` pairs of
/// its claim profiles.
///
/// The value keys are resolved from the interner the profiles were
/// built against — no string is rebuilt or allocated per lookup.
/// Object-entity claims already profile as their surface entity name
/// (the form the pipeline standardizes), so the key is stable under
/// triple-id renumbering across warm starts. A multi-valued source
/// contributes its aggregate list key, which discriminates exactly as
/// finely as hashing its member triples one by one.
pub fn profile_fingerprint(
    kg: &KnowledgeGraph,
    entity: EntityId,
    relation: RelationId,
    profiles: &[ClaimProfile],
    keys: &KeyInterner,
) -> u64 {
    let mut pairs: Vec<(&str, &str)> = profiles
        .iter()
        .map(|p| (kg.source_name(p.source), keys.resolve(p.key)))
        .collect();
    pairs.sort_unstable();
    let mut hasher = multirag_kg::FxHasher::default();
    kg.entity_name(entity).hash(&mut hasher);
    kg.entity_domain(entity).hash(&mut hasher);
    kg.relation_name(relation).hash(&mut hasher);
    pairs.hash(&mut hasher);
    hasher.finish()
}

/// Shared, thread-safe MCC verdict memo keyed by
/// [`profile_fingerprint`]. Cheap to clone — all clones share one store
/// and one set of hit/miss counters.
pub type ConfidenceMemo = SharedCache<SlotVerdict>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::build_profiles;
    use crate::homologous::match_slot;
    use multirag_kg::Value;

    fn slot_graph(values: &[&str]) -> (KnowledgeGraph, EntityId, RelationId) {
        let mut kg = KnowledgeGraph::new();
        let e = kg.add_entity("X", "d");
        let r = kg.add_relation("attr");
        for (i, v) in values.iter().enumerate() {
            let s = kg.add_source(&format!("s{i}"), "json", "d");
            kg.add_triple(e, r, Value::from(*v), s, 0);
        }
        (kg, e, r)
    }

    fn fingerprint_of(values: &[&str]) -> u64 {
        let (kg, e, r) = slot_graph(values);
        let group = match_slot(&kg, e, r)
            .groups
            .into_iter()
            .next()
            .expect("homologous slot");
        let mut keys = KeyInterner::for_graph(&kg);
        let profiles = build_profiles(&kg, &group, &mut keys);
        profile_fingerprint(&kg, e, r, &profiles, &keys)
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let h1 = fingerprint_of(&["a", "b"]);
        assert_eq!(h1, fingerprint_of(&["a", "b"]), "pure function of content");
        // Profile order does not matter — the pairs are sorted.
        let (kg, e, r) = slot_graph(&["a", "b"]);
        let group = match_slot(&kg, e, r)
            .groups
            .into_iter()
            .next()
            .expect("homologous slot");
        let mut keys = KeyInterner::for_graph(&kg);
        let mut profiles = build_profiles(&kg, &group, &mut keys);
        profiles.reverse();
        assert_eq!(h1, profile_fingerprint(&kg, e, r, &profiles, &keys));
        // Different content, different key.
        assert_ne!(h1, fingerprint_of(&["a", "c"]));
        // A subset (one source quarantined) misses.
        assert_ne!(
            h1,
            profile_fingerprint(&kg, e, r, &profiles[..1], &keys),
            "membership change must miss"
        );
    }

    #[test]
    fn memo_counts_hits_and_misses_and_clears() {
        let memo = ConfidenceMemo::new();
        assert!(memo.get(7).is_none());
        memo.put(
            7,
            SlotVerdict {
                dropped: 1,
                gated: 3,
                ..SlotVerdict::default()
            },
        );
        let verdict = memo.get(7).expect("stored");
        assert_eq!(verdict.dropped, 1);
        assert_eq!(verdict.gated, 3);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // Clones share the store and the counters.
        let alias = memo.clone();
        assert!(alias.get(7).is_some());
        assert_eq!(memo.hits(), 2);
        alias.clear();
        assert!(memo.is_empty());
        assert!(memo.get(7).is_none());
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 2);
    }
}
