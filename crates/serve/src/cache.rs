//! The serving cache stack: three levels with different lifetimes.
//!
//! | level | keyed by | survives epoch swap? |
//! |---|---|---|
//! | L1 result cache | exact `(query key, query text)` | no — cleared |
//! | L2 MCC memo | claim-profile fingerprint | no — cleared |
//! | L3 LLM response cache | kind + seed + every call operand | **yes** |
//!
//! L1 short-circuits the whole pipeline for byte-identical repeats. L2
//! ([`multirag_core::ConfidenceMemo`]) replays an MCC verdict for
//! paraphrases that resolve to the same slot; it is keyed by
//! [`multirag_core::profile_fingerprint`] — entity, relation and the
//! sorted `(source, interned standardized-value key)` pairs of the
//! slot's claim profiles, hashed without building any per-lookup
//! strings. L3
//! ([`multirag_llmsim::LlmResponseCache`]) fronts individual simulated
//! LLM calls; its keys hash the schema fingerprint and every operand,
//! so entries from an old epoch can only hit when the call would have
//! been bit-identical anyway — which is exactly why it is allowed to
//! survive swaps while the two epoch-scoped levels are not.
//! All three levels are one type, [`multirag_kg::SharedCache`]; their
//! hit and miss counts are read through [`CacheStack::counters`].

use multirag_core::{ConfidenceMemo, PipelineAnswer};
use multirag_datasets::Query;
use multirag_kg::{FxHasher, SharedCache};
use multirag_llmsim::LlmResponseCache;
use std::hash::{Hash, Hasher};

/// Exact-match cache key: the query's stable slot key plus its surface
/// text, so a paraphrase (same slot, different wording) misses L1 and
/// falls through to the content-addressed levels.
pub fn result_key(query: &Query) -> u64 {
    let mut hasher = FxHasher::default();
    query.key().hash(&mut hasher);
    query.text.hash(&mut hasher);
    hasher.finish()
}

/// L1: exact-match query-result cache. Cheap to clone — all clones
/// share one store and one set of counters.
pub type ResultCache = SharedCache<PipelineAnswer>;

/// Point-in-time hit/miss counters across all three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// L1 exact-match result cache hits.
    pub result_hits: u64,
    /// L1 misses.
    pub result_misses: u64,
    /// L2 MCC memo hits.
    pub memo_hits: u64,
    /// L2 misses.
    pub memo_misses: u64,
    /// L3 LLM response cache hits.
    pub llm_hits: u64,
    /// L3 misses.
    pub llm_misses: u64,
}

/// The three cache levels as one shareable handle.
#[derive(Debug, Clone, Default)]
pub struct CacheStack {
    /// L1: exact-match query results (epoch-scoped).
    pub result: ResultCache,
    /// L2: MCC verdict memo by subgraph content hash (epoch-scoped).
    pub memo: ConfidenceMemo,
    /// L3: content-addressed LLM response cache (epoch-crossing).
    pub llm: LlmResponseCache,
}

impl CacheStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Epoch-swap invalidation: clears the two epoch-scoped levels.
    /// The L3 response cache survives — its content-addressed keys
    /// (schema fingerprint + every operand) make stale hits impossible:
    /// anything the new epoch changed simply misses.
    pub fn on_epoch_swap(&self) {
        self.result.clear();
        self.memo.clear();
    }

    /// Current hit/miss counters across the stack — the one place the
    /// levels' counts are read.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            result_hits: self.result.hits(),
            result_misses: self.result.misses(),
            memo_hits: self.memo.hits(),
            memo_misses: self.memo.misses(),
            llm_hits: self.llm.hits(),
            llm_misses: self.llm.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(id: u32, text: &str) -> Query {
        Query {
            id,
            text: text.to_string(),
            entity: "Heat".into(),
            attribute: "year".into(),
            gold: vec![],
        }
    }

    fn answer() -> PipelineAnswer {
        PipelineAnswer {
            values: vec![multirag_kg::Value::Int(1995)],
            fusion_values: vec![multirag_kg::Value::Int(1995)],
            abstained: false,
            abstain_reason: None,
            hallucinated: false,
            graph_confidence: None,
            kept: Vec::new(),
            dropped: 0,
            examined: 3,
            quarantined_claims: 0,
            escalation_attempts: 0,
        }
    }

    #[test]
    fn result_key_separates_paraphrases_but_not_repeats() {
        let q = query(1, "What is the year of Heat?");
        assert_eq!(result_key(&q), result_key(&q.clone()));
        let paraphrase = query(1, "Tell me the year of Heat.");
        assert_ne!(result_key(&q), result_key(&paraphrase));
        let other_slot = Query {
            id: 2,
            ..query(1, "What is the year of Heat?")
        };
        assert_ne!(result_key(&q), result_key(&other_slot));
    }

    #[test]
    fn result_cache_counts_and_clears() {
        let stack = CacheStack::new();
        let cache = stack.result.clone();
        let key = result_key(&query(1, "q"));
        assert!(cache.get(key).is_none());
        cache.put(key, answer());
        assert_eq!(cache.get(key).expect("stored").values, answer().values);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let counters = stack.counters();
        assert_eq!((counters.result_hits, counters.result_misses), (1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn epoch_swap_clears_only_epoch_scoped_levels() {
        let stack = CacheStack::new();
        stack.result.put(7, answer());
        stack.memo.put(9, multirag_core::SlotVerdict::default());
        stack
            .llm
            .put(11, multirag_llmsim::CachedResponse::Authority(0.5));
        stack.on_epoch_swap();
        assert!(stack.result.is_empty(), "L1 is epoch-scoped");
        assert!(stack.memo.is_empty(), "L2 is epoch-scoped");
        assert!(
            stack.llm.get(11).is_some(),
            "L3 survives swaps by content-addressing"
        );
        let counters = stack.counters();
        assert_eq!(counters.llm_hits, 1);
    }
}
