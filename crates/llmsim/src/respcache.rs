//! Content-addressed LLM response cache — the serving subsystem's L3.
//!
//! Keys hash the *complete* input of a call — kind tag, call key, seed,
//! schema fingerprint, every value/feature/profile operand — never the
//! call key alone: the same `gen:{query_key}` can carry a different
//! context after an epoch swap, and a key that captured only the query
//! would serve a stale answer. Because every [`MockLlm`] output is a
//! pure function of exactly these inputs, a hit is guaranteed
//! equivalent to recomputing, which is what lets the cache survive
//! epoch swaps unmolested (entries for changed contexts simply miss).
//!
//! A key is an exact encoding of those operands, hashed as it is fed
//! and never printed: floats by their bit patterns, integers as `u64`,
//! strings and [`Value`]s in a prefix-free form ([`KeyBuilder`]). A
//! key therefore costs a few dozen integer mixes and no allocation, and
//! a hit allocates only the clone of the cached response, which matters
//! because an answer places about ten keyed calls.
//!
//! A hit skips metering *and* the fault plan: no call is placed, so no
//! fault can hit it — cached answers keep serving through an LLM
//! brownout, which is precisely their operational value. The cache
//! itself is the one cache type, [`multirag_kg::SharedCache`].
//!
//! [`MockLlm`]: crate::MockLlm

use crate::halluc::GeneratedAnswer;
use crate::logic::LogicForm;
use multirag_kg::{FxHasher, SharedCache, Value};
use std::hash::Hasher;

/// A memoized LLM response.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedResponse {
    /// Logic-form generation result (including the "no parse" outcome).
    Logic(Option<LogicForm>),
    /// Answer generation result.
    Answer(GeneratedAnswer),
    /// Authority score `C_LLM(v)`.
    Authority(f64),
}

/// Shared, thread-safe response cache. Cheap to clone — all clones
/// share one store and one set of hit/miss counters, so a worker pool
/// of pipelines deduplicates LLM work across threads.
pub type LlmResponseCache = SharedCache<CachedResponse>;

/// Builds a cache key from a call's complete input set, hashing each
/// operand's exact encoding as it is fed. Every encoding is
/// self-delimiting, so a run of operands decodes one way only:
///
/// * integers are one `u64` word, floats one word of
///   [`f64::to_bits`] (so `0.0` and `-0.0` differ);
/// * strings are their byte length, then their bytes;
/// * [`Value`]s are a variant tag, then the payload in the forms
///   above, a list as its length followed by its items.
///
/// The length leads a string because the hasher packs a short tail
/// into one word, so the bytes alone cannot tell `"a"` from `"a\0"`.
pub struct KeyBuilder {
    hasher: FxHasher,
}

impl KeyBuilder {
    /// Starts a key for one call kind ("lf", "auth", "gen", …).
    pub fn new(kind: &str, seed: u64) -> Self {
        Self {
            hasher: FxHasher::default(),
        }
        .str(kind)
        .u64(seed)
    }

    /// Mixes a string operand: its length, then its bytes.
    pub fn str(mut self, s: &str) -> Self {
        self.hasher.write_u64(s.len() as u64);
        self.hasher.write(s.as_bytes());
        self
    }

    /// Mixes an integer operand.
    pub fn u64(mut self, v: u64) -> Self {
        self.hasher.write_u64(v);
        self
    }

    /// Mixes a float operand bit-exactly.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Mixes a value operand exactly: its surface form, not its
    /// canonical key, because two values that normalize alike
    /// (`Int(3)` and `Float(3.0)`, `"A"` and `"a"`) can still surface
    /// differently in a generated answer.
    pub fn value(self, v: &Value) -> Self {
        match v {
            Value::Null => self.u64(0),
            Value::Bool(b) => self.u64(1).u64(u64::from(*b)),
            Value::Int(i) => self.u64(2).u64(*i as u64),
            Value::Float(f) => self.u64(3).f64(*f),
            Value::Str(s) => self.u64(4).str(s),
            Value::List(items) => items
                .iter()
                .fold(self.u64(5).u64(items.len() as u64), Self::value),
        }
    }

    /// Finishes the key.
    pub fn build(self) -> u64 {
        self.hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counts_hits_and_misses_and_clears() {
        let cache = LlmResponseCache::new();
        assert!(cache.get(1).is_none());
        cache.put(1, CachedResponse::Authority(0.75));
        assert_eq!(cache.get(1), Some(CachedResponse::Authority(0.75)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Clones share everything.
        let alias = cache.clone();
        assert_eq!(alias.len(), 1);
        alias.clear();
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn key_builder_separates_operands_and_kinds() {
        let base = || KeyBuilder::new("gen", 42).str("q1").f64(0.5).u64(7);
        assert_eq!(base().build(), base().build());
        assert_ne!(
            base().build(),
            KeyBuilder::new("lf", 42).str("q1").f64(0.5).u64(7).build()
        );
        assert_ne!(
            base().build(),
            KeyBuilder::new("gen", 43).str("q1").f64(0.5).u64(7).build()
        );
        assert_ne!(base().build(), base().str("extra").build());
        // Bit-exact float discrimination: -0.0 differs from 0.0.
        assert_ne!(
            KeyBuilder::new("k", 0).f64(0.0).build(),
            KeyBuilder::new("k", 0).f64(-0.0).build()
        );
    }

    fn key_of(values: &[Value]) -> u64 {
        values
            .iter()
            .fold(KeyBuilder::new("k", 0), KeyBuilder::value)
            .build()
    }

    #[test]
    fn value_keys_are_exact_and_prefix_free() {
        // Values that share a canonical key, or print alike, still key
        // apart: a hit must return the surface form it was given.
        let scalars = [
            Value::Int(3),
            Value::Float(3.0),
            Value::Str("3".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Str("A".into()),
            Value::Str("a".into()),
        ];
        for (i, x) in scalars.iter().enumerate() {
            for y in &scalars[i + 1..] {
                assert_ne!(
                    key_of(std::slice::from_ref(x)),
                    key_of(std::slice::from_ref(y)),
                    "{x:?} vs {y:?}"
                );
            }
        }
        let (a, b) = (Value::Int(1), Value::Int(2));
        assert_ne!(
            key_of(&[Value::List(vec![a.clone(), b.clone()])]),
            key_of(&[Value::List(vec![a.clone()]), b.clone()]),
            "a list's end is part of its encoding"
        );
        assert_ne!(
            key_of(&[Value::from("ab"), Value::from("c")]),
            key_of(&[Value::from("a"), Value::from("bc")]),
        );
        assert_ne!(
            KeyBuilder::new("k", 0).str("ab").str("c").build(),
            KeyBuilder::new("k", 0).str("a").str("bc").build()
        );
        // The hasher packs a short tail into one word; the length
        // prefix keeps trailing NULs apart.
        assert_ne!(
            KeyBuilder::new("k", 0).str("a").build(),
            KeyBuilder::new("k", 0).str("a\0").build()
        );
        assert_eq!(key_of(&[a.clone(), b.clone()]), key_of(&[a, b]));
    }
}
