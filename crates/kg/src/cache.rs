//! The one cache type: a shared, thread-safe `u64`-keyed map that
//! counts its hits and misses. The serving layer's result, MCC-verdict
//! and LLM-response caches are all this type, keyed by content hashes
//! their owners compute.

use crate::hash::FxHashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct Store<V> {
    entries: FxHashMap<u64, V>,
    hits: u64,
    misses: u64,
}

/// A cache of `V` by `u64` key. Cheap to clone — all clones share the
/// entries and the lifetime hit/miss counters.
#[derive(Debug)]
pub struct SharedCache<V> {
    store: Arc<Mutex<Store<V>>>,
}

impl<V> Default for SharedCache<V> {
    fn default() -> Self {
        Self {
            store: Arc::new(Mutex::new(Store {
                entries: FxHashMap::default(),
                hits: 0,
                misses: 0,
            })),
        }
    }
}

impl<V> Clone for SharedCache<V> {
    fn clone(&self) -> Self {
        Self {
            store: Arc::clone(&self.store),
        }
    }
}

impl<V> SharedCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update leaves the store whole, so a holder that panicked
    /// cannot have left it half-written: recover the guard.
    fn lock(&self) -> MutexGuard<'_, Store<V>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `value` under `key`.
    pub fn put(&self, key: u64, value: V) {
        self.lock().entries.insert(key, value);
    }

    /// Drops every entry. The counters survive — they describe the
    /// run, not the entries' lifetime.
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }
}

impl<V: Clone> SharedCache<V> {
    /// Looks up `key`, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut store = self.lock();
        let found = store.entries.get(&key).cloned();
        if found.is_some() {
            store.hits += 1;
        } else {
            store.misses += 1;
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses_shares_across_clones_and_keeps_counts_on_clear() {
        let cache = SharedCache::new();
        assert!(cache.get(7).is_none());
        cache.put(7, "seven");
        assert_eq!(cache.get(7), Some("seven"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let alias = cache.clone();
        assert_eq!(alias.len(), 1);
        assert_eq!(alias.get(7), Some("seven"));
        assert_eq!(cache.hits(), 2, "clones share the counters");
        alias.clear();
        assert!(cache.is_empty(), "clones share the store");
        assert!(cache.get(7).is_none());
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }
}
