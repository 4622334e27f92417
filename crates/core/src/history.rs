//! The incremental source-credibility store behind `Auth_hist`
//! (Eq. 11, following Zhu et al.'s FusionQuery-style estimation).
//!
//! Each source carries a running credibility `Pr^h(D)`: the fraction of
//! its historical query-relevant claims that turned out correct,
//! seeded with `H` pseudo-observations at a neutral prior. The store is
//! shared across queries (and threads — the harness fans out).

use multirag_kg::SourceId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-source history: pseudo-count-smoothed correctness.
#[derive(Debug, Clone, Copy)]
struct SourceHistory {
    /// Correct claims observed (plus prior mass).
    correct: f64,
    /// Total claims observed (plus prior mass).
    total: f64,
}

/// Thread-safe historical credibility store.
#[derive(Debug)]
pub struct HistoryStore {
    prior: f64,
    pseudo: f64,
    inner: RwLock<HashMap<SourceId, SourceHistory>>,
    /// When set, [`record`](HistoryStore::record) becomes a no-op: the
    /// serving path freezes credibility for the lifetime of an epoch so
    /// answers are pure functions of `(epoch, query)` regardless of the
    /// order concurrent workers finish in. Feedback is batched outside
    /// the store and folded in at the next epoch publish.
    frozen: AtomicBool,
}

impl HistoryStore {
    /// Creates a store with `pseudo` pseudo-observations at credibility
    /// `prior` per source (the paper seeds H = 50).
    pub fn new(pseudo: f64, prior: f64) -> Self {
        Self {
            prior: prior.clamp(0.0, 1.0),
            pseudo: pseudo.max(0.0),
            inner: RwLock::new(HashMap::new()),
            frozen: AtomicBool::new(false),
        }
    }

    /// The paper's defaults: H = 50 pseudo-entities at a neutral 0.5.
    pub fn paper_defaults() -> Self {
        Self::new(50.0, 0.5)
    }

    /// Historical credibility `Pr^h(D)` of a source.
    pub fn credibility(&self, source: SourceId) -> f64 {
        let map = self.inner.read();
        match map.get(&source) {
            Some(h) => h.correct / h.total,
            None => self.prior,
        }
    }

    /// Number of historical observations for a source (`H` plus
    /// updates).
    pub fn observations(&self, source: SourceId) -> f64 {
        let map = self.inner.read();
        map.get(&source).map(|h| h.total).unwrap_or(self.pseudo)
    }

    /// Number of sources with recorded history.
    pub fn tracked_sources(&self) -> usize {
        self.inner.read().len()
    }

    /// Records the outcome of one query for a source: `correct` of
    /// `total` claims it contributed were right. Returns whether the
    /// store took the update — a frozen store and an empty record
    /// leave it unchanged.
    pub fn record(&self, source: SourceId, correct: usize, total: usize) -> bool {
        if total == 0 || self.frozen.load(Ordering::Relaxed) {
            return false;
        }
        let mut map = self.inner.write();
        let entry = map.entry(source).or_insert(SourceHistory {
            correct: self.pseudo * self.prior,
            total: self.pseudo,
        });
        entry.correct += correct as f64;
        entry.total += total as f64;
        true
    }

    /// Eq. 11: `Auth_hist(v) = (H·Pr^h(D) + Σ Pr(v_p)) / (H + |Data(q,
    /// subSG')|)` — blends the source's history with the support the
    /// node's value enjoys among the current query's slot data.
    ///
    /// * `source` — the source asserting the node.
    /// * `current_support` — `Σ Pr(v_p)`: summed agreement mass the
    ///   node's value has in the current slot (one unit per agreeing
    ///   claim).
    /// * `slot_size` — `|Data(q, subSG'_i)|`: total claims in the slot.
    pub fn auth_hist(&self, source: SourceId, current_support: f64, slot_size: usize) -> f64 {
        let h = self.observations(source);
        let pr_h = self.credibility(source);
        ((h * pr_h) + current_support) / (h + slot_size as f64)
    }

    /// Resets all history (between experiment phases).
    pub fn reset(&self) {
        self.inner.write().clear();
    }

    /// Freezes the store: further [`record`](HistoryStore::record)
    /// calls are ignored until [`thaw`](HistoryStore::thaw).
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Relaxed);
    }

    /// Re-enables recording after a [`freeze`](HistoryStore::freeze).
    pub fn thaw(&self) {
        self.frozen.store(false, Ordering::Relaxed);
    }

    /// Whether the store is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }
}

impl Clone for HistoryStore {
    /// Clones the credibility state. The frozen flag is copied (each
    /// clone toggles independently).
    fn clone(&self) -> Self {
        Self {
            prior: self.prior,
            pseudo: self.pseudo,
            inner: RwLock::new(self.inner.read().clone()),
            frozen: AtomicBool::new(self.is_frozen()),
        }
    }
}

impl Default for HistoryStore {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_sources_get_the_prior() {
        let store = HistoryStore::paper_defaults();
        assert_eq!(store.credibility(SourceId(0)), 0.5);
        assert_eq!(store.observations(SourceId(0)), 50.0);
    }

    #[test]
    fn records_move_credibility_toward_observed_accuracy() {
        let store = HistoryStore::paper_defaults();
        let s = SourceId(1);
        // 100 correct out of 100.
        store.record(s, 100, 100);
        let c = store.credibility(s);
        assert!(c > 0.8, "credibility {c}");
        // A bad source sinks.
        let bad = SourceId(2);
        store.record(bad, 0, 100);
        assert!(store.credibility(bad) < 0.2);
    }

    #[test]
    fn pseudo_counts_damp_early_updates() {
        let heavy = HistoryStore::new(500.0, 0.5);
        let light = HistoryStore::new(5.0, 0.5);
        let s = SourceId(3);
        heavy.record(s, 10, 10);
        light.record(s, 10, 10);
        assert!(light.credibility(s) > heavy.credibility(s));
    }

    #[test]
    fn zero_total_records_are_ignored() {
        let store = HistoryStore::paper_defaults();
        assert!(!store.record(SourceId(4), 0, 0));
        assert_eq!(store.credibility(SourceId(4)), 0.5);
        assert_eq!(store.tracked_sources(), 0);
    }

    #[test]
    fn auth_hist_blends_history_and_current_support() {
        let store = HistoryStore::new(50.0, 0.5);
        let s = SourceId(5);
        // Fully supported in a 4-claim slot.
        let high = store.auth_hist(s, 4.0, 4);
        // Unsupported in the same slot.
        let low = store.auth_hist(s, 0.0, 4);
        assert!(high > low);
        assert!((0.0..=1.0).contains(&high));
        assert!((0.0..=1.0).contains(&low));
        // With no current data it reduces to the historical credibility.
        let neutral = store.auth_hist(s, 0.0, 0);
        assert!((neutral - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auth_hist_tracks_source_history() {
        let store = HistoryStore::paper_defaults();
        let good = SourceId(6);
        let bad = SourceId(7);
        store.record(good, 90, 100);
        store.record(bad, 10, 100);
        assert!(store.auth_hist(good, 2.0, 4) > store.auth_hist(bad, 2.0, 4));
    }

    #[test]
    fn reset_restores_priors() {
        let store = HistoryStore::paper_defaults();
        store.record(SourceId(8), 50, 50);
        assert!(store.credibility(SourceId(8)) > 0.5);
        store.reset();
        assert_eq!(store.credibility(SourceId(8)), 0.5);
    }

    #[test]
    fn frozen_stores_ignore_records_until_thawed() {
        let store = HistoryStore::paper_defaults();
        store.freeze();
        assert!(store.is_frozen());
        assert!(!store.record(SourceId(9), 100, 100));
        assert_eq!(store.credibility(SourceId(9)), 0.5);
        store.thaw();
        assert!(store.record(SourceId(9), 100, 100));
        assert!(store.credibility(SourceId(9)) > 0.5);
        assert_eq!(store.tracked_sources(), 1);
    }

    #[test]
    fn clones_carry_state_but_diverge_afterwards() {
        let store = HistoryStore::paper_defaults();
        store.record(SourceId(10), 40, 50);
        let copy = store.clone();
        assert_eq!(
            copy.credibility(SourceId(10)),
            store.credibility(SourceId(10))
        );
        copy.record(SourceId(10), 0, 50);
        assert!(copy.credibility(SourceId(10)) < store.credibility(SourceId(10)));
    }

    #[test]
    fn concurrent_updates_are_safe() {
        let store = std::sync::Arc::new(HistoryStore::paper_defaults());
        let mut handles = Vec::new();
        for i in 0..8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    store.record(SourceId(i % 2), 1, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 800 observations split over two sources + pseudo counts.
        let total = store.observations(SourceId(0)) + store.observations(SourceId(1));
        assert_eq!(total, 800.0 + 100.0);
    }
}
