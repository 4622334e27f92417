//! Property-based tests for the retrieval substrate.

use multirag_retrieval::text::{normalize_mention, raw_tokens, stem, tokenize};
use multirag_retrieval::{top_k, Bm25Index};
use proptest::prelude::*;

proptest! {
    /// top_k always agrees with a full sort.
    #[test]
    fn top_k_matches_full_sort(
        items in proptest::collection::vec((0u32..1000, -100.0f64..100.0), 0..200),
        k in 0usize..50,
    ) {
        // Deduplicate keys so the deterministic tie-break is well defined.
        let mut seen = std::collections::HashSet::new();
        let items: Vec<(u32, f64)> = items
            .into_iter()
            .filter(|(key, _)| seen.insert(*key))
            .collect();
        let got = top_k(items.iter().copied(), k);
        let mut sorted = items.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        sorted.truncate(k);
        prop_assert_eq!(got, sorted);
    }

    /// Tokenization is total and produces lowercase alphanumeric tokens.
    #[test]
    fn tokenize_is_total_and_normalized(text in "\\PC{0,64}") {
        for token in tokenize(&text) {
            prop_assert!(!token.is_empty());
            prop_assert!(token.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(token.to_lowercase(), token.clone());
        }
        for token in raw_tokens(&text) {
            prop_assert!(token.chars().all(|c| c.is_alphanumeric()));
        }
    }

    /// Stemming is idempotent.
    #[test]
    fn stemming_is_idempotent(word in "[a-z]{1,12}") {
        prop_assert_eq!(stem(&stem(&word)), stem(&word));
    }

    /// normalize_mention is idempotent and order-stable.
    #[test]
    fn normalize_mention_idempotent(text in "\\PC{0,32}") {
        let once = normalize_mention(&text);
        prop_assert_eq!(normalize_mention(&once), once.clone());
    }

    /// Indexed documents containing a unique marker are retrievable via
    /// that marker at rank 1.
    #[test]
    fn unique_markers_retrieve_their_document(
        filler in proptest::collection::vec("[a-f]{3,6}( [a-f]{3,6}){1,8}", 2..12),
        target_idx in 0usize..12,
    ) {
        let target_idx = target_idx % filler.len();
        let docs: Vec<String> = filler
            .iter()
            .enumerate()
            .map(|(i, base)| {
                if i == target_idx {
                    format!("{base} zzuniquemarker")
                } else {
                    base.clone()
                }
            })
            .collect();
        let bm25 = Bm25Index::build(docs.iter().map(String::as_str));
        let results = bm25.search("zzuniquemarker", 3);
        prop_assert!(!results.is_empty());
        prop_assert_eq!(results[0].0.index(), target_idx);
    }

    /// BM25 scores are finite and non-negative; results are sorted.
    #[test]
    fn bm25_scores_are_sane(
        docs in proptest::collection::vec("[a-e]{2,5}( [a-e]{2,5}){0,10}", 1..16),
        query in "[a-e]{2,5}( [a-e]{2,5}){0,3}",
    ) {
        let index = Bm25Index::build(docs.iter().map(String::as_str));
        let results = index.search(&query, 10);
        for pair in results.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1);
        }
        for (_, score) in &results {
            prop_assert!(score.is_finite());
            prop_assert!(*score >= 0.0);
        }
    }
}
