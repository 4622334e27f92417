//! Okapi BM25 scoring.

use crate::index::{DocId, InvertedIndex};
use crate::text::tokenize;
use crate::topk::top_k;
use multirag_kg::FxHashMap;

/// Term-frequency saturation (typical 1.2–2.0).
const K1: f64 = 1.2;
/// Length normalization strength (0 = none, 1 = full).
const B: f64 = 0.75;

/// A BM25 retrieval index.
///
/// # Examples
///
/// ```
/// use multirag_retrieval::Bm25Index;
///
/// let index = Bm25Index::build(["typhoon hits Beijing", "markets rally"].into_iter());
/// let results = index.search("typhoon", 1);
/// assert_eq!(results[0].0.index(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Bm25Index {
    inverted: InvertedIndex,
}

impl Bm25Index {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index over a collection in one shot.
    pub fn build<'a>(documents: impl Iterator<Item = &'a str>) -> Self {
        let mut index = Self::new();
        for doc in documents {
            index.add_document(doc);
        }
        index
    }

    /// Adds a document, returning its id.
    pub fn add_document(&mut self, text: &str) -> DocId {
        self.inverted.add_document(text)
    }

    /// Scores every document containing at least one query term;
    /// returns the top-k `(doc, score)` in descending score order.
    pub fn search(&self, query: &str, k: usize) -> Vec<(DocId, f64)> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut scores: FxHashMap<DocId, f64> = FxHashMap::default();
        let avg_len = self.inverted.mean_doc_length().max(1e-9);
        let vocab = self.inverted.vocab();
        // Deduplicate query terms (each contributes once, standard BM25).
        let mut distinct = tokens;
        distinct.sort_unstable();
        distinct.dedup();
        for token in &distinct {
            let Some(term_id) = vocab.get(token) else {
                continue;
            };
            let idf = vocab.idf(term_id);
            for posting in self.inverted.postings_by_id(term_id) {
                let tf = f64::from(posting.tf);
                let len = f64::from(self.inverted.doc_length(posting.doc));
                let denom = tf + K1 * (1.0 - B + B * len / avg_len);
                let contribution = idf * tf * (K1 + 1.0) / denom;
                *scores.entry(posting.doc).or_insert(0.0) += contribution;
            }
        }
        top_k(scores.into_iter(), k)
    }

    /// BM25 score of a single document for a query (0 when the document
    /// shares no terms).
    pub fn score(&self, query: &str, doc: DocId) -> f64 {
        self.search(query, usize::MAX)
            .into_iter()
            .find(|&(d, _)| d == doc)
            .map(|(_, s)| s)
            .unwrap_or(0.0)
    }

    /// Number of documents.
    pub fn doc_count(&self) -> usize {
        self.inverted.doc_count()
    }

    /// The underlying inverted index.
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bm25Index {
        Bm25Index::build(
            [
                "flight CA981 delayed by typhoon in Beijing",
                "flight CA982 departed on time",
                "typhoon typhoon typhoon warning",
                "a very long document about many different topics of cuisine and art, entirely unrelated subject matter, quite long indeed with many words",
            ]
            .into_iter(),
        )
    }

    #[test]
    fn relevant_documents_outrank_irrelevant() {
        let index = sample();
        let results = index.search("typhoon Beijing flight", 4);
        assert_eq!(results[0].0, DocId(0), "doc 0 matches all three terms");
        let ids: Vec<DocId> = results.iter().map(|&(d, _)| d).collect();
        assert!(!ids.contains(&DocId(3)));
    }

    #[test]
    fn tf_saturates() {
        let index = sample();
        // Doc 2 has typhoon×3 but BM25 saturation keeps its advantage
        // bounded; it should still beat docs with tf=1 on that term.
        let results = index.search("typhoon", 4);
        assert_eq!(results[0].0, DocId(2));
        let top = results[0].1;
        let second = results[1].1;
        assert!(top / second < 3.0, "saturation must compress the tf=3 gap");
    }

    #[test]
    fn length_normalization_penalizes_long_documents() {
        let mut index = Bm25Index::new();
        index.add_document("target word here");
        index.add_document(&format!("target {}", "filler ".repeat(60)));
        let results = index.search("target", 2);
        assert_eq!(results[0].0, DocId(0), "short doc wins at equal tf");
    }

    #[test]
    fn scores_are_descending_and_k_bounded() {
        let index = sample();
        let results = index.search("flight typhoon", 2);
        assert!(results.len() <= 2);
        for pair in results.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn empty_and_unknown_queries() {
        let index = sample();
        assert!(index.search("", 3).is_empty());
        assert!(index.search("zzzz", 3).is_empty());
    }

    #[test]
    fn score_of_specific_doc() {
        let index = sample();
        assert!(index.score("typhoon", DocId(2)) > 0.0);
        assert_eq!(index.score("typhoon", DocId(1)), 0.0);
    }

    #[test]
    fn duplicate_query_terms_count_once() {
        let index = sample();
        let once = index.search("typhoon", 4);
        let thrice = index.search("typhoon typhoon typhoon", 4);
        assert_eq!(once, thrice);
    }
}
