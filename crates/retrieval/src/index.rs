//! The inverted index.

use crate::text::tokenize;
use crate::vocab::{TermId, Vocabulary};
use multirag_kg::FxHashMap;

/// Dense document id within an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One posting: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Term frequency within the document.
    pub tf: u32,
}

/// An inverted index mapping terms to postings, with per-document
/// length bookkeeping (needed by BM25).
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    vocab: Vocabulary,
    postings: Vec<Vec<Posting>>,
    doc_lengths: Vec<u32>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizes and indexes a document, returning its id.
    pub fn add_document(&mut self, text: &str) -> DocId {
        let tokens = tokenize(text);
        self.add_tokens(&tokens)
    }

    /// Indexes a pre-tokenized document.
    pub fn add_tokens(&mut self, tokens: &[String]) -> DocId {
        let doc = DocId(self.doc_lengths.len() as u32);
        let mut counts: FxHashMap<&str, u32> = FxHashMap::default();
        for token in tokens {
            *counts.entry(token.as_str()).or_insert(0) += 1;
        }
        // Register distinct terms (bumps document frequencies).
        let mut pairs: Vec<(&str, u32)> = counts.into_iter().collect();
        pairs.sort_unstable(); // deterministic posting construction
        let ids = self.vocab.add_document_terms(pairs.iter().map(|(t, _)| *t));
        for (id, (_, tf)) in ids.into_iter().zip(&pairs) {
            if id.index() >= self.postings.len() {
                self.postings.resize(id.index() + 1, Vec::new());
            }
            self.postings[id.index()].push(Posting { doc, tf: *tf });
        }
        self.doc_lengths.push(tokens.len() as u32);
        doc
    }

    /// Postings for a term string (empty slice when unseen).
    pub fn postings(&self, term: &str) -> &[Posting] {
        match self.vocab.get(term) {
            Some(id) => self.postings_by_id(id),
            None => &[],
        }
    }

    /// Postings for a term id.
    pub fn postings_by_id(&self, id: TermId) -> &[Posting] {
        self.postings
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Token length of a document.
    pub fn doc_length(&self, doc: DocId) -> u32 {
        self.doc_lengths[doc.index()]
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Mean document token length.
    pub fn mean_doc_length(&self) -> f64 {
        if self.doc_lengths.is_empty() {
            return 0.0;
        }
        self.doc_lengths.iter().map(|&l| f64::from(l)).sum::<f64>() / self.doc_lengths.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut index = InvertedIndex::new();
        index.add_document("flight CA981 delayed by typhoon"); // doc 0
        index.add_document("flight CA982 departed on time"); // doc 1
        index.add_document("typhoon warning issued for Beijing"); // doc 2
        index
    }

    #[test]
    fn postings_record_tf_and_docs() {
        let index = sample();
        let flights = index.postings("flight");
        assert_eq!(flights.len(), 2);
        assert_eq!(flights[0].doc, DocId(0));
        assert_eq!(flights[0].tf, 1);
        assert!(index.postings("unseen").is_empty());
    }

    #[test]
    fn doc_lengths_count_tokens() {
        let index = sample();
        assert_eq!(index.doc_count(), 3);
        // "flight CA981 delayed by typhoon" → by is a stopword: 4 tokens.
        assert_eq!(index.doc_length(DocId(0)), 4);
        assert!(index.mean_doc_length() > 0.0);
    }

    #[test]
    fn repeated_terms_bump_tf_not_df() {
        let mut index = InvertedIndex::new();
        index.add_document("delay delay delay");
        let postings = index.postings("delay");
        assert_eq!(postings.len(), 1);
        assert_eq!(postings[0].tf, 3);
        assert_eq!(
            index
                .vocab()
                .doc_frequency(index.vocab().get("delay").unwrap()),
            1
        );
    }

    #[test]
    fn postings_are_sorted_by_doc() {
        let index = sample();
        for term in ["flight", "typhoon", "delayed"] {
            let postings = index.postings(term);
            for pair in postings.windows(2) {
                assert!(pair[0].doc < pair[1].doc);
            }
        }
    }

    #[test]
    fn empty_document_is_allowed() {
        let mut index = InvertedIndex::new();
        let doc = index.add_document("");
        assert_eq!(index.doc_length(doc), 0);
        assert_eq!(index.doc_count(), 1);
    }
}
