//! Term dictionary with document frequencies.

use multirag_kg::FxHashMap;

/// Dense id of a vocabulary term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only term dictionary tracking per-term document frequency.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    terms: Vec<String>,
    lookup: FxHashMap<String, TermId>,
    doc_frequency: Vec<u32>,
    documents: u32,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term (without touching document frequency).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_string());
        self.lookup.insert(term.to_string(), id);
        self.doc_frequency.push(0);
        id
    }

    /// Looks up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.lookup.get(term).copied()
    }

    /// Resolves an id to its term.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Registers one document's distinct terms, bumping their document
    /// frequencies. Returns the interned ids.
    pub fn add_document_terms<'a>(
        &mut self,
        distinct_terms: impl Iterator<Item = &'a str>,
    ) -> Vec<TermId> {
        let ids: Vec<TermId> = distinct_terms.map(|t| self.intern(t)).collect();
        for &id in &ids {
            self.doc_frequency[id.index()] += 1;
        }
        self.documents += 1;
        ids
    }

    /// Document frequency of a term.
    pub fn doc_frequency(&self, id: TermId) -> u32 {
        self.doc_frequency[id.index()]
    }

    /// Smoothed inverse document frequency:
    /// `ln(1 + (N - df + 0.5) / (df + 0.5))` (BM25-style, always ≥ 0).
    pub fn idf(&self, id: TermId) -> f64 {
        let n = f64::from(self.documents);
        let df = f64::from(self.doc_frequency(id));
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable() {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("delay");
        assert_eq!(vocab.intern("delay"), a);
        assert_eq!(vocab.term(a), "delay");
        assert_eq!(vocab.len(), 1);
    }

    #[test]
    fn document_frequencies_accumulate() {
        let mut vocab = Vocabulary::new();
        vocab.add_document_terms(["a", "b"].into_iter());
        vocab.add_document_terms(["a", "c"].into_iter());
        let a = vocab.get("a").unwrap();
        let b = vocab.get("b").unwrap();
        assert_eq!(vocab.doc_frequency(a), 2);
        assert_eq!(vocab.doc_frequency(b), 1);
        assert_eq!(vocab.documents, 2);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let mut vocab = Vocabulary::new();
        for _ in 0..9 {
            vocab.add_document_terms(["common"].into_iter());
        }
        vocab.add_document_terms(["common", "rare"].into_iter());
        let common = vocab.get("common").unwrap();
        let rare = vocab.get("rare").unwrap();
        assert!(vocab.idf(rare) > vocab.idf(common));
        assert!(vocab.idf(common) > 0.0);
    }

    #[test]
    fn get_does_not_create() {
        let vocab = Vocabulary::new();
        assert!(vocab.get("missing").is_none());
        assert!(vocab.is_empty());
    }
}
