#![warn(missing_docs)]

//! # multirag-retrieval
//!
//! Text-retrieval substrate for MultiRAG. The multi-hop QA experiments
//! (Table IV) and the unstructured-data path both need a classical
//! retriever; this crate implements it from scratch:
//!
//! * [`text`] — tokenization (lowercased alphanumeric words), stopword
//!   filtering and light stemming.
//! * [`vocab`] — a term dictionary with document frequencies.
//! * [`index`] — an inverted index with typed postings.
//! * [`bm25`] — Okapi BM25 scoring over the inverted index.
//! * [`topk`] — heap-based top-k selection.

pub mod bm25;
pub mod index;
pub mod text;
pub mod topk;
pub mod vocab;

pub use bm25::Bm25Index;
pub use index::{DocId, InvertedIndex, Posting};
pub use topk::top_k;
pub use vocab::{TermId, Vocabulary};
