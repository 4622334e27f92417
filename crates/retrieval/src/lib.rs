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
//! * [`tfidf`] — sparse TF-IDF vectors and cosine similarity.
//! * [`bm25`] — Okapi BM25 scoring over the inverted index.
//! * [`chunker`] — sliding-window chunking with overlap.
//! * [`embed`] — a feature-hashing dense embedder (cosine geometry
//!   without neural weights).
//! * [`topk`] — heap-based top-k selection.

pub mod bm25;
pub mod chunker;
pub mod embed;
pub mod index;
pub mod text;
pub mod tfidf;
pub mod topk;
pub mod vocab;

pub use bm25::Bm25Index;
pub use chunker::{chunk_text, Chunk, ChunkerOptions};
pub use embed::{Embedding, HashEmbedder};
pub use index::{DocId, InvertedIndex, Posting};
pub use tfidf::{cosine, TfIdfIndex, TfIdfVector};
pub use topk::top_k;
pub use vocab::{TermId, Vocabulary};
