#![warn(missing_docs)]

//! # MultiRAG
//!
//! A Rust implementation of **MultiRAG: A Knowledge-Guided Framework for
//! Mitigating Hallucination in Multi-Source Retrieval Augmented
//! Generation** (ICDE 2025).
//!
//! This facade crate re-exports the whole workspace so downstream users
//! depend on a single crate:
//!
//! * [`kg`] — knowledge-graph substrate (triple store, line graph).
//! * [`ingest`] — multi-source parsers and per-format adapters (CSV /
//!   JSON / XML / KG / text) from raw bytes to claims.
//! * [`llmsim`] — deterministic simulated LLM with an explicit
//!   hallucination model.
//! * [`retrieval`] — chunking, TF-IDF / BM25, inverted index.
//! * [`datasets`] — synthetic multi-source benchmark generators
//!   (Movies / Books / Flights / Stocks, multi-hop QA).
//! * [`core`] — the paper's contribution: multi-source line graphs,
//!   homologous subgraph matching, multi-level confidence computing and
//!   the MKLGP pipeline.
//! * [`baselines`] — TruthFinder, LTM, majority vote, CoT, Standard RAG,
//!   IRCoT, ChatKBQA, MDQA, FusionQuery, RQ-RAG, MetaRAG.
//! * [`eval`] — metrics and the experiment harness regenerating every
//!   table and figure of the paper.
//! * [`obs`] — observability substrate: metrics registry, span-style
//!   stage tracing, deterministic per-query trace export.
//! * [`serve`] — concurrent query serving: epoch-snapshotted indexes,
//!   multi-level caching, bounded admission, closed-loop load harness.
//!
//! ## Quickstart
//!
//! ```
//! use multirag::core::{MklgpPipeline, MultiRagConfig};
//! use multirag::datasets::{movies::MoviesSpec, MultiSourceDataset};
//!
//! // Generate a small synthetic multi-source dataset and answer one query.
//! let dataset = MoviesSpec::small().generate(42);
//! let config = MultiRagConfig::default();
//! let mut pipeline = MklgpPipeline::new(&dataset.graph, config, 42);
//! let query = &dataset.queries[0];
//! let answer = pipeline.answer(query);
//! assert!(!answer.values.is_empty() || answer.abstained);
//! ```

pub mod cli;

pub use multirag_baselines as baselines;
pub use multirag_core as core;
pub use multirag_datasets as datasets;
pub use multirag_eval as eval;
pub use multirag_ingest as ingest;
pub use multirag_kg as kg;
pub use multirag_llmsim as llmsim;
pub use multirag_obs as obs;
pub use multirag_retrieval as retrieval;
pub use multirag_serve as serve;
