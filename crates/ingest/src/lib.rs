#![warn(missing_docs)]

//! # multirag-ingest
//!
//! Multi-source data substrate for MultiRAG (Definition 1 / Eq. 2 of the
//! paper). Real deployments pull data from heterogeneous feeds; this
//! crate implements the full path from raw bytes to claims:
//!
//! * [`json`] — a from-scratch recursive-descent JSON parser producing
//!   [`json::JsonValue`] trees (handles escapes, `\uXXXX`, nested
//!   containers, numbers).
//! * [`csv`] — an RFC 4180 CSV reader (quotes, embedded commas and
//!   newlines) producing typed [`csv::Table`]s.
//! * [`xml`] — a small well-formed-XML parser (elements, attributes,
//!   text, comments, CDATA, self-closing tags) producing
//!   [`xml::XmlElement`] trees.
//! * [`adapter`] — the per-format adapters `Ada_stru`, `Ada_semi-s`,
//!   `Ada_unstru` and the fusion union of Eq. 2. Each adapter turns its
//!   parsed records straight into uniform [`adapter::Claim`]s ready for
//!   knowledge-graph loading and counts the records it read; the
//!   JSON-LD envelope of Definition 1 is not built.

pub mod adapter;
pub mod csv;
pub mod error;
pub mod json;
pub mod xml;

pub use adapter::{
    fuse_sources, fuse_sources_with, load_into_graph, Claim, FusionReport, IngestDiagnostic,
    IngestMode, RawSource, SourceFormat,
};
pub use error::{IngestError, ParseError};
pub use json::JsonValue;
