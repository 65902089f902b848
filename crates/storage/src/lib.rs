//! # ce-storage — in-memory columnar relational engine
//!
//! The substrate every other crate of the AutoCE reproduction builds on:
//!
//! * [`Table`] / [`Column`] / [`Dataset`]: dictionary-encoded (`i64`) columnar
//!   tables connected by PK-FK [`JoinEdge`]s, mirroring the schema model of the
//!   paper (§IV-A: every generated column has values in `1..=domain_size`).
//! * [`query`]: the shared SPJ query representation (joined table subset +
//!   conjunctive range predicates) used by the workload generator, every CE
//!   model, the testbed and the plan simulator.
//! * [`exec`]: exact query evaluation — per-table predicate filtering, acyclic
//!   (Yannakakis-style) join counting for ground-truth cardinalities, and a
//!   weighted full-join sampler (the NeuroCard-style join sample source).
//! * [`stats`]: per-column summaries (min/max/NDV/histograms) consumed by the
//!   feature extractor and the histogram-based estimators; distinct counts
//!   and set coverage run on dense-bitmap / sorted-run kernels, never hashes.

pub mod column;
pub mod dataset;
pub mod error;
pub mod exec;
pub mod query;
pub mod stats;
pub mod table;

pub use column::{Column, ColumnRole, Value};
pub use dataset::{Dataset, JoinEdge};
pub use error::StorageError;
pub use query::{Predicate, Query};
pub use table::Table;
