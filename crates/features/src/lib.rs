//! # ce-features — feature engineering and feature-graph modeling (§V-A)
//!
//! A training sample for AutoCE is a *dataset*, not a tuple. This crate
//! extracts the CE-relevant data features and models them as a **feature
//! graph**: vertices are tables (carrying per-column statistics and
//! column-pair correlations), edges are PK-FK joins weighted by join
//! correlation.
//!
//! Vertex layout follows the paper exactly (§V-A2, Example 3): with `m` the
//! global maximum column count and `k` per-column features, each vertex is a
//! flattened vector of `(k + m)·m + 2` entries — `k` statistics plus `m`
//! correlation slots per column, padded with zeros, plus the table's row and
//! column counts. The per-column features are the paper's list: skewness,
//! kurtosis, standard deviation, mean deviation, range and domain size; the
//! correlation feature is the same-position equality rate (the reverse of
//! the generator's F2 process), and edge weights reverse F3 (FK-over-PK set
//! coverage).
//!
//! ## Cost and the bits contract
//!
//! Extraction reads every cell of the first `m` data columns a handful of
//! times and is the dominant cost of a `Dataset` request, so its integer
//! statistics run on `ce_storage::stats`' hash-free kernels: distinct
//! counts and FK-over-PK coverage mark a bitmap over the value span when
//! the span is small next to the row count (dictionary codes — the normal
//! case) and sort a scratch copy otherwise; the equality rate is computed
//! once per unordered column pair. The choice of path depends on the
//! column's span and length only, the float moment passes keep their row
//! order, and so the kernels change latency, never bits —
//! `tests/golden_bits.rs` pins a checksum of every vertex and edge value
//! captured under the earlier `HashSet` definitions.

pub mod csr;
pub mod graph;
pub mod mixup;

pub use csr::CsrAdjacency;
pub use graph::{extract_features, FeatureConfig, FeatureGraph, COLUMN_FEATURES};
pub use mixup::{mixup_graphs, mixup_labels};
