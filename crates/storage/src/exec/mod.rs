//! Exact query evaluation.
//!
//! * [`filter`]: per-table predicate evaluation producing row-id selections.
//! * [`count`]: exact cardinality of acyclic SPJ queries via a
//!   Yannakakis-style bottom-up weighted count (linear in table sizes).
//!   [`CardinalityCounter`] prepares a dataset for a whole workload: per
//!   join edge, on first use, it numbers the keys with dense ids
//!   (`key − min` when the key span is no larger than the edge's row count,
//!   else one hash map built per edge), so a query folds an edge with two
//!   array passes. [`query_cardinality`] is its one-shot form.
//! * [`sample`]: weighted uniform sampling from the (never materialized)
//!   full join result — the join-sample source of NeuroCard/UAE.
//! * [`join`]: materializing binary hash / nested-loop joins used by the
//!   plan simulator (`ce-optsim`) to measure real execution times.

pub mod count;
pub mod filter;
pub mod join;
pub mod sample;

pub use count::{query_cardinality, CardinalityCounter};
pub use filter::{filter_table, selection_bitmap};
pub use join::{hash_join, nested_loop_join, JoinedRows};
pub use sample::sample_join;
