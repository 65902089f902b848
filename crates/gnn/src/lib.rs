//! # ce-gnn — GIN graph encoder + deep metric learning (paper §V-B/C)
//!
//! * [`gin`]: a Graph Isomorphism Network (Xu et al.) over feature graphs —
//!   `L` GINConv layers (Eq. 5, learnable `ε`, edge-weighted neighbor
//!   aggregation) followed by sum pooling, with full manual backprop built
//!   on the `ce-nn` dense layers.
//! * [`loss`]: the paper's **weighted contrastive loss** (Eq. 9; pair
//!   weights Eq. 11/12 arise as the softmax factors of its gradient) and the
//!   basic contrastive loss it is ablated against (Eq. 10 / [Hadsell et
//!   al.]), plus performance similarity (Def. 2) and positive/negative pair
//!   assignment (Def. 3).
//! * [`train`]: Algorithm 1 — batched DML training of the encoder from
//!   labeled feature graphs. One trainer per mode: [`train_encoder`] for a
//!   fresh encoder, [`train_encoder_incremental`] to continue one. Each
//!   takes the `MetricsRegistry` its phase timings land in; a disabled one
//!   costs nothing and no registry moves a trained bit.
//! * [`stack`]: the batch-stacked engine — N graphs concatenated into one
//!   tall vertex matrix + block-diagonal CSR. Serving side, one stacked
//!   forward encodes the whole chunk bit-identically to per-graph
//!   encoding; training side, [`StackedTape`] records the tall taped
//!   forward and a **segmented backward** routes gradients through the
//!   same block-diagonal structure, splitting per-graph contributions at
//!   segment boundaries so the fixed-order reduction stays bit-identical
//!   to per-graph training.
//! * [`pool`]: reusable training workspaces (stacked tapes, gradient
//!   accumulators) recycled across batches; pooled gradient buffers are
//!   zeroed on checkout, never trusted on return.
//!
//! The stacked tape is the one taped engine. The per-graph taped engine it
//! replaced and the seed's dense engine live on only as its
//! `#[cfg(test)]` oracles.

pub mod gin;
pub mod loss;
pub mod pool;
pub mod stack;
pub mod train;

pub use gin::{BackwardPlan, GinEncoder, GinGrads, GraphCtx};
pub use loss::{basic_contrastive, performance_similarity, weighted_contrastive, PairSets};
pub use pool::{GradPool, StackedTapePool, WorkspacePools};
pub use stack::{StackedCtx, StackedTape, STACK_CHUNK_ROWS};
pub use train::{train_encoder, train_encoder_incremental, DmlConfig, LossKind};

#[cfg(test)]
mod per_graph;
#[cfg(test)]
mod reference;
