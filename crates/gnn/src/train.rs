//! Algorithm 1 — DML-based graph-encoder learning.
//!
//! Per epoch the labeled feature graphs are shuffled into batches; for each
//! batch the positive/negative pair sets are derived from score-vector
//! similarities (Def. 2/3), one **taped forward pass** produces both the
//! loss embeddings and the backprop state, the chosen contrastive loss
//! yields per-embedding gradients, and the backward pass accumulates into
//! per-graph [`GinGrads`] before a single Adam step.
//!
//! # Stacked batches, parallel execution & determinism
//!
//! Graph contexts ([`GraphCtx`]: vertex matrix + CSR adjacency) are
//! prepared once per training run. Inside a batch, the graphs are packed
//! (in batch order) into chunks of ≈[`crate::stack::STACK_CHUNK_ROWS`]
//! vertex rows; each rayon task stacks its chunk into one tall matrix and
//! runs **one taped forward** ([`GinEncoder::forward_stacked_tape_into`]) and
//! one segmented backward ([`GinEncoder::backward_stacked_tape`]) for the
//! whole chunk — the encoder is `&self` for both. The segmented backward
//! splits parameter-gradient contributions at segment boundaries into
//! per-graph accumulators, which are reduced **in fixed batch order**
//! before the step. Training is therefore bit-for-bit identical to one
//! taped forward and backward per graph at any chunk size (the
//! `#[cfg(test)]` per-graph oracle checks it), and deterministic across
//! runs and thread counts (`tests::parallel_training_is_bit_deterministic`).

use crate::gin::{GinEncoder, GinGrads, GraphCtx};
use crate::loss::{basic_contrastive, pair_sets, weighted_contrastive, LossGrad};
use crate::pool::WorkspacePools;
use crate::stack::{chunk_ranges, StackedCtx, StackedTape};
use ce_features::FeatureGraph;
use ce_obs::{Counter, Histogram, MetricsRegistry, LATENCY_NS_BUCKETS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Which contrastive loss drives training (Fig. 7 ablates these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// The paper's weighted contrastive loss (Eq. 9).
    Weighted,
    /// Basic contrastive loss (Eq. 10 / Hadsell et al.).
    Basic,
}

/// DML training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DmlConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Batch size `m` of Algorithm 1.
    pub batch_size: usize,
    /// Adam learning rate `η`.
    pub lr: f32,
    /// Similarity threshold `τ` (Def. 3).
    pub tau: f64,
    /// Fixed margin `γ` of the loss.
    pub gamma: f64,
    /// Hidden GINConv widths.
    pub hidden: Vec<usize>,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Loss selection.
    pub loss: LossKind,
}

impl Default for DmlConfig {
    fn default() -> Self {
        DmlConfig {
            epochs: 30,
            batch_size: 32,
            lr: 1e-3,
            tau: 0.97,
            gamma: 1.0,
            hidden: vec![64],
            embed_dim: 32,
            loss: LossKind::Weighted,
        }
    }
}

/// Trains a GIN encoder from labeled feature graphs (Algorithm 1).
///
/// `labels[i]` is the score vector `y⃗_i` of graph `i` for the metric-weight
/// combination being trained. Graphs may be owned or borrowed
/// (`&[FeatureGraph]` or `&[&FeatureGraph]`) — callers holding graphs
/// elsewhere need not clone them. Per-phase timings
/// (`ce_gnn_train_phase_ns{phase}`, `ce_gnn_train_batches_total`) and the
/// workspace pools' counters land in `metrics`; a
/// [`MetricsRegistry::disabled`] one records nothing and costs nothing.
/// Either way the trained bits are the same: spans only read the clock,
/// never the data.
pub fn train_encoder<G: Borrow<FeatureGraph> + Sync>(
    graphs: &[G],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
    seed: u64,
    metrics: &MetricsRegistry,
) -> GinEncoder {
    assert_eq!(graphs.len(), labels.len(), "graph/label count mismatch");
    let input_dim = graphs.first().map_or(1, |g| g.borrow().vertex_dim());
    let mut encoder = GinEncoder::new(input_dim, &cfg.hidden, cfg.embed_dim, seed);
    if graphs.is_empty() {
        return encoder;
    }
    let obs = TrainObs::new(metrics);
    let ctxs = obs.timed_prepare(|| prepare_ctxs(graphs));
    run_epochs(&mut encoder, &ctxs, labels, cfg, seed ^ 0xd31, &obs);
    encoder
}

/// Continues training an existing encoder on (possibly augmented) data —
/// the incremental-learning entry point (Algorithm 2, step 3), and the
/// update the serving layer's reservoir-bounded online adaptation runs,
/// recording into the serving registry so refresh and train costs show up
/// in one metrics surface. Batches run through the same stacked engine as
/// [`train_encoder`], and `metrics` is observed the same way.
pub fn train_encoder_incremental<G: Borrow<FeatureGraph> + Sync>(
    encoder: &mut GinEncoder,
    graphs: &[G],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
    seed: u64,
    metrics: &MetricsRegistry,
) {
    if graphs.is_empty() {
        return;
    }
    let obs = TrainObs::new(metrics);
    let ctxs = obs.timed_prepare(|| prepare_ctxs(graphs));
    run_epochs(encoder, &ctxs, labels, cfg, seed ^ 0x1c2, &obs);
}

/// Per-phase training observability. One batch records four spans into
/// `ce_gnn_train_phase_ns{phase}` — `forward` (context stacking + taped
/// forward), `loss` (pair sets + contrastive loss), `backward` (segmented
/// backward fan-out), `step` (fixed-order reduction + Adam) — plus
/// `phase="prepare"` once per training run (graph-context building) and a
/// `ce_gnn_train_batches_total` count. Spans are driver-thread only (they
/// bracket the rayon fan-outs, never run inside them), are a read-only
/// side channel, and cost nothing on a disabled registry.
struct TrainObs {
    registry: MetricsRegistry,
    prepare_ns: Histogram,
    forward_ns: Histogram,
    loss_ns: Histogram,
    backward_ns: Histogram,
    step_ns: Histogram,
    batches: Counter,
}

impl TrainObs {
    /// Registers the training phase metrics on `registry`.
    fn new(registry: &MetricsRegistry) -> Self {
        let phase = |p: &str| {
            registry.histogram("ce_gnn_train_phase_ns", &[("phase", p)], LATENCY_NS_BUCKETS)
        };
        TrainObs {
            registry: registry.clone(),
            prepare_ns: phase("prepare"),
            forward_ns: phase("forward"),
            loss_ns: phase("loss"),
            backward_ns: phase("backward"),
            step_ns: phase("step"),
            batches: registry.counter("ce_gnn_train_batches_total", &[]),
        }
    }

    fn timed_prepare<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.prepare_ns.start_span();
        f()
    }
}

/// Shared epoch loop: shuffle, batch, step.
fn run_epochs(
    encoder: &mut GinEncoder,
    ctxs: &[GraphCtx],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
    shuffle_seed: u64,
    obs: &TrainObs,
) {
    let pools = WorkspacePools::observed(&obs.registry);
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    let mut order: Vec<usize> = (0..ctxs.len()).collect();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            obs.batches.inc();
            train_batch(encoder, ctxs, labels, chunk, cfg, &pools, obs);
        }
    }
}

/// Builds every graph's context (vertex matrix + CSR adjacency) in parallel.
fn prepare_ctxs<G: Borrow<FeatureGraph> + Sync>(graphs: &[G]) -> Vec<GraphCtx> {
    graphs
        .par_iter()
        .map(|g| GraphCtx::from_graph(g.borrow()))
        .collect()
}

/// The contrastive loss `cfg` selects, over one batch's embeddings and
/// score vectors.
pub(crate) fn batch_loss(
    embeddings: &[Vec<f32>],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
) -> LossGrad {
    let (pairs, sims) = pair_sets(labels, cfg.tau);
    match cfg.loss {
        LossKind::Weighted => weighted_contrastive(embeddings, &sims, &pairs, cfg.gamma),
        LossKind::Basic => basic_contrastive(embeddings, &pairs, cfg.gamma),
    }
}

/// One batch step: the batch's graphs are packed (in batch order) into
/// ≈`STACK_CHUNK_ROWS`-row stacks, one rayon task per stack — **one** taped
/// tall forward and one segmented backward per stack. The segmented
/// backward hands back per-graph accumulators split at segment boundaries,
/// so the fixed-batch-order reduction below — and therefore every Adam
/// step — is bit-identical at any chunk size and thread count.
fn train_batch(
    encoder: &mut GinEncoder,
    ctxs: &[GraphCtx],
    labels: &[Vec<f64>],
    chunk: &[usize],
    cfg: &DmlConfig,
    pools: &WorkspacePools,
    obs: &TrainObs,
) {
    let enc: &GinEncoder = encoder;
    let ranges = chunk_ranges(chunk.iter().map(|&i| ctxs[i].num_vertices()));
    // One stacked taped forward per chunk. Stacked contexts are rebuilt
    // per batch (shuffling recomposes them), but the tall tapes come from
    // the workspace pool and the build cost is a fraction of the kernel
    // dispatches it replaces.
    let forward_span = obs.forward_ns.start_span();
    let stacks: Vec<(StackedCtx, StackedTape)> = ranges
        .par_iter()
        .map(|r| {
            let refs: Vec<&GraphCtx> = chunk[r.clone()].iter().map(|&i| &ctxs[i]).collect();
            let sctx = StackedCtx::from_ctxs(&refs);
            let mut tape = pools.stacked.checkout();
            enc.forward_stacked_tape_into(&sctx, &mut tape);
            (sctx, tape)
        })
        .collect();
    drop(forward_span);
    let loss_span = obs.loss_ns.start_span();
    let embeddings: Vec<Vec<f32>> = stacks
        .iter()
        .flat_map(|(_, t)| (0..t.num_graphs()).map(move |i| t.embedding(i).to_vec()))
        .collect();
    let batch_labels: Vec<Vec<f64>> = chunk.iter().map(|&i| labels[i].clone()).collect();
    let lg = batch_loss(&embeddings, &batch_labels, cfg);
    drop(loss_span);
    // One segmented backward per stack, fanned out over the pool; each
    // returns per-graph accumulators (pooled, zeroed on checkout; `None`
    // for zero-gradient graphs)...
    let backward_span = obs.backward_ns.start_span();
    let plan = enc.backward_plan();
    let slots: Vec<usize> = (0..stacks.len()).collect();
    let grads: Vec<Vec<Option<GinGrads>>> = slots
        .par_iter()
        .map(|&s| {
            let (sctx, tape) = &stacks[s];
            enc.backward_stacked_tape(
                sctx,
                tape,
                &lg.grads[ranges[s].clone()],
                &plan,
                &pools.grads,
            )
        })
        .collect();
    drop(backward_span);
    // ...reduced per graph in fixed batch order, then one Adam step.
    let step_span = obs.step_ns.start_span();
    let mut total = pools.grads.checkout(enc);
    for g in grads.iter().flatten().flatten() {
        total.add_assign(g);
    }
    encoder.step_with(&total, cfg.lr);
    drop(step_span);
    // Workspaces go back dirty; the next checkout re-zeroes what it needs.
    pools.grads.restore(total);
    pools
        .grads
        .restore_all(grads.into_iter().flatten().flatten());
    pools
        .stacked
        .restore_all(stacks.into_iter().map(|(_, t)| t));
}

/// The loss of the whole set as one batch (the oracles' training-quality
/// witness).
#[cfg(test)]
pub(crate) fn evaluate_loss(
    encoder: &GinEncoder,
    graphs: &[FeatureGraph],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
) -> f64 {
    batch_loss(&encoder.encode_batch(graphs), labels, cfg).loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::per_graph::train_encoder_per_graph;
    use crate::reference::train_encoder_reference;
    use ce_nn::matrix::euclidean;

    /// Two synthetic "classes" of graphs with distinct labels: after DML,
    /// within-class embedding distances should be smaller than
    /// between-class distances.
    fn toy_data() -> (Vec<FeatureGraph>, Vec<Vec<f64>>) {
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            let class = i % 2;
            let jitter = (i / 2) as f32 * 0.01;
            let base = if class == 0 { 0.2 } else { 0.8 };
            graphs.push(FeatureGraph {
                vertices: vec![vec![base + jitter, base - jitter, 0.5, base]],
                edges: vec![vec![0.0]],
            });
            labels.push(if class == 0 {
                vec![1.0, 0.1, 0.0]
            } else {
                vec![0.0, 0.1, 1.0]
            });
        }
        (graphs, labels)
    }

    /// Multi-vertex graphs with real edges, exercising the CSR aggregation
    /// path during training.
    fn toy_multivertex_data() -> (Vec<FeatureGraph>, Vec<Vec<f64>>) {
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            let class = i % 2;
            let base = if class == 0 { 0.25 } else { 0.75 };
            let j = (i / 2) as f32 * 0.015;
            graphs.push(FeatureGraph {
                vertices: vec![
                    vec![base + j, 0.5, base],
                    vec![base, base - j, 0.4],
                    vec![0.3, base, base + j],
                ],
                edges: vec![
                    vec![0.0, 0.8, 0.0],
                    vec![0.1, 0.0, 0.6],
                    vec![0.0, 0.0, 0.0],
                ],
            });
            labels.push(if class == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            });
        }
        (graphs, labels)
    }

    fn class_separation(encoder: &GinEncoder, graphs: &[FeatureGraph]) -> (f32, f32) {
        let embs: Vec<Vec<f32>> = graphs.iter().map(|g| encoder.encode(g)).collect();
        let mut within = Vec::new();
        let mut between = Vec::new();
        for i in 0..embs.len() {
            for j in i + 1..embs.len() {
                let d = euclidean(&embs[i], &embs[j]);
                if i % 2 == j % 2 {
                    within.push(d);
                } else {
                    between.push(d);
                }
            }
        }
        let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        (avg(&within), avg(&between))
    }

    #[test]
    fn dml_separates_classes() {
        let (graphs, labels) = toy_data();
        let cfg = DmlConfig {
            epochs: 60,
            batch_size: 16,
            lr: 5e-3,
            hidden: vec![16],
            embed_dim: 8,
            ..DmlConfig::default()
        };
        let encoder = train_encoder(&graphs, &labels, &cfg, 3, &MetricsRegistry::disabled());
        let (within, between) = class_separation(&encoder, &graphs);
        assert!(
            between > 2.0 * within,
            "between {between} should exceed within {within}"
        );
    }

    #[test]
    fn incremental_training_continues_to_improve_or_hold() {
        let (graphs, labels) = toy_data();
        let cfg = DmlConfig {
            epochs: 10,
            batch_size: 16,
            lr: 5e-3,
            hidden: vec![16],
            embed_dim: 8,
            ..DmlConfig::default()
        };
        let mut encoder = train_encoder(&graphs, &labels, &cfg, 4, &MetricsRegistry::disabled());
        let before = evaluate_loss(&encoder, &graphs, &labels, &cfg);
        train_encoder_incremental(
            &mut encoder,
            &graphs,
            &labels,
            &cfg,
            5,
            &MetricsRegistry::disabled(),
        );
        let after = evaluate_loss(&encoder, &graphs, &labels, &cfg);
        assert!(after <= before + 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn basic_loss_also_trains() {
        let (graphs, labels) = toy_data();
        let cfg = DmlConfig {
            epochs: 40,
            batch_size: 16,
            lr: 5e-3,
            hidden: vec![16],
            embed_dim: 8,
            loss: LossKind::Basic,
            ..DmlConfig::default()
        };
        let encoder = train_encoder(&graphs, &labels, &cfg, 6, &MetricsRegistry::disabled());
        let (within, between) = class_separation(&encoder, &graphs);
        assert!(between > within, "between {between} vs within {within}");
    }

    #[test]
    fn empty_training_set_returns_fresh_encoder() {
        let cfg = DmlConfig::default();
        let enc = train_encoder::<FeatureGraph>(&[], &[], &cfg, 7, &MetricsRegistry::disabled());
        assert_eq!(enc.embed_dim(), cfg.embed_dim);
    }

    #[test]
    fn borrowed_graphs_train_identically() {
        let (graphs, labels) = toy_multivertex_data();
        let cfg = DmlConfig {
            epochs: 6,
            batch_size: 8,
            hidden: vec![8],
            embed_dim: 4,
            ..DmlConfig::default()
        };
        let owned = train_encoder(&graphs, &labels, &cfg, 11, &MetricsRegistry::disabled());
        let refs: Vec<&FeatureGraph> = graphs.iter().collect();
        let borrowed = train_encoder(&refs, &labels, &cfg, 11, &MetricsRegistry::disabled());
        assert_eq!(owned.flat_params(), borrowed.flat_params());
    }

    /// The stacked batch engine must be bit-identical to the per-graph
    /// taped engine: same shuffles, same batches, and the segmented
    /// backward's per-graph split + fixed-order reduction reproduces the
    /// per-graph association exactly.
    #[test]
    fn stacked_training_matches_per_graph_training_bitwise() {
        for (seed, (graphs, labels)) in [(51u64, toy_data()), (52, toy_multivertex_data())] {
            let cfg = DmlConfig {
                epochs: 8,
                // Small batches so batches span multiple stack chunks only
                // sometimes — both packings must agree regardless.
                batch_size: 5,
                hidden: vec![12],
                embed_dim: 6,
                ..DmlConfig::default()
            };
            let stacked = train_encoder(&graphs, &labels, &cfg, seed, &MetricsRegistry::disabled());
            let per_graph = train_encoder_per_graph(&graphs, &labels, &cfg, seed);
            assert_eq!(
                stacked.flat_params(),
                per_graph.flat_params(),
                "stacked and per-graph training must be bit-identical (seed {seed})"
            );
            let loss_stacked = evaluate_loss(&stacked, &graphs, &labels, &cfg);
            let loss_per_graph = evaluate_loss(&per_graph, &graphs, &labels, &cfg);
            assert_eq!(loss_stacked, loss_per_graph);
        }
    }

    /// Observed training is bit-identical to unobserved training (spans
    /// only read the clock), and the phase histograms/pool counters come
    /// back populated with exactly the expected structure — for a fresh
    /// encoder and for the incremental update alike.
    #[test]
    fn observed_training_is_bit_identical_and_reports_phases() {
        let (graphs, labels) = toy_multivertex_data();
        let cfg = DmlConfig {
            epochs: 4,
            batch_size: 6,
            hidden: vec![8],
            embed_dim: 4,
            ..DmlConfig::default()
        };
        let batches = (graphs.len().div_ceil(cfg.batch_size) * cfg.epochs) as u64;
        let plain = train_encoder(&graphs, &labels, &cfg, 17, &MetricsRegistry::disabled());
        let reg = MetricsRegistry::new();
        let observed = train_encoder(&graphs, &labels, &cfg, 17, &reg);
        assert_eq!(
            plain.flat_params(),
            observed.flat_params(),
            "metrics must not perturb training"
        );
        assert_reports_phases(&reg, batches);
        // The incremental leg: continue both encoders, one observed.
        let (mut plain, mut observed) = (plain, observed);
        train_encoder_incremental(
            &mut plain,
            &graphs,
            &labels,
            &cfg,
            18,
            &MetricsRegistry::disabled(),
        );
        let reg = MetricsRegistry::new();
        train_encoder_incremental(&mut observed, &graphs, &labels, &cfg, 18, &reg);
        assert_eq!(
            plain.flat_params(),
            observed.flat_params(),
            "metrics must not perturb incremental training"
        );
        assert_reports_phases(&reg, batches);
    }

    /// One training run's phase spans, batch count and pool counters.
    fn assert_reports_phases(reg: &MetricsRegistry, batches: u64) {
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ce_gnn_train_batches_total", &[]), batches);
        for phase in ["forward", "loss", "backward", "step"] {
            let (_, count) = snap.histogram_totals("ce_gnn_train_phase_ns", &[("phase", phase)]);
            assert_eq!(count, batches, "one {phase} span per batch");
        }
        let (_, prep) = snap.histogram_totals("ce_gnn_train_phase_ns", &[("phase", "prepare")]);
        assert_eq!(prep, 1, "one prepare span per training run");
        // The workspace pools report through the same registry, and after
        // the first batch recycling keeps the miss count strictly below
        // the checkout count.
        let checkouts = snap.counter("ce_gnn_pool_checkouts_total", &[("pool", "grad")]);
        let misses = snap.counter("ce_gnn_pool_misses_total", &[("pool", "grad")]);
        assert!(checkouts > 0, "grad pool must see checkouts");
        assert!(misses < checkouts, "recycling must serve some checkouts");
    }

    /// The rayon-fanned engine must be bit-for-bit deterministic across
    /// thread counts: per-graph work is independent and the gradient
    /// reduction happens in fixed batch order.
    #[test]
    fn parallel_training_is_bit_deterministic() {
        let (graphs, labels) = toy_multivertex_data();
        let cfg = DmlConfig {
            epochs: 8,
            batch_size: 6,
            hidden: vec![12],
            embed_dim: 6,
            ..DmlConfig::default()
        };
        let train_at = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds")
                .install(|| train_encoder(&graphs, &labels, &cfg, 21, &MetricsRegistry::disabled()))
        };
        let single = train_at(1);
        let multi = train_at(4);
        assert_eq!(
            single.flat_params(),
            multi.flat_params(),
            "weights must be bit-identical across thread counts"
        );
        for g in &graphs {
            assert_eq!(single.encode(g), multi.encode(g));
        }
    }

    /// The sparse CSR forward must match the seed's dense per-layer
    /// aggregation **bit for bit**, both at initialization and on trained
    /// parameters transplanted into the reference engine.
    #[test]
    fn inference_matches_dense_reference_bitwise() {
        let (graphs, labels) = toy_multivertex_data();
        let cfg = DmlConfig {
            epochs: 6,
            batch_size: 8,
            hidden: vec![12],
            embed_dim: 6,
            ..DmlConfig::default()
        };
        let fresh = GinEncoder::new(3, &cfg.hidden, cfg.embed_dim, 33);
        let fresh_ref = crate::reference::ReferenceEncoder::from_gin(&fresh);
        let trained = train_encoder(&graphs, &labels, &cfg, 33, &MetricsRegistry::disabled());
        let trained_ref = crate::reference::ReferenceEncoder::from_gin(&trained);
        for g in &graphs {
            assert_eq!(fresh.encode(g), fresh_ref.encode(g), "fresh params");
            assert_eq!(trained.encode(g), trained_ref.encode(g), "trained params");
        }
    }

    /// End-to-end training equivalence against the seed's sequential dense
    /// double-pass engine. Both engines see identical batches and compute
    /// the same math, but they associate floating-point accumulations
    /// differently (running sums vs. reduced per-graph partials), and
    /// Adam's scale-invariant step amplifies a residue at any coordinate
    /// whose true gradient is ~0 to the full learning rate. So: the
    /// non-degenerate toy set must match near machine precision, and the
    /// multi-vertex set (whose symmetric pairs produce exactly-cancelling
    /// bias gradients) must stay within a few learning-rate quanta.
    #[test]
    fn training_matches_dense_sequential_reference_engine() {
        let close = |a: &[f32], b: &[f32], tol: f32, what: &str| {
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    (x - y).abs() <= tol * (1.0 + y.abs()),
                    "{what}[{i}]: {x} vs {y}"
                );
            }
        };
        for (tol, (graphs, labels)) in [(1e-6, toy_data()), (0.05, toy_multivertex_data())] {
            let cfg = DmlConfig {
                epochs: 10,
                batch_size: 8,
                hidden: vec![12],
                embed_dim: 6,
                ..DmlConfig::default()
            };
            let fast = train_encoder(&graphs, &labels, &cfg, 33, &MetricsRegistry::disabled());
            let reference = train_encoder_reference(&graphs, &labels, &cfg, 33);
            close(&fast.flat_params(), &reference.flat_params(), tol, "params");
            for g in &graphs {
                close(&fast.encode(g), &reference.encode(g), tol, "embedding");
            }
            // Both engines reach the same training quality.
            let labels_ref = &labels;
            let loss_fast = evaluate_loss(&fast, &graphs, labels_ref, &cfg);
            let embeddings: Vec<Vec<f32>> = graphs.iter().map(|g| reference.encode(g)).collect();
            let loss_ref = batch_loss(&embeddings, labels_ref, &cfg).loss;
            assert!(
                (loss_fast - loss_ref).abs() <= 0.05 * (1.0 + loss_ref.abs()),
                "loss {loss_fast} vs reference {loss_ref}"
            );
        }
    }
}
