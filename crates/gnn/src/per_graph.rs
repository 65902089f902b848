//! The per-graph taped engine the stacked tape replaced, kept only as its
//! oracle: one taped forward and one backward per graph, fanned out over
//! the rayon pool, reduced in fixed batch order. [`train_encoder_per_graph`]
//! runs the same epoch loop as [`crate::train::train_encoder`] (identical
//! shuffles, identical batches), so the two must produce bit-identical
//! encoders at any chunk packing and thread count.

use crate::gin::{BackwardPlan, GinEncoder, GinGrads, GraphCtx};
use crate::pool::GradPool;
use crate::train::{batch_loss, DmlConfig};
use ce_features::FeatureGraph;
use ce_nn::matrix::spmm_csr;
use ce_nn::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Mutex;

/// Activations of one training forward: per layer, the aggregated input `M`
/// fed to the dense map and its post-activation output `Y`. Layer `l`'s
/// aggregation input is layer `l-1`'s `Y` (or the graph's vertex matrix),
/// so nothing is stored twice.
#[derive(Default)]
pub(crate) struct ForwardTape {
    steps: Vec<TapeStep>,
    embedding: Vec<f32>,
}

struct TapeStep {
    m: Matrix,
    y: Matrix,
}

impl ForwardTape {
    /// The graph embedding this forward produced (sum-pooled vertices).
    pub(crate) fn embedding(&self) -> &[f32] {
        &self.embedding
    }
}

impl GinEncoder {
    /// Training forward of one graph: records the per-layer activations
    /// [`Self::backward_tape`] needs and the embedding.
    pub(crate) fn forward_tape(&self, ctx: &GraphCtx) -> ForwardTape {
        let mut tape = ForwardTape::default();
        self.forward_tape_into(ctx, &mut tape);
        tape
    }

    /// [`Self::forward_tape`] into a recycled tape, reshaping its buffers.
    pub(crate) fn forward_tape_into(&self, ctx: &GraphCtx, tape: &mut ForwardTape) {
        let layers = self.layers();
        tape.steps.resize_with(layers.len(), || TapeStep {
            m: Matrix::zeros(0, 0),
            y: Matrix::zeros(0, 0),
        });
        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = tape.steps.split_at_mut(l);
            let step = &mut rest[0];
            let h = if l == 0 { &ctx.h0 } else { &done[l - 1].y };
            step.m.reshape_for_overwrite(h.rows, h.cols);
            layer.aggregate(h, &ctx.csr, &mut step.m);
            layer.mlp.infer_into(&step.m, &mut step.y);
        }
        let h = tape.steps.last().map_or(&ctx.h0, |s| &s.y);
        tape.embedding.clear();
        tape.embedding.resize(h.cols, 0.0);
        // Ascending-row accumulation — identical to `Matrix::sum_rows`.
        for r in 0..h.rows {
            for (e, &v) in tape.embedding.iter_mut().zip(h.row(r)) {
                *e += v;
            }
        }
    }

    /// Backward of one graph from its embedding gradient, accumulating
    /// parameter gradients into `acc`.
    pub(crate) fn backward_tape(
        &self,
        ctx: &GraphCtx,
        tape: &ForwardTape,
        grad_embedding: &[f32],
        acc: &mut GinGrads,
        plan: &BackwardPlan,
    ) {
        let n = ctx.num_vertices();
        // Sum pooling broadcasts the embedding gradient to every vertex.
        let mut g = Matrix::zeros(n, grad_embedding.len());
        for r in 0..n {
            g.row_mut(r).copy_from_slice(grad_embedding);
        }
        for (l, layer) in self.layers().iter().enumerate().rev() {
            let step = &tape.steps[l];
            let h = if l == 0 {
                &ctx.h0
            } else {
                &tape.steps[l - 1].y
            };
            let layer_acc = acc.layer_mut(l);
            let gm =
                layer
                    .mlp
                    .backward_owned_wt(&step.m, &step.y, g, plan.wt(l), &mut layer_acc.dense);
            // dL/dε = Σ_i <gm_i, h_i> (the ε term contributes ε·h_i to m_i).
            for (a, b) in gm.data.iter().zip(&h.data) {
                layer_acc.eps += a * b;
            }
            if l == 0 {
                break;
            }
            // dL/dH = (1+ε)·gm + Aᵀ·gm; A is symmetric.
            let mut gh = Matrix::zeros(h.rows, h.cols);
            spmm_csr(
                &ctx.csr.indptr,
                &ctx.csr.indices,
                &ctx.csr.weights,
                1.0 + layer.eps,
                &gm,
                &mut gh,
            );
            g = gh;
        }
    }
}

/// Recycling pool for [`ForwardTape`]s; checked-out tapes hold stale
/// contents until [`GinEncoder::forward_tape_into`] overwrites them.
#[derive(Default)]
pub(crate) struct TapePool {
    slots: Mutex<Vec<ForwardTape>>,
}

impl TapePool {
    pub(crate) fn checkout(&self) -> ForwardTape {
        let pooled = self.slots.lock().expect("tape pool poisoned").pop();
        pooled.unwrap_or_default()
    }

    pub(crate) fn restore(&self, tape: ForwardTape) {
        self.slots.lock().expect("tape pool poisoned").push(tape);
    }
}

/// Trains an encoder through the per-graph engine, with the epoch loop of
/// [`crate::train::train_encoder`].
pub(crate) fn train_encoder_per_graph(
    graphs: &[FeatureGraph],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
    seed: u64,
) -> GinEncoder {
    let input_dim = graphs.first().map_or(1, FeatureGraph::vertex_dim);
    let mut encoder = GinEncoder::new(input_dim, &cfg.hidden, cfg.embed_dim, seed);
    let ctxs: Vec<GraphCtx> = graphs.iter().map(GraphCtx::from_graph).collect();
    let (tapes, grads) = (TapePool::default(), GradPool::new());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd31);
    let mut order: Vec<usize> = (0..ctxs.len()).collect();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            train_batch_per_graph(&mut encoder, &ctxs, labels, chunk, cfg, &tapes, &grads);
        }
    }
    encoder
}

/// One batch: a taped forward and a backward per graph, zero-gradient
/// graphs skipped, accumulators reduced in fixed batch order.
fn train_batch_per_graph(
    encoder: &mut GinEncoder,
    ctxs: &[GraphCtx],
    labels: &[Vec<f64>],
    chunk: &[usize],
    cfg: &DmlConfig,
    tapes: &TapePool,
    pool: &GradPool,
) {
    let enc: &GinEncoder = encoder;
    let forwards: Vec<ForwardTape> = chunk
        .par_iter()
        .map(|&i| {
            let mut tape = tapes.checkout();
            enc.forward_tape_into(&ctxs[i], &mut tape);
            tape
        })
        .collect();
    let embeddings: Vec<Vec<f32>> = forwards.iter().map(|t| t.embedding().to_vec()).collect();
    let batch_labels: Vec<Vec<f64>> = chunk.iter().map(|&i| labels[i].clone()).collect();
    let lg = batch_loss(&embeddings, &batch_labels, cfg);
    let plan = enc.backward_plan();
    let slots: Vec<usize> = (0..chunk.len()).collect();
    let grads: Vec<Option<GinGrads>> = slots
        .par_iter()
        .map(|&b| {
            if lg.grads[b].iter().all(|&g| g == 0.0) {
                return None;
            }
            let mut acc = pool.checkout(enc);
            enc.backward_tape(&ctxs[chunk[b]], &forwards[b], &lg.grads[b], &mut acc, &plan);
            Some(acc)
        })
        .collect();
    let mut total = pool.checkout(enc);
    for g in grads.iter().flatten() {
        total.add_assign(g);
    }
    encoder.step_with(&total, cfg.lr);
    pool.restore(total);
    pool.restore_all(grads.into_iter().flatten());
    for tape in forwards {
        tapes.restore(tape);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackedCtx;
    use crate::train::{evaluate_loss, train_encoder};
    use proptest::prelude::*;
    use rand::Rng;

    /// Random small graphs with 1..=max_v vertices and random sparse edges.
    #[allow(clippy::needless_range_loop)]
    fn random_train_set(count: usize, dim: usize, max_v: usize, seed: u64) -> Vec<FeatureGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.gen_range(1usize..=max_v);
                let mut edges = vec![vec![0.0f32; n]; n];
                for i in 0..n {
                    for j in 0..n {
                        if i != j && rng.gen::<f32>() < 0.3 {
                            edges[i][j] = rng.gen_range(0.05f32..1.0);
                        }
                    }
                }
                let vertices = (0..n)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..=1.0)).collect())
                    .collect();
                FeatureGraph { vertices, edges }
            })
            .collect()
    }

    proptest! {
        /// Stacked-train ≡ per-graph-train, bit for bit: same loss, same
        /// gradients, same post-step parameters — for random graph sets
        /// (including single-vertex graphs), every batch size, any chunk
        /// packing. The CI determinism matrix runs this at 1/2/4/8 rayon
        /// workers, extending the equivalence across thread counts.
        #[test]
        fn stacked_train_matches_per_graph_train_bitwise(
            seed in 0u64..24,
            count in 4usize..12,
            batch in 2usize..7,
        ) {
            let graphs = random_train_set(count, 4, 6, seed.wrapping_mul(0x9e37));
            let labels: Vec<Vec<f64>> = (0..count)
                .map(|i| if i % 2 == 0 { vec![1.0, 0.1, 0.0] } else { vec![0.0, 0.1, 1.0] })
                .collect();
            let cfg = DmlConfig {
                epochs: 3,
                batch_size: batch,
                hidden: vec![8],
                embed_dim: 5,
                ..DmlConfig::default()
            };
            let stacked = train_encoder(&graphs, &labels, &cfg, seed);
            let per_graph = train_encoder_per_graph(&graphs, &labels, &cfg, seed);
            prop_assert_eq!(stacked.flat_params(), per_graph.flat_params());
            let loss_s = evaluate_loss(&stacked, &graphs, &labels, &cfg);
            let loss_p = evaluate_loss(&per_graph, &graphs, &labels, &cfg);
            prop_assert_eq!(loss_s, loss_p);
        }

        /// The segmented backward splits per-graph gradients at segment
        /// boundaries bit-identically to per-graph backward passes — with
        /// empty (zero-vertex) graphs interleaved as zero-height blocks and
        /// zero-gradient graphs skipped on both sides.
        #[test]
        fn segmented_backward_splits_match_per_graph(seed in 0u64..32, count in 3usize..9) {
            let dim = 3;
            let mut graphs = random_train_set(count, dim, 5, seed.wrapping_mul(0x51ed));
            // Interleave empty graphs: legal in the stacked path (zero-height
            // blocks), impossible per graph — their accumulators must come
            // back all-zero (nonzero grad) or skipped (zero grad).
            let empty = FeatureGraph { vertices: vec![], edges: vec![] };
            graphs.insert(0, empty.clone());
            graphs.push(empty);
            let enc = GinEncoder::new(dim, &[7, 6], 4, seed ^ 0x91);
            let ctxs: Vec<GraphCtx> = graphs.iter().map(GraphCtx::from_graph).collect();
            let stacked_ctx = StackedCtx::from_ctxs(&ctxs);
            let tape = enc.forward_stacked_tape(&stacked_ctx);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
            let grads_in: Vec<Vec<f32>> = (0..graphs.len())
                .map(|i| {
                    if i % 4 == 1 {
                        vec![0.0; enc.embed_dim()]
                    } else {
                        (0..enc.embed_dim()).map(|_| rng.gen_range(-1.0f32..=1.0)).collect()
                    }
                })
                .collect();
            let plan = enc.backward_plan();
            let pool = GradPool::new();
            let accs = enc.backward_stacked_tape(&stacked_ctx, &tape, &grads_in, &plan, &pool);
            for (i, (ctx, acc)) in ctxs.iter().zip(&accs).enumerate() {
                // Embeddings agree first (empty graphs pool to zeros).
                if ctx.num_vertices() > 0 {
                    prop_assert_eq!(tape.embedding(i), enc.forward_tape(ctx).embedding());
                } else {
                    prop_assert!(tape.embedding(i).iter().all(|&v| v == 0.0));
                }
                if grads_in[i].iter().all(|&v| v == 0.0) {
                    prop_assert!(acc.is_none());
                    continue;
                }
                let acc = acc.as_ref().expect("active graph has an accumulator");
                let mut expect = GinGrads::zeros_like(&enc);
                if ctx.num_vertices() > 0 {
                    let per_tape = enc.forward_tape(ctx);
                    enc.backward_tape(ctx, &per_tape, &grads_in[i], &mut expect, &plan);
                }
                prop_assert_eq!(acc.flat(), expect.flat());
            }
        }
    }
}
