//! Reusable training workspaces: checkout/restore pools for the
//! [`StackedTape`]s and [`GinGrads`] accumulators of batch training.
//!
//! Allocating one tape (per-layer activation matrices) per chunk and one
//! gradient accumulator per graph per batch was ~10% of the training
//! profile at GIN sizes. The pools below recycle those buffers across
//! batches: a rayon worker checks a workspace out, fills it, and the batch
//! driver returns every workspace once the fixed-order reduction is done.
//!
//! # Checkout rules (the pool invariants)
//!
//! * **Zero on checkout, not on return.** [`GradPool::checkout`] zeroes the
//!   accumulator before handing it out and debug-asserts
//!   [`GinGrads::is_zero`]; restoring a dirty workspace is always safe, and
//!   a workspace leaked back in a dirty state can never silently corrupt
//!   the next batch's gradients.
//! * **Shape-checked.** A pooled accumulator that no longer matches the
//!   encoder's parameter shapes (the pool outlived a differently-shaped
//!   encoder) is dropped and replaced by a fresh zero accumulator.
//! * **Determinism is unaffected.** Which physical buffer a chunk gets
//!   changes no value: tapes are fully overwritten
//!   ([`GinEncoder::forward_stacked_tape_into`]) and accumulators start
//!   from all-zeros, while the gradient reduction still runs in fixed batch
//!   order. Training remains bit-identical across thread counts and with
//!   or without pooling.

use crate::gin::{GinEncoder, GinGrads};
use crate::stack::StackedTape;
use ce_obs::{Counter, MetricsRegistry};
use std::sync::Mutex;

/// Checkout statistics for one pool: total checkouts and misses (a miss is
/// a checkout the pool could not serve from a recycled buffer — a fresh
/// allocation). `misses / checkouts` is the pool's cold fraction; in
/// steady-state training it should approach zero after the first batch.
/// Counters default to the no-op handles of a disabled registry, so
/// unobserved pools record nothing and cost nothing.
#[derive(Default)]
struct PoolObs {
    checkouts: Counter,
    misses: Counter,
}

impl PoolObs {
    /// Registers `ce_gnn_pool_checkouts_total{pool}` and
    /// `ce_gnn_pool_misses_total{pool}` on `registry`.
    fn new(registry: &MetricsRegistry, pool: &str) -> Self {
        PoolObs {
            checkouts: registry.counter("ce_gnn_pool_checkouts_total", &[("pool", pool)]),
            misses: registry.counter("ce_gnn_pool_misses_total", &[("pool", pool)]),
        }
    }
}

/// Recycling pool for [`StackedTape`]s: checked-out tapes hold stale
/// contents and every consumer fully overwrites them via
/// [`GinEncoder::forward_stacked_tape_into`], so which physical buffer a
/// chunk gets can never change a value.
#[derive(Default)]
pub struct StackedTapePool {
    slots: Mutex<Vec<StackedTape>>,
    obs: PoolObs,
}

impl StackedTapePool {
    /// An empty pool.
    pub fn new() -> Self {
        StackedTapePool::default()
    }

    /// An empty pool recording checkout stats into `registry` as
    /// `ce_gnn_pool_{checkouts,misses}_total{pool="stacked"}`.
    pub fn observed(registry: &MetricsRegistry) -> Self {
        StackedTapePool {
            slots: Mutex::new(Vec::new()),
            obs: PoolObs::new(registry, "stacked"),
        }
    }

    /// Pops a pooled stacked tape (or builds an empty one). The returned
    /// tape's contents are unspecified — it must be filled with
    /// [`GinEncoder::forward_stacked_tape_into`] before use.
    pub fn checkout(&self) -> StackedTape {
        self.obs.checkouts.inc();
        let pooled = self.slots.lock().expect("stacked tape pool poisoned").pop();
        pooled.unwrap_or_else(|| {
            self.obs.misses.inc();
            StackedTape::default()
        })
    }

    /// Returns one stacked tape to the pool.
    pub fn restore(&self, tape: StackedTape) {
        self.slots
            .lock()
            .expect("stacked tape pool poisoned")
            .push(tape);
    }

    /// Returns a batch of stacked tapes to the pool.
    pub fn restore_all(&self, tapes: impl IntoIterator<Item = StackedTape>) {
        self.slots
            .lock()
            .expect("stacked tape pool poisoned")
            .extend(tapes);
    }
}

/// Recycling pool for [`GinGrads`] accumulators. Checkout zeroes; restore
/// does not (see the module-level checkout rules).
#[derive(Default)]
pub struct GradPool {
    slots: Mutex<Vec<GinGrads>>,
    obs: PoolObs,
}

impl GradPool {
    /// An empty pool.
    pub fn new() -> Self {
        GradPool::default()
    }

    /// An empty pool recording checkout stats into `registry` as
    /// `ce_gnn_pool_{checkouts,misses}_total{pool="grad"}`. A pooled
    /// accumulator whose shape no longer matches the encoder counts as a
    /// miss — it is dropped and replaced by a fresh allocation.
    pub fn observed(registry: &MetricsRegistry) -> Self {
        GradPool {
            slots: Mutex::new(Vec::new()),
            obs: PoolObs::new(registry, "grad"),
        }
    }

    /// Checks out an all-zero accumulator shaped for `encoder`. Pooled
    /// buffers are zeroed here — on checkout — and the invariant is
    /// asserted in debug builds, so a workspace restored dirty (the normal
    /// case) or leaked dirty (a bug) can never corrupt gradients.
    pub fn checkout(&self, encoder: &GinEncoder) -> GinGrads {
        self.obs.checkouts.inc();
        let pooled = self.slots.lock().expect("grad pool poisoned").pop();
        let grads = match pooled {
            Some(mut g) if g.shape_matches(encoder) => {
                g.zero();
                g
            }
            _ => {
                self.obs.misses.inc();
                GinGrads::zeros_like(encoder)
            }
        };
        debug_assert!(
            grads.is_zero(),
            "GradPool checkout must hand out all-zero accumulators"
        );
        grads
    }

    /// Returns one accumulator to the pool, dirty as it is.
    pub fn restore(&self, grads: GinGrads) {
        self.slots.lock().expect("grad pool poisoned").push(grads);
    }

    /// Returns a batch of accumulators to the pool.
    pub fn restore_all(&self, grads: impl IntoIterator<Item = GinGrads>) {
        self.slots.lock().expect("grad pool poisoned").extend(grads);
    }
}

/// The pair of pools one training run threads through every batch.
#[derive(Default)]
pub struct WorkspacePools {
    /// Gradient-accumulator recycling.
    pub grads: GradPool,
    /// Stacked-tape recycling (one tape per ≈`STACK_CHUNK_ROWS` chunk).
    pub stacked: StackedTapePool,
}

impl WorkspacePools {
    /// Empty pools.
    pub fn new() -> Self {
        WorkspacePools::default()
    }

    /// Empty pools recording checkout stats into `registry` under
    /// `ce_gnn_pool_checkouts_total{pool}` / `ce_gnn_pool_misses_total{pool}`
    /// with `pool` ∈ `grad` | `stacked`. With a disabled registry
    /// this is identical to [`WorkspacePools::new`].
    pub fn observed(registry: &MetricsRegistry) -> Self {
        WorkspacePools {
            grads: GradPool::observed(registry),
            stacked: StackedTapePool::observed(registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gin::{GinEncoder, GinGrads, GraphCtx};
    use ce_features::FeatureGraph;

    fn toy_graph() -> FeatureGraph {
        FeatureGraph {
            vertices: vec![vec![0.4, -0.3], vec![0.8, 0.1]],
            edges: vec![vec![0.0, 0.6], vec![0.0, 0.0]],
        }
    }

    #[test]
    fn grad_checkout_is_zero_even_after_dirty_restore() {
        // A ReLU head can dead-zone a particular seed's gradients; scan for
        // an encoder whose backward actually accumulates something.
        let (enc, acc) = (0u64..32)
            .find_map(|seed| {
                let enc = GinEncoder::new(2, &[4], 3, seed);
                let ctx = GraphCtx::from_graph(&toy_graph());
                let tape = enc.forward_tape(&ctx);
                let mut acc = GinGrads::zeros_like(&enc);
                let plan = enc.backward_plan();
                enc.backward_tape(&ctx, &tape, &[1.0, 1.0, 1.0], &mut acc, &plan);
                (!acc.is_zero()).then_some((enc, acc))
            })
            .expect("some seed yields live gradients");
        let pool = GradPool::new();
        assert!(pool.checkout(&enc).is_zero());
        // Restore dirty — the pool must still hand out zeros.
        pool.restore(acc);
        let again = pool.checkout(&enc);
        assert!(again.is_zero(), "pooled buffer must be zeroed on checkout");
    }

    /// Observed pools report checkouts and misses exactly: a cold checkout
    /// is a miss, a recycled one is not, and a shape-mismatched grad
    /// checkout counts as a miss again (fresh allocation).
    #[test]
    fn observed_pools_count_checkouts_and_misses() {
        use ce_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let pools = WorkspacePools::observed(&reg);
        // Stacked-tape pool: cold miss, then a recycled hit.
        let t = pools.stacked.checkout();
        pools.stacked.restore(t);
        let _t = pools.stacked.checkout();
        // Grad pool: cold miss, dirty restore, recycled hit, then a
        // shape-mismatched checkout that must count as a second miss.
        let small = GinEncoder::new(2, &[4], 3, 1);
        let big = GinEncoder::new(2, &[8, 8], 5, 2);
        let g = pools.grads.checkout(&small);
        pools.grads.restore(g);
        let g = pools.grads.checkout(&small);
        pools.grads.restore(g);
        let _g = pools.grads.checkout(&big);
        let snap = reg.snapshot();
        let c = |name: &str, pool: &str| snap.counter(name, &[("pool", pool)]);
        assert_eq!(c("ce_gnn_pool_checkouts_total", "stacked"), 2);
        assert_eq!(c("ce_gnn_pool_misses_total", "stacked"), 1);
        assert_eq!(c("ce_gnn_pool_checkouts_total", "grad"), 3);
        assert_eq!(c("ce_gnn_pool_misses_total", "grad"), 2);
        // Unobserved pools stay silent and free.
        let silent = WorkspacePools::new();
        let t = silent.stacked.checkout();
        silent.stacked.restore(t);
        assert_eq!(c("ce_gnn_pool_checkouts_total", "stacked"), 2);
    }

    #[test]
    fn grad_checkout_replaces_mismatched_shapes() {
        let small = GinEncoder::new(2, &[4], 3, 1);
        let big = GinEncoder::new(2, &[8, 8], 5, 2);
        let pool = GradPool::new();
        pool.restore(GinGrads::zeros_like(&small));
        let g = pool.checkout(&big);
        assert!(g.shape_matches(&big));
        assert!(!g.shape_matches(&small));
    }

    /// A stacked-tape checkout recycled from a differently-shaped encoder
    /// (the pool outliving an encoder resize) must be fully overwritten —
    /// never serve stale activations or embeddings.
    #[test]
    fn pooled_stacked_tape_matches_fresh_after_encoder_resize() {
        use crate::stack::StackedCtx;
        let graphs = [toy_graph(), toy_graph()];
        let ctxs: Vec<GraphCtx> = graphs.iter().map(GraphCtx::from_graph).collect();
        let stacked = StackedCtx::from_ctxs(&ctxs);
        let pool = StackedTapePool::new();
        // Dirty the pool with a tape shaped for a larger encoder.
        let big = GinEncoder::new(2, &[16, 16], 9, 3);
        pool.restore(big.forward_stacked_tape(&stacked));
        // Check out for a smaller encoder: contents must be bit-identical
        // to a fresh tape, not a stale reshape.
        let small = GinEncoder::new(2, &[4], 3, 46);
        let fresh = small.forward_stacked_tape(&stacked);
        let mut tape = pool.checkout();
        small.forward_stacked_tape_into(&stacked, &mut tape);
        assert_eq!(tape.embeddings(), fresh.embeddings());
        // And it must back an identical segmented backward.
        let plan = small.backward_plan();
        let grads_in = vec![vec![1.0f32, -0.5, 0.25]; 2];
        let gp = GradPool::new();
        let a = small.backward_stacked_tape(&stacked, &fresh, &grads_in, &plan, &gp);
        let b = small.backward_stacked_tape(&stacked, &tape, &grads_in, &plan, &gp);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.as_ref().map(GinGrads::flat),
                y.as_ref().map(GinGrads::flat)
            );
        }
    }

    /// After an encoder resize, a pooled gradient accumulator restored
    /// under the old shape must never reach `step_with` — the layer-count
    /// assertion fires instead of silently truncating the Adam update.
    #[test]
    #[should_panic(expected = "gradient accumulator layer count mismatch")]
    fn stale_grads_after_encoder_resize_panic_in_step() {
        let old = GinEncoder::new(2, &[4, 4], 3, 1);
        let stale = GinGrads::zeros_like(&old);
        let mut resized = GinEncoder::new(2, &[4], 3, 1);
        resized.step_with(&stale, 0.01);
    }

    /// Same-layer-count, different widths: the debug shape assertion must
    /// catch what the count check cannot.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shaped for a different encoder")]
    fn stale_grads_with_mismatched_widths_panic_in_debug() {
        let old = GinEncoder::new(2, &[8], 5, 1);
        let stale = GinGrads::zeros_like(&old);
        let mut resized = GinEncoder::new(2, &[4], 3, 1);
        resized.step_with(&stale, 0.01);
    }

    #[test]
    fn pooled_tape_matches_fresh_tape_bitwise() {
        let enc = GinEncoder::new(2, &[4], 3, 46);
        let ctx = GraphCtx::from_graph(&toy_graph());
        let fresh = enc.forward_tape(&ctx);
        let pool = crate::per_graph::TapePool::default();
        // Dirty the pool with a tape of a different encoder shape.
        let other = GinEncoder::new(2, &[7], 2, 9);
        pool.restore(other.forward_tape(&ctx));
        let mut tape = pool.checkout();
        enc.forward_tape_into(&ctx, &mut tape);
        assert_eq!(tape.embedding(), fresh.embedding());
        // The recycled tape must back an identical backward pass.
        let plan = enc.backward_plan();
        let mut a = GinGrads::zeros_like(&enc);
        let mut b = GinGrads::zeros_like(&enc);
        enc.backward_tape(&ctx, &fresh, &[1.0, 1.0, 1.0], &mut a, &plan);
        enc.backward_tape(&ctx, &tape, &[1.0, 1.0, 1.0], &mut b, &plan);
        assert_eq!(a.epsilon_grads(), b.epsilon_grads());
    }
}
