//! Reservoir-bounded online adaptation.
//!
//! The flat online-adapting loop ([`autoce::online::adapt_online`])
//! retrains the encoder on the **full** RCS per drifted dataset — O(RCS)
//! graphs per adaptation, which defeats the point of a sharded RCS. Here
//! the incremental DML update runs against a fixed-size uniform sample of
//! the RCS maintained by [`Reservoir`] (Vitter's Algorithm R, driven by
//! the deterministic seeded `rand` shim): each adaptation trains on at most
//! `capacity + 1` graphs (the reservoir plus the drifted newcomer), no
//! matter how large the RCS has grown. The refresh that follows is routed
//! per shard over cached stacked chunks
//! ([`ShardedAdvisor::refresh_embeddings`]).

use crate::shard::ShardedAdvisor;
use autoce::online::{online_update_config, DriftDetector};
use ce_features::{extract_features, FeatureGraph};
use ce_gnn::train::train_encoder_incremental_observed;
use ce_storage::Dataset;
use ce_testbed::{label_dataset, DatasetLabel, TestbedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-size uniform sample over a growing sequence of RCS indices
/// (Vitter's Algorithm R). Fully deterministic given the seed and the
/// observation order.
pub struct Reservoir {
    capacity: usize,
    sample: Vec<usize>,
    seen: usize,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` indices.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            capacity: capacity.max(1),
            sample: Vec::new(),
            seen: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5e5e),
        }
    }

    /// A reservoir pre-populated by observing `0..n` (the initial RCS).
    pub fn over_initial(n: usize, capacity: usize, seed: u64) -> Self {
        let mut r = Self::new(capacity, seed);
        for i in 0..n {
            r.observe(i);
        }
        r
    }

    /// Observes one new index: kept outright while the reservoir is
    /// filling, then replaces a uniformly chosen victim with probability
    /// `capacity / seen` (Algorithm R).
    pub fn observe(&mut self, index: usize) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(index);
            return;
        }
        let j = self.rng.gen_range(0..self.seen);
        if j < self.capacity {
            self.sample[j] = index;
        }
    }

    /// The current sample (unordered; at most `capacity` indices).
    pub fn sample(&self) -> &[usize] {
        &self.sample
    }

    /// Total indices observed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Maximum sample size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl ShardedAdvisor {
    /// Online model update bounded by a reservoir: pushes the labeled
    /// newcomer into the least-loaded shard, then runs the incremental DML
    /// update on `reservoir ∪ {newcomer}` (ascending global index order,
    /// deduplicated) instead of the full RCS, refreshes every shard's
    /// embeddings from its cached chunks, and bumps the serving
    /// generation. Returns the number of graphs trained on.
    pub fn adapt_with_reservoir(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
        reservoir: &mut Reservoir,
        seed: u64,
    ) -> usize {
        let new_id = self.push_entry(graph, label);
        reservoir.observe(new_id);
        let mut ids: Vec<usize> = reservoir.sample().to_vec();
        // The drifted newcomer always joins the update, reservoir luck
        // aside — it is the whole reason the update runs.
        ids.push(new_id);
        ids.sort_unstable();
        ids.dedup();
        let cfg = online_update_config(&self.config().dml);
        let labels: Vec<Vec<f64>> = ids.iter().map(|&i| self.entry(i).dml_label()).collect();
        // Split borrow: the encoder trains against graphs borrowed in
        // place from the shards — `encoder` and `shards`/`directory` are
        // disjoint fields.
        {
            let ShardedAdvisor {
                encoder,
                shards,
                directory,
                metrics,
                ..
            } = self;
            let graphs: Vec<&FeatureGraph> = ids
                .iter()
                .map(|&i| {
                    let (s, t) = directory[i];
                    &shards[s].entries()[t].graph
                })
                .collect();
            // The observed trainer lands refresh/train phase timings
            // (`ce_gnn_train_phase_ns`, pool checkout stats) in the same
            // registry as the serving metrics; with the default disabled
            // registry it is identical to the plain trainer.
            train_encoder_incremental_observed(
                encoder,
                &graphs,
                &labels,
                &cfg,
                seed ^ 0x0ada,
                metrics,
            );
        }
        // Bump BEFORE refreshing: refresh rebuilds per-shard KNN indexes
        // stamped with the current generation, and a pre-bump stamp would
        // mismatch every post-adaptation query (permanent index bypass).
        self.bump_generation();
        self.refresh_embeddings();
        ids.len()
    }
}

/// The full online-adapting loop on a sharded advisor — the
/// reservoir-bounded counterpart of [`autoce::online::adapt_online`]: if
/// `ds` drifts past the detector threshold, labels it on the testbed,
/// extends the RCS (routed to the least-loaded shard) and incrementally
/// updates the encoder against the reservoir sample. Returns `true` if an
/// adaptation happened.
pub fn adapt_online_bounded(
    advisor: &mut ShardedAdvisor,
    detector: &DriftDetector,
    ds: &Dataset,
    testbed: &TestbedConfig,
    reservoir: &mut Reservoir,
    seed: u64,
) -> bool {
    let graph = extract_features(ds, &advisor.config().feature);
    let x = advisor.embed_graph(&graph);
    if advisor.distance_to_embedding(&x) <= detector.threshold() {
        return false;
    }
    let label = label_dataset(ds, testbed, seed);
    advisor.adapt_with_reservoir(graph, &label, reservoir, seed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = Reservoir::over_initial(5, 8, 42);
        let mut s = r.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
        r.observe(5);
        assert_eq!(r.sample().len(), 6);
        assert_eq!(r.seen(), 6);
    }

    #[test]
    fn reservoir_bounds_sample_size_and_is_deterministic() {
        let build = || {
            let mut r = Reservoir::new(16, 7);
            for i in 0..1000 {
                r.observe(i);
            }
            r
        };
        let a = build();
        let b = build();
        assert_eq!(a.sample(), b.sample(), "seeded reservoir is deterministic");
        assert_eq!(a.sample().len(), 16);
        assert_eq!(a.seen(), 1000);
        // A different seed draws a different sample.
        let mut c = Reservoir::new(16, 8);
        for i in 0..1000 {
            c.observe(i);
        }
        assert_ne!(a.sample(), c.sample());
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Mean of a uniform sample from 0..n should be near n/2; a grossly
        // biased reservoir (e.g. keeping only early or late indices) fails.
        let mut r = Reservoir::new(64, 3);
        for i in 0..10_000 {
            r.observe(i);
        }
        let mean = r.sample().iter().sum::<usize>() as f64 / r.sample().len() as f64;
        assert!(
            (2_000.0..8_000.0).contains(&mean),
            "sample mean {mean} too biased"
        );
    }
}
