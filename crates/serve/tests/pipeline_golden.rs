//! Golden record of the service's request pipeline: the exact sequence of
//! backend calls (which `embed_graph_batch` / `predict_batch`, with which
//! arguments, in which order), every answer, both ledgers and every metric
//! sample, folded into one FNV-1a checksum over a scripted single-client
//! session — lone misses (inline: one client always meets an idle front),
//! repeats (cache hit), bursts with in-burst duplicates (inline), hits
//! mixed with one miss and with several, an empty query, and more distinct
//! graphs than the cache holds (evictions). The worker path needs a second
//! client; `tests/front.rs` drives it.
//!
//! Two constants. `PIPELINE_STABLE_FNV1A` folds the backend calls, the
//! answers and the ledgers, and no `path`-labelled metric sample: it was
//! captured while lone misses still rode the queue, and held when they
//! moved onto the calling thread. It leaves out `CacheStats::misses`,
//! which counts cache lookups, and a queued request is looked up twice (at
//! admission and again when the worker drains it). `PIPELINE_FNV1A` folds
//! everything, metric samples included; it was re-captured when lone misses
//! moved from the worker to the calling thread, which moved exactly their
//! `path` label (`worker` → `inline`), the `ce_serve_queue_wait_ns` count
//! and that second lookup. Histograms contribute their counts only (their
//! sums are wall-clock).

use autoce::fixtures::synthetic_flat;
use autoce::online::DriftDetector;
use autoce::{AdvisorBackend, AdvisorError, AutoCe, BatchPredictRequest};
use ce_features::{FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::SampleValue;
use ce_serve::{
    graph_fingerprint, AdvisorService, MetricsRegistry, Query, Recommendation, ServeConfig,
};
use ce_testbed::{DatasetLabel, MetricWeights};
use std::sync::{Arc, Mutex};

const PIPELINE_FNV1A: u64 = 0x214e_c4d5_3560_a0f5;
const PIPELINE_STABLE_FNV1A: u64 = 0x350b_8bd6_1b6f_3a1f;

/// FNV-1a, 64-bit, fed word by word (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Forwards to a sharded advisor and logs every query-path call as words.
struct Recording {
    inner: AutoCe,
    log: Mutex<Vec<u64>>,
}

impl Recording {
    fn record(&self, words: impl IntoIterator<Item = u64>) {
        self.log.lock().expect("log lock").extend(words);
    }
}

const EMBED_ONE: u64 = 1;
const EMBED_BATCH: u64 = 2;
const PREDICT_ONE: u64 = 3;
const PREDICT_BATCH: u64 = 4;

impl AdvisorBackend for Recording {
    fn rcs_len(&self) -> usize {
        AdvisorBackend::rcs_len(&self.inner)
    }

    fn generation(&self) -> u64 {
        AdvisorBackend::generation(&self.inner)
    }

    fn feature_config(&self) -> FeatureConfig {
        AdvisorBackend::feature_config(&self.inner)
    }

    fn vertex_dim(&self) -> usize {
        AdvisorBackend::vertex_dim(&self.inner)
    }

    fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        self.record([EMBED_ONE, graph_fingerprint(g)]);
        AdvisorBackend::embed_graph(&self.inner, g)
    }

    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        self.record(
            [EMBED_BATCH, graphs.len() as u64]
                .into_iter()
                .chain(graphs.iter().map(|g| graph_fingerprint(g))),
        );
        AdvisorBackend::embed_graph_batch(&self.inner, graphs)
    }

    fn predict_excluding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
        exclude: usize,
    ) -> Result<(ModelKind, Vec<f64>), AdvisorError> {
        self.record([PREDICT_ONE, w.accuracy.to_bits(), exclude as u64]);
        AdvisorBackend::predict_excluding(&self.inner, embedding, w, exclude)
    }

    fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
        let mut words = vec![PREDICT_BATCH, queries.len() as u64];
        for q in queries {
            words.push(q.embedding.len() as u64);
            words.extend(q.embedding.iter().map(|x| u64::from(x.to_bits())));
            words.push(q.w.accuracy.to_bits());
            words.push(q.exclude as u64);
        }
        self.record(words);
        AdvisorBackend::predict_batch(&self.inner, queries)
    }

    fn distance_to_nearest(&self, x: &[f32]) -> f32 {
        AdvisorBackend::distance_to_nearest(&self.inner, x)
    }

    fn drift_detector(&self) -> DriftDetector {
        AdvisorBackend::drift_detector(&self.inner)
    }

    fn push_entry(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
    ) -> Result<usize, AdvisorError> {
        AdvisorBackend::push_entry(&mut self.inner, graph, label)
    }

    fn refresh(&mut self) -> Result<u64, AdvisorError> {
        AdvisorBackend::refresh(&mut self.inner)
    }

    fn metrics(&self) -> ce_obs::MetricsSnapshot {
        AdvisorBackend::metrics(&self.inner)
    }
}

/// Twelve distinct one-table graphs of the fixture's 4-wide vertices.
fn pool() -> Vec<FeatureGraph> {
    (0..12)
        .map(|i| {
            let v = i as f32 * 0.125 - 0.3;
            FeatureGraph {
                vertices: vec![vec![v, 1.0 - v, 0.5 * v, 0.25 + v * v]],
                edges: vec![vec![0.0]],
            }
        })
        .collect()
}

fn fold_answer(h: &mut Fnv, r: &Recommendation) {
    h.str(&format!("{:?}", r.model));
    h.u64(r.scores.len() as u64);
    for s in &r.scores {
        h.u64(s.to_bits());
    }
    h.u64(r.generation);
    h.u64(u64::from(r.cache_hit));
}

#[test]
fn the_request_pipeline_is_the_captured_sequence() {
    let backend = Arc::new(Recording {
        inner: AutoCe::from_advisor(&synthetic_flat(11, 3), 2),
        log: Mutex::new(Vec::new()),
    });
    let cfg = ServeConfig {
        max_batch: 4,
        cache_capacity: 6,
        metrics: MetricsRegistry::new(),
        ..ServeConfig::default()
    };
    let service = AdvisorService::start_shared(backend.clone(), cfg);
    let handle = service.handle();
    let g = pool();

    // (owned?, graph indices) per scripted call.
    let script: [(bool, &[usize]); 12] = [
        (true, &[0]),                              // lone miss: inline
        (false, &[0]),                             // repeat: hit
        (true, &[1, 2, 1, 3]),                     // inline burst, in-burst duplicate
        (false, &[0, 2, 4]),                       // hits + one miss
        (true, &[1, 5, 6, 5, 3]),                  // hits + several misses
        (true, &[]),                               // empty query
        (false, &[7, 8, 9, 10, 11]),               // evictions
        (true, &[0]),                              // evicted: lone miss again, inline
        (false, &[11, 10, 0, 7]),                  // mixed after churn
        (true, &[2, 2]),                           // duplicate pair
        (false, &[3]),                             // lone
        (true, &[4, 5, 6, 7, 8, 9, 10, 11, 0, 1]), // a burst wider than max_batch
    ];
    let mut h = Fnv::new();
    let mut stable = Fnv::new();
    for (call, (owned, idx)) in script.iter().enumerate() {
        let w = MetricWeights::new(0.1 * (call % 10) as f64);
        let recs = if *owned {
            handle.query(Query::graphs(
                idx.iter().map(|&i| g[i].clone()).collect(),
                w,
            ))
        } else {
            let refs: Vec<&FeatureGraph> = idx.iter().map(|&i| &g[i]).collect();
            handle.query(Query::graph_refs(&refs, w))
        }
        .expect("scripted query");
        assert_eq!(recs.len(), idx.len());
        for h in [&mut h, &mut stable] {
            h.u64(recs.len() as u64);
            for r in &recs {
                fold_answer(h, r);
            }
        }
        let single = handle
            .recommend_graph(g[(call * 5) % g.len()].clone(), w)
            .expect("single");
        fold_answer(&mut h, &single);
        fold_answer(&mut stable, &single);
    }

    let stats = service.stats();
    for v in [
        stats.requests,
        stats.batches,
        stats.cache_hits,
        stats.cache_misses,
        stats.adaptations,
    ] {
        h.u64(v);
        stable.u64(v);
    }
    let cache = service.cache_stats();
    for v in [
        cache.hits,
        cache.misses,
        cache.inserts,
        cache.rejected_first_touch,
        cache.rejected_stale_generation,
        cache.rejected_disabled,
        cache.resident as u64,
        cache.capacity as u64,
    ] {
        h.u64(v);
    }
    for v in [
        cache.hits,
        cache.inserts,
        cache.rejected_first_touch,
        cache.rejected_stale_generation,
        cache.rejected_disabled,
        cache.resident as u64,
        cache.capacity as u64,
    ] {
        stable.u64(v);
    }
    for s in &service.metrics_snapshot().samples {
        h.str(&s.name);
        for (k, v) in &s.labels {
            h.str(k);
            h.str(v);
        }
        match &s.value {
            SampleValue::Counter(v) => h.u64(*v),
            SampleValue::Gauge(v) => h.u64(*v + (1 << 63)),
            SampleValue::Histogram { count, .. } => h.u64(*count + (1 << 62)),
        }
    }
    service.shutdown();

    let log = backend.log.lock().expect("log lock").clone();
    for h in [&mut h, &mut stable] {
        h.u64(log.len() as u64);
        for &word in &log {
            h.u64(word);
        }
    }
    assert_eq!(
        stable.0, PIPELINE_STABLE_FNV1A,
        "what the service asks of its backend, or what it answers or counts, moved \
         (0x{:016x})",
        stable.0
    );
    assert_eq!(
        h.0, PIPELINE_FNV1A,
        "the serving pipeline changed: backend calls, answers, ledgers or metrics moved \
         (0x{:016x})",
        h.0
    );
}
