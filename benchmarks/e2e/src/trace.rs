//! The traced run's tools: an in-memory span log around every call the
//! benchmark makes into a layer, and the replay that feeds each pool input
//! through the layers' public functions one by one, so every layer gets a
//! timing of its own from outside the program.

use crate::host::{Calibrator, SPIN_EVERY};
use crate::inputs;
use crate::stats::{median, percentile};
use crate::workloads::{adapt_seed, knn_index_config, DriftPlan, Inputs, Kind, Trained};
use autoce::{AdvisorBackend, BatchPredictRequest};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_nn::index::{i8_scale, quantize_f16, quantize_i8, sq_dist_f16, sq_dist_i8};
use ce_serve::{graph_fingerprint, EmbeddingCache, ShardedAdvisor};
use ce_testbed::label_dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: u32,
    call: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one run, kept in memory and written when the run ends. A
/// span's id is its position plus one; parent 0 means none.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that already ended; returns its id.
    pub fn push_ended(
        &mut self,
        name: &'static str,
        parent: u32,
        call: u32,
        start: Instant,
        elapsed: Duration,
    ) -> u32 {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            call,
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
        });
        self.spans.len() as u32
    }

    /// Opens a span that encloses the ones recorded until [`Self::close`].
    fn open(&mut self, name: &'static str, call: u32) -> u32 {
        self.push_ended(name, 0, call, Instant::now(), Duration::ZERO)
    }

    fn close(&mut self, id: u32) {
        let now = Instant::now().duration_since(self.origin).as_nanos() as u64;
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Runs `f` inside a span; returns its result and raw microseconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        call: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        self.push_ended(name, parent, call, t, elapsed);
        (out, elapsed.as_secs_f64() * 1e6)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span and line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"call\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.name,
                s.parent,
                s.call,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Corrected microseconds per layer call, pooled over replay passes.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn add(&mut self, name: &'static str, us: f64) {
        self.0.entry(name).or_default().push(us);
    }

    /// Median of a layer's samples: by the percentile rule when there are
    /// enough, plain for a handful of whole-operation repeats, 0 when the
    /// layer never ran.
    pub fn p50(&self, name: &str) -> f64 {
        let Some(samples) = self.0.get(name) else {
            return 0.0;
        };
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, 50.0).unwrap_or_else(|_| median(&sorted))
    }
}

/// Replay passes over the pool; samples of all passes are pooled.
const REPLAY_PASSES: usize = 3;
/// Calls per replay pass on the hit path.
const HIT_REPLAY_CALLS: usize = 512;

/// Feeds every pool input through the layers a request of `kind` crosses,
/// calling each layer's public function directly on `backend` (the
/// service's own snapshot), with a cache of the service's capacity beside
/// it. One calibration bracket per pass corrects that pass's samples.
pub fn replay_reads<B: AdvisorBackend>(
    kind: Kind,
    cal: &mut Calibrator,
    log: &mut SpanLog,
    inputs: &Inputs,
    backend: &B,
    cache_capacity: usize,
    layers: &mut Layers,
) {
    let w = inputs::weights();
    let graphs = inputs.pool_graphs();
    let feature = FeatureConfig::default();
    let generation = backend.generation();
    let hit_path = matches!(kind, Kind::GraphHot | Kind::ClusterBurst | Kind::AdaptMix);
    let embeddings: Vec<Vec<f32>> = graphs.iter().map(|g| backend.embed_graph(g)).collect();
    let mut cache = EmbeddingCache::new(cache_capacity, generation);
    if hit_path {
        for (g, x) in graphs.iter().zip(&embeddings) {
            cache.insert_ref(generation, graph_fingerprint(g), x);
        }
    }
    let burst = kind.burst();
    for _ in 0..REPLAY_PASSES {
        let mut raw: Vec<(&'static str, f64)> = Vec::new();
        // Spins are taken where the work is, as in the timed windows.
        let mut spins = vec![cal.spin_us()];
        let mut last_spin = Instant::now();
        {
            if hit_path {
                // Enough calls to run as warm as inside the service, far
                // fewer than a hot pass makes.
                for call in 0..HIT_REPLAY_CALLS {
                    let root = log.open("replay.call", call as u32);
                    let slots: Vec<usize> = (0..burst)
                        .map(|j| (call * burst + j) % graphs.len())
                        .collect();
                    let (found, us) = log.time("serve.fingerprint_get", root, call as u32, || {
                        slots
                            .iter()
                            .map(|&s| {
                                cache
                                    .get(graph_fingerprint(&graphs[s]))
                                    .map(<[f32]>::to_vec)
                            })
                            .collect::<Vec<_>>()
                    });
                    raw.push(("hit_path", us / burst as f64));
                    let reqs: Vec<BatchPredictRequest<'_>> = found
                        .iter()
                        .map(|x| BatchPredictRequest {
                            embedding: x.as_deref().expect("prefilled cache hits"),
                            w,
                            exclude: usize::MAX,
                        })
                        .collect();
                    let (answers, us) =
                        log.time("backend.predict_batch", root, call as u32, || {
                            backend.predict_batch(&reqs)
                        });
                    black_box(answers.expect("healthy backend"));
                    raw.push(("predict_batch", us));
                    log.close(root);
                }
                spins.push(cal.spin_us());
                // Single reads (`adapt-mix`) vote one embedding at a time.
                for (i, x) in embeddings.iter().enumerate().filter(|_| burst == 1) {
                    let (answer, us) = log.time("backend.predict", 0, i as u32, || {
                        backend.predict_from_embedding(x, w)
                    });
                    black_box(answer.expect("healthy backend"));
                    raw.push(("knn", us));
                }
            } else {
                for (i, g) in graphs.iter().enumerate() {
                    if last_spin.elapsed() >= SPIN_EVERY {
                        spins.push(cal.spin_us());
                        last_spin = Instant::now();
                    }
                    let root = log.open("replay.call", i as u32);
                    if let Inputs::Real(real) = inputs {
                        let ds = &real.pool_datasets[i];
                        let (graph, us) = log.time("features.extract", root, i as u32, || {
                            extract_features(ds, &feature)
                        });
                        black_box(graph);
                        raw.push(("extract", us));
                    }
                    let ((fp, miss), us) =
                        log.time("serve.fingerprint_get", root, i as u32, || {
                            let fp = graph_fingerprint(g);
                            (fp, cache.get(fp).is_none())
                        });
                    black_box(miss);
                    raw.push(("miss_lookup", us));
                    let (x, us) =
                        log.time("gnn.embed_graph", root, i as u32, || backend.embed_graph(g));
                    raw.push(("encode", us));
                    let (admission, us) = log.time("serve.cache_insert", root, i as u32, || {
                        cache.insert_ref(generation, fp, &x)
                    });
                    black_box(admission);
                    raw.push(("admit", us));
                    let (answer, us) = log.time("backend.predict", root, i as u32, || {
                        backend.predict_from_embedding(&x, w)
                    });
                    black_box(answer.expect("healthy backend"));
                    raw.push(("knn", us));
                    log.close(root);
                }
            }
            spins.push(cal.spin_us());
            if kind == Kind::AdaptMix {
                // The read after a swap misses and encodes.
                for (i, g) in graphs.iter().enumerate() {
                    let (x, us) =
                        log.time("gnn.embed_graph", 0, i as u32, || backend.embed_graph(g));
                    black_box(x);
                    raw.push(("encode", us));
                }
            }
            if kind != Kind::GraphHot && kind != Kind::ClusterBurst {
                for (c, chunk) in graphs.chunks_exact(8).enumerate().take(inputs::POOL / 8) {
                    let refs: Vec<&FeatureGraph> = chunk.iter().collect();
                    let (xs, us) = log.time("gnn.embed_graph_batch", 0, c as u32, || {
                        backend.embed_graph_batch(&refs)
                    });
                    black_box(xs);
                    raw.push(("encode_batch8_per_graph", us / 8.0));
                }
            }
        }
        spins.push(cal.spin_us());
        let factor = crate::stats::factor(&spins);
        for (name, us) in raw {
            layers.add(name, us / factor);
        }
    }
}

/// Replays what one `adapt` does, layer by layer, on copies of the base
/// advisor: label the drift dataset, refresh every embedding.
pub fn replay_adapt(
    cal: &mut Calibrator,
    log: &mut SpanLog,
    base: &ShardedAdvisor,
    plan: &DriftPlan,
    seed: u64,
    layers: &mut Layers,
) {
    let testbed = inputs::testbed();
    for pass in 0..REPLAY_PASSES {
        for (step, ds) in plan.steps.iter().enumerate() {
            let ((_, us), _, factor) = cal.bracket(|| {
                log.time("testbed.label_dataset", 0, step as u32, || {
                    label_dataset(ds, &testbed, adapt_seed(seed, step))
                })
            });
            layers.add("label_ms", us / 1e3 / factor);
        }
        let mut copy = base.clone();
        let (((), us), _, factor) = cal.bracket(|| {
            log.time("serve.refresh_embeddings", 0, pass as u32, || {
                copy.refresh_embeddings()
            })
        });
        layers.add("refresh_ms", us / 1e3 / factor);
    }
}

/// What the index of `knn-read` costs to build, from outside: the whole
/// `set_index_config` and, inside it, the k-means of every shard.
pub fn replay_index_build(
    cal: &mut Calibrator,
    log: &mut SpanLog,
    base: &ShardedAdvisor,
) -> (f64, f64) {
    let config = knn_index_config();
    let mut copy = base.clone();
    let ((_, us), _, factor) = cal.bracket(|| {
        log.time("serve.set_index_config", 0, 0, || {
            copy.set_index_config(config.clone())
        })
    });
    let build_s = us / 1e6 / factor;
    let mut kmeans_s = 0.0;
    for (s, shard) in base.shards().iter().enumerate() {
        let points: Vec<Vec<f32>> = shard
            .entries()
            .iter()
            .map(|e| e.embedding.clone())
            .collect();
        let ((_, us), _, factor) = cal.bracket(|| {
            log.time("nn.kmeans", 0, s as u32, || {
                let mut rng = StdRng::seed_from_u64(config.seed);
                ce_nn::kmeans(&points, config.partitions, config.kmeans_iters, &mut rng)
            })
        });
        kmeans_s += us / 1e6 / factor;
    }
    (build_s, kmeans_s)
}

/// Dimension of every embedding, so of every coarse-distance call.
pub const EMBED_DIM: usize = 32;
const KERNEL_ROWS: usize = 100;
const KERNEL_SWEEPS: usize = 2000;

/// Nanoseconds per coarse-distance kernel call at the embedding dimension,
/// over as many centroids as the index has partitions: `(i8, f16)`.
pub fn kernel_ns(cal: &mut Calibrator) -> (f64, f64) {
    let rows: Vec<Vec<f32>> = (0..KERNEL_ROWS)
        .map(|r| {
            (0..EMBED_DIM)
                .map(|d| ((r * 31 + d * 7) % 97) as f32 / 97.0 - 0.5)
                .collect()
        })
        .collect();
    let scale = i8_scale(0.5);
    let codes: Vec<Vec<i8>> = rows.iter().map(|r| quantize_i8(r, scale)).collect();
    let halves: Vec<Vec<u16>> = rows.iter().map(|r| quantize_f16(r)).collect();
    let calls = (KERNEL_ROWS * KERNEL_SWEEPS) as f64;
    let ((), secs, factor) = cal.bracket(|| {
        for _ in 0..KERNEL_SWEEPS {
            for c in &codes {
                black_box(sq_dist_i8(black_box(&codes[0]), black_box(c)));
            }
        }
    });
    let i8_ns = secs * 1e9 / calls / factor;
    let ((), secs, factor) = cal.bracket(|| {
        for _ in 0..KERNEL_SWEEPS {
            for h in &halves {
                black_box(sq_dist_f16(black_box(&rows[0]), black_box(h)));
            }
        }
    });
    (i8_ns, secs * 1e9 / calls / factor)
}

/// Mean D-error of the model the flat advisor recommends over the first
/// `n` pool datasets, each labelled on the testbed with its wall-clock
/// fields pinned like the corpus's — the paper's accuracy claim, pinned
/// next to the speed numbers. Exact for a seed.
pub fn regret_mean(trained: &Trained, inputs: &Inputs, seed: u64, n: usize) -> f64 {
    let real = inputs.real();
    let testbed = inputs::testbed();
    let w = inputs::weights();
    let mut labels: Vec<_> = real.pool_datasets[..n]
        .iter()
        .enumerate()
        .map(|(i, ds)| label_dataset(ds, &testbed, seed.wrapping_add(1000 + i as u64)))
        .collect();
    inputs::pin_wall_clock_fields(&mut labels);
    labels
        .iter()
        .zip(&real.pool_graphs)
        .map(|(label, g)| label.d_error_of(trained.flat.recommend_graph(g, w), w))
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise_one_per_line() {
        let mut log = SpanLog::new();
        let root = log.open("root", 7);
        let (v, us) = log.time("child", root, 7, || 41 + 1);
        log.close(root);
        assert_eq!((v, root), (42, 1));
        assert!(us >= 0.0);
        assert!(
            log.spans[0].end_ns >= log.spans[1].end_ns,
            "root encloses child"
        );
        let mut bytes = Vec::new();
        log.write_jsonl(&mut bytes).expect("write to memory");
        let text = String::from_utf8(bytes).expect("ascii");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,\"name\":\"root\",\"parent\":0,\"call\":7,"));
        assert!(lines[1].starts_with("{\"id\":2,\"name\":\"child\",\"parent\":1,\"call\":7,"));
    }

    #[test]
    fn layer_median_uses_the_rule_when_it_can() {
        let mut layers = Layers::default();
        assert_eq!(layers.p50("absent"), 0.0);
        for v in [3.0, 1.0, 2.0] {
            layers.add("few", v);
        }
        assert_eq!(layers.p50("few"), 2.0);
        for v in 1..=100 {
            layers.add("many", f64::from(v));
        }
        assert_eq!(layers.p50("many"), 50.0);
    }
}
