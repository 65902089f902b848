//! Criterion micro-benchmarks over the hot paths: feature extraction, GIN
//! encoding, KNN recommendation, per-model inference and plan optimization.
//! These back the §VII-A timing claims (training 107 s offline, 0.79 s
//! inference per dataset at paper scale; proportionally smaller here).

use autoce::{AdvisorBackend, RcsEntry};
use ce_bench::harness::{build_corpus, train_default_advisor, Scale};
use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_gnn::{train_encoder, DmlConfig, GinEncoder, StackedCtx};
use ce_models::encoding::SchemaEncoder;
use ce_models::gbdt::{Gbdt, GbdtParams};
use ce_models::{build_model, ModelKind, TrainContext};
use ce_nn::matrix::SparseRows;
use ce_nn::{Activation, Matrix, Mlp};
use ce_optsim::{optimize_query, DatasetIndexes, TrueCardEstimator};
use ce_storage::stats::{ColumnStats, EquiDepthHistogram, StatsScratch};
use ce_storage::{Column, Dataset};
use ce_testbed::{label_dataset, MetricWeights};
use ce_workload::{generate_workload, label_workload, WorkloadSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;

/// The feature crate's golden-bits test, shared by path: its pool and the
/// checksum captured before the hash-free statistics kernels.
#[path = "../../features/tests/golden_bits.rs"]
mod golden_bits;

/// The testbed crate's golden-bits test, shared by path: its pool, the
/// benchmark's testbed and the checksum captured before the labelling
/// kernels (presorted GBDT, prepared counter, dx-free first layer).
#[path = "../../testbed/tests/golden_label_bits.rs"]
mod golden_label_bits;

/// The advisor crate's golden-bits test, shared by path: its seeded
/// embeddings, the benchmark's index shape and the checksums captured
/// before the lane-per-row distance kernel.
#[path = "../../autoce/tests/golden_setup_bits.rs"]
mod golden_setup_bits;

/// The advisor crate's Stage-3 golden-bits test, shared by path: its
/// seeded RCS and the feedback-split checksum captured while the split
/// still sorted and voted by hand.
#[path = "../../autoce/tests/golden_stage3_bits.rs"]
mod golden_stage3_bits;

/// The nn crate's golden-bits test, shared by path: the `kmeans` checksum
/// captured before the same kernel.
#[path = "../../nn/tests/golden_kmeans_bits.rs"]
mod golden_kmeans_bits;

/// Entries and dimension of the end-to-end benchmark's `knn-read` RCS.
const KNN_READ_SHAPE: (usize, usize) = (6000, 32);

/// A synthetic RCS for the KNN micro-benches: `n` entries
/// scattered around `blobs` centres in `dim` dimensions (entry `i` near
/// centre `i % blobs`), and `queries` query embeddings near those centres.
fn blob_rcs(
    n: usize,
    blobs: usize,
    dim: usize,
    queries: usize,
    rng: &mut StdRng,
) -> (Vec<RcsEntry>, Vec<Vec<f32>>) {
    let kinds = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
    let centers: Vec<Vec<f32>> = (0..blobs)
        .map(|_| (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
        .collect();
    let mut near = |c: usize| -> Vec<f32> {
        centers[c]
            .iter()
            .map(|&v| v + rng.gen_range(-0.3f32..0.3))
            .collect()
    };
    let entries = (0..n)
        .map(|i| RcsEntry {
            name: format!("b{i}"),
            graph: FeatureGraph {
                vertices: vec![vec![i as f32, 0.0, 0.0, 1.0]],
                edges: vec![vec![0.0]],
            },
            embedding: near(i % blobs),
            kinds: kinds.to_vec(),
            sa: (0..3).map(|m| ((i + m) % 4) as f64 / 3.0).collect(),
            se: (0..3).map(|m| ((i + 2 * m) % 3) as f64 / 2.0).collect(),
        })
        .collect();
    let queries = (0..queries).map(|i| near((i * 7) % blobs)).collect();
    (entries, queries)
}

fn bench_detector_fit(c: &mut Criterion) {
    if !criterion::filter_allows("detector_fit_flat") {
        return;
    }
    // Same bits first, then time.
    assert_eq!(
        golden_setup_bits::detector_checksum(),
        golden_setup_bits::DETECTOR_GOLDEN,
        "DriftDetector::from_embeddings moved a bit; its timing means nothing"
    );
    let (n, dim) = KNN_READ_SHAPE;
    let embeddings = golden_setup_bits::seeded_embeddings(n, dim, 1);
    c.bench_function("detector_fit_flat", |b| {
        b.iter(|| black_box(golden_setup_bits::threshold_bits(&embeddings)))
    });
}

/// Algorithm 2's feedback split (`collect_feedback`, five folds, `k = 3`)
/// over 10³ and 10⁴ seeded 32-dimensional embeddings, after
/// `SPLIT_GOLDEN` is checked. The names end in `1e3`/`1e4` so that neither
/// filter selects the other.
fn bench_collect_feedback(c: &mut Criterion) {
    use autoce::incremental::{collect_feedback, IncrementalConfig};

    for (n, name) in [
        (1_000, "collect_feedback/1e3"),
        (10_000, "collect_feedback/1e4"),
    ] {
        if !criterion::filter_allows(name) {
            continue;
        }
        assert_eq!(
            golden_stage3_bits::split_checksum(),
            golden_stage3_bits::SPLIT_GOLDEN,
            "collect_feedback moved a bit; its timing means nothing"
        );
        let (embeddings, entries) = golden_stage3_bits::seeded_rcs(n, 32, 1, false);
        let il = IncrementalConfig::default();
        c.bench_function(name, |b| {
            b.iter(|| black_box(collect_feedback(&embeddings, &entries, &il, 3)))
        });
    }
}

fn bench_index_build(c: &mut Criterion) {
    if !criterion::filter_allows("index_build") {
        return;
    }
    // Same bits first, then time.
    assert_eq!(
        golden_kmeans_bits::golden_checksum(),
        golden_kmeans_bits::GOLDEN_CHECKSUM,
        "kmeans moved a bit; its timing means nothing"
    );
    assert_eq!(
        golden_setup_bits::index_checksum(),
        golden_setup_bits::INDEX_GOLDEN,
        "KnnIndex::build moved a bit; its timing means nothing"
    );
    // One of the two shards `knn-read` builds an index over.
    let (n, dim) = KNN_READ_SHAPE;
    let embeddings = golden_setup_bits::seeded_embeddings(n / 2, dim, 1);
    let refs: Vec<&[f32]> = embeddings.iter().map(Vec::as_slice).collect();
    let cfg = golden_setup_bits::bench_index_config();
    let metrics = autoce::MetricsRegistry::disabled();
    c.bench_function("index_build", |b| {
        b.iter(|| black_box(autoce::KnnIndex::build(&refs, &cfg, 0, &metrics)))
    });
}

fn bench_feature_extraction(c: &mut Criterion) {
    if !["feature_extraction", "column_moments"]
        .iter()
        .any(|name| criterion::filter_allows(name))
    {
        return;
    }
    // Same bits first, then time.
    assert_eq!(
        golden_bits::golden_pool_checksum(),
        golden_bits::GOLDEN_CHECKSUM,
        "extract_features moved a bit; its timing means nothing"
    );
    assert_eq!(
        golden_bits::golden_stats_checksum(),
        golden_bits::GOLDEN_STATS_CHECKSUM,
        "a statistic under extract_features moved a bit; its timing means nothing"
    );
    let mut rng = StdRng::seed_from_u64(1);
    let ds = generate_dataset("bench", &DatasetSpec::small().multi_table(), &mut rng);
    let cfg = FeatureConfig::default();
    c.bench_function("feature_extraction", |b| {
        b.iter(|| black_box(extract_features(&ds, &cfg)))
    });

    // The moment kernels alone, on one table of the shape `extract_features`
    // meets most (six used columns): a column at a time — the scalar second
    // pass — against the table at a time (one lane per column where the
    // host has AVX-512F + DQ).
    let spec = DatasetSpec {
        columns: SpecRange { lo: 6, hi: 6 },
        rows: SpecRange {
            lo: 1_300,
            hi: 1_300,
        },
        ..DatasetSpec::small().single_table()
    };
    let table = generate_dataset("moments", &spec, &mut rng)
        .tables
        .remove(0);
    let cols: Vec<&Column> = table.columns.iter().filter(|c| !c.is_key()).collect();
    assert_eq!((cols.len(), table.num_rows()), (6, 1_300));
    let mut scratch = StatsScratch::default();
    c.bench_function("column_moments/per_column", |b| {
        b.iter(|| {
            for col in &cols {
                black_box(ColumnStats::compute_with(col, &mut scratch));
            }
        })
    });
    c.bench_function("column_moments/table", |b| {
        b.iter(|| black_box(ColumnStats::compute_table_with(&cols, &mut scratch)))
    });
}

/// The end-to-end benchmark's corpus shape and its drift shape: a
/// `DatasetSpec::small()` dataset of 7 and of 24 tables.
fn label_shapes() -> [(usize, Dataset); 2] {
    [7, 24].map(|tables| {
        let spec = DatasetSpec {
            tables: SpecRange {
                lo: tables,
                hi: tables,
            },
            ..DatasetSpec::small()
        };
        let ds = generate_dataset("bench", &spec, &mut StdRng::seed_from_u64(1));
        (tables, ds)
    })
}

fn bench_label_dataset(c: &mut Criterion) {
    if !criterion::filter_allows("label_dataset") {
        return;
    }
    // Same bits first, then time.
    assert_eq!(
        golden_label_bits::golden_pool_checksum(),
        golden_label_bits::GOLDEN_CHECKSUM,
        "label_dataset moved a bit; its timing means nothing"
    );
    let cfg = golden_label_bits::bench_testbed();
    for (tables, ds) in label_shapes() {
        c.bench_function(&format!("label_dataset_{tables}_tables"), |b| {
            b.iter(|| black_box(label_dataset(&ds, &cfg, 1)))
        });
    }
}

/// The kernels under `label_dataset`, one at a time, on the inputs
/// `label_dataset(ds, cfg, 1)` hands them: the cardinality counter over
/// the testbed's 45 queries, a 100-bucket histogram of every data column,
/// `PostgresEstimator`'s whole ANALYZE (those histograms and the join-key
/// distinct counts), LW-XGB's boosted fit on the 30 training rows, LW-NN's
/// whole training and one of its training steps, and the whole
/// `label_dataset` they add up to — so one command times every stage.
fn bench_label_kernels(c: &mut Criterion) {
    if !criterion::filter_allows("label_kernels") {
        return;
    }
    // Same bits first, then time: the checksum covers every kernel below
    // (true cardinalities, Postgres, LW-XGB and LW-NN q-errors).
    assert_eq!(
        golden_label_bits::golden_pool_checksum(),
        golden_label_bits::GOLDEN_CHECKSUM,
        "a labelling kernel moved a bit; its timing means nothing"
    );
    let cfg = golden_label_bits::bench_testbed();
    for (tables, ds) in label_shapes() {
        let name = |kernel: &str| format!("label_kernels/{kernel}/{tables}");
        let spec = WorkloadSpec {
            num_queries: cfg.train_queries + cfg.test_queries,
            ..cfg.workload
        };
        let queries = generate_workload(&ds, &spec, &mut StdRng::seed_from_u64(1 ^ 0x7e57));
        c.bench_function(&name("count_workload"), |b| {
            b.iter(|| black_box(label_workload(&ds, &queries)))
        });

        let columns: Vec<&Column> = ds
            .tables
            .iter()
            .flat_map(|t| t.columns.iter().filter(|c| !c.is_key()))
            .collect();
        c.bench_function(&name("histogram_build"), |b| {
            b.iter(|| {
                for column in &columns {
                    black_box(EquiDepthHistogram::build(column, 100));
                }
            })
        });

        let labeled = label_workload(&ds, &queries).expect("generated queries validate");
        let train = &labeled[..cfg.train_queries];
        let encoder = SchemaEncoder::capture(&ds);
        let xs: Vec<Vec<f32>> = train
            .iter()
            .map(|lq| encoder.encode_flat(&lq.query))
            .collect();
        let ys: Vec<f32> = train
            .iter()
            .map(|lq| encoder.normalize_card(lq.true_card as f64))
            .collect();
        c.bench_function(&name("gbdt_fit"), |b| {
            b.iter(|| black_box(Gbdt::fit(&xs, &ys, &GbdtParams::default())))
        });

        let ctx = TrainContext {
            dataset: &ds,
            train_queries: train,
            seed: 1,
        };
        c.bench_function(&name("postgres_train"), |b| {
            b.iter(|| black_box(build_model(ModelKind::Postgres, &ctx)))
        });
        c.bench_function(&name("lwnn_train"), |b| {
            b.iter(|| black_box(build_model(ModelKind::LwNn, &ctx)))
        });

        // One step of LW-NN's training: the 30 training rows as one batch,
        // on their non-zero inputs, Adam over the live first-layer rows.
        // The network restarts from its draws every 40 steps, as many as
        // one fit takes (longer runs decay Adam's moments of idle units
        // into subnormals, which no fit reaches and which cost far more).
        let fresh = Mlp::new(
            &[encoder.flat_dim(), 64, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut StdRng::seed_from_u64(1 ^ 0x1f00d),
        );
        let rows = SparseRows::new(&xs, encoder.flat_dim());
        let batch: Vec<usize> = (0..xs.len()).collect();
        let by = Matrix::from_rows(ys.iter().map(|&y| vec![y]).collect());
        let (mut net, mut steps) = (fresh.clone(), 0);
        c.bench_function(&name("lwnn_step"), |b| {
            b.iter(|| {
                if steps % 40 == 0 {
                    net = fresh.clone();
                }
                steps += 1;
                black_box(net.train_mse_sparse(&rows, &batch, &by, 3e-3))
            })
        });

        c.bench_function(&name("label_dataset"), |b| {
            b.iter(|| black_box(label_dataset(&ds, &cfg, 1)))
        });
    }
}

fn bench_advisor_paths(c: &mut Criterion) {
    if !["gin_encode", "knn_predict", "recommend_end_to_end"]
        .iter()
        .any(|n| criterion::filter_allows(n))
    {
        return;
    }
    let scale = Scale(0.25);
    let corpus = build_corpus(scale, vec![ModelKind::Postgres, ModelKind::LwXgb], 0xbe9c);
    let advisor = train_default_advisor(&corpus, scale, 7);
    let ds = &corpus.test_datasets[0];
    let g = extract_features(ds, &advisor.config.feature);
    c.bench_function("gin_encode", |b| {
        b.iter(|| black_box(advisor.embed_graph(&g)))
    });
    let emb = advisor.embed_graph(&g);
    c.bench_function("knn_predict", |b| {
        b.iter(|| black_box(advisor.predict_from_embedding(&emb, MetricWeights::new(0.9))))
    });
    c.bench_function("recommend_end_to_end", |b| {
        b.iter(|| black_box(advisor.recommend(ds, MetricWeights::new(0.9))))
    });
}

fn bench_model_inference(c: &mut Criterion) {
    let kinds = [
        ModelKind::Postgres,
        ModelKind::LwNn,
        ModelKind::LwXgb,
        ModelKind::Mscn,
        ModelKind::DeepDb,
        ModelKind::BayesCard,
        ModelKind::NeuroCard,
    ];
    if !kinds.iter().any(|k| criterion::filter_allows(k.name())) {
        return;
    }
    let mut rng = StdRng::seed_from_u64(3);
    let ds = generate_dataset("inf", &DatasetSpec::small().single_table(), &mut rng);
    let queries = generate_workload(
        &ds,
        &WorkloadSpec {
            num_queries: 120,
            ..WorkloadSpec::default()
        },
        &mut rng,
    );
    let labeled = label_workload(&ds, &queries).unwrap();
    let ctx = TrainContext {
        dataset: &ds,
        train_queries: &labeled,
        seed: 4,
    };
    let mut group = c.benchmark_group("model_inference");
    for kind in kinds {
        let model = build_model(kind, &ctx);
        let q = &labeled[0].query;
        group.bench_function(kind.name(), |b| b.iter(|| black_box(model.estimate(q))));
    }
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    if !criterion::filter_allows("optimize_query_dp") {
        return;
    }
    let mut rng = StdRng::seed_from_u64(5);
    let ds = generate_dataset("opt", &DatasetSpec::small().multi_table(), &mut rng);
    let indexes = DatasetIndexes::build(&ds);
    let oracle = TrueCardEstimator::new(&ds);
    let queries = generate_workload(
        &ds,
        &WorkloadSpec {
            num_queries: 10,
            ..WorkloadSpec::default()
        },
        &mut rng,
    );
    c.bench_function("optimize_query_dp", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(optimize_query(&ds, q, &oracle, &indexes));
            }
        })
    });
}

/// The GIN engine: `train_encoder` (the stacked taped trainer) and
/// per-graph `encode` over a 50-graph workload at default `DmlConfig`.
/// Before anything is timed, the trained parameters are checked against a
/// checksum captured while the per-graph taped and dense reference engines
/// were still timed here (and asserted bit-equal to it), and `encode` is
/// checked against `encode_batch` on fresh and trained parameters.
fn bench_gnn_engine(c: &mut Criterion) {
    let names = ["train_encoder_stacked", "encode_parallel_sparse"];
    if !names.iter().any(|n| criterion::filter_allows(n)) {
        return;
    }
    const GRAPHS: usize = 50;
    const TRAINED_GOLDEN: u64 = 0x257a_325d_18f1_9f67;
    let mut rng = StdRng::seed_from_u64(0x617e);
    // Production-representative schemas (IMDB has 21 tables), small enough
    // that 50 datasets generate quickly.
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 8, hi: 12 };
    let fcfg = FeatureConfig::default();
    let graphs: Vec<FeatureGraph> = (0..GRAPHS)
        .map(|i| extract_features(&generate_dataset(format!("g{i}"), &spec, &mut rng), &fcfg))
        .collect();
    // Synthetic two-class score vectors; the encoder only consumes label
    // similarities, so testbed labeling is unnecessary for a kernel bench.
    let labels: Vec<Vec<f64>> = (0..GRAPHS)
        .map(|i| {
            if i % 2 == 0 {
                vec![1.0, 0.2, 0.1 * (i % 5) as f64]
            } else {
                vec![0.1 * (i % 5) as f64, 0.2, 1.0]
            }
        })
        .collect();
    let cfg = DmlConfig::default();
    let input_dim = graphs[0].vertex_dim();

    let trained = train_encoder(
        &graphs,
        &labels,
        &cfg,
        9,
        &autoce::MetricsRegistry::disabled(),
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in trained.flat_params() {
        golden_kmeans_bits::fnv1a(&mut h, &v.to_le_bytes());
    }
    assert_eq!(h, TRAINED_GOLDEN, "trained encoder bits moved: {h:#018x}");
    let fresh = GinEncoder::new(input_dim, &cfg.hidden, cfg.embed_dim, 9);
    for enc in [&fresh, &trained] {
        let batch = enc.encode_batch(&graphs);
        for (g, e) in graphs.iter().zip(&batch) {
            assert_eq!(&enc.encode(g), e, "encode must match encode_batch");
        }
    }

    c.bench_function("train_encoder_stacked", |b| {
        b.iter(|| {
            black_box(train_encoder(
                &graphs,
                &labels,
                &cfg,
                9,
                &autoce::MetricsRegistry::disabled(),
            ))
        })
    });
    c.bench_function("encode_parallel_sparse", |b| {
        b.iter(|| {
            for g in &graphs {
                black_box(fresh.encode(g));
            }
        })
    });
}

/// The batch-stacked embedding service: refreshing all embeddings of an
/// RCS-sized graph set the way the advisor does it — cached stacked chunks
/// re-encoded after an encoder update — beside the per-graph serving loop
/// `refresh_embeddings` ran before (one context rebuild + per-layer kernel
/// dispatch + allocations per graph, every refresh). Embeddings are checked
/// bit-identical before either side is timed.
fn bench_embedding_service(c: &mut Criterion) {
    let names = ["refresh_embeddings_stacked", "refresh_embeddings_per_graph"];
    if !names.iter().any(|n| criterion::filter_allows(n)) {
        return;
    }
    const GRAPHS: usize = 120;
    let mut rng = StdRng::seed_from_u64(0xe3bed);
    // Serving-shaped workload: many small feature graphs (the RCS holds one
    // per labeled dataset), where per-graph overhead dominates.
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 2, hi: 6 };
    let fcfg = FeatureConfig::default();
    let graphs: Vec<FeatureGraph> = (0..GRAPHS)
        .map(|i| extract_features(&generate_dataset(format!("e{i}"), &spec, &mut rng), &fcfg))
        .collect();
    let cfg = DmlConfig::default();
    let enc = GinEncoder::new(graphs[0].vertex_dim(), &cfg.hidden, cfg.embed_dim, 31);

    // The serving cache: built once per RCS, reused across refreshes (the
    // graphs never change; only the encoder parameters do).
    let chunks = StackedCtx::pack_graphs(&graphs);
    // Steady-state refresh: re-encode every cached chunk, write embeddings
    // into reusable buffers (what `AutoCe::refresh_embeddings` does).
    let mut embeddings: Vec<Vec<f32>> = vec![Vec::new(); GRAPHS];
    let refresh = |embeddings: &mut Vec<Vec<f32>>| {
        let pooled: Vec<ce_nn::Matrix> = chunks
            .par_iter()
            .map(|s| {
                let mut m = ce_nn::Matrix::zeros(0, 0);
                enc.encode_stacked_into(s, &mut m);
                m
            })
            .collect();
        let rows = pooled
            .iter()
            .flat_map(|m| (0..m.rows).map(move |r| m.row(r)));
        for (e, row) in embeddings.iter_mut().zip(rows) {
            e.clear();
            e.extend_from_slice(row);
        }
    };

    // Gate: the stacked service must reproduce the per-graph path exactly.
    let per_graph: Vec<Vec<f32>> = graphs.iter().map(|g| enc.encode(g)).collect();
    refresh(&mut embeddings);
    assert_eq!(
        embeddings, per_graph,
        "stacked embeddings must be bit-identical to the per-graph path"
    );

    c.bench_function("refresh_embeddings_stacked", |b| {
        b.iter(|| {
            refresh(&mut embeddings);
            black_box(&embeddings);
        })
    });
    c.bench_function("refresh_embeddings_per_graph", |b| {
        b.iter(|| {
            let embs: Vec<Vec<f32>> = graphs.par_iter().map(|g| enc.encode(g)).collect();
            black_box(embs)
        })
    });
}

/// The sharded advisor service (`ce-serve`): concurrent clients served
/// through the micro-batching service — sharded partial KNN, stacked batch
/// encoding, embedding cache — beside the same clients calling the flat
/// advisor per request (one per-graph encode + full KNN scan each), and the
/// service again with a live metrics registry. Clients share a query pool
/// and re-ask (tenants re-query at different weightings), so micro-batching
/// amortizes encodes and repeats hit the cache. Answers are checked
/// identical to the flat advisor before anything is timed.
fn bench_advisor_service(c: &mut Criterion) {
    let names = ["serve_sharded_batched", "serve_flat_per_request"];
    if !names.iter().any(|n| criterion::filter_allows(n)) {
        return;
    }
    use autoce::{AutoCe, AutoCeConfig, RcsEntry};
    use ce_serve::{AdvisorService, MetricsRegistry, Query, ServeConfig};
    use std::sync::Arc;
    use std::time::Duration;

    const RCS: usize = 96;
    const CLIENTS: usize = 4;
    const SHARED_POOL: usize = 48; // distinct graphs the clients share
    const PASSES: usize = 3; // each client walks the pool three times
    const GROUP: usize = 8; // graphs per client submission burst
    let mut rng = StdRng::seed_from_u64(0x5e57e);
    // Production-representative schemas (IMDB has 21 tables, TPC-DS 24)
    // where the per-request path pays one context build (dense n×n edge
    // scan → CSR) + per-layer kernel dispatch per graph per call.
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 10, hi: 16 };
    let fcfg = FeatureConfig::default();
    let mut graph =
        |name: String| extract_features(&generate_dataset(name, &spec, &mut rng), &fcfg);
    let rcs_graphs: Vec<FeatureGraph> = (0..RCS).map(|i| graph(format!("r{i}"))).collect();
    let pool: Vec<FeatureGraph> = (0..SHARED_POOL).map(|i| graph(format!("q{i}"))).collect();

    let dml = DmlConfig::default();
    let enc = GinEncoder::new(rcs_graphs[0].vertex_dim(), &dml.hidden, dml.embed_dim, 17);
    let embeddings = enc.encode_batch(&rcs_graphs);
    let kinds = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
    let entries: Vec<RcsEntry> = rcs_graphs
        .into_iter()
        .zip(embeddings)
        .enumerate()
        .map(|(i, (g, embedding))| RcsEntry {
            name: format!("r{i}"),
            graph: g,
            embedding,
            kinds: kinds.to_vec(),
            sa: (0..3).map(|m| ((i + m) % 4) as f64 / 3.0).collect(),
            se: (0..3).map(|m| ((i + 2 * m) % 3) as f64 / 2.0).collect(),
        })
        .collect();
    let flat = Arc::new(AutoCe::from_parts(
        AutoCeConfig {
            k: 2,
            incremental: None,
            dml,
            ..AutoCeConfig::default()
        },
        enc,
        entries,
    ));
    let serve_cfg = ServeConfig {
        max_batch: 32,
        batch_deadline: Duration::ZERO,
        queue_capacity: 256,
        cache_capacity: 4096,
        ..ServeConfig::default()
    };
    let weights: Vec<MetricWeights> = (0..CLIENTS)
        .map(|t| MetricWeights::new(0.5 + 0.1 * t as f64))
        .collect();

    // Answers must be flat-identical before anything is timed.
    {
        let service = AdvisorService::start(AutoCe::from_advisor(&flat, 4), serve_cfg.clone());
        let handle = service.handle();
        for g in pool.iter().take(8) {
            let rec = handle
                .recommend_graph(g.clone(), weights[0])
                .expect("running");
            let x = flat.embed_graph(g);
            let (model, scores) = flat.predict_from_embedding(&x, weights[0]);
            assert_eq!(
                (rec.model, rec.scores),
                (model, scores),
                "serve must match flat"
            );
        }
        service.shutdown();
    }

    /// Drives `CLIENTS` threads through one serving pass; each client
    /// walks its stream from a different offset so batches mix graphs,
    /// submitting in bursts of `GROUP` (a tenant asking about several
    /// datasets at once) through the borrowed-burst API — clients retain
    /// their graphs, exactly as the flat baseline below does.
    fn drive_service(
        service: &AdvisorService,
        streams: &[&[FeatureGraph]],
        weights: &[MetricWeights],
        passes: usize,
    ) {
        std::thread::scope(|scope| {
            for (t, stream) in streams.iter().enumerate() {
                let handle = service.handle();
                let w = weights[t];
                scope.spawn(move || {
                    for p in 0..passes {
                        for start in (0..stream.len()).step_by(GROUP) {
                            let group: Vec<&FeatureGraph> = (start
                                ..(start + GROUP).min(stream.len()))
                                .map(|i| &stream[(i + t * 7 + p) % stream.len()])
                                .collect();
                            black_box(
                                handle
                                    .query(Query::graph_refs(&group, w))
                                    .expect("service is running"),
                            );
                        }
                    }
                });
            }
        });
    }

    fn drive_flat(
        flat: &Arc<AutoCe>,
        streams: &[&[FeatureGraph]],
        weights: &[MetricWeights],
        passes: usize,
    ) {
        std::thread::scope(|scope| {
            for (t, stream) in streams.iter().enumerate() {
                let flat = flat.clone();
                let w = weights[t];
                scope.spawn(move || {
                    for p in 0..passes {
                        for i in 0..stream.len() {
                            let j = (i + t * 7 + p) % stream.len();
                            let x = flat.embed_graph(&stream[j]);
                            black_box(flat.predict_from_embedding(&x, w));
                        }
                    }
                });
            }
        });
    }

    let shared_streams: Vec<&[FeatureGraph]> = (0..CLIENTS).map(|_| pool.as_slice()).collect();

    c.bench_function("serve_sharded_batched", |b| {
        b.iter(|| {
            let service = AdvisorService::start(AutoCe::from_advisor(&flat, 4), serve_cfg.clone());
            drive_service(&service, &shared_streams, &weights, PASSES);
            service.shutdown();
        })
    });
    c.bench_function("serve_flat_per_request", |b| {
        b.iter(|| drive_flat(&flat, &shared_streams, &weights, PASSES))
    });
    // The same serving workload with a live registry: every request now
    // records path counters, batch-depth/queue-wait/encode/vote spans on
    // pre-registered lock-free cells.
    let obs_cfg = ServeConfig {
        metrics: MetricsRegistry::new(),
        ..serve_cfg.clone()
    };
    c.bench_function("serve_sharded_batched_instrumented", |b| {
        b.iter(|| {
            let service = AdvisorService::start(AutoCe::from_advisor(&flat, 4), obs_cfg.clone());
            drive_service(&service, &shared_streams, &weights, PASSES);
            service.shutdown();
        })
    });
}

/// The flat scan at the paper's RCS size — the whole request on
/// `graph-hot` — through the one-partition advisor and through four shards,
/// every answer first checked against per-row `euclidean` + a full
/// `sort_by(knn_order)` + `knn_vote`.
fn bench_flat_scan_96(c: &mut Criterion) {
    let names = ["knn_flat_scan_96", "knn_flat_scan_96_sharded4"];
    if !names.iter().any(|n| criterion::filter_allows(n)) {
        return;
    }
    use autoce::{knn_order, knn_vote, AutoCe, AutoCeConfig};
    use ce_nn::matrix::euclidean;

    const DIM: usize = 32;
    let mut rng = StdRng::seed_from_u64(0xf1a7);
    let (entries, queries) = blob_rcs(96, 8, DIM, 64, &mut rng);
    let cfg = AutoCeConfig {
        k: 2,
        incremental: None,
        dml: DmlConfig {
            hidden: vec![8],
            embed_dim: DIM,
            ..DmlConfig::default()
        },
        ..AutoCeConfig::default()
    };
    let flat = AutoCe::from_parts(cfg, GinEncoder::new(4, &[8], DIM, 17), entries);
    let sharded = AutoCe::from_advisor(&flat, 4);
    let w = MetricWeights::new(0.7);
    for x in &queries {
        let mut all: Vec<(usize, f32)> = (0..flat.len())
            .map(|i| (i, euclidean(x, &flat.entry(i).embedding)))
            .collect();
        all.sort_by(knn_order);
        let want = knn_vote(all[..2].iter().map(|&(i, _)| flat.entry(i)), 2, w)
            .expect("two neighbours vote");
        assert_eq!(flat.predict_from_embedding(x, w), want, "flat ≠ oracle");
        assert_eq!(
            sharded.predict_from_embedding(x, w),
            want,
            "sharded ≠ oracle"
        );
    }
    c.bench_function(names[0], |b| {
        b.iter(|| {
            for x in &queries {
                black_box(flat.predict_from_embedding(x, w));
            }
        })
    });
    c.bench_function(names[1], |b| {
        b.iter(|| {
            for x in &queries {
                black_box(sharded.predict_from_embedding(x, w));
            }
        })
    });
}

/// `(entries, partitions, probe)` of the indexed-KNN benches: partitions
/// ≈ √n, probe widened with scale so the candidate pool keeps ≥ k entries
/// with slack.
const INDEXED_SCALES: [(usize, usize, usize); 3] =
    [(1_000, 32, 4), (10_000, 100, 4), (100_000, 256, 4)];

/// Embedding dimension of the indexed-KNN benches.
const INDEXED_DIM: usize = 32;

/// The blob RCS of one indexed-KNN scale — `blobs = partitions` — and its
/// queries.
fn indexed_rcs(
    n: usize,
    partitions: usize,
    queries: usize,
) -> (Vec<autoce::RcsEntry>, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(0x1d7 + n as u64);
    blob_rcs(n, partitions, INDEXED_DIM, queries, &mut rng)
}

/// A flat advisor over `entries` (k = 8), with the indexed-KNN benches'
/// index installed when `index` holds `(partitions, probe)`, counting into
/// `metrics`.
fn indexed_advisor(
    entries: Vec<autoce::RcsEntry>,
    index: Option<(usize, usize)>,
    metrics: &ce_serve::MetricsRegistry,
) -> autoce::AutoCe {
    use autoce::{AutoCe, AutoCeConfig, IndexConfig};
    let cfg = AutoCeConfig {
        k: 8,
        incremental: None,
        dml: DmlConfig {
            hidden: vec![8],
            embed_dim: INDEXED_DIM,
            ..DmlConfig::default()
        },
        ..AutoCeConfig::default()
    };
    let mut advisor = AutoCe::from_parts(cfg, GinEncoder::new(4, &[8], INDEXED_DIM, 17), entries);
    if let Some((partitions, probe)) = index {
        let index = IndexConfig {
            partitions,
            probe,
            // Extra k-means quality at build time: a larger sample and more
            // refinement keep partitions near the true blobs, which keeps
            // probed candidate pools small.
            sample_cap: 16_384,
            kmeans_iters: 12,
            ..IndexConfig::default()
        };
        advisor.set_metrics(metrics.clone());
        advisor.set_index_config(index).expect("cutover admits k");
    }
    advisor
}

/// The two-stage KNN index (`autoce::index`): indexed
/// `predict_from_embedding` beside the flat scan — the packed lane-per-row
/// scan of `knn::partial_topk` — at RCS sizes 10³/10⁴/10⁵, so the crossover
/// in `docs/knn-index.md` is one run's `knn_indexed/{n}` and
/// `knn_flat_scan/{n}` lines. Embeddings are clustered Gaussian blobs (the
/// regime IVF indexes are for — RCS entries from related workloads embed
/// near each other), so the admissibility bound genuinely holds and the
/// index's time is earned by the probed re-rank, not by silently returning
/// different neighbors: every answer is asserted bit-identical to the flat
/// scan *before* anything is timed. After timing, each scale prints the
/// index's own attribution from its registry: query outcomes, mean re-rank
/// candidates and build time.
fn bench_indexed_knn(c: &mut Criterion) {
    use ce_serve::MetricsRegistry;

    const QUERIES: usize = 64;
    let w = MetricWeights::new(0.7);
    for (n, partitions, probe) in INDEXED_SCALES {
        let names = [format!("knn_indexed/{n}"), format!("knn_flat_scan/{n}")];
        if !names.iter().any(|name| criterion::filter_allows(name)) {
            continue;
        }
        let (entries, queries) = indexed_rcs(n, partitions, QUERIES);
        let metrics = MetricsRegistry::new();
        let flat = indexed_advisor(entries.clone(), None, &metrics);
        let indexed = indexed_advisor(entries, Some((partitions, probe)), &metrics);

        // Gate: every timed answer must be the flat scan's exact bits —
        // model choice and the full f64 score vector — including under
        // exclusions (the leave-one-out path the suite uses).
        for (qi, x) in queries.iter().enumerate() {
            let exclude = if qi % 4 == 0 {
                (qi * 37) % n
            } else {
                usize::MAX
            };
            let (fm, fs) = flat.predict_excluding(x, w, exclude).expect("flat");
            let (im, is) = indexed.predict_excluding(x, w, exclude).expect("indexed");
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                (fm, bits(&fs)),
                (im, bits(&is)),
                "indexed ≠ flat at n={n}, query {qi}"
            );
        }

        c.bench_function(&names[0], |b| {
            b.iter(|| {
                for x in &queries {
                    black_box(indexed.predict_from_embedding(x, w));
                }
            })
        });
        c.bench_function(&names[1], |b| {
            b.iter(|| {
                for x in &queries {
                    black_box(flat.predict_from_embedding(x, w));
                }
            })
        });

        // Attribution from the registry: the counters and histograms the
        // index recorded while the checks and the timing above ran. The
        // index must actually have served (not fallen back to the very scan
        // it is compared against).
        let snap = metrics.snapshot();
        let outcome = |o: &str| snap.counter("ce_index_queries_total", &[("outcome", o)]);
        let (served, fellback, bypassed) =
            (outcome("indexed"), outcome("fallback"), outcome("bypass"));
        assert!(served > 0, "index never served at n={n}");
        let (cand_sum, cand_count) = snap.histogram_totals("ce_index_rerank_candidates", &[]);
        let (build_sum, build_count) = snap.histogram_totals("ce_index_build_ns", &[]);
        println!(
            "indexed knn: n={n} p={partitions}/{probe} → outcomes indexed {served}, \
             fallback {fellback}, bypass {bypassed}; re-rank {:.1} candidates/query; \
             {build_count} build(s), {:.1} ms",
            cand_sum as f64 / cand_count.max(1) as f64,
            build_sum as f64 * 1e-6,
        );
    }
}

/// The drift-detector fit through the serving index — `drift_detector()`
/// over the indexed advisors of `knn_indexed/{n}`, same blob data, same
/// index shapes — at 10³/10⁴/10⁵ rows. Before timing: `DETECTOR_GOLDEN`
/// still holds, and the indexed threshold's bits are the unindexed fit's
/// (`DriftDetector::from_embeddings`, every row against every other: about
/// a minute at 10⁵). After timing, the partition pairs of that one checked
/// fit: how many the join scanned and how many the centroid bound pruned.
/// ROADMAP's gate for the fit at 10⁵ is ≤ 5 s on one CPU.
fn bench_detector_fit_indexed(c: &mut Criterion) {
    use autoce::online::DriftDetector;
    use ce_serve::MetricsRegistry;

    for (n, partitions, probe) in INDEXED_SCALES {
        let name = format!("detector_fit_indexed/{n}");
        if !criterion::filter_allows(&name) {
            continue;
        }
        assert_eq!(
            golden_setup_bits::detector_checksum(),
            golden_setup_bits::DETECTOR_GOLDEN,
            "DriftDetector moved a bit; its timing means nothing"
        );
        let (entries, _) = indexed_rcs(n, partitions, 0);
        let rows: Vec<&[f32]> = entries.iter().map(|e| e.embedding.as_slice()).collect();
        let unindexed = DriftDetector::from_embeddings(&rows).threshold();
        let metrics = MetricsRegistry::new();
        let indexed = indexed_advisor(entries.clone(), Some((partitions, probe)), &metrics);
        let pairs = || {
            let snap = metrics.snapshot();
            ["scanned", "pruned"]
                .map(|o| snap.counter("ce_index_fit_pairs_total", &[("outcome", o)]))
        };
        let before = pairs();
        let threshold = indexed.drift_detector().threshold();
        assert_eq!(
            threshold.to_bits(),
            unindexed.to_bits(),
            "indexed fit ≠ unindexed fit at n={n}"
        );
        let after = pairs();
        let counts: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        c.bench_function(&name, |b| {
            b.iter(|| black_box(indexed.drift_detector().threshold()))
        });
        println!(
            "detector fit indexed: n={n} p={partitions}/{probe} → per fit, partition pairs \
             scanned {}, pruned {}",
            counts[0], counts[1]
        );
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gnn_engine,
        bench_embedding_service,
        bench_advisor_service,
        bench_indexed_knn,
        bench_flat_scan_96,
        bench_feature_extraction,
        bench_label_dataset,
        bench_label_kernels,
        bench_detector_fit,
        bench_detector_fit_indexed,
        bench_collect_feedback,
        bench_index_build,
        bench_advisor_paths,
        bench_model_inference,
        bench_optimizer
);
criterion_main!(benches);
