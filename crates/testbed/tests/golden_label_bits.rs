//! Golden bits of `label_dataset`.
//!
//! The kernels under labelling — the GBDT tree builder, the Yannakakis
//! counter, the MLP training step, the workload generator — may change
//! latency, never bits. The constant below was captured on the commit
//! *before* the presorted tree builder, the prepared counter and the
//! dx-free first layer landed; every later kernel must reproduce it. The
//! end-to-end benchmark cannot see such a drift, because its oracle is an
//! advisor trained on the same labels.
//!
//! `crates/bench/benches/micro.rs` includes this file by path and asserts
//! the same checksum before it times `label_dataset`.

use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_models::{ModelKind, SELECTABLE_MODELS};
use ce_testbed::{label_dataset, DatasetLabel, TestbedConfig};
use ce_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian `to_bits()` of the four q-error fields of
/// every model of every golden label, as computed by the parent commit's
/// kernels.
pub const GOLDEN_CHECKSUM: u64 = 0x0874_8544_7a2c_4b85;

const POOL_SEED: u64 = 0x1abe_1b17;
const LABEL_SEED: u64 = 0x5eed_0014;
/// Table counts of the golden pool: three cycles of the benchmark's corpus
/// shape (4–10), its drift shape (24–28) and the degenerate end (1–3, where
/// most queries join nothing).
const CORPUS_TABLES: (usize, usize) = (4, 10);
const CORPUS_CYCLES: usize = 3;
const EDGE_TABLES: [usize; 8] = [24, 25, 26, 27, 28, 1, 2, 3];

/// The benchmark's testbed: three models, 30 training and 15 testing
/// queries.
pub fn bench_testbed() -> TestbedConfig {
    TestbedConfig {
        models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
        train_queries: 30,
        test_queries: 15,
        workload: WorkloadSpec::default(),
    }
}

fn fold(h: &mut u64, label: &DatasetLabel) {
    for p in &label.performances {
        for v in [p.qerror_mean, p.qerror_p50, p.qerror_p95, p.qerror_p99] {
            for b in v.to_bits().to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// The default selectable models, less NeuroCard and UAE: when the
/// checksum was captured their labels were not a function of the seed
/// (`sample_join` drew in a `HashMap`'s iteration order), so the constant
/// does not cover them; `join_sampled_models_repeat_their_bits` below pins
/// that they repeat now. The other five reach `Mlp::backward`, the SPN and
/// the Bayesian network through the same workload and counts.
fn repeatable_selectable_models() -> Vec<ModelKind> {
    SELECTABLE_MODELS
        .iter()
        .copied()
        .filter(|k| !matches!(k, ModelKind::NeuroCard | ModelKind::Uae))
        .collect()
}

/// Checksum of `label_dataset` over the fixed-seed golden pool: every pool
/// dataset under the benchmark's testbed, then the first one again under
/// the repeatable selectable models.
pub fn golden_pool_checksum() -> u64 {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let span = CORPUS_TABLES.1 - CORPUS_TABLES.0 + 1;
    let table_counts = (0..CORPUS_CYCLES * span)
        .map(|i| CORPUS_TABLES.0 + i % span)
        .chain(EDGE_TABLES);
    let datasets: Vec<_> = table_counts
        .enumerate()
        .map(|(i, tables)| {
            let spec = DatasetSpec {
                tables: SpecRange {
                    lo: tables,
                    hi: tables,
                },
                ..DatasetSpec::small()
            };
            generate_dataset(format!("golden{i}"), &spec, &mut rng)
        })
        .collect();
    let cfg = bench_testbed();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, ds) in datasets.iter().enumerate() {
        let seed = LABEL_SEED.wrapping_add(i as u64);
        fold(&mut h, &label_dataset(ds, &cfg, seed));
    }
    let selectable = TestbedConfig {
        models: repeatable_selectable_models(),
        ..cfg
    };
    fold(
        &mut h,
        &label_dataset(&datasets[0], &selectable, LABEL_SEED),
    );
    h
}

#[test]
fn label_dataset_reproduces_parent_bits() {
    let got = golden_pool_checksum();
    assert_eq!(
        got, GOLDEN_CHECKSUM,
        "label_dataset moved a bit: {got:#018x}"
    );
}

/// NeuroCard and UAE train on `sample_join`, which used to draw in a
/// `HashMap`'s iteration order; their labels are outside the checksum
/// above (captured while two runs of one seed disagreed), so what is
/// pinned here is that they now repeat.
#[test]
fn join_sampled_models_repeat_their_bits() {
    let spec = DatasetSpec {
        tables: SpecRange { lo: 6, hi: 6 },
        ..DatasetSpec::small()
    };
    let ds = generate_dataset("repeat", &spec, &mut StdRng::seed_from_u64(POOL_SEED));
    let cfg = TestbedConfig {
        models: vec![ModelKind::NeuroCard, ModelKind::Uae],
        ..bench_testbed()
    };
    let bits = || {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fold(&mut h, &label_dataset(&ds, &cfg, LABEL_SEED));
        h
    };
    let first = bits();
    for run in 1..4 {
        assert_eq!(bits(), first, "run {run} of one seed moved a q-error bit");
    }
}
