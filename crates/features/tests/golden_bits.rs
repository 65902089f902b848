//! Golden bits of `extract_features`.
//!
//! The statistics kernels behind the feature graph may change latency,
//! never bits. [`GOLDEN_CHECKSUM`] was captured on the commit *before* the
//! hash-free kernels landed (`HashSet` distinct counts, two hash sets per
//! join edge, one equality pass per ordered column pair); every later
//! kernel must reproduce it. The end-to-end benchmark cannot see such a
//! drift, because its oracle (the flat `AutoCe`) calls the same
//! `extract_features`.
//!
//! That constant pins `f32` features after `squash`, which can hide a
//! last-bit `f64` drift, so [`GOLDEN_STATS_CHECKSUM`] pins the statistics
//! themselves: every `ColumnStats` field, equality rate and join
//! correlation of the same pool at `f64` level, captured on the commit
//! *before* the table-at-a-time moment kernels (one row-order `f64` loop
//! per column).
//!
//! `crates/bench/benches/micro.rs` includes this file by path and asserts
//! both checksums before it times `feature_extraction`.

use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureConfig};
use ce_storage::stats::{equality_rate, join_correlation, ColumnStats};
use ce_storage::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian `to_bits()` of every vertex and edge value
/// of the golden pool, as computed by the parent commit's kernels.
pub const GOLDEN_CHECKSUM: u64 = 0x902e_eb06_ba8c_0444;

/// FNV-1a over `count`, `min`, `max`, `ndv` and the `to_bits()` of `mean`,
/// `std_dev`, `mean_dev`, `skewness`, `kurtosis` of every data column of
/// the golden pool, then per dataset the equality-rate bits of every
/// column pair `extract_features` uses and the join-correlation bits of
/// every edge, as computed by the parent commit's kernels.
pub const GOLDEN_STATS_CHECKSUM: u64 = 0x5aab_3422_e9a8_ca47;

const POOL: usize = 64;
const POOL_SEED: u64 = 0x601d_b175;
/// Table counts cycle through this inclusive range, like the benchmark's
/// dataset pool.
const TABLES: (usize, usize) = (4, 10);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold<const N: usize>(h: &mut u64, le_bytes: [u8; N]) {
    for b in le_bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The fixed-seed golden pool.
fn golden_pool() -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    (0..POOL)
        .map(|i| {
            let tables = TABLES.0 + i % (TABLES.1 - TABLES.0 + 1);
            let spec = DatasetSpec {
                tables: SpecRange {
                    lo: tables,
                    hi: tables,
                },
                ..DatasetSpec::small()
            };
            generate_dataset(format!("golden{i}"), &spec, &mut rng)
        })
        .collect()
}

/// Checksum of `extract_features` over the golden pool.
pub fn golden_pool_checksum() -> u64 {
    let cfg = FeatureConfig::default();
    let mut h = FNV_OFFSET;
    for ds in golden_pool() {
        let g = extract_features(&ds, &cfg);
        for v in g.vertices.iter().chain(&g.edges).flatten() {
            fold(&mut h, v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Checksum of the `f64`-level statistics under `extract_features` over
/// the golden pool.
pub fn golden_stats_checksum() -> u64 {
    let used = FeatureConfig::default().max_columns;
    let mut h = FNV_OFFSET;
    for ds in golden_pool() {
        for table in &ds.tables {
            let data_cols = table.data_column_indices();
            for &c in &data_cols {
                let s = ColumnStats::compute(&table.columns[c]);
                for word in [s.count as u64, s.min as u64, s.max as u64, s.ndv as u64] {
                    fold(&mut h, word.to_le_bytes());
                }
                for v in [s.mean, s.std_dev, s.mean_dev, s.skewness, s.kurtosis] {
                    fold(&mut h, v.to_bits().to_le_bytes());
                }
            }
            let data_cols = &data_cols[..data_cols.len().min(used)];
            for (slot, &a) in data_cols.iter().enumerate() {
                for &b in &data_cols[slot + 1..] {
                    let rate = equality_rate(&table.columns[a], &table.columns[b]);
                    fold(&mut h, rate.to_bits().to_le_bytes());
                }
            }
        }
        for e in &ds.joins {
            fold(&mut h, join_correlation(&ds, e).to_bits().to_le_bytes());
        }
    }
    h
}

#[test]
fn extract_features_reproduces_parent_bits() {
    let got = golden_pool_checksum();
    assert_eq!(
        got, GOLDEN_CHECKSUM,
        "extract_features moved a bit: {got:#018x}"
    );
}

#[test]
fn statistics_reproduce_parent_bits() {
    let got = golden_stats_checksum();
    assert_eq!(
        got, GOLDEN_STATS_CHECKSUM,
        "a statistic under extract_features moved a bit: {got:#018x}"
    );
}
