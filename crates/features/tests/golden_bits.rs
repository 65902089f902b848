//! Golden bits of `extract_features`.
//!
//! The statistics kernels behind the feature graph may change latency,
//! never bits. The constant below was captured on the commit *before* the
//! hash-free kernels landed (`HashSet` distinct counts, two hash sets per
//! join edge, one equality pass per ordered column pair); every later
//! kernel must reproduce it. The end-to-end benchmark cannot see such a
//! drift, because its oracle (the flat `AutoCe`) calls the same
//! `extract_features`.
//!
//! `crates/bench/benches/micro.rs` includes this file by path and asserts
//! the same checksum before it times `feature_extraction`.

use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian `to_bits()` of every vertex and edge value
/// of the golden pool, as computed by the parent commit's kernels.
pub const GOLDEN_CHECKSUM: u64 = 0x902e_eb06_ba8c_0444;

const POOL: usize = 64;
const POOL_SEED: u64 = 0x601d_b175;
/// Table counts cycle through this inclusive range, like the benchmark's
/// dataset pool.
const TABLES: (usize, usize) = (4, 10);

/// Checksum of `extract_features` over the fixed-seed golden pool.
pub fn golden_pool_checksum() -> u64 {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let cfg = FeatureConfig::default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..POOL {
        let tables = TABLES.0 + i % (TABLES.1 - TABLES.0 + 1);
        let spec = DatasetSpec {
            tables: SpecRange {
                lo: tables,
                hi: tables,
            },
            ..DatasetSpec::small()
        };
        let ds = generate_dataset(format!("golden{i}"), &spec, &mut rng);
        let g = extract_features(&ds, &cfg);
        for v in g.vertices.iter().chain(&g.edges).flatten() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
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
