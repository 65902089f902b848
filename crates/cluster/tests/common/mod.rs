//! Shared synthetic fixtures for the cluster integration tests: the
//! workspace-wide ones from `autoce::fixtures` plus the query set.

pub use autoce::fixtures::synthetic_flat;
#[allow(unused_imports)]
pub use autoce::fixtures::synthetic_label;

/// Query embeddings covering an interior point, an off-manifold point and
/// a far outlier. (Not every test binary uses every fixture.)
#[allow(dead_code)]
pub fn queries() -> Vec<Vec<f32>> {
    vec![
        vec![0.0f32, 0.0, 0.0],
        vec![1.3, 0.4, -0.2],
        vec![2.5, 6.25, -1.5],
    ]
}
