//! Shared harness for the cluster integration tests: the fault harness
//! (`ce-cluster`'s `src/fault.rs` and `src/sim.rs`) and the workspace's
//! synthetic advisors (`autoce`'s `src/fixtures.rs`), mounted by `#[path]`
//! because they compile into test targets only, plus the query set.
//! (Not every test binary uses every item.)

/// The harness files' own unit tests run in `ce-cluster`'s lib target;
/// mounted here, they are dropped.
macro_rules! unit_tests {
    ($($item:item)*) => {};
}

#[allow(dead_code)]
#[path = "../../src/fault.rs"]
pub mod fault;
#[allow(dead_code)]
#[path = "../../../autoce/src/fixtures.rs"]
pub mod fixtures;
#[allow(dead_code)]
#[path = "../../src/sim.rs"]
pub mod sim;

#[allow(unused_imports)]
pub use fixtures::{synthetic_flat, synthetic_label};

/// Query embeddings covering an interior point, an off-manifold point and
/// a far outlier.
#[allow(dead_code)]
pub fn queries() -> Vec<Vec<f32>> {
    vec![
        vec![0.0f32, 0.0, 0.0],
        vec![1.3, 0.4, -0.2],
        vec![2.5, 6.25, -1.5],
    ]
}
