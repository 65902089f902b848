//! # autoce-suite — umbrella crate of the AutoCE reproduction
//!
//! Re-exports the public API of every workspace crate so examples and
//! integration tests have a single import root. New readers start at
//! `DESIGN.md`, one page mapping the paper's stages to crates, invariants
//! and documents. Each crate's own docs describe its layer; `docs/*.md`
//! hold the serving contracts (advisor API, cluster protocol, KNN index,
//! observability).

pub use autoce;
pub use ce_cluster as cluster;
pub use ce_datagen as datagen;
pub use ce_features as features;
pub use ce_gnn as gnn;
pub use ce_models as models;
pub use ce_nn as nn;
pub use ce_optsim as optsim;
pub use ce_serve as serve;
pub use ce_storage as storage;
pub use ce_testbed as testbed;
pub use ce_workload as workload;
