//! # ce-bench — the reproduction harness
//!
//! One experiment module per table and figure of the paper's evaluation
//! (§VII), all run by one binary: `experiments <name>|all` (for example
//! `cargo run --release -p ce-bench --bin experiments -- table4`). Every
//! experiment prints the same rows/series the paper reports and writes a
//! JSON record under `results/`.
//!
//! Scale is controlled by the `AUTOCE_SCALE` environment variable
//! (default 1.0 — a laptop-sized run preserving the paper's comparisons;
//! larger values approach the paper's corpus sizes).

pub mod harness;
pub mod labels;
pub mod report;

pub mod experiments {
    //! One module per table/figure.
    pub mod fig1;
    pub mod fig10;
    pub mod fig11;
    pub mod fig12;
    pub mod fig13;
    pub mod fig7;
    pub mod fig8;
    pub mod fig9;
    pub mod table1;
    pub mod table2;
    pub mod table3;
    pub mod table4;
    pub mod table5;
}

pub use harness::{build_corpus, default_dml, train_advisor, Corpus, Scale};
pub use report::Report;
