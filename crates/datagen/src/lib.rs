//! # ce-datagen — synthetic dataset generation (paper §IV-A)
//!
//! AutoCE trains on *generated* datasets covering a wide space of data
//! features. This crate implements the paper's generator exactly:
//!
//! * **F1 skewness** ([`pareto`]): every column is drawn from the bounded
//!   Pareto-style distribution of Eq. 1, with `skew = 0` collapsing to
//!   uniform.
//! * **F2 column correlation** ([`correlate`]): a pair of columns is
//!   correlated by forcing equality at the same row position with
//!   probability `r`.
//! * **F3 join correlation** ([`multi`]): a PK-FK edge with correlation `p`
//!   populates the FK column from a fraction `p` of the PK values.
//!
//! [`single`] and [`multi`] compose these into single-/multi-table datasets
//! driven by a [`DatasetSpec`]; [`realworld`] provides the schema-faithful
//! IMDB-like / STATS-like / Power-like simulators and the "-20" split
//! sampler that substitute for the paper's real datasets (the substitution
//! is described in [`realworld`]).

pub mod correlate;
pub mod multi;
pub mod pareto;
pub mod realworld;
pub mod single;
pub mod spec;

pub use multi::{generate_batch, generate_dataset};
pub use pareto::ParetoColumn;
pub use single::generate_table;
pub use spec::{DatasetSpec, SpecRange};
