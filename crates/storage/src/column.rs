//! Dictionary-encoded columns.
//!
//! Every value in the system is an `i64` in `1..=domain_size`, matching the
//! paper's data generator (§IV-A). Real-world data is dictionary-encoded into
//! the same representation before ingestion, so the whole pipeline (feature
//! extraction, estimators, execution) operates on one value type.

use ce_nn::simd_kernel;
use serde::{Deserialize, Serialize};

/// The single value type of the engine.
pub type Value = i64;

/// What role a column plays in the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnRole {
    /// Plain data column — predicates may reference it.
    Data,
    /// Primary key of its table (unique values).
    PrimaryKey,
    /// Foreign key referencing another table's primary key.
    ForeignKey,
}

/// A named, dictionary-encoded column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    /// Column name (unique within its table).
    pub name: String,
    /// Row values.
    pub data: Vec<Value>,
    /// Schema role of the column.
    pub role: ColumnRole,
}

impl Column {
    /// Creates a plain data column.
    pub fn data(name: impl Into<String>, data: Vec<Value>) -> Self {
        Column {
            name: name.into(),
            data,
            role: ColumnRole::Data,
        }
    }

    /// Creates a primary-key column. Uniqueness is the caller's contract and
    /// is checked by [`Table::validate`](crate::table::Table::validate).
    pub fn primary_key(name: impl Into<String>, data: Vec<Value>) -> Self {
        Column {
            name: name.into(),
            data,
            role: ColumnRole::PrimaryKey,
        }
    }

    /// Creates a foreign-key column.
    pub fn foreign_key(name: impl Into<String>, data: Vec<Value>) -> Self {
        Column {
            name: name.into(),
            data,
            role: ColumnRole::ForeignKey,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True for key columns (primary or foreign). Predicates in generated
    /// workloads only reference non-key columns, as in the paper's split
    /// procedure ("1-2 *non-key* columns for each chosen table").
    pub fn is_key(&self) -> bool {
        self.role != ColumnRole::Data
    }

    /// `(min, max)` of the column's values, `(0, 0)` when it has none, in
    /// one lane-wide pass with no branch per row. The one way in for a
    /// column's bounds.
    pub fn bounds(&self) -> (Value, Value) {
        extremes(&self.data).unwrap_or((0, 0))
    }
}

simd_kernel!(extremes_kernel, (data: &[Value], out: &mut (Value, Value)), {
    // Order-free integer reductions with no branch per row: each arm splits
    // them over as many lane accumulators as it has (AVX2 selects through
    // its 64-bit compare, AVX-512F has `vpminsq`/`vpmaxsq`).
    let (mut min, mut max) = (Value::MAX, Value::MIN);
    for &v in data {
        min = min.min(v);
        max = max.max(v);
    }
    *out = (min, max);
});

/// `(min, max)` of `data`, `None` when it is empty. Every column bound the
/// engine and the model zoo take comes from here ([`Column::bounds`], the
/// statistics kernels, the counter's key ids).
pub(crate) fn extremes(data: &[Value]) -> Option<(Value, Value)> {
    if data.is_empty() {
        return None;
    }
    let mut out = (0, 0);
    extremes_kernel::dispatch(data, &mut out);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roles_and_key_flag() {
        assert!(!Column::data("a", vec![1]).is_key());
        assert!(Column::primary_key("pk", vec![1]).is_key());
        assert!(Column::foreign_key("fk", vec![1]).is_key());
    }

    #[test]
    fn min_max() {
        let c = Column::data("a", vec![5, 1, 9, 3]);
        assert_eq!(c.bounds(), (1, 9));
        assert_eq!(c.len(), 4);
        let empty = Column::data("e", vec![]);
        assert_eq!(empty.bounds(), (0, 0));
        assert_eq!(extremes(&empty.data), None);
        assert!(empty.is_empty());
    }

    /// The bounds every caller took before [`extremes`]: two scalar folds.
    fn oracle(data: &[Value]) -> Option<(Value, Value)> {
        Some((data.iter().copied().min()?, data.iter().copied().max()?))
    }

    const ARMS: [&str; 3] = ["scalar", "avx2", "avx512f"];

    /// Runs every `simd_kernel!` arm the host has on `data` against the
    /// oracle; returns the arms that ran.
    fn check_arms(data: &[Value]) -> Vec<&'static str> {
        let want = oracle(data);
        assert_eq!(extremes(data), want, "dispatched, {data:?}");
        let mut covered = Vec::new();
        for (level, name) in ARMS.iter().enumerate() {
            let mut got = (0, 0);
            if !extremes_kernel::run_arm(level as u8, data, &mut got) {
                continue;
            }
            // An empty slice never reaches the kernel; its identity is
            // what the arm leaves.
            let want = want.unwrap_or((Value::MAX, Value::MIN));
            assert_eq!(got, want, "{name}, {} rows", data.len());
            covered.push(*name);
        }
        covered
    }

    #[test]
    fn extremes_kernel_matches_the_oracle_on_every_arm() {
        // Lengths around the 4- and 8-lane widths and their unrolled
        // multiples, values at both ends of `i64`.
        let mut covered = Vec::new();
        let mut state = 0x5eed_u64;
        for n in [
            0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 65, 127,
        ] {
            for kind in 0..5 {
                let data: Vec<Value> = (0..n)
                    .map(|row| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let v = (state >> 1) as Value;
                        match kind {
                            0 => 1 + v % 40,
                            1 => v.wrapping_mul(if row % 2 == 0 { 1 } else { -1 }),
                            2 => [i64::MIN, i64::MAX][row % 2],
                            3 => i64::MIN + v % 3,
                            _ => i64::MAX - v % 3,
                        }
                    })
                    .collect();
                covered = check_arms(&data);
            }
        }
        let missing: Vec<_> = ARMS.iter().filter(|a| !covered.contains(a)).collect();
        println!(
            "extremes kernel arms covered on this host: {covered:?}; NOT covered: {missing:?}"
        );
    }

    proptest! {
        #[test]
        fn extremes_kernel_matches_the_oracle(
            raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..70),
            kind in 0usize..3,
        ) {
            // Raw draws, the ends of `i64` and their neighbours, codes.
            const EDGES: [Value; 5] = [i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX];
            let data: Vec<Value> = raw
                .iter()
                .map(|&v| match kind {
                    0 => v,
                    1 => EDGES[v.rem_euclid(5) as usize],
                    _ => 1 + v.rem_euclid(40),
                })
                .collect();
            prop_assert!(check_arms(&data).contains(&"scalar"));
            let c = Column::data("c", data.clone());
            prop_assert_eq!(c.bounds(), oracle(&data).unwrap_or((0, 0)));
        }
    }
}
