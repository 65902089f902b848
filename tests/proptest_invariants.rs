//! Property-based tests over the core data structures and invariants.

use autoce_suite::datagen::ParetoColumn;
use autoce_suite::features::{mixup_graphs, FeatureGraph};
use autoce_suite::storage::exec::{filter_table, query_cardinality};
use autoce_suite::storage::stats::EquiDepthHistogram;
use autoce_suite::storage::{Column, Dataset, JoinEdge, Predicate, Query, Table};
use autoce_suite::testbed::score::{best_index, d_error, score_vector, MetricWeights};
use autoce_suite::workload::qerror;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Brute-force join cardinality by enumerating row pairs.
fn brute_force_star(pk: &[i64], fk: &[i64], pk_sel: &[bool], fk_sel: &[bool]) -> u64 {
    let mut count = 0u64;
    for (i, &p) in pk.iter().enumerate() {
        if !pk_sel[i] {
            continue;
        }
        for (j, &f) in fk.iter().enumerate() {
            if fk_sel[j] && f == p {
                count += 1;
            }
        }
    }
    count
}

proptest! {
    /// Yannakakis counting equals brute-force enumeration on random
    /// two-table star schemas with random predicates.
    #[test]
    fn join_count_matches_bruteforce(
        n_pk in 1usize..12,
        fk_vals in prop::collection::vec(1i64..12, 1..40),
        x_vals in prop::collection::vec(1i64..20, 1..40),
        lo in 1i64..20,
        width in 0i64..20,
    ) {
        let pk: Vec<i64> = (1..=n_pk as i64).collect();
        let n_fk = fk_vals.len().min(x_vals.len());
        let fk = &fk_vals[..n_fk];
        let xs = &x_vals[..n_fk];
        let main = Table::with_columns(
            "main",
            vec![Column::primary_key("id", pk.clone())],
        ).unwrap();
        let fact = Table::with_columns(
            "fact",
            vec![
                Column::foreign_key("main_id", fk.to_vec()),
                Column::data("x", xs.to_vec()),
            ],
        ).unwrap();
        let ds = Dataset::new(
            "p",
            vec![main, fact],
            vec![JoinEdge { fk_table: 1, fk_col: 0, pk_table: 0, pk_col: 0 }],
        ).unwrap();
        let hi = lo + width;
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![Predicate { table: 1, column: 1, lo, hi }],
        };
        let fast = query_cardinality(&ds, &q).unwrap();
        let pk_sel = vec![true; pk.len()];
        let fk_sel: Vec<bool> = xs.iter().map(|&v| lo <= v && v <= hi).collect();
        let slow = brute_force_star(&pk, fk, &pk_sel, &fk_sel);
        prop_assert_eq!(fast, slow);
    }

    /// Histogram selectivity stays within [0, 1], is exact for the full
    /// range, and is monotone in range width.
    #[test]
    fn histogram_selectivity_invariants(
        data in prop::collection::vec(1i64..500, 1..300),
        lo in 1i64..500,
        w1 in 0i64..100,
        w2 in 0i64..100,
    ) {
        let col = Column::data("c", data.clone());
        let h = EquiDepthHistogram::build(&col, 16);
        let min = *data.iter().min().unwrap();
        let max = *data.iter().max().unwrap();
        let full = h.selectivity(min, max);
        prop_assert!((full - 1.0).abs() < 1e-9, "full range = {}", full);
        let narrow = h.selectivity(lo, lo + w1.min(w2));
        let wide = h.selectivity(lo, lo + w1.max(w2));
        prop_assert!((0.0..=1.0).contains(&narrow));
        prop_assert!(narrow <= wide + 1e-9, "monotonicity {narrow} vs {wide}");
    }

    /// Q-error is symmetric, at least 1, and multiplicative in scale.
    #[test]
    fn qerror_properties(a in 1.0f64..1e9, b in 1.0f64..1e9) {
        let q = qerror(a, b);
        prop_assert!(q >= 1.0);
        prop_assert!((q - qerror(b, a)).abs() < 1e-9);
        prop_assert!((qerror(10.0 * a, 10.0 * b) - q).abs() < 1e-6);
    }

    /// Filtering returns exactly the rows whose values satisfy every
    /// predicate.
    #[test]
    fn filter_is_exact(
        data in prop::collection::vec(1i64..100, 1..200),
        lo in 1i64..100,
        width in 0i64..50,
    ) {
        let hi = lo + width;
        let t = Table::with_columns("t", vec![Column::data("a", data.clone())]).unwrap();
        let p = Predicate { table: 0, column: 0, lo, hi };
        let rows = filter_table(&t, &[&p]);
        for (i, &v) in data.iter().enumerate() {
            let selected = rows.contains(&(i as u32));
            prop_assert_eq!(selected, lo <= v && v <= hi);
        }
    }

    /// Score vectors are within [0, 1]; the best index has zero D-error and
    /// every D-error lies in [0, 1].
    #[test]
    fn score_and_derror_bounds(
        qerrs in prop::collection::vec(1.0f64..1e5, 2..9),
        lats in prop::collection::vec(0.1f64..1e5, 2..9),
        wa in 0.0f64..=1.0,
    ) {
        let n = qerrs.len().min(lats.len());
        let scores = score_vector(&qerrs[..n], &lats[..n], MetricWeights::new(wa));
        prop_assert!(scores.iter().all(|&s| (0.0..=1.0 + 1e-12).contains(&s)));
        let best = best_index(&scores);
        prop_assert_eq!(d_error(&scores, best), 0.0);
        for i in 0..n {
            let d = d_error(&scores, i);
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }

    /// Mixup endpoints reproduce the inputs and interior points stay within
    /// the per-entry min/max envelope.
    #[test]
    fn mixup_envelope(
        va in prop::collection::vec(-1.0f32..1.0, 4),
        vb in prop::collection::vec(-1.0f32..1.0, 4),
        lambda in 0.0f32..=1.0,
    ) {
        let a = FeatureGraph { vertices: vec![va.clone()], edges: vec![vec![0.0]] };
        let b = FeatureGraph { vertices: vec![vb.clone()], edges: vec![vec![0.0]] };
        let m = mixup_graphs(&a, &b, lambda);
        for ((&x, &y), &z) in va.iter().zip(&vb).zip(&m.vertices[0]) {
            prop_assert!(z >= x.min(y) - 1e-6 && z <= x.max(y) + 1e-6);
        }
        prop_assert_eq!(&mixup_graphs(&a, &b, 1.0), &a);
        prop_assert_eq!(&mixup_graphs(&a, &b, 0.0), &b);
    }

    /// Pareto samples respect domain bounds for arbitrary skew.
    #[test]
    fn pareto_respects_bounds(skew in 0.0f64..=1.0, dom in 1i64..5_000, seed in 0u64..1000) {
        let p = ParetoColumn::new(skew, 1, dom);
        let mut rng = StdRng::seed_from_u64(seed);
        for v in p.sample_column(64, &mut rng) {
            prop_assert!((1..=dom).contains(&v));
        }
    }
}
