//! Cross-crate integration tests: the full AutoCE pipeline from dataset
//! generation to recommendation.

use autoce_suite::autoce::{AutoCe, AutoCeConfig, RuleSelector, Selector};
use autoce_suite::datagen::{generate_batch, DatasetSpec};
use autoce_suite::gnn::DmlConfig;
use autoce_suite::models::ModelKind;
use autoce_suite::testbed::{label_datasets, MetricWeights, TestbedConfig};
use autoce_suite::workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn testbed(models: Vec<ModelKind>) -> TestbedConfig {
    TestbedConfig {
        models,
        train_queries: 70,
        test_queries: 35,
        workload: WorkloadSpec::default(),
    }
}

/// Generate → label → train → recommend, end to end, and confirm the
/// advisor beats random rule-based selection on mean D-error.
#[test]
fn advisor_beats_rule_baseline_end_to_end() {
    let mut rng = StdRng::seed_from_u64(9001);
    let spec = DatasetSpec::small();
    let train = generate_batch("it-train", 16, &spec, &mut rng);
    let test = generate_batch("it-test", 10, &spec, &mut rng);
    let models = vec![
        ModelKind::Postgres,
        ModelKind::LwNn,
        ModelKind::LwXgb,
        ModelKind::DeepDb,
    ];
    let cfg = testbed(models);
    let train_labels = label_datasets(&train, &cfg, 1, 0);
    let test_labels = label_datasets(&test, &cfg, 2, 0);

    let advisor = AutoCe::train(
        &train,
        &train_labels,
        AutoCeConfig {
            dml: DmlConfig {
                epochs: 15,
                hidden: vec![32],
                embed_dim: 16,
                ..DmlConfig::default()
            },
            ..AutoCeConfig::default()
        },
        3,
    );
    let rule = RuleSelector::new(cfg.models.clone(), 4);

    let w = MetricWeights::new(0.9);
    let mut d_auto = 0.0;
    let mut d_rule = 0.0;
    for (ds, label) in test.iter().zip(&test_labels) {
        d_auto += label.d_error_of(advisor.select(ds, w), w);
        d_rule += label.d_error_of(rule.select(ds, w), w);
    }
    let n = test.len() as f64;
    let (d_auto, d_rule) = (d_auto / n, d_rule / n);
    assert!(
        d_auto <= d_rule + 0.05,
        "AutoCE mean D-error {d_auto:.3} should not lose to Rule {d_rule:.3}"
    );
    assert!(d_auto < 0.5, "AutoCE mean D-error {d_auto:.3} is sane");
}

/// The advisor must be deterministic: identical seeds and corpora produce
/// identical recommendations.
#[test]
fn training_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(9002);
    let spec = DatasetSpec::small().single_table();
    let train = generate_batch("det", 8, &spec, &mut rng);
    let cfg = testbed(vec![ModelKind::Postgres, ModelKind::LwXgb]);
    let labels = label_datasets(&train, &cfg, 5, 0);
    let build = || {
        AutoCe::train(
            &train,
            &labels,
            AutoCeConfig {
                dml: DmlConfig {
                    epochs: 6,
                    hidden: vec![16],
                    embed_dim: 8,
                    ..DmlConfig::default()
                },
                ..AutoCeConfig::default()
            },
            6,
        )
    };
    let a = build();
    let b = build();
    for ds in &train {
        for wa in [1.0, 0.5, 0.0] {
            let w = MetricWeights::new(wa);
            assert_eq!(a.recommend(ds, w), b.recommend(ds, w));
        }
    }
}

/// Labels must expose a coherent metric space: D-error of the best model is
/// 0 and every D-error lies in [0, 1] at every grid weighting.
#[test]
fn label_metric_space_invariants() {
    let mut rng = StdRng::seed_from_u64(9003);
    let train = generate_batch("inv", 5, &DatasetSpec::small(), &mut rng);
    let cfg = testbed(vec![ModelKind::Postgres, ModelKind::LwNn, ModelKind::LwXgb]);
    let labels = label_datasets(&train, &cfg, 7, 0);
    for label in &labels {
        // The paper's grid: `w_a` from 0 to 1 with a step of 0.1.
        for w in (0..=10).map(|i| MetricWeights::new(f64::from(i) / 10.0)) {
            let best = label.best_model(w);
            assert_eq!(label.d_error_of(best, w), 0.0);
            for p in &label.performances {
                let d = label.d_error_of(p.kind, w);
                assert!((0.0..=1.0).contains(&d), "D-error {d} out of range");
            }
            let scores = label.score_vector(w);
            assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }
}
