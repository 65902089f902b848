//! Cloud data service scenario (paper §I, "Applications"): a vendor hosts
//! many tenants with diverse datasets and must pick a CE model per tenant
//! without costly online learning — and react when a tenant's data drifts
//! out of the trained distribution.
//!
//! Run with `cargo run --release --example cloud_advisor`.

use autoce_suite::autoce::online::adapt_online;
use autoce_suite::autoce::{AdvisorBackend, AutoCe, AutoCeConfig};
use autoce_suite::datagen::{generate_batch, generate_dataset, DatasetSpec, SpecRange};
use autoce_suite::gnn::DmlConfig;
use autoce_suite::models::SELECTABLE_MODELS;
use autoce_suite::testbed::{label_datasets, MetricWeights, TestbedConfig};
use autoce_suite::workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let spec = DatasetSpec::small();
    let testbed = TestbedConfig {
        models: SELECTABLE_MODELS.to_vec(),
        train_queries: 100,
        test_queries: 40,
        workload: WorkloadSpec::default(),
    };

    println!("offline: labeling the vendor's training corpus...");
    let corpus = generate_batch("corpus", 14, &spec, &mut rng);
    let labels = label_datasets(&corpus, &testbed, 3, 0);
    let mut advisor = AutoCe::train(
        &corpus,
        &labels,
        AutoCeConfig {
            dml: DmlConfig {
                epochs: 12,
                ..DmlConfig::default()
            },
            ..AutoCeConfig::default()
        },
        5,
    );
    let detector = advisor.drift_detector();
    println!(
        "drift threshold (90th pct of RCS NN distances): {:.3}",
        detector.threshold()
    );

    // Online: tenants arrive; each gets an instant recommendation.
    println!("\nserving tenants (accuracy-focused, w_a = 0.9):");
    let w = MetricWeights::new(0.9);
    for t in 0..4 {
        let tenant = generate_dataset(format!("tenant-{t}"), &spec, &mut rng);
        let drifted = detector.is_drifted(&advisor, &tenant);
        let model = advisor.recommend(&tenant, w);
        println!(
            "  tenant-{t}: {} tables -> {model} (drifted: {drifted})",
            tenant.num_tables()
        );
    }

    // A tenant with a wildly different distribution triggers online
    // adapting: the testbed labels it, the RCS grows, the encoder updates.
    let mut odd_spec = spec.clone();
    odd_spec.domain = SpecRange {
        lo: 3_000,
        hi: 9_000,
    };
    odd_spec.skew = SpecRange { lo: 0.9, hi: 1.0 };
    odd_spec.tables = SpecRange { lo: 5, hi: 5 };
    let odd = generate_dataset("tenant-odd", &odd_spec, &mut rng);
    println!(
        "\ntenant-odd distance to RCS: {:.3} (threshold {:.3})",
        detector.distance_to_rcs(&advisor, &odd),
        detector.threshold()
    );
    let adapted = adapt_online(&mut advisor, &detector, &odd, &testbed, 77);
    println!(
        "online adapting triggered: {adapted}; RCS size now {}",
        advisor.len()
    );
    println!(
        "post-adaptation recommendation for tenant-odd: {}",
        advisor.recommend(&odd, w)
    );
}
