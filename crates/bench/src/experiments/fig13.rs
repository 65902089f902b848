//! Figure 13 — ablation of online adapting (§V-E).
//!
//! Out-of-distribution datasets are generated from a shifted spec; half are
//! used for online adapting (drift detection → online labeling → RCS and
//! encoder update), and the D-error on the other half is compared with vs.
//! without adapting, at `w_a ∈ {0.9, 0.7, 0.5}`.

use crate::harness::{
    build_corpus, cached_labels, eval_selector, mean, train_default_advisor, Scale,
};
use crate::report::{f3, Report};
use autoce::online::adapt_online;
use autoce::AdvisorBackend;
use ce_datagen::{generate_batch, DatasetSpec, SpecRange};
use ce_models::SELECTABLE_MODELS;
use ce_testbed::MetricWeights;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A spec shifted away from the training distribution: wider domains,
/// heavier skew, bigger tables-counts.
fn shifted_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::small();
    spec.domain = SpecRange {
        lo: 2_000,
        hi: 8_000,
    };
    spec.skew = SpecRange { lo: 0.85, hi: 1.0 };
    spec.tables = SpecRange { lo: 4, hi: 5 };
    spec.rows = SpecRange {
        lo: 1_500,
        hi: 2_500,
    };
    spec
}

/// Runs the experiment and writes `results/fig13.json`.
pub fn run(scale: Scale) {
    let corpus = build_corpus(scale, SELECTABLE_MODELS.to_vec(), 0xf13);
    let mut adapted = train_default_advisor(&corpus, scale, 131);
    let baseline = train_default_advisor(&corpus, scale, 131);

    let mut rng = StdRng::seed_from_u64(0xf13);
    let n = scale.count(10, 6);
    let ood = generate_batch("ood", 2 * n, &shifted_spec(), &mut rng);
    let (adapt_half, eval_half) = ood.split_at(n);
    let eval_labels = cached_labels("ood-eval", eval_half, &corpus.testbed, 0x1313);

    // Online adapting over the first half.
    let detector = adapted.drift_detector();
    let mut adapted_count = 0;
    for (i, ds) in adapt_half.iter().enumerate() {
        if adapt_online(
            &mut adapted,
            &detector,
            ds,
            &corpus.testbed,
            1300 + i as u64,
        ) {
            adapted_count += 1;
        }
    }
    println!("online adapting ingested {adapted_count}/{n} drifted datasets");

    let mut r = Report::new("fig13", "online adapting on unexpected data distributions");
    r.header(&["w_a", "without adapting", "with adapting"]);
    let mut series = Vec::new();
    for wa in [0.9, 0.7, 0.5] {
        let w = MetricWeights::new(wa);
        let d_without = mean(&eval_selector(&baseline, eval_half, &eval_labels, w));
        let d_with = mean(&eval_selector(&adapted, eval_half, &eval_labels, w));
        r.row(vec![format!("{wa}"), f3(d_without), f3(d_with)]);
        series.push(serde_json::json!({
            "wa": wa, "without": d_without, "with": d_with
        }));
    }
    r.set("adapted_count", serde_json::json!(adapted_count));
    r.set("series", serde_json::Value::Array(series));
    r.finish();
}
