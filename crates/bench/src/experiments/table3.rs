//! Table III — efficacy on the CEB benchmark.
//!
//! The paper evaluates only the query-driven models on CEB-IMDB (the
//! data-driven ones are impractically expensive there) and reports the
//! D-error of AutoCE's choice vs. each fixed model for
//! `w_a ∈ {1.0, 0.9, 0.7, 0.5}`. Our CEB substitute instantiates templates
//! over the IMDB-like simulator (GROUP BY / LIKE removed, as in the paper).

use crate::harness::{build_corpus, Scale};
use crate::report::{pct, Report};
use autoce::Selector;
use ce_datagen::realworld::imdb_like;
use ce_datagen::DatasetSpec;
use ce_gnn::LossKind;
use ce_models::ModelKind;
use ce_storage::Dataset;
use ce_testbed::{train_and_measure, DatasetLabel, MetricWeights};
use ce_workload::ceb::{ceb_workload, derive_templates};
use ce_workload::label_workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUERY_DRIVEN: [ModelKind; 3] = [ModelKind::Mscn, ModelKind::LwNn, ModelKind::LwXgb];

/// Labels a dataset against a CEB-style template workload.
fn label_with_ceb(ds: &Dataset, scale: Scale, seed: u64) -> DatasetLabel {
    let mut rng = StdRng::seed_from_u64(seed);
    let templates = derive_templates(ds, scale.count(12, 8), &mut rng);
    let per_template = scale.count(20, 10);
    let queries = ceb_workload(ds, &templates, per_template, &mut rng);
    let labeled = label_workload(ds, &queries).expect("CEB queries validate");
    let (train, test) = ce_workload::label::train_test_split(labeled, 0.8);
    train_and_measure(ds, &QUERY_DRIVEN, &train, &test, seed)
}

/// Runs the experiment and writes `results/table3.json`.
pub fn run(scale: Scale) {
    // Advisor trained on multi-table synthetic corpora labeled with the
    // query-driven models only.
    let mut corpus = build_corpus(scale, QUERY_DRIVEN.to_vec(), 0x7ab3);
    // Restrict training data to multi-table datasets (CEB is multi-table).
    let _ = DatasetSpec::paper(); // spec documented; corpus already mixes
    let advisor = crate::harness::train_advisor(
        &corpus,
        scale,
        LossKind::Weighted,
        Some(Default::default()),
        &QUERY_DRIVEN,
        301,
    );

    let mut rng = StdRng::seed_from_u64(0x3b3);
    let imdb = imdb_like(0.02 * scale.0, &mut rng);
    let label = label_with_ceb(&imdb, scale, 302);

    let mut r = Report::new("table3", "efficacy on the CEB benchmark (D-error)");
    r.header(&["w_a", "AutoCE", "MSCN", "LW-NN", "LW-XGB"]);
    let mut series = Vec::new();
    for wa in [1.0, 0.9, 0.7, 0.5] {
        let w = MetricWeights::new(wa);
        let chosen = advisor.select(&imdb, w);
        let d_auto = label.d_error_of(chosen, w);
        let mut row = vec![format!("{wa}"), pct(d_auto)];
        let mut entry = serde_json::json!({"wa": wa, "AutoCE": d_auto, "chosen": chosen.name()});
        for kind in QUERY_DRIVEN {
            let d = label.d_error_of(kind, w);
            row.push(pct(d));
            entry[kind.name()] = serde_json::json!(d);
        }
        r.row(row);
        series.push(entry);
    }
    corpus.train_datasets.clear(); // free memory before report IO
    r.set("series", serde_json::Value::Array(series));
    r.finish();
}
