//! Property tests for the histogram invariants and both exposition
//! codecs: whatever values are observed, bucket counts partition the
//! observation count, the rendered cumulative series is monotone, and
//! render → parse (text) and encode → decode (binary) are lossless.

use ce_obs::{
    parse_prometheus, MetricsRegistry, MetricsSnapshot, Sample, SampleValue, LATENCY_NS_BUCKETS,
};
use proptest::prelude::*;

/// Label values that stress the exposition escaping rules.
const LABEL_VALUES: &[&str] = &[
    "plain",
    "with,comma",
    "with\"quote",
    "back\\slash",
    "multi\nline",
    "",
];

/// Builds a snapshot with one counter, one gauge and one histogram, all
/// exercising generated values and escaped label text.
fn build_snapshot(counter: u64, gauge: u64, label_idx: usize, values: &[u64]) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    let label = LABEL_VALUES[label_idx % LABEL_VALUES.len()];
    reg.counter("ce_prop_events_total", &[("tag", label)])
        .add(counter);
    let h = reg.histogram("ce_prop_latency_ns", &[("tag", label)], LATENCY_NS_BUCKETS);
    for &v in values {
        h.observe(v);
    }
    // A gauge is read at snapshot time by the layer that owns the value,
    // the way the service reports its cache residency.
    let mut snap = reg.snapshot();
    snap.samples.push(Sample {
        name: "ce_prop_resident".to_string(),
        labels: Vec::new(),
        value: SampleValue::Gauge(gauge),
    });
    snap.normalize();
    snap
}

proptest! {
    /// Bucket counts partition the observations: each value lands in
    /// exactly the first bucket whose bound admits it, the per-bucket
    /// counts sum to the total count, and the sum is exact.
    #[test]
    fn histogram_buckets_partition_observations(
        values in prop::collection::vec(0u64..20_000_000_000, 0..200),
    ) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[], LATENCY_NS_BUCKETS);
        for &v in &values {
            h.observe(v);
        }
        let snap = reg.snapshot();
        match snap.get("lat_ns", &[]) {
            Some(SampleValue::Histogram { bounds, counts, sum, count }) => {
                prop_assert_eq!(bounds.as_slice(), LATENCY_NS_BUCKETS);
                prop_assert_eq!(*count, values.len() as u64);
                prop_assert_eq!(*sum, values.iter().sum::<u64>());
                prop_assert_eq!(counts.iter().sum::<u64>(), *count, "buckets partition the count");
                // Recompute the expected partition independently.
                let mut expected = vec![0u64; bounds.len() + 1];
                for &v in &values {
                    let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
                    expected[idx] += 1;
                }
                prop_assert_eq!(counts, &expected);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// The rendered cumulative bucket series is monotone non-decreasing
    /// and ends at the total count — the Prometheus histogram contract.
    #[test]
    fn rendered_cumulative_buckets_are_monotone(
        values in prop::collection::vec(0u64..40_000_000_000, 1..100),
    ) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[], LATENCY_NS_BUCKETS);
        for &v in &values {
            h.observe(v);
        }
        let text = reg.snapshot().render_prometheus();
        let cumulative: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_ns_bucket"))
            .map(|l| l.rsplit_once(' ').expect("value").1.parse().expect("integer"))
            .collect();
        prop_assert_eq!(cumulative.len(), LATENCY_NS_BUCKETS.len() + 1, "one series per bucket plus +Inf");
        prop_assert!(cumulative.windows(2).all(|w| w[0] <= w[1]), "cumulative series must be monotone");
        prop_assert_eq!(*cumulative.last().unwrap(), values.len() as u64, "+Inf bucket is the total count");
    }

    /// render → parse → render is lossless and byte-identical, including
    /// escaped label text.
    #[test]
    fn prometheus_roundtrip_is_lossless(
        counter in 0u64..1_000_000,
        gauge in 0u64..1_000_000,
        label_idx in 0usize..6,
        values in prop::collection::vec(0u64..20_000_000_000, 0..50),
    ) {
        let snap = build_snapshot(counter, gauge, label_idx, &values);
        let text = snap.render_prometheus();
        let parsed = parse_prometheus(&text).expect("own renderer output must parse");
        prop_assert_eq!(&parsed, &snap);
        prop_assert_eq!(parsed.render_prometheus(), text, "round-trip must be byte-identical");
    }

    /// The binary wire codec round-trips exactly, and merging a snapshot
    /// into itself doubles every countable value.
    #[test]
    fn binary_roundtrip_and_merge_double(
        counter in 0u64..1_000_000,
        gauge in 0u64..1_000_000,
        label_idx in 0usize..6,
        values in prop::collection::vec(0u64..20_000_000_000, 0..50),
    ) {
        let snap = build_snapshot(counter, gauge, label_idx, &values);
        let decoded = MetricsSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
        prop_assert_eq!(&decoded, &snap);
        let mut doubled = snap.clone();
        doubled.merge(&snap);
        let label = LABEL_VALUES[label_idx % LABEL_VALUES.len()];
        prop_assert_eq!(
            doubled.counter("ce_prop_events_total", &[("tag", label)]),
            counter * 2
        );
        let (sum, count) = doubled.histogram_totals("ce_prop_latency_ns", &[("tag", label)]);
        prop_assert_eq!(sum, values.iter().sum::<u64>() * 2);
        prop_assert_eq!(count, values.len() as u64 * 2);
    }
}

/// Sanity check outside the macro: parsing rejects text we never emit
/// instead of mis-assembling a snapshot.
#[test]
fn parser_rejects_garbage() {
    assert!(parse_prometheus("not a metric line").is_err());
    assert!(parse_prometheus("# TYPE x histogram\nx_bucket 5").is_err());
    // Non-monotone cumulative buckets are corrupt, not negative counts.
    let bad =
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
    assert!(parse_prometheus(bad).is_err());
}

/// The `Sample` type is constructible by hand (the parser/merge path) and
/// by registry snapshot; both normalize to the same ordering.
#[test]
fn hand_built_and_registry_snapshots_agree() {
    let reg = MetricsRegistry::new();
    reg.counter("b_total", &[]).add(2);
    reg.counter("a_total", &[("x", "1")]).add(1);
    let from_reg = reg.snapshot();
    let mut by_hand = MetricsSnapshot {
        samples: vec![
            Sample {
                name: "b_total".into(),
                labels: vec![],
                value: SampleValue::Counter(2),
            },
            Sample {
                name: "a_total".into(),
                labels: vec![("x".into(), "1".into())],
                value: SampleValue::Counter(1),
            },
        ],
    };
    by_hand.normalize();
    assert_eq!(from_reg, by_hand);
}
