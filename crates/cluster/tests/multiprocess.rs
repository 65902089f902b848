//! Real-process smoke test: shard servers as separate OS processes on
//! loopback TCP, including one hard kill (`SIGKILL`, no goodbye) and an
//! epoch swap while a replica is down. The in-process [`ShardedAdvisor`]
//! is the oracle throughout — answers off the real wire must match it bit
//! for bit.

mod common;

use ce_cluster::{
    spawn_shard_process, ClusterConfig, ClusterCoordinator, Connector, MetricsRegistry,
    ShardedAdvisor, TcpConnector,
};
use ce_obs::parse_prometheus;
use ce_testbed::MetricWeights;
use std::path::Path;
use std::time::Duration;

const RANGES: usize = 2;
const REPLICAS_PER_RANGE: usize = 2;

#[test]
fn loopback_cluster_survives_a_hard_shard_kill() {
    let flat = common::synthetic_flat(9, 3);
    let mut mirror = ShardedAdvisor::from_advisor(&flat, RANGES);
    let bin = Path::new(env!("CARGO_BIN_EXE_ce-shard-server"));

    // children[range * REPLICAS_PER_RANGE + r] serves replica r of range.
    let mut children = Vec::new();
    let mut connectors: Vec<Vec<Box<dyn Connector>>> = Vec::new();
    for _range in 0..RANGES {
        let mut row: Vec<Box<dyn Connector>> = Vec::new();
        for _r in 0..REPLICAS_PER_RANGE {
            let (child, addr) = spawn_shard_process(bin).expect("spawn shard server");
            row.push(Box::new(TcpConnector::new(addr, Duration::from_secs(2))));
            children.push(child);
        }
        connectors.push(row);
    }

    let coord = ClusterCoordinator::new(mirror.clone(), connectors, ClusterConfig::no_sleep());
    coord.bootstrap().expect("bootstrap over loopback");
    let w = MetricWeights::new(0.6);
    for x in common::queries() {
        assert_eq!(
            mirror.predict_from_embedding(&x, w),
            coord
                .predict_from_embedding(&x, w)
                .expect("healthy predict"),
            "healthy loopback answer drifted from the in-process oracle"
        );
    }

    // Hard-kill the primary replica of range 0: the process disappears
    // mid-conversation, taking its established connection with it.
    children[0].kill().expect("kill shard process");
    children[0].wait().expect("reap killed shard");
    for x in common::queries() {
        assert_eq!(
            mirror.predict_from_embedding(&x, w),
            coord
                .predict_from_embedding(&x, w)
                .expect("failover predict"),
            "failover to the surviving replica must not change a bit"
        );
    }
    assert!(
        coord.trace().iter().any(|l| l.starts_with("failover")),
        "the kill must surface as a traced failover: {:?}",
        coord.trace()
    );
    let health = coord.heartbeat();
    assert!(health.degraded(), "the dead process must be reported");
    assert!(!health.any_range_dark(), "its sibling still serves");
    let report = health.report();
    assert!(report.contains("DEGRADED"), "got: {report}");

    // An epoch swap with one replica of a range permanently gone: the
    // surviving replica stages the new epoch; answers still match an
    // in-process advisor that refreshed the same way.
    mirror.refresh_embeddings();
    let epoch = coord.refresh_and_snapshot().expect("snapshot degraded");
    assert_eq!(epoch, 1);
    for x in common::queries() {
        assert_eq!(
            mirror.predict_from_embedding(&x, w),
            coord
                .predict_from_embedding(&x, w)
                .expect("post-snapshot predict"),
            "post-snapshot answers must match"
        );
    }

    // Clean shutdown: the surviving processes exit on the shutdown frame.
    coord.shutdown_cluster();
    for (i, mut child) in children.into_iter().enumerate().skip(1) {
        let status = child.wait().expect("shard server exits");
        assert!(status.success(), "shard {i} exited dirty: {status}");
    }
}

/// The metrics-smoke leg: a real multiprocess cluster under a live
/// registry, scraped through the full exposition pipeline — cluster-wide
/// aggregation over the metrics step, Prometheus text rendering, and
/// a parse back — asserting every layer's metric families are present
/// and non-zero, not just that nothing crashed.
#[test]
fn metrics_smoke_scrapes_every_family_over_real_processes() {
    let flat = common::synthetic_flat(9, 3);
    let mirror = ShardedAdvisor::from_advisor(&flat, RANGES);
    let bin = Path::new(env!("CARGO_BIN_EXE_ce-shard-server"));

    let mut children = Vec::new();
    let mut connectors: Vec<Vec<Box<dyn Connector>>> = Vec::new();
    for _range in 0..RANGES {
        let mut row: Vec<Box<dyn Connector>> = Vec::new();
        for _r in 0..REPLICAS_PER_RANGE {
            let (child, addr) = spawn_shard_process(bin).expect("spawn shard server");
            row.push(Box::new(TcpConnector::new(addr, Duration::from_secs(2))));
            children.push(child);
        }
        connectors.push(row);
    }

    let registry = MetricsRegistry::new();
    let mut cfg = ClusterConfig::no_sleep();
    cfg.metrics = registry.clone();
    let coord = ClusterCoordinator::new(mirror.clone(), connectors, cfg);
    coord.bootstrap().expect("bootstrap over loopback");
    let w = MetricWeights::new(0.6);
    for x in common::queries() {
        assert_eq!(
            mirror.predict_from_embedding(&x, w),
            coord.predict_from_embedding(&x, w).expect("predict"),
            "instrumentation must not change an answer bit"
        );
    }

    // The aggregated scrape: local coordinator samples plus every
    // replica's shard samples, tagged range/replica.
    let agg = coord.cluster_metrics();
    let queries = common::queries().len() as u64;
    for range in 0..RANGES {
        let range_label = range.to_string();
        let (rtt_sum, rtt_count) =
            agg.histogram_totals("ce_cluster_rtt_ns", &[("range", &range_label)]);
        assert!(
            rtt_count >= queries && rtt_sum > 0,
            "range {range}: RTT histogram must cover every query"
        );
        for replica in 0..REPLICAS_PER_RANGE {
            let served = agg.counter(
                "ce_shard_requests_total",
                &[
                    ("range", &range_label),
                    ("replica", &replica.to_string()),
                    ("step", "coord_send_load"),
                ],
            );
            assert!(
                served > 0,
                "range {range} replica {replica}: bootstrap load must be counted shard-side"
            );
        }
    }
    assert!(
        agg.counter(
            "ce_cluster_wire_bytes_out_total",
            &[("step", "coord_send_query_batch")],
        ) > 0,
        "wire-byte accounting must be live"
    );
    assert!(
        agg.counter(
            "ce_shard_wire_bytes_out_total",
            &[
                ("range", "0"),
                ("replica", "0"),
                ("step", "shard_send_topk_batch")
            ],
        ) > 0,
        "shard-side reply bytes must be counted"
    );

    // The text exposition end-to-end: families render with TYPE headers
    // and the scrape parses back to exactly the snapshot it came from.
    let text = agg.render_prometheus();
    for family in [
        "# TYPE ce_cluster_rtt_ns histogram",
        "# TYPE ce_cluster_wire_bytes_out_total counter",
        "# TYPE ce_shard_requests_total counter",
    ] {
        assert!(text.contains(family), "exposition must declare: {family}");
    }
    let parsed = parse_prometheus(&text).expect("scrape output must parse");
    assert_eq!(parsed, agg, "scrape must round-trip losslessly");

    coord.shutdown_cluster();
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("shard server exits");
        assert!(status.success(), "shard {i} exited dirty: {status}");
    }
}
