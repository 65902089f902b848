//! `ce-obs`: the dependency-free observability core of the AutoCE
//! reproduction — atomic counters, fixed-bound bucketed histograms and
//! span timing, collected through a [`MetricsRegistry`] and exposed as a
//! typed [`MetricsSnapshot`] (which may also carry gauge samples a layer
//! reads at snapshot time) or Prometheus text.
//!
//! Design constraints (these are invariants, not preferences — see
//! `docs/observability.md`):
//!
//! - **No hot-path locks.** Recording into any handle is a plain
//!   `fetch_add` on pre-registered atomics; the registry's internal mutex
//!   is taken only at registration and snapshot time (both cold paths).
//!   Metrics must never take a *serving* lock: handles are registered
//!   up front and cloned into whatever struct does the recording.
//! - **Disabled means free.** A handle from [`MetricsRegistry::disabled`]
//!   carries no allocation and every record call is a no-op the optimizer
//!   can delete — which is what makes an honest "instrumented vs. not"
//!   overhead bench possible in one binary.
//! - **Deterministic under simulation.** With
//!   [`MetricsRegistry::new_logical`], spans read a process-local logical
//!   tick counter instead of the wall clock, so runs under `SimNet` make
//!   zero timing syscalls on instrumented paths and gauntlet trace replay
//!   stays byte-equal with metrics enabled. Metrics are a read-only side
//!   channel: they never append to deterministic event traces.
//! - **Stable exposition.** Snapshots and rendered text are sorted by
//!   `(name, labels)` so diffs are clean and tests can pin exact output.

mod snapshot;

pub use snapshot::{
    parse_prometheus, MetricKind, MetricsSnapshot, Sample, SampleValue, SnapshotError,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Latency buckets in nanoseconds: 1µs → ~16s, powers of four. Thirteen
/// bounds keep the per-histogram footprint tiny while still separating
/// "cache hit" (~µs) from "cold batch" (~ms) from "deadline blown" (~s).
pub const LATENCY_NS_BUCKETS: &[u64] = &[
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
    16_000_000_000,
];

/// Small-count buckets (batch depth, pool checkouts per call): powers of
/// two up to 1024.
pub const DEPTH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Large-count buckets (KNN index re-rank candidates, scan lengths):
/// powers of four up to ~1M, for populations that span "a handful" to
/// "the whole RCS".
pub const COUNT_BUCKETS: &[u64] = &[
    4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// Key of one registered metric: name plus sorted label pairs. Ordered
/// (`BTreeMap`) so snapshots come out in stable exposition order without
/// a separate sort.
type Key = (String, Vec<(String, String)>);

/// The time source spans measure against.
#[derive(Clone)]
enum Clock {
    /// Wall time via `Instant` (monotonic).
    Wall,
    /// A shared logical tick counter; each span start and end advances it
    /// by one. Under a serialized caller (e.g. a coordinator mutex) the
    /// recorded durations are fully deterministic, and no timing syscall
    /// is ever made.
    Logical(Arc<AtomicU64>),
}

struct HistCell {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: &'static [u64],
    /// One count per finite bucket plus the overflow (+Inf) bucket.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistCell {
    fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistCell {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        // Bounds arrays are compile-time constants of ~a dozen entries;
        // a branch-predictable linear scan beats binary search here.
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

struct Inner {
    clock: Clock,
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<Key, Arc<HistCell>>>,
}

/// Handle-issuing metrics registry. Cloning is cheap (one `Arc`); a
/// registry constructed with [`MetricsRegistry::disabled`] issues no-op
/// handles and snapshots empty.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.inner.as_deref() {
            None => "disabled",
            Some(Inner {
                clock: Clock::Wall, ..
            }) => "wall",
            Some(Inner {
                clock: Clock::Logical(_),
                ..
            }) => "logical",
        };
        write!(f, "MetricsRegistry({mode})")
    }
}

impl MetricsRegistry {
    /// An enabled registry whose spans measure wall time.
    pub fn new() -> Self {
        Self::with_clock(Clock::Wall)
    }

    /// An enabled registry whose spans count logical ticks instead of
    /// wall nanoseconds — the mode to use under `SimNet` or anywhere
    /// byte-equal replay matters more than real durations.
    pub fn new_logical() -> Self {
        Self::with_clock(Clock::Logical(Arc::new(AtomicU64::new(0))))
    }

    /// A disabled registry: every handle is a no-op, snapshots are empty.
    /// This is the default.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    fn with_clock(clock: Clock) -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Inner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut l: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        l.sort();
        (name.to_string(), l)
    }

    /// Registers (or re-fetches) a counter. Same `(name, labels)` always
    /// returns a handle onto the same cell.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            let mut map = inner.counters.lock().expect("obs counter map");
            map.entry(Self::key(name, labels))
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        }))
    }

    /// Registers (or re-fetches) a histogram over `bounds` (strictly
    /// increasing, `'static` so the hot path never chases an allocation).
    /// If the key exists, the original bounds win.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &'static [u64],
    ) -> Histogram {
        let cell = self.inner.as_ref().map(|inner| {
            let mut map = inner.histograms.lock().expect("obs histogram map");
            map.entry(Self::key(name, labels))
                .or_insert_with(|| Arc::new(HistCell::new(bounds)))
                .clone()
        });
        Histogram {
            cell,
            clock: self
                .inner
                .as_ref()
                .map(|i| i.clock.clone())
                .unwrap_or(Clock::Wall),
        }
    }

    /// A point-in-time snapshot of every registered metric, in stable
    /// `(name, labels)` order. Disabled registries snapshot empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples = Vec::new();
        if let Some(inner) = &self.inner {
            for (key, cell) in inner.counters.lock().expect("obs counter map").iter() {
                samples.push(Sample {
                    name: key.0.clone(),
                    labels: key.1.clone(),
                    value: SampleValue::Counter(cell.load(Ordering::Relaxed)),
                });
            }
            for (key, cell) in inner.histograms.lock().expect("obs histogram map").iter() {
                samples.push(Sample {
                    name: key.0.clone(),
                    labels: key.1.clone(),
                    value: SampleValue::Histogram {
                        bounds: cell.bounds.to_vec(),
                        counts: cell
                            .counts
                            .iter()
                            .map(|c| c.load(Ordering::Relaxed))
                            .collect(),
                        sum: cell.sum.load(Ordering::Relaxed),
                        count: cell.count.load(Ordering::Relaxed),
                    },
                });
            }
        }
        let mut snap = MetricsSnapshot { samples };
        snap.normalize();
        snap
    }
}

/// Monotonically increasing event count. All methods are no-ops on a
/// disabled handle.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Fixed-bound bucketed histogram handle. `observe` is lock-free; a
/// disabled handle records nothing.
#[derive(Clone)]
pub struct Histogram {
    cell: Option<Arc<HistCell>>,
    clock: Clock,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cell: None,
            clock: Clock::Wall,
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.observe(v);
        }
    }

    /// Starts a span that records its duration (wall nanoseconds, or
    /// logical ticks under a logical-clock registry) into this histogram
    /// when dropped. On a disabled handle the span is free: no clock is
    /// read at either end.
    #[inline]
    pub fn start_span(&self) -> Span {
        let start = if self.cell.is_none() {
            SpanStart::Noop
        } else {
            match &self.clock {
                Clock::Wall => SpanStart::Wall(Instant::now()),
                Clock::Logical(tick) => {
                    SpanStart::Logical(tick.fetch_add(1, Ordering::Relaxed), tick.clone())
                }
            }
        };
        Span {
            hist: self.clone(),
            start,
        }
    }
}

enum SpanStart {
    Noop,
    Wall(Instant),
    Logical(u64, Arc<AtomicU64>),
}

/// RAII span: measures from construction to drop and records the elapsed
/// time into its histogram. Use [`Histogram::start_span`].
pub struct Span {
    hist: Histogram,
    start: SpanStart,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = match &self.start {
            SpanStart::Noop => return,
            SpanStart::Wall(t0) => {
                let ns = t0.elapsed().as_nanos();
                ns.min(u64::MAX as u128) as u64
            }
            SpanStart::Logical(t0, tick) => {
                let t1 = tick.fetch_add(1, Ordering::Relaxed) + 1;
                t1.saturating_sub(*t0)
            }
        };
        self.hist.observe(elapsed);
    }
}

#[cfg(test)]
impl MetricsRegistry {
    /// Whether spans use the logical clock.
    pub(crate) fn is_logical(&self) -> bool {
        matches!(
            self.inner.as_deref(),
            Some(Inner {
                clock: Clock::Logical(_),
                ..
            })
        )
    }
}

#[cfg(test)]
impl Counter {
    /// Current value (0 when disabled).
    pub(crate) fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
impl Histogram {
    /// Total observation count (0 when disabled).
    pub(crate) fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of all observed values (0 when disabled).
    pub(crate) fn sum(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.sum.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_free_and_empty() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("x_total", &[]);
        let h = reg.histogram("x_ns", &[], LATENCY_NS_BUCKETS);
        c.inc();
        h.observe(123);
        drop(h.start_span());
        assert_eq!((c.get(), h.count()), (0, 0));
        assert!(reg.snapshot().samples.is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn same_key_shares_a_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits_total", &[("path", "inline")]);
        let b = reg.counter("hits_total", &[("path", "inline")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Label order does not matter for identity.
        let c = reg.counter("multi", &[("a", "1"), ("b", "2")]);
        let d = reg.counter("multi", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_totals() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[], &[10, 100, 1000]);
        for v in [5u64, 10, 11, 99, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 99 + 5000);
        let snap = reg.snapshot();
        match &snap.samples[0].value {
            SampleValue::Histogram { counts, .. } => {
                assert_eq!(
                    &counts[..],
                    &[2, 2, 0, 1],
                    "le=10 gets 5 and 10; +Inf gets 5000"
                );
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn logical_spans_are_deterministic() {
        let trace = |reg: &MetricsRegistry| {
            let h = reg.histogram("phase_ticks", &[], DEPTH_BUCKETS);
            for _ in 0..4 {
                let _s = h.start_span();
            }
            reg.snapshot().render_prometheus()
        };
        let a = trace(&MetricsRegistry::new_logical());
        let b = trace(&MetricsRegistry::new_logical());
        assert_eq!(a, b, "logical-clock exposition must be byte-equal");
        assert!(MetricsRegistry::new_logical().is_logical());
        assert!(!MetricsRegistry::new().is_logical());
    }

    #[test]
    fn wall_span_records_something() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[], LATENCY_NS_BUCKETS);
        drop(h.start_span());
        assert_eq!(h.count(), 1);
    }
}
