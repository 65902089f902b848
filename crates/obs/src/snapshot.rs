//! Typed metric snapshots: merging, a hand-written binary codec (so a
//! snapshot can cross the cluster wire without `ce-obs` growing a serde
//! dependency), and Prometheus text exposition with a parser good enough
//! to round-trip our own renderer's output in tests.

use std::fmt;

/// What a sample is, without its value. Used by exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample's value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(u64),
    /// Distribution: per-bucket counts (one per bound plus the +Inf
    /// overflow bucket, non-cumulative), total sum and count.
    Histogram {
        /// Finite bucket upper bounds, strictly increasing.
        bounds: Vec<u64>,
        /// Non-cumulative per-bucket counts; `counts.len() == bounds.len() + 1`.
        counts: Vec<u64>,
        /// Sum of all observations.
        sum: u64,
        /// Total observation count.
        count: u64,
    },
}

impl SampleValue {
    /// The sample's kind tag.
    pub fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram { .. } => MetricKind::Histogram,
        }
    }
}

/// One named, labelled sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric family name (stable names are API — see
    /// `docs/observability.md`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SampleValue,
}

impl Sample {
    fn key(&self) -> (&str, &[(String, String)]) {
        (&self.name, &self.labels)
    }
}

/// Decode/parse failures for [`MetricsSnapshot::from_bytes`] and
/// [`parse_prometheus`].
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Binary payload truncated or structurally invalid.
    Corrupt(&'static str),
    /// Text line that does not parse, with the offending line.
    BadLine(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::BadLine(line) => write!(f, "unparseable exposition line: {line:?}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Magic prefix of the binary snapshot encoding.
const SNAPSHOT_MAGIC: &[u8; 4] = b"CEOB";
/// Version of the binary snapshot encoding.
const SNAPSHOT_VERSION: u16 = 1;

/// A point-in-time set of samples in stable `(name, labels)` order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The samples, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// An empty snapshot (what a disabled registry and the default
    /// `AdvisorBackend::metrics` return).
    pub fn empty() -> Self {
        MetricsSnapshot::default()
    }

    /// Restores the stable order invariant. Called by every constructor
    /// path; callers mutating `samples` directly should re-call it.
    pub fn normalize(&mut self) {
        self.samples.sort_by(|a, b| a.key().cmp(&b.key()));
    }

    /// Looks up one sample by exact name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut l: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        l.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == l)
            .map(|s| &s.value)
    }

    /// Convenience: the value of a counter sample, 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: `(sum, count)` of a histogram sample, zeros when
    /// absent.
    pub fn histogram_totals(&self, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
        match self.get(name, labels) {
            Some(SampleValue::Histogram { sum, count, .. }) => (*sum, *count),
            _ => (0, 0),
        }
    }

    /// Adds a label pair to every sample (used by the coordinator to tag
    /// per-shard snapshots with `range`/`replica` before merging, so
    /// same-named families stay distinguishable).
    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        for s in &mut self.samples {
            s.labels.push((key.to_string(), value.to_string()));
            s.labels.sort();
        }
        self.normalize();
        self
    }

    /// Merges `other` into `self`: counters and gauges add, histograms
    /// add bucket-wise when bounds agree (mismatched bounds keep `self`'s
    /// sample untouched — bounds are compile-time constants, so a
    /// mismatch means two builds disagree and silently mixing them would
    /// lie). Samples only in `other` are appended.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for theirs in &other.samples {
            match self.samples.iter_mut().find(|s| s.key() == theirs.key()) {
                None => self.samples.push(theirs.clone()),
                Some(ours) => match (&mut ours.value, &theirs.value) {
                    (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
                    (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a += b,
                    (
                        SampleValue::Histogram {
                            bounds: ba,
                            counts: ca,
                            sum: sa,
                            count: na,
                        },
                        SampleValue::Histogram {
                            bounds: bb,
                            counts: cb,
                            sum: sb,
                            count: nb,
                        },
                    ) if ba == bb => {
                        for (a, b) in ca.iter_mut().zip(cb) {
                            *a += b;
                        }
                        *sa += sb;
                        *na += nb;
                    }
                    _ => {}
                },
            }
        }
        self.normalize();
    }

    /// Binary encoding for the cluster wire (`ShardSendMetrics`
    /// payloads). Hand-written and std-only so `ce-obs` stays
    /// dependency-free.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.samples.len() as u32).to_le_bytes());
        for s in &self.samples {
            put_str(&mut out, &s.name);
            out.extend_from_slice(&(s.labels.len() as u32).to_le_bytes());
            for (k, v) in &s.labels {
                put_str(&mut out, k);
                put_str(&mut out, v);
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                SampleValue::Gauge(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    out.push(2);
                    put_u64s(&mut out, bounds);
                    put_u64s(&mut out, counts);
                    out.extend_from_slice(&sum.to_le_bytes());
                    out.extend_from_slice(&count.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes [`MetricsSnapshot::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        struct R<'a>(&'a [u8]);
        impl<'a> R<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
                if self.0.len() < n {
                    return Err(SnapshotError::Corrupt("truncated"));
                }
                let (head, tail) = self.0.split_at(n);
                self.0 = tail;
                Ok(head)
            }
            fn u64(&mut self) -> Result<u64, SnapshotError> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
            fn u32(&mut self) -> Result<u32, SnapshotError> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn str(&mut self) -> Result<String, SnapshotError> {
                let n = self.u32()? as usize;
                if n > self.0.len() {
                    return Err(SnapshotError::Corrupt("string length overruns payload"));
                }
                String::from_utf8(self.take(n)?.to_vec())
                    .map_err(|_| SnapshotError::Corrupt("non-utf8 string"))
            }
            fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
                let n = self.u32()? as usize;
                if n > self.0.len() / 8 {
                    return Err(SnapshotError::Corrupt("u64 array overruns payload"));
                }
                (0..n).map(|_| self.u64()).collect()
            }
        }
        let mut r = R(bytes);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Corrupt("bad magic"));
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Corrupt("unknown snapshot version"));
        }
        let n = r.u32()? as usize;
        let mut samples = Vec::new();
        for _ in 0..n {
            let name = r.str()?;
            let nlabels = r.u32()? as usize;
            let mut labels = Vec::with_capacity(nlabels.min(64));
            for _ in 0..nlabels {
                let k = r.str()?;
                let v = r.str()?;
                labels.push((k, v));
            }
            let value = match r.take(1)?[0] {
                0 => SampleValue::Counter(r.u64()?),
                1 => SampleValue::Gauge(r.u64()?),
                2 => {
                    let bounds = r.u64s()?;
                    let counts = r.u64s()?;
                    if counts.len() != bounds.len() + 1 {
                        return Err(SnapshotError::Corrupt("bucket count mismatch"));
                    }
                    SampleValue::Histogram {
                        bounds,
                        counts,
                        sum: r.u64()?,
                        count: r.u64()?,
                    }
                }
                _ => return Err(SnapshotError::Corrupt("unknown sample kind")),
            };
            samples.push(Sample {
                name,
                labels,
                value,
            });
        }
        if !r.0.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        let mut snap = MetricsSnapshot { samples };
        snap.normalize();
        Ok(snap)
    }

    /// Renders Prometheus text exposition. Families appear in stable
    /// `(name, labels)` order with one `# TYPE` line each; histogram
    /// buckets are cumulative with a final `le="+Inf"`, plus `_sum` and
    /// `_count` series. All values are exact integers, so
    /// render → [`parse_prometheus`] → render is byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for s in &self.samples {
            if last_family != Some(s.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", s.name, s.value.kind().as_str()));
                last_family = Some(s.name.as_str());
            }
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        render_labels(&s.labels, None),
                        v
                    ));
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cumulative += c;
                        let le = bounds
                            .get(i)
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "+Inf".to_string());
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            s.name,
                            render_labels(&s.labels, Some(&le)),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        render_labels(&s.labels, None),
                        sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        s.name,
                        render_labels(&s.labels, None),
                        count
                    ));
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses the output of [`MetricsSnapshot::render_prometheus`] back into
/// a snapshot. This is a test/verification tool: it understands exactly
/// the subset our renderer emits (integer values, `# TYPE` comments,
/// cumulative histogram buckets).
pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
    use std::collections::BTreeMap;

    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    // (family, labels) -> partially assembled histogram.
    type HistKey = (String, Vec<(String, String)>);
    struct PartialHist {
        // (le bound or None for +Inf, cumulative count)
        buckets: Vec<(Option<u64>, u64)>,
        sum: Option<u64>,
        count: Option<u64>,
    }
    let mut hists: Vec<(HistKey, PartialHist)> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();

    fn bad(line: &str) -> SnapshotError {
        SnapshotError::BadLine(line.to_string())
    }

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| bad(line))?;
            let kind = match it.next() {
                Some("counter") => MetricKind::Counter,
                Some("gauge") => MetricKind::Gauge,
                Some("histogram") => MetricKind::Histogram,
                _ => return Err(bad(line)),
            };
            kinds.insert(name.to_string(), kind);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`.
        let (name_labels, value) = line.rsplit_once(' ').ok_or_else(|| bad(line))?;
        let value: u64 = value.parse().map_err(|_| bad(line))?;
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| bad(line))?;
                let mut labels = Vec::new();
                for pair in split_label_pairs(body) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| bad(line))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| bad(line))?;
                    labels.push((k.to_string(), unescape_label(v)));
                }
                (name.to_string(), labels)
            }
        };
        // Histogram series are recognized by suffix + declared family kind.
        let family_of = |suffix: &str| -> Option<String> {
            name.strip_suffix(suffix)
                .filter(|f| kinds.get(*f) == Some(&MetricKind::Histogram))
                .map(str::to_string)
        };
        if let Some(family) = family_of("_bucket") {
            let mut rest: Vec<(String, String)> = Vec::new();
            let mut le: Option<String> = None;
            for (k, v) in labels {
                if k == "le" {
                    le = Some(v);
                } else {
                    rest.push((k, v));
                }
            }
            let le = le.ok_or_else(|| bad(line))?;
            let bound = if le == "+Inf" {
                None
            } else {
                Some(le.parse::<u64>().map_err(|_| bad(line))?)
            };
            rest.sort();
            let key = (family, rest);
            let slot = match hists.iter_mut().find(|(k, _)| *k == key) {
                Some((_, h)) => h,
                None => {
                    hists.push((
                        key,
                        PartialHist {
                            buckets: Vec::new(),
                            sum: None,
                            count: None,
                        },
                    ));
                    &mut hists.last_mut().unwrap().1
                }
            };
            slot.buckets.push((bound, value));
            continue;
        }
        for suffix in ["_sum", "_count"] {
            if let Some(family) = family_of(suffix) {
                let mut rest = labels.clone();
                rest.sort();
                let key = (family, rest);
                let slot = match hists.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, h)) => h,
                    None => {
                        hists.push((
                            key,
                            PartialHist {
                                buckets: Vec::new(),
                                sum: None,
                                count: None,
                            },
                        ));
                        &mut hists.last_mut().unwrap().1
                    }
                };
                if suffix == "_sum" {
                    slot.sum = Some(value);
                } else {
                    slot.count = Some(value);
                }
            }
        }
        if name.ends_with("_sum") || name.ends_with("_count") || name.ends_with("_bucket") {
            let family = name
                .rsplit_once('_')
                .map(|(f, _)| f.to_string())
                .unwrap_or_default();
            if kinds.get(&family) == Some(&MetricKind::Histogram) {
                continue; // handled above
            }
        }
        let kind = kinds.get(&name).copied().unwrap_or(MetricKind::Counter);
        let mut labels = labels;
        labels.sort();
        samples.push(Sample {
            name,
            labels,
            value: match kind {
                MetricKind::Gauge => SampleValue::Gauge(value),
                _ => SampleValue::Counter(value),
            },
        });
    }

    for ((name, labels), h) in hists {
        let mut buckets = h.buckets;
        // +Inf sorts last; finite bounds ascending.
        buckets.sort_by_key(|(b, _)| b.map(|v| (0u8, v)).unwrap_or((1, 0)));
        let bounds: Vec<u64> = buckets.iter().filter_map(|(b, _)| *b).collect();
        // De-cumulate.
        let mut counts = Vec::with_capacity(buckets.len());
        let mut prev = 0u64;
        for (_, cumulative) in &buckets {
            counts.push(
                cumulative
                    .checked_sub(prev)
                    .ok_or(SnapshotError::Corrupt("non-monotone cumulative buckets"))?,
            );
            prev = *cumulative;
        }
        if counts.len() != bounds.len() + 1 {
            return Err(SnapshotError::Corrupt("histogram missing +Inf bucket"));
        }
        samples.push(Sample {
            name,
            labels,
            value: SampleValue::Histogram {
                bounds,
                counts,
                sum: h
                    .sum
                    .ok_or(SnapshotError::Corrupt("histogram missing _sum"))?,
                count: h
                    .count
                    .ok_or(SnapshotError::Corrupt("histogram missing _count"))?,
            },
        });
    }

    let mut snap = MetricsSnapshot { samples };
    snap.normalize();
    Ok(snap)
}

/// Splits `a="1",b="2,3"` into pairs, respecting quotes (label values may
/// contain commas).
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth_quote = false;
    let mut start = 0;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => depth_quote = !depth_quote,
            b',' if !depth_quote => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < body.len() {
        parts.push(&body[start..]);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            samples: vec![
                Sample {
                    name: "ce_serve_cache_hits_total".into(),
                    labels: vec![],
                    value: SampleValue::Counter(42),
                },
                Sample {
                    name: "ce_cluster_nacks_total".into(),
                    labels: vec![("code".into(), "stale_table".into())],
                    value: SampleValue::Counter(3),
                },
                Sample {
                    name: "ce_serve_queue_depth".into(),
                    labels: vec![],
                    value: SampleValue::Gauge(7),
                },
                Sample {
                    name: "ce_serve_batch_depth".into(),
                    labels: vec![],
                    value: SampleValue::Histogram {
                        bounds: vec![1, 2, 4, 8],
                        counts: vec![5, 3, 0, 2, 1],
                        sum: 61,
                        count: 11,
                    },
                },
            ],
        };
        s.normalize();
        s
    }

    #[test]
    fn binary_roundtrip() {
        let s = sample_snapshot();
        let decoded = MetricsSnapshot::from_bytes(&s.to_bytes()).expect("decode");
        assert_eq!(decoded, s);
    }

    #[test]
    fn corrupt_bytes_error_not_panic() {
        let bytes = sample_snapshot().to_bytes();
        for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(MetricsSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(MetricsSnapshot::from_bytes(&bad_magic).is_err());
        // Hostile length prefix must not allocate absurdly or panic.
        let mut hostile = bytes;
        let len = hostile.len();
        hostile[len - 1] = 0xff;
        let _ = MetricsSnapshot::from_bytes(&hostile);
    }

    #[test]
    fn prometheus_roundtrip_is_byte_identical() {
        let s = sample_snapshot();
        let text = s.render_prometheus();
        let parsed = parse_prometheus(&text).expect("parse");
        assert_eq!(parsed, s);
        assert_eq!(parsed.render_prometheus(), text);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(
            a.counter("ce_serve_cache_hits_total", &[]),
            84,
            "counters add"
        );
        assert_eq!(a.histogram_totals("ce_serve_batch_depth", &[]), (122, 22));
        // A sample only in `other` is appended.
        let mut c = MetricsSnapshot::empty();
        c.merge(&b);
        assert_eq!(c, b);
    }

    #[test]
    fn with_label_tags_every_sample() {
        let s = sample_snapshot().with_label("range", "2");
        for sample in &s.samples {
            assert!(sample.labels.iter().any(|(k, v)| k == "range" && v == "2"));
        }
        assert_eq!(
            s.counter("ce_serve_cache_hits_total", &[("range", "2")]),
            42
        );
    }

    #[test]
    fn histogram_rendering_is_cumulative() {
        let text = sample_snapshot().render_prometheus();
        assert!(text.contains("ce_serve_batch_depth_bucket{le=\"1\"} 5"));
        assert!(text.contains("ce_serve_batch_depth_bucket{le=\"2\"} 8"));
        assert!(text.contains("ce_serve_batch_depth_bucket{le=\"+Inf\"} 11"));
        assert!(text.contains("ce_serve_batch_depth_sum 61"));
        assert!(text.contains("ce_serve_batch_depth_count 11"));
    }
}
