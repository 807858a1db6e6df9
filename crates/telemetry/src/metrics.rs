//! A process-wide registry of named counters, gauges, and histograms.
//!
//! Handles are cheap `Arc`-backed atomics: fetch one once (e.g. in a
//! `OnceLock`) and update it lock-free forever after. The registry itself is
//! only locked on handle creation and on `snapshot()` / `reset()`, so the
//! hot path never contends.
//!
//! `reset()` zeroes values **in place** — existing handles keep working and
//! observe the reset. That, plus `snapshot()` / `delta_since()`, is what lets
//! concurrently-running tests measure their own contribution to process-wide
//! counters instead of each other's totals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically-increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (last write wins).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-two sample buckets: index 0 holds zeros, index `i` holds values
/// in `[2^(i-1), 2^i)`. 65 buckets cover the whole `u64` range.
const NUM_BUCKETS: usize = 65;

/// The bucket a sample lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A representative value for quantile estimates: the midpoint of the
/// bucket's value range (exact for bucket 0 and 1).
fn bucket_midpoint(bucket: usize) -> u64 {
    if bucket == 0 {
        return 0;
    }
    let low = 1u64 << (bucket - 1);
    let high = low.saturating_mul(2).saturating_sub(1);
    low + (high - low) / 2
}

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

/// Distribution summary: count / sum / min / max plus p50/p90/p99 estimates
/// from power-of-two buckets (bucket-midpoint accuracy — within 2x of the
/// true quantile, and never outside the observed [min, max]; callers clamp
/// signed quantities, e.g. profit, to zero or record the magnitude).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn summary(&self) -> HistogramSummary {
        let count = self.0.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let min = if count == 0 {
            0
        } else {
            self.0.min.load(Ordering::Relaxed)
        };
        let max = self.0.max.load(Ordering::Relaxed);
        let bucket_quantile = |q: f64| -> u64 {
            let total: u64 = buckets.iter().sum();
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, at least 1.
            let target = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return bucket_midpoint(i);
                }
            }
            bucket_midpoint(NUM_BUCKETS - 1)
        };
        // A bucket midpoint can lie outside the observed range (one sample of
        // 144 sits in [128, 256), midpoint 191), so clamp it to [min, max].
        // `max` wins if a concurrent `record` left min above max.
        let quantile = |q: f64| bucket_quantile(q).max(min).min(max);
        HistogramSummary {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Estimated median (power-of-two-bucket midpoint clamped to
    /// [`Self::min`, `Self::max`]).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSummary),
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The process-wide metric registry; obtain it with [`registry`].
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Metric>>,
}

impl Registry {
    /// Get or create the counter with this name. Panics if the name is
    /// already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge with this name.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram with this name.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A consistent-enough point-in-time copy of every registered metric
    /// (names in lexicographic order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().unwrap();
        MetricsSnapshot {
            values: m
                .iter()
                .map(|(name, metric)| {
                    let v = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                    };
                    (name.to_string(), v)
                })
                .collect(),
        }
    }

    /// Zero every metric **in place**: existing handles observe the reset.
    pub fn reset(&self) {
        let m = self.metrics.lock().unwrap();
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    h.0.count.store(0, Ordering::Relaxed);
                    h.0.sum.store(0, Ordering::Relaxed);
                    h.0.min.store(u64::MAX, Ordering::Relaxed);
                    h.0.max.store(0, Ordering::Relaxed);
                    for b in &h.0.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(BTreeMap::new()),
    })
}

/// An ordered name → value map captured by [`Registry::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Per-metric difference vs. an earlier snapshot: counters and histogram
    /// count/sum subtract (saturating); gauges and histogram min/max keep
    /// their current value (levels, not accumulations).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, now)| {
                let v = match (now, earlier.values.get(name)) {
                    (MetricValue::Counter(n), Some(MetricValue::Counter(e))) => {
                        MetricValue::Counter(n.saturating_sub(*e))
                    }
                    (MetricValue::Histogram(n), Some(MetricValue::Histogram(e))) => {
                        // Count and sum subtract; min/max and the quantile
                        // estimates are levels of the current distribution.
                        MetricValue::Histogram(HistogramSummary {
                            count: n.count.saturating_sub(e.count),
                            sum: n.sum.saturating_sub(e.sum),
                            ..*n
                        })
                    }
                    (v, _) => *v,
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// JSON object grouping metrics by kind; embedded as the `telemetry`
    /// block of the report schemas (append-only).
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    counters.push_str(&format!("\"{}\":{}", crate::span::json_escape(name), v));
                }
                MetricValue::Gauge(v) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    gauges.push_str(&format!("\"{}\":{}", crate::span::json_escape(name), v));
                }
                MetricValue::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    histograms.push_str(&format!(
                        "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        crate::span::json_escape(name),
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.p50,
                        h.p90,
                        h.p99
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }

    /// Human-readable table for `salssa report --metrics`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .values
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(6);
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name:<width$}  counter    {v}\n"))
                }
                MetricValue::Gauge(v) => out.push_str(&format!("{name:<width$}  gauge      {v}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name:<width$}  histogram  count={} sum={} min={} max={} mean={:.1} p50={} p90={} p99={}\n",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `reset()` is process-wide, so tests touching the registry must not
    // interleave with each other.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_gauges_histograms_register_and_update() {
        let _l = lock();
        let c = registry().counter("test.metrics.counter");
        let g = registry().gauge("test.metrics.gauge");
        let h = registry().histogram("test.metrics.hist");
        let before = registry().snapshot();
        c.inc();
        c.add(4);
        g.set(-7);
        h.record(10);
        h.record(2);
        let snap = registry().snapshot();
        let delta = snap.delta_since(&before);
        assert_eq!(delta.counter("test.metrics.counter"), 5);
        assert_eq!(
            snap.values.get("test.metrics.gauge"),
            Some(&MetricValue::Gauge(-7))
        );
        match delta.values.get("test.metrics.hist") {
            Some(MetricValue::Histogram(s)) => {
                assert_eq!(s.count, 2);
                assert_eq!(s.sum, 12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn same_name_returns_the_same_underlying_metric() {
        let _l = lock();
        let a = registry().counter("test.metrics.same");
        let b = registry().counter("test.metrics.same");
        let base = a.get();
        a.inc();
        assert_eq!(b.get(), base + 1);
    }

    #[test]
    fn reset_zeroes_in_place_so_existing_handles_observe_it() {
        let _l = lock();
        let c = registry().counter("test.metrics.reset");
        c.add(9);
        assert!(c.get() >= 9);
        registry().reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(registry().snapshot().counter("test.metrics.reset"), 1);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bucket_accurate() {
        let _l = lock();
        let h = registry().histogram("test.metrics.quantiles");
        registry().reset();
        // 100 samples 1..=100: true p50 = 50, p90 = 90, p99 = 99.
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{s:?}");
        // Power-of-two buckets put the estimate within 2x of the truth.
        assert!((25..=100).contains(&s.p50), "p50 estimate {} off", s.p50);
        assert!((45..=180).contains(&s.p90), "p90 estimate {} off", s.p90);
        assert!((50..=198).contains(&s.p99), "p99 estimate {} off", s.p99);
        // Degenerate distributions stay exact.
        registry().reset();
        h.record(0);
        h.record(0);
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));
        let json = registry().snapshot().to_json();
        assert!(json.contains("\"p50\":0,\"p90\":0,\"p99\":0"), "{json}");
        assert!(registry().snapshot().render_table().contains("p99=0"));
    }

    #[test]
    fn quantiles_stay_within_the_observed_range() {
        // One sample of 144: its bucket midpoint (191) lies above the max.
        let h = Histogram::new();
        h.record(144);
        let s = h.summary();
        assert_eq!(
            (s.min, s.p50, s.p90, s.p99, s.max),
            (144, 144, 144, 144, 144)
        );
        // Randomized sample sets of varied sizes and magnitudes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let h = Histogram::new();
            let samples = 1 + next() % 64;
            let bits = 1 + next() % 64;
            for _ in 0..samples {
                h.record(next() >> (64 - bits));
            }
            let s = h.summary();
            assert!(
                s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
                "{s:?}"
            );
        }
    }

    #[test]
    fn snapshot_json_and_table_render() {
        let _l = lock();
        let c = registry().counter("test.metrics.json");
        c.inc();
        let snap = registry().snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"test.metrics.json\":"), "{json}");
        assert!(json.contains("\"histograms\":{"), "{json}");
        assert!(snap.render_table().contains("test.metrics.json"));
    }
}
