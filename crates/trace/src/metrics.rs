//! Counters, gauges, and histograms with a deterministic text dump.
//!
//! [`MetricsRegistry`] is the aggregate view next to the event stream:
//! where a trace answers "what happened, when", metrics answer "how
//! much, overall". The registry also implements [`TraceSink`], so it
//! can be attached to a [`crate::Tracer`] directly and aggregate the
//! event stream without any extra instrumentation.

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Running summary of an observed value series.
///
/// Keeps every sample (sorted) so exact percentiles are available —
/// the series here are per-mission, small enough that an exact answer
/// beats a sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// All observations, kept sorted ascending (insertion point found
    /// by binary search, so `observe` is O(log n) + shift).
    samples: Vec<f64>,
}

impl Histogram {
    /// Fold one observation in.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let at = self.samples.partition_point(|s| *s < v);
        self.samples.insert(at, v);
    }

    /// Exact nearest-rank percentile: the smallest sample such that at
    /// least `p`% of observations are ≤ it. `p` is clamped to
    /// `[0, 100]`; an empty histogram reports 0 (like `min`/`max`).
    ///
    /// ```
    /// use lgv_trace::Histogram;
    ///
    /// let mut h = Histogram::default();
    /// for v in [10.0, 20.0, 30.0, 40.0] {
    ///     h.observe(v);
    /// }
    /// assert_eq!(h.percentile(50.0), 20.0);
    /// assert_eq!(h.percentile(95.0), 40.0);
    /// assert_eq!(h.percentile(0.0), 10.0);
    /// ```
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.max(1) - 1]
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another histogram's observations into this one, as if every
    /// one of `other`'s samples had been [`Histogram::observe`]d here.
    /// Percentiles over the merged set stay exact — this is the
    /// small-N aggregation path (per-mission series); for fleet-scale
    /// series use [`StreamingHistogram`], which merges in bounded
    /// memory.
    ///
    /// ```
    /// use lgv_trace::Histogram;
    ///
    /// let mut a = Histogram::default();
    /// a.observe(10.0);
    /// a.observe(30.0);
    /// let mut b = Histogram::default();
    /// b.observe(20.0);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 3);
    /// assert_eq!(a.percentile(50.0), 20.0);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        // Both sample vectors are sorted: merge-join instead of N
        // binary-search inserts.
        let mut merged = Vec::with_capacity(self.samples.len() + other.samples.len());
        let (mut i, mut j) = (0, 0);
        while i < self.samples.len() && j < other.samples.len() {
            if self.samples[i] <= other.samples[j] {
                merged.push(self.samples[i]);
                i += 1;
            } else {
                merged.push(other.samples[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.samples[i..]);
        merged.extend_from_slice(&other.samples[j..]);
        self.samples = merged;
    }
}

/// Quantization granularity of [`StreamingHistogram`]'s log bins:
/// sub-buckets per octave. 16 gives a worst-case relative quantile
/// error of `2^(1/16) − 1 ≈ 4.4%`.
const STREAM_SUBBUCKETS: f64 = 16.0;

/// Bounded-memory histogram for fleet-scale series.
///
/// Up to `cap` observations it behaves exactly like [`Histogram`]
/// (every sample kept, percentiles exact). Past the cap it switches to
/// sparse log-quantized bins — HdrHistogram-style, 16 sub-buckets per
/// octave, sign-mirrored for negative values — so memory is bounded by
/// the *dynamic range* of the series (a few hundred bins in practice),
/// not its length, and quantiles carry ≤ ~4.4% relative error.
/// `count`/`sum`/`min`/`max`/`mean` stay exact in both modes.
///
/// [`StreamingHistogram::merge`] adds bin counts, so 1000 per-vehicle
/// histograms aggregate into one without ever materializing the
/// combined sample set.
///
/// ```
/// use lgv_trace::StreamingHistogram;
///
/// let mut h = StreamingHistogram::with_cap(4);
/// for v in [10.0, 20.0, 30.0, 40.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.percentile(50.0), 20.0); // under cap: exact
/// h.observe(50.0); // crosses the cap: log-binned from here on
/// assert!((h.percentile(100.0) - 50.0).abs() / 50.0 < 0.045);
/// assert_eq!(h.count(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingHistogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Exact-mode cap: number of samples to keep before degrading to
    /// bins. 0 means bins-only from the first observation.
    cap: usize,
    /// Exact mode: sorted samples (only while `bins` is empty).
    samples: Vec<f64>,
    /// Streaming mode: sparse log-quantized bins, key → count.
    bins: BTreeMap<i64, u64>,
}

impl StreamingHistogram {
    /// Default exact-mode cap: plenty for per-mission series, small
    /// enough that a stuck-in-exact-mode histogram is never the memory
    /// problem.
    pub const DEFAULT_CAP: usize = 4096;

    /// A streaming histogram with the [`StreamingHistogram::DEFAULT_CAP`].
    pub fn new() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }

    /// A streaming histogram that keeps exact samples up to `cap`
    /// observations, then degrades to log bins.
    pub fn with_cap(cap: usize) -> Self {
        StreamingHistogram {
            cap,
            ..Default::default()
        }
    }

    /// Sign-mirrored log-quantized bin key. 0 maps to key 0; positive
    /// `v` to `1 + floor(16·log2(v)) + K` (offset `K` keeps keys for
    /// tiny values positive); negative `v` mirrors to the negation.
    fn key(v: f64) -> i64 {
        const K: i64 = 1 << 20;
        if v == 0.0 {
            return 0;
        }
        let q = (v.abs().log2() * STREAM_SUBBUCKETS).floor() as i64;
        let k = 1 + (q + K).max(1);
        if v < 0.0 {
            -k
        } else {
            k
        }
    }

    /// Representative value of a bin: the geometric midpoint of the
    /// quantization interval the key covers.
    fn rep(key: i64) -> f64 {
        const K: i64 = 1 << 20;
        if key == 0 {
            return 0.0;
        }
        let q = (key.abs() - 1 - K).max(1 - K);
        let v = ((q as f64 + 0.5) / STREAM_SUBBUCKETS).exp2();
        if key < 0 {
            -v
        } else {
            v
        }
    }

    fn spill_to_bins(&mut self) {
        for &s in &self.samples {
            *self.bins.entry(Self::key(s)).or_insert(0) += 1;
        }
        self.samples = Vec::new();
    }

    /// Fold one observation in.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if self.bins.is_empty() && self.samples.len() < self.cap {
            let at = self.samples.partition_point(|s| *s < v);
            self.samples.insert(at, v);
        } else {
            if !self.samples.is_empty() {
                self.spill_to_bins();
            }
            *self.bins.entry(Self::key(v)).or_insert(0) += 1;
        }
    }

    /// Nearest-rank percentile: exact while under the cap, quantized
    /// (≤ ~4.4% relative error) once streaming. Clamped to the exact
    /// observed `[min, max]` in both modes; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if !self.samples.is_empty() {
            return self.samples[(rank - 1) as usize];
        }
        // The extreme ranks are tracked exactly in both modes.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0;
        for (&key, &n) in &self.bins {
            seen += n;
            if seen >= rank {
                return Self::rep(key).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another streaming histogram in — bounded memory in both
    /// directions (bin counts add; exact+exact stays exact only if the
    /// merged size fits this histogram's cap).
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let cap = self.cap;
            *self = other.clone();
            self.cap = cap;
            if self.samples.len() > self.cap {
                self.spill_to_bins();
            }
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        let fits_exact = self.bins.is_empty()
            && other.bins.is_empty()
            && self.samples.len() + other.samples.len() <= self.cap;
        if fits_exact {
            for &s in &other.samples {
                let at = self.samples.partition_point(|x| *x < s);
                self.samples.insert(at, s);
            }
            return;
        }
        self.spill_to_bins();
        for &s in &other.samples {
            *self.bins.entry(Self::key(s)).or_insert(0) += 1;
        }
        for (&key, &n) in &other.bins {
            *self.bins.entry(key).or_insert(0) += n;
        }
    }

    /// Whether percentiles are still exact (sample mode, under the cap).
    pub fn is_exact(&self) -> bool {
        self.bins.is_empty()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (exact in both modes).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (exact in both modes; 0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (exact in both modes; 0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (exact in both modes; 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are free-form dotted strings (`"bus.drops"`). Storage is
/// `BTreeMap`, so [`MetricsRegistry::dump`] is sorted and
/// deterministic.
///
/// ```
/// use lgv_trace::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("bus.publishes");
/// m.inc_by("bus.publishes", 2);
/// m.set_gauge("battery.soc", 0.93);
/// m.observe("rtt_ms", 24.0);
/// m.observe("rtt_ms", 30.0);
///
/// assert_eq!(m.counter("bus.publishes"), 3);
/// assert_eq!(m.gauge("battery.soc"), Some(0.93));
/// assert_eq!(m.histogram("rtt_ms").unwrap().mean(), 27.0);
/// assert!(m.dump().contains("counter bus.publishes 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment a counter by 1.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn inc_by(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Fold a value into a histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Latest gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Render every metric as sorted, deterministic text: one
    /// `counter|gauge|hist <name> <value…>` line per metric.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v:?}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist {name} count={} min={:?} mean={:?} p50={:?} p95={:?} p99={:?} max={:?}",
                h.count(),
                h.min(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max()
            );
        }
        out
    }
}

/// Attached as a sink, the registry aggregates the event stream:
/// per-kind event counters, outcome counters for channel sends,
/// latency/energy histograms, and latest-value gauges for the
/// controller and battery signals.
impl TraceSink for MetricsRegistry {
    fn record(&mut self, rec: &TraceRecord) {
        self.inc_by(&format!("events.{}", rec.event.kind()), 1);
        match &rec.event {
            TraceEvent::BusDrop { topic, .. } => self.inc_by(&format!("bus.drops.{topic}"), 1),
            TraceEvent::ChannelSend { dir, outcome, .. } => {
                self.inc_by(&format!("channel.{dir}.{}", outcome.as_str()), 1)
            }
            TraceEvent::ChannelLoss { dir, .. } => {
                self.inc_by(&format!("channel.{dir}.radio_loss"), 1)
            }
            TraceEvent::ChannelDeliver {
                dir, latency_ns, ..
            } => {
                self.inc_by(&format!("channel.{dir}.delivered"), 1);
                self.observe(&format!("latency_ms.{dir}"), *latency_ns as f64 / 1e6);
            }
            TraceEvent::RttSample { rtt_ns } => {
                self.observe("rtt_ms", *rtt_ns as f64 / 1e6);
            }
            TraceEvent::ProfileSample { node, nanos, .. } => {
                self.observe(&format!("proc_ms.{node}"), *nanos as f64 / 1e6);
            }
            TraceEvent::ControlDecision {
                bandwidth,
                max_linear,
                ..
            } => {
                self.set_gauge("control.bandwidth", *bandwidth);
                self.set_gauge("control.max_linear", *max_linear);
            }
            TraceEvent::GovernorDecision { threads, .. } => {
                self.set_gauge("governor.threads", f64::from(*threads));
            }
            TraceEvent::EnergyDelta { component, joules } => {
                self.observe(&format!("energy_j.{component}"), *joules);
            }
            TraceEvent::MissionProgress { battery_soc, .. } => {
                self.set_gauge("battery.soc", *battery_soc);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.observe(2.0);
        h.observe(4.0);
        h.observe(-1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 4.0);
        assert!((h.mean() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let empty = Histogram::default();
        assert_eq!(empty.percentile(50.0), 0.0);

        let mut h = Histogram::default();
        // Insert out of order to exercise the sorted-insert path.
        for v in [50.0, 10.0, 40.0, 20.0, 30.0, 60.0, 90.0, 70.0, 100.0, 80.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(95.0), 100.0);
        assert_eq!(h.percentile(99.0), 100.0);
        assert_eq!(h.percentile(10.0), 10.0);
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(-5.0), 10.0);
        assert_eq!(h.percentile(250.0), 100.0);
    }

    #[test]
    fn histogram_merge_matches_interleaved_observe() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for (i, v) in [5.0, -2.0, 9.0, 9.0, 0.5, 7.25].iter().enumerate() {
            if i % 2 == 0 {
                a.observe(*v);
            } else {
                b.observe(*v);
            }
            both.observe(*v);
        }
        a.merge(&b);
        assert_eq!(a, both);

        // Merging into/with an empty histogram is the identity.
        let mut empty = Histogram::default();
        empty.merge(&both);
        assert_eq!(empty, both);
        both.merge(&Histogram::default());
        assert_eq!(empty, both);
    }

    #[test]
    fn streaming_histogram_is_exact_under_cap() {
        let mut s = StreamingHistogram::with_cap(16);
        let mut h = Histogram::default();
        for v in [50.0, 10.0, 40.0, 20.0, 30.0] {
            s.observe(v);
            h.observe(v);
        }
        assert!(s.is_exact());
        for p in [0.0, 10.0, 50.0, 95.0, 100.0] {
            assert_eq!(s.percentile(p), h.percentile(p));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), h.mean());
    }

    #[test]
    fn streaming_histogram_bounds_memory_and_error_past_cap() {
        let mut s = StreamingHistogram::with_cap(32);
        for i in 0..10_000 {
            // Wide dynamic range: 1..=10000.
            s.observe((i + 1) as f64);
        }
        assert!(!s.is_exact());
        // Memory is bounded by dynamic range: log2(10000) * 16 ≈ 213
        // bins, not 10k samples.
        assert!(s.bins.len() <= 256, "bins: {}", s.bins.len());
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10_000.0);
        assert!((s.sum() - 50_005_000.0).abs() < 1e-6);
        for (p, exact) in [(50.0, 5000.0), (95.0, 9500.0), (99.0, 9900.0)] {
            let got = s.percentile(p);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.045, "p{p}: got {got}, exact {exact}, rel {rel}");
        }
        // Extremes clamp to the exact observed range.
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 10_000.0);
    }

    #[test]
    fn streaming_histogram_handles_zero_and_negatives() {
        let mut s = StreamingHistogram::with_cap(2);
        for v in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            s.observe(v);
        }
        assert!(!s.is_exact());
        assert_eq!(s.min(), -100.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.percentile(0.0), -100.0);
        let mid = s.percentile(50.0);
        assert_eq!(mid, 0.0, "median of the 5 is the zero bin");
    }

    #[test]
    fn streaming_histogram_merge_adds_bins() {
        let mut a = StreamingHistogram::with_cap(4);
        let mut b = StreamingHistogram::with_cap(4);
        let mut whole = StreamingHistogram::with_cap(4);
        for i in 0..50 {
            let v = (i + 1) as f64;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Same bins, because binning is value-deterministic.
        assert_eq!(a.bins, whole.bins);

        // Exact + exact under cap stays exact.
        let mut c = StreamingHistogram::with_cap(16);
        c.observe(3.0);
        let mut d = StreamingHistogram::with_cap(16);
        d.observe(1.0);
        d.observe(2.0);
        c.merge(&d);
        assert!(c.is_exact());
        assert_eq!(c.percentile(50.0), 2.0);

        // Merge into empty adopts the source but keeps the local cap.
        let mut e = StreamingHistogram::with_cap(1);
        e.merge(&d);
        assert_eq!(e.count(), 2);
        assert!(!e.is_exact(), "2 samples exceed cap 1, spilled to bins");
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn percentile_clamps_p_to_the_sample_range() {
        let mut h = Histogram::default();
        for v in [5.0, 1.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(-10.0), 1.0);
        assert_eq!(h.percentile(250.0), 5.0);
        assert_eq!(h.percentile(100.0), 5.0);
        assert_eq!(h.sum(), 9.0);
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut h = Histogram::default();
        h.observe(2.0);
        h.observe(7.0);
        let before = h.clone();
        h.merge(&Histogram::default());
        assert_eq!(h, before);
        let mut empty = Histogram::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn registry_lookups_of_unknown_names_are_empty() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("nope"), 0);
        assert_eq!(m.gauge("nope"), None);
        assert!(m.histogram("nope").is_none());
        assert!(m.dump().is_empty());
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5), "gauges keep the latest value");
    }

    #[test]
    fn registry_sink_tracks_losses_gauges_and_energy() {
        use crate::span::{MsgId, SpanId};
        let mut m = MetricsRegistry::new();
        for (seq, event) in [
            TraceEvent::ChannelLoss {
                dir: "down".into(),
                seq: 4,
                msg: MsgId(3),
            },
            TraceEvent::GovernorDecision {
                mean_gap: 0.1,
                threads: 6,
            },
            TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 1.5,
            },
            TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 0.5,
            },
            TraceEvent::MigrationAbort,
        ]
        .into_iter()
        .enumerate()
        {
            m.record(&TraceRecord {
                t_ns: 0,
                seq: seq as u64,
                span: SpanId::NONE,
                vehicle: 0,
                event,
            });
        }
        assert_eq!(m.counter("channel.down.radio_loss"), 1);
        assert_eq!(m.gauge("governor.threads"), Some(6.0));
        assert_eq!(m.histogram("energy_j.motor").unwrap().sum(), 2.0);
        assert_eq!(m.counter("events.energy_delta"), 2);
        assert_eq!(m.counter("events.migration_abort"), 1);
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.set_gauge("mid", 1.5);
        m.observe("h", 3.0);
        let d = m.dump();
        let a = d.find("counter a.first").unwrap();
        let z = d.find("counter z.last").unwrap();
        assert!(a < z);
        assert!(d.contains("gauge mid 1.5"));
        assert!(d.contains("hist h count=1 min=3.0 mean=3.0 p50=3.0 p95=3.0 p99=3.0 max=3.0"));
    }

    #[test]
    fn registry_aggregates_events_as_a_sink() {
        use crate::event::SendKind;
        use crate::span::{MsgId, SpanId};
        let mut m = MetricsRegistry::new();
        let mk = |seq, event| TraceRecord {
            t_ns: 0,
            seq,
            span: SpanId::NONE,
            vehicle: 0,
            event,
        };
        m.record(&mk(0, TraceEvent::RttSample { rtt_ns: 2_000_000 }));
        m.record(&mk(
            1,
            TraceEvent::ChannelSend {
                dir: "up".into(),
                seq: 0,
                bytes: 8,
                outcome: SendKind::Discarded,
                msg: MsgId(1),
            },
        ));
        m.record(&mk(
            2,
            TraceEvent::BusDrop {
                topic: "scan".into(),
                msg: MsgId(1),
            },
        ));
        m.record(&mk(
            3,
            TraceEvent::ChannelDeliver {
                dir: "up".into(),
                seq: 1,
                msg: MsgId(2),
                latency_ns: 3_000_000,
            },
        ));
        assert_eq!(m.counter("events.rtt_sample"), 1);
        assert_eq!(m.counter("channel.up.discarded"), 1);
        assert_eq!(m.counter("bus.drops.scan"), 1);
        assert_eq!(m.counter("channel.up.delivered"), 1);
        assert_eq!(m.histogram("rtt_ms").unwrap().max(), 2.0);
        assert_eq!(m.histogram("latency_ms.up").unwrap().max(), 3.0);
    }
}
