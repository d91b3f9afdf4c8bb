//! The mergeable metrics state: everything a recorder accumulates,
//! snapshotted as plain data so shards can hand their telemetry back
//! to the campaign thread for an order-fixed merge.

use std::collections::BTreeMap;

/// Aggregate of a gauge: a sampled value whose history is summarized
/// by its extrema and most recent sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeAgg {
    /// Most recently recorded value (under [`MetricsFrame::absorb`],
    /// the last value of the last non-empty operand, so a shard-order
    /// fold keeps the final shard's reading).
    pub last: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Number of recordings.
    pub count: u64,
}

impl GaugeAgg {
    fn record(&mut self, value: f64) {
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.count = self.count.saturating_add(1);
    }

    fn absorb(&mut self, other: &GaugeAgg) {
        if other.count > 0 {
            self.last = other.last;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
    }
}

impl Default for GaugeAgg {
    fn default() -> Self {
        GaugeAgg {
            last: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }
}

/// Aggregate of a histogram: streaming moments of an observed
/// distribution. Sums fold left-to-right under
/// [`MetricsFrame::absorb`], so a shard-order merge is bit-exact
/// (f64 addition is not associative — the order must be fixed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistAgg {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistAgg {
    fn record(&mut self, value: f64) {
        self.count = self.count.saturating_add(1);
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn absorb(&mut self, other: &HistAgg) {
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for HistAgg {
    fn default() -> Self {
        HistAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Aggregate of a span: how often a region ran and for how long.
///
/// Durations are whatever the recorder's clock measures — wall
/// nanoseconds for [`Obs::memory`](crate::Obs::memory), logical ticks
/// for [`Obs::manual`](crate::Obs::manual) — so only the counts are
/// comparable across runs; [`MetricsFrame::deterministic`] strips the
/// durations for equivalence checks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Total duration, clock units.
    pub total_ns: u64,
    /// Longest single span, clock units.
    pub max_ns: u64,
}

impl SpanAgg {
    fn record(&mut self, ns: u64) {
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn absorb(&mut self, other: &SpanAgg) {
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A snapshot of everything a recorder has accumulated.
///
/// Frames are plain mergeable data, the observability analogue of the
/// campaign stack's accumulator partials: each shard records into its
/// own frame, and the campaign thread folds the frames **in shard
/// order** with [`MetricsFrame::absorb`]. Counters and span counts are
/// commutative; f64 sums and gauge `last` values are not, which is why
/// the merge order is pinned to the plan, never to the worker count —
/// the same discipline `slm-par` imposes on trace accumulators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsFrame {
    /// Monotonic event counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Sampled values, by name.
    pub gauges: BTreeMap<String, GaugeAgg>,
    /// Observed distributions, by name.
    pub histograms: BTreeMap<String, HistAgg>,
    /// Timed regions, by name.
    pub spans: BTreeMap<String, SpanAgg>,
}

impl MetricsFrame {
    /// Adds `delta` to a counter (saturating).
    pub fn record_count(&mut self, name: &str, delta: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Records a gauge sample.
    pub fn record_gauge(&mut self, name: &str, value: f64) {
        self.gauges
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// Records a histogram observation.
    pub fn record_observation(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// Records a completed span of `ns` clock units.
    pub fn record_span(&mut self, name: &str, ns: u64) {
        self.spans.entry(name.to_owned()).or_default().record(ns);
    }

    /// The value of a counter (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The aggregate of a gauge, if it was ever sampled.
    pub fn gauge(&self, name: &str) -> Option<&GaugeAgg> {
        self.gauges.get(name)
    }

    /// The aggregate of a histogram, if it was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&HistAgg> {
        self.histograms.get(name)
    }

    /// The aggregate of a span, if it ever completed.
    pub fn span(&self, name: &str) -> Option<&SpanAgg> {
        self.spans.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Folds another frame into this one. Applying the shards' frames
    /// in shard index order makes the merged frame a pure function of
    /// the plan: counters/counts saturate-add, extrema fold by min/max,
    /// f64 sums fold left-to-right, and gauge `last` takes the last
    /// non-empty operand's reading.
    pub fn absorb(&mut self, other: &MetricsFrame) {
        for (name, &delta) in &other.counters {
            let c = self.counters.entry(name.clone()).or_insert(0);
            *c = c.saturating_add(delta);
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name.clone()).or_default().absorb(g);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().absorb(h);
        }
        for (name, s) in &other.spans {
            self.spans.entry(name.clone()).or_default().absorb(s);
        }
    }

    /// A copy with every wall-clock-dependent field zeroed: span
    /// durations go to 0 while span *counts* survive. Everything else
    /// in a frame is already a pure function of the campaign plan, so
    /// two runs of the same plan — at any worker count — must produce
    /// equal `deterministic()` views.
    pub fn deterministic(&self) -> MetricsFrame {
        let mut out = self.clone();
        for s in out.spans.values_mut() {
            s.total_ns = 0;
            s.max_ns = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate() {
        let mut f = MetricsFrame::default();
        f.record_count("x", u64::MAX - 1);
        f.record_count("x", 5);
        assert_eq!(f.counter("x"), u64::MAX);
        let mut g = MetricsFrame::default();
        g.record_count("x", 7);
        f.absorb(&g);
        assert_eq!(f.counter("x"), u64::MAX);
    }

    #[test]
    fn gauge_tracks_extrema_and_last() {
        let mut f = MetricsFrame::default();
        f.record_gauge("v", 1.0);
        f.record_gauge("v", -2.0);
        f.record_gauge("v", 0.5);
        let g = f.gauges["v"];
        assert_eq!(g.min, -2.0);
        assert_eq!(g.max, 1.0);
        assert_eq!(g.last, 0.5);
        assert_eq!(g.count, 3);
    }

    #[test]
    fn absorb_in_shard_order_is_deterministic() {
        let shard = |seed: f64| {
            let mut f = MetricsFrame::default();
            f.record_count("traces", 3);
            f.record_observation("backoff", seed);
            f.record_observation("backoff", seed * 0.1);
            f.record_gauge("v_min", -seed);
            f
        };
        let shards: Vec<MetricsFrame> = (1..=5).map(|i| shard(i as f64)).collect();
        let merged = || {
            let mut total = MetricsFrame::default();
            for part in &shards {
                total.absorb(part);
            }
            total
        };
        let (a, b) = (merged(), merged());
        assert_eq!(a, b);
        assert_eq!(a.counter("traces"), 15);
        assert_eq!(a.histograms["backoff"].count, 10);
        assert_eq!(a.gauges["v_min"].last, -5.0, "last shard's reading wins");
        assert_eq!(a.gauges["v_min"].min, -5.0);
    }

    #[test]
    fn deterministic_view_strips_span_durations_only() {
        let mut f = MetricsFrame::default();
        f.record_span("work", 120);
        f.record_count("n", 2);
        let d = f.deterministic();
        assert_eq!(d.spans["work"].count, 1);
        assert_eq!(d.spans["work"].total_ns, 0);
        assert_eq!(d.counter("n"), 2);
    }

    #[test]
    fn empty_frame_reports_empty() {
        assert!(MetricsFrame::default().is_empty());
        let mut f = MetricsFrame::default();
        f.record_count("a", 0);
        assert!(!f.is_empty());
    }

    #[test]
    fn aggregate_accessors_mirror_the_maps() {
        let mut f = MetricsFrame::default();
        assert!(f.gauge("v").is_none());
        assert!(f.histogram("h").is_none());
        assert!(f.span("s").is_none());
        f.record_gauge("v", 2.5);
        f.record_observation("h", 4.0);
        f.record_span("s", 11);
        assert_eq!(f.gauge("v").unwrap().last, 2.5);
        assert_eq!(f.histogram("h").unwrap().count, 1);
        assert_eq!(f.span("s").unwrap().total_ns, 11);
    }

    #[test]
    fn hist_mean() {
        let mut f = MetricsFrame::default();
        assert_eq!(HistAgg::default().mean(), 0.0);
        f.record_observation("h", 1.0);
        f.record_observation("h", 3.0);
        assert_eq!(f.histograms["h"].mean(), 2.0);
    }
}
