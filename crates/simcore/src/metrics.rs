//! Run-time metrics: labeled counters, gauges and histograms.
//!
//! The experiment harness reads these after a run to produce the rows of
//! each reproduced table. Histograms keep raw samples (runs here are small
//! enough that exact percentiles beat bucketing error); trajectories over
//! time are the windower's job ([`crate::flight::Windower`]), which diffs
//! the registry once per window.
//!
//! Every metric is keyed by a name *plus* a [`LabelSet`]
//! (`heartbeat_missed{role="gm"}`); the classic unlabeled accessors are
//! sugar for the empty label set, so old call sites are untouched.
//! Storage is `BTreeMap` end to end — deterministic iteration without a
//! sort step, which is also what keeps the exporters
//! ([`MetricsRegistry::to_prometheus`], [`MetricsRegistry::to_jsonl`])
//! byte-identical across same-seed runs.
//!
//! Counter *values* live in one slab (`cells`); the `name{labels}` maps
//! hold indices into it. The by-name API is unchanged — it costs two map
//! probes per call — and is what every component uses. The engine's own
//! per-message counters (`net.sent`, `net.delivered`, …) would pay those
//! probes millions of times per run, so the engine instead takes a
//! crate-private `CounterHandle` per name when it is built and bumps the
//! cell by index. A handle's cell is linked into the maps on its first
//! bump, never before, so a counter nobody incremented stays absent from
//! every reader and export exactly as with `incr`; and `incr("net.sent")`
//! by name lands in the handle's cell, so the two paths cannot disagree.

use std::collections::BTreeMap;

use snooze_telemetry::json::Obj;
use snooze_telemetry::prometheus::PromWriter;
use snooze_telemetry::window;
use snooze_telemetry::LabelSet;

/// A histogram over `f64` samples with exact percentiles.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

/// The fixed descriptive statistics the report tables lean on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (linear interpolation between ranks).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_finite()
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// Exact percentile with linear interpolation between ranks:
    /// [`window::percentile`] over the sorted samples.
    pub fn percentile(&self, p: f64) -> f64 {
        window::percentile(&window::sorted(&self.samples), p)
    }

    /// The `count/mean/min/max/p50/p95/p99` bundle, sorting the samples
    /// once for the three percentiles.
    pub fn summary(&self) -> HistogramSummary {
        let sorted = window::sorted(&self.samples);
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: window::percentile(&sorted, 50.0),
            p95: window::percentile(&sorted, 95.0),
            p99: window::percentile(&sorted, 99.0),
        }
    }

    /// All raw samples, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    /// Map the ±∞ produced by folds over empty sets to 0.
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Per-name metric variants, one entry per distinct label set.
type Labeled<T> = BTreeMap<LabelSet, T>;

/// One unlabelled counter's cell, for the engine's per-message bumps.
/// Valid for the registry that issued it and for clones of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CounterHandle {
    name: &'static str,
    cell: usize,
}

/// Registry of named, labeled metrics for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Counter values; `counters` and `handles` index into it.
    cells: Vec<u64>,
    counters: BTreeMap<String, Labeled<usize>>,
    /// Cells reserved by [`MetricsRegistry::counter_handle`], by name. A
    /// reserved cell is invisible until `counters` links it.
    handles: Vec<(&'static str, usize)>,
    gauges: BTreeMap<String, Labeled<f64>>,
    histograms: BTreeMap<String, Labeled<Histogram>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `key` (no labels) by one.
    pub fn incr(&mut self, key: &str) {
        self.add_with(key, &LabelSet::EMPTY, 1);
    }

    /// Increment counter `key` (no labels) by `n`.
    // audit-allow(uncalled): no component bumps an unlabelled counter by
    // more than one; the Prometheus golden and the export tests do.
    pub fn add(&mut self, key: &str, n: u64) {
        self.add_with(key, &LabelSet::EMPTY, n);
    }

    /// Increment counter `key{labels}` by one.
    pub fn incr_with(&mut self, key: &str, labels: &LabelSet) {
        self.add_with(key, labels, 1);
    }

    /// Increment counter `key{labels}` by `n`.
    pub fn add_with(&mut self, key: &str, labels: &LabelSet, n: u64) {
        let cell = match lookup(&self.counters, key, labels) {
            Some(&cell) => cell,
            None => self.link(key, labels),
        };
        self.cells[cell] += n;
    }

    /// A handle on the unlabelled counter `name`, for [`Self::bump`].
    /// Taking a handle does not create the counter: it stays invisible to
    /// every reader until something increments it, by handle or by name.
    pub(crate) fn counter_handle(&mut self, name: &'static str) -> CounterHandle {
        let cell = match lookup(&self.counters, name, &LabelSet::EMPTY) {
            Some(&cell) => cell,
            None => self.reserved(name).unwrap_or_else(|| {
                let cell = self.new_cell();
                self.handles.push((name, cell));
                cell
            }),
        };
        CounterHandle { name, cell }
    }

    /// Increment the handle's counter by one: `incr(name)` without the
    /// map probes.
    pub(crate) fn bump(&mut self, handle: CounterHandle) {
        if self.cells[handle.cell] == 0 {
            self.publish(handle);
        }
        self.cells[handle.cell] += 1;
    }

    /// Make a handle's cell visible under its name (idempotent). Runs
    /// while the cell still reads 0, so once per handle in practice.
    #[cold]
    fn publish(&mut self, handle: CounterHandle) {
        self.counters
            .entry(handle.name.to_owned())
            .or_default()
            .entry(LabelSet::EMPTY)
            .or_insert(handle.cell);
    }

    /// The cell a handle reserved for unlabelled `name`, if any.
    fn reserved(&self, name: &str) -> Option<usize> {
        let (_, cell) = self.handles.iter().find(|(n, _)| *n == name)?;
        Some(*cell)
    }

    fn new_cell(&mut self) -> usize {
        self.cells.push(0);
        self.cells.len() - 1
    }

    /// First increment of `key{labels}` by name: link it to the cell a
    /// handle reserved for it, or to a new one.
    fn link(&mut self, key: &str, labels: &LabelSet) -> usize {
        let reserved = if labels.is_empty() {
            self.reserved(key)
        } else {
            None
        };
        let cell = reserved.unwrap_or_else(|| self.new_cell());
        self.counters
            .entry(key.to_owned())
            .or_default()
            .insert(labels.clone(), cell);
        cell
    }

    /// Current value of counter `key` with no labels (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counter_with(key, &LabelSet::EMPTY)
    }

    /// Current value of counter `key{labels}` (0 if never touched).
    pub fn counter_with(&self, key: &str, labels: &LabelSet) -> u64 {
        lookup(&self.counters, key, labels).map_or(0, |&cell| self.cells[cell])
    }

    /// Sum of counter `key` across every label set — the roll-up view
    /// (`heartbeat_missed` regardless of role).
    pub fn counter_total(&self, key: &str) -> u64 {
        self.counters
            .get(key)
            .map(|m| m.values().map(|&cell| self.cells[cell]).sum())
            .unwrap_or(0)
    }

    /// Set gauge `key` (no labels).
    // audit-allow(uncalled): no component sets a gauge yet; the export
    // goldens and the windower's tests fill theirs through this.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.set_gauge_with(key, &LabelSet::EMPTY, value);
    }

    /// Set gauge `key{labels}`.
    pub fn set_gauge_with(&mut self, key: &str, labels: &LabelSet, value: f64) {
        *entry(&mut self.gauges, key, labels) = value;
    }

    /// Current value of gauge `key` with no labels (0 if never set).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauge_with(key, &LabelSet::EMPTY)
    }

    /// Current value of gauge `key{labels}` (0 if never set).
    fn gauge_with(&self, key: &str, labels: &LabelSet) -> f64 {
        lookup(&self.gauges, key, labels).copied().unwrap_or(0.0)
    }

    /// Record a histogram sample under `key` (no labels).
    pub fn observe(&mut self, key: &str, value: f64) {
        self.observe_with(key, &LabelSet::EMPTY, value);
    }

    /// Record a histogram sample under `key{labels}`.
    pub fn observe_with(&mut self, key: &str, labels: &LabelSet, value: f64) {
        entry(&mut self.histograms, key, labels).record(value);
    }

    /// Every counter sample: `(name, labels, value)` in deterministic
    /// (name, label-set) order.
    pub fn counters_iter(&self) -> impl Iterator<Item = (&str, &LabelSet, u64)> {
        flatten(&self.counters).map(|(n, l, &cell)| (n, l, self.cells[cell]))
    }

    /// Every gauge sample, deterministically ordered.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&str, &LabelSet, f64)> {
        flatten(&self.gauges).map(|(n, l, v)| (n, l, *v))
    }

    /// Every histogram, deterministically ordered.
    pub fn histograms_iter(&self) -> impl Iterator<Item = (&str, &LabelSet, &Histogram)> {
        flatten(&self.histograms)
    }

    /// Render counters, gauges and histograms in the Prometheus text
    /// exposition format (histograms as `summary` families with
    /// p50/p95/p99 quantiles). Byte-deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        for (name, labels, value) in self.counters_iter() {
            w.counter(name, labels, value);
        }
        for (name, labels, value) in self.gauges_iter() {
            w.gauge(name, labels, value);
        }
        for (name, labels, h) in self.histograms_iter() {
            let s = h.summary();
            for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                let ql = labels.clone().with("quantile", q);
                w.summary_part(name, "", &ql, v);
            }
            w.summary_part(name, "_sum", labels, s.mean * s.count as f64);
            w.summary_part(name, "_count", labels, s.count as f64);
        }
        w.render()
    }

    /// Render every metric as JSONL: one JSON object
    /// per sample, `{"type","name","labels",...}`. Byte-deterministic.
    pub fn to_jsonl(&self) -> String {
        // Every line begins at the end of `out` with the three fields all
        // kinds share; `finish` hands the buffer back.
        fn line(out: String, kind: &str, name: &str, labels: &LabelSet) -> Obj {
            Obj::begin(out)
                .str("type", kind)
                .str("name", name)
                .obj("labels", |l| {
                    labels.pairs().iter().fold(l, |l, (k, v)| l.str(k, v))
                })
        }
        let mut out = String::new();
        for (name, labels, value) in self.counters_iter() {
            out = line(out, "counter", name, labels)
                .u64("value", value)
                .finish();
            out.push('\n');
        }
        for (name, labels, value) in self.gauges_iter() {
            out = line(out, "gauge", name, labels)
                .f64("value", value)
                .finish();
            out.push('\n');
        }
        for (name, labels, h) in self.histograms_iter() {
            let s = h.summary();
            out = line(out, "histogram", name, labels)
                .u64("count", s.count as u64)
                .f64("mean", s.mean)
                .f64("min", s.min)
                .f64("max", s.max)
                .f64("p50", s.p50)
                .f64("p95", s.p95)
                .f64("p99", s.p99)
                .finish();
            out.push('\n');
        }
        out
    }
}

fn entry<'a, T: Default>(
    map: &'a mut BTreeMap<String, Labeled<T>>,
    key: &str,
    labels: &LabelSet,
) -> &'a mut T {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), Labeled::new());
    }
    let inner = map.get_mut(key).expect("inserted above");
    if !inner.contains_key(labels) {
        inner.insert(labels.clone(), T::default());
    }
    inner.get_mut(labels).expect("inserted above")
}

fn lookup<'a, T>(
    map: &'a BTreeMap<String, Labeled<T>>,
    key: &str,
    labels: &LabelSet,
) -> Option<&'a T> {
    map.get(key).and_then(|inner| inner.get(labels))
}

fn flatten<T>(map: &BTreeMap<String, Labeled<T>>) -> impl Iterator<Item = (&str, &LabelSet, &T)> {
    map.iter()
        .flat_map(|(name, inner)| inner.iter().map(move |(l, v)| (name.as_str(), l, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimSpan, SimTime};
    use snooze_telemetry::label::label;

    /// The registry's counter names, label variants collapsed.
    fn counter_names(m: &MetricsRegistry) -> Vec<&str> {
        let mut names: Vec<&str> = m.counters_iter().map(|(name, _, _)| name).collect();
        names.dedup();
        names
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn labeled_counters_are_independent_dimensions() {
        let mut m = MetricsRegistry::new();
        m.incr_with("hb.missed", &label("role", "gm"));
        m.incr_with("hb.missed", &label("role", "lc"));
        m.incr_with("hb.missed", &label("role", "lc"));
        m.incr("hb.missed");
        assert_eq!(m.counter_with("hb.missed", &label("role", "gm")), 1);
        assert_eq!(m.counter_with("hb.missed", &label("role", "lc")), 2);
        assert_eq!(m.counter("hb.missed"), 1);
        assert_eq!(m.counter_total("hb.missed"), 4);
        // One logical name despite four label variants.
        assert_eq!(counter_names(&m), vec!["hb.missed"]);
    }

    #[test]
    fn handle_and_name_address_one_cell() {
        // Handle first, name first: either way there is one counter.
        let mut m = MetricsRegistry::new();
        let h = m.counter_handle("net.sent");
        m.bump(h);
        m.incr("net.sent");
        m.add("net.sent", 3);
        m.bump(h);
        assert_eq!(m.counter("net.sent"), 6);
        let mut n = MetricsRegistry::new();
        n.add("net.sent", 4);
        let h = n.counter_handle("net.sent");
        let again = n.counter_handle("net.sent");
        n.bump(h);
        n.bump(again);
        assert_eq!(n.counter("net.sent"), 6);
        for r in [&m, &n] {
            assert_eq!(r.counter_total("net.sent"), 6);
            assert_eq!(counter_names(r), vec!["net.sent"]);
            assert_eq!(r.counters_iter().count(), 1);
        }
        assert_eq!(m.to_jsonl(), n.to_jsonl());
    }

    #[test]
    fn unbumped_handle_is_invisible_to_every_reader() {
        let mut m = MetricsRegistry::new();
        let h = m.counter_handle("net.to_dead");
        m.set_gauge("g", 1.0);
        let mut plain = MetricsRegistry::new();
        plain.set_gauge("g", 1.0);
        let mut w = crate::flight::Windower::new(SimSpan::from_secs(1));
        let rows = w.roll(&m, SimTime::from_secs(1));
        assert!(rows.iter().all(|r| r.name == "g"), "{rows:?}");
        assert!(counter_names(&m).is_empty());
        assert_eq!(m.counters_iter().count(), 0);
        assert_eq!(m.counter("net.to_dead"), 0);
        assert_eq!(m.counter_total("net.to_dead"), 0);
        assert_eq!(m.to_prometheus(), plain.to_prometheus());
        assert_eq!(m.to_jsonl(), plain.to_jsonl());
        // ... and appears with its first bump, like a counter's first incr.
        m.bump(h);
        plain.incr("net.to_dead");
        assert_eq!(counter_names(&m), vec!["net.to_dead"]);
        assert_eq!(m.to_prometheus(), plain.to_prometheus());
        assert_eq!(m.to_jsonl(), plain.to_jsonl());
        assert_eq!(w.roll(&m, SimTime::from_secs(2)).len(), 2);
    }

    #[test]
    fn handle_beside_a_labelled_variant_renders_like_incr_by_name() {
        // The shape `tests/golden/metrics.prom` pins for by-name counters:
        // the unlabelled sample first, label variants after it, sorted.
        let mut by_name = MetricsRegistry::new();
        by_name.incr_with("net.sent", &label("link", "b"));
        by_name.add("net.sent", 2);
        by_name.incr_with("net.sent", &label("link", "a"));
        by_name.incr("net.delivered");
        let mut by_handle = MetricsRegistry::new();
        let delivered = by_handle.counter_handle("net.delivered");
        let sent = by_handle.counter_handle("net.sent");
        by_handle.incr_with("net.sent", &label("link", "b"));
        by_handle.bump(sent);
        by_handle.bump(sent);
        by_handle.incr_with("net.sent", &label("link", "a"));
        by_handle.bump(delivered);
        let text = by_handle.to_prometheus();
        assert_eq!(text, by_name.to_prometheus());
        assert_eq!(by_handle.to_jsonl(), by_name.to_jsonl());
        assert!(
            text.contains("net_sent 2\nnet_sent{link=\"a\"} 1\nnet_sent{link=\"b\"} 1\n"),
            "{text}"
        );
        assert_eq!(by_handle.counter_total("net.sent"), 4);
    }

    #[test]
    fn cloned_registry_keeps_handles_valid() {
        let mut m = MetricsRegistry::new();
        let (bumped, fresh) = (m.counter_handle("a"), m.counter_handle("b"));
        m.bump(bumped);
        let mut copy = m.clone();
        copy.bump(bumped);
        copy.bump(fresh);
        assert_eq!((m.counter("a"), m.counter("b")), (1, 0));
        assert_eq!((copy.counter("a"), copy.counter("b")), (2, 1));
        assert_eq!(counter_names(&m), vec!["a"]);
        assert_eq!(counter_names(&copy), vec!["a", "b"]);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), 2.5);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(100.0), 5.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut h = Histogram::default();
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.record(v);
        }
        // Fractional ranks: p50 of 4 samples sits halfway between the
        // 2nd and 3rd — nearest-rank would snap to one of them.
        assert!((h.percentile(50.0) - 25.0).abs() < 1e-12);
        assert!((h.percentile(25.0) - 17.5).abs() < 1e-12);
        assert!((h.percentile(90.0) - 37.0).abs() < 1e-12);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(h.percentile(-5.0), 10.0);
        assert_eq!(h.percentile(150.0), 40.0);
    }

    #[test]
    fn percentile_known_quantiles_of_1_to_100() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert!((h.percentile(50.0) - 50.5).abs() < 1e-9);
        assert!((h.percentile(95.0) - 95.05).abs() < 1e-9);
        assert!((h.percentile(99.0) - 99.01).abs() < 1e-9);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn exports_of_a_histogram_holding_nan_do_not_panic() {
        // Sorting with `partial_cmp(..).unwrap_or(Equal)` is no total
        // order once a NaN is present, and the standard sort may panic
        // on such a comparator; this vector made both exports panic.
        let mut m = MetricsRegistry::new();
        for i in 0..64u32 {
            let v = if i % 7 == 3 {
                f64::NAN
            } else {
                f64::from((i * 37) % 101)
            };
            m.observe("lat", v);
        }
        assert!(m.to_jsonl().contains("\"lat\""));
        assert!(m.to_prometheus().contains("lat"));
        let (_, _, h) = m.histograms_iter().next().unwrap();
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn observe_builds_histograms() {
        let mut m = MetricsRegistry::new();
        m.observe("lat", 2.0);
        m.observe("lat", 4.0);
        let histograms: Vec<_> = m.histograms_iter().collect();
        assert!(matches!(histograms[..], [("lat", l, h)] if l.is_empty() && h.mean() == 3.0));
    }

    #[test]
    fn prometheus_export_is_deterministic_and_labeled() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.incr_with("net.sent", &label("link", "a"));
            m.incr("net.sent");
            m.set_gauge("power.watts", 140.5);
            m.observe("lat", 1.0);
            m.observe("lat", 3.0);
            m.to_prometheus()
        };
        let text = build();
        assert_eq!(text, build());
        assert!(text.contains("# TYPE net_sent counter\n"));
        assert!(text.contains("net_sent{link=\"a\"} 1\n"));
        assert!(text.contains("net_sent 1\n"));
        assert!(text.contains("# TYPE lat summary\n"));
        assert!(text.contains("lat_count 2\n"));
    }

    #[test]
    fn jsonl_export_covers_all_kinds() {
        let mut m = MetricsRegistry::new();
        m.incr("c");
        m.set_gauge("g", 1.0);
        m.observe("h", 2.0);
        let text = m.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"gauge\""));
        assert!(text.contains("\"type\":\"histogram\""));
    }
}
