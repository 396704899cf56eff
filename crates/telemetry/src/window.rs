//! Windowed time-series: fixed-width sim-time windows over metrics.
//!
//! A [`WindowLog`] is the trajectory counterpart to the end-of-run
//! scrape: per window it records counter *deltas*, gauge values at the
//! window boundary, and descriptive statistics over the histogram
//! samples that arrived *within* the window. The log itself is plain
//! data — whoever owns the metrics registry (simcore's `Windower`)
//! diffs it against per-window baselines and pushes [`WindowRow`]s here;
//! this crate only defines the rows, the per-slice statistics, and the
//! byte-deterministic JSONL / CSV exports.
//!
//! Everything is keyed on sim time (window index, start/end in
//! microseconds); no wall clock is involved, so two same-seed runs
//! render byte-identical exports.

use std::fmt::Write as _;

use crate::json::{num_into, Obj};
use crate::LabelSet;

/// What a [`WindowRow`] aggregates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowKind {
    /// Counter delta over the window.
    Counter,
    /// Gauge value at the window's end boundary.
    Gauge,
    /// Statistics over the histogram samples recorded in the window.
    Histogram,
}

impl WindowKind {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            WindowKind::Counter => "counter",
            WindowKind::Gauge => "gauge",
            WindowKind::Histogram => "histogram",
        }
    }
}

/// Descriptive statistics over one window's worth of samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SliceStats {
    /// Number of samples in the slice.
    pub count: u64,
    /// Sum of the samples.
    pub sum: f64,
    /// Smallest sample (0 for an empty slice).
    pub min: f64,
    /// Largest sample (0 for an empty slice).
    pub max: f64,
    /// Median, linear interpolation between ranks.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// `samples` in ascending [`f64::total_cmp`] order: a total order even
/// with NaNs present, which sort to the end (or, negative, the start).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Exact percentile of `sorted` with linear interpolation between ranks
/// (numpy's default): `p` in `[0, 100]` maps to fractional rank
/// `p/100 · (n−1)`. 0 if `sorted` is empty. `Histogram::percentile`
/// applies it to a whole run, [`slice_stats`] to one window.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let lo_v = sorted[lo.min(sorted.len() - 1)];
    let hi_v = sorted[hi.min(sorted.len() - 1)];
    lo_v + (hi_v - lo_v) * frac
}

/// Descriptive statistics over an unsorted slice, with [`percentile`]'s
/// interpolated percentiles.
pub fn slice_stats(samples: &[f64]) -> SliceStats {
    if samples.is_empty() {
        return SliceStats::default();
    }
    let sorted = sorted(samples);
    SliceStats {
        count: samples.len() as u64,
        sum: samples.iter().sum(),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        p50: percentile(&sorted, 50.0),
        p95: percentile(&sorted, 95.0),
        p99: percentile(&sorted, 99.0),
    }
}

/// One aggregated metric over one window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// 0-based window index.
    pub index: u64,
    /// Window start, microseconds of sim time (inclusive).
    pub start_us: u64,
    /// Window end, microseconds of sim time (exclusive boundary the
    /// window was rolled at; the final window of a run may be partial).
    pub end_us: u64,
    /// Which aggregation this row is.
    pub kind: WindowKind,
    /// Metric name.
    pub name: String,
    /// Metric labels.
    pub labels: LabelSet,
    /// Counter delta (counters) or sample count (histograms); 0 for
    /// gauges.
    pub count: u64,
    /// Gauge value, or histogram statistics (zeroed for counters).
    pub stats: SliceStats,
}

/// Append-only log of [`WindowRow`]s with deterministic exports.
#[derive(Clone, Debug, Default)]
pub struct WindowLog {
    rows: Vec<WindowRow>,
}

impl WindowLog {
    /// Empty log.
    pub fn new() -> WindowLog {
        WindowLog::default()
    }

    /// Append one row.
    pub fn push(&mut self, row: WindowRow) {
        self.rows.push(row);
    }

    /// All rows, in append order (window index, then registry order).
    pub fn rows(&self) -> &[WindowRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no window has produced a row yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows of window `index`.
    pub fn window(&self, index: u64) -> impl Iterator<Item = &WindowRow> {
        self.rows.iter().filter(move |r| r.index == index)
    }

    /// Sum of counter deltas recorded for `name` across every window
    /// and label set — must equal the whole-run counter total.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.kind == WindowKind::Counter && r.name == name)
            .map(|r| r.count)
            .sum()
    }

    /// One JSON object per row, byte-deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let obj = Obj::begin(out)
                .u64("window", r.index)
                .u64("start_us", r.start_us)
                .u64("end_us", r.end_us)
                .str("type", r.kind.as_str())
                .str("name", &r.name)
                .obj("labels", |l| {
                    r.labels.pairs().iter().fold(l, |l, (k, v)| l.str(k, v))
                });
            out = match r.kind {
                WindowKind::Counter => obj.u64("count", r.count),
                WindowKind::Gauge => obj.f64("value", r.stats.max),
                WindowKind::Histogram => obj
                    .u64("count", r.count)
                    .f64("sum", r.stats.sum)
                    .f64("min", r.stats.min)
                    .f64("max", r.stats.max)
                    .f64("p50", r.stats.p50)
                    .f64("p95", r.stats.p95)
                    .f64("p99", r.stats.p99),
            }
            .finish();
            out.push('\n');
        }
        out
    }

    /// Flat CSV (one schema for all three kinds; unused cells are
    /// empty), byte-deterministic.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("window,start_us,end_us,type,name,labels,count,sum,min,max,p50,p95,p99\n");
        for r in &self.rows {
            let _ = write!(
                out,
                "{},{},{},{},{},\"",
                r.index,
                r.start_us,
                r.end_us,
                r.kind.as_str(),
                r.name
            );
            // The rendered label set with every `"` (the keys' and values'
            // own included) turned into `'`, so it can sit in a quoted cell.
            r.labels.render_pieces(|piece| {
                out.extend(piece.chars().map(|c| if c == '"' { '\'' } else { c }));
            });
            out.push('"');
            match r.kind {
                WindowKind::Counter => {
                    let _ = write!(out, ",{},,,,,,", r.count);
                }
                WindowKind::Gauge => {
                    out.push_str(",,,,");
                    num_into(&mut out, r.stats.max);
                    out.push_str(",,,");
                }
                WindowKind::Histogram => {
                    let _ = write!(out, ",{}", r.count);
                    let s = &r.stats;
                    for v in [s.sum, s.min, s.max, s.p50, s.p95, s.p99] {
                        out.push(',');
                        num_into(&mut out, v);
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::label;

    fn counter_row(
        index: u64,
        start_us: u64,
        end_us: u64,
        name: &str,
        labels: LabelSet,
        delta: u64,
    ) -> WindowRow {
        WindowRow {
            index,
            start_us,
            end_us,
            kind: WindowKind::Counter,
            name: name.into(),
            labels,
            count: delta,
            stats: SliceStats::default(),
        }
    }

    #[test]
    fn slice_stats_match_hand_computed_values() {
        let s = slice_stats(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.p50 - 2.5).abs() < 1e-12);
        assert!((s.p95 - 3.85).abs() < 1e-12);
        assert_eq!(slice_stats(&[]), SliceStats::default());
    }

    #[test]
    fn slice_stats_of_samples_holding_nan_do_not_panic() {
        let samples: Vec<f64> = (0..64u32)
            .map(|i| {
                if i % 7 == 3 {
                    f64::NAN
                } else {
                    f64::from((i * 37) % 101)
                }
            })
            .collect();
        let s = slice_stats(&samples);
        assert_eq!(s.count, 64);
        // NaN sorts last under `total_cmp`; the finite ranks stay ordered.
        assert_eq!(s.min, 0.0);
        assert!(s.max.is_nan());
        assert!(s.p50 <= 100.0);
    }

    #[test]
    fn counter_sum_totals_across_windows_and_labels() {
        let mut log = WindowLog::new();
        log.push(counter_row(0, 0, 10, "x", LabelSet::EMPTY, 3));
        log.push(counter_row(1, 10, 20, "x", label("k", "v"), 4));
        log.push(counter_row(1, 10, 20, "y", LabelSet::EMPTY, 9));
        assert_eq!(log.counter_sum("x"), 7);
        assert_eq!(log.counter_sum("y"), 9);
        assert_eq!(log.window(1).count(), 2);
    }

    #[test]
    fn exports_are_deterministic_and_schema_stable() {
        let build = || {
            let mut log = WindowLog::new();
            log.push(counter_row(0, 0, 10, "c", label("a", "b"), 2));
            log.push(WindowRow {
                index: 0,
                start_us: 0,
                end_us: 10,
                kind: WindowKind::Gauge,
                name: "g".into(),
                labels: LabelSet::EMPTY,
                count: 0,
                stats: SliceStats {
                    max: 1.5,
                    ..SliceStats::default()
                },
            });
            log.push(WindowRow {
                index: 0,
                start_us: 0,
                end_us: 10,
                kind: WindowKind::Histogram,
                name: "h".into(),
                labels: LabelSet::EMPTY,
                count: 2,
                stats: slice_stats(&[1.0, 3.0]),
            });
            log
        };
        let a = build();
        assert_eq!(a.to_jsonl(), build().to_jsonl());
        assert_eq!(a.to_csv(), build().to_csv());
        assert!(a.to_jsonl().contains("\"type\":\"counter\""));
        assert!(a.to_jsonl().contains("\"labels\":{\"a\":\"b\"}"));
        assert!(a.to_jsonl().contains("\"value\":1.5"));
        assert!(a.to_jsonl().contains("\"p95\":2.9"));
        let csv = a.to_csv();
        assert_eq!(csv.lines().count(), 4, "header + three rows");
        assert!(csv.starts_with("window,start_us,end_us,type,"));
        assert!(csv.contains("counter,c,\"{a='b'}\",2,,,,,,"));
    }

    #[test]
    fn empty_log_renders_headers_only() {
        let log = WindowLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.to_jsonl(), "");
        assert_eq!(log.to_csv().lines().count(), 1);
    }
}
