//! Continuous observability for the engine: the sim-time profiler, the
//! flight recorder, and the metric windower (the `snooze-flight`
//! subsystem).
//!
//! All three are *observers*: opt-in, excluded from model-checking
//! snapshots and fingerprints, and incapable of perturbing the audited
//! event digest. Their deterministic outputs (event counts, window
//! rows, recorded event descriptors) are keyed on sim time and sequence
//! counters only; the profiler's wall-time column is advisory, like
//! every [`crate::wallclock::WallClock`] reading.
//!
//! * [`Profiler`] — attributes executed events (and advisory wall
//!   nanoseconds) to `(component kind, message variant)` pairs, and
//!   exports flamegraph-compatible folded-stack text plus a top-K
//!   table. The folded output folds *event counts*, never wall time,
//!   so two same-seed runs render byte-identical profiles.
//! * [`FlightRecorder`] — a bounded ring of recent executed-event
//!   descriptors; the scenario layer snapshots it (plus recent span
//!   closures and metric windows) into an incident dump when a
//!   watchdog trips.
//! * [`Windower`] — rolls a [`MetricsRegistry`] into fixed-width
//!   sim-time windows ([`snooze_telemetry::window::WindowLog`]) by
//!   diffing per-window baselines: counter deltas, gauge boundary
//!   values, and statistics over the histogram samples recorded within
//!   the window.

use std::collections::BTreeMap;

use snooze_telemetry::window::{slice_stats, SliceStats, WindowKind, WindowLog, WindowRow};
use snooze_telemetry::LabelSet;

use crate::metrics::MetricsRegistry;
use crate::time::{SimSpan, SimTime};
use crate::wallclock::WallClock;

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

/// One profiled `(component kind, message variant)` bucket.
#[derive(Clone, Debug)]
struct ProfCell {
    kind: u16,
    variant: &'static str,
    events: u64,
    wall_nanos: u64,
}

/// One row of the exported profile, aggregated and deterministically
/// ordered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// Component kind (registered name with the trailing digits
    /// stripped: `lc123` → `lc`), or a pseudo-kind for engine events
    /// with no component target (`net`).
    pub kind: String,
    /// Message variant name from the engine's classifier, or the event
    /// kind (`start`, `timer`, `crash`, `restart`, `net`) for
    /// non-deliver events.
    pub variant: String,
    /// Events executed in this bucket — deterministic.
    pub events: u64,
    /// Advisory wall nanoseconds attributed to this bucket, sampled:
    /// every [`Profiler::WALL_SAMPLE`]-th event is timed on its own and
    /// its time, scaled by the cadence, lands on its own bucket — so a
    /// bucket's share follows the time its events take, not how many
    /// there are. Host-dependent; never part of deterministic exports.
    pub wall_nanos: u64,
}

/// Attributes executed events to `(component kind, message variant)`.
///
/// Enabled via `Engine::enable_profiler`; costs one hottest-first
/// probe per event and two wall-clock reads per
/// [`Profiler::WALL_SAMPLE`] events while on, nothing while off.
///
/// The per-event methods here and on [`FlightRecorder`] are `#[inline]`:
/// the engine is generic over its component type, so its event loop is
/// compiled in the crate that names that type, and without the attribute
/// every observed event pays three calls back into this crate (on the
/// `obs` smoke gate the two observers cost 41 ns/event as calls, 24
/// inlined).
#[derive(Clone, Debug)]
pub struct Profiler {
    /// Interned component-kind strings; index is the `u16` in cells.
    kinds: Vec<String>,
    /// Component index → kind index, built lazily from engine names.
    kind_of: Vec<u16>,
    /// Buckets kept roughly hottest-first by the probe that finds them;
    /// export sorts and merges, so storage order is irrelevant.
    cells: Vec<ProfCell>,
    /// The sampled event in flight: its bucket and the clock at its
    /// `begin_event`, banked when the next event begins.
    timed: Option<(u16, &'static str, WallClock)>,
    /// Events seen; drives the wall-sampling cadence.
    ticks: u64,
}

impl Profiler {
    /// Wall-time sampling cadence (must be a power of two): one event
    /// in this many is timed, from its own `begin_event` to the next
    /// event's, and that time × the cadence is banked on its bucket — an
    /// estimate of the bucket's total whose expectation is the time its
    /// events take, whatever their share of the event count. (What the
    /// driver does between two engine calls lands, by the same rule, on
    /// the event before it.) Event *counts* stay exact; wall time is
    /// advisory either way, and sampling keeps the per-event overhead
    /// to a probe instead of a syscall-ish clock read (which can run
    /// to microseconds under paravirtualized clocks).
    pub const WALL_SAMPLE: u64 = 256;

    pub(crate) fn new() -> Profiler {
        Profiler {
            kinds: Vec::new(),
            kind_of: Vec::new(),
            cells: Vec::new(),
            timed: None,
            ticks: 0,
        }
    }

    /// Kind index for component `comp`, interning from `names` on first
    /// sight. `None` (events with no component target) maps to `"net"`.
    #[inline]
    pub(crate) fn kind_index(&mut self, comp: Option<usize>, names: &[String]) -> u16 {
        let kind_str = match comp {
            Some(i) => {
                if let Some(&k) = self.kind_of.get(i) {
                    if k != u16::MAX {
                        return k;
                    }
                }
                let name = names.get(i).map(String::as_str).unwrap_or("?");
                name.trim_end_matches(|c: char| c.is_ascii_digit())
            }
            None => "net",
        };
        let idx = match self.kinds.iter().position(|k| k == kind_str) {
            Some(i) => i as u16,
            None => {
                self.kinds.push(kind_str.to_string());
                (self.kinds.len() - 1) as u16
            }
        };
        if let Some(i) = comp {
            if self.kind_of.len() <= i {
                self.kind_of.resize(i + 1, u16::MAX);
            }
            self.kind_of[i] = idx;
        }
        idx
    }

    /// Begin attributing the event being executed: close the sampled
    /// event before it, if there is one, count this one, and start the
    /// clock on it when the sampling tick lands.
    #[inline]
    pub(crate) fn begin_event(&mut self, kind: u16, variant: &'static str) {
        self.flush();
        let i = self.cell_index(kind, variant);
        self.cells[i].events += 1;
        self.ticks += 1;
        if self.ticks & (Self::WALL_SAMPLE - 1) == 0 {
            self.timed = Some((kind, variant, WallClock::start()));
        }
    }

    /// Bank the sampled event in flight, if any (call before reading
    /// exports).
    #[inline]
    pub(crate) fn flush(&mut self) {
        if let Some((kind, variant, clock)) = self.timed.take() {
            let i = self.cell_index(kind, variant);
            self.cells[i].wall_nanos += clock.elapsed_nanos() * Self::WALL_SAMPLE;
        }
    }

    /// Bucket index for `(kind, variant)`, inserting a zeroed bucket on
    /// first sight. Hot path: buckets are few (kinds × variants) and
    /// traffic is heavily repetitive, so a linear probe with
    /// pointer-equality on the variant beats a map. A bucket moves one
    /// place toward the head when its count has passed its predecessor's,
    /// so the handful of hot buckets settle there in order of heat and
    /// then stay put (swapping on every hit kept equally hot buckets
    /// trading places forever). Content equality is restored at export
    /// time by merging.
    #[inline]
    fn cell_index(&mut self, kind: u16, variant: &'static str) -> usize {
        for i in 0..self.cells.len() {
            let c = &self.cells[i];
            if c.kind == kind && std::ptr::eq(c.variant, variant) {
                if i > 0 && c.events > self.cells[i - 1].events {
                    self.cells.swap(i, i - 1);
                    return i - 1;
                }
                return i;
            }
        }
        self.cells.push(ProfCell {
            kind,
            variant,
            events: 0,
            wall_nanos: 0,
        });
        self.cells.len() - 1
    }

    /// The aggregated profile, sorted by descending event count, then
    /// by `(kind, variant)` — fully deterministic.
    pub fn rows(&self) -> Vec<ProfileRow> {
        let mut merged: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for cell in &self.cells {
            let kind = self
                .kinds
                .get(cell.kind as usize)
                .cloned()
                .unwrap_or_else(|| "?".into());
            let e = merged
                .entry((kind, cell.variant.to_string()))
                .or_insert((0, 0));
            e.0 += cell.events;
            e.1 += cell.wall_nanos;
        }
        let mut rows: Vec<ProfileRow> = merged
            .into_iter()
            .map(|((kind, variant), (events, wall_nanos))| ProfileRow {
                kind,
                variant,
                events,
                wall_nanos,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.events
                .cmp(&a.events)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.variant.cmp(&b.variant))
        });
        rows
    }

    /// Folded-stack text (`kind;variant count`), one line per bucket —
    /// feed straight into `flamegraph.pl`/`inferno`. Sample counts are
    /// deterministic event counts, never wall time, so two same-seed
    /// runs render byte-identical profiles.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for row in self.rows() {
            out.push_str(&format!("{};{} {}\n", row.kind, row.variant, row.events));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One executed-event descriptor in the flight ring. Allocation-free:
/// names are resolved only when a dump is actually taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Execution time, microseconds of sim time.
    pub time_us: u64,
    /// Scheduling sequence number.
    pub seq: u64,
    /// Event kind: `start`, `deliver`, `timer`, `crash`, `restart`,
    /// `net`.
    pub kind: &'static str,
    /// Source component index (deliver), or the target index.
    pub a: u64,
    /// Destination component index (deliver), or the timer tag.
    pub b: u64,
    /// Message variant (deliver, via the classifier), or the event
    /// kind again for non-deliver events.
    pub variant: &'static str,
}

/// A bounded ring of the most recent executed events.
///
/// Enabled via `Engine::enable_flight_recorder`; the scenario layer's
/// watchdogs snapshot it into incident dumps.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Vec<FlightEvent>,
    capacity: usize,
    /// Next write position; the ring is full once `len == capacity`.
    head: usize,
    recorded: u64,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Vec::with_capacity(capacity.min(1 << 20)),
            capacity: capacity.max(1),
            head: 0,
            recorded: 0,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, ev: FlightEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
        }
        // Wrap by compare: no division on the per-event path.
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.recorded += 1;
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded over the run (≥ the ring length).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        if self.ring.len() < self.capacity {
            return self.ring.clone();
        }
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }
}

// ---------------------------------------------------------------------------
// Windower
// ---------------------------------------------------------------------------

/// Rolls a [`MetricsRegistry`] into fixed-width sim-time windows.
///
/// The windower never touches metric call sites: at each boundary it
/// diffs the registry against baselines captured at the previous
/// boundary — counter deltas, gauge values as-of the boundary, and
/// [`slice_stats`] over the histogram samples recorded since. Rows go
/// into a [`WindowLog`] whose JSONL/CSV exports are byte-deterministic.
///
/// Whoever drives the engine is responsible for calling
/// [`Windower::roll`] at [`Windower::next_boundary`]; splitting a
/// `run_until` at a boundary schedules nothing, so windowing — like
/// probes — cannot change the event stream or its digest.
#[derive(Clone, Debug)]
pub struct Windower {
    width: SimSpan,
    start: SimTime,
    index: u64,
    counter_base: BTreeMap<(String, LabelSet), u64>,
    hist_base: BTreeMap<(String, LabelSet), usize>,
    log: WindowLog,
}

impl Windower {
    /// Windows of `width`, the first starting at sim time zero.
    pub fn new(width: SimSpan) -> Windower {
        assert!(width > SimSpan::ZERO, "window width must be positive");
        Windower {
            width,
            start: SimTime::ZERO,
            index: 0,
            counter_base: BTreeMap::new(),
            hist_base: BTreeMap::new(),
            log: WindowLog::new(),
        }
    }

    /// The boundary the current window closes at.
    pub fn next_boundary(&self) -> SimTime {
        self.start + self.width
    }

    /// Start of the window currently accumulating (the last boundary
    /// rolled, or time zero).
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Index of the window currently accumulating.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The rows emitted so far.
    pub fn log(&self) -> &WindowLog {
        &self.log
    }

    /// Consume the windower, keeping its log.
    pub fn into_log(self) -> WindowLog {
        self.log
    }

    /// Close the current window at `at` (normally
    /// [`Windower::next_boundary`]; the final window of a run may close
    /// early) and emit its rows. Returns the newly emitted rows.
    pub fn roll<'a>(&'a mut self, m: &MetricsRegistry, at: SimTime) -> &'a [WindowRow] {
        let first_new = self.log.len();
        let (index, start_us, end_us) = (self.index, self.start.0, at.0);
        for (name, labels, value) in m.counters_iter() {
            let key = (name.to_string(), labels.clone());
            let base = self.counter_base.get(&key).copied().unwrap_or(0);
            if value > base {
                self.log.push(WindowRow {
                    index,
                    start_us,
                    end_us,
                    kind: WindowKind::Counter,
                    name: key.0.clone(),
                    labels: key.1.clone(),
                    count: value - base,
                    stats: SliceStats::default(),
                });
            }
            self.counter_base.insert(key, value);
        }
        for (name, labels, value) in m.gauges_iter() {
            self.log.push(WindowRow {
                index,
                start_us,
                end_us,
                kind: WindowKind::Gauge,
                name: name.to_string(),
                labels: labels.clone(),
                count: 0,
                // The gauge's boundary value travels in `stats.max`
                // (the exporters read it back from there).
                stats: SliceStats {
                    max: value,
                    ..SliceStats::default()
                },
            });
        }
        for (name, labels, h) in m.histograms_iter() {
            let key = (name.to_string(), labels.clone());
            let base = self.hist_base.get(&key).copied().unwrap_or(0);
            let fresh = &h.samples()[base.min(h.samples().len())..];
            if !fresh.is_empty() {
                self.log.push(WindowRow {
                    index,
                    start_us,
                    end_us,
                    kind: WindowKind::Histogram,
                    name: key.0.clone(),
                    labels: key.1.clone(),
                    count: fresh.len() as u64,
                    stats: slice_stats(fresh),
                });
            }
            self.hist_base.insert(key, h.samples().len());
        }
        self.index += 1;
        self.start = at;
        &self.log.rows()[first_new..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snooze_telemetry::label::label;

    #[test]
    fn profiler_counts_are_deterministic_and_merge_by_content() {
        let mut p = Profiler::new();
        let names = vec!["gm0".to_string(), "lc12".to_string(), "lc7".to_string()];
        let gm = p.kind_index(Some(0), &names);
        let lc_a = p.kind_index(Some(1), &names);
        let lc_b = p.kind_index(Some(2), &names);
        assert_eq!(lc_a, lc_b, "trailing digits stripped to one kind");
        assert_ne!(gm, lc_a);
        p.begin_event(lc_a, "Heartbeat");
        p.begin_event(lc_b, "Heartbeat");
        p.begin_event(gm, "Place");
        p.flush();
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind, "lc");
        assert_eq!(rows[0].variant, "Heartbeat");
        assert_eq!(rows[0].events, 2);
        assert_eq!(p.folded(), "lc;Heartbeat 2\ngm;Place 1\n");
    }

    #[test]
    fn profiler_net_events_get_a_pseudo_kind() {
        let mut p = Profiler::new();
        let k = p.kind_index(None, &[]);
        p.begin_event(k, "net");
        p.flush();
        assert_eq!(p.folded(), "net;net 1\n");
    }

    #[test]
    fn flight_ring_keeps_the_last_capacity_events_in_order() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(FlightEvent {
                time_us: i * 10,
                seq: i,
                kind: "deliver",
                a: 0,
                b: 1,
                variant: "Ping",
            });
        }
        let evs = fr.events();
        assert_eq!(fr.recorded(), 5);
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest first"
        );
        assert_eq!(fr.capacity(), 3);
    }

    #[test]
    fn windower_diffs_counters_gauges_and_histograms() {
        let mut m = MetricsRegistry::new();
        let mut w = Windower::new(SimSpan::from_secs(10));
        assert_eq!(w.next_boundary(), SimTime::from_secs(10));

        m.incr("c");
        m.incr_with("c", &label("k", "v"));
        m.set_gauge("g", 2.5);
        m.observe("h", 1.0);
        m.observe("h", 3.0);
        let rows = w.roll(&m, SimTime::from_secs(10)).to_vec();
        assert_eq!(rows.len(), 4, "two counters + gauge + histogram");
        assert!(rows
            .iter()
            .any(|r| r.kind == WindowKind::Counter && r.labels.is_empty() && r.count == 1));
        let h = rows
            .iter()
            .find(|r| r.kind == WindowKind::Histogram)
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.stats.sum, 4.0);

        // Second window: only the gauge (no new activity) plus the new
        // counter delta.
        m.add("c", 5);
        let rows2 = w.roll(&m, SimTime::from_secs(20)).to_vec();
        assert_eq!(rows2.len(), 2);
        let c = rows2
            .iter()
            .find(|r| r.kind == WindowKind::Counter)
            .unwrap();
        assert_eq!(c.count, 5);
        assert_eq!(c.index, 1);
        assert_eq!(c.start_us, SimTime::from_secs(10).0);

        // Window sums reproduce the whole-run counter totals.
        assert_eq!(w.log().counter_sum("c"), m.counter_total("c"));
    }

    #[test]
    fn windower_is_deterministic_across_identical_histories() {
        let build = || {
            let mut m = MetricsRegistry::new();
            let mut w = Windower::new(SimSpan::from_secs(1));
            for i in 0..5u64 {
                m.add("x", i);
                m.observe("y", i as f64);
                w.roll(&m, SimTime::from_secs(i + 1));
            }
            w.into_log().to_jsonl()
        };
        assert_eq!(build(), build());
    }
}
