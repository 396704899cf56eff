//! Collects what a workload's iterations produced and turns it into the
//! printed lines, the per-workload result document and the contract
//! line the driver reads.

use std::collections::BTreeMap;

use snooze_telemetry::json::{array, num, Obj};

use crate::checks;
use crate::host::Timing;
use crate::metrics::{self, END_TO_END, NOT_APPLICABLE, PER_LAYER};
use crate::spans::{self_time_by_layer, Span};
use crate::stats::{summarize, Summary};
use crate::workloads::{Outcome, Variant};

pub struct Ledger {
    workload: &'static str,
    seed: u64,
    traced: bool,
    /// Samples per metric name, one per iteration that produced it.
    samples: BTreeMap<String, Vec<f64>>,
    /// Exact quantities per name, across every variant.
    exact: BTreeMap<String, Vec<u64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    measured_s: f64,
    /// Resident memory that is the harness's own, not the workload's.
    harness_rss_mb: f64,
}

pub struct Report {
    /// `workload metric value unit n=… q1=… q3=…`, one per metric.
    pub lines: Vec<String>,
    pub failures: Vec<String>,
    /// The workload's result document (JSON).
    pub document: String,
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub contract_line: String,
}

/// Reference-speed body seconds the derived metrics are computed from;
/// not reported under these names.
const STRIPPED_WALL: &str = "aux.obs_stripped_wall_s";
const TRACED_WALL: &str = "aux.traced_wall_s";

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

impl Ledger {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Ledger {
        Ledger {
            workload,
            seed,
            traced,
            samples: BTreeMap::new(),
            exact: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            measured_s: 0.0,
            harness_rss_mb: 0.0,
        }
    }

    /// Leave `mb` out of `peak_rss_mb`: memory the harness holds for the
    /// whole process (the host-speed probe's working sets).
    pub fn exclude_rss_mb(&mut self, mb: f64) {
        self.harness_rss_mb = mb;
    }

    /// Body seconds on the clock so far, over every variant.
    pub fn measured_s(&self) -> f64 {
        self.measured_s
    }

    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Take in one iteration. End-to-end samples come from plain
    /// iterations (tracing off), per-layer samples from traced ones.
    /// `setup_s` and `wall_s` are seconds at the reference host speed
    /// (see `host.rs`); the clock's own reading stays beside them.
    pub fn absorb(&mut self, variant: Variant, timing: Timing, outcome: Outcome) {
        self.measured_s += timing.wall_s;
        self.sample("bench.host_slowdown", timing.slowdown);
        match variant {
            Variant::Plain => {
                self.sample("setup_s", timing.setup_at_reference_s());
                self.sample("wall_s", timing.wall_at_reference_s());
                self.sample("bench.raw_wall_s", timing.wall_s);
                self.attempted += outcome.attempted;
                self.failed += outcome.failed;
            }
            // On the clock, like the span self times it is read against.
            Variant::Traced => {
                self.sample("bench.traced_wall_s", timing.wall_s);
                self.sample(TRACED_WALL, timing.wall_at_reference_s());
            }
            Variant::ObsStripped => self.sample(STRIPPED_WALL, timing.wall_at_reference_s()),
        }
        for (name, value) in outcome.values {
            let wanted = match variant {
                Variant::Plain => metrics::end_to_end(&name).is_some(),
                Variant::Traced => metrics::per_layer(&name).is_some(),
                Variant::ObsStripped => false,
            };
            if wanted {
                self.sample(&name, value);
            }
        }
        for (name, value) in outcome.exact {
            self.exact.entry(name).or_default().push(value);
        }
        for failure in outcome.failures {
            if !self.failures.contains(&failure) {
                self.failures.push(failure);
            }
        }
    }

    /// Per-layer self time of every traced iteration's body.
    pub fn absorb_spans(&mut self, spans: &[Span]) {
        for layers in self_time_by_layer(spans, "bench.body").values() {
            let body: f64 = layers.values().sum();
            let outside: f64 = layers
                .iter()
                .filter(|(layer, _)| *layer != "bench")
                .map(|(_, s)| s)
                .sum();
            for (layer, seconds) in layers {
                self.sample(&format!("{layer}.self_s"), *seconds);
            }
            if body > 0.0 {
                self.sample("bench.layer_self_coverage", outside / body);
            }
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|s| summarize(s).median)
    }

    /// Metrics computed from other metrics' medians.
    fn derive(&mut self) {
        let wall = self.median("wall_s");
        if let Some(n) = self.samples.get("wall_s").map(Vec::len) {
            self.sample("bench.iterations", n as f64);
        }
        if let (Some(wall), Some(traced)) = (wall, self.median(TRACED_WALL)) {
            self.sample("bench.trace_overhead_pct", (traced - wall) / wall * 100.0);
        }
        if let (Some(wall), Some(stripped)) = (wall, self.median(STRIPPED_WALL)) {
            self.sample(
                "telemetry.obs_overhead_pct",
                (wall - stripped) / stripped * 100.0,
            );
        }
        if let (Some(wall), Some(events)) = (wall, self.median("simcore.events")) {
            self.sample("simcore.ns_per_event", wall * 1e9 / events);
            // How much of the wall an engine doing nothing but moving
            // these events would take. Only meaningful where handlers
            // run: the whole-system workloads.
            let whole_system = self.samples.contains_key("simcore.messages_sent");
            if let (true, Some(rate)) = (whole_system, self.median("simcore.ring1024.events_per_s"))
            {
                self.sample("simcore.engine_floor_share", events / rate / wall);
            }
        }
    }

    pub fn finish(mut self) -> Report {
        for (name, values) in &self.exact {
            if let Err(e) = checks::iterations_agree(name, values) {
                self.failures.push(e);
            }
        }
        if self.traced {
            self.derive();
        } else {
            match peak_rss_mb() {
                Some(mb) => self.sample("peak_rss_mb", mb - self.harness_rss_mb),
                None => self.failures.push("cannot read VmHWM".into()),
            }
            if self.attempted == 0 {
                self.failures.push("nothing was attempted".into());
            } else {
                let ok = (self.attempted - self.failed.min(self.attempted)) as f64;
                self.sample("ok_ratio", ok / self.attempted as f64);
            }
        }

        // What this run owes the contract: every end-to-end metric, or
        // every per-layer metric.
        let wanted: Vec<(&str, &str, bool)> = if self.traced {
            PER_LAYER.iter().map(|d| (d.name, d.unit, true)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| (d.name, d.unit, d.applies_to(self.workload)))
                .collect()
        };
        let mut lines = Vec::new();
        let mut contract = Obj::new();
        let mut document = Obj::new();
        for (name, unit, applies) in wanted {
            let summary: Option<Summary> = self.samples.get(name).map(|s| summarize(s));
            let value = match summary {
                Some(s) => s.median,
                None if self.traced => 0.0,
                None if !applies => NOT_APPLICABLE,
                None => {
                    self.failures
                        .push(format!("metric `{name}` was not measured"));
                    continue;
                }
            };
            contract = contract.raw(
                name,
                &Obj::new().f64("value", value).str("unit", unit).finish(),
            );
            let Some(s) = summary else { continue };
            lines.push(format!(
                "{} {name} {} {unit} n={} q1={} q3={}",
                self.workload,
                num(value),
                s.n,
                num(s.q1),
                num(s.q3)
            ));
            let samples: Vec<String> = self.samples[name].iter().map(|v| num(*v)).collect();
            document = document.raw(
                name,
                &Obj::new()
                    .f64("value", value)
                    .str("unit", unit)
                    .raw("samples", &array(&samples))
                    .finish(),
            );
        }

        let correct = self.failures.is_empty();
        let mut exact = Obj::new();
        for (name, values) in &self.exact {
            exact = exact.u64(name, values[0]);
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", snooze_telemetry::json::escape(f)))
            .collect();
        let document = Obj::new()
            .u64("seed", self.seed)
            .raw("correct", if correct { "true" } else { "false" })
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("failures", &array(&failures))
            .raw("metrics", &document.finish())
            .raw("exact", &exact.finish())
            .finish();
        let contract_line = Obj::new()
            .raw("correct", if correct { "true" } else { "false" })
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .raw("metrics", &contract.finish())
            .finish();
        Report {
            lines,
            failures: self.failures,
            document: document + "\n",
            contract_line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::REFERENCE_PROBE_S;
    use snooze_trace::json::Json;

    fn outcome(values: &[(&str, f64)], exact: &[(&str, u64)]) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 1,
            values: values.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            exact: exact.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            failures: Vec::new(),
        }
    }

    /// An iteration timed while the host ran at the reference speed.
    fn usual(setup_s: f64, wall_s: f64) -> Timing {
        Timing::new(setup_s, wall_s, REFERENCE_PROBE_S, REFERENCE_PROBE_S)
    }

    fn metric_names(line: &str) -> Vec<String> {
        let doc = Json::parse(line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        doc.get("metrics")
            .and_then(|m| m.as_obj())
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn untraced_contract_line_carries_every_end_to_end_metric() {
        let mut l = Ledger::new("pack_kernels", 7, false);
        // The third body ran while the host was at half speed.
        for (wall, slowdown) in [(2.0, 1.0), (1.0, 1.0), (6.0, 2.0)] {
            let probe_s = slowdown * REFERENCE_PROBE_S;
            l.absorb(
                Variant::Plain,
                Timing::new(0.5 * slowdown, wall, probe_s, probe_s),
                outcome(
                    &[
                        ("pack_aco_hosts_vs_opt_ratio", 1.03),
                        ("pack_aco_hosts_vs_ffd_ratio", 0.92),
                        ("consolidation.aco.ms", 9.0),
                    ],
                    &[("x", 4)],
                ),
            );
        }
        assert_eq!(l.measured_s(), 9.0, "seconds on the clock");
        let r = l.finish();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(metric_names(&r.contract_line), expected);
        let doc = Json::parse(&r.contract_line).unwrap();
        let value = |n: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(value("wall_s"), 2.0, "median of 2, 1 and 6 / 2");
        assert_eq!(value("setup_s"), 0.5);
        assert_eq!(value("ok_ratio"), 0.9);
        assert_eq!(value("sim_energy_wh"), NOT_APPLICABLE);
        assert!(value("peak_rss_mb") > 0.0);
        // Printed lines name only what the workload measured.
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("pack_kernels wall_s 2 s n=3")));
        assert!(!r.lines.iter().any(|l| l.contains("sim_energy_wh")));
        assert!(!r.lines.iter().any(|l| l.contains("consolidation.aco.ms")));
    }

    #[test]
    fn traced_contract_line_carries_every_per_layer_metric() {
        let mut l = Ledger::new("kilonode_failover", 7, true);
        let sim = [("simcore.events", 1000.0), ("simcore.messages_sent", 10.0)];
        l.absorb(Variant::Plain, usual(0.1, 2.0), outcome(&sim, &[]));
        l.absorb(Variant::Traced, usual(0.1, 2.2), outcome(&sim, &[]));
        l.absorb(Variant::ObsStripped, usual(0.1, 1.6), outcome(&sim, &[]));
        l.sample("simcore.ring1024.events_per_s", 5000.0);
        let r = l.finish();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(metric_names(&r.contract_line), expected);
        let value = |n: &str| -> f64 {
            r.lines
                .iter()
                .find(|l| l.split(' ').nth(1) == Some(n))
                .and_then(|l| l.split(' ').nth(2)?.parse().ok())
                .unwrap_or_else(|| panic!("no line for {n}"))
        };
        let close = |n: &str, want: f64| {
            assert!((value(n) - want).abs() < 1e-9 * want, "{n}: {}", value(n));
        };
        close("bench.trace_overhead_pct", 10.0);
        close("telemetry.obs_overhead_pct", 25.0);
        close("simcore.ns_per_event", 2e6);
        close("simcore.engine_floor_share", 0.1);
    }

    #[test]
    fn disagreeing_iterations_and_missing_metrics_make_the_run_incorrect() {
        let mut l = Ledger::new("mc_failover", 7, false);
        l.absorb(
            Variant::Plain,
            usual(0.1, 1.0),
            outcome(&[], &[("mc.states", 5)]),
        );
        l.absorb(
            Variant::Plain,
            usual(0.1, 1.0),
            outcome(&[], &[("mc.states", 6)]),
        );
        let r = l.finish();
        assert!(r.failures.iter().any(|f| f.contains("mc.states")));
        assert!(r.contract_line.starts_with("{\"correct\":false"));

        let l = Ledger::new("trace_replay", 7, false);
        let r = l.finish();
        assert!(r.failures.iter().any(|f| f.contains("sim_energy_wh")));
    }

    #[test]
    fn span_self_times_become_layer_samples() {
        let mut l = Ledger::new("mc_failover", 7, true);
        let span = |name: &str, start, end, parent| Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 0,
        };
        l.absorb_spans(&[
            span("bench.body", 0, 1_000_000_000, None),
            span("mc.explore", 0, 900_000_000, Some(0)),
        ]);
        assert_eq!(l.median("mc.self_s"), Some(0.9));
        assert_eq!(l.median("bench.self_s"), Some(0.1));
        assert_eq!(l.median("bench.layer_self_coverage"), Some(0.9));
    }
}
