//! The benchmark's vocabulary: workload names, the ten end-to-end
//! metrics and the per-layer ledger. `BENCHMARK.json` at the repository
//! root lists the same names (a test keeps the two in step); later
//! issues cite them, so renaming one is a benchmark change of its own.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the reason it is in the set.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The seven workloads, in suite order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "kilonode_failover",
        why: "1024-LC fleet with a GL crash, observability on: the heartbeat path does the work and metrics/window bookkeeping is inside wall_s; consolidation, trace and power do almost nothing",
    },
    WorkloadDef {
        name: "trace_replay",
        why: "sparse 3 h replay of a seeded 2000-VM trace on 1000 LCs: engine, hypervisor sampling, suspend state machine; consolidator under 5% of wall, observability off",
    },
    WorkloadDef {
        name: "dense_reconfig",
        why: "the same trace on 240 LCs with ACO every 300 s: about 4x denser (70% of cores reserved at peak, no VM refused), so packing, reconfiguration and migration show in wall and consolidators differ",
    },
    WorkloadDef {
        name: "pack_kernels",
        why: "no engine: aco, ffd and exact B&B on seeded GRID'11 instances plus aco/ffd/wfd on one 512-VM instance; consolidation does all the work, every other layer none",
    },
    WorkloadDef {
        name: "engine_micro",
        why: "simcore only: timer storm, ping-pong, 1024-ring and 1024-fanout on bare components; where a queue or dispatch change must show, bounded by its share of the full runs",
    },
    WorkloadDef {
        name: "mc_failover",
        why: "model checker on the failover harness: the engine used through snapshot/restore/fingerprint, so a hot-loop gain bought with fatter state shows as a loss here",
    },
    WorkloadDef {
        name: "ingest_export",
        why: "I/O edges, reads beside writes: scenario TOML parse/write/compile, trace CSV/JSONL/Azure readers and writers, telemetry exporters; the engine runs only in setup",
    },
];

/// How much worse `compare` lets a metric get between two runs of the
/// same seed before it counts as a regression: the larger of a share of
/// the baseline and an absolute amount in the metric's unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    pub rel: f64,
    pub abs: f64,
}

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `BENCHMARK.json`'s bound: the share of the parent's median the
    /// driver lets the metric worsen by. The driver draws a different
    /// seed for every run, so this has to cover the seed-to-seed spread
    /// on the most seed-sensitive workload (the replays, where placement
    /// is chaotic in the seed) on top of the box's run-to-run noise, and
    /// is much looser than `same_seed`.
    pub bound: f64,
    /// `compare`'s bound, for two runs of one seed.
    pub same_seed: Tolerance,
    /// Workloads that produce the metric; `None` = all. Elsewhere the
    /// metric is reported as [`NOT_APPLICABLE`].
    pub workloads: Option<&'static [&'static str]>,
}

/// Value reported for an end-to-end metric on a workload that does not
/// produce it. The driver wants every end-to-end metric on every run
/// and none of them ever 0; the metric's `workloads` list says where a
/// value is real.
pub const NOT_APPLICABLE: f64 = 1.0;

const REPLAYS: &[&str] = &["trace_replay", "dense_reconfig"];
const KILONODE: &[&str] = &["kilonode_failover"];
const PACK: &[&str] = &["pack_kernels"];

/// The ten end-to-end metrics. Host-time metrics (`s`, `MB`) are
/// measured with the benchmark's tracing off, seconds at the reference
/// host speed (`host.rs`); `sim_*` and `pack_*` are simulated results
/// and repeat exactly for a fixed seed.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed: Tolerance {
            rel: 0.25,
            abs: 0.010,
        },
        workloads: None,
    },
    EndToEndDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed: Tolerance {
            rel: 0.10,
            abs: 0.0,
        },
        workloads: None,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        same_seed: Tolerance {
            rel: 0.10,
            abs: 0.0,
        },
        workloads: None,
    },
    EndToEndDef {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        same_seed: Tolerance {
            rel: 0.0,
            abs: 0.001,
        },
        workloads: None,
    },
    EndToEndDef {
        name: "sim_energy_wh",
        unit: "Wh",
        better: Better::Lower,
        bound: 0.15,
        same_seed: Tolerance {
            rel: 0.005,
            abs: 0.0,
        },
        workloads: Some(REPLAYS),
    },
    EndToEndDef {
        name: "sim_sla_ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        same_seed: Tolerance {
            rel: 0.0,
            abs: 0.001,
        },
        workloads: Some(REPLAYS),
    },
    EndToEndDef {
        name: "sim_placement_p95_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.01,
        same_seed: Tolerance {
            rel: 0.01,
            abs: 0.0,
        },
        workloads: Some(KILONODE),
    },
    EndToEndDef {
        name: "sim_gl_reelect_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.05,
        same_seed: Tolerance {
            rel: 0.01,
            abs: 0.0,
        },
        workloads: Some(KILONODE),
    },
    EndToEndDef {
        name: "pack_aco_hosts_vs_opt_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        same_seed: Tolerance {
            rel: 0.0,
            abs: 0.005,
        },
        workloads: Some(PACK),
    },
    EndToEndDef {
        name: "pack_aco_hosts_vs_ffd_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        same_seed: Tolerance {
            rel: 0.0,
            abs: 0.005,
        },
        workloads: Some(PACK),
    },
];

impl EndToEndDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_none_or(|w| w.contains(&workload))
    }
}

/// A per-layer metric: measured from outside a single layer (workspace
/// crate), with no bound of its own. The layer is the name's first
/// dotted segment.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer ledger. A traced run reports every one of these; a
/// metric the workload does not measure reads 0. Counts have no better
/// direction of their own (they explain the end-to-end numbers) and are
/// listed as `lower`.
pub const PER_LAYER: &[LayerDef] = &[
    // simcore
    lower("simcore.events", "count"),
    lower("simcore.digest48", "count"),
    lower("simcore.ns_per_event", "ns"),
    lower("simcore.messages_sent", "count"),
    lower("simcore.dead_letters", "count"),
    higher("simcore.timer_storm.events_per_s", "1/s"),
    higher("simcore.ping_pong.events_per_s", "1/s"),
    higher("simcore.ring1024.events_per_s", "1/s"),
    higher("simcore.fanout1024.events_per_s", "1/s"),
    lower("simcore.engine_floor_share", "ratio"),
    lower("simcore.heartbeat_event_share", "ratio"),
    lower("simcore.metrics.incr_ns", "ns"),
    lower("simcore.metrics.observe_ns", "ns"),
    lower("simcore.self_s", "s"),
    // telemetry
    lower("telemetry.obs_overhead_pct", "%"),
    lower("telemetry.spans", "count"),
    lower("telemetry.window_rows", "count"),
    lower("telemetry.span.open_close_ns", "ns"),
    higher("telemetry.export.chrome_mb_per_s", "MB/s"),
    higher("telemetry.export.prom_mb_per_s", "MB/s"),
    higher("telemetry.export.spans_jsonl_mb_per_s", "MB/s"),
    higher("telemetry.export.windows_mb_per_s", "MB/s"),
    lower("telemetry.self_s", "s"),
    // cluster
    lower("cluster.suspends", "count"),
    lower("cluster.migrations", "count"),
    lower("cluster.mean_nodes_on", "count"),
    lower("cluster.hypervisor.demand_at_ns", "ns"),
    lower("cluster.hypervisor.performance_at_ns", "ns"),
    lower("cluster.power.meter_update_ns", "ns"),
    lower("cluster.migration.estimate_ns", "ns"),
    // protocols
    lower("protocols.detector.heard_expire_ns", "ns"),
    lower("protocols.election.elect_ms", "ms"),
    // consolidation: every registry key on the 512-VM instance
    lower("consolidation.aco.ms", "ms"),
    lower("consolidation.aco.hosts", "count"),
    lower("consolidation.aco-pso.ms", "ms"),
    lower("consolidation.aco-pso.hosts", "count"),
    lower("consolidation.bfd.ms", "ms"),
    lower("consolidation.bfd.hosts", "count"),
    lower("consolidation.bnb.ms", "ms"),
    lower("consolidation.bnb.hosts", "count"),
    lower("consolidation.daco.ms", "ms"),
    lower("consolidation.daco.hosts", "count"),
    lower("consolidation.ffd.ms", "ms"),
    lower("consolidation.ffd.hosts", "count"),
    lower("consolidation.mo-aco.ms", "ms"),
    lower("consolidation.mo-aco.hosts", "count"),
    lower("consolidation.nfd.ms", "ms"),
    lower("consolidation.nfd.hosts", "count"),
    lower("consolidation.wfd.ms", "ms"),
    lower("consolidation.wfd.hosts", "count"),
    lower("consolidation.exact.ms", "ms"),
    higher("consolidation.exact.proven_share", "ratio"),
    lower("consolidation.aco.cycle_ms", "ms"),
    lower("consolidation.self_s", "s"),
    // snooze: per component kind, from the engine profiler
    lower("snooze.lc.events", "count"),
    lower("snooze.lc.handler_share", "ratio"),
    lower("snooze.gm.events", "count"),
    lower("snooze.gm.handler_share", "ratio"),
    lower("snooze.ep.events", "count"),
    lower("snooze.ep.handler_share", "ratio"),
    lower("snooze.client.events", "count"),
    lower("snooze.client.handler_share", "ratio"),
    lower("snooze.zk.events", "count"),
    lower("snooze.zk.handler_share", "ratio"),
    lower("snooze.other.events", "count"),
    lower("snooze.other.handler_share", "ratio"),
    lower("snooze.placement_mean_s", "sim_s"),
    // scenario
    higher("scenario.parse_mb_per_s", "MB/s"),
    higher("scenario.write_mb_per_s", "MB/s"),
    lower("scenario.compile_ms", "ms"),
    lower("scenario.self_s", "s"),
    // trace
    higher("trace.gen_records_per_s", "1/s"),
    higher("trace.csv_write_records_per_s", "1/s"),
    higher("trace.csv_read_records_per_s", "1/s"),
    higher("trace.jsonl_write_records_per_s", "1/s"),
    higher("trace.jsonl_read_records_per_s", "1/s"),
    higher("trace.azure_read_records_per_s", "1/s"),
    lower("trace.self_s", "s"),
    // mc
    lower("mc.states", "count"),
    lower("mc.transitions", "count"),
    higher("mc.states_per_s", "1/s"),
    higher("mc.dedup_ratio", "ratio"),
    lower("mc.snapshot_restore_us", "us"),
    lower("mc.fingerprint_us", "us"),
    lower("mc.self_s", "s"),
    // the benchmark's own harness
    lower("bench.self_s", "s"),
    lower("bench.traced_wall_s", "s"),
    lower("bench.raw_wall_s", "s"),
    lower("bench.host_slowdown", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.layer_self_coverage", "ratio"),
    lower("bench.iterations", "count"),
];

/// Consolidator keys that have a `consolidation.<key>.{ms,hosts}` pair
/// in the ledger. Keys the registry reports beyond these are not
/// recorded; keys it no longer reports read 0.
pub fn ledger_has_consolidator(key: &str) -> bool {
    PER_LAYER.iter().any(|d| {
        d.name
            .strip_prefix("consolidation.")
            .and_then(|r| r.strip_suffix(".hosts"))
            == Some(key)
    })
}

/// Component kinds with their own `snooze.<kind>.*` pair; the rest are
/// folded into `snooze.other.*`.
pub const SNOOZE_KINDS: [&str; 5] = ["lc", "gm", "ep", "client", "zk"];

/// How the driver invokes the benchmark, from the repository root.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Measured seconds per run the driver asks for (`--seconds`).
const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, rendered from the tables above so the two cannot
/// drift: `snooze-benchmark manifest > BENCHMARK.json`.
pub fn manifest() -> String {
    use snooze_telemetry::json::{escape, num};
    let quoted = |s: &str| format!("\"{}\"", escape(s));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| quoted(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(d.name),
                quoted(d.unit),
                quoted(d.better.as_str()),
                num(d.bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(d.name),
                quoted(d.unit),
                quoted(d.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// Names are letters, digits, `_`, `.` and `-`, start with a letter or
/// digit, and are at most 64 long (the driver's rule).
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Units are at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snooze_trace::json::Json;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|d| d.unit)
            .chain(PER_LAYER.iter().map(|d| d.unit))
        {
            assert!(valid_unit(unit), "bad unit `{unit}`");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
            for w in d.workloads.unwrap_or(&[]) {
                assert!(WORKLOADS.iter().any(|x| x.name == *w), "{w}");
            }
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("events per s") && valid_unit("1/s") && valid_unit("%"));
    }

    #[test]
    fn setup_s_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        assert_eq!(
            BENCHMARK_JSON,
            manifest(),
            "regenerate with `snooze-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_has_the_contract_shape() {
        let doc = Json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let len = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().len();
        assert_eq!(len("workloads"), 7);
        assert_eq!(len("end_to_end"), 10);
        assert!(len("per_layer") <= 128);
        assert!(len("command") <= 32);
        assert!(manifest().len() <= 64 * 1024);
        let entry_keys = |key: &str| -> Vec<String> {
            doc.get(key).and_then(Json::as_arr).unwrap()[0]
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(entry_keys("workloads"), ["name", "why"]);
        assert_eq!(
            entry_keys("end_to_end"),
            ["name", "unit", "better", "bound"]
        );
        assert_eq!(entry_keys("per_layer"), ["name", "unit", "better"]);
    }

    #[test]
    fn consolidator_ledger_rows_cover_the_three_named_keys() {
        for key in ["aco", "ffd", "wfd"] {
            assert!(ledger_has_consolidator(key), "{key}");
        }
        assert!(!ledger_has_consolidator("simulated-annealing"));
    }
}
