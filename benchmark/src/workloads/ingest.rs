//! `ingest_export`: the I/O edges, reads beside writes.
//!
//! Scenario documents are parsed, written canonically, re-parsed and
//! dry-run compiled; a generated trace is written as CSV and JSONL,
//! streamed back through both readers and through the Azure-shaped
//! adapter; one observed run (made in set-up, the only place the engine
//! runs) is exported as Chrome trace, Prometheus text, span JSONL and
//! window JSONL/CSV. A reader gain that costs its writer shows in the
//! same run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use snooze_scenario::spec::ScenarioSpec;
use snooze_scenario::toml::{self, Value};
use snooze_scenario::ScenarioRun;
use snooze_simcore::ComponentId;
use snooze_trace::csv::CsvReader;
use snooze_trace::dataset::AzureShapedReader;
use snooze_trace::jsonl::JsonlReader;
use snooze_trace::record::fmt_f64;
use snooze_trace::{read_all, GeneratorConfig, TraceRecord};

use super::{
    fingerprint, generated_trace_config, per_second, replay_trace, Harness, Outcome, Params,
    SOURCES,
};
use crate::checks;
use crate::spans::Recorder;

type Table = BTreeMap<String, Value>;

struct Input {
    scenario_repeats: u64,
    compile_repeats: u64,
    export_repeats: u64,
    /// Scenario documents ready to compile: trace paths point at a file
    /// written in set-up.
    compile_docs: Vec<Table>,
    trace_cfg: GeneratorConfig,
    azure_path: PathBuf,
    observed: ScenarioRun,
    dir: PathBuf,
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn open(path: &Path) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The records as an Azure-Public-Dataset-shaped table.
fn azure_table(records: &[TraceRecord]) -> String {
    let mut out = String::from("vmid,vmcreated,vmdeleted,corecount,memorygb,avgcpu,p95maxcpu\n");
    for r in records {
        let avg = r.curve.first().map_or(1.0, |p| p.cpu);
        let peak = r.curve.iter().map(|p| p.cpu).fold(avg, f64::max);
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.vm,
            fmt_f64(r.arrival_s),
            fmt_f64(r.arrival_s + r.lifetime_s),
            fmt_f64(r.cpu_cores),
            fmt_f64(r.mem_mb / 1024.0),
            fmt_f64(avg * 100.0),
            fmt_f64(peak * 100.0),
        );
    }
    out
}

fn setup(seed: u64, dir: &Path) -> Result<Input, String> {
    let p = Params::load("ingest_export")?;

    // A small trace for the replay documents to load while compiling.
    let replay_path = dir.join(format!("ingest_export.seed{seed}.replay.csv"));
    write_file(
        &replay_path,
        &snooze_trace::csv::to_string(&replay_trace(seed)?),
    )?;
    let mut compile_docs = Vec::new();
    for (name, text) in SOURCES {
        let mut root = toml::parse(text).map_err(|e| format!("workloads/{name}.toml: {e}"))?;
        if !root.contains_key("topology") {
            continue;
        }
        if let Some(Value::TableArray(workloads)) = root.get_mut("workload") {
            for w in workloads {
                if w.get("kind").and_then(Value::as_str) == Some("trace") {
                    w.insert(
                        "path".into(),
                        Value::Str(replay_path.to_string_lossy().into_owned()),
                    );
                }
            }
        }
        compile_docs.push(root);
    }

    // The Azure-shaped input is derived from the same seeded trace the
    // body generates again under its own timer.
    let trace_cfg = generated_trace_config(p.int("trace_vms")? as usize)?;
    let azure_path = dir.join(format!("ingest_export.seed{seed}.azure.csv"));
    write_file(
        &azure_path,
        &azure_table(&snooze_trace::generate(&trace_cfg, seed)),
    )?;

    // The observed run the exporters read: the kilonode document, scaled down.
    let mut observed = toml::parse(super::source("kilonode_failover"))?;
    observed.insert("seed".into(), Value::Int(seed as i64));
    if let Some(Value::Table(t)) = observed.get_mut("topology") {
        t.insert("lcs".into(), Value::Int(p.int("observed_lcs")? as i64));
    }
    if let Some(Value::TableArray(workloads)) = observed.get_mut("workload") {
        for w in workloads {
            w.insert("n".into(), Value::Int(p.int("observed_vms")? as i64));
            w.insert("seed".into(), Value::Int(seed as i64));
        }
    }
    let observed = snooze_scenario::run(&ScenarioSpec::from_value(&observed)?)?;
    if observed.windows.is_none() {
        return Err("the observed run produced no metric windows".into());
    }

    Ok(Input {
        scenario_repeats: p.int("scenario_repeats")?,
        compile_repeats: p.int("compile_repeats")?,
        export_repeats: p.int("export_repeats")?,
        compile_docs,
        trace_cfg,
        azure_path,
        observed,
        dir: dir.to_path_buf(),
    })
}

/// Seconds spent in `f`, under a span.
fn timed<T>(rec: &mut Recorder, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = rec.span(name, |_| f());
    (out, start.elapsed().as_secs_f64())
}

fn scenario_stage(rec: &mut Recorder, input: &Input, out: &mut Outcome) {
    let (mut parse_s, mut write_s) = (0.0, 0.0);
    let (mut parsed_bytes, mut written_bytes) = (0u64, 0u64);
    for _ in 0..input.scenario_repeats {
        for (name, text) in SOURCES {
            // parse -> write -> parse -> write must be a fixed point.
            out.attempted += 1;
            let (first, s) = timed(rec, "scenario.parse", || toml::parse(text));
            parse_s += s;
            let Ok(first) = first else {
                out.failed += 1;
                out.failures
                    .push(format!("workloads/{name}.toml: does not parse"));
                continue;
            };
            let (written, s) = timed(rec, "scenario.write", || toml::render(&first));
            write_s += s;
            let (second, s) = timed(rec, "scenario.parse", || toml::parse(&written));
            parse_s += s;
            parsed_bytes += (text.len() + written.len()) as u64;
            let fixed = match second {
                Ok(second) if second == first => {
                    let (again, s) = timed(rec, "scenario.write", || toml::render(&second));
                    write_s += s;
                    written_bytes += (written.len() + again.len()) as u64;
                    checks::round_trip(name, &written, &again)
                }
                _ => Err(format!(
                    "workloads/{name}.toml: re-parse differs from first parse"
                )),
            };
            if fixed.is_err() {
                out.failed += 1;
            }
            out.check(fixed);
        }
    }
    out.value(
        "scenario.parse_mb_per_s",
        per_second(parsed_bytes as f64 / 1e6, parse_s),
    );
    out.value(
        "scenario.write_mb_per_s",
        per_second(written_bytes as f64 / 1e6, write_s),
    );

    let (mut compile_s, mut compiles) = (0.0, 0u64);
    for _ in 0..input.compile_repeats {
        for root in &input.compile_docs {
            out.attempted += 1;
            compiles += 1;
            let (compiled, s) = timed(rec, "scenario.compile", || {
                ScenarioSpec::from_value(root)
                    .and_then(|spec| snooze_scenario::compile(&spec).map(drop))
            });
            compile_s += s;
            if let Err(e) = compiled {
                out.failed += 1;
                out.failures.push(format!("dry-run compile: {e}"));
            }
        }
    }
    out.value(
        "scenario.compile_ms",
        compile_s * 1e3 / compiles.max(1) as f64,
    );
}

/// generate -> CSV file -> read -> JSONL file -> read -> CSV again: the
/// second CSV must equal the first byte for byte, and the Azure-shaped
/// table derived from the same trace must yield every VM.
fn trace_stage(
    rec: &mut Recorder,
    input: &Input,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (records, gen_s) = timed(rec, "trace.generate", || {
        snooze_trace::generate(&input.trace_cfg, seed)
    });
    let n = records.len() as f64;
    out.exact
        .push(("trace.records".into(), records.len() as u64));
    out.value("trace.gen_records_per_s", per_second(n, gen_s));

    let csv_path = input
        .dir
        .join(format!("ingest_export.seed{seed}.trace.csv"));
    let jsonl_path = input
        .dir
        .join(format!("ingest_export.seed{seed}.trace.jsonl"));
    let read_err = |e: snooze_trace::TraceError| format!("trace read-back: {e}");

    let (csv_text, csv_write_s) = timed(rec, "trace.csv_write", || {
        let text = snooze_trace::csv::to_string(&records);
        write_file(&csv_path, &text).map(|()| text)
    });
    let csv_text = csv_text?;
    let csv_file = open(&csv_path)?;
    let (from_csv, s) = timed(rec, "trace.csv_read", || {
        read_all(&mut CsvReader::new(csv_file))
    });
    let from_csv = from_csv.map_err(read_err)?;
    out.value("trace.csv_read_records_per_s", per_second(n, s));

    let (written, s) = timed(rec, "trace.jsonl_write", || {
        write_file(&jsonl_path, &snooze_trace::jsonl::to_string(&from_csv))
    });
    written?;
    out.value("trace.jsonl_write_records_per_s", per_second(n, s));
    let jsonl_file = open(&jsonl_path)?;
    let (from_jsonl, s) = timed(rec, "trace.jsonl_read", || {
        read_all(&mut JsonlReader::new(jsonl_file))
    });
    let from_jsonl = from_jsonl.map_err(read_err)?;
    out.value("trace.jsonl_read_records_per_s", per_second(n, s));

    let (csv_again, s) = timed(rec, "trace.csv_write", || {
        snooze_trace::csv::to_string(&from_jsonl)
    });
    out.value(
        "trace.csv_write_records_per_s",
        per_second(2.0 * n, csv_write_s + s),
    );

    let azure_file = open(&input.azure_path)?;
    let (from_azure, s) = timed(rec, "trace.azure_read", || {
        read_all(&mut AzureShapedReader::new(azure_file))
    });
    out.value("trace.azure_read_records_per_s", per_second(n, s));

    out.attempted += 2;
    let round_trip = checks::round_trip("csv->jsonl->csv", &csv_text, &csv_again);
    if round_trip.is_err() {
        out.failed += 1;
    }
    out.check(round_trip);
    match from_azure {
        Ok(a) if a.len() == records.len() => {}
        Ok(a) => {
            out.failed += 1;
            out.failures.push(format!(
                "azure adapter read {} of {} VMs",
                a.len(),
                records.len()
            ));
        }
        Err(e) => {
            out.failed += 1;
            out.failures.push(format!("azure adapter: {e}"));
        }
    }
    out.exact
        .push(("trace.csv_bytes".into(), fingerprint(csv_text.as_bytes())));
    Ok(())
}

fn export_stage(rec: &mut Recorder, input: &Input, out: &mut Outcome) {
    let sim = &input.observed.live.sim;
    let windows = input
        .observed
        .windows
        .as_ref()
        .expect("set-up checked the observed run has windows");
    let track = |t: u64| sim.name_of(ComponentId(t as usize)).to_string();
    let mut export = |name: &str, render: &dyn Fn() -> String| {
        let mut seconds = 0.0;
        let mut last = String::new();
        for _ in 0..input.export_repeats {
            let (text, s) = timed(rec, &format!("telemetry.export.{name}"), render);
            seconds += s;
            last = text;
        }
        out.attempted += 1;
        if last.is_empty() {
            out.failed += 1;
            out.failures.push(format!("{name} export is empty"));
        }
        out.exact.push((
            format!("telemetry.export.{name}_bytes"),
            fingerprint(last.as_bytes()),
        ));
        let mb = last.len() as f64 * input.export_repeats as f64 / 1e6;
        out.value(
            format!("telemetry.export.{name}_mb_per_s"),
            per_second(mb, seconds),
        );
    };
    export("chrome", &|| {
        snooze_telemetry::chrome::render(sim.spans(), &track)
    });
    export("prom", &|| sim.metrics().to_prometheus());
    export("spans_jsonl", &|| {
        snooze_telemetry::jsonl::render(sim.spans())
    });
    export("windows", &|| windows.to_jsonl() + &windows.to_csv());
}

pub fn iteration(h: &mut Harness) -> Result<Outcome, String> {
    let (seed, dir) = (h.seed, h.out.clone());
    let input = h.timed_setup(|_| setup(seed, &dir))?;
    let mut out = Outcome::default();
    h.timed_body(|rec| {
        scenario_stage(rec, &input, &mut out);
        trace_stage(rec, &input, seed, &mut out)?;
        export_stage(rec, &input, &mut out);
        Ok::<(), String>(())
    })?;
    Ok(out)
}
