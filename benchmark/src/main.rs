//! The repo benchmark. One command runs each workload in its own child
//! process, one at a time and single-threaded, prints every metric as
//! `workload metric value unit`, checks outputs and exits non-zero on
//! any failed check. See `benchmark/README.md`.
//!
//! ```text
//! snooze-benchmark run [--workload NAME]... [--seed N] [--seconds S]
//!                      [--trace 0|1 | --traced] [--out DIR]
//! snooze-benchmark compare A.json B.json [--identical]
//! snooze-benchmark manifest
//! ```

mod checks;
mod compare;
mod host;
mod ledger;
mod metrics;
mod micro;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use snooze_telemetry::json::Obj;

use ledger::Ledger;
use metrics::WORKLOADS;
use spans::Recorder;
use workloads::{Harness, Variant};

pub const USAGE: &str = "usage:
  snooze-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]
  snooze-benchmark compare A.json B.json [--identical]
  snooze-benchmark manifest        (prints BENCHMARK.json from the tables in metrics.rs)";

/// Every workload runs at least this many rounds, so a median exists.
const MIN_ROUNDS: u32 = 3;
/// ... and at most this many, however short its body.
const MAX_ROUNDS: u32 = 15;

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    /// Measured seconds to aim for per workload.
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 3602,
        seconds: 10.0,
        traced: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            opts.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => opts.workloads.push(
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .find(|n| n == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?,
            ),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().map(|w| w.name).collect();
    }
    Ok(opts)
}

/// Where a workload's own result document goes.
fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

/// The child: run one workload's rounds in this process and report.
fn run_workload(workload: &'static str, opts: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let mut h = Harness {
        workload,
        seed: opts.seed,
        out: opts.out.clone(),
        variant: Variant::Plain,
        round: 0,
        rec: Recorder::new(),
        setup_s: 0.0,
        wall_s: 0.0,
    };
    let mut variants = vec![Variant::Plain];
    if opts.traced {
        variants.push(Variant::Traced);
        if workload == "kilonode_failover" {
            variants.push(Variant::ObsStripped);
        }
    }

    let mut ledger = Ledger::new(workload, opts.seed, opts.traced);
    // One probe between every two iterations: each iteration is read
    // against the host's speed just before and just after it. Nothing
    // has been freed yet, so the high-water mark moves by exactly what
    // the probe keeps, and that is not the workload's memory.
    let rss_before_probe = ledger::peak_rss_mb();
    let mut probe = host::Probe::new();
    if let (Some(before), Some(after)) = (rss_before_probe, ledger::peak_rss_mb()) {
        ledger.exclude_rss_mb(after - before);
    }
    let mut probe_before_s = probe.run();
    while h.round < MIN_ROUNDS || (ledger.measured_s() < opts.seconds && h.round < MAX_ROUNDS) {
        for &variant in &variants {
            h.variant = variant;
            h.rec.begin_iteration(h.round, variant == Variant::Traced);
            let outcome = workloads::iteration(&mut h)?;
            let probe_after_s = probe.run();
            let timing = host::Timing::new(h.setup_s, h.wall_s, probe_before_s, probe_after_s);
            ledger.absorb(variant, timing, outcome);
            probe_before_s = probe_after_s;
        }
        h.round += 1;
    }
    if opts.traced {
        for (name, value) in micro::run(opts.seed) {
            ledger.sample(name, value);
        }
        ledger.absorb_spans(h.rec.spans());
        let path = opts.out.join(format!("{workload}.spans.jsonl"));
        std::fs::write(&path, h.rec.to_jsonl(workload))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let report = ledger.finish();
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.failures {
        println!("{workload} CHECK FAILED: {failure}");
    }
    let path = result_path(&opts.out, workload, opts.traced);
    std::fs::write(&path, &report.document)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    // The contract line: last on standard output.
    println!("{}", report.contract_line);
    Ok(report.failures.is_empty())
}

/// The parent: one child per workload, one at a time, then the summary.
fn run_suite(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut all_ok = true;
    for &workload in &opts.workloads {
        let status = Command::new(&exe)
            .arg("child")
            .args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out)
            .status()
            .map_err(|e| format!("starting the {workload} child: {e}"))?;
        if !status.success() {
            eprintln!("{workload}: child exited with {status}");
            all_ok = false;
        }
    }

    // The summary `compare` reads: every child's document, keyed by
    // workload. No gain is claimed by a benchmark run.
    let mut docs = Obj::new();
    for &workload in &opts.workloads {
        let path = result_path(&opts.out, workload, opts.traced);
        if let Ok(doc) = std::fs::read_to_string(&path) {
            docs = docs.raw(workload, doc.trim_end());
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let summary = Obj::new()
        .u64("seed", opts.seed)
        .u64("nproc", nproc as u64)
        .str("traced", if opts.traced { "yes" } else { "no" })
        .raw("workloads", &docs.finish())
        .raw("claim", "null")
        .finish();
    let path = opts.out.join(if opts.traced {
        "summary.traced.json"
    } else {
        "summary.json"
    });
    std::fs::write(&path, summary + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("summary: {}", path.display());
    Ok(all_ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_suite(&parse_run(&args[1..])?),
        Some("child") => {
            let opts = parse_run(&args[1..])?;
            match opts.workloads[..] {
                [workload] => run_workload(workload, &opts),
                _ => Err("child runs exactly one workload".into()),
            }
        }
        Some("compare") => compare::run(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("snooze-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
