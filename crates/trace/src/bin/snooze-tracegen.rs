//! `snooze-tracegen` — generate a synthetic Azure-like trace offline.
//!
//! ```text
//! snooze-tracegen --seed 42 --vms 2000 --horizon-s 7200 --out traces/azure_diurnal_small.csv
//! ```
//!
//! The output format follows the `--out` extension (`.csv` or
//! `.jsonl`). The trace is a pure function of the flags: same seed and
//! knobs, byte-identical file, holding the bytes `generate` and
//! `csv::to_string` return in-process (`tests/cli.rs`).

use std::path::PathBuf;

use snooze_trace::gen::{generate, GeneratorConfig};

const USAGE: &str = "usage: snooze-tracegen --out PATH[.csv|.jsonl] [--seed N] [--vms N] \
     [--horizon-s S] [--diurnal-period-s S] [--flash-crowds N] [--curve-step-s S]";

fn main() -> Result<(), String> {
    let mut cfg = GeneratorConfig::default();
    let mut seed: u64 = 42;
    let mut out: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return Ok(());
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let parse_f64 =
            |v: &str| -> Result<f64, String> { v.parse().map_err(|_| format!("bad {flag}: {v}")) };
        match flag {
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed: {value}"))?,
            "--vms" => cfg.vms = value.parse().map_err(|_| format!("bad --vms: {value}"))?,
            "--horizon-s" => cfg.horizon_s = parse_f64(value)?,
            "--diurnal-period-s" => cfg.diurnal_period_s = parse_f64(value)?,
            "--curve-step-s" => cfg.curve_step_s = parse_f64(value)?,
            "--flash-crowds" => {
                cfg.flash_crowds = value
                    .parse()
                    .map_err(|_| format!("bad --flash-crowds: {value}"))?
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 2;
    }
    let out = out.ok_or_else(|| format!("--out is required\n{USAGE}"))?;

    let records = generate(&cfg, seed);
    let text = match out.extension().and_then(|e| e.to_str()) {
        Some("csv") => snooze_trace::csv::to_string(&records),
        Some("jsonl") => snooze_trace::jsonl::to_string(&records),
        _ => return Err("--out must end in .csv or .jsonl".into()),
    };
    std::fs::write(&out, text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} records (seed {seed}, horizon {} s) to {}",
        records.len(),
        cfg.horizon_s,
        out.display()
    );
    Ok(())
}
