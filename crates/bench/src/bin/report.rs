//! The telemetry report CLI.
//!
//! ```text
//! report [--seed <n>] [--out <dir>] [--watch]
//! ```
//!
//! Runs the E4-style observability scenario (1 GL / 4 GMs / 32 LCs, a
//! burst of 100 VMs, one GM crash mid-flight) and prints:
//!
//! * the scenario summary (placements, digests),
//! * the continuous-observability headline (windows, SLO alerts,
//!   incident dumps, profiled events) and the SLO alert table — the
//!   scenario's zero-tolerance heartbeat watchdog trips during the GM
//!   failover,
//! * the submission-latency decomposition by hop
//!   (client.submit → ep.forward → gl.dispatch → gm.place → lc.boot),
//! * the failover timeline (detected failures, promotions, campaigns),
//! * the ACO phase profile (construction / evaluation / evaporation).
//!
//! `--watch` streams one status line per closed metric window while the
//! run progresses. With `--out <dir>`, also writes the standard-format
//! exports: `trace.chrome.json` (open in Perfetto or
//! `chrome://tracing`), `spans.jsonl`, `metrics.prom`, `metrics.jsonl`,
//! plus the continuous exports `windows.jsonl`, `windows.csv`,
//! `profile.folded` and one `incident_<n>.toml` per captured incident —
//! all byte-identical across two runs with the same `--seed`.

use snooze_bench::experiments::run_specs;
use snooze_bench::report::*;
use snooze_bench::scenario_cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let seed: u64 = flag("--seed")
        .map(|s| s.parse().expect("--seed: u64"))
        .unwrap_or(42);
    let out = flag("--out").map(std::path::PathBuf::from);
    let watch = args.iter().any(|a| a == "--watch");

    eprintln!("[report] running E4-style scenario (seed {seed}) …");
    let spec = report_failover(seed);
    let mut done = run_specs(&[spec], watch).expect("report scenario compiles");

    scenario_summary(&done[0].run.live, crashed_component(&done[0].run)).print();
    obs_summary(&mut done[0].run).print();
    scenario_cli::print_details(&[scenario_cli::SLO_ALERTS], &done);
    let run = &mut done[0].run;
    hop_decomposition(run.live.sim.spans()).print();
    failover_timeline(&run.live.sim).print();
    aco_phase_table(100, seed).print();

    if let Some(dir) = out {
        export_all(&run.live.sim, &dir).expect("write exports");
        export_obs(run, &dir).expect("write observability exports");
        println!(
            "\nexports written to {} (trace.chrome.json, spans.jsonl, metrics.prom, \
             metrics.jsonl, windows.jsonl, windows.csv, profile.folded, incident_*.toml)",
            dir.display()
        );
    }
}
