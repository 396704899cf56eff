//! `mc_failover`: the model checker over the failover harness.
//!
//! The engine is driven through `mc_snapshot` / `mc_restore` /
//! `mc_fingerprint` instead of run-forward, so the cost of cloning and
//! hashing engine state — invisible to the other workloads — is what
//! this one times. The state space is exhaustive, not sampled: `--seed`
//! does not change it.

use std::time::Instant;

use snooze_mc::explorer::{explore, McConfig, McReport};
use snooze_mc::failover::FailoverHarness;

use super::{per_second, Harness, Outcome, Params};
use crate::checks;

struct Input {
    harness: FailoverHarness,
    config: McConfig,
}

fn setup() -> Result<Input, String> {
    let p = Params::load("mc_failover")?;
    let harness = FailoverHarness::new(
        p.int("gms")? as usize,
        p.int("lcs")? as usize,
        p.int("bootstrap_secs")?,
    );
    let config = McConfig {
        max_depth: p.int("depth")? as usize,
        crash_budget: p.int("crash_budget")? as u32,
        crashable: harness.crashable(),
        ..McConfig::default()
    };
    Ok(Input { harness, config })
}

/// Microseconds per call of the two engine hooks the explorer leans on.
fn hook_costs(input: &mut Input, out: &mut Outcome) {
    const CALLS: u32 = 2_000;
    let sim = &mut input.harness.sim;
    let start = Instant::now();
    for _ in 0..CALLS {
        let snap = sim.mc_snapshot();
        sim.mc_restore(std::hint::black_box(&snap));
    }
    out.value(
        "mc.snapshot_restore_us",
        start.elapsed().as_secs_f64() * 1e6 / CALLS as f64,
    );
    let start = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(sim.mc_fingerprint());
    }
    out.value(
        "mc.fingerprint_us",
        start.elapsed().as_secs_f64() * 1e6 / CALLS as f64,
    );
}

pub fn iteration(h: &mut Harness) -> Result<Outcome, String> {
    let mut input = h.timed_setup(|_| setup())?;
    let predicates = input.harness.predicates();
    let start = Instant::now();
    let report: McReport = h.timed_body(|rec| {
        rec.span("mc.explore", |_| {
            explore(&mut input.harness.sim, &predicates, &input.config)
        })
    });
    let seconds = start.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: report.explored,
        failed: report.violations.len() as u64,
        ..Outcome::default()
    };
    out.check(checks::no_violations(
        report.violations.len(),
        report.hit_state_cap,
    ));
    out.count("mc.states", report.explored);
    out.count("mc.transitions", report.transitions);
    out.exact
        .push(("mc.state_fingerprint".into(), report.fingerprint));
    out.exact
        .push(("mc.liveness_probes".into(), report.liveness_probes));
    out.value(
        "mc.states_per_s",
        per_second(report.explored as f64, seconds),
    );
    out.exact_value(
        "mc.dedup_ratio",
        report.deduped as f64 / report.transitions.max(1) as f64,
    );
    if h.probes_due() {
        hook_costs(&mut input, &mut out);
    }
    Ok(out)
}
