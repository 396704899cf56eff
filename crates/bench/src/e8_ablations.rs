//! **E8 — ablations**: ACO parameter sensitivity and the FFD
//! sort-dimension criticism.
//!
//! Two design claims get stress-tested here:
//!
//! 1. §I's criticism that greedy heuristics "waste a lot of resources by
//!    presorting the VMs according to a single dimension (e.g. CPU)" —
//!    the FFD sweep compares all five sort keys.
//! 2. The ACO parameters (ants, cycles, evaporation ρ, exponents α/β)
//!    trade solution quality against compute; the sweep shows where the
//!    returns diminish, which justifies the defaults in
//!    [`AcoParams::default`].

use std::time::Instant;

use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::ffd::{FirstFitDecreasing, SortKey};
use snooze_consolidation::problem::{Consolidator, Instance, InstanceGenerator};
use snooze_simcore::rng::SimRng;

use crate::table::{f2, pct, Table};

/// One parameter point of the ACO sweep.
#[derive(Clone, Debug)]
pub struct AcoAblationRow {
    /// Which parameter was varied and to what.
    pub setting: String,
    /// Mean hosts used.
    pub hosts: f64,
    /// Mean runtime, ms.
    pub runtime_ms: f64,
}

/// One FFD sort-key result.
#[derive(Clone, Debug)]
pub struct FfdAblationRow {
    /// Sort key label.
    pub key: &'static str,
    /// Mean hosts used.
    pub hosts: f64,
    /// Mean utilization of used hosts.
    pub util: f64,
}

fn instances(n: usize, repeats: u64, seed: u64) -> Vec<Instance> {
    let gen = InstanceGenerator::grid11();
    (0..repeats)
        .map(|rep| gen.generate(n, &mut SimRng::new(seed ^ rep)))
        .collect()
}

fn mean_hosts(aco: &AcoConsolidator, instances: &[Instance]) -> (f64, f64) {
    let mut hosts = 0.0;
    let mut ms = 0.0;
    for inst in instances {
        let start = Instant::now();
        let sol = aco.consolidate(inst).expect("solvable");
        ms += start.elapsed().as_secs_f64() * 1e3;
        hosts += sol.bins_used() as f64;
    }
    (hosts / instances.len() as f64, ms / instances.len() as f64)
}

/// Sweep ACO parameters on a fixed instance family.
fn run_aco(n: usize, repeats: u64, seed: u64) -> Vec<AcoAblationRow> {
    let insts = instances(n, repeats, seed);
    let base = AcoParams::default();
    let mut rows = Vec::new();

    let mut push = |setting: String, params: AcoParams| {
        let (hosts, runtime_ms) = mean_hosts(&AcoConsolidator::new(params), &insts);
        rows.push(AcoAblationRow {
            setting,
            hosts,
            runtime_ms,
        });
    };

    push("default".into(), base);
    for ants in [2, 5, 20] {
        push(
            format!("ants={ants}"),
            AcoParams {
                n_ants: ants,
                ..base
            },
        );
    }
    for cycles in [5, 15, 60] {
        push(
            format!("cycles={cycles}"),
            AcoParams {
                n_cycles: cycles,
                ..base
            },
        );
    }
    for rho in [0.05, 0.6, 0.9] {
        push(format!("rho={rho}"), AcoParams { rho, ..base });
    }
    push(
        "alpha=0 (no pheromone)".into(),
        AcoParams { alpha: 0.0, ..base },
    );
    push(
        "beta=0 (no heuristic)".into(),
        AcoParams { beta: 0.0, ..base },
    );
    push(
        "update=all-ants (AS)".into(),
        AcoParams {
            update_rule: snooze_consolidation::aco::UpdateRule::AllAnts,
            ..base
        },
    );
    rows
}

/// Sweep FFD sort keys.
fn run_ffd(n: usize, repeats: u64, seed: u64) -> Vec<FfdAblationRow> {
    let insts = instances(n, repeats, seed);
    SortKey::ALL
        .iter()
        .map(|&key| {
            let algo = FirstFitDecreasing { key };
            let mut hosts = 0.0;
            let mut util = 0.0;
            for inst in &insts {
                let sol = algo.consolidate(inst).expect("solvable");
                hosts += sol.bins_used() as f64;
                util += sol.avg_used_bin_utilization(inst);
            }
            FfdAblationRow {
                key: key.label(),
                hosts: hosts / insts.len() as f64,
                util: util / insts.len() as f64,
            }
        })
        .collect()
}

/// Default ACO ablation for `run_experiments e8`.
pub fn default_aco_rows() -> Vec<AcoAblationRow> {
    run_aco(60, 3, 0xE8)
}

/// Default FFD ablation for `run_experiments e8`.
pub fn default_ffd_rows() -> Vec<FfdAblationRow> {
    run_ffd(120, 5, 0xE8F)
}

/// Render the ACO sweep.
pub fn render_aco(rows: &[AcoAblationRow]) -> Table {
    let mut t = Table::new(
        "E8a: ACO parameter ablation (hosts lower = better)",
        &["setting", "hosts", "runtime ms"],
    )
    .advisory(&["runtime ms"]);
    for r in rows {
        t.row(vec![r.setting.clone(), f2(r.hosts), f2(r.runtime_ms)]);
    }
    t
}

/// Render the FFD sweep.
pub fn render_ffd(rows: &[FfdAblationRow]) -> Table {
    let mut t = Table::new(
        "E8b: FFD presort-dimension ablation (§I: single-dimension presorts waste resources)",
        &["sort key", "hosts", "util"],
    );
    for r in rows {
        t.row(vec![r.key.to_string(), f2(r.hosts), pct(r.util)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_dimension_sorts_beat_or_match_single_dimension() {
        let rows = run_ffd(80, 4, 3);
        let hosts = |k: &str| rows.iter().find(|r| r.key == k).unwrap().hosts;
        let single_best = hosts("cpu").min(hosts("mem"));
        let multi_best = hosts("l1").min(hosts("l2")).min(hosts("linf"));
        assert!(
            multi_best <= single_best + 1e-9,
            "multi-dim {multi_best} vs single-dim {single_best}"
        );
    }

    #[test]
    fn more_search_does_not_hurt_quality() {
        let rows = run_aco(40, 2, 9);
        let hosts = |s: &str| rows.iter().find(|r| r.setting == s).unwrap().hosts;
        assert!(hosts("cycles=60") <= hosts("cycles=5") + 1e-9);
        assert!(hosts("ants=20") <= hosts("ants=2") + 1e-9);
    }
}
