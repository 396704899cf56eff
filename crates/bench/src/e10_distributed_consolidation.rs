//! **E10 — distributed consolidation** (paper §V, evaluated):
//!
//! > "a distributed version of the algorithm will be developed and
//! > evaluated along with the energy-saving features of Snooze under
//! > realistic workloads."
//!
//! This module is the **offline** view (E10a): the partitioned
//! `DistributedAco` versus the centralized colony on the same instances —
//! the quality cost and runtime benefit of partitioning (each colony only
//! sees `n/k` items). The **in-hierarchy** view (E10b: Snooze's per-GM
//! reconfiguration *is* the distributed deployment, so sweeping the GM
//! count measures what partitioning the consolidation scope costs in
//! powered-down nodes) is a declarative scenario, `scenarios/e10b.toml`,
//! and a row of [`crate::experiments::EXPERIMENTS`].

use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::distributed::{DistributedAco, DistributedParams};
use snooze_consolidation::problem::{Consolidator, InstanceGenerator};
use snooze_simcore::rng::SimRng;
use snooze_simcore::wallclock::WallClock;

use crate::table::{f2, Table};

/// One offline comparison row.
#[derive(Clone, Debug)]
pub struct E10OfflineRow {
    /// Instance size.
    pub n: usize,
    /// Partitions.
    pub partitions: usize,
    /// Mean hosts, centralized colony.
    pub central_hosts: f64,
    /// Mean hosts, distributed colonies + ring exchange.
    pub distributed_hosts: f64,
    /// Mean runtime of the centralized colony, ms (advisory).
    pub central_ms: f64,
    /// Mean runtime of the distributed scheme, ms (advisory).
    pub distributed_ms: f64,
}

/// Offline sweep.
fn run_offline(sizes: &[usize], partitions: usize, repeats: u64, seed: u64) -> Vec<E10OfflineRow> {
    let gen = InstanceGenerator::grid11();
    sizes
        .iter()
        .map(|&n| {
            let mut row = E10OfflineRow {
                n,
                partitions,
                central_hosts: 0.0,
                distributed_hosts: 0.0,
                central_ms: 0.0,
                distributed_ms: 0.0,
            };
            let mut solved = 0u64;
            for rep in 0..repeats {
                let inst = gen.generate(n, &mut SimRng::new(seed ^ ((n as u64) << 8) ^ rep));
                let central = AcoConsolidator::new(AcoParams::default());
                let distributed = DistributedAco::new(DistributedParams {
                    partitions,
                    exchange_rounds: 2,
                    aco: AcoParams::default(),
                });
                let t0 = WallClock::start();
                let c = central.consolidate(&inst);
                let c_ms = t0.elapsed_ms();
                let t1 = WallClock::start();
                let d = distributed.consolidate(&inst);
                let d_ms = t1.elapsed_ms();
                if let (Some(c), Some(d)) = (c, d) {
                    solved += 1;
                    row.central_hosts += c.bins_used() as f64;
                    row.distributed_hosts += d.bins_used() as f64;
                    row.central_ms += c_ms;
                    row.distributed_ms += d_ms;
                }
            }
            if solved > 0 {
                let k = solved as f64;
                row.central_hosts /= k;
                row.distributed_hosts /= k;
                row.central_ms /= k;
                row.distributed_ms /= k;
            }
            row
        })
        .collect()
}

/// Default offline rows for `run_experiments e10`.
pub fn default_offline_rows() -> Vec<E10OfflineRow> {
    run_offline(&[60, 120, 240], 4, 3, 0x10)
}

/// Render the offline table.
pub fn render_offline(rows: &[E10OfflineRow]) -> Table {
    let mut t = Table::new(
        "E10a: distributed vs centralized ACO (offline) — partitioning cost",
        &[
            "n",
            "parts",
            "central hosts",
            "dist hosts",
            "central ms",
            "dist ms",
        ],
    )
    .advisory(&["central ms", "dist ms"]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.partitions.to_string(),
            f2(r.central_hosts),
            f2(r.distributed_hosts),
            f2(r.central_ms),
            f2(r.distributed_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_costs_a_bounded_amount_of_quality() {
        let rows = run_offline(&[60], 3, 2, 5);
        let r = &rows[0];
        assert!(r.central_hosts > 0.0 && r.distributed_hosts > 0.0);
        assert!(
            r.distributed_hosts <= r.central_hosts * 1.3,
            "distributed within 30%: {} vs {}",
            r.distributed_hosts,
            r.central_hosts
        );
    }
}
