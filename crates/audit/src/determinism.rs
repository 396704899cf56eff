//! The `snooze-audit determinism` subcommand: run one full-stack Snooze
//! scenario twice from the same seed and diff the run fingerprints.
//!
//! The scenario deliberately mirrors the repository's tier-1 replay
//! test: a lossy LAN, a full hierarchy (GL election, GMs, LCs), a batch
//! of on/off-workload VMs, and a mid-run GM crash — determinism must
//! hold *through* failure handling, not just on the happy path. The
//! fingerprint combines independent witnesses:
//!
//! * the engine's executed-event digest ([`snooze_simcore::Engine::digest`]),
//! * the span log's digest ([`snooze_simcore::Engine::span_digest`]), which
//!   folds every span's name, open and close time and label values,
//! * executed event count and final placements,
//! * accumulated energy (formatted, so the comparison is exact).

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_simcore::prelude::*;
use snooze_simcore::telemetry::{fnv1a, FNV_OFFSET};

/// Scenario knobs, all defaulted by the CLI.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Master seed.
    pub seed: u64,
    /// Cluster size (LC nodes).
    pub nodes: usize,
    /// VMs submitted by the client.
    pub vms: u64,
    /// Virtual seconds to run.
    pub secs: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 77,
            nodes: 8,
            vms: 10,
            secs: 300,
        }
    }
}

/// Everything one run produces that a replay must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Executed-event digest from the engine.
    pub event_digest: u64,
    /// Digest of the span log's mutation stream, label values included.
    pub span_digest: u64,
    /// Number of events executed.
    pub events: u64,
    /// FNV-1a over the (vm, lc) placement pairs, in placement order.
    pub placements: u64,
    /// Count of placed VMs.
    pub placed: usize,
    /// Total energy, formatted to µWh precision.
    pub energy: String,
}

/// Run the scenario once and fingerprint it.
pub fn run_once(sc: &Scenario) -> Fingerprint {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(sc.seed)
        .network(NetworkConfig::lossy_lan(0.02))
        .build();
    let config = SnoozeConfig::fast_test();
    let nodes = NodeSpec::standard_cluster(sc.nodes);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    let schedule: Vec<ScheduledVm> = (0..sc.vms)
        .map(|i| ScheduledVm {
            at: SimTime::from_secs(10),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::on_off(0.9, 0.1, 0.4, SimSpan::from_secs(60)),
                memory: UsageShape::Constant(0.7),
                network: UsageShape::Constant(0.2),
                seed: i,
            },
            lifetime: None,
        })
        .collect();
    let client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );
    // Determinism must hold through failure handling, so crash a GM.
    sim.schedule_crash(SimTime::from_secs(40), system.gms[0]);
    sim.run_until(SimTime::from_secs(sc.secs));

    let driver = sim
        .component(client)
        .as_client()
        .expect("client driver present");
    let placements = driver
        .placed
        .iter()
        .flat_map(|p| [p.vm.0, p.lc.0 as u64])
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
    Fingerprint {
        event_digest: sim.digest(),
        span_digest: sim.span_digest(),
        events: sim.events_executed(),
        placements,
        placed: driver.placed.len(),
        energy: format!("{:.6}", system.total_energy_wh(&sim, 0, sim.now())),
    }
}

/// Outcome of the two-run diff.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// First run.
    pub first: Fingerprint,
    /// Second run.
    pub second: Fingerprint,
}

impl Verdict {
    /// Whether the two runs are indistinguishable.
    pub fn identical(&self) -> bool {
        self.first == self.second
    }

    /// Names of the fingerprint fields that differ.
    pub fn diverging_fields(&self) -> Vec<&'static str> {
        let (a, b) = (&self.first, &self.second);
        [
            ("event_digest", a.event_digest != b.event_digest),
            ("span_digest", a.span_digest != b.span_digest),
            ("events", a.events != b.events),
            ("placements", a.placements != b.placements),
            ("placed", a.placed != b.placed),
            ("energy", a.energy != b.energy),
        ]
        .into_iter()
        .filter_map(|(field, differs)| differs.then_some(field))
        .collect()
    }
}

/// Run the scenario twice and compare.
pub fn check(sc: &Scenario) -> Verdict {
    Verdict {
        first: run_once(sc),
        second: run_once(sc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_replays_identically() {
        let sc = Scenario {
            seed: 11,
            nodes: 4,
            vms: 4,
            secs: 120,
        };
        let v = check(&sc);
        assert!(v.identical(), "diverged in {:?}", v.diverging_fields());
    }

    #[test]
    fn different_seeds_diverge() {
        let sc = Scenario {
            seed: 11,
            nodes: 4,
            vms: 4,
            secs: 120,
        };
        let a = run_once(&sc);
        let b = run_once(&Scenario { seed: 12, ..sc });
        assert_ne!(a.event_digest, b.event_digest);
        assert_ne!(a.span_digest, b.span_digest);
    }
}
