//! Pack runs: consolidators on generated instances, no simulated
//! hierarchy.
//!
//! A scenario document with a `[pack]` table is a *pack document*: `n`
//! VMs per instance, `instances` per run, a `seed`, `algo` (a consolidator
//! registry key) and its `[pack.params]`. One run is one (size, algorithm,
//! parameters) cell over `instances` GRID'11 instances; the document's
//! `[[sweep]]`, `[[variant]]` and `[override.*]` generate the runs as they
//! do for a simulated scenario. `scenarios/e1.toml`, in short:
//!
//! ```toml
//! name = "e1-{pack.n}-{pack.algo}"
//! [pack]
//! instances = 5
//! seed = 225
//! [[sweep]]         # 7 sizes
//! [sweep.pack]
//! n = [10, 15, 20, 25, 30, 35, 40]
//! [[sweep]]         # × 3 packers, each with its own parameters
//! [sweep.pack]
//! algo = ["ffd", "aco", "bnb"]
//! params = [{ sort = "cpu" }, { seed = 225 }, {}]
//! ```
//!
//! `[pack.params]` goes to [`ConsolidatorRegistry::build`] as
//! `[config.reconfiguration.params]` does. Instance `i` of size `n` draws
//! from `SimRng::new(seed ^ (n << 16) ^ i)`, and a colony key runs it with
//! its `seed` parameter XOR `i`, so each instance gets a colony of its own.

use snooze_cluster::power::LinearPower;
use snooze_consolidation::aco::AcoParams;
use snooze_consolidation::energy::{compute_energy_j, placement_energy_wh, EnergyParams};
use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::problem::{Consolidator, InstanceGenerator};
use snooze_consolidation::registry::{ConsolidatorRegistry, ParamValue, Params, COLONY_KEYS};
use snooze_simcore::excerpt::Excerpt;
use snooze_simcore::rng::SimRng;
use snooze_simcore::wallclock::WallClock;

use crate::spec::{registry_params, Tbl};
use crate::toml::Reader;

/// Most VMs one instance may hold, and most instances one run may draw.
/// Instance `i` of size `n` draws from `seed ^ (n << 16) ^ i`: below
/// `2^16`, `i` stays in the low 16 bits and `n` above them, so no two
/// (size, instance) pairs of a run share a stream.
pub const MAX_PACK: i64 = (1 << 16) - 1;

/// Power draw (watts) of the machine assumed to run the consolidation
/// algorithm itself: algorithms are charged for their own compute, as the
/// paper does ("including energy spent into the computation").
const SOLVER_MACHINE_WATTS: f64 = 250.0;

/// How long a computed placement is assumed to hold before the next
/// reconfiguration pass (the paper's consolidation is periodic; one hour
/// is a neutral choice that only scales the energy numbers, not the
/// ranking).
const PLACEMENT_HOLD_SECS: f64 = 3600.0;

/// One pack run: which packer, on which instances.
#[derive(Clone, Debug, PartialEq)]
pub struct PackSpec {
    /// Run name (placeholders filled).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// VMs per instance.
    pub n: usize,
    /// Instances the run packs.
    pub instances: u64,
    /// Instance seed (see the module docs for the per-instance rule).
    pub seed: u64,
    /// The consolidator's registry key.
    pub algo: String,
    /// Its parameters, as `[pack.params]` gives them.
    pub params: Params,
}

/// What one instance of a pack run measured.
#[derive(Clone, Debug)]
pub struct Packed {
    /// Hosts used.
    pub hosts: usize,
    /// Mean utilization of the used hosts.
    pub util: f64,
    /// Energy of the placement held for an hour plus the solver's own
    /// compute, Wh. The compute share is host wall time: advisory.
    pub energy_wh: f64,
    /// Solver wall time, ms (advisory).
    pub ms: f64,
    /// `bnb` only: whether the search proved its solution optimal.
    pub proven: Option<bool>,
}

/// A finished pack run.
#[derive(Clone, Debug)]
pub struct PackOutcome {
    /// The consolidator's display name (`FFD-cpu`, `ACO`, `B&B`).
    pub label: &'static str,
    /// One entry per instance, in draw order.
    pub instances: Vec<Packed>,
}

impl PackSpec {
    /// Decode a spec from a (variant-expanded) root table.
    pub fn from_value(root: &Tbl) -> Result<PackSpec, String> {
        let root = Reader::new(root, "scenario");
        let pack = root.table("pack")?;
        let count = |key: &str| match pack.int(key)? {
            v @ 1..=MAX_PACK => Ok(v),
            v => Err(pack.invalid(key, format_args!("in 1..={MAX_PACK}, got {v}"))),
        };
        let params = match pack.opt_table("params")? {
            Some(p) => registry_params(&p.rest(), "pack")?,
            None => Params::new(),
        };
        let spec = PackSpec {
            name: root.str("name")?.into(),
            description: root.opt_str("description")?.unwrap_or("").into(),
            n: count("n")? as usize,
            instances: count("instances")? as u64,
            seed: pack.int("seed")?,
            algo: pack.str("algo")?.into(),
            params,
        };
        pack.finish(())?;
        root.finish(spec)
    }

    /// The consolidator for instance `i`, from the registry: a colony key
    /// gets its `seed` parameter (the colony default when absent) XOR `i`.
    pub fn build(&self, i: u64) -> Result<Box<dyn Consolidator>, String> {
        let mut params = self.params.clone();
        if COLONY_KEYS.contains(&self.algo.as_str()) {
            let seed = match params.get("seed") {
                None => Some(AcoParams::default().seed),
                Some(ParamValue::Int(seed)) => u64::try_from(*seed).ok(),
                Some(_) => None, // the registry names the type error
            };
            if let Some(seed) = seed {
                params.insert("seed".into(), ParamValue::Int((seed ^ i) as i64));
            }
        }
        let registry = ConsolidatorRegistry::standard();
        registry
            .build(&self.algo, &params)
            .map_err(|e| format!("pack: {e}"))
    }
}

/// Pack every instance of `spec`, in draw order.
pub fn run(spec: &PackSpec) -> Result<PackOutcome, String> {
    let (gen, power) = (InstanceGenerator::grid11(), LinearPower::grid5000());
    let mut label = "";
    let mut instances = Vec::with_capacity(spec.instances as usize);
    for i in 0..spec.instances {
        let rng = &mut SimRng::new(spec.seed ^ (spec.n as u64) << 16 ^ i);
        let instance = gen.generate(spec.n, rng);
        let algo = spec.build(i)?;
        let clock = WallClock::start();
        // `proven` is the search's own verdict, which `Consolidator` does
        // not return; the registry has checked `node_budget` already.
        let (solution, proven) = match spec.algo.as_str() {
            "bnb" => {
                let node_budget = match spec.params.get("node_budget") {
                    Some(ParamValue::Int(budget)) => *budget as u64,
                    _ => BranchAndBound::default().node_budget,
                };
                let exact = BranchAndBound { node_budget }.solve(&instance);
                (exact.solution, Some(exact.optimal))
            }
            _ => (algo.consolidate(&instance), None),
        };
        let ms = clock.elapsed_ms();
        let algo_name = Excerpt(&spec.algo);
        let solution = solution.ok_or_else(|| format!("`{algo_name}` placed no instance {i}"))?;
        let energy = EnergyParams {
            power: &power,
            duration_secs: PLACEMENT_HOLD_SECS,
            compute_overhead_j: compute_energy_j(ms / 1e3, SOLVER_MACHINE_WATTS),
        };
        label = algo.name();
        instances.push(Packed {
            hosts: solution.bins_used(),
            util: solution.avg_used_bin_utilization(&instance),
            energy_wh: placement_energy_wh(&instance, &solution, &energy),
            ms,
            proven,
        });
    }
    Ok(PackOutcome { label, instances })
}
