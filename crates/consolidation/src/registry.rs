//! The string-keyed consolidator registry.
//!
//! Every placement algorithm in this crate is constructible from a key plus
//! a flat map of scalar parameters — the bridge that lets scenario TOML
//! pick any algorithm with zero per-variant Rust. Unknown keys and
//! unknown or ill-typed parameters are hard errors naming what *is*
//! available, so a typo in a scenario file fails loudly at compile time
//! rather than silently running the default.

use std::collections::BTreeMap;

use snooze_simcore::excerpt::Excerpt;

use crate::aco::{AcoConsolidator, AcoParams, UpdateRule};
use crate::distributed::{DistributedAco, DistributedParams};
use crate::exact::BranchAndBound;
use crate::ffd::{BestFit, FirstFitDecreasing, SortKey, WorstFit};
use crate::multi_objective::{MigrationAwareAco, MigrationAwareParams};
use crate::problem::{Consolidator, Instance, Solution};

/// A scalar algorithm parameter, as scenario TOML can express it.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// An integer.
    Int(i64),
    /// A float (integers coerce where a float is expected).
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// A flat parameter map (sorted for deterministic error messages).
pub type Params = BTreeMap<String, ParamValue>;

/// Tracks which parameters a builder consumed so leftovers can be
/// rejected by name.
struct ParamReader<'a> {
    params: &'a Params,
    consumed: Vec<&'a str>,
}

impl<'a> ParamReader<'a> {
    fn new(params: &'a Params) -> Self {
        ParamReader {
            params,
            consumed: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a ParamValue> {
        let v = self.params.get_key_value(key);
        if let Some((k, _)) = v {
            self.consumed.push(k.as_str());
        }
        v.map(|(_, v)| v)
    }

    fn usize(&mut self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) if *i >= 0 => Ok(*i as usize),
            Some(other) => Err(mismatch(key, "a non-negative integer", other)),
        }
    }

    fn u64(&mut self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) if *i >= 0 => Ok(*i as u64),
            Some(other) => Err(mismatch(key, "a non-negative integer", other)),
        }
    }

    fn f64(&mut self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Float(f)) => Ok(*f),
            Some(ParamValue::Int(i)) => Ok(*i as f64),
            Some(other) => Err(mismatch(key, "a number", other)),
        }
    }

    fn str(&mut self, key: &str, default: &str) -> Result<String, String> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(ParamValue::Str(s)) => Ok(s.clone()),
            Some(other) => Err(mismatch(key, "a string", other)),
        }
    }

    /// Error on any parameter no builder consumed.
    fn finish(self) -> Result<(), String> {
        for key in self.params.keys() {
            if !self.consumed.contains(&key.as_str()) {
                return Err(format!("unknown parameter `{}`", Excerpt(key)));
            }
        }
        Ok(())
    }
}

/// A type-mismatch error, quoting the value it got briefly.
fn mismatch(key: &str, expected: &str, got: &ParamValue) -> String {
    format!(
        "parameter `{key}` must be {expected}, got {}",
        Excerpt(&format!("{got:?}"))
    )
}

fn sort_key(reader: &mut ParamReader<'_>) -> Result<SortKey, String> {
    let label = reader.str("sort", "l1")?;
    SortKey::ALL
        .iter()
        .copied()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            let all: Vec<&str> = SortKey::ALL.iter().map(|k| k.label()).collect();
            format!(
                "unknown sort key `{}`; available: {}",
                Excerpt(&label),
                all.join(", ")
            )
        })
}

/// Colony parameters from `preset` (an [`AcoParams`] constructor name)
/// plus individual field overrides, range-checked by
/// [`AcoParams::validate`].
fn aco_params(reader: &mut ParamReader<'_>) -> Result<AcoParams, String> {
    let preset = reader.str("preset", "default")?;
    let mut p = match preset.as_str() {
        "default" => AcoParams::default(),
        "fast" => AcoParams::fast(),
        other => {
            return Err(format!(
                "unknown aco preset `{}`; available: default, fast",
                Excerpt(other)
            ))
        }
    };
    p.n_ants = reader.usize("n_ants", p.n_ants)?;
    p.n_cycles = reader.usize("n_cycles", p.n_cycles)?;
    p.alpha = reader.f64("alpha", p.alpha)?;
    p.beta = reader.f64("beta", p.beta)?;
    p.rho = reader.f64("rho", p.rho)?;
    p.q = reader.f64("q", p.q)?;
    p.tau0 = reader.f64("tau0", p.tau0)?;
    p.tau_min = reader.f64("tau_min", p.tau_min)?;
    p.seed = reader.u64("seed", p.seed)?;
    p.update_rule = match reader.str("update_rule", "global_best")?.as_str() {
        "global_best" => UpdateRule::GlobalBest,
        "all_ants" => UpdateRule::AllAnts,
        other => {
            return Err(format!(
                "unknown update_rule `{}`; available: global_best, all_ants",
                Excerpt(other)
            ))
        }
    };
    p.validate()?;
    Ok(p)
}

/// Branch-and-bound behind a homogeneity guard: the raw solver asserts on
/// heterogeneous instances (its symmetry breaking needs identical bins);
/// in a live reconfiguration loop that must be a clean "no plan", not a
/// panic.
#[derive(Clone, Copy, Debug, Default)]
pub struct GuardedBranchAndBound {
    /// The underlying exact solver.
    pub inner: BranchAndBound,
}

impl Consolidator for GuardedBranchAndBound {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        if !instance.is_homogeneous() {
            return None;
        }
        self.inner.consolidate(instance)
    }

    fn name(&self) -> &'static str {
        "B&B"
    }
}

/// Builds any of the crate's consolidators from a string key and a flat
/// parameter map.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsolidatorRegistry;

/// Every key a live hierarchy runs, sorted. Kept in one place so error
/// messages, sweeps and smoke tests can't drift from the builder. `bfd`
/// (best-fit) builds too but is an offline comparator only: on the inputs
/// the hierarchy hands a packer it decides as `ffd` does, so the arena
/// does not sweep it and only pack tables name it.
pub const REGISTRY_KEYS: [&str; 6] = ["aco", "bnb", "daco", "ffd", "mo-aco", "wfd"];

/// The keys whose consolidator runs the ACO colony, sorted: the ones that
/// read the colony parameters (`preset`, `n_ants`, `n_cycles`, …).
pub const COLONY_KEYS: [&str; 3] = ["aco", "daco", "mo-aco"];

impl ConsolidatorRegistry {
    /// The registry of everything in this crate.
    pub fn standard() -> Self {
        ConsolidatorRegistry
    }

    /// The keys a live hierarchy runs ([`REGISTRY_KEYS`]), sorted.
    pub fn keys(&self) -> &'static [&'static str] {
        &REGISTRY_KEYS
    }

    /// Build the consolidator registered under `algo` from `params`.
    /// Unknown keys, unknown parameters and type mismatches are errors;
    /// every parameter is optional with the algorithm's documented
    /// default.
    pub fn build(&self, algo: &str, params: &Params) -> Result<Box<dyn Consolidator>, String> {
        let mut r = ParamReader::new(params);
        let built: Box<dyn Consolidator> = match algo {
            "aco" => Box::new(AcoConsolidator::new(aco_params(&mut r)?)),
            "ffd" => Box::new(FirstFitDecreasing {
                key: sort_key(&mut r)?,
            }),
            "wfd" => Box::new(WorstFit {
                key: sort_key(&mut r)?,
            }),
            "bfd" => Box::new(BestFit {
                key: sort_key(&mut r)?,
            }),
            "bnb" => {
                let default = BranchAndBound::default();
                Box::new(GuardedBranchAndBound {
                    inner: BranchAndBound {
                        node_budget: r.u64("node_budget", default.node_budget)?,
                    },
                })
            }
            "daco" => {
                let default = DistributedParams::default();
                Box::new(DistributedAco::new(DistributedParams {
                    partitions: r.usize("partitions", default.partitions)?,
                    exchange_rounds: r.usize("exchange_rounds", default.exchange_rounds)?,
                    aco: aco_params(&mut r)?,
                }))
            }
            "mo-aco" => {
                let default = MigrationAwareParams::default();
                Box::new(MigrationAwareAco::new(MigrationAwareParams {
                    aco: aco_params(&mut r)?,
                    migration_weight: r.f64("migration_weight", default.migration_weight)?,
                }))
            }
            other => {
                return Err(format!(
                    "unknown consolidator `{}`; available: {}",
                    Excerpt(other),
                    REGISTRY_KEYS.join(", ")
                ))
            }
        };
        r.finish().map_err(|e| format!("{}: {e}", Excerpt(algo)))?;
        Ok(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, ParamValue)]) -> Params {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn every_key_builds_with_empty_params() {
        let reg = ConsolidatorRegistry::standard();
        // `preset` is a colony parameter: exactly the colony keys take it.
        let preset = params(&[("preset", ParamValue::Str("fast".into()))]);
        for key in reg.keys() {
            let c = reg.build(key, &Params::new());
            assert!(c.is_ok(), "{key}: {:?}", c.err());
            let colony = reg.build(key, &preset).is_ok();
            assert_eq!(colony, COLONY_KEYS.contains(key), "{key}");
        }
    }

    #[test]
    fn unknown_key_lists_the_field() {
        // Deleted keys are errors like any unknown one.
        for algo in ["simulated-annealing", "aco-pso", "nfd"] {
            let err = ConsolidatorRegistry::standard()
                .build(algo, &Params::new())
                .err()
                .expect("build must fail");
            assert!(
                err.contains(&format!("unknown consolidator `{algo}`")),
                "{err}"
            );
            assert!(
                err.ends_with("available: aco, bnb, daco, ffd, mo-aco, wfd"),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_parameter_is_rejected() {
        for (key, name, value) in [
            ("ffd", "colour", ParamValue::Str("red".into())),
            // Deleted options are errors, not no-ops (spelled in two
            // halves so a tree-wide grep for them finds no live use).
            ("aco", concat!("parallel", "_ants"), ParamValue::Bool(true)),
            ("aco", concat!("local", "_search"), ParamValue::Bool(true)),
            ("aco", "swarm", ParamValue::Int(8)),
        ] {
            let err = ConsolidatorRegistry::standard()
                .build(key, &params(&[(name, value)]))
                .err()
                .expect("build must fail");
            assert!(
                err.contains(&format!("unknown parameter `{name}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let err = ConsolidatorRegistry::standard()
            .build(
                "aco",
                &params(&[("n_ants", ParamValue::Str("many".into()))]),
            )
            .err()
            .expect("build must fail");
        assert!(err.contains("n_ants"), "{err}");
    }

    /// Names and values come from scenario files: a 2000-byte one is
    /// quoted as an excerpt, so the error stays short and still says what
    /// was refused.
    #[test]
    fn a_huge_name_or_value_yields_a_short_error() {
        let huge = "x".repeat(2000);
        let text = || ParamValue::Str(huge.clone());
        for (algo, pairs, needle) in [
            (huge.as_str(), vec![], "unknown consolidator `xxx"),
            ("aco", vec![("preset", text())], "unknown aco preset `xxx"),
            (
                "aco",
                vec![(huge.as_str(), ParamValue::Int(1))],
                "unknown parameter `xxx",
            ),
            (
                "aco",
                vec![("update_rule", text())],
                "unknown update_rule `xxx",
            ),
            ("ffd", vec![("sort", text())], "unknown sort key `xxx"),
            (
                "aco",
                vec![("n_ants", text())],
                "parameter `n_ants` must be",
            ),
        ] {
            let err = ConsolidatorRegistry::standard()
                .build(algo, &params(&pairs))
                .err()
                .expect("build must fail");
            assert!(err.len() < 512, "{} bytes: {err}", err.len());
            assert!(err.contains(needle), "`{needle}` not in: {err}");
        }
    }

    /// Every colony-backed key refuses `pairs` with an error containing
    /// each of `needles`.
    fn assert_colony_rejects(pairs: &[(&str, ParamValue)], needles: &[&str]) {
        for key in COLONY_KEYS {
            let err = ConsolidatorRegistry::standard()
                .build(key, &params(pairs))
                .err()
                .unwrap_or_else(|| panic!("{key} must reject {pairs:?}"));
            for needle in needles {
                assert!(err.contains(needle), "{key}: `{needle}` not in: {err}");
            }
        }
    }

    #[test]
    fn empty_colonies_are_rejected() {
        for name in ["n_ants", "n_cycles"] {
            assert_colony_rejects(&[(name, ParamValue::Int(0))], &[name, "at least 1"]);
        }
    }

    #[test]
    fn evaporation_rate_outside_the_open_unit_interval_is_rejected() {
        for rho in [0.0, 1.0, 1.5, -0.1, f64::NAN] {
            assert_colony_rejects(&[("rho", ParamValue::Float(rho))], &["`rho`", "(0, 1)"]);
        }
        assert_colony_rejects(&[("rho", ParamValue::Int(1))], &["`rho`", "(0, 1)"]);
    }

    #[test]
    fn negative_or_non_finite_exponents_and_deposit_scale_are_rejected() {
        for name in ["alpha", "beta", "q"] {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                assert_colony_rejects(
                    &[(name, ParamValue::Float(bad))],
                    &[name, "finite and >= 0"],
                );
            }
        }
    }

    #[test]
    fn inverted_or_degenerate_pheromone_band_is_rejected() {
        let band = ["tau_min", "tau0", "0 < tau_min <= tau0"];
        assert_colony_rejects(&[("tau_min", ParamValue::Float(2.0))], &band);
        assert_colony_rejects(&[("tau_min", ParamValue::Float(0.0))], &band);
        assert_colony_rejects(&[("tau_min", ParamValue::Float(f64::NAN))], &band);
        assert_colony_rejects(&[("tau0", ParamValue::Float(0.001))], &band);
        assert_colony_rejects(&[("tau0", ParamValue::Float(f64::INFINITY))], &band);
    }

    #[test]
    fn ablation_corners_of_the_parameter_space_still_build() {
        // E8's ablations, and the edges of every accepted range.
        let reg = ConsolidatorRegistry::standard();
        for pairs in [
            vec![("alpha", ParamValue::Int(0))],
            vec![("beta", ParamValue::Int(0))],
            vec![("q", ParamValue::Int(0))],
            vec![("rho", ParamValue::Float(0.05))],
            vec![("rho", ParamValue::Float(0.6))],
            vec![("rho", ParamValue::Float(0.9))],
            vec![
                ("n_ants", ParamValue::Int(1)),
                ("n_cycles", ParamValue::Int(1)),
            ],
            vec![("tau_min", ParamValue::Float(1.0))],
        ] {
            for key in COLONY_KEYS {
                let built = reg.build(key, &params(&pairs));
                assert!(built.is_ok(), "{key} {pairs:?}: {:?}", built.err());
            }
        }
    }

    #[test]
    fn default_aco_build_matches_the_type_defaults() {
        // The digest-identity contract: building "aco" with only the
        // preset/n_cycles the old ReconfigurationConfig knew about must
        // reproduce AcoConsolidator::new(AcoParams::default()) exactly.
        let built = ConsolidatorRegistry::standard()
            .build(
                "aco",
                &params(&[
                    ("preset", ParamValue::Str("default".into())),
                    ("n_cycles", ParamValue::Int(15)),
                ]),
            )
            .unwrap();
        assert_eq!(built.name(), "ACO");
        let reference = AcoConsolidator::new(AcoParams {
            n_cycles: 15,
            ..AcoParams::default()
        });
        let inst = crate::problem::InstanceGenerator::grid11()
            .generate(24, &mut snooze_simcore::rng::SimRng::new(3));
        assert_eq!(built.consolidate(&inst), reference.consolidate(&inst));
    }

    #[test]
    fn sort_keys_select_the_ffd_variant() {
        let reg = ConsolidatorRegistry::standard();
        let c = reg
            .build("ffd", &params(&[("sort", ParamValue::Str("cpu".into()))]))
            .unwrap();
        assert_eq!(c.name(), "FFD-cpu");
        let err = reg
            .build("ffd", &params(&[("sort", ParamValue::Str("disk".into()))]))
            .err()
            .expect("build must fail");
        assert!(err.contains("available: cpu, mem, l1, l2, linf"), "{err}");
    }

    #[test]
    fn bfd_is_best_fit_under_the_sort_param() {
        let built = ConsolidatorRegistry::standard()
            .build("bfd", &params(&[("sort", ParamValue::Str("l2".into()))]))
            .unwrap();
        assert_eq!(built.name(), "BFD");
        let inst = crate::problem::InstanceGenerator::grid11()
            .generate(40, &mut snooze_simcore::rng::SimRng::new(5));
        let reference = BestFit { key: SortKey::L2 };
        assert_eq!(built.consolidate(&inst), reference.consolidate(&inst));
    }

    #[test]
    fn guarded_bnb_declines_heterogeneous_instances() {
        use snooze_cluster::resources::ResourceVector;
        let inst = Instance {
            items: vec![ResourceVector::splat(0.5)],
            bins: vec![ResourceVector::splat(1.0), ResourceVector::splat(2.0)],
            incumbent: None,
        };
        let c = ConsolidatorRegistry::standard()
            .build("bnb", &Params::new())
            .unwrap();
        assert!(c.consolidate(&inst).is_none(), "no panic, just no plan");
    }
}
