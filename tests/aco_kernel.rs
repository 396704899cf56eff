//! Tier-1 pins on consolidator decisions. First the ACO construction
//! kernel: every bit of the colony's output on three seeded instances. The
//! constants were captured on the commit before the demand-class memoised
//! kernel landed, so plain `cargo test -q` fails if any optimisation of
//! `aco.rs` moves a single random draw, weight or tie-break. Those of the
//! colonies that meet the lower bound on identical hosts were re-captured
//! once, when the colony began stopping there: the step counts and
//! digests moved, every host count stayed. Then one
//! assignment per registry key, so the same holds for every packer a
//! scenario can name. Last, the benchmark's `pack_kernels` colonies:
//! `(hosts, assignment digest)` of its accuracy family at two seeds and of
//! its 512-VM instance under each colony key. Those run only in release
//! (`scripts/check.sh` runs them).

use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::ffd::{BestFit, SortKey};
use snooze_consolidation::problem::{Consolidator, Instance, InstanceGenerator};
use snooze_consolidation::registry::{ConsolidatorRegistry, ParamValue, Params};
use snooze_simcore::rng::SimRng;
use snooze_telemetry::{fnv1a, FNV_OFFSET};

/// FNV-1a over the assignment's bin indices (little-endian u64 each).
fn assignment_digest(assignment: &[usize]) -> u64 {
    assignment.iter().fold(FNV_OFFSET, |hash, &bin| {
        fnv1a(hash, &(bin as u64).to_le_bytes())
    })
}

/// `(hosts, construction_steps, FNV-1a of assignment)` of a default-colony
/// run.
fn pin(instance: &Instance) -> (usize, u64, u64) {
    let run = AcoConsolidator::new(AcoParams::default()).run(instance);
    let solution = run.solution.expect("instance is solvable");
    assert!(solution.is_feasible(instance));
    (
        solution.bins_used(),
        run.profile.construction_steps,
        assignment_digest(&solution.assignment),
    )
}

#[test]
fn grid11_n60_is_pinned() {
    let inst = InstanceGenerator::grid11().generate(60, &mut SimRng::new(11));
    assert_eq!(pin(&inst), (27, 26_235, 4_767_523_307_200_430_394));
}

#[test]
fn twelve_flavour_n200_is_pinned() {
    // The live system's shape: 12 VM flavours on 8-core hosts. The colony
    // meets the lower bound in its first cycle and stops there (it ran
    // 78 300 steps over 30 cycles to the same 62 hosts before it stopped).
    let inst = InstanceGenerator::grid11().generate_flavoured(200, 120, &mut SimRng::new(12));
    assert_eq!(inst.lower_bound(), 62);
    assert_eq!(pin(&inst), (62, 2_610, 8_227_951_713_556_221_963));
}

#[test]
fn heterogeneous_n40_is_pinned() {
    let inst = InstanceGenerator::grid11().generate_heterogeneous(40, &mut SimRng::new(13));
    assert_eq!(pin(&inst), (11, 15_218, 13_856_374_691_520_254_756));
}

/// `(hosts, FNV-1a of assignment)` of every registry key and of E2's
/// best-fit row, on the twelve-flavour instance with VM `i` on host
/// `i mod 120` as the incumbent. Every key runs with its defaults but two:
/// `bnb` gets a 10 000-node budget, and `mo-aco` values a migration at one
/// host, so moving a VM back to an empty incumbent host pays too and the
/// revert loop, in its tie-break order, decides most of the assignment
/// (at the default weight the colony's full hosts leave room for four
/// reverts, none of them order-dependent). Captured on the commit before
/// the registry went from nine keys to these six. The three colony keys
/// were re-captured when the colony began stopping at the lower bound:
/// `aco` at the same 62 hosts and `daco` at the same 63, while `mo-aco`
/// went from 119 hosts and 78 migrations to 120 and 66 — its objective
/// `hosts + 1.0 · migrations` from 197 to 186 — because its revert loop
/// starts from a different 62-host packing.
#[test]
fn every_registry_key_and_best_fit_is_pinned() {
    const PINS: [(&str, usize, u64); 6] = [
        ("aco", 62, 8_227_951_713_556_221_963),
        ("bnb", 62, 14_033_310_722_960_580_757),
        ("daco", 63, 1_592_570_847_574_768_559),
        ("ffd", 62, 4_325_253_463_225_186_640),
        ("mo-aco", 120, 12_750_804_601_665_959_708),
        ("wfd", 120, 9_236_662_814_269_218_628),
    ];
    let mut inst = InstanceGenerator::grid11().generate_flavoured(200, 120, &mut SimRng::new(12));
    inst.incumbent = Some((0..inst.n_items()).map(|i| i % inst.n_bins()).collect());
    let registry = ConsolidatorRegistry::standard();
    assert_eq!(PINS.map(|p| p.0), *registry.keys(), "one pin per key");
    let outcome = |algo: &dyn Consolidator| {
        let solution = algo.consolidate(&inst).expect("instance is solvable");
        assert!(solution.is_feasible(&inst), "{}", algo.name());
        (
            solution.bins_used(),
            assignment_digest(&solution.assignment),
        )
    };
    for (key, hosts, digest) in PINS {
        let mut params = Params::new();
        match key {
            "bnb" => params.insert("node_budget".into(), ParamValue::Int(10_000)),
            "mo-aco" => params.insert("migration_weight".into(), ParamValue::Float(1.0)),
            _ => None,
        };
        let algo = registry.build(key, &params).expect("every key builds");
        assert_eq!(outcome(algo.as_ref()), (hosts, digest), "{key}");
    }
    let best_fit = BestFit { key: SortKey::L2 };
    assert_eq!(outcome(&best_fit), (62, 4_325_253_463_225_186_640));
}

/// The benchmark's `pack_kernels` accuracy family at `seed`, built the way
/// `benchmark/src/workloads/pack.rs` builds it: per size and repeat, a
/// GRID'11 instance from the forked stream, then the colony seed drawn
/// from what is left of that stream.
fn pack_accuracy_family(seed: u64) -> Vec<(Instance, u64)> {
    const STREAM_ACCURACY: u64 = 1;
    let gen = InstanceGenerator::grid11();
    let root = SimRng::new(seed);
    let mut family = Vec::new();
    for n in [10u64, 15, 20, 25, 30] {
        for rep in 0..10 {
            let mut rng = root.fork(STREAM_ACCURACY).fork(n).fork(rep);
            let instance = gen.generate(n as usize, &mut rng);
            family.push((instance, rng.range(0, 1 << 30) as u64));
        }
    }
    family
}

/// `(total hosts, FNV-1a over every assignment in family order)` of the
/// registry's `aco` on the accuracy family at `seed`.
fn pack_family_pin(seed: u64) -> (usize, u64) {
    let registry = ConsolidatorRegistry::standard();
    let (mut hosts, mut digest) = (0, FNV_OFFSET);
    for (instance, aco_seed) in pack_accuracy_family(seed) {
        let params: Params = [("seed".to_string(), ParamValue::Int(aco_seed as i64))]
            .into_iter()
            .collect();
        let aco = registry.build("aco", &params).expect("aco builds");
        let solution = aco.consolidate(&instance).expect("instance is solvable");
        assert!(solution.is_feasible(&instance));
        hosts += solution.bins_used();
        for &bin in &solution.assignment {
            digest = fnv1a(digest, &(bin as u64).to_le_bytes());
        }
    }
    (hosts, digest)
}

/// `pack_kernels`' colony decisions at its default seed and at a held-out
/// one. Captured on the commit before the colony's `η^β` went from `powf`
/// to one multiply, so a last-bit difference between the two that moved a
/// draw fails here. Seed 90210's digest was re-captured when the colony
/// began stopping at the lower bound, at the same 471 hosts. Release only:
/// 50 default colonies each.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pack_accuracy_family_is_pinned() {
    assert_eq!(
        [3602, 90210].map(pack_family_pin),
        [
            (471, 3_643_288_009_795_637_570),
            (471, 4_858_381_321_367_534_784)
        ],
        "seeds 3602, 90210"
    );
}

/// `(hosts, FNV-1a of assignment)` of `aco`, `daco` and `mo-aco` at their
/// registry defaults on `pack_kernels`' 512-VM instance (seed 3602), the
/// same capture as above. Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pack_big_instance_colonies_are_pinned() {
    const STREAM_BIG: u64 = 2;
    const PINS: [(&str, usize, u64); 3] = [
        ("aco", 224, 14_844_216_592_772_203_829),
        ("daco", 225, 11_187_856_616_549_259_476),
        // No incumbent, so nothing to revert: the plain colony's packing.
        ("mo-aco", 224, 14_844_216_592_772_203_829),
    ];
    let big = InstanceGenerator::grid11().generate(512, &mut SimRng::new(3602).fork(STREAM_BIG));
    let registry = ConsolidatorRegistry::standard();
    let outcome = PINS.map(|(key, _, _)| {
        let algo = registry.build(key, &Params::new()).expect("key builds");
        let solution = algo.consolidate(&big).expect("instance is solvable");
        assert!(solution.is_feasible(&big), "{key}");
        (
            key,
            solution.bins_used(),
            assignment_digest(&solution.assignment),
        )
    });
    assert_eq!(outcome, PINS);
}
