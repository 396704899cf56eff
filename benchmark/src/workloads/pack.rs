//! `pack_kernels`: the consolidation layer on its own, no engine.
//!
//! (A) accuracy — the paper's E1 family: seeded GRID'11 instances at
//! several sizes packed by FFD (cpu presort, the paper's baseline), ACO
//! and exact branch-and-bound; (B) speed — `aco`, `ffd` and `wfd` on one
//! large instance. Only those and the exact solver are inside `wall_s`,
//! so removing another registry key cannot read as a speed-up; the
//! traced run sweeps every key the registry reports, outside the timer.

use std::time::Instant;

use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::problem::{Consolidator, Instance, InstanceGenerator, Solution};
use snooze_consolidation::registry::{ConsolidatorRegistry, ParamValue, Params as AlgoParams};
use snooze_simcore::rng::SimRng;

use super::{Harness, Outcome, Params};
use crate::checks;
use crate::metrics::ledger_has_consolidator;
use crate::spans::Recorder;

/// Stream labels under the run's seed, so instances and colony seeds
/// never collide across sizes and repeats.
const STREAM_ACCURACY: u64 = 1;
const STREAM_BIG: u64 = 2;

struct Input {
    /// `(instance, aco seed)` per accuracy instance.
    family: Vec<(Instance, u64)>,
    big: Instance,
    exact: BranchAndBound,
}

fn algo_params(pairs: &[(&str, ParamValue)]) -> AlgoParams {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn build(key: &str, params: &AlgoParams) -> Result<Box<dyn Consolidator>, String> {
    ConsolidatorRegistry::standard().build(key, params)
}

fn setup(seed: u64, p: &Params) -> Result<Input, String> {
    let gen = InstanceGenerator::grid11();
    let root = SimRng::new(seed);
    let per_size = p.int("instances_per_size")?;
    let mut family = Vec::new();
    for n in p.ints("sizes")? {
        for rep in 0..per_size {
            let mut rng = root.fork(STREAM_ACCURACY).fork(n).fork(rep);
            let instance = gen.generate(n as usize, &mut rng);
            family.push((instance, rng.range(0, 1 << 30) as u64));
        }
    }
    let big = gen.generate(
        p.int("big_instance_vms")? as usize,
        &mut root.fork(STREAM_BIG),
    );
    Ok(Input {
        family,
        big,
        exact: BranchAndBound {
            node_budget: p.int("exact_node_budget")?,
        },
    })
}

/// One timed, checked `consolidate` call.
struct Call {
    solution: Option<Solution>,
    seconds: f64,
}

fn consolidate(
    rec: &mut Recorder,
    out: &mut Outcome,
    key: &str,
    algo: &dyn Consolidator,
    instance: &Instance,
) -> Call {
    let start = Instant::now();
    let solution = rec.span(&format!("consolidation.{key}.consolidate"), |_| {
        algo.consolidate(instance)
    });
    let seconds = start.elapsed().as_secs_f64();
    out.attempted += 1;
    match &solution {
        None => {
            out.failed += 1;
            out.failures.push(format!("{key}: no solution"));
        }
        Some(s) => {
            let sound = checks::packing_sound(
                key,
                s.is_feasible(instance),
                s.bins_used(),
                instance.lower_bound(),
            );
            if sound.is_err() {
                out.failed += 1;
            }
            out.check(sound);
        }
    }
    Call { solution, seconds }
}

fn bins(call: &Call) -> usize {
    call.solution.as_ref().map_or(0, Solution::bins_used)
}

fn body(rec: &mut Recorder, input: &Input, out: &mut Outcome) -> Result<(), String> {
    // (A) accuracy.
    let ffd = build(
        "ffd",
        &algo_params(&[("sort", ParamValue::Str("cpu".into()))]),
    )?;
    let (mut aco_all, mut ffd_all) = (0usize, 0usize);
    let (mut aco_proven, mut opt_proven, mut proven) = (0usize, 0usize, 0usize);
    let mut exact_s = 0.0;
    for (instance, aco_seed) in &input.family {
        let aco = build(
            "aco",
            &algo_params(&[("seed", ParamValue::Int(*aco_seed as i64))]),
        )?;
        let f = consolidate(rec, out, "ffd", ffd.as_ref(), instance);
        let a = consolidate(rec, out, "aco", aco.as_ref(), instance);
        let start = Instant::now();
        let exact = rec.span("consolidation.exact.solve", |_| input.exact.solve(instance));
        exact_s += start.elapsed().as_secs_f64();
        out.attempted += 1;
        let Some(best) = &exact.solution else {
            out.failed += 1;
            out.failures.push("exact: no solution".into());
            continue;
        };
        out.check(checks::packing_sound(
            "exact",
            best.is_feasible(instance),
            best.bins_used(),
            instance.lower_bound(),
        ));
        aco_all += bins(&a);
        ffd_all += bins(&f);
        // Deviation from the optimum only counts where the search
        // proved it within the node budget.
        if exact.optimal {
            proven += 1;
            aco_proven += bins(&a);
            opt_proven += best.bins_used();
            out.check(checks::optimum_not_beaten(
                best.bins_used(),
                "aco",
                bins(&a),
            ));
            out.check(checks::optimum_not_beaten(
                best.bins_used(),
                "ffd",
                bins(&f),
            ));
        }
    }
    if opt_proven == 0 || ffd_all == 0 {
        return Err("accuracy family produced no comparable instance".into());
    }
    out.exact_value(
        "pack_aco_hosts_vs_opt_ratio",
        aco_proven as f64 / opt_proven as f64,
    );
    out.exact_value(
        "pack_aco_hosts_vs_ffd_ratio",
        aco_all as f64 / ffd_all as f64,
    );
    out.exact_value(
        "consolidation.exact.proven_share",
        proven as f64 / input.family.len() as f64,
    );
    out.value("consolidation.exact.ms", exact_s * 1e3);

    // (B) speed on the large instance, registry defaults.
    for key in ["aco", "ffd", "wfd"] {
        let algo = build(key, &AlgoParams::new())?;
        let call = consolidate(rec, out, key, algo.as_ref(), &input.big);
        out.value(format!("consolidation.{key}.ms"), call.seconds * 1e3);
        out.count(&format!("consolidation.{key}.hosts"), bins(&call) as u64);
    }
    Ok(())
}

/// Traced run only: every other key the registry reports, on the large
/// instance, plus the colony's cost per cycle.
fn registry_sweep(input: &Input, p: &Params, out: &mut Outcome) -> Result<(), String> {
    let mut quiet = Recorder::new();
    for key in ConsolidatorRegistry::standard().keys() {
        if ["aco", "ffd", "wfd"].contains(key) || !ledger_has_consolidator(key) {
            continue;
        }
        let mut params = AlgoParams::new();
        if *key == "bnb" {
            // Exact search on 512 VMs never finishes; bound it.
            let budget = p.int("sweep_bnb_node_budget")?;
            params.insert("node_budget".into(), ParamValue::Int(budget as i64));
        }
        let algo = build(key, &params)?;
        let call = consolidate(&mut quiet, out, key, algo.as_ref(), &input.big);
        out.value(format!("consolidation.{key}.ms"), call.seconds * 1e3);
        out.count(&format!("consolidation.{key}.hosts"), bins(&call) as u64);
    }
    // Two colony sizes apart by `extra` cycles isolate the per-cycle cost.
    let cycles = |n: i64| -> Result<f64, String> {
        let algo = build("aco", &algo_params(&[("n_cycles", ParamValue::Int(n))]))?;
        let start = Instant::now();
        std::hint::black_box(algo.consolidate(&input.big));
        Ok(start.elapsed().as_secs_f64())
    };
    let (few, extra) = (5, 10);
    let per_cycle = (cycles(few + extra)? - cycles(few)?) / extra as f64;
    out.value("consolidation.aco.cycle_ms", per_cycle * 1e3);
    Ok(())
}

pub fn iteration(h: &mut Harness) -> Result<Outcome, String> {
    let p = Params::load("pack_kernels")?;
    let seed = h.seed;
    let input = h.timed_setup(|_| setup(seed, &p))?;
    let mut out = Outcome::default();
    h.timed_body(|rec| body(rec, &input, &mut out))?;
    if h.probes_due() {
        registry_sweep(&input, &p, &mut out)?;
    }
    Ok(out)
}
