//! `compare A.json B.json`: apply the end-to-end bounds to two summary
//! files written by `run` with the same seed (A the baseline, B the
//! candidate), one row per workload and metric.
//!
//! Verdicts: `ok` — B's median is no worse than A's by more than the
//! metric's same-seed tolerance; `worse` — it is; `unresolved` — the
//! medians are within tolerance but the run-to-run spread of either
//! side is wider than the tolerance, so "unchanged" cannot be told from
//! "moved", unless every sample of B reads better than every sample of
//! A (`better`). With `--identical` (two runs of the same code) any
//! difference in an exact quantity — counts, digests, simulated results,
//! export fingerprints — is a failure too.

use snooze_trace::json::Json;

use crate::metrics::{Better, EndToEndDef, END_TO_END};
use crate::stats::summarize;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric from both sides' samples.
pub fn judge(def: &EndToEndDef, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    // Positive = B is worse.
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let allowed = (def.same_seed.rel * sa.median.abs()).max(def.same_seed.abs);
    if sign * (sb.median - sa.median) > allowed {
        return Verdict::Worse;
    }
    let spread = (sa.q3 - sa.q1).max(sb.q3 - sb.q1);
    if spread <= allowed {
        return Verdict::Ok;
    }
    let b_always_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    if b_always_better {
        Verdict::Better
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let identical = args.iter().any(|a| a == "--identical");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = paths[..] else {
        return Err(crate::USAGE.into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("seed") != b.get("seed") {
        return Err("the two summaries were run with different seeds".into());
    }
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "summary has no `workloads`".to_string())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);

    let mut all_ok = true;
    println!("workload metric A B unit verdict");
    for (name, doc_a) in &wa {
        let Some((_, doc_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name} - - - - missing-in-B");
            all_ok = false;
            continue;
        };
        for def in END_TO_END.iter().filter(|d| d.applies_to(name)) {
            let (Some(sa), Some(sb)) = (samples(doc_a, def.name), samples(doc_b, def.name)) else {
                println!("{name} {} - - {} missing", def.name, def.unit);
                all_ok = false;
                continue;
            };
            let verdict = judge(def, &sa, &sb);
            println!(
                "{name} {} {} {} {} {}",
                def.name,
                summarize(&sa).median,
                summarize(&sb).median,
                def.unit,
                verdict.as_str()
            );
            all_ok &= matches!(verdict, Verdict::Ok | Verdict::Better);
        }
        if identical {
            let exact = |d: &Json| d.get("exact").and_then(Json::as_obj).map(<[_]>::to_vec);
            if exact(doc_a) != exact(doc_b) {
                println!("{name} exact - - - differs");
                all_ok = false;
            }
        }
        for (side, doc) in [("A", doc_a), ("B", doc_b)] {
            if doc.get("correct") != Some(&Json::Bool(true)) {
                println!("{name} correct - - - failed-in-{side}");
                all_ok = false;
            }
        }
    }
    println!("claim none");
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn bounds_are_applied_in_the_metrics_better_direction() {
        let wall = end_to_end("wall_s").unwrap();
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01];
        assert_eq!(judge(wall, &steady(1.0), &steady(1.05)), Verdict::Ok);
        assert_eq!(judge(wall, &steady(1.0), &steady(1.11)), Verdict::Worse);
        assert_eq!(judge(wall, &steady(1.0), &steady(0.5)), Verdict::Ok);

        let ok = end_to_end("ok_ratio").unwrap();
        assert_eq!(judge(ok, &[0.9995], &[0.9990]), Verdict::Ok);
        assert_eq!(judge(ok, &[0.9995], &[0.9980]), Verdict::Worse);
        assert_eq!(judge(ok, &[0.9995], &[1.0]), Verdict::Ok);

        // setup_s: +25% or +10 ms, whichever is larger.
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(judge(setup, &[0.001], &[0.009]), Verdict::Ok);
        assert_eq!(judge(setup, &[0.001], &[0.012]), Verdict::Worse);
        assert_eq!(judge(setup, &[1.0], &[1.2]), Verdict::Ok);
        assert_eq!(judge(setup, &[1.0], &[1.3]), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let wall = end_to_end("wall_s").unwrap();
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(judge(wall, &noisy, &noisy), Verdict::Unresolved);
        // ... unless every candidate run beats every baseline run.
        assert_eq!(
            judge(wall, &noisy, &[0.5, 0.7, 0.6, 0.4, 0.75]),
            Verdict::Better
        );
    }
}
