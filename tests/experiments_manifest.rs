//! Tier-1's view of the experiment manifest (`snooze_bench::experiments`):
//! the manifest and the golden files must describe the same tables, the
//! checked-in `scenarios/*.toml` must still expand to the runs they always
//! did, one reduced sweep goes through the generic runner end to end — and
//! every table replays its golden byte for byte.
//!
//! The golden replay is the identity gate for any engine, protocol,
//! consolidator or runner change: each golden under
//! `crates/bench/tests/golden/` holds the non-advisory columns of one table,
//! `<slug>.json` at the experiment's own scale and `<slug>.smoke.json` at its
//! `[override.smoke]` profile as written. A debug `cargo test` replays every
//! golden but four tables at full scale (E11, E14: kilonode-scale; E1
//! and E2: exact searches and colonies too slow unoptimized; release only,
//! and their smoke profiles replay in debug); `scripts/check.sh` runs this
//! file with `--release`, which replays those too. After a change that is meant to
//! move a table, re-record deliberately with
//! `UPDATE_GOLDEN=1 cargo test --release --test experiments_manifest
//! golden_replay -- --nocapture` and review the diff.

use std::collections::BTreeSet;
use std::path::PathBuf;

use snooze_bench::experiments::{find, run_specs, Finished, EXPERIMENTS, PACK_SUMMARY, SUMMARY};
use snooze_consolidation::registry::REGISTRY_KEYS;
use snooze_scenario::spec::{RunSpec, ScenarioDoc};
use snooze_simcore::telemetry::{fnv1a, FNV_OFFSET};

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn golden_dir() -> PathBuf {
    repo("crates/bench/tests/golden")
}

/// The goldens a debug build replays, one `#[test]` per group so the
/// harness spreads them over the cores; each name is a file stem under
/// [`golden_dir`]. The groups are balanced by dev-profile replay time,
/// 3.3–4.6 s each on a 2-vCPU box, one replay at a time (`e10a` alone is
/// 4.5 s, `e14_arena.smoke` 3.4 s, `e8a` 2.7 s, `e7` and `e7b` 1.6 s each,
/// `e11.smoke` 0.75 s, `e2.smoke` 0.4 s, `e10b` 0.3 s, `e4` 0.25 s, the
/// rest under 0.1 s).
const DEBUG_REPLAYS: [&[&str]; 4] = [
    &["e10a", "e9", "e8b", "e6", "e1.smoke"],
    &["e14_arena.smoke", "e11.smoke"],
    &["e8a", "e4", "e2.smoke", "e10b"],
    &["e7", "e7b", "e5"],
];

/// The full-scale tables a debug build would take too long over: the
/// explicit-only ones and the exact searches of E1, plus E2 at n = 400.
/// Release builds only.
const RELEASE_REPLAYS: [&str; 4] = ["e11", "e14_arena", "e1", "e2"];

/// Render the table `name` stands for — `<slug>` at full scale,
/// `<slug>.smoke` at its smoke profile — and compare its deterministic
/// columns with the golden byte for byte. With `UPDATE_GOLDEN` set, a
/// golden that differs (or is missing) is written instead. Either way,
/// every simulated run must break no safety predicate of
/// `snooze::invariants` at any probe or at its end.
fn replay(names: &[&str]) {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for &name in names {
        let (slug, profile) = match name.strip_suffix(".smoke") {
            Some(slug) => (slug, Some("smoke")),
            None => (name, None),
        };
        let specs = find(slug).specs(|doc| match profile {
            Some(profile) => doc.profile(profile),
            None => Ok(doc),
        });
        let runs = run_specs(&specs, false).expect("checked-in scenario runs");
        for run in runs.iter().filter_map(|run| match run {
            Finished::Sim(run) => Some(run),
            Finished::Pack(_) => None,
        }) {
            let broken = &run.outcome.violations;
            assert!(broken.is_empty(), "{name}: {}: {broken:#?}", run.spec.name);
        }
        let table = find(slug).render(&runs).deterministic().to_json();
        let path = golden_dir().join(format!("{name}.json"));
        let golden = std::fs::read_to_string(&path);
        if update && golden.as_deref().ok() != Some(table.as_str()) {
            std::fs::write(&path, &table).expect("write golden");
            eprintln!("[golden] {name}: RE-RECORDED");
            continue;
        }
        let golden = golden.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            table, golden,
            "{name}: deterministic table columns drifted from crates/bench/tests/golden/\
             {name}.json (re-record deliberately with UPDATE_GOLDEN=1)"
        );
        eprintln!("[golden] {name}: identical");
    }
}

#[test]
fn golden_replay_a() {
    replay(DEBUG_REPLAYS[0]);
}

#[test]
fn golden_replay_b() {
    replay(DEBUG_REPLAYS[1]);
}

#[test]
fn golden_replay_c() {
    replay(DEBUG_REPLAYS[2]);
}

#[test]
fn golden_replay_d() {
    replay(DEBUG_REPLAYS[3]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "kilonode scale: release only")]
fn golden_replay_e11_full() {
    replay(&RELEASE_REPLAYS[..1]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "15 cells (5 engines) on 1000 LCs: release only"
)]
fn golden_replay_e14_full() {
    replay(&RELEASE_REPLAYS[1..2]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "exact searches to n = 40, colonies to n = 400: release only"
)]
fn golden_replay_e1_e2_full() {
    replay(&RELEASE_REPLAYS[2..]);
}

#[test]
fn slugs_are_unique_and_cli_names_form_one_group_each() {
    let slugs: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.slug).collect();
    assert_eq!(slugs.len(), EXPERIMENTS.len(), "duplicate slug");

    // Tables sharing a CLI name (e7/e7b, e8a/e8b, e10a/e10b) sit together
    // and agree on being explicit-only, so a name selects one contiguous,
    // uniformly-weighted group.
    let mut groups: Vec<&str> = EXPERIMENTS.iter().map(|e| e.cli).collect();
    groups.dedup();
    let distinct: BTreeSet<&str> = groups.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        groups.len(),
        "a CLI name is split: {groups:?}"
    );
    assert!(!distinct.contains("all"), "`all` is reserved");
    for pair in EXPERIMENTS.windows(2) {
        if pair[0].cli == pair[1].cli {
            assert_eq!(
                pair[0].explicit_only, pair[1].explicit_only,
                "{}",
                pair[0].cli
            );
        }
    }
}

#[test]
fn headers_are_unique_within_each_table() {
    // `Table::to_json` keys cells by header: a duplicate silently keeps
    // the last value.
    let tables = EXPERIMENTS
        .iter()
        .map(|e| (e.slug, e.columns))
        .chain([("--scenario", SUMMARY), ("--scenario [pack]", PACK_SUMMARY)]);
    for (slug, columns) in tables {
        let headers: BTreeSet<&str> = columns.iter().map(|c| c.header).collect();
        assert_eq!(headers.len(), columns.len(), "{slug}: duplicate header");
    }
}

#[test]
fn goldens_and_scenario_backed_entries_correspond() {
    for exp in EXPERIMENTS {
        let pinned: Vec<String> = exp
            .columns
            .iter()
            .filter(|c| !c.advisory)
            .map(|c| format!("\"{}\"", c.header))
            .collect();
        let columns = format!("  \"columns\": [{}],", pinned.join(", "));
        // A smoke profile renders through the same table, into a golden of
        // its own.
        let doc = ScenarioDoc::parse(exp.scenario).expect("compiled-in scenario parses");
        let smoke = doc.profiles().contains(&"smoke");
        let smoke = smoke.then(|| format!("{}.smoke", exp.slug));
        for name in std::iter::once(exp.slug.to_string()).chain(smoke) {
            let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
                .unwrap_or_else(|e| panic!("{name}: a table without a golden: {e}"));
            assert_eq!(
                golden.lines().nth(2),
                Some(columns.as_str()),
                "{name}: the golden pins exactly the non-advisory columns, in order"
            );
        }
    }
    // Every golden file is replayed, by exactly one test.
    let mut replayed = DEBUG_REPLAYS.concat();
    replayed.extend(RELEASE_REPLAYS);
    let names: BTreeSet<&str> = replayed.iter().copied().collect();
    assert_eq!(names.len(), replayed.len(), "a golden is replayed twice");
    let files: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str());
            stem.expect("utf-8 stem").to_string()
        })
        .collect();
    let names: BTreeSet<String> = names.into_iter().map(String::from).collect();
    assert_eq!(
        files, names,
        "golden files vs the goldens the replay tests name"
    );
}

/// `(slug, profile, runs, FNV-1a-64 of the runs' concatenated `{:?}`)`.
/// The lineage, by order of commits: the pins were first FNV-1a-64 of the
/// runs' canonical TOML, computed at the last commit that still had
/// `presets.rs`, from its `<slug>_default()` and its three `*_smoke()`
/// functions (trace path = the reference trace; arena: `bnb` moved last),
/// and the files have been the only definition since. Those TOML-form
/// pins passed unedited on the commit that moved the decoder onto
/// `toml::Reader`; the commit after it recorded these Debug-form
/// constants from the same specs while both forms passed side by side;
/// only then did the spec encoder, which nothing else called, and the
/// TOML form go. Every pin then moved once, with no experiment changed,
/// when `TopologySpec` lost its `unified` field: each old constant was
/// reproduced from the new specs' text with `, unified: None` put back
/// before `, client: `, and these were recorded from the same specs.
/// The arena's two pins moved again when its sweeps dropped three deleted
/// registry keys (24 → 15 runs, smoke 9 → 6). The `[pack]` documents'
/// pins (E1, E2, E8a, E8b, E10a) are of their `PackSpec`s' `{:?}`, recorded
/// when those tables stopped being Rust.
/// Rewriting a file — into `[[sweep]]` form, say — must not move its pin;
/// changing an experiment must.
const EXPANSION_PINS: &[(&str, Option<&str>, usize, u64)] = &[
    ("e1", None, 21, 0xd660_23a5_917a_fd51),
    ("e1", Some("smoke"), 9, 0xd0bd_bd1d_1f2e_7b11),
    ("e2", None, 16, 0x0af0_803e_4c94_aa01),
    ("e2", Some("smoke"), 8, 0xcb52_1b45_8ecc_0379),
    ("e4", None, 6, 0xc181_221b_cc63_3aad),
    ("e5", None, 4, 0xc09c_dc2d_48a6_ae09),
    ("e6", None, 1, 0xf527_446a_b19e_72c5),
    ("e7", None, 3, 0x7d08_d127_2863_47a6),
    ("e7b", None, 4, 0x42be_3d98_5bd3_c982),
    ("e8a", None, 13, 0x8265_b40c_0605_75c2),
    ("e8b", None, 5, 0x0a3f_f381_9427_01bf),
    ("e9", None, 4, 0x5328_be82_f861_783c),
    ("e10a", None, 6, 0x7b20_fcc8_8d12_3343),
    ("e10b", None, 3, 0x1f1c_e197_d654_26ed),
    ("e11", None, 1, 0xfdfa_1a86_6d0e_eb65),
    ("e11", Some("smoke"), 1, 0x43b3_fea9_5402_019a),
    ("e14_arena", None, 15, 0x513f_9d2a_2d78_7bb1),
    ("e14_arena", Some("smoke"), 6, 0x7868_85ad_01d4_7f65),
];

/// `scenarios/report.toml` as checked in, at seed `0x5EED`.
const REPORT_PIN: u64 = 0xc77f_e05d_0a73_6175;

fn debug_digest(specs: &[RunSpec]) -> u64 {
    let text: String = specs
        .iter()
        .map(|spec| match spec {
            RunSpec::Sim(spec) => format!("{spec:?}"),
            RunSpec::Pack(spec) => format!("{spec:?}"),
        })
        .collect();
    fnv1a(FNV_OFFSET, text.as_bytes())
}

#[test]
fn scenario_files_expand_to_the_pinned_runs() {
    for &(slug, profile, runs, pin) in EXPANSION_PINS {
        let specs = find(slug).specs(|doc| match profile {
            Some(profile) => doc.profile(profile),
            None => Ok(doc),
        });
        let got = (specs.len(), debug_digest(&specs));
        assert_eq!(
            got,
            (runs, pin),
            "scenarios/{slug}.toml {profile:?}: 0x{:016x}",
            got.1
        );
    }
    let pinned: Vec<&str> = EXPANSION_PINS.iter().map(|p| p.0).collect();
    for exp in EXPERIMENTS {
        assert!(pinned.contains(&exp.slug), "{}: no expansion pin", exp.slug);
    }
    let report = ScenarioDoc::parse(include_str!("../scenarios/report.toml"))
        .and_then(|doc| doc.patch(&format!("seed = {}", 0x5EED))?.runs())
        .expect("scenarios/report.toml expands");
    assert_eq!(debug_digest(&report), REPORT_PIN, "scenarios/report.toml");
}

#[test]
fn the_arena_smoke_profile_runs_every_registry_key() {
    // The list is data now: a seventh registry key must not slip past the gate.
    let smoke = find("e14_arena").specs(|doc| doc.profile("smoke"));
    let algo = |s: &RunSpec| match s {
        RunSpec::Sim(s) => s.config.reconfiguration.as_ref().map(|r| r.algo.clone()),
        RunSpec::Pack(_) => None,
    };
    let algos: BTreeSet<String> = smoke.iter().filter_map(algo).collect();
    let keys: BTreeSet<String> = REGISTRY_KEYS.iter().map(|k| k.to_string()).collect();
    assert_eq!((smoke.len(), algos), (keys.len(), keys));
}

#[test]
fn a_reduced_sweep_goes_through_the_generic_runner() {
    // The 16-LC E4 shape — two burst sizes on a small hierarchy — as a
    // patch of the checked-in document.
    let small = "[topology]\nlcs = 16\nmanagers = 3\n\
                 [[sweep]]\nseed = [31, 61]\n[[sweep.workload]]\nn = [10, 40]\n";
    let specs = find("e4").specs(|doc| doc.patch(small));
    let runs = run_specs(&specs, false).expect("patched scenario compiles");
    // Latency should not blow up with 4× the submissions (scalability
    // claim): allow 3× headroom on the mean.
    let (small, large) = (&runs[0].sim().outcome, &runs[1].sim().outcome);
    assert!(large.mean_latency_s < small.mean_latency_s * 3.0 + 5.0);
    let table = find("e4").render(&runs);
    let csv = table.deterministic().to_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("VMs,LCs,placed,rejected,mean lat s,p95 lat s,sim events"),
        "the advisory wall column is dropped by spec"
    );
    assert!(lines
        .next()
        .is_some_and(|row| row.starts_with("10,16,10,0,")));
    assert!(lines
        .next()
        .is_some_and(|row| row.starts_with("40,16,40,0,")));
    assert_eq!(lines.next(), None);
    assert!(table
        .to_csv()
        .starts_with("VMs,LCs,placed,rejected,mean lat s,p95 lat s,sim events,wall ms\n"));
}
