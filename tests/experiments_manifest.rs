//! Tier-1's view of the experiment manifest (`snooze_bench::experiments`):
//! without running a full experiment, the manifest and the golden files
//! must describe the same tables, the checked-in `scenarios/*.toml` must
//! still expand to the runs they always did — and one reduced sweep goes
//! through the generic runner end to end.

use std::collections::BTreeSet;
use std::path::PathBuf;

use snooze_bench::experiments::{find, run_specs, EXPERIMENTS, SUMMARY};
use snooze_consolidation::registry::REGISTRY_KEYS;
use snooze_scenario::spec::ScenarioSpec;
use snooze_simcore::telemetry::{fnv1a, FNV_OFFSET};

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
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
        .filter_map(|e| Some((e.slug, e.scenarios()?.columns)))
        .chain([("--scenario", SUMMARY)]);
    for (slug, columns) in tables {
        let headers: BTreeSet<&str> = columns.iter().map(|c| c.header).collect();
        assert_eq!(headers.len(), columns.len(), "{slug}: duplicate header");
    }
}

#[test]
fn goldens_and_scenario_backed_entries_correspond() {
    let dir = repo("crates/bench/tests/golden");
    for exp in EXPERIMENTS {
        let Some(table) = exp.scenarios() else {
            continue;
        };
        let golden = std::fs::read_to_string(dir.join(format!("{}.json", exp.slug)))
            .unwrap_or_else(|e| {
                panic!("{}: scenario-backed table without a golden: {e}", exp.slug)
            });
        let pinned: Vec<String> = table
            .columns
            .iter()
            .filter(|c| !c.advisory)
            .map(|c| format!("\"{}\"", c.header))
            .collect();
        assert_eq!(
            golden.lines().nth(2),
            Some(format!("  \"columns\": [{}],", pinned.join(", ")).as_str()),
            "{}: the golden pins exactly the non-advisory columns, in order",
            exp.slug
        );
    }
    for entry in std::fs::read_dir(&dir).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem");
        assert!(
            EXPERIMENTS.iter().any(|e| e.slug == stem),
            "{}: no manifest entry with this slug",
            path.display()
        );
    }
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
/// Rewriting a file — into `[[sweep]]` form, say — must not move its pin;
/// changing an experiment must.
const EXPANSION_PINS: &[(&str, Option<&str>, usize, u64)] = &[
    ("e4", None, 6, 0xc181_221b_cc63_3aad),
    ("e5", None, 4, 0xc09c_dc2d_48a6_ae09),
    ("e6", None, 1, 0xf527_446a_b19e_72c5),
    ("e7", None, 3, 0x7d08_d127_2863_47a6),
    ("e7b", None, 4, 0x42be_3d98_5bd3_c982),
    ("e9", None, 4, 0x5328_be82_f861_783c),
    ("e10b", None, 3, 0x1f1c_e197_d654_26ed),
    ("e11", None, 1, 0xfdfa_1a86_6d0e_eb65),
    ("e11", Some("smoke"), 1, 0x43b3_fea9_5402_019a),
    ("e12_trace", None, 2, 0xe94a_dfac_5a2d_ddb2),
    ("e12_trace", Some("smoke"), 2, 0xb8a1_84a4_a9d0_e65e),
    ("e14_arena", None, 24, 0xce88_0b48_15f2_93e8),
    ("e14_arena", Some("smoke"), 9, 0x2c76_213e_2682_6769),
];

/// `report_failover(0x5EED)`, i.e. `scenarios/report.toml` as checked in.
const REPORT_PIN: u64 = 0xc77f_e05d_0a73_6175;

fn debug_digest(specs: &[ScenarioSpec]) -> u64 {
    let text: String = specs.iter().map(|spec| format!("{spec:?}")).collect();
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
    for exp in EXPERIMENTS.iter().filter(|e| e.scenarios().is_some()) {
        assert!(pinned.contains(&exp.slug), "{}: no expansion pin", exp.slug);
    }
    let report = snooze_bench::report::report_failover(0x5EED);
    assert_eq!(debug_digest(&[report]), REPORT_PIN, "scenarios/report.toml");
}

#[test]
fn the_arena_smoke_profile_runs_every_registry_key() {
    // The list is data now: a tenth registry key must not slip past the gate.
    let smoke = find("e14_arena").specs(|doc| doc.profile("smoke"));
    let algo = |s: &ScenarioSpec| s.config.reconfiguration.as_ref().map(|r| r.algo.clone());
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
    let (small, large) = (&runs[0].run.outcome, &runs[1].run.outcome);
    assert!(large.mean_latency_s < small.mean_latency_s * 3.0 + 5.0);
    let table = find("e4")
        .scenarios()
        .expect("scenario-backed")
        .render(&runs);
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
