//! Hostile `Value` trees against the scenario decoder and the document
//! expander.
//!
//! `toml_properties.rs` damages *text*; this damages what the text parses
//! to, which reaches further: a tree can hold a NaN, a table where an array
//! of tables belongs, or a 2000-byte `kind`, none of which a damaged byte
//! is likely to produce. Every case starts from a checked-in
//! `scenarios/*.toml` (so `[[sweep]]`, `[[variant]]` and `[override.*]`
//! are in play) and takes a few edits drawn from the schema's own keys:
//! right keys with wrong types, negative and huge integers, NaN / ±inf
//! durations, tables and arrays of tables swapped, unknown keys at any
//! depth, subtrees grafted where they do not belong.
//!
//! The property: `ScenarioSpec::from_value`, `PackSpec::from_value` and
//! `ScenarioDoc::runs` return `Ok` or an `Err` under 512 bytes — never a
//! panic, never an error the size of its input — and a spec that does
//! decode builds its config (where `ms_to_span`'s assert sits, and the
//! consolidator registry) or its pack consolidator, or refuses it under the
//! same 512 bytes, and builds its workload (where the draw ranges sit)
//! without panicking either.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use proptest::prelude::*;
use snooze_scenario::live::build_workload;
use snooze_scenario::pack::{PackSpec, MAX_PACK};
use snooze_scenario::spec::{RunSpec, ScenarioDoc, ScenarioSpec, WorkloadSpec};
use snooze_scenario::toml::{parse, render, Value};
use snooze_scenario::VmIdAlloc;

type Table = BTreeMap<String, Value>;

/// Every scenario document checked in, parsed, and every key any of them
/// uses at any depth.
fn corpus() -> &'static (Vec<Table>, Vec<String>) {
    static CORPUS: OnceLock<(Vec<Table>, Vec<String>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        fn keys(t: &Table, out: &mut BTreeSet<String>) {
            for (k, v) in t {
                out.insert(k.clone());
                match v {
                    Value::Table(sub) => keys(sub, out),
                    Value::TableArray(subs) => subs.iter().for_each(|sub| keys(sub, out)),
                    _ => {}
                }
            }
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("scenarios/")
            .map(|entry| entry.expect("dir entry").path())
            .collect();
        paths.sort();
        let (mut docs, mut alphabet) = (Vec::new(), BTreeSet::new());
        for path in paths {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !name.ends_with(".toml") || name.starts_with("mc_") {
                continue; // model-checker traces are not scenarios
            }
            let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            keys(&doc, &mut alphabet);
            docs.push(doc);
        }
        assert!(docs.len() >= 10 && alphabet.len() >= 80);
        (docs, alphabet.into_iter().collect())
    })
}

fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> &'a T {
    &from[rng.below(from.len() as u64) as usize]
}

fn hostile_scalar(rng: &mut TestRng) -> Value {
    match rng.below(4) {
        0 => Value::Str(match rng.below(8) {
            0 => String::new(),
            1 => "x".repeat(2000),
            2 => "é".repeat(700),
            3 => format!("{{{}}}", "topology.".repeat(300)),
            4 => "{seed".into(),
            5 => "{workload.99.n}-{sweep}-{}".into(),
            _ => pick(
                rng,
                &[
                    "burst", "fault", "crash", "lc", "gl", "loop", "aco", "billed",
                ],
            )
            .to_string(),
        }),
        1 => Value::Int(match rng.below(6) {
            0 => -1,
            1 => i64::MIN,
            2 => i64::MAX,
            3 => 1 << 40,
            4 => 0,
            _ => rng.next_u64() as i64 >> rng.below(64),
        }),
        2 => Value::Float(*pick(
            rng,
            &[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -1.0,
                0.0,
                -0.0,
                0.5,
                1e300,
                5e-324,
                9.1e15,
            ],
        )),
        _ => Value::Bool(rng.below(2) == 0),
    }
}

fn hostile_table(rng: &mut TestRng) -> Table {
    let alphabet = &corpus().1;
    (0..rng.below(4))
        .map(|_| (pick(rng, alphabet).clone(), hostile_scalar(rng)))
        .collect()
}

fn hostile_value(rng: &mut TestRng) -> Value {
    match rng.below(8) {
        0 => Value::Array((0..rng.below(4)).map(|_| hostile_scalar(rng)).collect()),
        1 => Value::Table(hostile_table(rng)),
        2 => Value::TableArray((0..rng.below(4)).map(|_| hostile_table(rng)).collect()),
        _ => hostile_scalar(rng),
    }
}

/// Some subtree of `t`, for grafting elsewhere.
fn some_subtree(t: &Table, rng: &mut TestRng) -> Value {
    let values: Vec<&Value> = t.values().collect();
    if values.is_empty() {
        return Value::Table(t.clone());
    }
    match *pick(rng, &values) {
        Value::Table(sub) if rng.below(2) == 0 => some_subtree(sub, rng),
        Value::TableArray(subs) if !subs.is_empty() && rng.below(2) == 0 => {
            some_subtree(pick(rng, subs), rng)
        }
        other => other.clone(),
    }
}

/// One edit somewhere under `t`: usually further down, else here.
fn damage(t: &mut Table, whole: &Table, rng: &mut TestRng) {
    let alphabet = &corpus().1;
    let below: Vec<&mut Table> = t
        .values_mut()
        .flat_map(|v| match v {
            Value::Table(sub) => vec![sub],
            Value::TableArray(subs) => subs.iter_mut().collect(),
            _ => Vec::new(),
        })
        .collect();
    if !below.is_empty() && rng.below(3) != 0 {
        let i = rng.below(below.len() as u64) as usize;
        let sub = below.into_iter().nth(i).expect("indexed within len");
        return damage(sub, whole, rng);
    }
    let present: Vec<String> = t.keys().cloned().collect();
    let a_key = |rng: &mut TestRng| match present.is_empty() {
        true => "name".to_string(),
        false => pick(rng, &present).clone(),
    };
    match rng.below(7) {
        // A right key with a wrong (or merely hostile) value.
        0 | 1 => drop(t.insert(a_key(rng), hostile_value(rng))),
        // A key of the schema where it may not belong.
        2 => drop(t.insert(pick(rng, alphabet).clone(), hostile_value(rng))),
        // A key of no schema.
        3 => drop(t.insert("zzz".into(), hostile_value(rng))),
        // A table where an array of tables belongs, and the reverse.
        4 => {
            let key = a_key(rng);
            let swapped = match t.remove(&key) {
                Some(Value::Table(sub)) => Value::TableArray(vec![sub; rng.below(3) as usize]),
                Some(Value::TableArray(subs)) => {
                    Value::Table(subs.into_iter().next().unwrap_or_default())
                }
                Some(other) => Value::Array(vec![other]),
                None => Value::table(),
            };
            t.insert(key, swapped);
        }
        5 => drop(t.remove(&a_key(rng))),
        // Part of the document again, under another name.
        _ => drop(t.insert(pick(rng, alphabet).clone(), some_subtree(whole, rng))),
    }
}

/// A checked-in document after up to three edits.
struct Damaged;

impl Strategy for Damaged {
    type Value = Table;
    fn generate(&self, rng: &mut TestRng) -> Table {
        let whole = pick(rng, &corpus().0);
        let mut doc = whole.clone();
        for _ in 0..rng.below(4) {
            damage(&mut doc, whole, rng);
        }
        doc
    }
}

fn short(e: &str) -> Result<(), TestCaseError> {
    prop_assert!(e.len() < 512, "{} bytes: {e}", e.len());
    Ok(())
}

/// A decoded spec is still outside input to `build` and to the workload
/// builders, which may refuse it but not panic, and `build` refuses it
/// briefly: a 2000-byte `preset`, `algo` or parameter key is quoted as an
/// excerpt. Traces are files the readers' own tests damage; a fleet is
/// built at most 10 000 VMs large (an allocation proportional to `n` is
/// ROADMAP 9(b)'s open item).
fn builds_or_refuses(spec: &ScenarioSpec) {
    if let Err(e) = spec.config.build() {
        assert!(e.len() < 512, "{} bytes: {e}", e.len());
    }
    let mut alloc = VmIdAlloc::new();
    for w in &spec.workload {
        match w {
            WorkloadSpec::Burst { n, .. } | WorkloadSpec::RandomFleet { n, .. } if *n <= 10_000 => {
                let _ = build_workload(&mut alloc, w);
            }
            _ => {}
        }
    }
}

/// A decoded pack builds its consolidator or refuses it briefly.
fn packs_or_refuses(spec: &PackSpec) {
    if let Err(e) = spec.build(0) {
        assert!(e.len() < 512, "{} bytes: {e}", e.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_damaged_tree_decodes_or_fails_briefly(doc in Damaged) {
        // As one run: what a `[[sweep]]` / `[[variant]]` element merges to.
        let mut run = doc.clone();
        run.retain(|k, _| !["sweep", "variant", "override"].contains(&k.as_str()));
        for root in [&doc, &run] {
            match ScenarioSpec::from_value(root) {
                Ok(spec) => builds_or_refuses(&spec),
                Err(e) => short(&e)?,
            }
            match PackSpec::from_value(root) {
                Ok(spec) => packs_or_refuses(&spec),
                Err(e) => short(&e)?,
            }
        }
    }

    #[test]
    fn a_damaged_document_expands_or_fails_briefly(doc in Damaged) {
        // Through text, as documents arrive; a NaN or an infinity has no
        // spelling `parse` reads, and `from_value` above has seen those.
        let Ok(parsed) = ScenarioDoc::parse(&render(&doc)) else {
            return Ok(());
        };
        let profiles: Vec<String> = parsed.profiles().iter().map(|p| p.to_string()).collect();
        let shapes = profiles.iter().map(|p| parsed.profile(p));
        for shape in std::iter::once(Ok(parsed.clone())).chain(shapes) {
            match shape.and_then(|doc| doc.runs()) {
                Ok(runs) => runs.iter().for_each(|run| match run {
                    RunSpec::Sim(spec) => builds_or_refuses(spec),
                    RunSpec::Pack(spec) => packs_or_refuses(spec),
                }),
                Err(e) => short(&e)?,
            }
        }
    }
}

/// Every name `ConfigSpec::build` looks up — the config preset, the
/// placement, the consolidator key, the colony preset, a parameter key —
/// set to 2000 bytes in every checked-in document that decodes as one run
/// and has the table for it: the document still decodes, and `build`
/// refuses it briefly, quoting the name's start.
#[test]
fn a_huge_name_is_refused_by_build_briefly() {
    let huge = "x".repeat(2000);
    let mut refused = 0;
    for whole in &corpus().0 {
        let mut base = whole.clone();
        base.retain(|k, _| !["sweep", "variant", "override"].contains(&k.as_str()));
        if ScenarioSpec::from_value(&base).is_err() {
            continue; // a key it needs is only in a sweep
        }
        for edit in 0..5 {
            let mut doc = base.clone();
            let Some(Value::Table(config)) = doc.get_mut("config") else {
                continue;
            };
            let (table, key) = match edit {
                0 => (config, "preset"),
                1 => (config, "placement"),
                _ => match config.get_mut("reconfiguration") {
                    Some(Value::Table(reconf)) => (reconf, ["algo", "aco", "params"][edit - 2]),
                    _ => continue,
                },
            };
            let value = match key {
                "params" => Value::Table([(huge.clone(), Value::Int(1))].into()),
                _ => Value::Str(huge.clone()),
            };
            table.insert(key.to_string(), value);
            let spec = ScenarioSpec::from_value(&doc).expect("a long name decodes");
            let e = spec
                .config
                .build()
                .expect_err("a 2000-byte name is refused");
            assert!(e.len() < 512 && e.contains(&huge[..100]), "{key}: {e}");
            refused += 1;
        }
    }
    // 17 on the checked-in corpus; 22 while E12's trace document, whose
    // five names all count, was a file of its own.
    assert!(refused >= 15, "{refused} documents refused");
}

/// The generator reaches both sides of the property: a good share of the
/// damaged documents still decode, and a good share do not.
#[test]
fn damage_both_breaks_and_spares_documents() {
    let mut rng = TestRng::from_seed(24);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..256 {
        let doc = ScenarioDoc::parse(&render(&Damaged.generate(&mut rng)));
        match doc.and_then(|doc| doc.runs()) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok >= 16 && err >= 64, "{ok} expand, {err} do not");
}

/// A pack's size and instance count are each refused outside
/// `1..=MAX_PACK`, by name: nothing is drawn or allocated for them first,
/// and the cap is what keeps `(n << 16) ^ i` distinct across sizes.
#[test]
fn pack_sizes_and_counts_outside_their_cap_are_refused_by_name() {
    let doc = |n: i64, instances: i64| {
        let text = format!(
            "name = \"p\"\n[pack]\nalgo = \"ffd\"\ninstances = {instances}\nn = {n}\nseed = 1\n"
        );
        ScenarioDoc::parse(&text).and_then(|doc| doc.runs())
    };
    for bad in [0, -1, MAX_PACK + 1, i64::MAX] {
        for (key, runs) in [("n", doc(bad, 2)), ("instances", doc(2, bad))] {
            let err = runs.expect_err("out of range");
            let want = format!("`{key}` in pack must be in 1..={MAX_PACK}, got {bad}");
            assert!(err.contains(&want), "{err}");
        }
    }
    for (n, instances) in [(1, MAX_PACK), (MAX_PACK, 1)] {
        let runs = doc(n, instances).expect("the cap itself decodes");
        let Some(RunSpec::Pack(spec)) = runs.first() else {
            panic!("{runs:?}")
        };
        assert_eq!((spec.n, spec.instances), (n as usize, instances as u64));
    }
    let err = doc(2, 2).and_then(|_| {
        let text = "name = \"p\"\n[pack]\nalgo = \"ffd\"\ninstances = 2\nn = 2\nseed = -1\n";
        ScenarioDoc::parse(text).and_then(|doc| doc.runs())
    });
    let err = err.expect_err("a negative seed");
    assert!(
        err.contains("`seed` in pack must be a non-negative integer"),
        "{err}"
    );
}
