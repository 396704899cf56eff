//! Round-trip properties of the canonical trace formats.
//!
//! The canonical writers are the serialization authority: for any valid
//! record set, `JSONL → CSV → JSONL` through readers and canonical
//! writers must be byte-identical (and so must `CSV → JSONL → CSV`).
//! With that property, converting between the two formats is lossless
//! and a trace's canonical bytes are well-defined — which is what
//! `tests/cli.rs` compares, CLI against library.

use proptest::prelude::*;

use snooze_trace::csv::CsvReader;
use snooze_trace::jsonl::JsonlReader;
use snooze_trace::record::{CurvePoint, TraceRecord};
use snooze_trace::{csv, jsonl, read_all};

/// Strategy: one valid record with up to 6 curve points. Values are
/// drawn through a seeded `SimRng` and rounded the way the generator
/// rounds, so they exercise realistic decimal shapes.
fn record(vm: u64, seed: u64) -> TraceRecord {
    let mut rng = snooze_simcore::rng::SimRng::new(seed);
    let points = rng.range(0, 7);
    let mut offset = 0.0f64;
    let curve: Vec<CurvePoint> = (0..points)
        .map(|_| {
            let p = CurvePoint {
                offset_s: (offset * 1e3).round() / 1e3,
                cpu: (rng.uniform(0.0, 1.0) * 1e4).round() / 1e4,
                mem: (rng.uniform(0.0, 1.0) * 1e4).round() / 1e4,
            };
            // Increment well above the 1 ms rounding grid so rounded
            // offsets stay strictly increasing.
            offset += rng.uniform(0.01, 900.0);
            p
        })
        .collect();
    TraceRecord {
        vm,
        arrival_s: (rng.uniform(0.0, 7200.0) * 1e3).round() / 1e3,
        lifetime_s: (rng.uniform(0.1, 86400.0) * 1e3).round() / 1e3,
        cpu_cores: *rng.choose(&[1.0, 2.0, 4.0, 8.0]).unwrap(),
        mem_mb: rng.uniform(512.0, 32768.0).round(),
        curve,
    }
}

fn records() -> impl Strategy<Value = Vec<TraceRecord>> {
    (0usize..20, any::<u64>())
        .prop_map(|(n, seed)| (0..n).map(|i| record(i as u64, seed ^ i as u64)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jsonl_csv_jsonl_is_byte_identical(recs in records()) {
        for r in &recs {
            prop_assert!(r.validate().is_ok(), "strategy must build valid records");
        }
        let jsonl_1 = jsonl::to_string(&recs);
        let parsed_1 = read_all(&mut JsonlReader::new(jsonl_1.as_bytes())).unwrap();
        let csv_text = csv::to_string(&parsed_1);
        let parsed_2 = read_all(&mut CsvReader::new(csv_text.as_bytes())).unwrap();
        let jsonl_2 = jsonl::to_string(&parsed_2);
        prop_assert_eq!(&jsonl_1, &jsonl_2, "JSONL → CSV → JSONL must be byte-identical");
    }

    #[test]
    fn csv_jsonl_csv_is_byte_identical(recs in records()) {
        let csv_1 = csv::to_string(&recs);
        let parsed_1 = read_all(&mut CsvReader::new(csv_1.as_bytes())).unwrap();
        let jsonl_text = jsonl::to_string(&parsed_1);
        let parsed_2 = read_all(&mut JsonlReader::new(jsonl_text.as_bytes())).unwrap();
        let csv_2 = csv::to_string(&parsed_2);
        prop_assert_eq!(&csv_1, &csv_2, "CSV → JSONL → CSV must be byte-identical");
    }
}
