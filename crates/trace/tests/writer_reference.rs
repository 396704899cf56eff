//! The canonical writers against the writers they replaced.
//!
//! `reference` holds the old `csv::format_record` / `jsonl::format_record`
//! bodies, frozen: a `String` per float through `fmt_f64`, a `Vec<String>`
//! of curve points, a `join`, a `format!` around the line. On generated
//! records — empty and long curves, `1e300`, `5e-324`, `-0.0`, values that
//! would not pass `validate` (the writers do not care) — the new writers
//! must produce the same bytes, record by record and as whole documents.

use proptest::prelude::*;
use snooze_trace::record::{CurvePoint, TraceRecord};
use snooze_trace::{csv, jsonl};

mod reference {
    use snooze_trace::record::{fmt_f64, TraceRecord};

    pub fn csv_record(r: &TraceRecord) -> String {
        let curve: Vec<String> = r
            .curve
            .iter()
            .map(|p| {
                format!(
                    "{}:{}:{}",
                    fmt_f64(p.offset_s),
                    fmt_f64(p.cpu),
                    fmt_f64(p.mem)
                )
            })
            .collect();
        format!(
            "{},{},{},{},{},{}",
            r.vm,
            fmt_f64(r.arrival_s),
            fmt_f64(r.lifetime_s),
            fmt_f64(r.cpu_cores),
            fmt_f64(r.mem_mb),
            curve.join(";")
        )
    }

    pub fn jsonl_record(r: &TraceRecord) -> String {
        let curve: Vec<String> = r
            .curve
            .iter()
            .map(|p| {
                format!(
                    "[{},{},{}]",
                    fmt_f64(p.offset_s),
                    fmt_f64(p.cpu),
                    fmt_f64(p.mem)
                )
            })
            .collect();
        format!(
            "{{\"vm\":{},\"arrival_s\":{},\"lifetime_s\":{},\"cpu_cores\":{},\"mem_mb\":{},\"curve\":[{}]}}",
            r.vm,
            fmt_f64(r.arrival_s),
            fmt_f64(r.lifetime_s),
            fmt_f64(r.cpu_cores),
            fmt_f64(r.mem_mb),
            curve.join(",")
        )
    }
}

fn float(rng: &mut TestRng) -> f64 {
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        1e300,
        -1e300,
        5e-324,
        0.1,
        0.30000000000000004,
        1e21,
        1e-7,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
    ];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => f64::from_bits(rng.next_u64()),
        _ => (rng.next_u64() as i64 >> 24) as f64 / 1024.0,
    }
}

/// Up to 12 records; one curve in eight is long (up to 400 points).
struct Records;

impl Strategy for Records {
    type Value = Vec<TraceRecord>;
    fn generate(&self, rng: &mut TestRng) -> Vec<TraceRecord> {
        (0..rng.below(12))
            .map(|_| {
                let points = if rng.below(8) == 0 {
                    rng.below(400)
                } else {
                    rng.below(4)
                };
                TraceRecord {
                    vm: rng.next_u64() >> rng.below(64),
                    arrival_s: float(rng),
                    lifetime_s: float(rng),
                    cpu_cores: float(rng),
                    mem_mb: float(rng),
                    curve: (0..points)
                        .map(|_| CurvePoint {
                            offset_s: float(rng),
                            cpu: float(rng),
                            mem: float(rng),
                        })
                        .collect(),
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writers_write_the_reference_bytes(records in Records) {
        let mut csv_doc = format!("{}\n", csv::HEADER);
        let mut jsonl_doc = String::new();
        for r in &records {
            prop_assert_eq!(csv::format_record(r), reference::csv_record(r));
            prop_assert_eq!(jsonl::format_record(r), reference::jsonl_record(r));
            csv_doc += &(reference::csv_record(r) + "\n");
            jsonl_doc += &(reference::jsonl_record(r) + "\n");
        }
        prop_assert_eq!(csv::to_string(&records), csv_doc);
        prop_assert_eq!(jsonl::to_string(&records), jsonl_doc);
    }
}
