//! `MetricsRegistry::to_jsonl` against the body it replaced.
//!
//! The old body finished each `labels` object into a `String`, copied it
//! in through `raw` and copied every finished line into the output; it is
//! frozen below over the frozen `Obj` that `snooze-telemetry`'s own
//! reference tests use. On generated registries (label values with quotes,
//! backslashes, control characters and non-ASCII; NaN and ±inf gauges and
//! samples) the streaming body must produce the same bytes.

#[path = "../../telemetry/tests/reference/mod.rs"]
mod reference;

use proptest::prelude::*;
use reference::json::Obj;
use snooze_simcore::prelude::*;

fn reference_to_jsonl(m: &MetricsRegistry) -> String {
    fn labels_json(labels: &LabelSet) -> String {
        let mut obj = Obj::new();
        for (k, v) in labels.pairs() {
            obj = obj.str(k, v);
        }
        obj.finish()
    }
    let mut out = String::new();
    for (name, labels, value) in m.counters_iter() {
        let line = Obj::new()
            .str("type", "counter")
            .str("name", name)
            .raw("labels", &labels_json(labels))
            .u64("value", value)
            .finish();
        out.push_str(&line);
        out.push('\n');
    }
    for (name, labels, value) in m.gauges_iter() {
        let line = Obj::new()
            .str("type", "gauge")
            .str("name", name)
            .raw("labels", &labels_json(labels))
            .f64("value", value)
            .finish();
        out.push_str(&line);
        out.push('\n');
    }
    for (name, labels, h) in m.histograms_iter() {
        let s = h.summary();
        let line = Obj::new()
            .str("type", "histogram")
            .str("name", name)
            .raw("labels", &labels_json(labels))
            .u64("count", s.count as u64)
            .f64("mean", s.mean)
            .f64("min", s.min)
            .f64("max", s.max)
            .f64("p50", s.p50)
            .f64("p95", s.p95)
            .f64("p99", s.p99)
            .finish();
        out.push_str(&line);
        out.push('\n');
    }
    out
}

const TEXT: &[&str] = &[
    "", "net.sent", "\"", "\\", "\n", "\u{1}", "é", "日", "role", "gm", "{}",
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(4)).map(|_| pick(rng, TEXT)).collect()
}

fn value(rng: &mut TestRng) -> f64 {
    match rng.below(6) {
        0 => pick(rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        1 => pick(rng, &[0.0, -0.0, 1e300, 5e-324, 0.1]),
        _ => (rng.next_u64() as i64 >> 24) as f64 / 1024.0,
    }
}

/// Up to 40 updates spread over the three kinds.
struct Registries;

impl Strategy for Registries {
    type Value = MetricsRegistry;
    fn generate(&self, rng: &mut TestRng) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for _ in 0..rng.below(40) {
            let mut labels = LabelSet::new();
            for _ in 0..rng.below(3) {
                labels.insert(text(rng), text(rng));
            }
            let key = text(rng);
            match rng.below(3) {
                0 => m.add_with(&key, &labels, rng.below(1 << 40)),
                1 => m.set_gauge_with(&key, &labels, value(rng)),
                _ => m.observe_with(&key, &labels, value(rng)),
            }
        }
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metrics_jsonl_writes_the_reference_bytes(m in Registries) {
        prop_assert_eq!(m.to_jsonl(), reference_to_jsonl(&m));
    }
}
