//! The streaming exporters against the exporters they replaced.
//!
//! `tests/reference/` holds the old `json::Obj`, `chrome::render`,
//! `jsonl::render` and `WindowLog::{to_jsonl, to_csv}` bodies, frozen, and
//! the old span log the two span exporters read.
//! On generated span logs (open spans, parents, label values with quotes,
//! backslashes, newlines, control characters, non-ASCII, the empty
//! string) and window rows (all three kinds, NaN and ±inf statistics) the
//! new writers must produce the same bytes.

mod reference;

use proptest::prelude::*;
use snooze_telemetry::json::{array, escape, num, Obj};
use snooze_telemetry::label::LabelSet;
use snooze_telemetry::span::{SpanId, SpanLog};
use snooze_telemetry::window::{SliceStats, WindowKind, WindowLog, WindowRow};

const NAMES: &[&str] = &[
    "gl.dispatch",
    "",
    "quo\"te",
    "back\\slash",
    "né.日",
    "tab\there",
];
const KEYS: &[&str] = &["vm", "", "k\"", "reason\n", "ключ"];
const TEXT: &[&str] = &[
    "", "9", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", " ", "a", "é", "日", "𝄞", "\u{7f}",
    "\\n", "{}", ",",
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(6)).map(|_| pick(rng, TEXT)).collect()
}

/// A span log of up to 40 spans: parents among the spans already opened,
/// some closed and some left open, up to four labels each — built twice,
/// as the log and as the frozen log the reference exporters read.
struct Logs;

impl Strategy for Logs {
    type Value = (SpanLog, reference::span::SpanLog);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let mut log = SpanLog::new();
        let mut old = reference::span::SpanLog::new();
        let mut now = rng.below(1000);
        for i in 0..rng.below(40) {
            let parent = (i > 0 && rng.below(2) == 0).then(|| SpanId(1 + rng.below(i)));
            let track = pick(rng, &[0, 1, 7, 7, u64::MAX]);
            let name = pick(rng, NAMES);
            let id = log.open(name, track, parent, now);
            old.open(name, track, parent, now);
            for _ in 0..rng.below(5) {
                let (key, value) = (pick(rng, KEYS), text(rng));
                log.label(id, key, value.clone());
                old.label(id, key, value);
            }
            now += rng.below(50);
            if rng.below(3) > 0 {
                log.close(id, now);
                old.close(id, now);
            }
        }
        (log, old)
    }
}

fn stat(rng: &mut TestRng) -> f64 {
    match rng.below(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => pick(rng, &[0.0, -0.0, 1e300, 5e-324, 0.1, 1e21, 1e-7]),
        _ => (rng.next_u64() as i64 >> 24) as f64 / 1024.0,
    }
}

/// Up to 30 window rows of all three kinds.
struct Rows;

impl Strategy for Rows {
    type Value = Vec<WindowRow>;
    fn generate(&self, rng: &mut TestRng) -> Vec<WindowRow> {
        (0..rng.below(30))
            .map(|_| {
                let mut labels = LabelSet::new();
                for _ in 0..rng.below(4) {
                    labels.insert(pick(rng, KEYS), text(rng));
                }
                let start_us = rng.next_u64() >> rng.below(64);
                WindowRow {
                    index: rng.below(100),
                    start_us,
                    end_us: start_us.saturating_add(rng.below(1 << 30)),
                    kind: pick(
                        rng,
                        &[
                            WindowKind::Counter,
                            WindowKind::Gauge,
                            WindowKind::Histogram,
                        ],
                    ),
                    name: format!("{}{}", pick(rng, NAMES), text(rng)),
                    labels,
                    count: rng.next_u64() >> rng.below(64),
                    stats: SliceStats {
                        count: rng.below(1000),
                        sum: stat(rng),
                        min: stat(rng),
                        max: stat(rng),
                        p50: stat(rng),
                        p95: stat(rng),
                        p99: stat(rng),
                    },
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chrome_and_span_jsonl_write_the_reference_bytes(logs in Logs) {
        let (log, old) = logs;
        let track = |t: u64| format!("{}#{t}", pick(&mut TestRng::from_seed(t), NAMES));
        prop_assert_eq!(
            snooze_telemetry::chrome::render(&log, &track),
            reference::chrome::render(&old, &track)
        );
        prop_assert_eq!(
            snooze_telemetry::jsonl::render(&log),
            reference::jsonl::render(&old)
        );
    }

    #[test]
    fn window_exports_write_the_reference_bytes(rows in Rows) {
        let mut log = WindowLog::new();
        for r in &rows {
            log.push(r.clone());
        }
        prop_assert_eq!(log.to_jsonl(), reference::window::to_jsonl(&rows));
        prop_assert_eq!(log.to_csv(), reference::window::to_csv(&rows));
    }

    /// The by-value surface other crates and the benchmark build documents
    /// with: every method, nested through `raw` the old way.
    #[test]
    fn obj_and_helpers_write_the_reference_bytes(
        seed in any::<u64>(),
    ) {
        let rng = &mut TestRng::from_seed(seed);
        let (k, s, n, f) = (text(rng), text(rng), rng.next_u64(), stat(rng));
        prop_assert_eq!(escape(&s), reference::json::escape(&s));
        prop_assert_eq!(num(f), reference::json::num(f));
        let inner = Obj::new().str(&k, &s).f64("f", f).finish();
        let old_inner = reference::json::Obj::new().str(&k, &s).f64("f", f).finish();
        prop_assert_eq!(&inner, &old_inner);
        let elems = vec![inner.clone(), num(f), format!("\"{}\"", escape(&s))];
        prop_assert_eq!(array(&elems), reference::json::array(&elems));
        prop_assert_eq!(
            Obj::new()
                .u64(&s, n)
                .obj("in", |o| o.str(&k, &s).f64("f", f))
                .raw("raw", &array(&elems))
                .obj("empty", |o| o)
                .finish(),
            reference::json::Obj::new()
                .u64(&s, n)
                .raw("in", &old_inner)
                .raw("raw", &reference::json::array(&elems))
                .raw("empty", "{}")
                .finish()
        );
        prop_assert_eq!(Obj::begin(s.clone()).finish(), format!("{s}{{}}"));
    }
}
