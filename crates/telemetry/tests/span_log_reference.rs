//! The span log against the log it replaced.
//!
//! `tests/reference/` holds the old span log, frozen: one
//! `Vec<(&'static str, String)>` of labels per record, every value a
//! `String` its caller rendered. Both logs run the same random interleaving
//! of open, close and label — labels on the newest span and on old spans
//! after newer ones opened, unknown ids, every [`LabelValue`] kind with `0`,
//! `u64::MAX` and the external component among them, long enough to cross
//! segment edges. After every operation the digests must agree; at the end,
//! the JSONL and Chrome bytes and every label lookup.

mod reference;

use proptest::prelude::*;
use snooze_telemetry::span::{LabelValue, SpanId, SpanLog};

const NAMES: &[&str] = &["gl.dispatch", "gm.place", "", "quo\"te"];
const KEYS: &[&str] = &["vm", "outcome", "lc", "", "k\""];
const STATIC: &[&str] = &["placed", "rejected", "", "a\\b", "né"];
const TEXT: &[&str] = &["", "9", "\"", "\\", "\n", "\u{1}", "é", "c7", "ext"];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn int(rng: &mut TestRng) -> u64 {
    match rng.below(3) {
        0 => pick(rng, &[0, 1, 9, 10, 511, 512, u64::MAX - 1, u64::MAX]),
        1 => rng.below(2048),
        _ => rng.next_u64() >> rng.below(64),
    }
}

/// A label value of every kind, beside the text the old log was handed for
/// it: the integer's `to_string()`, a `ComponentId`'s `Debug` (`c{n}`, or
/// `ext` for the external pseudo-component), the string itself.
fn value(rng: &mut TestRng) -> (LabelValue, String) {
    match rng.below(5) {
        0 => {
            let s = pick(rng, STATIC);
            (s.into(), s.to_string())
        }
        1 => {
            let n = int(rng);
            (n.into(), n.to_string())
        }
        2 => {
            let n = rng.below(1 << 20) as usize;
            (n.into(), n.to_string())
        }
        3 => match int(rng) {
            u64::MAX => (LabelValue::EXTERNAL, "ext".to_string()),
            n => (LabelValue::Component(n), format!("c{n}")),
        },
        _ => {
            let s: String = (0..rng.below(4)).map(|_| pick(rng, TEXT)).collect();
            (s.clone().into(), s)
        }
    }
}

/// Any span opened so far, now and then one that does not exist.
fn target(rng: &mut TestRng, opened: u64) -> SpanId {
    match rng.below(20) {
        0 => SpanId(pick(rng, &[0, opened + 1, u64::MAX])),
        1..=9 => SpanId(opened.max(1)),
        _ => SpanId(1 + rng.below(opened.max(1))),
    }
}

/// Run `ops` random operations on both logs, comparing as it goes.
fn differential(rng: &mut TestRng, ops: u64) -> Result<(SpanLog, usize), TestCaseError> {
    let mut log = SpanLog::new();
    let mut old = reference::span::SpanLog::new();
    let mut now = 0;
    let mut labels = 0;
    for _ in 0..ops {
        let opened = log.len() as u64;
        now += rng.below(30);
        match rng.below(20) {
            0..=7 => {
                let (name, track) = (pick(rng, NAMES), int(rng));
                let parent = (opened > 0 && rng.below(2) == 0).then(|| target(rng, opened));
                let id = log.open(name, track, parent, now);
                prop_assert_eq!(id, old.open(name, track, parent, now));
            }
            8..=10 => {
                let id = target(rng, opened);
                log.close(id, now);
                old.close(id, now);
            }
            _ => {
                let (id, key) = (target(rng, opened), pick(rng, KEYS));
                let (typed, text) = value(rng);
                prop_assert!(typed == text.as_str(), "{:?} is {:?}", typed, text);
                labels += usize::from(old.get(id).is_some());
                log.label(id, key, typed);
                old.label(id, key, text);
            }
        }
        prop_assert_eq!(log.digest(), old.digest());
    }

    prop_assert_eq!(log.len(), old.len());
    prop_assert_eq!(log.max_time_us(), old.max_time_us());
    prop_assert_eq!(
        snooze_telemetry::jsonl::render(&log),
        reference::jsonl::render(&old)
    );
    let track = |t: u64| format!("t{t}");
    prop_assert_eq!(
        snooze_telemetry::chrome::render(&log, &track),
        reference::chrome::render(&old, &track)
    );
    for (new, was) in log.iter().zip(old.iter()) {
        prop_assert_eq!(
            (new.id, new.parent, new.name, new.track),
            (was.id, was.parent, was.name, was.track)
        );
        prop_assert_eq!((new.start_us, new.end_us), (was.start_us, was.end_us));
        let rendered: Vec<(&str, String)> = log
            .labels(new.id)
            .map(|l| (l.key, l.value.to_string()))
            .collect();
        prop_assert_eq!(&rendered, &was.labels);
        for key in KEYS.iter().chain(&["missing"]) {
            let found = log.label_of(new.id, key).map(ToString::to_string);
            prop_assert_eq!(found.as_deref(), was.label(key));
        }
    }
    let newest: Vec<SpanId> = log.iter().rev().map(|s| s.id).collect();
    let mut oldest: Vec<SpanId> = old.iter().map(|s| s.id).collect();
    oldest.reverse();
    prop_assert_eq!(newest, oldest);
    Ok((log, labels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn typed_segmented_log_matches_the_string_log(seed in any::<u64>()) {
        let rng = &mut TestRng::from_seed(seed);
        let ops = 1 + rng.below(14_000);
        differential(rng, ops)?;
    }
}

/// One interleaving long enough to cross two segment edges (4096 entries)
/// of records and of labels, whatever the generator's mix.
#[test]
fn a_long_interleaving_crosses_segment_edges() {
    let (log, labels) = differential(&mut TestRng::from_seed(3602), 25_000).unwrap();
    assert!(log.len() > 2 * 4096, "{} spans", log.len());
    assert!(labels > 2 * 4096, "{labels} labels");
    // A clone, whose last segment holds only what was used, keeps agreeing
    // with its source as both grow past the next edge.
    let (mut a, mut b) = (log.clone(), log);
    for i in 0..4100 {
        for log in [&mut a, &mut b] {
            let id = log.open("grow", i, None, i);
            log.label(id, "i", i);
            log.label(SpanId(1 + i), "again", LabelValue::Component(i));
        }
        assert_eq!(a.digest(), b.digest());
    }
    assert_eq!(
        snooze_telemetry::jsonl::render(&a),
        snooze_telemetry::jsonl::render(&b)
    );
}
