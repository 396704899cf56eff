//! Readers against hostile input: a trace is external data.
//!
//! `CsvReader`, `JsonlReader` and `AzureShapedReader` over arbitrary text,
//! over valid documents with pieces cut, inserted and repeated, and over
//! valid documents with bytes that are not UTF-8 spliced in anywhere must
//! return records or one `TraceError` whose line is a line of the input
//! and whose message is under 512 bytes — never a panic, never a message
//! the size of the line it complains about.

use proptest::prelude::*;
use snooze_trace::csv::CsvReader;
use snooze_trace::dataset::AzureShapedReader;
use snooze_trace::jsonl::JsonlReader;
use snooze_trace::{csv, generate, jsonl, read_all, DatasetReader, GeneratorConfig, TraceError};

const AZURE_HEADER: &str = "vmid,vmcreated,vmdeleted,corecount,memorygb,avgcpu,p95maxcpu";

fn read(format: usize, bytes: &[u8]) -> Result<usize, TraceError> {
    let mut reader: Box<dyn DatasetReader + '_> = match format {
        0 => Box::new(CsvReader::new(bytes)),
        1 => Box::new(JsonlReader::new(bytes)),
        _ => Box::new(AzureShapedReader::new(bytes)),
    };
    read_all(&mut *reader).map(|records| records.len())
}

/// A small valid document in reader `format`'s layout.
fn valid(format: usize, seed: u64) -> String {
    let cfg = GeneratorConfig {
        vms: 6,
        ..GeneratorConfig::default()
    };
    let records = generate(&cfg, seed);
    match format {
        0 => csv::to_string(&records),
        1 => jsonl::to_string(&records),
        _ => records.iter().fold(format!("{AZURE_HEADER}\n"), |doc, r| {
            let end = r.arrival_s + r.lifetime_s;
            format!(
                "{doc}{},{},{end},{},{},12.5,80\n",
                r.vm,
                r.arrival_s,
                r.cpu_cores,
                r.mem_mb / 1024.0
            )
        }),
    }
}

const HOSTILE_CHARS: &[char] = &[
    ',', ':', ';', '{', '}', '[', ']', '"', '\\', '.', '-', '+', 'e', 'E', '0', '1', '9', ' ',
    '\t', '\n', '\n', '\r', 'a', 'n', 'u', 'v', 'm', 'é', '日', '\u{0}', '\u{feff}',
];

fn pick(rng: &mut TestRng) -> char {
    HOSTILE_CHARS[rng.below(HOSTILE_CHARS.len() as u64) as usize]
}

/// `(reader, text)`: arbitrary text, under the reader's header half the
/// time so the record path is reached, with the odd very long run.
struct HostileText;

impl Strategy for HostileText {
    type Value = (usize, String);
    fn generate(&self, rng: &mut TestRng) -> (usize, String) {
        let format = rng.below(3) as usize;
        let mut text = match (format, rng.below(2)) {
            (0, 0) => format!("{}\n", csv::HEADER),
            (2, 0) => format!("{AZURE_HEADER}\n"),
            _ => String::new(),
        };
        for _ in 0..rng.below(100) {
            let c = pick(rng);
            let run = if rng.below(40) == 0 {
                1 + rng.below(3000)
            } else {
                1
            };
            text.extend((0..run).map(|_| c));
        }
        (format, text)
    }
}

fn boundary(rng: &mut TestRng, s: &str) -> usize {
    let mut i = rng.below(s.len() as u64 + 1) as usize;
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// `(reader, text)`: a valid document, damaged one to four times.
struct Mutated;

impl Strategy for Mutated {
    type Value = (usize, String);
    fn generate(&self, rng: &mut TestRng) -> (usize, String) {
        let format = rng.below(3) as usize;
        let mut text = valid(format, rng.next_u64());
        for _ in 0..1 + rng.below(4) {
            let (a, b) = (boundary(rng, &text), boundary(rng, &text));
            let (a, b) = (a.min(b), a.max(b));
            match rng.below(5) {
                0 => text.replace_range(a..b, ""),
                1 => text.insert(a, pick(rng)),
                2 => {
                    let piece = text[a..b].to_string();
                    text.insert_str(a, &piece);
                }
                3 => {
                    let long = pick(rng).to_string().repeat(2000);
                    text.insert_str(a, &long);
                }
                _ => text.truncate(a),
            }
        }
        (format, text)
    }
}

/// `(reader, bytes)`: a valid document with one to four runs of bytes
/// from `0x80..=0xFF` spliced in at random byte offsets — into a field,
/// a number, a header, a line ending, past the end. Each run holds at
/// least one byte no UTF-8 text holds (`0xF8..=0xFF`), so every line a
/// run lands on is invalid whatever its neighbours spell.
struct SplicedBytes;

impl Strategy for SplicedBytes {
    type Value = (usize, Vec<u8>);
    fn generate(&self, rng: &mut TestRng) -> (usize, Vec<u8>) {
        let format = rng.below(3) as usize;
        let mut bytes = valid(format, rng.next_u64()).into_bytes();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            let mut run: Vec<u8> = (0..1 + rng.below(6))
                .map(|_| 0x80 + rng.below(0x80) as u8)
                .collect();
            let never = rng.below(run.len() as u64) as usize;
            run[never] = 0xF8 + rng.below(8) as u8;
            bytes.splice(at..at, run);
        }
        (format, bytes)
    }
}

fn ok_or_short_line_numbered_error(format: usize, text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = read(format, text.as_bytes()) {
        let shown = e.to_string();
        prop_assert!(shown.len() < 512, "{} bytes: {shown}", shown.len());
        // Line 0 is "before any line": an input with no header at all.
        let lines = text.split('\n').count();
        prop_assert!(e.line <= lines, "line {} of {lines}: {shown}", e.line);
        prop_assert!(shown.starts_with(&format!("line {}: ", e.line)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn arbitrary_text_reads_or_fails_briefly(input in HostileText) {
        ok_or_short_line_numbered_error(input.0, &input.1)?;
    }

    #[test]
    fn damaged_documents_read_or_fail_briefly(input in Mutated) {
        ok_or_short_line_numbered_error(input.0, &input.1)?;
    }

    /// Bytes that are not UTF-8 anywhere in a document: the lines before
    /// the first one holding them are untouched, so the error is the read
    /// error, on that line, and short.
    #[test]
    fn spliced_non_utf8_bytes_fail_on_their_line(input in SplicedBytes) {
        let (format, bytes) = input;
        let bad = std::str::from_utf8(&bytes).expect_err("a run is never UTF-8");
        let line = 1 + bytes[..bad.valid_up_to()].iter().filter(|&&b| b == b'\n').count();
        match read(format, &bytes) {
            Ok(n) => prop_assert!(false, "{n} records, bad bytes on line {line}"),
            Err(e) => {
                let shown = e.to_string();
                prop_assert!(shown.len() < 512, "{} bytes: {shown}", shown.len());
                prop_assert_eq!(e.line, line, "{}", shown);
                prop_assert!(e.msg.starts_with("read error"), "{shown}");
            }
        }
    }
}

/// Undamaged, the three documents the mutations start from read whole.
#[test]
fn the_valid_documents_are_valid() {
    for format in 0..3 {
        assert_eq!(
            read(format, valid(format, 11).as_bytes()),
            Ok(6),
            "reader {format}"
        );
    }
}

/// One 400 000-byte field, header or key per reader: each is excerpted.
#[test]
fn a_huge_bad_line_yields_a_short_error() {
    let long = "é".repeat(200_000);
    let inputs = [
        (0, long.clone(), 1),
        (0, format!("{}\n{long},1,2,3,4,\n", csv::HEADER), 2),
        (0, format!("{}\n0,0,60,1,1024,{long}\n", csv::HEADER), 2),
        (1, format!("{{\"{long}\":1}}"), 1),
        (1, format!("{{\"vm\":{}}}", "-".repeat(400_000)), 1),
        (
            2,
            format!("{AZURE_HEADER}\n1,{long},3600,4,16,12.5,80\n"),
            2,
        ),
    ];
    for (format, text, line) in inputs {
        let err = read(format, text.as_bytes()).unwrap_err();
        assert_eq!(err.line, line, "{}", &err.msg[..40]);
        assert!(err.msg.len() < 512, "{} bytes", err.msg.len());
        assert!(err.msg.contains('…'), "{}", err.msg);
    }
}

/// Bytes that are not UTF-8 — a lone continuation byte, a truncated
/// two-byte sequence, a byte no UTF-8 text holds — put at the start of
/// line 1 or 3 of each valid document: a read error on that line.
#[test]
fn invalid_utf8_is_a_read_error_on_its_line() {
    for format in 0..3 {
        let doc = valid(format, 11);
        let third = doc.match_indices('\n').nth(1).unwrap().0 + 1;
        for bad in [&b"\x80"[..], b"\xC3(", b"\xFF"] {
            for (at, line) in [(0, 1), (third, 3)] {
                let mut bytes = doc.as_bytes().to_vec();
                bytes.splice(at..at, bad.iter().copied());
                let err = read(format, &bytes).unwrap_err();
                assert_eq!(err.line, line, "reader {format}, {bad:?}: {err}");
                assert!(err.msg.starts_with("read error"), "{err}");
            }
        }
    }
}
