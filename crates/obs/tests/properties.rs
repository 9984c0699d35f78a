//! Property tests for the observability primitives.
//!
//! The histogram's exactness claims — merge is a lossless bucket-wise sum
//! (associative, commutative) and quantile *bounds* always bracket the true
//! nearest-rank sample quantile — are what let per-thread shards be merged
//! in any order and still report honest percentiles. The timeline's claim
//! is that a ring buffer never reorders: what survives is exactly the most
//! recent events, in push order. The JSON reader's claim is that any string
//! comes back from its escaped form, whichever escapes the writer chose.

use aj_obs::json::{self, Value};
use aj_obs::{Histogram, SpanKind, Timeline};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Samples spanning many orders of magnitude: a raw 64-bit draw shifted
/// right by 0..64 bits, so every bucket of the log-scale histogram gets
/// exercised (including 0 and u64::MAX).
fn samples(raw: &[(u64, usize)]) -> Vec<u64> {
    raw.iter().map(|&(v, shift)| v >> (shift % 64)).collect()
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// True nearest-rank quantile of a sample set (the definition
/// `quantile_bounds` promises to bracket).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// A string of ASCII, other Basic Multilingual Plane and supplementary
/// chars: `(plane, raw)` picks one char per pair. Surrogate code points,
/// which are no chars, become U+FFFD.
fn mixed_string(raw: &[(u32, u32)]) -> String {
    raw.iter()
        .map(|&(plane, r)| {
            let code = match plane % 3 {
                0 => r % 0x80,
                1 => 0x80 + r % (0x1_0000 - 0x80),
                _ => 0x1_0000 + r % (0x11_0000 - 0x1_0000),
            };
            char::from_u32(code).unwrap_or('\u{FFFD}')
        })
        .collect()
}

/// `s` as a JSON string literal in ASCII only, the way ASCII-only encoders
/// write it: every char outside printable ASCII as `\uXXXX`, and each
/// supplementary char as its UTF-16 surrogate pair.
fn ascii_escaped(s: &str, upper: bool) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(ch),
            _ => {
                for unit in ch.encode_utf16(&mut [0; 2]) {
                    let _ = if upper {
                        write!(out, "\\u{unit:04X}")
                    } else {
                        write!(out, "\\u{unit:04x}")
                    };
                }
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative_and_associative(
        ra in collection::vec((0u64..u64::MAX, 0usize..64), 0..120),
        rb in collection::vec((0u64..u64::MAX, 0usize..64), 0..120),
        rc in collection::vec((0u64..u64::MAX, 0usize..64), 0..120),
    ) {
        let (a, b, c) = (
            hist_of(&samples(&ra)),
            hist_of(&samples(&rb)),
            hist_of(&samples(&rc)),
        );

        // Commutative: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging is lossless: the merged histogram equals recording the
        // concatenation directly.
        let mut all = samples(&ra);
        all.extend(samples(&rb));
        all.extend(samples(&rc));
        prop_assert_eq!(&ab_c, &hist_of(&all));
    }

    #[test]
    fn quantile_bounds_bracket_the_true_quantile(
        raw in collection::vec((0u64..u64::MAX, 0usize..64), 1..200),
        q_scan in 0.0f64..1.0,
    ) {
        let values = samples(&raw);
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [q_scan.max(1e-9), 0.5, 0.95, 1.0] {
            let truth = nearest_rank(&sorted, q);
            let (lo, hi) = h.quantile_bounds(q).expect("non-empty histogram");
            prop_assert!(
                lo <= truth && truth <= hi,
                "q={} truth {} outside bounds {}..{}", q, truth, lo, hi
            );
        }
        // The bounds are also clamped by the observed extremes.
        let (lo, _) = h.quantile_bounds(1e-9).unwrap();
        prop_assert!(lo >= *sorted.first().unwrap() || lo == h.min().unwrap());
    }

    #[test]
    fn timeline_keeps_the_newest_events_in_push_order(
        ticks in collection::vec(0u64..1_000_000, 0..150),
        capacity in 0usize..64,
        kind_picks in collection::vec(0usize..8, 0..150),
    ) {
        let kinds = [
            SpanKind::SweepStart,
            SpanKind::SweepEnd,
            SpanKind::PutSend,
            SpanKind::PutArrive,
            SpanKind::Stall,
            SpanKind::Crash,
            SpanKind::Recover,
            SpanKind::TermRound,
        ];
        let pushed: Vec<(u64, SpanKind)> = ticks
            .iter()
            .zip(kind_picks.iter().cycle())
            .map(|(&t, &k)| (t, kinds[k]))
            .collect();

        let mut tl = Timeline::new(capacity);
        for &(t, k) in &pushed {
            tl.push(t, k);
        }

        // The ring holds exactly the newest `capacity` events...
        let kept: Vec<(u64, SpanKind)> = tl.events().map(|e| (e.tick, e.kind)).collect();
        let expect_start = pushed.len().saturating_sub(capacity);
        prop_assert_eq!(&kept[..], &pushed[expect_start..]);
        // ...in push order (never reordered), with the remainder counted.
        prop_assert_eq!(tl.dropped(), expect_start as u64);
    }

    #[test]
    fn escaped_strings_parse_back_to_themselves(
        raw in collection::vec((0u32..3, 0u32..u32::MAX), 0..48),
        upper in 0u32..2,
    ) {
        let s = mixed_string(&raw);
        let ascii = ascii_escaped(&s, upper == 1);
        prop_assert!(ascii.is_ascii());
        prop_assert_eq!(json::parse(&ascii), Ok(Value::Str(s.clone())));

        let mut written = String::new();
        json::write_escaped(&mut written, &s);
        prop_assert_eq!(json::parse(&written), Ok(Value::Str(s.clone())));

        // Both forms also round-trip as object keys next to each other.
        let doc = format!("{{{ascii}:{written}}}");
        let mut want = std::collections::BTreeMap::new();
        want.insert(s.clone(), Value::Str(s));
        prop_assert_eq!(json::parse(&doc), Ok(Value::Obj(want)));
    }
}
