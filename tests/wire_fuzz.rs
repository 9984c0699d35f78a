//! Fuzzes the two line decoders that read from a socket: the serve
//! protocol's `parse_request` and the net wire's `parse`. Every line, valid
//! or not, must decode to a value or a typed error; none may panic or
//! overflow the stack.
//!
//! Two kinds of input:
//!
//! * arbitrary byte lines, raw and drawn from a JSON-heavy alphabet so
//!   they get past the first byte, plus nesting far deeper than any real
//!   message;
//! * valid lines with one field (or one nested method field) replaced by an
//!   arbitrary JSON value, or one unknown field added.

use aj_core::net::wire::{self, DoneMsg, JobMsg, MethodMsg, Msg};
use aj_obs::json::{self, Value};
use aj_serve::proto::{self, Request};
use aj_serve::JobSpec;
use async_jacobi_repro::linalg::ResolvedMethod;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Bytes that make up most JSON, so random lines reach the value parsers.
const JSONISH: &[u8] = b"{}[]\":,.-+eE0123456789 tfalsenru\\x\"";

/// Feeds one line to both decoders; each must return.
fn decode_both(line: &str) {
    let _ = proto::parse_request(line);
    if let Ok(Msg::Job(job)) = wire::parse(line) {
        let _ = job.method.decode();
    }
}

/// A JSON value's text, drawn from `words`: scalars from tables of awkward
/// cases (integers past 2^53 and 2^64, overflowing exponents, subnormals,
/// lone surrogates, selectors) and arrays and objects up to depth 3.
fn json_text(words: &mut impl Iterator<Item = u64>, depth: u32) -> String {
    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "-1",
        "7",
        "0.5",
        "-0.0",
        "4294967296",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "1e19",
        "1e22",
        "1e300",
        "1e999",
        "-1e999",
        "1e-310",
        "1e-400",
        "-3.75",
    ];
    const STRINGS: &[&str] = &[
        "\"\"",
        "\"jacobi\"",
        "\"rwr:fraction=0.5\"",
        "\"sync\"",
        "\"dist-async\"",
        "\"fd68\"",
        "\"grid:3x3\"",
        "\"vcycle\"",
        "\"sellc\"",
        "\"hexf64\"",
        "\"00000000000000ff\"",
        "\"zz\"",
        "\"\\u0000\"",
        "\"\\ud800\"",
        "\"\u{e9}\"",
    ];
    const KEYS: &[&str] = &["t", "op", "id", "v", "name", "omega", "x", "rank", "seed"];
    let w = words.next().unwrap_or(0);
    let pick = |table: &[&str]| table[(w >> 8) as usize % table.len()].to_string();
    let len = (w >> 16) % 4;
    match w % 10 {
        0 => "null".into(),
        1 => "true".into(),
        2 => "false".into(),
        3 | 4 => pick(NUMBERS),
        5 => pick(STRINGS),
        6 if depth < 3 => {
            let items: Vec<String> = (0..len).map(|_| json_text(words, depth + 1)).collect();
            format!("[{}]", items.join(","))
        }
        7 if depth < 3 => {
            let items: Vec<String> = (0..len)
                .map(|k| {
                    let key = KEYS[(w >> (24 + 4 * k)) as usize % KEYS.len()];
                    format!("\"{key}\":{}", json_text(words, depth + 1))
                })
                .collect();
            format!("{{{}}}", items.join(","))
        }
        _ => format!("{}", (w >> 12) as i64 - (1 << 50)),
    }
}

/// Renders a parsed value back to JSON text.
fn render(v: &Value) -> String {
    let mut out = String::new();
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => json::write_f64(&mut out, *n),
        Value::Str(s) => json::write_escaped(&mut out, s),
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(render).collect();
            out = format!("[{}]", items.join(","));
        }
        Value::Obj(fields) => out = render_fields(fields),
    }
    out
}

fn render_fields(fields: &BTreeMap<String, Value>) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            let mut key = String::new();
            json::write_escaped(&mut key, k);
            format!("{key}:{}", render(v))
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// `line` with the field chosen by `choice` replaced by `value` (a JSON
/// text): a top-level field, a field of the nested `method` object, or a
/// new field `fuzz`.
fn replace_field(line: &str, choice: usize, value: &str) -> String {
    let Ok(Value::Obj(mut fields)) = json::parse(line) else {
        panic!("not a valid object line: {line}");
    };
    let mut slots: Vec<(bool, String)> = fields.keys().map(|k| (false, k.clone())).collect();
    if let Some(Value::Obj(method)) = fields.get("method") {
        slots.extend(method.keys().map(|k| (true, k.clone())));
    }
    slots.push((false, "fuzz".into()));
    let (nested, key) = &slots[choice % slots.len()];
    // A placeholder keeps the rendering order; the raw text replaces it.
    const MARK: &str = "\u{1}fuzz\u{1}";
    let target = if *nested {
        match fields.get_mut("method") {
            Some(Value::Obj(method)) => method,
            _ => unreachable!("nested slots come from a method object"),
        }
    } else {
        &mut fields
    };
    target.insert(key.clone(), Value::Str(MARK.into()));
    let mut mark = String::new();
    json::write_escaped(&mut mark, MARK);
    render_fields(&fields).replace(&mark, value)
}

/// A valid solve request line that sets every optional field.
fn solve_line() -> String {
    let spec = JobSpec {
        matrix: "grid:6x6".into(),
        backend: "sim-async".into(),
        threads: 2,
        ranks: 2,
        method: "richardson1:omega=0.8".into(),
        outer: "vcycle".into(),
        deadline: Some(Duration::from_millis(1500)),
        idempotency_key: Some("k-1".into()),
        session: Some("s".into()),
        perturb_seed: 3,
        perturb_scale: 0.25,
        ..Default::default()
    };
    proto::render_request(&Request::Solve { id: 7, spec })
}

/// One valid line per net message type.
fn wire_lines() -> Vec<String> {
    let job = JobMsg {
        n_owned: 2,
        n_ghost: 1,
        indptr: vec![0, 2, 4],
        cols: vec![0, 2, 1, 0],
        vals: vec![1.0, -0.25, 1.0, -0.25],
        b: vec![0.5, -0.5],
        x: vec![0.0, 0.1, 0.2],
        sends: vec![(1, vec![0])],
        recvs: vec![(1, vec![0])],
        method: MethodMsg::encode(&ResolvedMethod::Richardson2 {
            omega: 0.9,
            beta: 0.25,
        }),
        format: "sellc".into(),
        sell_c: 8,
        max_iterations: 100,
        check_interval: 5,
        pace_us: 0,
        obs_stride: 1,
    };
    let msgs = [
        Msg::Hello {
            rank: 1,
            proto: wire::PROTO_VERSION,
            resume: false,
        },
        Msg::Welcome {
            proto: wire::PROTO_VERSION,
            ranks: 2,
        },
        Msg::Reject { error: "no".into() },
        Msg::Job(Box::new(job)),
        Msg::Start,
        Msg::Put {
            from: 0,
            to: 1,
            sent_us: 5,
            vals: vec![0.5, -0.0],
        },
        Msg::Report {
            rank: 1,
            norm: 1e-3,
            iter: 4,
        },
        Msg::Stop,
        Msg::Done(Box::new(DoneMsg {
            rank: 1,
            iters: 10,
            reports: 2,
            reconnects: 0,
            x: vec![0.25, 0.5],
            obs: Some("{}".into()),
        })),
    ];
    msgs.iter().map(wire::render).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, decoded lossily to a line, and the same draw mapped
    /// onto the JSON-heavy alphabet.
    #[test]
    fn arbitrary_lines_decode_or_fail_cleanly(bytes in collection::vec(0u32..256, 0..160)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        decode_both(&String::from_utf8_lossy(&raw));
        let jsonish: Vec<u8> = bytes.iter().map(|&b| JSONISH[b as usize % JSONISH.len()]).collect();
        decode_both(&String::from_utf8_lossy(&jsonish));
        // Inside an object, so the value parsers see the bytes.
        decode_both(&format!("{{\"op\":{}}}", String::from_utf8_lossy(&jsonish)));
    }

    /// A valid solve request with one field replaced or added.
    #[test]
    fn solve_lines_with_one_field_replaced_decode_or_fail_cleanly(
        choice in 0usize..64,
        words in collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let value = json_text(&mut words.into_iter(), 0);
        decode_both(&replace_field(&solve_line(), choice, &value));
    }

    /// Every net message with one field (a job's method fields included)
    /// replaced or added.
    #[test]
    fn wire_lines_with_one_field_replaced_decode_or_fail_cleanly(
        line in 0..wire_lines().len(),
        choice in 0usize..64,
        words in collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let value = json_text(&mut words.into_iter(), 0);
        decode_both(&replace_field(&wire_lines()[line], choice, &value));
    }
}

/// The valid lines themselves decode, so the replacements above start
/// from real messages.
#[test]
fn the_seed_lines_are_valid() {
    assert!(matches!(
        proto::parse_request(&solve_line()),
        Ok(Request::Solve { id: 7, .. })
    ));
    for line in wire_lines() {
        wire::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}

/// Nesting far deeper than any message is a typed error, not a stack
/// overflow.
#[test]
fn deep_nesting_is_an_error() {
    for depth in [200, 100_000] {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let line = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(proto::parse_request(&line).is_err());
            assert!(wire::parse(&line).is_err());
        }
    }
}
