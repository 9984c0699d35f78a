//! Property tests for the serve wire protocol: every request and response
//! the client can render parses back to the identical value — including
//! the v2 additions (`idempotency_key` on solve specs, `replayed` on done
//! responses, the `"v"` version field) — and pinned v1 lines from before
//! the version field existed still parse, so old clients keep working
//! against a v2 server.

use aj_serve::proto::{self, Request, Response, PROTO_VERSION};
use aj_serve::{JobResult, JobSpec, ShedReason};
use proptest::prelude::*;
use std::time::Duration;

/// Builds a printable string (including JSON-hostile characters, to
/// exercise escaping) from generated indices. The vendored proptest has no
/// string strategies, so strings are derived from `Vec<u32>` in the body.
fn text(indices: &[u32]) -> String {
    const ALPHABET: &[u8] = b"abcXYZ019 _-:/.\\\"\n\t{}";
    indices
        .iter()
        .map(|i| ALPHABET[*i as usize % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `render_request` → `parse_request` is the identity on solve
    /// requests, for arbitrary specs including escaped strings, optional
    /// deadlines, and optional idempotency keys.
    #[test]
    fn solve_request_roundtrips(
        id in 0u64..1 << 53, // JSON numbers are f64: 2^53 is the exact-integer ceiling
        matrix in collection::vec(0u32..1 << 30, 1..20),
        backend in collection::vec(0u32..1 << 30, 1..12),
        (seed, threads, ranks, detect) in (0u64..1_000_000, 1usize..64, 1usize..512, 0u32..2),
        (tol_mant, tol_exp) in (1u64..1_000_000, 0u32..30),
        (max_iterations, omega_mant) in (1u64..10_000_000, 1u64..256),
        (deadline_some, deadline_ms) in (0u32..2, 0u64..100_000),
        (key_some, key) in (0u32..2, collection::vec(0u32..1 << 30, 0..24)),
        (outer_some, outer) in (0u32..2, collection::vec(0u32..1 << 30, 1..24)),
        (session_some, session) in (0u32..2, collection::vec(0u32..1 << 30, 1..16)),
        (perturb_seed, perturb_mant) in (0u64..1_000_000, 0u64..64),
    ) {
        let spec = JobSpec {
            matrix: text(&matrix),
            backend: text(&backend),
            seed,
            threads,
            ranks,
            detect: detect == 1,
            // Arbitrary finite floats: `write_f64` uses Rust's shortest
            // round-trippable rendering, so exact equality must hold.
            tol: tol_mant as f64 / f64::from(2u32.pow(tol_exp)),
            max_iterations,
            omega: omega_mant as f64 / 64.0,
            method: "jacobi".into(),
            format: "csr".into(),
            // The outer selector is additive v2 wire state: empty means
            // absent on the wire and must round-trip to empty.
            outer: if outer_some == 1 {
                text(&outer)
            } else {
                String::new()
            },
            deadline: (deadline_some == 1).then(|| Duration::from_millis(deadline_ms)),
            idempotency_key: (key_some == 1).then(|| text(&key)),
            // Additive v3 streaming fields: a zero perturb_scale is absent
            // on the wire (its seed rides along only when the scale is set).
            session: (session_some == 1).then(|| text(&session)),
            perturb_seed: if perturb_mant > 0 { perturb_seed } else { 0 },
            perturb_scale: perturb_mant as f64 / 64.0,
        };
        let line = proto::render_request(&Request::Solve { id, spec: spec.clone() });
        let parsed = proto::parse_request(&line)
            .unwrap_or_else(|(_, e)| panic!("rendered solve failed to parse: {e}\n{line}"));
        let Request::Solve { id: pid, spec: pspec } = parsed else {
            panic!("solve parsed as a different op");
        };
        prop_assert_eq!(pid, id);
        // Deadlines ride the wire as fractional milliseconds; a round trip
        // may differ by sub-nanosecond float error, never more.
        match (spec.deadline, pspec.deadline) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert!((a.as_secs_f64() - b.as_secs_f64()).abs() < 1e-9);
            }
            (a, b) => prop_assert!(false, "deadline {:?} came back as {:?}", a, b),
        }
        let normalize = |mut s: JobSpec| { s.deadline = None; s };
        prop_assert_eq!(normalize(pspec), normalize(spec));
    }

    /// Cancel / stats / shutdown round-trip too (they all carry `"v"`).
    #[test]
    fn control_requests_roundtrip(id in 0u64..1 << 53, drain in 0u32..2) {
        for req in [
            Request::Cancel { id },
            Request::Stats,
            Request::Shutdown { drain: drain == 1 },
        ] {
            let line = proto::render_request(&req);
            prop_assert!(
                line.contains("\"v\":"),
                "rendered request lacks a version field: {}", line
            );
            let parsed = proto::parse_request(&line)
                .unwrap_or_else(|(_, e)| panic!("{e}\n{line}"));
            prop_assert_eq!(parsed, req);
        }
    }

    /// `render_response` → `parse_response` is the identity on the three
    /// job outcomes, including the additive `replayed` flag.
    #[test]
    fn outcome_responses_roundtrip(
        id in 0u64..1 << 53, // JSON numbers are f64: 2^53 is the exact-integer ceiling
        backend in collection::vec(0u32..1 << 30, 0..12),
        (converged, cache_hit, replayed) in (0u32..2, 0u32..2, 0u32..2),
        (res_mant, res_exp) in (1u64..1_000_000, 0u32..30),
        samples in 0usize..100_000,
        (queued_us, solved_us) in (0u64..10_000_000, 0u64..10_000_000),
        error in collection::vec(0u32..1 << 30, 0..32),
        reason_idx in 0usize..4,
        (session_solve, warm_started) in (0u64..40, 0u32..2),
    ) {
        let done = Response::Done {
            id,
            result: JobResult {
                backend: text(&backend),
                converged: converged == 1,
                final_residual: res_mant as f64 / f64::from(2u32.pow(res_exp)),
                samples,
                cache_hit: cache_hit == 1,
                queued: Duration::from_micros(queued_us),
                solved: Duration::from_micros(solved_us),
                replayed: replayed == 1,
                // 0 doubles as "standalone" so the roundtrip covers both
                // shapes of the additive v3 fields.
                session_solve: (session_solve > 0).then_some(session_solve),
                warm_started: session_solve > 0 && warm_started == 1,
                initial_residual: if session_solve > 0 { 0.125 } else { 0.0 },
            },
        };
        let shed = Response::Shed {
            id,
            reason: [
                ShedReason::QueueFull,
                ShedReason::DeadlineExpired,
                ShedReason::Cancelled,
                ShedReason::ShuttingDown,
            ][reason_idx],
        };
        let failed = Response::Failed { id, error: text(&error) };
        for resp in [done, shed, failed] {
            let line = proto::render_response(&resp);
            let parsed = proto::parse_response(&line)
                .unwrap_or_else(|e| panic!("{e}\n{line}"));
            prop_assert_eq!(parsed, resp);
        }
    }
}

/// Pinned v1 wire lines (captured before the `"v"` field existed): a v2
/// server must keep accepting them, defaulting the version to 1, and a v1
/// `done` line (no `replayed` field) must parse with `replayed == false`.
#[test]
fn pinned_v1_lines_still_parse() {
    let solve = r#"{"op":"solve","id":7,"matrix":"fd68","backend":"sync","tol":1e-5}"#;
    match proto::parse_request(solve).expect("v1 solve") {
        Request::Solve { id, spec } => {
            assert_eq!(id, 7);
            assert_eq!(spec.matrix, "fd68");
            assert_eq!(spec.idempotency_key, None);
        }
        other => panic!("v1 solve parsed as {other:?}"),
    }
    assert_eq!(
        proto::parse_request(r#"{"op":"cancel","id":3}"#).expect("v1 cancel"),
        Request::Cancel { id: 3 }
    );
    assert_eq!(
        proto::parse_request(r#"{"op":"shutdown","drain":false}"#).expect("v1 shutdown"),
        Request::Shutdown { drain: false }
    );
    let done = r#"{"status":"done","id":7,"backend":"Jacobi","converged":true,"final_residual":1e-7,"samples":3,"cache_hit":false,"queued_us":10,"solved_us":250}"#;
    match proto::parse_response(done).expect("v1 done") {
        Response::Done { result, .. } => assert!(!result.replayed, "v1 done implied a replay"),
        other => panic!("v1 done parsed as {other:?}"),
    }
}

/// Versions newer than ours are rejected with the request id recovered
/// (so the error response still correlates), and equal/older versions are
/// accepted.
#[test]
fn future_versions_are_rejected_with_correlated_id() {
    let future = format!(
        r#"{{"op":"solve","v":{},"id":41,"matrix":"fd40","backend":"sync"}}"#,
        PROTO_VERSION + 1
    );
    let (id, error) = proto::parse_request(&future).expect_err("future version accepted");
    assert_eq!(id, Some(41));
    assert!(error.contains("newer"), "unhelpful version error: {error}");
    for v in 1..=PROTO_VERSION {
        let line = format!(r#"{{"op":"solve","v":{v},"id":1,"matrix":"fd40","backend":"sync"}}"#);
        proto::parse_request(&line).unwrap_or_else(|(_, e)| panic!("v{v} rejected: {e}"));
    }
}

/// Fields that would panic the connection thread or be misread are
/// rejected with a typed error that keeps the request id: a deadline too
/// large for a `Duration`, and a non-boolean `detect` or `drain`.
#[test]
fn out_of_range_and_mistyped_fields_are_rejected() {
    for (line, want) in [
        (
            r#"{"op":"solve","id":1,"matrix":"fd68","backend":"sync","deadline_ms":1e308}"#,
            "deadline_ms",
        ),
        (
            r#"{"op":"solve","id":1,"matrix":"fd68","backend":"sync","detect":"yes"}"#,
            "detect",
        ),
        (r#"{"op":"shutdown","drain":0}"#, "drain"),
    ] {
        let (id, error) = proto::parse_request(line).expect_err(line);
        assert_eq!(id, line.contains("\"id\"").then_some(1), "{line}");
        assert!(error.contains(want), "error '{error}' must name {want}");
    }
}
