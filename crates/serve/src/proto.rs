//! Newline-delimited JSON wire protocol for the TCP front end.
//!
//! One JSON object per line in each direction, parsed and rendered with
//! `aj_obs::json` (the workspace's `serde` is an inert stub, so there is no
//! derive machinery to lean on — and the protocol is small enough not to
//! want it). Responses are correlated to requests by a client-chosen `id`;
//! the server answers out of order as jobs finish, which is the whole point
//! of serving an *asynchronous* solver family.
//!
//! Requests (`"op"` discriminates):
//!
//! ```text
//! {"op":"solve","id":1,"matrix":"fd68","backend":"sync","seed":7,...}
//! {"op":"cancel","id":1}
//! {"op":"stats"}
//! {"op":"shutdown","drain":true}
//! ```
//!
//! Responses (`"status"` discriminates): `done`, `shed` (with `reason`),
//! `failed` (with `error`), `stats` (snapshot under `"snapshot"`),
//! `shutting_down`, and protocol-level `error`.
//!
//! ## Versioning
//!
//! Requests carry `"v"` (see [`PROTO_VERSION`]); a missing `"v"` means
//! version 1 (the PR 4 wire format), which remains fully accepted — the
//! version-2 additions (`idempotency_key` on solve requests, `replayed` on
//! done responses) and the version-3 streaming additions (`session`,
//! `perturb_seed`, `perturb_scale` on solve requests; `session_solve`,
//! `warm_started`, `initial_residual` on done responses) are additive
//! fields that older parsers simply never emit and older readers ignore.
//! Versions *newer* than the server are rejected with a correlated error
//! rather than half-parsed.

use crate::job::{JobResult, JobSpec, ShedReason};
use aj_obs::json::{self, Value};
use aj_obs::Snapshot;
use std::time::Duration;

/// Highest protocol version this build speaks (and the one it emits).
pub const PROTO_VERSION: u64 = 3;

/// A parsed client request.
// Solve dwarfs the control variants, but requests live one-at-a-time per
// connection line, never in bulk — boxing the spec would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a solve; `id` correlates the eventual response.
    Solve {
        /// Client-chosen correlation id (unique per connection).
        id: u64,
        /// What to solve.
        spec: JobSpec,
    },
    /// Cancel a previously submitted job (best-effort: only queued jobs
    /// can still be shed).
    Cancel {
        /// The id the job was submitted under.
        id: u64,
    },
    /// Ask for the service metrics snapshot.
    Stats,
    /// Stop the service; `drain` finishes queued jobs first.
    Shutdown {
        /// Work off the queue (`true`) or shed it (`false`).
        drain: bool,
    },
}

/// A server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Solve finished (converged or not — inspect the result).
    Done {
        /// Correlation id from the request.
        id: u64,
        /// What the solver produced.
        result: JobResult,
    },
    /// Solve was shed without running.
    Shed {
        /// Correlation id from the request.
        id: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// The solver errored or panicked.
    Failed {
        /// Correlation id from the request.
        id: u64,
        /// Failure message.
        error: String,
    },
    /// Metrics snapshot (in reply to `stats`).
    Stats {
        /// The service snapshot.
        snapshot: Snapshot,
    },
    /// Acknowledges a `shutdown` request.
    ShuttingDown,
    /// The request line itself was malformed; `id` echoes the request's id
    /// when one could be parsed.
    Error {
        /// Correlation id, if recoverable from the bad request.
        id: Option<u64>,
        /// What was wrong.
        error: String,
    },
}

/// Parses one request line.
///
/// # Errors
/// Returns `(recovered id, message)` so the server can still correlate the
/// error response when the line had a parseable `id`.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, String)> {
    let v = json::parse(line).map_err(|e| (None, format!("bad JSON: {e}")))?;
    let id = v.get("id").and_then(Value::as_u64);
    // Absent "v" is version 1; anything ≤ our version is additive-compatible.
    let version = match v.get("v") {
        None => 1,
        Some(x) => x
            .as_u64()
            .ok_or((id, "\"v\" must be a non-negative integer".to_string()))?,
    };
    if version > PROTO_VERSION {
        return Err((
            id,
            format!("protocol version {version} is newer than this server's {PROTO_VERSION}"),
        ));
    }
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or((id, "missing \"op\"".to_string()))?;
    match op {
        "solve" => {
            let id = id.ok_or((None, "solve needs a numeric \"id\"".to_string()))?;
            let spec = spec_from(&v).map_err(|e| (Some(id), e))?;
            Ok(Request::Solve { id, spec })
        }
        "cancel" => {
            let id = id.ok_or((None, "cancel needs a numeric \"id\"".to_string()))?;
            Ok(Request::Cancel { id })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown {
            drain: match v.get("drain") {
                None => true,
                Some(x) => x
                    .as_bool()
                    .ok_or((id, "\"drain\" must be a boolean".to_string()))?,
            },
        }),
        other => Err((id, format!("unknown op {other:?}"))),
    }
}

/// Fills a [`JobSpec`] from a solve request object: `matrix` and `backend`
/// are required, everything else defaults as in [`JobSpec::default`].
/// Also reads the nested `"spec"` objects in WAL `submitted` events, which
/// use the same field vocabulary (see `crate::store`).
pub(crate) fn spec_from(v: &Value) -> Result<JobSpec, String> {
    let mut spec = JobSpec {
        matrix: v
            .get("matrix")
            .and_then(Value::as_str)
            .ok_or("solve needs a \"matrix\" selector")?
            .to_string(),
        backend: v
            .get("backend")
            .and_then(Value::as_str)
            .ok_or("solve needs a \"backend\" name")?
            .to_string(),
        ..Default::default()
    };
    if let Some(x) = v.get("seed") {
        spec.seed = x
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?;
    }
    if let Some(x) = v.get("threads") {
        spec.threads = x
            .as_u64()
            .ok_or("\"threads\" must be a non-negative integer")? as usize;
    }
    if let Some(x) = v.get("ranks") {
        spec.ranks = x
            .as_u64()
            .ok_or("\"ranks\" must be a non-negative integer")? as usize;
    }
    if let Some(x) = v.get("detect") {
        spec.detect = x.as_bool().ok_or("\"detect\" must be a boolean")?;
    }
    if let Some(x) = v.get("tol") {
        spec.tol = x.as_f64().ok_or("\"tol\" must be a number")?;
    }
    if let Some(x) = v.get("max_iterations") {
        spec.max_iterations = x.as_u64().ok_or("\"max_iterations\" must be an integer")?;
    }
    if let Some(x) = v.get("omega") {
        spec.omega = x.as_f64().ok_or("\"omega\" must be a number")?;
    }
    if let Some(x) = v.get("method") {
        spec.method = x
            .as_str()
            .ok_or("\"method\" must be a selector string")?
            .to_string();
    }
    if let Some(x) = v.get("format") {
        spec.format = x
            .as_str()
            .ok_or("\"format\" must be a selector string")?
            .to_string();
    }
    if let Some(x) = v.get("outer") {
        spec.outer = x
            .as_str()
            .ok_or("\"outer\" must be a selector string")?
            .to_string();
    }
    if let Some(x) = v.get("deadline_ms") {
        let ms = x.as_f64().ok_or("\"deadline_ms\" must be a number")?;
        if ms < 0.0 {
            return Err("\"deadline_ms\" must be non-negative".into());
        }
        let deadline = Duration::try_from_secs_f64(ms / 1000.0)
            .map_err(|_| format!("\"deadline_ms\" {ms} is too large"))?;
        spec.deadline = Some(deadline);
    }
    if let Some(x) = v.get("idempotency_key") {
        spec.idempotency_key = Some(
            x.as_str()
                .ok_or("\"idempotency_key\" must be a string")?
                .to_string(),
        );
    }
    if let Some(x) = v.get("session") {
        let name = x.as_str().ok_or("\"session\" must be a string")?;
        if name.is_empty() {
            return Err("\"session\" must be non-empty".into());
        }
        spec.session = Some(name.to_string());
    }
    if let Some(x) = v.get("perturb_seed") {
        spec.perturb_seed = x
            .as_u64()
            .ok_or("\"perturb_seed\" must be a non-negative integer")?;
    }
    if let Some(x) = v.get("perturb_scale") {
        let scale = x.as_f64().ok_or("\"perturb_scale\" must be a number")?;
        if !(scale.is_finite() && scale.abs() < 1.0) {
            return Err("\"perturb_scale\" must be in (-1, 1)".into());
        }
        spec.perturb_scale = scale;
    }
    Ok(spec)
}

/// Writes a [`JobSpec`]'s fields into an already-open JSON object. Shared
/// between solve-request rendering and the WAL's `submitted` events so the
/// two never drift.
pub(crate) fn push_spec_fields(s: &mut String, spec: &JobSpec) {
    push_kv(s, "matrix", |o| json::write_escaped(o, &spec.matrix));
    push_kv(s, "backend", |o| json::write_escaped(o, &spec.backend));
    push_kv(s, "seed", |o| push_u64(o, spec.seed));
    push_kv(s, "threads", |o| push_u64(o, spec.threads as u64));
    push_kv(s, "ranks", |o| push_u64(o, spec.ranks as u64));
    push_kv(s, "detect", |o| {
        o.push_str(if spec.detect { "true" } else { "false" })
    });
    push_kv(s, "tol", |o| json::write_f64(o, spec.tol));
    push_kv(s, "max_iterations", |o| push_u64(o, spec.max_iterations));
    push_kv(s, "omega", |o| json::write_f64(o, spec.omega));
    push_kv(s, "method", |o| json::write_escaped(o, &spec.method));
    push_kv(s, "format", |o| json::write_escaped(o, &spec.format));
    // Additive v2 field: only written when set, so v1 golden lines (and
    // v1 servers fed standalone jobs) never see it.
    if !spec.outer.is_empty() {
        push_kv(s, "outer", |o| json::write_escaped(o, &spec.outer));
    }
    if let Some(d) = spec.deadline {
        push_kv(s, "deadline_ms", |o| {
            json::write_f64(o, d.as_secs_f64() * 1000.0)
        });
    }
    if let Some(key) = &spec.idempotency_key {
        push_kv(s, "idempotency_key", |o| json::write_escaped(o, key));
    }
    // Additive v3 fields: only written when set, for the same reason.
    if let Some(session) = &spec.session {
        push_kv(s, "session", |o| json::write_escaped(o, session));
    }
    if spec.perturb_scale != 0.0 {
        push_kv(s, "perturb_seed", |o| push_u64(o, spec.perturb_seed));
        push_kv(s, "perturb_scale", |o| {
            json::write_f64(o, spec.perturb_scale)
        });
    }
}

/// Renders a solve request line (used by the load generator and tests).
pub fn render_request(req: &Request) -> String {
    let mut s = String::from("{");
    match req {
        Request::Solve { id, spec } => {
            push_kv(&mut s, "op", |o| json::write_escaped(o, "solve"));
            push_kv(&mut s, "v", |o| push_u64(o, PROTO_VERSION));
            push_kv(&mut s, "id", |o| push_u64(o, *id));
            push_spec_fields(&mut s, spec);
        }
        Request::Cancel { id } => {
            push_kv(&mut s, "op", |o| json::write_escaped(o, "cancel"));
            push_kv(&mut s, "v", |o| push_u64(o, PROTO_VERSION));
            push_kv(&mut s, "id", |o| push_u64(o, *id));
        }
        Request::Stats => {
            push_kv(&mut s, "op", |o| json::write_escaped(o, "stats"));
            push_kv(&mut s, "v", |o| push_u64(o, PROTO_VERSION));
        }
        Request::Shutdown { drain } => {
            push_kv(&mut s, "op", |o| json::write_escaped(o, "shutdown"));
            push_kv(&mut s, "v", |o| push_u64(o, PROTO_VERSION));
            push_kv(&mut s, "drain", |o| {
                o.push_str(if *drain { "true" } else { "false" })
            });
        }
    }
    s.push('}');
    s
}

/// Renders a response line.
pub fn render_response(resp: &Response) -> String {
    let mut s = String::from("{");
    match resp {
        Response::Done { id, result } => {
            push_kv(&mut s, "status", |o| json::write_escaped(o, "done"));
            push_kv(&mut s, "id", |o| push_u64(o, *id));
            push_result_fields(&mut s, result);
            // Additive v2 field: only emitted when set, so v1 readers (and
            // the pinned v1 compat lines) never see it.
            if result.replayed {
                push_kv(&mut s, "replayed", |o| o.push_str("true"));
            }
            // Additive v3 fields: emitted only for session solves.
            if let Some(k) = result.session_solve {
                push_kv(&mut s, "session_solve", |o| push_u64(o, k));
                push_kv(&mut s, "warm_started", |o| {
                    o.push_str(if result.warm_started { "true" } else { "false" })
                });
                push_kv(&mut s, "initial_residual", |o| {
                    json::write_f64(o, result.initial_residual)
                });
            }
        }
        Response::Shed { id, reason } => {
            push_kv(&mut s, "status", |o| json::write_escaped(o, "shed"));
            push_kv(&mut s, "id", |o| push_u64(o, *id));
            push_kv(&mut s, "reason", |o| {
                json::write_escaped(o, reason.as_str())
            });
        }
        Response::Failed { id, error } => {
            push_kv(&mut s, "status", |o| json::write_escaped(o, "failed"));
            push_kv(&mut s, "id", |o| push_u64(o, *id));
            push_kv(&mut s, "error", |o| json::write_escaped(o, error));
        }
        Response::Stats { snapshot } => {
            push_kv(&mut s, "status", |o| json::write_escaped(o, "stats"));
            // The snapshot is embedded as an escaped JSON *string*: the
            // response stays one flat line to assemble, and readers recover
            // the full document with `Snapshot::from_json` on the field.
            push_kv(&mut s, "snapshot", |o| {
                json::write_escaped(o, &snapshot.to_json())
            });
        }
        Response::ShuttingDown => {
            push_kv(&mut s, "status", |o| {
                json::write_escaped(o, "shutting_down")
            });
        }
        Response::Error { id, error } => {
            push_kv(&mut s, "status", |o| json::write_escaped(o, "error"));
            if let Some(id) = id {
                push_kv(&mut s, "id", |o| push_u64(o, *id));
            }
            push_kv(&mut s, "error", |o| json::write_escaped(o, error));
        }
    }
    s.push('}');
    s
}

/// Writes a [`JobResult`]'s base fields, `backend` through `solved_us`,
/// into an already-open JSON object. Shared between `done` responses and
/// the WAL's `done` events, like [`push_spec_fields`].
pub(crate) fn push_result_fields(s: &mut String, result: &JobResult) {
    push_kv(s, "backend", |o| json::write_escaped(o, &result.backend));
    push_kv(s, "converged", |o| {
        o.push_str(if result.converged { "true" } else { "false" })
    });
    push_kv(s, "final_residual", |o| {
        json::write_f64(o, result.final_residual)
    });
    push_kv(s, "samples", |o| push_u64(o, result.samples as u64));
    push_kv(s, "cache_hit", |o| {
        o.push_str(if result.cache_hit { "true" } else { "false" })
    });
    push_kv(s, "queued_us", |o| {
        push_u64(o, result.queued.as_micros() as u64)
    });
    push_kv(s, "solved_us", |o| {
        push_u64(o, result.solved.as_micros() as u64)
    });
}

/// Reads the base fields [`push_result_fields`] writes; the rest of the
/// result (replay flag, session context) is left unset.
pub(crate) fn result_from(v: &Value) -> JobResult {
    let micros = |key| Duration::from_micros(v.get(key).and_then(Value::as_u64).unwrap_or(0));
    JobResult {
        backend: v
            .get("backend")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        converged: matches!(v.get("converged"), Some(Value::Bool(true))),
        final_residual: v
            .get("final_residual")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        samples: v.get("samples").and_then(Value::as_u64).unwrap_or(0) as usize,
        cache_hit: matches!(v.get("cache_hit"), Some(Value::Bool(true))),
        queued: micros("queued_us"),
        solved: micros("solved_us"),
        replayed: false,
        session_solve: None,
        warm_started: false,
        initial_residual: 0.0,
    }
}

/// Parses one response line (client side: load generator, example, tests).
///
/// # Errors
/// Returns a message for malformed lines.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line)?;
    let status = v
        .get("status")
        .and_then(Value::as_str)
        .ok_or("missing \"status\"")?;
    let id = || {
        v.get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| "missing \"id\"".to_string())
    };
    match status {
        "done" => Ok(Response::Done {
            id: id()?,
            result: JobResult {
                replayed: matches!(v.get("replayed"), Some(Value::Bool(true))),
                session_solve: v.get("session_solve").and_then(Value::as_u64),
                warm_started: matches!(v.get("warm_started"), Some(Value::Bool(true))),
                initial_residual: v
                    .get("initial_residual")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
                ..result_from(&v)
            },
        }),
        "shed" => {
            let reason = v
                .get("reason")
                .and_then(Value::as_str)
                .and_then(ShedReason::from_wire)
                .ok_or("shed response without a known \"reason\"")?;
            Ok(Response::Shed { id: id()?, reason })
        }
        "failed" => Ok(Response::Failed {
            id: id()?,
            error: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        "stats" => {
            let doc = v
                .get("snapshot")
                .and_then(Value::as_str)
                .ok_or("stats response without a \"snapshot\" string")?;
            Ok(Response::Stats {
                snapshot: Snapshot::from_json(doc)?,
            })
        }
        "shutting_down" => Ok(Response::ShuttingDown),
        "error" => Ok(Response::Error {
            id: v.get("id").and_then(Value::as_u64),
            error: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        other => Err(format!("unknown status {other:?}")),
    }
}

pub(crate) fn push_kv(out: &mut String, key: &str, write: impl FnOnce(&mut String)) {
    if !out.ends_with('{') {
        out.push(',');
    }
    json::write_escaped(out, key);
    out.push(':');
    write(out);
}

pub(crate) fn push_u64(out: &mut String, v: u64) {
    out.push_str(&v.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_roundtrips_through_render_and_parse() {
        let spec = JobSpec {
            matrix: "grid:8x8".into(),
            backend: "dist-async".into(),
            ranks: 4,
            method: "richardson2:omega=auto:beta=0.25".into(),
            format: "sellc:c=8".into(),
            deadline: Some(Duration::from_millis(250)),
            idempotency_key: Some("client-7/req-42".into()),
            session: Some("stream-a".into()),
            perturb_seed: 9,
            perturb_scale: 0.05,
            ..Default::default()
        };
        let req = Request::Solve { id: 42, spec };
        let line = render_request(&req);
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn minimal_solve_request_uses_defaults() {
        let req =
            parse_request(r#"{"op":"solve","id":1,"matrix":"fd68","backend":"sync"}"#).unwrap();
        let Request::Solve { id, spec } = req else {
            panic!("wrong variant");
        };
        assert_eq!(id, 1);
        assert_eq!(spec.tol, JobSpec::default().tol);
        assert_eq!(spec.method, "jacobi");
        assert_eq!(spec.format, "csr");
        assert_eq!(spec.deadline, None);
    }

    #[test]
    fn malformed_requests_recover_the_id_when_possible() {
        assert_eq!(
            parse_request(r#"{"op":"warp","id":9}"#).unwrap_err().0,
            Some(9)
        );
        assert!(parse_request("not json").unwrap_err().0.is_none());
        assert!(parse_request(r#"{"op":"solve","id":3}"#).unwrap_err().0 == Some(3));
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Done {
                id: 7,
                result: JobResult {
                    backend: "Jacobi".into(),
                    converged: true,
                    final_residual: 4.2e-7,
                    samples: 120,
                    cache_hit: true,
                    queued: Duration::from_micros(35),
                    solved: Duration::from_micros(990),
                    replayed: false,
                    session_solve: None,
                    warm_started: false,
                    initial_residual: 0.0,
                },
            },
            Response::Done {
                id: 11,
                result: JobResult {
                    backend: "Jacobi".into(),
                    converged: true,
                    final_residual: 4.2e-7,
                    samples: 120,
                    cache_hit: true,
                    queued: Duration::from_micros(35),
                    solved: Duration::from_micros(990),
                    replayed: true,
                    session_solve: None,
                    warm_started: false,
                    initial_residual: 0.0,
                },
            },
            Response::Done {
                id: 12,
                result: JobResult {
                    backend: "Jacobi".into(),
                    converged: true,
                    final_residual: 4.2e-7,
                    samples: 120,
                    cache_hit: true,
                    queued: Duration::from_micros(35),
                    solved: Duration::from_micros(990),
                    replayed: false,
                    session_solve: Some(17),
                    warm_started: true,
                    initial_residual: 2.5e-4,
                },
            },
            Response::Shed {
                id: 8,
                reason: ShedReason::QueueFull,
            },
            Response::Failed {
                id: 9,
                error: "solver \"broke\"\nbadly".into(),
            },
            Response::ShuttingDown,
            Response::Error {
                id: None,
                error: "bad JSON".into(),
            },
        ];
        for c in &cases {
            assert_eq!(&parse_response(&render_response(c)).unwrap(), c);
        }
    }

    #[test]
    fn stats_response_carries_a_full_snapshot() {
        let mut snap = Snapshot::new();
        snap.set_counter("jobs_completed", 3);
        snap.set_gauge("queue_depth", 1.0);
        let line = render_response(&Response::Stats {
            snapshot: snap.clone(),
        });
        let Response::Stats { snapshot } = parse_response(&line).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(snapshot, snap);
    }

    #[test]
    fn version_negotiation_accepts_old_and_rejects_future() {
        // v1 line (no "v", no idempotency_key) — the PR 4 wire format.
        let req =
            parse_request(r#"{"op":"solve","id":1,"matrix":"fd68","backend":"sync"}"#).unwrap();
        let Request::Solve { spec, .. } = req else {
            panic!("wrong variant");
        };
        assert_eq!(spec.idempotency_key, None);
        // Explicit older and current versions.
        assert!(parse_request(
            r#"{"op":"solve","v":2,"id":1,"matrix":"fd68","backend":"sync","idempotency_key":"k"}"#
        )
        .is_ok());
        assert!(parse_request(
            r#"{"op":"solve","v":3,"id":1,"matrix":"fd68","backend":"sync","session":"s1","perturb_seed":7,"perturb_scale":0.01}"#
        )
        .is_ok());
        // A future version is refused, with the id recovered.
        let (id, err) =
            parse_request(r#"{"op":"solve","v":4,"id":5,"matrix":"fd68","backend":"sync"}"#)
                .unwrap_err();
        assert_eq!(id, Some(5));
        assert!(err.contains("newer"), "{err}");
        assert!(parse_request(r#"{"op":"stats","v":"two"}"#).is_err());
    }

    #[test]
    fn rendered_requests_carry_the_current_version() {
        for req in [
            Request::Solve {
                id: 1,
                spec: JobSpec::default(),
            },
            Request::Cancel { id: 1 },
            Request::Stats,
            Request::Shutdown { drain: true },
        ] {
            assert!(
                render_request(&req).contains(&format!("\"v\":{PROTO_VERSION}")),
                "{req:?}"
            );
        }
    }

    #[test]
    fn request_lines_are_single_line() {
        let req = Request::Solve {
            id: 1,
            spec: JobSpec::default(),
        };
        assert!(!render_request(&req).contains('\n'));
    }
}
