//! Event-sourced durable job log: every lifecycle transition is appended
//! to the [`crate::wal`] before it becomes externally visible, and on
//! startup the aggregate is rebuilt by replaying the log.
//!
//! ## Events
//!
//! One JSON payload per transition, in the job-lifecycle vocabulary:
//!
//! ```text
//! {"ev":"submitted","id":5,"key":"req-17","spec":{...}}   // + fsync
//! {"ev":"picked","id":5}                                  // no fsync
//! {"ev":"done","id":5,"backend":"…","converged":true,...} // + fsync
//! {"ev":"shed","id":5,"reason":"queue_full"}              // + fsync
//! {"ev":"cancelled","id":5}                               // + fsync
//! {"ev":"failed","id":5,"error":"…"}                      // + fsync
//! ```
//!
//! `submitted` and the four terminal events are fsynced before the caller
//! proceeds — they are the records whose loss would break the
//! no-lost-jobs identity. `picked` is append-only without a barrier:
//! losing it merely makes replay re-enqueue a job that was already
//! running, which idempotent re-execution absorbs.
//!
//! ## Replay semantics
//!
//! [`JobStore::open`] replays every segment and classifies each job:
//! terminal jobs land in [`Recovery::outcomes`] (so an idempotent
//! resubmission can be answered without re-solving), jobs that were
//! `submitted` but never reached a terminal event land in
//! [`Recovery::inflight`] (the service re-enqueues them), and
//! [`Recovery::by_key`] rebuilds the idempotency index. Replay enforces
//! the aggregate's invariants — unique job ids, unique idempotency keys,
//! at most one terminal event per job — and refuses to open a log that
//! violates them, because a log that lies about acknowledged outcomes is
//! worse than no log at all.

use crate::job::{JobOutcome, JobSpec, ShedReason};
use crate::proto;
use crate::wal::{CrashPlan, Wal, WalConfig, WalError, WalStats};
use aj_obs::json::{self, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Knobs for [`JobStore::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the WAL segments (created if missing).
    pub dir: PathBuf,
    /// Segment roll threshold in bytes.
    pub segment_bytes: u64,
    /// Deterministic crash injection (tests only).
    pub crash: Option<CrashPlan>,
}

impl StoreConfig {
    /// Defaults (1 MiB segments, no crash injection) for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            crash: None,
        }
    }
}

/// A job the log says was accepted but never finished: the service
/// re-enqueues these on startup.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The job's durable id (kept across the restart).
    pub id: u64,
    /// Its idempotency key, if the client supplied one.
    pub key: Option<String>,
    /// The full spec, replayed from the `submitted` event.
    pub spec: JobSpec,
}

/// What replaying the log produced.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Valid event records applied.
    pub events: u64,
    /// Distinct jobs seen (`submitted` events).
    pub jobs: u64,
    /// Submitted-but-not-terminal jobs, in id order.
    pub inflight: Vec<RecoveredJob>,
    /// Terminal outcome per finished job id.
    pub outcomes: HashMap<u64, JobOutcome>,
    /// Idempotency key → job id.
    pub by_key: HashMap<String, u64>,
    /// First id not yet used (new jobs start here).
    pub next_id: u64,
    /// Whether a torn/corrupt tail line was dropped during replay.
    pub torn_tail_dropped: bool,
    /// Wall-clock replay time (recorded into `serve/replay_us`).
    pub replay: Duration,
}

/// The durable job log: a [`Wal`] plus the event vocabulary above.
#[derive(Debug)]
pub struct JobStore {
    wal: Mutex<Wal>,
    stats: Arc<WalStats>,
    /// Replay summary frozen at open (for the metrics snapshot).
    replayed_events: u64,
    replayed_jobs: u64,
}

impl JobStore {
    /// Replays the log in `cfg.dir` (an empty/missing directory is an
    /// empty log) and opens it for appending.
    ///
    /// # Errors
    /// [`WalError::Corrupt`] for non-tail damage or aggregate-invariant
    /// violations, [`WalError::Io`] for filesystem failures.
    pub fn open(cfg: &StoreConfig) -> Result<(JobStore, Recovery), WalError> {
        let started = Instant::now();
        let mut state: HashMap<u64, ReplayJob> = HashMap::new();
        let mut by_key: HashMap<String, u64> = HashMap::new();
        let (events, torn) = Wal::replay(&cfg.dir, |payload| {
            apply_event(payload, &mut state, &mut by_key)
        })?;
        let wal = Wal::open(
            &cfg.dir,
            WalConfig {
                segment_bytes: cfg.segment_bytes.max(64),
                crash: cfg.crash,
            },
        )?;
        let stats = Arc::clone(wal.stats());
        if torn {
            stats.torn_tails_dropped.inc();
        }
        let mut recovery = Recovery {
            events,
            jobs: state.len() as u64,
            next_id: state.keys().max().map_or(0, |m| m + 1),
            torn_tail_dropped: torn,
            by_key,
            ..Default::default()
        };
        for (id, job) in state {
            match job.outcome {
                Some(outcome) => {
                    recovery.outcomes.insert(id, outcome);
                }
                None => recovery.inflight.push(RecoveredJob {
                    id,
                    key: job.key,
                    spec: job.spec,
                }),
            }
        }
        recovery.inflight.sort_by_key(|j| j.id);
        recovery.replay = started.elapsed();
        let store = JobStore {
            wal: Mutex::new(wal),
            stats,
            replayed_events: recovery.events,
            replayed_jobs: recovery.jobs,
        };
        Ok((store, recovery))
    }

    /// WAL counters (shared atomics; safe to read while appending).
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Events replayed at open.
    pub fn replayed_events(&self) -> u64 {
        self.replayed_events
    }

    /// Jobs replayed at open.
    pub fn replayed_jobs(&self) -> u64 {
        self.replayed_jobs
    }

    /// Logs a `submitted` event **with an fsync barrier**: when this
    /// returns, the job survives a crash.
    pub fn submitted(&self, id: u64, key: Option<&str>, spec: &JobSpec) -> Result<(), WalError> {
        let mut s = String::from("{");
        proto::push_kv(&mut s, "ev", |o| json::write_escaped(o, "submitted"));
        proto::push_kv(&mut s, "id", |o| o.push_str(&id.to_string()));
        if let Some(key) = key {
            proto::push_kv(&mut s, "key", |o| json::write_escaped(o, key));
        }
        proto::push_kv(&mut s, "spec", |o| {
            o.push('{');
            proto::push_spec_fields(o, spec);
            o.push('}');
        });
        s.push('}');
        self.wal.lock().unwrap().append(&s, true)
    }

    /// Logs a `picked` event (no fsync — see the module docs).
    pub fn picked(&self, id: u64) -> Result<(), WalError> {
        let mut s = String::from("{");
        proto::push_kv(&mut s, "ev", |o| json::write_escaped(o, "picked"));
        proto::push_kv(&mut s, "id", |o| o.push_str(&id.to_string()));
        s.push('}');
        self.wal.lock().unwrap().append(&s, false)
    }

    /// Logs the job's terminal event **with an fsync barrier**: when this
    /// returns, the outcome is durable and may be made externally visible.
    pub fn outcome(&self, id: u64, outcome: &JobOutcome) -> Result<(), WalError> {
        let mut s = String::from("{");
        match outcome {
            JobOutcome::Done(r) => {
                proto::push_kv(&mut s, "ev", |o| json::write_escaped(o, "done"));
                proto::push_kv(&mut s, "id", |o| o.push_str(&id.to_string()));
                proto::push_result_fields(&mut s, r);
            }
            JobOutcome::Shed(ShedReason::Cancelled) => {
                proto::push_kv(&mut s, "ev", |o| json::write_escaped(o, "cancelled"));
                proto::push_kv(&mut s, "id", |o| o.push_str(&id.to_string()));
            }
            JobOutcome::Shed(reason) => {
                proto::push_kv(&mut s, "ev", |o| json::write_escaped(o, "shed"));
                proto::push_kv(&mut s, "id", |o| o.push_str(&id.to_string()));
                proto::push_kv(&mut s, "reason", |o| {
                    json::write_escaped(o, reason.as_str())
                });
            }
            JobOutcome::Failed(error) => {
                proto::push_kv(&mut s, "ev", |o| json::write_escaped(o, "failed"));
                proto::push_kv(&mut s, "id", |o| o.push_str(&id.to_string()));
                proto::push_kv(&mut s, "error", |o| json::write_escaped(o, error));
            }
        }
        s.push('}');
        self.wal.lock().unwrap().append(&s, true)
    }

    /// The drain-shutdown durability barrier: fsyncs and closes the
    /// current segment. Appends after this fail loudly — a "clean"
    /// shutdown that kept writing would be a lie.
    pub fn close(&self) -> Result<(), WalError> {
        self.wal.lock().unwrap().sync(true)
    }
}

/// Replay-time per-job state.
struct ReplayJob {
    key: Option<String>,
    spec: JobSpec,
    outcome: Option<JobOutcome>,
}

/// Applies one event payload to the aggregate, enforcing its invariants.
fn apply_event(
    payload: &str,
    state: &mut HashMap<u64, ReplayJob>,
    by_key: &mut HashMap<String, u64>,
) -> Result<(), WalError> {
    let corrupt = |msg: String| WalError::Corrupt(msg);
    let v = json::parse(payload).map_err(|e| corrupt(format!("unparseable event: {e}")))?;
    let ev = v
        .get("ev")
        .and_then(Value::as_str)
        .ok_or_else(|| corrupt("event without \"ev\"".into()))?
        .to_string();
    let id = v
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| corrupt(format!("event '{ev}' without numeric \"id\"")))?;
    match ev.as_str() {
        "submitted" => {
            let spec = v
                .get("spec")
                .ok_or_else(|| corrupt(format!("submitted {id} without \"spec\"")))
                .and_then(|s| {
                    proto::spec_from(s).map_err(|e| corrupt(format!("submitted {id}: {e}")))
                })?;
            let key = v.get("key").and_then(Value::as_str).map(str::to_string);
            if let Some(key) = &key {
                if let Some(prev) = by_key.insert(key.clone(), id) {
                    return Err(corrupt(format!(
                        "idempotency key '{key}' claimed by jobs {prev} and {id}"
                    )));
                }
            }
            if state
                .insert(
                    id,
                    ReplayJob {
                        key,
                        spec,
                        outcome: None,
                    },
                )
                .is_some()
            {
                return Err(corrupt(format!("job {id} submitted twice")));
            }
        }
        "picked" => {
            // Re-picks are legal: a recovered job is picked again after a
            // restart. Only picking a job the log never admitted is
            // damage.
            if !state.contains_key(&id) {
                return Err(corrupt(format!("picked unknown job {id}")));
            }
        }
        "done" | "shed" | "cancelled" | "failed" => {
            let outcome = match ev.as_str() {
                // Session warm-start context dies with the process by
                // design; replayed outcomes report the solve's numbers
                // without it.
                "done" => JobOutcome::Done(proto::result_from(&v)),
                "cancelled" => JobOutcome::Shed(ShedReason::Cancelled),
                "shed" => {
                    let reason = v
                        .get("reason")
                        .and_then(Value::as_str)
                        .and_then(ShedReason::from_wire)
                        .ok_or_else(|| corrupt(format!("shed {id} without a known reason")))?;
                    JobOutcome::Shed(reason)
                }
                _ => JobOutcome::Failed(
                    v.get("error")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                ),
            };
            let job = state
                .get_mut(&id)
                .ok_or_else(|| corrupt(format!("terminal event for unknown job {id}")))?;
            if job.outcome.is_some() {
                return Err(corrupt(format!("job {id} finished twice")));
            }
            job.outcome = Some(outcome);
        }
        other => return Err(corrupt(format!("unknown event '{other}'"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobResult;
    use crate::proto::Response;

    fn tmp(name: &str) -> StoreConfig {
        let dir = std::env::temp_dir().join(format!("aj-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreConfig::new(dir)
    }

    fn spec(key: Option<&str>) -> JobSpec {
        JobSpec {
            matrix: "fd40".into(),
            idempotency_key: key.map(str::to_string),
            ..Default::default()
        }
    }

    #[test]
    fn a_result_decodes_alike_from_its_response_and_its_wal_event() {
        let result = JobResult {
            backend: "simulated async threads ×4 [sellc:c=8]".into(),
            converged: true,
            final_residual: 1.0 / 3.0 * 1e-7,
            samples: 17,
            cache_hit: true,
            queued: Duration::from_micros(1_234),
            solved: Duration::from_micros(98_765),
            replayed: true,
            session_solve: Some(3),
            warm_started: true,
            initial_residual: 0.5,
        };
        let base = |r: &JobResult| {
            let bits = r.final_residual.to_bits();
            let timing = (r.queued, r.solved);
            (
                r.backend.clone(),
                r.converged,
                bits,
                r.samples,
                r.cache_hit,
                timing,
            )
        };
        let line = proto::render_response(&Response::Done {
            id: 9,
            result: result.clone(),
        });
        let Ok(Response::Done {
            result: from_response,
            ..
        }) = proto::parse_response(&line)
        else {
            panic!("done response does not parse: {line}");
        };
        let cfg = tmp("result-fields");
        {
            let (store, _) = JobStore::open(&cfg).unwrap();
            store.submitted(9, None, &spec(None)).unwrap();
            store.outcome(9, &JobOutcome::Done(result.clone())).unwrap();
        }
        let (_store, rec) = JobStore::open(&cfg).unwrap();
        let JobOutcome::Done(from_wal) = &rec.outcomes[&9] else {
            panic!("replay lost the done event: {:?}", rec.outcomes[&9]);
        };
        assert_eq!(base(&from_response), base(&result));
        assert_eq!(base(from_wal), base(&result));
        // The response keeps the session context; the log drops it.
        assert_eq!(from_response, result);
        assert!(!from_wal.replayed && from_wal.session_solve.is_none());
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn lifecycle_roundtrips_through_replay() {
        let cfg = tmp("lifecycle");
        {
            let (store, rec) = JobStore::open(&cfg).unwrap();
            assert_eq!(rec.next_id, 0);
            store.submitted(0, Some("a"), &spec(Some("a"))).unwrap();
            store.picked(0).unwrap();
            store
                .outcome(
                    0,
                    &JobOutcome::Done(JobResult {
                        backend: "Jacobi".into(),
                        converged: true,
                        final_residual: 3.5e-7,
                        samples: 12,
                        cache_hit: true,
                        queued: Duration::from_micros(40),
                        solved: Duration::from_micros(900),
                        replayed: false,
                        session_solve: None,
                        warm_started: false,
                        initial_residual: 0.0,
                    }),
                )
                .unwrap();
            store.submitted(1, None, &spec(None)).unwrap();
            store.picked(1).unwrap();
            store
                .outcome(1, &JobOutcome::Shed(ShedReason::DeadlineExpired))
                .unwrap();
            store.submitted(2, Some("c"), &spec(Some("c"))).unwrap();
            store
                .outcome(2, &JobOutcome::Shed(ShedReason::Cancelled))
                .unwrap();
            store.submitted(3, None, &spec(None)).unwrap();
            store
                .outcome(3, &JobOutcome::Failed("boom".into()))
                .unwrap();
            store.submitted(4, Some("e"), &spec(Some("e"))).unwrap();
            store.picked(4).unwrap();
            // ... and job 4 never finishes: the process "dies" here.
        }
        let (_store, rec) = JobStore::open(&cfg).unwrap();
        assert_eq!(rec.jobs, 5);
        assert_eq!(rec.next_id, 5);
        assert_eq!(rec.inflight.len(), 1);
        assert_eq!(rec.inflight[0].id, 4);
        assert_eq!(rec.inflight[0].key.as_deref(), Some("e"));
        assert_eq!(rec.inflight[0].spec.matrix, "fd40");
        assert!(matches!(rec.outcomes[&0], JobOutcome::Done(ref r)
            if r.converged && r.samples == 12 && (r.final_residual - 3.5e-7).abs() < 1e-20));
        assert_eq!(
            rec.outcomes[&1],
            JobOutcome::Shed(ShedReason::DeadlineExpired)
        );
        assert_eq!(rec.outcomes[&2], JobOutcome::Shed(ShedReason::Cancelled));
        assert_eq!(rec.outcomes[&3], JobOutcome::Failed("boom".into()));
        assert_eq!(rec.by_key["a"], 0);
        assert_eq!(rec.by_key["e"], 4);
        // Accounting identity over the replayed aggregate.
        assert_eq!(
            rec.jobs,
            rec.outcomes.len() as u64 + rec.inflight.len() as u64
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn replay_rejects_aggregate_violations() {
        for (name, events) in [
            (
                "dup-id",
                vec![
                    r#"{"ev":"submitted","id":1,"spec":{"matrix":"fd40","backend":"sync"}}"#,
                    r#"{"ev":"submitted","id":1,"spec":{"matrix":"fd40","backend":"sync"}}"#,
                ],
            ),
            (
                "dup-key",
                vec![
                    r#"{"ev":"submitted","id":1,"key":"k","spec":{"matrix":"fd40","backend":"sync"}}"#,
                    r#"{"ev":"submitted","id":2,"key":"k","spec":{"matrix":"fd40","backend":"sync"}}"#,
                ],
            ),
            ("orphan-pick", vec![r#"{"ev":"picked","id":9}"#]),
            (
                "orphan-terminal",
                vec![r#"{"ev":"failed","id":9,"error":"x"}"#],
            ),
            (
                "double-finish",
                vec![
                    r#"{"ev":"submitted","id":1,"spec":{"matrix":"fd40","backend":"sync"}}"#,
                    r#"{"ev":"cancelled","id":1}"#,
                    r#"{"ev":"failed","id":1,"error":"x"}"#,
                ],
            ),
        ] {
            let cfg = tmp(&format!("invalid-{name}"));
            {
                let mut wal = Wal::open(&cfg.dir, WalConfig::default()).unwrap();
                for e in &events {
                    wal.append(e, false).unwrap();
                }
                // A valid record after the bad one keeps the damage off
                // the forgivable tail position.
                wal.append(
                    r#"{"ev":"submitted","id":7,"spec":{"matrix":"fd40","backend":"sync"}}"#,
                    true,
                )
                .unwrap();
            }
            let err = JobStore::open(&cfg).unwrap_err();
            assert!(matches!(err, WalError::Corrupt(_)), "{name}: {err:?}");
            let _ = std::fs::remove_dir_all(&cfg.dir);
        }
    }

    #[test]
    fn re_pick_after_recovery_is_legal() {
        let cfg = tmp("repick");
        {
            let (store, _) = JobStore::open(&cfg).unwrap();
            store.submitted(0, None, &spec(None)).unwrap();
            store.picked(0).unwrap();
        }
        {
            // Restart: the job is re-enqueued and picked again.
            let (store, rec) = JobStore::open(&cfg).unwrap();
            assert_eq!(rec.inflight.len(), 1);
            store.picked(0).unwrap();
            store
                .outcome(0, &JobOutcome::Failed("second life".into()))
                .unwrap();
        }
        let (_s, rec) = JobStore::open(&cfg).unwrap();
        assert!(rec.inflight.is_empty());
        assert_eq!(rec.outcomes[&0], JobOutcome::Failed("second life".into()));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
