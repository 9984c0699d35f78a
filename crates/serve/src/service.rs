//! The in-process solve service: bounded admission queue, worker pool,
//! plan cache, per-job isolation, graceful shutdown.
//!
//! ## Request lifecycle
//!
//! `submit` performs **admission control**: while the service is accepting
//! and the bounded queue has room, the job is enqueued and the caller gets
//! a handle; otherwise the job is shed *immediately* with a structured
//! reason ([`ShedReason::QueueFull`] / [`ShedReason::ShuttingDown`]) — the
//! asynchronous-relaxation workloads this serves degrade gracefully under
//! stale answers, so fast rejection beats unbounded queueing. Workers pull
//! jobs off a `crossbeam` channel; a job whose deadline passed while it
//! waited, or that was cancelled, is shed at pickup. Each solve runs under
//! `catch_unwind`, so a panicking backend fails one job and the pool keeps
//! serving.
//!
//! ## The one-outcome invariant
//!
//! Every accepted job's completion closure is called exactly once — by the
//! worker that picks it up, or by the drain loop on a non-draining
//! shutdown. Together with shed-at-the-door accounting this gives
//! `submitted = completed + failed + shed` once the service has shut down,
//! which the stress/proptest suites assert.

use crate::cache::PlanCache;
use crate::job::{JobOutcome, JobResult, JobSpec, ShedReason};
use crate::metrics::ServeMetrics;
use crate::store::{JobStore, StoreConfig};
use aj_core::spec;
use aj_obs::{ObsConfig, Snapshot};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Matrix selector that makes the worker panic inside the solve path —
/// the test hook behind the panic-isolation tests. Real selectors can
/// never collide with it (`test:` is not a recognized scheme).
pub const PANIC_SELECTOR: &str = "test:panic";

/// Knobs for [`SolveService::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing solves.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Plan-cache capacity in problems.
    pub cache_cap: usize,
    /// Engine-level observability for each solve (merged into the service
    /// snapshot). Off by default — request-level metrics are always on.
    pub solve_obs: ObsConfig,
    /// Durable job log (see `crate::store`). `None` keeps the PR 4
    /// behaviour: in-memory only, nothing survives a restart.
    pub store: Option<StoreConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(2),
            queue_cap: 64,
            cache_cap: 8,
            solve_obs: ObsConfig::off(),
            store: None,
        }
    }
}

/// What startup recovery found (surfaced by [`SolveService::recovery`] so
/// the CLI can report it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoverySummary {
    /// Valid log records replayed.
    pub events: u64,
    /// Distinct jobs replayed.
    pub jobs: u64,
    /// Submitted-but-not-terminal jobs re-enqueued.
    pub reenqueued: u64,
    /// Whether a torn tail line was dropped (crash evidence).
    pub torn_tail_dropped: bool,
    /// Wall-clock replay time.
    pub replay: Duration,
}

/// Cancels a queued job (no effect once a worker has started it).
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Requests cancellation; the job is shed when a worker picks it up.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Blocking handle to a submitted job's outcome.
#[derive(Debug)]
pub struct JobHandle {
    cell: Arc<OutcomeCell>,
    cancel: CancelToken,
}

#[derive(Debug, Default)]
struct OutcomeCell {
    slot: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl JobHandle {
    /// Waits for the job's outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut slot = self.cell.slot.lock().unwrap();
        loop {
            if let Some(out) = slot.as_ref() {
                return out.clone();
            }
            slot = self.cell.ready.wait(slot).unwrap();
        }
    }

    /// The outcome, if already delivered.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.cell.slot.lock().unwrap().clone()
    }

    /// Requests cancellation (effective only while the job is queued).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

type Completion = Box<dyn FnOnce(JobOutcome) + Send + 'static>;

struct Job {
    /// Durable id (preserved across restarts for recovered jobs).
    id: u64,
    /// Idempotency key, when the spec carried one.
    key: Option<String>,
    spec: JobSpec,
    submitted: Instant,
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
    complete: Completion,
}

/// Per-idempotency-key state. `InFlight` holds the original job's cancel
/// token (so an attached client's cancel reaches the real job) and the
/// completions of every later same-key submit, fired when the job
/// finishes; `Done` answers all future submits without solving.
enum IdemState {
    InFlight {
        token: CancelToken,
        waiters: Vec<Completion>,
    },
    Done(JobOutcome),
}

/// Fires a completion on a detached thread. The service promises callers
/// that completions never run on the submitting thread — the TCP front end
/// holds its per-connection token lock across `submit_with` and takes that
/// same lock inside the callback, so invoking it inline would self-deadlock.
/// Paths that resolve a job without a worker (idempotent replay of a
/// finished key, a failed durability append) must go through here.
fn complete_detached(complete: impl FnOnce(JobOutcome) + Send + 'static, outcome: JobOutcome) {
    std::thread::Builder::new()
        .name("aj-serve-complete".into())
        .spawn(move || complete(outcome))
        .expect("cannot spawn completion thread");
}

/// Marks a replayed outcome as such (only `Done` carries the flag).
fn replay_of(outcome: &JobOutcome) -> JobOutcome {
    match outcome {
        JobOutcome::Done(r) => JobOutcome::Done(JobResult {
            replayed: true,
            ..r.clone()
        }),
        other => other.clone(),
    }
}

struct ServiceInner {
    cfg: ServiceConfig,
    cache: PlanCache,
    metrics: ServeMetrics,
    /// New submissions allowed?
    accepting: AtomicBool,
    /// Non-draining shutdown: workers shed instead of solving.
    shedding: AtomicBool,
    /// Durable job log, when configured.
    store: Option<JobStore>,
    /// Idempotency index. In-memory always (same-process dedup); with a
    /// store it is rebuilt from the log on startup, so it also survives
    /// restarts. Lock order: `idempo` before the store's WAL lock — the
    /// worker path releases the WAL lock inside `JobStore` methods before
    /// touching `idempo`, so there is no inversion.
    idempo: Mutex<HashMap<String, IdemState>>,
    /// Streaming sessions: name → last fixed point. Deliberately in-memory
    /// only (never in the WAL): losing a session across a restart costs one
    /// cold start, never a wrong answer, so durability would buy risk (a
    /// stale `x` from a dead process) for no correctness. Held only at the
    /// edges of a solve — read the warm start, write the fixed point —
    /// so concurrent solves on one session serialize per access, not per
    /// solve (last writer wins, which streaming tolerates by construction).
    sessions: Mutex<HashMap<String, SessionState>>,
    /// Next job id (starts past everything in the log).
    next_id: AtomicU64,
}

/// Per-session warm-start state (see [`JobSpec::session`]).
struct SessionState {
    /// The `(matrix, seed)` identity the session is bound to.
    matrix: String,
    seed: u64,
    /// Fixed point of the session's latest solve.
    x: Vec<f64>,
    /// Solves completed in this session.
    solves: u64,
}

/// A running solve service. Dropping it performs a draining shutdown.
pub struct SolveService {
    inner: Arc<ServiceInner>,
    tx: Mutex<Option<Sender<Job>>>,
    rx: Receiver<Job>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    recovery: Option<RecoverySummary>,
}

impl SolveService {
    /// Starts the worker pool and returns the running service.
    ///
    /// # Panics
    /// When `cfg.store` is set and the log cannot be opened/replayed; use
    /// [`SolveService::try_start`] to handle that as an error (the CLI
    /// does).
    pub fn start(cfg: ServiceConfig) -> SolveService {
        match SolveService::try_start(cfg) {
            Ok(svc) => svc,
            Err(e) => panic!("{e}"),
        }
    }

    /// Starts the worker pool; with `cfg.store` set, first replays the job
    /// log, seeds the idempotency index from it, and re-enqueues every
    /// job that was submitted but never reached a terminal outcome.
    ///
    /// # Errors
    /// A message when the store cannot be opened (I/O failure or a log
    /// corrupted somewhere other than its tail).
    pub fn try_start(cfg: ServiceConfig) -> Result<SolveService, String> {
        let workers = cfg.workers.max(1);
        let (tx, rx) = channel::bounded::<Job>(cfg.queue_cap.max(1));
        let (store, recovered) = match &cfg.store {
            Some(sc) => {
                let (store, rec) = JobStore::open(sc)
                    .map_err(|e| format!("job store at {}: {e}", sc.dir.display()))?;
                (Some(store), Some(rec))
            }
            None => (None, None),
        };
        let metrics = ServeMetrics::new();
        let mut idempo = HashMap::new();
        let mut next_id = 0;
        if let Some(rec) = &recovered {
            metrics.replayed_events.add(rec.events);
            metrics.replayed_jobs.add(rec.jobs);
            metrics.record_replay(rec.replay);
            next_id = rec.next_id;
            // Finished keyed jobs answer future same-key submits directly.
            for (key, id) in &rec.by_key {
                if let Some(outcome) = rec.outcomes.get(id) {
                    idempo.insert(key.clone(), IdemState::Done(outcome.clone()));
                }
            }
        }
        let inner = Arc::new(ServiceInner {
            cache: PlanCache::new(cfg.cache_cap),
            metrics,
            accepting: AtomicBool::new(true),
            shedding: AtomicBool::new(false),
            store,
            idempo: Mutex::new(idempo),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(next_id),
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("aj-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn worker thread")
            })
            .collect();
        let recovery = recovered.map(|rec| {
            // Re-enqueue in-flight jobs now that workers are draining the
            // queue: a blocking send tolerates more recovered jobs than
            // the queue holds. Their `submitted` events are already in the
            // log (no re-append); their completions are no-ops until a
            // client resubmits the same key and attaches as a waiter.
            let m = &inner.metrics;
            let mut reenqueued = 0;
            for rj in &rec.inflight {
                let cancelled = Arc::new(AtomicBool::new(false));
                if let Some(key) = &rj.key {
                    inner.idempo.lock().unwrap().insert(
                        key.clone(),
                        IdemState::InFlight {
                            token: CancelToken(Arc::clone(&cancelled)),
                            waiters: Vec::new(),
                        },
                    );
                }
                let job = Job {
                    id: rj.id,
                    key: rj.key.clone(),
                    spec: rj.spec.clone(),
                    submitted: Instant::now(),
                    // The original deadline clock died with the previous
                    // process; recovered jobs run unconditionally.
                    deadline: None,
                    cancelled,
                    complete: Box::new(|_| {}),
                };
                m.submitted.inc();
                m.accepted.inc();
                m.recovered_inflight.inc();
                reenqueued += 1;
                if tx.send(job).is_err() {
                    unreachable!("workers alive during recovery");
                }
            }
            RecoverySummary {
                events: rec.events,
                jobs: rec.jobs,
                reenqueued,
                torn_tail_dropped: rec.torn_tail_dropped,
                replay: rec.replay,
            }
        });
        Ok(SolveService {
            inner,
            tx: Mutex::new(Some(tx)),
            rx,
            workers: Mutex::new(handles),
            recovery,
        })
    }

    /// The startup recovery summary (`Some` iff a store is configured).
    pub fn recovery(&self) -> Option<&RecoverySummary> {
        self.recovery.as_ref()
    }

    /// Submits a job, delivering its outcome through the returned handle.
    ///
    /// # Errors
    /// Returns the shed reason when admission control rejects the job
    /// (queue full or shutting down); the job never ran.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, ShedReason> {
        let cell = Arc::new(OutcomeCell::default());
        let done = Arc::clone(&cell);
        let token = self.submit_with(spec, move |outcome| {
            *done.slot.lock().unwrap() = Some(outcome);
            done.ready.notify_all();
        })?;
        Ok(JobHandle {
            cell,
            cancel: token,
        })
    }

    /// Submits a job with an explicit completion callback (the TCP front
    /// end writes the response from it, so out-of-order completions go out
    /// as they happen). The callback runs exactly once, on a worker thread
    /// — or, for outcomes resolved without a worker (idempotent replays,
    /// durability failures), on a short-lived detached thread. It never
    /// runs on the submitting thread, so callers may hold their own locks
    /// across this call.
    ///
    /// # Errors
    /// Returns the shed reason when admission control rejects the job.
    pub fn submit_with(
        &self,
        spec: JobSpec,
        complete: impl FnOnce(JobOutcome) + Send + 'static,
    ) -> Result<CancelToken, ShedReason> {
        if spec.idempotency_key.is_some() {
            // Hold the idempotency lock across the whole admission so two
            // concurrent same-key submits can never both become real jobs.
            let mut idempo = self.inner.idempo.lock().unwrap();
            let key = spec.idempotency_key.clone().unwrap();
            match idempo.get_mut(&key) {
                Some(IdemState::Done(outcome)) => {
                    let outcome = replay_of(outcome);
                    drop(idempo);
                    self.inner.metrics.idempotent_replays.inc();
                    complete_detached(complete, outcome);
                    // Nothing left to cancel; hand back an inert token.
                    Ok(CancelToken(Arc::new(AtomicBool::new(false))))
                }
                Some(IdemState::InFlight { token, waiters }) => {
                    waiters.push(Box::new(complete));
                    let token = token.clone();
                    drop(idempo);
                    self.inner.metrics.idempotent_replays.inc();
                    Ok(token)
                }
                None => self.admit(Some((key, idempo)), spec, Box::new(complete)),
            }
        } else {
            self.admit(None, spec, Box::new(complete))
        }
    }

    /// Admission control for a job that is not an idempotent replay: count
    /// it, make it durable, then enqueue it. `keyed` carries the held
    /// idempotency-lock guard so the `InFlight` placeholder appears
    /// atomically with a successful enqueue (and never for a shed one —
    /// a retried shed key must be allowed to try again).
    fn admit(
        &self,
        keyed: Option<(String, MutexGuard<'_, HashMap<String, IdemState>>)>,
        spec: JobSpec,
        complete: Completion,
    ) -> Result<CancelToken, ShedReason> {
        let m = &self.inner.metrics;
        m.submitted.inc();
        if !self.inner.accepting.load(Ordering::SeqCst) {
            m.record_shed(ShedReason::ShuttingDown);
            return Err(ShedReason::ShuttingDown);
        }
        let submitted = Instant::now();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            id,
            key: keyed.as_ref().map(|(k, _)| k.clone()),
            // A deadline past the end of the clock never expires.
            deadline: spec.deadline.and_then(|d| submitted.checked_add(d)),
            spec,
            submitted,
            cancelled: Arc::new(AtomicBool::new(false)),
            complete,
        };
        let token = CancelToken(Arc::clone(&job.cancelled));
        // Durability barrier: the job is in the log (fsynced) before any
        // worker, response, or handle can see it. A job we cannot make
        // durable is failed visibly rather than run as a ghost.
        if let Some(store) = &self.inner.store {
            if let Err(e) = store.submitted(id, job.key.as_deref(), &job.spec) {
                m.wal_errors.inc();
                m.failed.inc();
                drop(keyed); // no placeholder: a retry may try again
                complete_detached(
                    job.complete,
                    JobOutcome::Failed(format!("job log append failed: {e}")),
                );
                return Ok(token);
            }
        }
        let tx = self.tx.lock().unwrap();
        let enqueued = match tx.as_ref() {
            None => Err(ShedReason::ShuttingDown),
            Some(tx) => match tx.try_send(job) {
                Ok(()) => {
                    m.accepted.inc();
                    m.queue_depth.set(tx.len() as f64);
                    Ok(())
                }
                Err(TrySendError::Full(_)) => Err(ShedReason::QueueFull),
                Err(TrySendError::Disconnected(_)) => Err(ShedReason::ShuttingDown),
            },
        };
        match enqueued {
            Ok(()) => {
                if let Some((key, mut idempo)) = keyed {
                    idempo.insert(
                        key,
                        IdemState::InFlight {
                            token: token.clone(),
                            waiters: Vec::new(),
                        },
                    );
                }
                Ok(token)
            }
            Err(reason) => {
                // The `submitted` event is already logged; close the
                // job's story with a terminal shed so replay never
                // resurrects it.
                if let Some(store) = &self.inner.store {
                    if store.outcome(id, &JobOutcome::Shed(reason)).is_err() {
                        m.wal_errors.inc();
                    }
                }
                m.record_shed(reason);
                Err(reason)
            }
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.rx.len()
    }

    /// The merged service metrics snapshot (see [`ServeMetrics::snapshot`]).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.inner.metrics.queue_depth.set(self.rx.len() as f64);
        self.inner.metrics.snapshot(
            &self.inner.cache,
            self.inner.store.as_ref().map(|s| s.stats()),
        )
    }

    /// Raw metric counters (test/bench hook).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// The plan cache (test/bench hook).
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// Stops the service. New submissions are rejected immediately; with
    /// `drain` the queue is worked off, otherwise queued jobs are shed with
    /// [`ShedReason::ShuttingDown`] (their callbacks still fire). Blocks
    /// until every worker has exited; idempotent.
    pub fn shutdown(&self, drain: bool) {
        self.inner.accepting.store(false, Ordering::SeqCst);
        if !drain {
            self.inner.shedding.store(true, Ordering::SeqCst);
        }
        // Closing the channel (dropping the only Sender) lets workers
        // finish the buffered jobs and exit on Disconnected.
        drop(self.tx.lock().unwrap().take());
        let mut workers = self.workers.lock().unwrap();
        let first_shutdown = !workers.is_empty();
        for h in workers.drain(..) {
            let _ = h.join();
        }
        self.inner.metrics.queue_depth.set(0.0);
        // Durability barrier at exit: every outcome the workers just wrote
        // is fsynced and the segment closed before the process can claim a
        // clean shutdown. Only on the first shutdown — the log is poisoned
        // (by design) afterwards.
        if first_shutdown {
            if let Some(store) = &self.inner.store {
                if let Err(e) = store.close() {
                    eprintln!("aj-serve: closing job log: {e}");
                }
            }
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown(true);
    }
}

fn worker_loop(inner: &ServiceInner, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        inner.metrics.queue_depth.set(rx.len() as f64);
        if let Some(store) = &inner.store {
            // Unsynced by design; a lost `picked` only re-enqueues.
            if store.picked(job.id).is_err() {
                inner.metrics.wal_errors.inc();
            }
        }
        let outcome = run_job(inner, &job);
        // Log the terminal event (fsynced) before anything observable —
        // the completion callback, the idempotency index, the counters.
        if let Some(store) = &inner.store {
            if let Err(e) = store.outcome(job.id, &outcome) {
                inner.metrics.wal_errors.inc();
                eprintln!("aj-serve: job {} outcome not durable: {e}", job.id);
            }
        }
        match &outcome {
            JobOutcome::Done(r) => {
                inner.metrics.completed.inc();
                inner.metrics.record_latency(r.queued, r.solved);
            }
            JobOutcome::Shed(reason) => inner.metrics.record_shed(*reason),
            JobOutcome::Failed(_) => inner.metrics.failed.inc(),
        }
        // Settle the idempotency entry first so a submit racing the
        // completion either attaches as a waiter (drained right below) or
        // sees `Done` — never creates a second real job.
        let waiters = match &job.key {
            Some(key) => {
                let mut idempo = inner.idempo.lock().unwrap();
                match idempo.insert(key.clone(), IdemState::Done(outcome.clone())) {
                    Some(IdemState::InFlight { waiters, .. }) => waiters,
                    _ => Vec::new(),
                }
            }
            None => Vec::new(),
        };
        (job.complete)(outcome.clone());
        for waiter in waiters {
            waiter(replay_of(&outcome));
        }
    }
}

fn run_job(inner: &ServiceInner, job: &Job) -> JobOutcome {
    if inner.shedding.load(Ordering::SeqCst) {
        return JobOutcome::Shed(ShedReason::ShuttingDown);
    }
    if job.cancelled.load(Ordering::Relaxed) {
        return JobOutcome::Shed(ShedReason::Cancelled);
    }
    let started = Instant::now();
    if job.deadline.is_some_and(|d| started > d) {
        return JobOutcome::Shed(ShedReason::DeadlineExpired);
    }
    let queued = started - job.submitted;
    match catch_unwind(AssertUnwindSafe(|| execute(inner, &job.spec))) {
        Ok(Ok((mut result, metrics))) => {
            result.queued = queued;
            result.solved = started.elapsed();
            if let Some(snap) = metrics {
                inner.metrics.absorb_solve(&snap);
            }
            JobOutcome::Done(result)
        }
        Ok(Err(msg)) => JobOutcome::Failed(msg),
        Err(payload) => {
            inner.metrics.panics.inc();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            JobOutcome::Failed(format!("solver panicked: {msg}"))
        }
    }
}

/// The fallible part of a job: assemble (through the cache) and solve.
/// Runs inside `catch_unwind`; durations are filled in by the caller.
fn execute(inner: &ServiceInner, spec: &JobSpec) -> Result<(JobResult, Option<Snapshot>), String> {
    if spec.matrix == PANIC_SELECTOR {
        panic!("injected panic ({PANIC_SELECTOR})");
    }
    let backend = spec::parse_backend(&spec.backend, spec.threads, spec.ranks, spec.detect)?;
    // The net backend spawns one OS process per rank and owns a TCP
    // listener of its own — not something a shared multi-tenant service
    // should fork per request. Reject up front, before any assembly work.
    if matches!(backend, aj_core::Backend::Net { .. }) {
        return Err(format!(
            "backend '{}' is not served: net spawns one OS process per rank and is \
             only available from the command line (`aj solve --backend net[:ranks=<N>]`); \
             served backends: sync | gs | cg | async-threads | sim-async | sim-sync | \
             dist-async | dist-sync",
            spec.backend
        ));
    }
    let (plan, cache_hit) = inner.cache.get_or_build(&spec.matrix, spec.seed)?;
    spec::validate_backend(&backend, plan.problem.n())?;
    let dist_plan = match backend {
        aj_core::Backend::SimDistributed { ranks, .. } => Some(plan.dist_plan(ranks)),
        _ => None,
    };
    // Resolve the method against the cached problem (memoized there), then
    // hand the driver the canonical fixed-parameter selector so its own
    // resolve step is free — `omega=auto` never re-runs Lanczos on a
    // cache hit.
    let method = spec::parse_method(&plan.resolve_method(&spec.method, spec.seed)?.to_spec())?;
    let format = spec::parse_format(&spec.format)?;
    // Outer solves memoize the parsed spec and (for vcycle) the hierarchy
    // on the cached plan — repeat outer jobs skip the coarsening. The
    // driver re-checks the hierarchy against the problem, which is free.
    let (outer, outer_plan) = match spec.outer.as_str() {
        "" => (None, None),
        selector => {
            let (ospec, hierarchy) = plan.resolve_outer(selector)?;
            (Some(ospec), hierarchy)
        }
    };
    let opts = aj_core::SolveOptions {
        tol: spec.tol,
        max_iterations: spec.max_iterations,
        omega: spec.omega,
        method,
        format,
        seed: spec.seed,
        obs: inner.cfg.solve_obs,
        plan: dist_plan,
        outer,
        outer_plan,
        ..Default::default()
    };
    // Streaming sessions solve a per-job copy of the cached problem: the
    // right-hand side drifts (multiplicative perturbation) and the iterate
    // warm-starts from the session's previous fixed point. The cached plan
    // — assembly, partitioning, memoized method/format/outer resolutions —
    // is reused untouched; only the vectors differ.
    let (streamed, session_solve, warm_started) = match spec.session.as_deref() {
        Some(name) => {
            let mut p = (*plan.problem).clone();
            if spec.perturb_scale != 0.0 {
                perturb_rhs(&mut p.b, spec.perturb_seed, spec.perturb_scale);
            }
            let warm = {
                let sessions = inner.sessions.lock().unwrap();
                match sessions.get(name) {
                    Some(s) if s.matrix == spec.matrix && s.seed == spec.seed => {
                        Some((s.x.clone(), s.solves))
                    }
                    Some(s) => {
                        return Err(format!(
                            "session '{name}' is bound to matrix '{}' seed {}; \
                             this job asked for matrix '{}' seed {} — use a new \
                             session name for a different problem",
                            s.matrix, s.seed, spec.matrix, spec.seed
                        ));
                    }
                    None => None,
                }
            };
            let (warm_started, ordinal) = match warm {
                Some((x, solves)) => {
                    p.x0 = x;
                    (true, solves + 1)
                }
                None => (false, 1),
            };
            (Some(p), Some(ordinal), warm_started)
        }
        None => (None, None, false),
    };
    let problem: &aj_core::Problem = match &streamed {
        Some(p) => p,
        None => &plan.problem,
    };
    let report = aj_core::solve(problem, backend, &opts)?;
    if let (Some(name), Some(ordinal)) = (spec.session.as_deref(), session_solve) {
        inner.sessions.lock().unwrap().insert(
            name.to_string(),
            SessionState {
                matrix: spec.matrix.clone(),
                seed: spec.seed,
                x: report.x.clone(),
                solves: ordinal,
            },
        );
    }
    Ok((
        JobResult {
            backend: report.backend,
            converged: report.converged,
            final_residual: report.final_residual,
            samples: report.history.len(),
            cache_hit,
            queued: Duration::ZERO,
            solved: Duration::ZERO,
            replayed: false,
            session_solve,
            warm_started,
            initial_residual: if session_solve.is_some() {
                report.history.first().map_or(0.0, |&(_, r)| r)
            } else {
                0.0
            },
        },
        report.metrics,
    ))
}

/// Applies the streaming perturbation `b[i] *= 1 + scale·u_i`, `u_i`
/// uniform in [-1, 1) from a splitmix64 stream — deterministic in the
/// seed, so a replayed job sees the identical right-hand side.
fn perturb_rhs(b: &mut [f64], seed: u64, scale: f64) {
    let mut state = seed;
    for v in b.iter_mut() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0; // [-1, 1)
        *v *= 1.0 + scale * unit;
    }
}
