//! Job vocabulary: what clients ask for and what they get back.
//!
//! The contract the whole subsystem hangs on: **every submitted job gets
//! exactly one [`JobOutcome`]** — a result, a structured shed, or a solver
//! failure. Nothing is silently dropped, which is what the stress tests and
//! the `serve_load` accounting guard pin down.

use std::time::Duration;

/// One solve request, in the CLI's string vocabulary (see
/// [`aj_core::spec`]): a matrix selector + seed identifying the assembled
/// problem (also the plan-cache key) and a backend name with its knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Matrix selector (`fd68`, `suite:ecology2:tiny`, `grid:64x64`, …).
    pub matrix: String,
    /// Seed for the problem's random `b`/`x0` (part of the cache key) and
    /// for simulated-backend jitter.
    pub seed: u64,
    /// Backend name (`sync`, `gs`, `cg`, `async-threads`, `sim-async`,
    /// `sim-sync`, `dist-async`, `dist-sync`).
    pub backend: String,
    /// Worker count for thread/shared-memory backends.
    pub threads: usize,
    /// Rank count for distributed backends.
    pub ranks: usize,
    /// Use the distributed termination-detection protocol (`dist-async`).
    pub detect: bool,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iterations: u64,
    /// Weight of plain Jacobi (see [`aj_core::SolveOptions::omega`]).
    pub omega: f64,
    /// Relaxation-method selector in the [`aj_core::spec`] grammar
    /// (`jacobi`, `richardson1[:omega=<w>|auto]`,
    /// `richardson2[:omega=<w>|auto][:beta=<b>]`, `rwr[:fraction=<f>]`).
    /// `omega=auto` resolutions are memoized per cached problem, so repeat
    /// solves skip the spectrum estimate.
    pub method: String,
    /// Sweep-storage-format selector in the [`aj_core::spec`] grammar
    /// (`csr`, `sellc[:c=<2|4|8|16>]`, `auto`). Resolutions are
    /// memoized per cached problem alongside method resolutions.
    pub format: String,
    /// Outer-solver selector in the [`aj_core::spec`] grammar
    /// (`vcycle[:levels=<L>][:smooth=METHOD][:steps=<K>]`,
    /// `fcg[:prec=METHOD][:inner=<K>]`,
    /// `fgmres[:prec=METHOD][:inner=<K>][:restart=<M>]`). Empty (the
    /// default, and the only value protocol-v1 clients can express) means
    /// a standalone solve. Parsed specs and `vcycle` hierarchies are
    /// memoized per cached problem alongside method resolutions.
    pub outer: String,
    /// Shed the job if it has not *started* within this long of being
    /// submitted. `None` = wait as long as it takes.
    pub deadline: Option<Duration>,
    /// Client-supplied idempotency key. Two submits with the same key are
    /// the *same logical job*: the second returns the first's outcome (or
    /// attaches to it while it is still in flight) instead of solving
    /// again. With a durable store this survives server restarts, which
    /// is what makes crash-time retries safe — see `crate::store`.
    pub idempotency_key: Option<String>,
    /// Streaming session name. Jobs sharing a session solve the *same
    /// cached problem* with a right-hand side that mutates between solves
    /// (see [`JobSpec::perturb_scale`]), warm-starting each solve from the
    /// previous solve's fixed point. Sessions are in-memory only: after a
    /// restart the first solve of a session cold-starts from the problem's
    /// own `x0` — a performance reset, never a wrong answer. A session is
    /// bound to its first job's `(matrix, seed)`; reusing the name with a
    /// different problem fails the job.
    pub session: Option<String>,
    /// Seed for this solve's multiplicative right-hand-side perturbation
    /// (streaming sessions vary it per solve to model a drifting load).
    pub perturb_seed: u64,
    /// Relative perturbation amplitude: each `b[i]` becomes
    /// `b[i]·(1 + perturb_scale·u_i)` with `u_i` uniform in [-1, 1) drawn
    /// from `perturb_seed`. `0.0` (default) leaves `b` untouched.
    pub perturb_scale: f64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            matrix: "fd68".into(),
            seed: 2018,
            backend: "sync".into(),
            threads: 4,
            ranks: 16,
            detect: false,
            tol: 1e-6,
            max_iterations: 100_000,
            omega: 1.0,
            method: "jacobi".into(),
            format: "csr".into(),
            outer: String::new(),
            deadline: None,
            idempotency_key: None,
            session: None,
            perturb_seed: 0,
            perturb_scale: 0.0,
        }
    }
}

/// Why a job was answered without being solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity when the job arrived.
    QueueFull,
    /// The job's deadline passed while it waited in the queue.
    DeadlineExpired,
    /// The client cancelled the job before a worker picked it up.
    Cancelled,
    /// The service was shutting down (rejected at the door, or drained
    /// from the queue by a non-draining shutdown).
    ShuttingDown,
}

impl ShedReason {
    /// Stable wire name (used in protocol responses and metrics keys).
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpired => "deadline",
            ShedReason::Cancelled => "cancelled",
            ShedReason::ShuttingDown => "shutdown",
        }
    }

    /// Inverse of [`ShedReason::as_str`].
    pub fn from_wire(s: &str) -> Option<ShedReason> {
        Some(match s {
            "queue_full" => ShedReason::QueueFull,
            "deadline" => ShedReason::DeadlineExpired,
            "cancelled" => ShedReason::Cancelled,
            "shutdown" => ShedReason::ShuttingDown,
            _ => return None,
        })
    }
}

/// A completed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Human-readable backend label from the solver report.
    pub backend: String,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Final relative residual.
    pub final_residual: f64,
    /// Number of residual-history samples.
    pub samples: usize,
    /// Whether the plan cache already held this job's problem.
    pub cache_hit: bool,
    /// Time spent queued before a worker started the job.
    pub queued: Duration,
    /// Time spent inside the solver.
    pub solved: Duration,
    /// Whether this result was replayed from a previous solve of the same
    /// idempotency key (the solver did not run again for this submit).
    pub replayed: bool,
    /// 1-based ordinal of this solve within its streaming session
    /// (`None` for standalone jobs).
    pub session_solve: Option<u64>,
    /// Whether this solve warm-started from the session's previous fixed
    /// point (always `false` for a session's first solve and after a
    /// restart).
    pub warm_started: bool,
    /// Residual of the starting iterate (first history sample) — the
    /// direct measure of what warm-starting bought. Meaningful only for
    /// session solves; `0.0` otherwise.
    pub initial_residual: f64,
}

/// The one answer every submitted job receives.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The solver ran to completion (converged or not — see
    /// [`JobResult::converged`]).
    Done(JobResult),
    /// The job was shed without running.
    Shed(ShedReason),
    /// The solver returned an error or panicked; the pool survives and the
    /// message says why.
    Failed(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_reason_wire_names_roundtrip() {
        for r in [
            ShedReason::QueueFull,
            ShedReason::DeadlineExpired,
            ShedReason::Cancelled,
            ShedReason::ShuttingDown,
        ] {
            assert_eq!(ShedReason::from_wire(r.as_str()), Some(r));
        }
        assert_eq!(ShedReason::from_wire("gremlins"), None);
    }
}
