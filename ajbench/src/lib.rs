//! The repository's end-to-end benchmark.
//!
//! Three workloads, one process each, selected by name:
//!
//! * `dist256` — `suite:thermomech_dm:small` on the simulated distributed
//!   engine (`dist-async` ×256 ranks, `jacobi`, `csr`, tol 1e-6, L1 norm):
//!   the paper's one-sided-put setting, where the event loop and ghost puts
//!   carry the engine time and no spectrum estimate runs;
//! * `shared4-r2auto` — the same matrix on `sim-async` ×4 workers with
//!   `richardson2:omega=auto` and `format=auto`: the Lanczos estimate
//!   dominates, the event loop is negligible;
//! * `serve-durable` — an in-process `SolveService` with a durable store
//!   behind `Server` on loopback, driven by a closed loop over two
//!   connections with a mix of warm plan-cache keys and fresh-seed misses.
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) re-times every layer from outside by calling
//! the same public functions `aj_core::solve` and `aj-serve` call, in the
//! same order, and reconciles the stages against the untraced solve time.
//! Every quantile is computed from raw samples; the end-to-end times are
//! calibrated to the reference host's speed ([`calib`]).

pub mod calib;
pub mod serve;
pub mod solve;
pub mod stats;

use std::time::Instant;

/// Workload names and the one-line reason each exists; `BENCHMARK.json`
/// carries the same lines.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "dist256",
        "thermomech_dm:small on dist-async x256 ranks, jacobi, csr, tol 1e-6: the paper's \
         one-sided-put setting; event loop and ghost puts carry the engine, no Lanczos runs",
    ),
    (
        "shared4-r2auto",
        "the same matrix on sim-async x4 with richardson2:omega=auto and format=auto (sellc:c=8): \
         Lanczos in Method::resolve_full is over 80% of the solve, the event loop is negligible",
    ),
    (
        "serve-durable",
        "SolveService with a fsynced WAL behind Server, closed loop over 2 connections: 7 in 8 \
         requests hit warm plan-cache keys, 1 in 8 names a fresh seed and rebuilds the plan",
    ),
];

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    /// A message naming the bad or missing option.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("option {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.iter().any(|(name, _)| *name == value) {
                        return Err(format!("unknown workload {value}"));
                    }
                    workload = Some(value);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// End-to-end metrics (untraced run) with their units, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sweeps_to_tol", "sweeps"),
    ("sim_ticks_to_tol", "ticks"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run) with their units, in print order. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("matgen.assemble_s", "s"),
    ("partition.plan_s", "s"),
    ("partition.ghost_values", "count"),
    ("linalg.lanczos_s", "s"),
    ("linalg.kernel_build_s", "s"),
    ("linalg.kernel_sweep_s", "s"),
    ("linalg.kernel_work_nnz", "count"),
    ("linalg.kernel_gbps_computed", "GB/s"),
    ("dmsim.engine_s", "s"),
    ("dmsim.monitor_s", "s"),
    ("dmsim.event_loop_s", "s"),
    ("dmsim.relaxations", "count"),
    ("dmsim.puts", "count"),
    ("dmsim.put_values", "count"),
    ("obs.overhead_frac", "ratio"),
    ("core.solve_s", "s"),
    ("core.unaccounted_frac", "ratio"),
    ("core.trace_overhead_frac", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.solve_ms_p50", "ms"),
    ("serve.solve_ms_p99", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.miss_latency_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.plan_builds", "count"),
    ("serve.wal_fsyncs_per_job", "count"),
    ("serve.wal_append_sync_ms_p50", "ms"),
    ("outer.hierarchy_s", "s"),
];

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (solves or requests) attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored, did not converge, were shed or broke a
    /// correctness check.
    pub failed: u64,
    /// Every correctness violation, in the order found.
    pub violations: Vec<String>,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.violations.push(why);
    }

    /// Records a check that does not belong to one operation.
    pub fn violate(&mut self, why: String) {
        self.violations.push(why);
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being exactly `declared`.
    ///
    /// # Errors
    /// A message naming a recorded metric that is not declared, or a
    /// declared end-to-end metric the run did not record.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric {name} is not declared"));
        }
        let mut metrics = Vec::new();
        for &(name, unit) in declared {
            let value = match self.get(name) {
                Some(v) => v,
                None if declared == PER_LAYER => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Runs one workload.
///
/// # Errors
/// A message when the workload could not be set up or driven at all (as
/// opposed to a correctness failure, which lands in the report).
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "dist256" => solve::run(solve::SolveWorkload::Dist256, args),
        "shared4-r2auto" => solve::run(solve::SolveWorkload::Shared4R2Auto, args),
        "serve-durable" => serve::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `n` well-mixed seeds derived from `seed`, so one workload seed fans out
/// into independent problem and jitter seeds.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|k| derive(seed, k)).collect()
}

/// The `k`-th seed derived from `seed` (SplitMix64 output `k + 1`).
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Below 2^52, so the JSON numbers of the serve wire carry it exactly.
    (z ^ (z >> 31)) >> 12
}

/// The process's high-water resident set size (`VmHWM`) in MB.
///
/// # Errors
/// A message when `/proc/self/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}
