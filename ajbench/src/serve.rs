//! The `serve-durable` workload: an in-process `SolveService` with a
//! durable job store behind `Server` on loopback, as `aj serve --store`
//! runs it (2 workers, `solve_obs = sampled(16)`).
//!
//! Phases of a run:
//!
//! 1. **References.** Each warm job shape is solved once in-process with
//!    `aj_core::solve`, configured as the service configures it. Served
//!    replies for warm keys must carry the same final residual bit for bit.
//! 2. **Warm-up.** A first service instance serves [`WARMUP_JOBS`] requests
//!    of the mix and shuts down, leaving a job log behind.
//! 3. **Set-up (`setup_s`).** The service is restarted [`RESTARTS`] times
//!    on that log: `SolveService::try_start` replays it and `Server::bind`
//!    opens the port. The median restart is the set-up time; the last
//!    instance serves the measurement.
//! 4. **Load.** A closed loop over [`CONNS`] connections, each client
//!    waiting for its reply before sending the next request, for the
//!    measurement budget, in [`WINDOWS`] windows with the host-speed
//!    reference ([`crate::calib`]) timed between them while the service
//!    idles. Each window has four warm plan-cache keys of its own, one per
//!    shape, touched once before it starts, so a run averages the work of
//!    many draws of `b` and `x0` while the cache holds only a few warm
//!    keys at a time. 7 in 8 requests reuse the window's warm keys; 1 in 8
//!    names a fresh seed, which forces the service to assemble the
//!    problem, build the comm plan, run Lanczos or coarsen the hierarchy
//!    again.
//!
//! Every request must get exactly one reply, every reply must be a
//! converged `done`, and the service's own counters must balance.

use crate::calib::Calibrator;
use crate::{derive, stats, sub_seeds, timed, Args, Report};
use aj_core::obs::{ObsConfig, Snapshot};
use aj_core::{spec, Backend, Hierarchy, SolveOptions};
use aj_serve::proto::{self, Request, Response};
use aj_serve::{JobSpec, Server, ServiceConfig, SolveService, StoreConfig, Wal, WalConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CONNS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Requests served before the restart, i.e. the size of the replayed log.
const WARMUP_JOBS: usize = 1000;
/// Restarts timed for `setup_s`.
const RESTARTS: usize = 15;
/// One request in this many names a fresh seed.
const FRESH_EVERY: usize = 8;
/// Relative residual tolerance of every job.
const TOL: f64 = 1e-6;
/// Standalone synced appends timed for the WAL probe.
const WAL_APPENDS: usize = 40;
/// Equal windows the measured load is split into.
const WINDOWS: usize = 8;
/// Reference runs timed after each window.
const WINDOW_REFERENCES: usize = 5;
/// Extra seeds per shape solved in-process for the work counters.
const WORK_SEEDS: usize = 16;
/// Where the run keeps its job log, relative to the working directory.
const SCRATCH: &str = ".ajbench_scratch";

/// The four job shapes of the mix, on `seed`: sequential Jacobi, the
/// shared-memory simulator with `richardson2:omega=auto`, the distributed
/// simulator, and a V-cycle outer solve over the shared-memory simulator.
fn shape(i: usize, seed: u64) -> JobSpec {
    let base = JobSpec {
        seed,
        tol: TOL,
        ..Default::default()
    };
    match i % 4 {
        0 => JobSpec {
            matrix: "grid:14x14".into(),
            backend: "sync".into(),
            ..base
        },
        1 => JobSpec {
            matrix: "grid:18x18".into(),
            backend: "sim-async".into(),
            threads: 2,
            method: "richardson2:omega=auto".into(),
            ..base
        },
        2 => JobSpec {
            matrix: "grid:12x12".into(),
            backend: "dist-async".into(),
            ranks: 8,
            ..base
        },
        _ => JobSpec {
            matrix: "grid:31x31".into(),
            backend: "sim-async".into(),
            threads: 2,
            outer: "vcycle:smooth=richardson1:omega=0.8".into(),
            ..base
        },
    }
}

/// Request numbers of one window share their bits above this one.
const WINDOW_BITS: usize = 20;

/// The run's request sequence. Request `k` belongs to window
/// `k >> WINDOW_BITS` (the warm-up is window 0, the load windows are 1 to
/// [`WINDOWS`]) and is either one of that window's four warm keys or,
/// every [`FRESH_EVERY`]th request, a fresh seed.
struct Mix {
    seed: u64,
}

impl Mix {
    /// Warm key `key`: shape `key % 4` of window `key / 4`, with its spec.
    fn warm(&self, key: usize) -> JobSpec {
        shape(key % 4, derive(self.seed, key as u64))
    }

    /// Request `k` and the warm key it reuses, if any.
    fn request(&self, k: usize) -> (JobSpec, Option<usize>) {
        if k % FRESH_EVERY == FRESH_EVERY - 1 {
            // A stream of its own, so no fresh seed repeats a warm one.
            (
                shape(k / FRESH_EVERY, derive(self.seed ^ 0xf2e5, k as u64)),
                None,
            )
        } else {
            let key = (k >> WINDOW_BITS) * 4 + (k - k / FRESH_EVERY) % 4;
            (self.warm(key), Some(key))
        }
    }

    /// The warm keys of windows `0..=WINDOWS`.
    fn warm_keys() -> std::ops::Range<usize> {
        0..(WINDOWS + 1) * 4
    }
}

/// The options `SolveService` hands `aj_core::solve` for `spec` (minus the
/// cached plan and hierarchy, which the driver rebuilds identically).
fn solve_options(spec: &JobSpec, obs: ObsConfig) -> Result<(Backend, SolveOptions), String> {
    let backend = spec::parse_backend(&spec.backend, spec.threads, spec.ranks, spec.detect)?;
    let outer = match spec.outer.as_str() {
        "" => None,
        sel => Some(spec::parse_outer(sel)?),
    };
    let opts = SolveOptions {
        tol: spec.tol,
        max_iterations: spec.max_iterations,
        omega: spec.omega,
        method: spec::parse_method(&spec.method)?,
        format: spec::parse_format(&spec.format)?,
        seed: spec.seed,
        obs,
        outer,
        ..Default::default()
    };
    Ok((backend, opts))
}

/// A job solved in-process: its final residual and work counters.
#[derive(Debug, Clone, Copy)]
struct Reference {
    residual: f64,
    sweeps: f64,
    ticks: f64,
}

fn reference(spec: &JobSpec) -> Result<Reference, String> {
    let p = spec::load_problem(&spec.matrix, spec.seed)?;
    let (backend, opts) = solve_options(spec, ObsConfig::sampled(16))?;
    let rep = aj_core::solve(&p, backend, &opts)?;
    if !rep.converged {
        return Err(format!("reference {} did not converge", spec.matrix));
    }
    // Engines count relaxations; the sequential reference sweeps once per
    // history entry after the first.
    let sweeps = match rep
        .metrics
        .as_ref()
        .and_then(|m| m.counters.get("relaxations"))
    {
        Some(&r) => r as f64 / p.n() as f64,
        None => rep.history.len().saturating_sub(1) as f64,
    };
    Ok(Reference {
        residual: rep.final_residual,
        sweeps,
        ticks: rep.history.last().map_or(0.0, |h| h.0),
    })
}

/// One NDJSON connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = proto::render_request(req);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => proto::parse_response(reply.trim()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// A bound server running on its own thread.
struct Running {
    server: Arc<Server>,
    thread: JoinHandle<Result<(), String>>,
}

impl Running {
    fn spawn(server: Server) -> Running {
        let server = Arc::new(server);
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        Running { server, thread }
    }

    fn addr(&self) -> String {
        self.server.addr().to_string()
    }

    fn snapshot(&self) -> Snapshot {
        self.server.service().metrics_snapshot()
    }

    /// Drains and stops the service over the wire, then joins the server.
    fn shutdown(self) -> Result<(), String> {
        let ack = Conn::connect(&self.addr())?.call(&Request::Shutdown { drain: true })?;
        if ack != Response::ShuttingDown {
            return Err(format!("expected a shutdown ack, got {ack:?}"));
        }
        self.thread.join().map_err(|_| "server thread panicked")?
    }
}

fn config(store: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_cap: 64,
        cache_cap: 8,
        solve_obs: ObsConfig::sampled(16),
        store: Some(StoreConfig::new(store)),
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Shape index, or 4 for a fresh-seed request.
    shape: usize,
    latency_ms: f64,
    queued_ms: f64,
    solved_ms: f64,
    cache_hit: bool,
}

/// Checks one reply against the request it answers.
fn check(
    k: usize,
    spec: &JobSpec,
    warm: Option<usize>,
    refs: &[Reference],
    resp: &Response,
) -> Result<(f64, f64, bool), String> {
    match resp {
        Response::Done { id, result } if *id == k as u64 => {
            let below_tol = result.final_residual < spec.tol;
            if !result.converged || !below_tol {
                return Err(format!(
                    "request {k} ({} on {}): converged={} residual {:e}",
                    spec.matrix, spec.backend, result.converged, result.final_residual
                ));
            }
            if let Some(i) = warm {
                if result.final_residual.to_bits() != refs[i].residual.to_bits() {
                    return Err(format!(
                        "request {k} ({} on {}): residual {:e} differs from the in-process \
                         solve's {:e}",
                        spec.matrix, spec.backend, result.final_residual, refs[i].residual
                    ));
                }
            }
            Ok((
                result.queued.as_secs_f64() * 1e3,
                result.solved.as_secs_f64() * 1e3,
                result.cache_hit,
            ))
        }
        other => Err(format!("request {k}: expected done, got {other:?}")),
    }
}

/// A client's answered samples and failures, or why it could not go on.
type ClientResult = Result<(Vec<Sample>, Vec<String>), String>;

/// One client of the closed loop: requests `first, first + CONNS, …` until
/// `deadline` (or `limit` requests in all when given).
fn client(
    addr: &str,
    mix: &Mix,
    refs: &[Reference],
    first: usize,
    deadline: Instant,
    limit: Option<usize>,
) -> ClientResult {
    let mut conn = Conn::connect(addr)?;
    let (mut samples, mut errors) = (Vec::new(), Vec::new());
    let mut k = first;
    while limit.map_or(Instant::now() < deadline, |n| k < n) {
        let (spec, warm) = mix.request(k);
        let sent = Instant::now();
        let resp = conn.call(&Request::Solve {
            id: k as u64,
            spec: spec.clone(),
        })?;
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        match check(k, &spec, warm, refs, &resp) {
            Ok((queued_ms, solved_ms, cache_hit)) => samples.push(Sample {
                shape: warm.map_or(4, |key| key % 4),
                latency_ms,
                queued_ms,
                solved_ms,
                cache_hit,
            }),
            Err(e) => errors.push(e),
        }
        k += CONNS;
    }
    Ok((samples, errors))
}

/// Closed loop over [`CONNS`] connections starting at request `offset`.
/// Returns the answered samples and the failures.
fn closed_loop(
    addr: &str,
    mix: &Mix,
    refs: &[Reference],
    offset: usize,
    seconds: f64,
    limit: Option<usize>,
) -> Result<(Vec<Sample>, Vec<String>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    client(
                        addr,
                        mix,
                        refs,
                        offset + c,
                        deadline,
                        limit.map(|n| offset + n),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let (mut samples, mut errors) = (Vec::new(), Vec::new());
    for r in results {
        let (s, e) = r?;
        samples.extend(s);
        errors.extend(e);
    }
    Ok((samples, errors))
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs the serve-durable workload.
///
/// # Errors
/// A message when the service cannot be started or driven at all.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut host = Calibrator::new();
    let scratch = Scratch(Path::new(SCRATCH).join(format!("serve-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let store = scratch.0.join("store");
    let mix = Mix { seed: args.seed };
    let refs: Vec<Reference> = Mix::warm_keys()
        .map(|key| reference(&mix.warm(key)))
        .collect::<Result<_, _>>()?;
    // The mix's work per job, averaged over more seeds than the warm keys
    // so that it reflects the shapes rather than a few draws of `b` and `x0`.
    let mut work = refs.clone();
    for (k, seed) in sub_seeds(args.seed ^ 0x3a11, 4 * WORK_SEEDS)
        .into_iter()
        .enumerate()
    {
        work.push(reference(&shape(k, seed))?);
    }

    // Warm-up: leave a log of WARMUP_JOBS jobs behind.
    let warm = Running::spawn(Server::bind(
        "127.0.0.1:0",
        SolveService::try_start(config(&store))?,
    )?);
    let (_, errors) = closed_loop(&warm.addr(), &mix, &refs, 0, 0.0, Some(WARMUP_JOBS))?;
    for e in errors {
        report.violate(format!("warm-up: {e}"));
    }
    warm.shutdown()?;

    // Set-up: restart on the log, keep the last instance.
    let mut restart_s = Vec::new();
    let mut server = None;
    for _ in 0..RESTARTS {
        drop(server.take());
        let (t, bound) = host.timed(|| {
            SolveService::try_start(config(&store)).and_then(|svc| Server::bind("127.0.0.1:0", svc))
        });
        let bound = bound?;
        let recovered = bound.service().recovery().map_or(0, |r| r.jobs);
        if recovered != WARMUP_JOBS as u64 {
            report.violate(format!(
                "restart replayed {recovered} jobs, the warm-up logged {WARMUP_JOBS}"
            ));
        }
        restart_s.push(t);
        server = Some(bound);
    }
    let running = Running::spawn(server.expect("at least one restart"));
    let addr = running.addr();

    let before = running.snapshot();
    let load_seconds = if args.trace {
        args.seconds * 0.6
    } else {
        args.seconds
    };
    // Each window: its samples, its wall time, and the factor that turns
    // its wall times into the reference host's.
    let window_s = load_seconds / WINDOWS as f64;
    let mut windows = Vec::new();
    let (mut errors, mut touched) = (Vec::new(), 0);
    for w in 1..=WINDOWS {
        // The window's warm keys are cold: touch each once, then time the
        // reference just before the window starts.
        let mut conn = Conn::connect(&addr)?;
        for key in w * 4..w * 4 + 4 {
            touched += 1;
            let k = (w << WINDOW_BITS) - 1 - key % 4;
            let resp = conn.call(&Request::Solve {
                id: k as u64,
                spec: mix.warm(key),
            })?;
            if let Err(e) = check(k, &mix.warm(key), Some(key), &refs, &resp) {
                report.fail(format!("cache warm-up: {e}"));
            }
        }
        drop(conn);
        host.around(WINDOW_REFERENCES, || ());
        let (factor, (wall_s, result)) = host.around(WINDOW_REFERENCES, || {
            timed(|| closed_loop(&addr, &mix, &refs, w << WINDOW_BITS, window_s, None))
        });
        let (s, e) = result?;
        windows.push((s, wall_s, factor));
        errors.extend(e);
    }
    let after = running.snapshot();
    running.shutdown()?;
    let samples: Vec<Sample> = windows.iter().flat_map(|w| w.0.clone()).collect();

    let sent = (samples.len() + errors.len()) as u64 + touched;
    report.attempted = sent;
    for e in errors {
        report.fail(e);
    }
    // The service's own accounting: it saw every request the clients sent
    // and resolved every one it saw.
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    if delta("jobs_submitted") != sent {
        report.violate(format!(
            "the service saw {} submissions, the clients sent {sent}",
            delta("jobs_submitted")
        ));
    }
    let resolved = [
        "jobs_completed",
        "jobs_failed",
        "jobs_shed_queue_full",
        "jobs_shed_deadline",
        "jobs_shed_cancelled",
        "jobs_shed_shutdown",
    ]
    .iter()
    .map(|n| counter(&after, n))
    .sum::<u64>();
    if resolved != counter(&after, "jobs_submitted") {
        report.violate(format!(
            "the service resolved {resolved} of {} submitted jobs",
            counter(&after, "jobs_submitted")
        ));
    }

    for i in 0..5 {
        let of_shape: Vec<&Sample> = samples.iter().filter(|s| s.shape == i).collect();
        let latency: Vec<f64> = of_shape.iter().map(|s| s.latency_ms).collect();
        eprintln!(
            "ajbench: shape {i}: {} jobs, latency p50 {:.3} ms p90 {:.3} ms",
            latency.len(),
            stats::median(&latency),
            stats::quantile(&latency, 0.9)
        );
    }
    let pick = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let solved = pick(|s| s.solved_ms);
    if !args.trace {
        // Each window is calibrated on its own, then the windows are pooled:
        // a figure averages the work of all their warm keys, and a burst
        // from a neighbour that the reference runs missed moves only the
        // share of samples it touched.
        let scaled: Vec<Sample> = windows
            .iter()
            .flat_map(|(w, _, factor)| {
                w.iter().map(move |s| Sample {
                    latency_ms: s.latency_ms * factor,
                    solved_ms: s.solved_ms * factor,
                    ..*s
                })
            })
            .collect();
        let load_s: f64 = windows
            .iter()
            .map(|(_, wall_s, factor)| wall_s * factor)
            .sum();
        let latency: Vec<f64> = scaled.iter().map(|s| s.latency_ms).collect();
        report.push("setup_s", stats::median(&restart_s));
        // Replies carry whole microseconds; the interquartile mean keeps
        // the figure continuous where a median would sit on one value.
        report.push(
            "solve_s",
            stats::interquartile_mean(&scaled.iter().map(|s| s.solved_ms).collect::<Vec<_>>())
                / 1e3,
        );
        report.push(
            "sweeps_to_tol",
            stats::mean(&work.iter().map(|r| r.sweeps).collect::<Vec<_>>()),
        );
        report.push(
            "sim_ticks_to_tol",
            stats::mean(&work.iter().map(|r| r.ticks).collect::<Vec<_>>()),
        );
        report.push("jobs_per_s", scaled.len() as f64 / load_s);
        report.push("latency_p50_ms", stats::median(&latency));
        report.push("latency_p99_ms", stats::quantile(&latency, 0.99));
        report.push("peak_rss_mb", crate::peak_rss_mb()?);
        return Ok(report);
    }

    let misses: Vec<f64> = samples
        .iter()
        .filter(|s| !s.cache_hit)
        .map(|s| s.latency_ms)
        .collect();
    let (hits, builds) = (delta("plan_cache_hits"), delta("plan_cache_misses"));
    report.push(
        "serve.queue_wait_ms_p50",
        stats::median(&pick(|s| s.queued_ms)),
    );
    report.push("serve.solve_ms_p50", stats::median(&solved));
    report.push("serve.solve_ms_p99", stats::quantile(&solved, 0.99));
    report.push(
        "serve.overhead_ms_p50",
        stats::median(&pick(|s| s.latency_ms - s.queued_ms - s.solved_ms)),
    );
    report.push("serve.miss_latency_ms_p50", stats::median(&misses));
    report.push(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + builds).max(1) as f64,
    );
    report.push("serve.plan_builds", builds as f64);
    report.push(
        "serve.wal_fsyncs_per_job",
        delta("wal_fsyncs") as f64 / delta("jobs_completed").max(1) as f64,
    );
    trace_layers(args, &scratch.0, &mut report)?;
    Ok(report)
}

/// The layers a served job crosses, timed standalone: a synced WAL append,
/// and what a plan-cache miss rebuilds (assembly, comm plan, Lanczos,
/// hierarchy), plus the cost of the service's sampled solve obs.
fn trace_layers(args: &Args, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let mut wal = Wal::open(&scratch.join("wal-probe"), WalConfig::default())
        .map_err(|e| format!("wal probe: {e}"))?;
    let line = proto::render_request(&Request::Solve {
        id: 1,
        spec: shape(3, args.seed),
    });
    let mut append_ms = Vec::new();
    for _ in 0..WAL_APPENDS {
        let (t, r) = timed(|| wal.append(&line, true));
        r.map_err(|e| format!("wal probe: {e}"))?;
        append_ms.push(t * 1e3);
    }
    report.push("serve.wal_append_sync_ms_p50", stats::median(&append_ms));

    let seeds = sub_seeds(args.seed ^ 0x7ace, 5);
    let median_of = |f: &dyn Fn(u64) -> Result<f64, String>| -> Result<f64, String> {
        let t: Vec<f64> = seeds.iter().map(|&s| f(s)).collect::<Result<_, _>>()?;
        Ok(stats::median(&t))
    };
    let load = |i: usize, s: u64| spec::load_problem(&shape(i, s).matrix, s);
    let assemble = median_of(&|s| {
        let t: Vec<f64> = (0..4).map(|i| timed(|| load(i, s)).0).collect();
        Ok(stats::mean(&t))
    })?;
    report.push("matgen.assemble_s", assemble);
    report.push(
        "partition.plan_s",
        median_of(&|s| {
            let p = load(2, s)?;
            Ok(timed(|| aj_core::prepare_dist_plan(&p, shape(2, s).ranks)).0)
        })?,
    );
    report.push(
        "linalg.lanczos_s",
        median_of(&|s| {
            let p = load(1, s)?;
            let method = spec::parse_method(&shape(1, s).method)?;
            let (t, r) = timed(|| method.resolve_full(&p.a, s));
            r.map_err(|e| e.to_string())?;
            Ok(t)
        })?,
    );
    report.push(
        "outer.hierarchy_s",
        median_of(&|s| {
            let p = load(3, s)?;
            let (t, h) = timed(|| Hierarchy::build(&p.a, None));
            h.map_err(|e| e.to_string())?;
            Ok(t)
        })?,
    );

    // Sampled solve obs against none, on the distributed shape: alternating
    // pairs, which side runs first alternating too; the median ratio.
    let spec = shape(2, seeds[0]);
    let p = load(2, seeds[0])?;
    let (backend, off) = solve_options(&spec, ObsConfig::off())?;
    let (_, on) = solve_options(&spec, ObsConfig::sampled(16))?;
    let run = |opts: &SolveOptions| -> Result<f64, String> {
        let (t, r) = timed(|| aj_core::solve(&p, backend, opts));
        r?;
        Ok(t)
    };
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < 9 || start.elapsed().as_secs_f64() < args.seconds * 0.3 {
        let (t_off, t_on) = if ratios.len() % 2 == 0 {
            let t_off = run(&off)?;
            (t_off, run(&on)?)
        } else {
            let t_on = run(&on)?;
            (run(&off)?, t_on)
        };
        ratios.push(t_on / t_off);
    }
    report.push("obs.overhead_frac", stats::median(&ratios) - 1.0);
    Ok(())
}
