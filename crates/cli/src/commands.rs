//! The `info`, `solve`, `trace`, `obs`, and `serve` subcommands.
//!
//! Commands return the process exit code on success; see the `EXIT_*`
//! constants for the contract.

use crate::args::Args;
use crate::matrix;
use aj_core::dmsim::fault::{FaultPlan, LinkFault};
use aj_core::dmsim::shmem_sim::ShmemSimConfig;
use aj_core::linalg::vecops::Norm;
use aj_core::linalg::{eigen, sweeps};
use aj_core::obs::{ObsConfig, Snapshot};
use aj_core::report::{write_csv, Series};
use aj_core::Problem;

/// Everything worked (and, for `solve`, the tolerance was met).
pub const EXIT_OK: i32 = 0;
/// A runtime failure: bad input file, solver error, I/O error, bind error.
pub const EXIT_RUNTIME: i32 = 1;
/// A usage error: unparseable command line or unknown command.
pub const EXIT_USAGE: i32 = 2;
/// The solve ran to its iteration cap without meeting the tolerance. The
/// report is still printed (and `--metrics-out`/`--history` still written);
/// the code lets scripts tell "diverged/stalled" from "crashed" (1).
pub const EXIT_NOT_CONVERGED: i32 = 3;
/// A request was rejected (shed) by a solve service rather than executed.
/// `aj` itself is the server side and never exits with this; it reserves
/// the code for client tooling (the `serve_load` harness uses it), so
/// scripts can treat `aj`/`serve_load` exit codes uniformly.
#[allow(dead_code)]
pub const EXIT_SHED: i32 = 4;

/// A subcommand's entry point.
pub type Run = fn(&Args) -> Result<i32, String>;

/// Every subcommand with its entry point and the options it reads. `main`
/// rejects any other option (`--help` aside) before running it, so a
/// misspelt or misplaced option never runs silently at its default.
pub const COMMANDS: &[(&str, Run, &[&str])] = &[
    ("info", info, &["matrix", "seed"]),
    (
        "solve",
        solve,
        &[
            "matrix",
            "seed",
            "backend",
            "threads",
            "ranks",
            "tol",
            "max-iters",
            "omega",
            "method",
            "format",
            "outer",
            "control",
            "detect",
            "staleness",
            "pace",
            "history",
            "obs",
            "metrics-out",
            "crash",
            "stall",
            "drop",
            "dup",
            "reorder",
            "lat-factor",
            "fault-seed",
        ],
    ),
    (
        "trace",
        trace,
        &["matrix", "seed", "threads", "iterations", "out"],
    ),
    ("obs", obs, &["metrics", "width"]),
    (
        "serve",
        serve,
        &[
            "addr",
            "workers",
            "queue-cap",
            "cache-cap",
            "store",
            "obs",
            "metrics-out",
        ],
    ),
    ("_rank", rank_child, &["parent", "rank"]),
];

fn load_problem(args: &Args) -> Result<(Problem, u64), String> {
    let seed: u64 = args.get_or("seed", 2018)?;
    let selector = args.get("matrix").ok_or("missing --matrix (try --help)")?;
    Ok((matrix::load(selector, seed)?, seed))
}

/// `aj info` — matrix diagnostics.
pub fn info(args: &Args) -> Result<i32, String> {
    let (p, _) = load_problem(args)?;
    println!("matrix:      {}", p.name);
    println!("size:        {} × {}", p.n(), p.n());
    println!(
        "nonzeros:    {} ({:.2} per row)",
        p.a.nnz(),
        p.a.nnz() as f64 / p.n() as f64
    );
    println!("symmetric:   {}", p.a.is_symmetric(1e-12));
    println!("W.D.D.:      {}", p.a.is_weakly_diagonally_dominant());
    let rho =
        eigen::jacobi_spectral_radius_unit_diag(&p.a, 200.min(p.n())).map_err(|e| e.to_string())?;
    println!(
        "ρ(G):        {rho:.6}  → synchronous Jacobi {}",
        if rho < 1.0 { "converges" } else { "DIVERGES" }
    );
    let colors = sweeps::greedy_coloring(&p.a);
    let ncolors = colors.iter().max().map_or(0, |m| m + 1);
    println!("greedy colors: {ncolors} (multicolor Gauss–Seidel sweeps per iteration)");
    Ok(EXIT_OK)
}

/// Parses `RANK@TIME` or `RANK@TIME+EXTRA` fault specs.
fn parse_rank_at(spec: &str) -> Result<(usize, f64, Option<f64>), String> {
    let bad = || format!("bad fault spec '{spec}' (want RANK@TIME or RANK@TIME+EXTRA)");
    let (r, rest) = spec.split_once('@').ok_or_else(bad)?;
    let rank = r.trim().parse().map_err(|_| bad())?;
    let (t, extra) = match rest.split_once('+') {
        Some((t, x)) => (t, Some(x.trim().parse().map_err(|_| bad())?)),
        None => (rest, None),
    };
    let at = t.trim().parse().map_err(|_| bad())?;
    Ok((rank, at, extra))
}

/// Builds a [`FaultPlan`] from `--crash`/`--stall`/`--drop`/`--dup`/
/// `--reorder`/`--lat-factor`/`--fault-seed`; `None` when no fault option
/// is given.
fn fault_plan(args: &Args, seed: u64) -> Result<Option<FaultPlan>, String> {
    let drop: f64 = args.get_or("drop", 0.0)?;
    let duplicate: f64 = args.get_or("dup", 0.0)?;
    let reorder: f64 = args.get_or("reorder", 0.0)?;
    let latency_factor: f64 = args.get_or("lat-factor", 1.0)?;
    for (name, p) in [("drop", drop), ("dup", duplicate), ("reorder", reorder)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{name} must be a probability in [0, 1], got {p}"));
        }
    }
    if latency_factor <= 0.0 {
        return Err(format!(
            "--lat-factor must be positive, got {latency_factor}"
        ));
    }
    let mut plan = FaultPlan::new(args.get_or("fault-seed", seed)?);
    if drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || latency_factor != 1.0 {
        plan = plan.with_link(LinkFault {
            drop,
            duplicate,
            reorder,
            latency_factor,
            ..LinkFault::everywhere()
        });
    }
    if let Some(specs) = args.get("crash") {
        for spec in specs.split(',') {
            let (rank, at, recover_after) = parse_rank_at(spec)?;
            plan = plan.with_crash(rank, at, recover_after);
        }
    }
    if let Some(specs) = args.get("stall") {
        for spec in specs.split(',') {
            let (rank, at, duration) = parse_rank_at(spec)?;
            let duration =
                duration.ok_or_else(|| format!("--stall '{spec}' needs RANK@TIME+DURATION"))?;
            plan = plan.with_stall(rank, at, duration);
        }
    }
    Ok((!plan.is_empty()).then_some(plan))
}

/// Parses `--obs off | full | sampled[:N]` (default off).
fn parse_obs(args: &Args) -> Result<ObsConfig, String> {
    match args.get("obs") {
        None | Some("off") => Ok(ObsConfig::off()),
        Some("full") => Ok(ObsConfig::full()),
        Some("sampled") => Ok(ObsConfig::sampled(16)),
        Some(s) => match s.strip_prefix("sampled:").map(str::parse) {
            Some(Ok(n)) => Ok(ObsConfig::sampled(n)),
            _ => Err(format!("--obs wants off | full | sampled[:N], got '{s}'")),
        },
    }
}

/// `aj solve` — run a backend and report convergence.
pub fn solve(args: &Args) -> Result<i32, String> {
    let (p, seed) = load_problem(args)?;
    let opts = aj_core::SolveOptions {
        tol: args.get_or("tol", 1e-6)?,
        max_iterations: args.get_or("max-iters", 100_000u64)?,
        norm: Norm::L1,
        omega: args.get_or("omega", 1.0)?,
        method: match args.get("method") {
            Some(selector) => aj_core::spec::parse_method(selector)?,
            None => aj_core::linalg::method::Method::Jacobi,
        },
        format: match args.get("format") {
            Some(selector) => aj_core::spec::parse_format(selector)?,
            None => aj_core::linalg::StorageFormat::Csr,
        },
        seed,
        faults: fault_plan(args, seed)?,
        staleness_timeout: args
            .get("staleness")
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("invalid value for --staleness: {v}"))
            })
            .transpose()?,
        pace_us: args
            .get("pace")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("invalid value for --pace: {v}"))
            })
            .transpose()?,
        obs: {
            let obs = parse_obs(args)?;
            if args.get("metrics-out").is_some() && !obs.is_on() {
                // --metrics-out without --obs: record at the default sample
                // rate rather than writing an empty snapshot.
                ObsConfig::sampled(16)
            } else {
                obs
            }
        },
        plan: None,
        outer: match args.get("outer") {
            Some(selector) => Some(aj_core::spec::parse_outer(selector)?),
            None => None,
        },
        outer_plan: None,
        control: match args.get("control") {
            Some(selector) => aj_core::spec::parse_control(selector)?,
            None => None,
        },
    };
    let threads: usize = args.get_or("threads", 4usize)?;
    let ranks: usize = args.get_or("ranks", 16usize)?;
    // An explicitly-given count is checked even if the chosen backend
    // ignores it — `--threads 0` is a mistake worth flagging either way.
    for (name, count) in [("threads", threads), ("ranks", ranks)] {
        if args.get(name).is_some() && !(1..=p.n()).contains(&count) {
            return Err(format!(
                "--{name} must be in 1..={} for this matrix (got {count})",
                p.n()
            ));
        }
    }
    let backend = aj_core::spec::parse_backend(
        args.get("backend").unwrap_or("sync"),
        threads,
        ranks,
        args.has_flag("detect"),
    )?;

    let start = std::time::Instant::now();
    let report = aj_core::solve(&p, backend, &opts)?;
    let wall = start.elapsed();

    println!("matrix:    {} (n = {}, nnz = {})", p.name, p.n(), p.a.nnz());
    println!("backend:   {}", report.backend);
    println!(
        "status:    {}",
        if report.converged {
            "converged"
        } else {
            "NOT converged"
        }
    );
    println!(
        "rel. res.: {:.3e} (tolerance {:.1e})",
        report.final_residual, opts.tol
    );
    println!("samples:   {}", report.history.len());
    println!("wall time: {wall:?}");
    if let Some(o) = &report.outer {
        let levels = o
            .levels
            .iter()
            .map(|(rows, nnz)| format!("{rows}({nnz})"))
            .collect::<Vec<_>>()
            .join(" → ");
        println!(
            "outer:     {} · levels {levels} · {} outer iterations · {} inner sweeps",
            o.spec, o.iterations, o.inner_sweeps
        );
    }
    if let Some(c) = &report.control {
        println!("control:   {}", c.summary());
    }
    if let Some(c) = &report.comm {
        let mut line = format!("comm:      {} puts, {} values", c.puts, c.values);
        if c.drops + c.duplicates + c.reorders > 0 {
            line.push_str(&format!(
                " ({} dropped, {} duplicated, {} reordered)",
                c.drops, c.duplicates, c.reorders
            ));
        }
        println!("{line}");
    }
    if let Some(t) = &report.termination {
        match t.detected_at {
            Some(at) => println!(
                "detect:    stop at t={at:.1} ({} reports, {} dropped)",
                t.reports_sent, t.reports_dropped
            ),
            None => println!("detect:    protocol never fired"),
        }
        if !t.excluded_ranks.is_empty() {
            println!(
                "excluded:  ranks {:?} (presumed dead via staleness)",
                t.excluded_ranks
            );
        }
    }
    if let Some(f) = &report.faults {
        for &(rank, at) in &f.crash_times {
            println!("fault:     rank {rank} crashed at t={at:.1}");
        }
        for &(rank, at) in &f.recovery_times {
            println!("fault:     rank {rank} recovered at t={at:.1}");
        }
        let dead = f.dead_ranks();
        if !dead.is_empty() {
            println!("fault:     dead at end: ranks {dead:?}");
        }
        if f.stalled_sweeps + f.skipped_sweeps + f.dead_window_drops > 0 {
            println!(
                "fault:     {} sweeps stalled, {} skipped, {} puts hit dead windows",
                f.stalled_sweeps, f.skipped_sweeps, f.dead_window_drops
            );
        }
    }
    if let Some(snap) = &report.metrics {
        let fams = snap.families();
        println!(
            "metrics:   {} counters, {} histogram families ({}), {} timelines",
            snap.counters.len(),
            fams.len(),
            fams.join(", "),
            snap.timelines.len()
        );
        if let Some(path) = args.get("metrics-out") {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(path, snap.to_json()).map_err(|e| e.to_string())?;
            println!("metrics:   written to {path}");
        }
    } else if let Some(path) = args.get("metrics-out") {
        return Err(format!(
            "--metrics-out {path}: backend '{}' records no metrics (sequential reference)",
            report.backend
        ));
    }
    let code = if report.converged {
        EXIT_OK
    } else {
        EXIT_NOT_CONVERGED
    };
    if let Some(path) = args.get("history") {
        write_csv(
            std::path::Path::new(path),
            &[Series::new(report.backend, report.history)],
        )
        .map_err(|e| e.to_string())?;
        println!("history:   written to {path}");
    }
    Ok(code)
}

/// `aj _rank` — hidden child entrypoint for the net backend.
///
/// The parent solve spawns `aj _rank --parent ADDR --rank R` once per
/// rank; everything else (the local system, method, format, pacing)
/// arrives over the socket after the hello/welcome handshake, so the
/// child needs no matrix selector and no access to the problem files.
pub fn rank_child(args: &Args) -> Result<i32, String> {
    let parent = args
        .get("parent")
        .ok_or("missing --parent (internal entrypoint; use `aj solve --backend net`)")?;
    let rank: usize = args
        .get("rank")
        .ok_or("missing --rank (internal entrypoint; use `aj solve --backend net`)")?
        .parse()
        .map_err(|e| format!("invalid --rank: {e}"))?;
    aj_core::net::child::run(parent, rank)?;
    Ok(EXIT_OK)
}

/// `aj obs` — inspect a metrics snapshot written by `aj solve --metrics-out`.
///
/// `aj obs summary FILE` prints per-rank quantiles and ASCII timelines;
/// `aj obs csv FILE` re-emits the snapshot as long-form CSV.
pub fn obs(args: &Args) -> Result<i32, String> {
    let action = args.positional(0).unwrap_or("summary");
    let path = args
        .positional(1)
        .or_else(|| args.get("metrics"))
        .ok_or("missing snapshot path (aj obs summary <metrics.json>)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let width: usize = args.get_or("width", 72usize)?;
    match action {
        "summary" => {
            // Includes the per-rank ASCII timelines when the snapshot has
            // any.
            print!("{}", snap.render_summary(width));
            Ok(EXIT_OK)
        }
        "csv" => {
            print!("{}", snap.to_csv());
            Ok(EXIT_OK)
        }
        other => Err(format!("unknown obs action: {other} (want summary | csv)")),
    }
}

/// `aj trace` — traced asynchronous run + §IV-A analysis.
pub fn trace(args: &Args) -> Result<i32, String> {
    let (p, seed) = load_problem(args)?;
    let threads: usize = args.get_or("threads", 4usize)?;
    if !(1..=p.n()).contains(&threads) {
        return Err(format!(
            "--threads must be in 1..={} for this matrix (got {threads})",
            p.n()
        ));
    }
    let iterations: u64 = args.get_or("iterations", 30u64)?;
    let mut cfg = ShmemSimConfig::new(threads, p.n(), seed);
    cfg.stop = aj_core::dmsim::shmem_sim::StopRule::FixedIterations(iterations);
    cfg.tol = 0.0;
    let (out, trace) = aj_core::dmsim::shmem_sim::run_shmem_async_traced(&p.a, &p.b, &p.x0, &cfg);
    let analysis = aj_core::trace::reconstruct(&trace);
    let stats = aj_core::trace::trace_stats(&trace);
    println!("matrix:               {} (n = {})", p.name, p.n());
    println!(
        "threads:              {threads} ({} rows each ≈)",
        p.n().div_ceil(threads)
    );
    println!("relaxations:          {}", analysis.total);
    println!("propagated fraction:  {:.4}", analysis.fraction());
    println!("parallel steps Φ(l):  {}", analysis.steps.len());
    println!(
        "reads:                {} (mean lag {:.3}, max lag {})",
        stats.total_reads, stats.mean_lag, stats.max_lag
    );
    println!("progress imbalance:   {:.3}", stats.imbalance);
    println!("final rel. residual:  {:.3e}", out.final_residual());
    if let Some(path) = args.get("out") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        aj_core::trace::stats::write_trace_csv(&trace, std::io::BufWriter::new(f))
            .map_err(|e| e.to_string())?;
        println!("trace CSV:            written to {path}");
    }
    Ok(EXIT_OK)
}

/// `aj serve` — run the concurrent solve service over TCP until a client
/// sends a `shutdown` request.
pub fn serve(args: &Args) -> Result<i32, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:4100");
    let default_workers = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(2);
    let cfg = aj_serve::ServiceConfig {
        workers: args.get_or("workers", default_workers)?,
        queue_cap: args.get_or("queue-cap", 64usize)?,
        cache_cap: args.get_or("cache-cap", 8usize)?,
        solve_obs: {
            let obs = parse_obs(args)?;
            if args.get("metrics-out").is_some() && !obs.is_on() {
                ObsConfig::sampled(16)
            } else {
                obs
            }
        },
        store: args.get("store").map(aj_serve::StoreConfig::new),
    };
    let service = aj_serve::SolveService::try_start(cfg.clone())?;
    if let Some(rec) = service.recovery() {
        println!(
            "recovered: {} events, {} jobs ({} re-enqueued{}) in {:.1} ms",
            rec.events,
            rec.jobs,
            rec.reenqueued,
            if rec.torn_tail_dropped {
                ", torn tail dropped"
            } else {
                ""
            },
            rec.replay.as_secs_f64() * 1000.0
        );
    }
    let server = aj_serve::Server::bind(addr, service)?;
    println!(
        "aj-serve listening on {} ({} workers, queue {}, cache {})",
        server.addr(),
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_cap
    );
    server.run()?;
    let snap = server.service().metrics_snapshot();
    let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    println!(
        "served:    {} jobs ({} completed, {} failed, {} shed)",
        get("jobs_submitted"),
        get("jobs_completed"),
        get("jobs_failed"),
        get("jobs_shed_queue_full")
            + get("jobs_shed_deadline")
            + get("jobs_shed_cancelled")
            + get("jobs_shed_shutdown"),
    );
    println!(
        "cache:     {} hits, {} misses, {} evictions",
        get("plan_cache_hits"),
        get("plan_cache_misses"),
        get("plan_cache_evictions"),
    );
    if let Some(path) = args.get("metrics-out") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, snap.to_json()).map_err(|e| e.to_string())?;
        println!("metrics:   written to {path}");
    }
    Ok(EXIT_OK)
}
