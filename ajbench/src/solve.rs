//! The time-to-tolerance workloads, `dist256` and `shared4-r2auto`.
//!
//! A run derives [`INPUTS`] problem seeds from the workload seed, assembles
//! one problem per seed with `spec::load_problem` (the set-up), and then
//! solves them round-robin with `aj_core::solve` for the measurement budget.
//! The end-to-end wall times are calibrated to the reference host's speed
//! ([`crate::calib`]); the traced ledger's are raw.
//! Before that, every input is solved once more stage by stage
//! ([`staged`]): the same public calls `aj_core::solve` makes, in its order.
//! That reproduction yields the deterministic counters and the reference
//! iterate every measured solve must match bit for bit, so the ledger is
//! known to describe the very computation the end-to-end number times.

use crate::calib::Calibrator;
use crate::{stats, sub_seeds, timed, Args, Report};
use aj_core::dmsim::shmem_sim::{run_shmem_async, ShmemSimConfig};
use aj_core::dmsim::{run_dist_async_plan, DistConfig, SimOutcome};
use aj_core::linalg::method::ResolvedMethod;
use aj_core::linalg::util::even_ranges;
use aj_core::linalg::{kernel, StorageFormat, SweepKernel};
use aj_core::obs::ObsConfig;
use aj_core::partition::CommPlan;
use aj_core::{prepare_dist_plan, spec, Backend, Problem, SolveOptions};
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The matrix both solve workloads use (19,600 rows, 134,137 nonzeros).
/// Its working set fits the core's own 2 MiB L2; the `medium` scale
/// (101,761 rows) spills into the last-level cache shared with other
/// tenants, where its solve time drifted by a quarter between runs.
pub const MATRIX: &str = "suite:thermomech_dm:small";
/// Relative residual tolerance (L1 norm).
pub const TOL: f64 = 1e-6;
const RANKS: usize = 256;
const WORKERS: usize = 4;
/// Problems per run, each from its own derived seed.
pub const INPUTS: usize = 5;
/// Problems assembled for `setup_s`; the first [`INPUTS`] are solved.
const SETUP_LOADS: usize = 15;
/// Largest |`core.unaccounted_frac`| the traced run accepts: the staged
/// re-run must account for the untraced solve time to within 10%.
pub const LEDGER_TOLERANCE: f64 = 0.10;
/// Whole-matrix kernel passes timed for the sweep-kernel rate.
const KERNEL_PASSES: usize = 60;

/// Which solve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveWorkload {
    /// `dist-async` ×256 ranks, `jacobi`, `csr`.
    Dist256,
    /// `sim-async` ×4 workers, `richardson2:omega=auto`, `format=auto`.
    Shared4R2Auto,
}

impl SolveWorkload {
    fn backend(self) -> Backend {
        match self {
            SolveWorkload::Dist256 => Backend::SimDistributed {
                ranks: RANKS,
                asynchronous: true,
                detect: false,
            },
            SolveWorkload::Shared4R2Auto => Backend::SimShared {
                workers: WORKERS,
                asynchronous: true,
            },
        }
    }

    fn options(self, seed: u64) -> SolveOptions {
        let (method, format) = match self {
            SolveWorkload::Dist256 => ("jacobi", "csr"),
            SolveWorkload::Shared4R2Auto => ("richardson2:omega=auto", "auto"),
        };
        SolveOptions {
            tol: TOL,
            method: spec::parse_method(method).expect("static method selector"),
            format: spec::parse_format(format).expect("static format selector"),
            seed,
            ..Default::default()
        }
    }

    /// The row blocks the engine sweeps: one per rank or worker, split the
    /// way `block_partition` and the shared-memory simulator split rows.
    fn blocks(self, n: usize) -> Vec<Range<usize>> {
        match self {
            SolveWorkload::Dist256 => even_ranges(n, RANKS),
            SolveWorkload::Shared4R2Auto => even_ranges(n, WORKERS),
        }
    }
}

/// What one staged run resolved and produced.
struct Run {
    format: StorageFormat,
    method: ResolvedMethod,
    plan: Option<CommPlan>,
    out: SimOutcome,
    /// Relative residual of `out.x`, recomputed.
    residual: f64,
}

/// One assembled problem of a run with its staged reproduction.
struct Input {
    seed: u64,
    problem: Problem,
    reference: Run,
}

/// Stage times of one solve re-run from outside, in `aj_core::solve`'s
/// order: format selection, method resolution (Lanczos for `omega=auto`),
/// communication plan, engine, final residual.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    format_s: f64,
    lanczos_s: f64,
    plan_s: f64,
    engine_s: f64,
    residual_s: f64,
    /// Wall time around the whole staged sequence, timers included.
    total_s: f64,
}

impl Stages {
    /// The stages the ledger sums against the untraced solve.
    fn sum(&self) -> f64 {
        self.format_s + self.lanczos_s + self.plan_s + self.engine_s + self.residual_s
    }
}

/// Re-runs one solve stage by stage. Returns the stage times and the run.
fn staged(w: SolveWorkload, p: &Problem, seed: u64) -> Result<(Stages, Run), String> {
    let opts = w.options(seed);
    let t0 = Instant::now();
    let (format_s, format) = timed(|| match opts.format {
        StorageFormat::Auto => kernel::auto_select(&p.a),
        f => f,
    });
    let (lanczos_s, resolution) = timed(|| opts.method.resolve_full(&p.a, opts.seed));
    let method = resolution
        .map_err(|e| format!("method {}: {e}", opts.method.name()))?
        .method;
    let (plan_s, plan) = match w {
        SolveWorkload::Dist256 => {
            let (t, plan) = timed(|| prepare_dist_plan(p, RANKS));
            (t, Some(plan))
        }
        SolveWorkload::Shared4R2Auto => (0.0, None),
    };
    let (engine_s, out) =
        timed(|| engine(w, p, &opts, method, format, plan.as_ref(), ObsConfig::off()));
    let (residual_s, residual) = timed(|| p.relative_residual(&out.x, opts.norm));
    let stages = Stages {
        format_s,
        lanczos_s,
        plan_s,
        engine_s,
        residual_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    let run = Run {
        format,
        method,
        plan,
        out,
        residual,
    };
    Ok((stages, run))
}

/// The engine call `aj_core::solve` makes for this backend, configured the
/// way the driver configures it.
fn engine(
    w: SolveWorkload,
    p: &Problem,
    opts: &SolveOptions,
    method: ResolvedMethod,
    format: StorageFormat,
    plan: Option<&CommPlan>,
    obs: ObsConfig,
) -> SimOutcome {
    match w {
        SolveWorkload::Dist256 => {
            let mut cfg = DistConfig::new(p.n(), opts.seed);
            cfg.tol = opts.tol;
            cfg.max_iterations = opts.max_iterations;
            cfg.norm = opts.norm;
            cfg.omega = opts.omega;
            cfg.method = method;
            cfg.format = format;
            cfg.obs = obs;
            let plan = plan.expect("the distributed engine needs its plan");
            run_dist_async_plan(&p.a, &p.b, &p.x0, plan, &cfg)
        }
        SolveWorkload::Shared4R2Auto => {
            let mut cfg = ShmemSimConfig::new(WORKERS, p.n(), opts.seed);
            cfg.tol = opts.tol;
            cfg.max_iterations = opts.max_iterations;
            cfg.norm = opts.norm;
            cfg.omega = opts.omega;
            cfg.method = method;
            cfg.format = format;
            cfg.obs = obs;
            run_shmem_async(&p.a, &p.b, &p.x0, &cfg)
        }
    }
}

/// The deterministic work counters of a run, each the mean over its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// Relaxations per row at the stop (the paper's sweeps-to-tolerance).
    pub sweeps_to_tol: f64,
    /// Simulated time at the stop (the paper's x-axis).
    pub sim_ticks_to_tol: f64,
    /// Row relaxations.
    pub relaxations: f64,
    /// One-sided puts (0 in shared memory).
    pub puts: f64,
    /// Values carried by those puts.
    pub put_values: f64,
}

impl Counters {
    fn of(inputs: &[Input]) -> Counters {
        let mean =
            |f: &dyn Fn(&Input) -> f64| stats::mean(&inputs.iter().map(f).collect::<Vec<_>>());
        Counters {
            sweeps_to_tol: mean(&|i| i.reference.out.relaxations as f64 / i.problem.n() as f64),
            sim_ticks_to_tol: mean(&|i| i.reference.out.time),
            relaxations: mean(&|i| i.reference.out.relaxations as f64),
            puts: mean(&|i| i.reference.out.comm.puts as f64),
            put_values: mean(&|i| i.reference.out.comm.values as f64),
        }
    }
}

/// The counters a run with workload seed `seed` reports, without timing
/// anything.
///
/// # Errors
/// A message when a problem cannot be assembled or a method not resolved.
pub fn counters(w: SolveWorkload, seed: u64) -> Result<Counters, String> {
    let inputs: Vec<Input> = sub_seeds(seed, INPUTS)
        .into_iter()
        .map(|s| input(w, spec::load_problem(MATRIX, s)?, s))
        .collect::<Result<_, String>>()?;
    Ok(Counters::of(&inputs))
}

/// Reproduces the solve of `problem` (assembled from `seed`) once by
/// stages.
fn input(w: SolveWorkload, problem: Problem, seed: u64) -> Result<Input, String> {
    let (_, reference) = staged(w, &problem, seed)?;
    Ok(Input {
        seed,
        problem,
        reference,
    })
}

/// Times the assembly of [`SETUP_LOADS`] problems, then builds the run's
/// [`INPUTS`] and checks that each reproduction converged. Returns the
/// inputs and every assembly time, calibrated by `host`.
fn set_up(
    w: SolveWorkload,
    args: &Args,
    host: &mut Calibrator,
    report: &mut Report,
) -> Result<(Vec<Input>, Vec<f64>), String> {
    let mut load_s = Vec::new();
    let mut inputs = Vec::new();
    for (k, seed) in sub_seeds(args.seed, SETUP_LOADS).into_iter().enumerate() {
        let (t, problem) = host.timed(|| spec::load_problem(MATRIX, seed));
        load_s.push(t);
        let problem = problem?;
        if k >= INPUTS {
            continue;
        }
        let input = input(w, problem, seed)?;
        let residual = input.reference.residual;
        if !(input.reference.out.converged && residual < TOL) {
            report.violate(format!(
                "seed {seed}: staged reproduction stopped at residual {residual:e} (tol {TOL:e})"
            ));
        }
        inputs.push(input);
    }
    Ok((inputs, load_s))
}

/// Solves every input round-robin with `aj_core::solve` until `budget` has
/// passed (at least one round). Returns per-input solve times, calibrated
/// when `host` is given and raw otherwise. Every solve is checked: it must
/// succeed, report convergence, have a recomputed residual below the
/// tolerance, and return the reference iterate bit for bit.
fn solve_rounds(
    w: SolveWorkload,
    inputs: &[Input],
    budget: Duration,
    mut host: Option<&mut Calibrator>,
    report: &mut Report,
) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::new(); inputs.len()];
    let start = Instant::now();
    loop {
        for (i, input) in inputs.iter().enumerate() {
            report.attempted += 1;
            let solve = || aj_core::solve(&input.problem, w.backend(), &w.options(input.seed));
            let (t, rep) = match host.as_deref_mut() {
                Some(host) => host.timed(solve),
                None => timed(solve),
            };
            times[i].push(t);
            let rep = match rep {
                Ok(rep) => rep,
                Err(e) => {
                    report.fail(format!("seed {}: solve failed: {e}", input.seed));
                    continue;
                }
            };
            let residual = input
                .problem
                .relative_residual(&rep.x, w.options(input.seed).norm);
            // Written so that a NaN residual fails too.
            let below_tol = residual < TOL;
            if !rep.converged || !below_tol {
                report.fail(format!(
                    "seed {}: solve reported converged={} with recomputed residual {residual:e} \
                     (tol {TOL:e})",
                    input.seed, rep.converged
                ));
            } else if rep.x != input.reference.out.x {
                report.fail(format!(
                    "seed {}: solve returned a different iterate than the staged reproduction",
                    input.seed
                ));
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    times
}

/// Runs a solve workload.
///
/// # Errors
/// A message when a problem cannot be assembled or a method not resolved.
pub fn run(w: SolveWorkload, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut host = Calibrator::new();
    let (inputs, load_s) = set_up(w, args, &mut host, &mut report)?;
    let counters = Counters::of(&inputs);
    if !args.trace {
        // The high-water mark once every input has been solved: later rounds
        // repeat the same allocations, so only allocator fragmentation, which
        // depends on how many rounds fit in the budget, could move it further.
        let start = Instant::now();
        let mut times = solve_rounds(w, &inputs, Duration::ZERO, Some(&mut host), &mut report);
        report.push("peak_rss_mb", crate::peak_rss_mb()?);
        let budget = Duration::from_secs_f64(args.seconds).saturating_sub(start.elapsed());
        let more = solve_rounds(w, &inputs, budget, Some(&mut host), &mut report);
        for (t, m) in times.iter_mut().zip(more) {
            t.extend(m);
        }
        // Latency is taken per input (its median over the repetitions), so
        // the tail is the spread across inputs: repetitions of one
        // deterministic solve differ only by host noise.
        let per_input_ms: Vec<f64> = times.iter().map(|t| stats::median(t) * 1e3).collect();
        report.push("setup_s", stats::median(&load_s));
        report.push("solve_s", stats::median(&times.concat()));
        report.push("sweeps_to_tol", counters.sweeps_to_tol);
        report.push("sim_ticks_to_tol", counters.sim_ticks_to_tol);
        report.push("jobs_per_s", 1e3 / stats::mean(&per_input_ms));
        report.push("latency_p50_ms", stats::median(&per_input_ms));
        report.push("latency_p99_ms", stats::quantile(&per_input_ms, 0.99));
        return Ok(report);
    }
    trace(w, args, &inputs, &load_s, counters, report)
}

/// One staged re-run of `input`, checked against its reference.
fn staged_checked(w: SolveWorkload, input: &Input, report: &mut Report) -> Result<Stages, String> {
    report.attempted += 1;
    let (stages, run) = staged(w, &input.problem, input.seed)?;
    let below_tol = run.residual < TOL;
    if run.out.x != input.reference.out.x || !below_tol {
        report.fail(format!(
            "seed {}: staged run diverged from its reference (residual {:e})",
            input.seed, run.residual
        ));
    }
    Ok(stages)
}

/// The traced run: untraced solves for the reconciliation baseline, then the
/// staged ledger, the kernel and monitor timings, and the obs pairs.
fn trace(
    w: SolveWorkload,
    args: &Args,
    inputs: &[Input],
    load_s: &[f64],
    counters: Counters,
    mut report: Report,
) -> Result<Report, String> {
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    // Untraced solves and staged re-runs of the same input alternate, which
    // one goes first alternating too, so drift in host speed over the run
    // lands on both sides of the reconciliation alike.
    let mut solve_times: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut stage_runs: Vec<Vec<Stages>> = vec![Vec::new(); inputs.len()];
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed() < budget(0.75) {
        for (i, input) in inputs.iter().enumerate() {
            let one = std::slice::from_ref(input);
            if round % 2 == 1 {
                stage_runs[i].push(staged_checked(w, input, &mut report)?);
            }
            let t = solve_rounds(w, one, Duration::ZERO, None, &mut report);
            solve_times[i].extend(&t[0]);
            if round % 2 == 0 {
                stage_runs[i].push(staged_checked(w, input, &mut report)?);
            }
        }
        round += 1;
    }
    let per_input = |f: fn(&Stages) -> f64| -> Vec<f64> {
        stage_runs
            .iter()
            .map(|runs| stats::median(&runs.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let solve_s: Vec<f64> = solve_times.iter().map(|t| stats::median(t)).collect();
    let stage_sum: f64 = per_input(Stages::sum).iter().sum();
    let traced_total: f64 = per_input(|s| s.total_s).iter().sum();
    let untraced: f64 = solve_s.iter().sum();
    let unaccounted = 1.0 - stage_sum / untraced;
    if unaccounted.abs() > LEDGER_TOLERANCE {
        report.violate(format!(
            "ledger does not reconcile: stages sum to {stage_sum:.4} s against {untraced:.4} s \
             untraced (unaccounted {unaccounted:+.3}, tolerance {LEDGER_TOLERANCE})"
        ));
    }

    // Sweep kernels over the engine's blocks in the resolved format, on the
    // first input (all inputs share the matrix).
    let first = &inputs[0];
    let (p, format) = (&first.problem, first.reference.format);
    let blocks = w.blocks(p.n());
    let build = || -> Result<Vec<SweepKernel>, String> {
        blocks
            .iter()
            .map(|r| SweepKernel::build(&p.a, r.clone(), format).map_err(|e| e.to_string()))
            .collect()
    };
    let mut build_s = Vec::new();
    for _ in 0..3 {
        let (t, kernels) = timed(build);
        black_box(kernels?);
        build_s.push(t);
    }
    let mut kernels = build()?;
    let work_nnz: usize = kernels.iter().map(|k| k.work_nnz(&p.a)).sum();
    let mut out = vec![0.0; p.n()];
    let pass_s: Vec<f64> = (0..KERNEL_PASSES)
        .map(|_| {
            timed(|| {
                for (k, r) in kernels.iter_mut().zip(&blocks) {
                    k.residuals_into(&p.a, black_box(&p.x0), &p.b[r.clone()], &mut out[r.clone()]);
                }
            })
            .0
        })
        .collect();
    black_box(&out);
    let pass_s = stats::median(&pass_s);
    let kernel_sweep_s = pass_s * counters.sweeps_to_tol;

    // The monitor: one relative residual per sample the engine took.
    let residual_s = stats::median(
        &(0..9)
            .map(|_| timed(|| black_box(p.relative_residual(&p.x0, w.options(0).norm))).0)
            .collect::<Vec<_>>(),
    );
    let samples = stats::mean(
        &inputs
            .iter()
            .map(|i| i.reference.out.samples.len() as f64)
            .collect::<Vec<_>>(),
    );
    let monitor_s = residual_s * samples;

    // Observability overhead: engine runs alternating off / sampled(16),
    // which one goes first alternating too; the median pair ratio.
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < 3 || start.elapsed() < budget(0.25) {
        let input = &inputs[ratios.len() % inputs.len()];
        let opts = w.options(input.seed);
        let run = |obs| {
            timed(|| {
                black_box(engine(
                    w,
                    &input.problem,
                    &opts,
                    input.reference.method,
                    input.reference.format,
                    input.reference.plan.as_ref(),
                    obs,
                ))
            })
            .0
        };
        let (off, on) = if ratios.len() % 2 == 0 {
            let off = run(ObsConfig::off());
            (off, run(ObsConfig::sampled(16)))
        } else {
            let on = run(ObsConfig::sampled(16));
            (run(ObsConfig::off()), on)
        };
        ratios.push(on / off);
    }

    let engine_s = stats::mean(&per_input(|s| s.engine_s));
    let n_inputs = inputs.len() as f64;
    report.push("matgen.assemble_s", stats::median(load_s));
    report.push("partition.plan_s", stats::mean(&per_input(|s| s.plan_s)));
    report.push(
        "partition.ghost_values",
        first
            .reference
            .plan
            .as_ref()
            .map_or(0, CommPlan::total_volume) as f64,
    );
    report.push("linalg.lanczos_s", stats::mean(&per_input(|s| s.lanczos_s)));
    report.push("linalg.kernel_build_s", stats::median(&build_s));
    report.push("linalg.kernel_sweep_s", kernel_sweep_s);
    report.push("linalg.kernel_work_nnz", work_nnz as f64);
    report.push(
        "linalg.kernel_gbps_computed",
        (work_nnz as f64 * 12.0 + 3.0 * p.n() as f64 * 8.0) / pass_s / 1e9,
    );
    report.push("dmsim.engine_s", engine_s);
    report.push("dmsim.monitor_s", monitor_s);
    report.push("dmsim.event_loop_s", engine_s - kernel_sweep_s - monitor_s);
    report.push("dmsim.relaxations", counters.relaxations);
    report.push("dmsim.puts", counters.puts);
    report.push("dmsim.put_values", counters.put_values);
    report.push("obs.overhead_frac", stats::median(&ratios) - 1.0);
    report.push("core.solve_s", untraced / n_inputs);
    report.push("core.unaccounted_frac", unaccounted);
    report.push("core.trace_overhead_frac", traced_total / untraced - 1.0);
    Ok(report)
}
