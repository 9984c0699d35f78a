//! One entry point over every solver backend.
//!
//! Library users who just want "solve this system (a)synchronously and give
//! me the history" can use [`solve`] instead of learning each sub-crate's
//! API. The figure benches drive the sub-crates directly for fine control.

use crate::outer::{run_outer, Hierarchy, OuterKind, OuterReport, OuterSpec};
use crate::problem::Problem;
use aj_control::{ControlConfig, ControlSpec, ControlStats};
use aj_dmsim::monitor::{CommVolume, Sample};
use aj_dmsim::shmem_sim::{run_shmem_async, run_shmem_sync, ShmemSimConfig};
use aj_dmsim::{
    run_dist_async_plan, run_dist_sync_plan, DistConfig, FaultPlan, FaultStats,
    TerminationProtocol, TerminationStats,
};
use aj_linalg::method::{sync_solve, Method, ResolvedMethod, SafeInterval};
use aj_linalg::vecops::Norm;
use aj_linalg::{krylov, sweeps, StorageFormat};
use aj_net::{run_net, NetConfig};
use aj_obs::{ObsConfig, Snapshot};
use aj_partition::{block_partition, CommPlan};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// Sequential synchronous Jacobi (the reference).
    Jacobi,
    /// Sequential Gauss–Seidel.
    GaussSeidel,
    /// Conjugate Gradients (SPD baseline).
    ConjugateGradient,
    /// Real `std::thread` asynchronous Jacobi with `workers` threads.
    AsyncThreads {
        /// Worker thread count.
        workers: usize,
    },
    /// Simulated shared-memory threads.
    SimShared {
        /// Simulated worker count.
        workers: usize,
        /// Barriered (synchronous) or racy (asynchronous).
        asynchronous: bool,
    },
    /// Simulated distributed ranks (one-sided puts).
    SimDistributed {
        /// Rank count.
        ranks: usize,
        /// Barriered (synchronous) or racy (asynchronous).
        asynchronous: bool,
        /// Stop through the termination-detection protocol rather than the
        /// omniscient monitor (asynchronous only).
        detect: bool,
    },
    /// Real distributed ranks: one OS process per rank exchanging
    /// element-atomic ghost puts over loopback TCP (`aj-net`). Always
    /// asynchronous and always stops through the termination-detection
    /// protocol (there is no omniscient monitor across processes).
    Net {
        /// Rank (child process) count.
        ranks: usize,
    },
}

/// What a backend honours, one row of the table in
/// [`Backend::capabilities`]. [`solve`] rejects every option a backend
/// would otherwise ignore, so each accepted option takes effect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// Runs any relaxation method and weight ω (every backend but
    /// Gauss–Seidel and CG, which run their own iterations).
    pub methods: bool,
    /// Sweeps non-CSR storage formats (the asynchronous block engines).
    pub formats: bool,
    /// Runs the closed-loop controller.
    pub control: bool,
    /// Injects fault plans: every kind on dist-async, crashes without
    /// recovery on net.
    pub faults: bool,
    /// Paces its sweeps ([`SolveOptions::pace_us`]).
    pub pacing: bool,
    /// Stops through the termination-detection protocol, and so honours
    /// [`SolveOptions::staleness_timeout`].
    pub detection: bool,
    /// Can run the fixed-count inner sweeps of an outer solve.
    pub inner: bool,
}

impl Backend {
    /// The backend's row of the capability table: the one place that says
    /// which options each backend honours.
    pub fn capabilities(&self) -> Capabilities {
        let jacobi_family = Capabilities {
            methods: true,
            inner: true,
            ..Capabilities::default()
        };
        let block_async = Capabilities {
            formats: true,
            control: true,
            ..jacobi_family
        };
        match *self {
            Backend::GaussSeidel | Backend::ConjugateGradient => Capabilities::default(),
            Backend::Jacobi
            | Backend::SimShared {
                asynchronous: false,
                ..
            } => jacobi_family,
            Backend::AsyncThreads { .. } | Backend::SimShared { .. } => block_async,
            Backend::SimDistributed {
                asynchronous: false,
                detect,
                ..
            } => Capabilities {
                inner: !detect,
                ..jacobi_family
            },
            Backend::SimDistributed { detect, .. } => Capabilities {
                faults: true,
                detection: detect,
                inner: !detect,
                ..block_async
            },
            Backend::Net { .. } => Capabilities {
                methods: true,
                formats: true,
                faults: true,
                pacing: true,
                detection: true,
                ..Capabilities::default()
            },
        }
    }
}

/// Common solve options.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap (per worker for parallel backends).
    pub max_iterations: u64,
    /// Residual norm.
    pub norm: Norm,
    /// Weight of plain Jacobi: the standalone `jacobi` method, or an outer
    /// solve's `jacobi` smoother. A value other than 1 is rejected for any
    /// other relaxation (which carries its own weight in its selector) and
    /// on Gauss–Seidel and CG.
    pub omega: f64,
    /// Relaxation method (see [`aj_linalg::method`] and
    /// [`crate::spec::parse_method`]). The default [`Method::Jacobi`] keeps
    /// every backend on its classic path; non-default methods are honoured
    /// by the Jacobi-family backends (sequential Jacobi, real threads, and
    /// both simulators) and rejected by Gauss–Seidel and CG. `omega=auto`
    /// variants estimate the preconditioned spectrum from the problem's
    /// matrix at solve time.
    pub method: Method,
    /// Sweep storage format (see [`aj_linalg::kernel`] and
    /// [`crate::spec::parse_format`]). The default [`StorageFormat::Csr`]
    /// keeps every backend on its classic scalar loop, bit-identically.
    /// Non-default formats are honoured by the asynchronous block engines
    /// (real threads, both simulators' async modes, and net) and rejected
    /// elsewhere rather than silently ignored.
    pub format: StorageFormat,
    /// Seed for simulated-backend jitter.
    pub seed: u64,
    /// Fault injection for the asynchronous simulated distributed backend
    /// (crashes, stalls, lossy links) and — crashes only, no recovery —
    /// the real-process [`Backend::Net`], where a crash at time `at`
    /// kills the child process `at` milliseconds after the solve starts.
    /// Any other backend rejects a non-empty plan rather than silently
    /// ignoring it.
    pub faults: Option<FaultPlan>,
    /// Override for the termination protocol's report staleness timeout
    /// (`None` keeps the protocol default of "never presume a rank
    /// dead"). Units follow the backend's clock: simulated time units for
    /// [`Backend::SimDistributed`] with `detect`, wall-clock **seconds**
    /// for [`Backend::Net`]. Backends without termination detection
    /// reject it.
    pub staleness_timeout: Option<f64>,
    /// Per-sweep pacing for [`Backend::Net`] in microseconds (`None`
    /// keeps the crate default). Pacing keeps put latency under the
    /// sweep period — the staleness regime the paper's model (and the
    /// termination protocol's inconsistent-read safety factor) covers.
    /// Any other backend rejects an explicit value rather than silently
    /// ignoring it.
    pub pace_us: Option<u64>,
    /// Observability recording (off by default; zero overhead when off).
    /// Honoured by the parallel backends — real threads and both simulators;
    /// the sequential reference sweeps have nothing useful to record and
    /// leave [`SolveReport::metrics`] as `None`.
    pub obs: ObsConfig,
    /// Prebuilt communication plan for [`Backend::SimDistributed`] and
    /// [`Backend::Net`]: the block partition and ghost/send lists derived
    /// from the problem's matrix. Must have been built for *this* problem's matrix with
    /// [`prepare_dist_plan`] (or equivalent) and a part count equal to the
    /// backend's `ranks` — mismatched part counts are rejected. `None`
    /// (the default) builds the plan per call; the `aj-serve` plan cache
    /// passes a cached one to skip the O(nnz) assembly on repeat solves.
    pub plan: Option<Arc<CommPlan>>,
    /// Outer solve (`None` = classic standalone run, bit-identical to the
    /// pre-outer build). When set, the backend becomes the *inner* engine:
    /// the outer V-cycle or flexible Krylov loop owns convergence and calls
    /// it for fixed sweep counts (see [`crate::outer`] and
    /// [`crate::spec::parse_outer`]).
    pub outer: Option<OuterSpec>,
    /// Prebuilt multigrid hierarchy for `outer=vcycle`, mirroring `plan`:
    /// must have been built from *this* problem's matrix (row and nonzero
    /// counts are checked). `None` builds it per call; the `aj-serve` plan
    /// cache passes a cached one to skip the O(levels·nnz) coarsening on
    /// repeat solves.
    pub outer_plan: Option<Arc<Hierarchy>>,
    /// Closed-loop controller (see [`aj_control`] and
    /// [`crate::spec::parse_control`]): adapts ω/β toward the delay-safe
    /// window from observed staleness, switches a stalled momentum method
    /// to first-order, sheds persistently stale workers, and can request an
    /// outer rescue that [`solve`] honours by re-running under the default
    /// V-cycle. Honoured by the asynchronous engines (real threads and both
    /// simulators' async modes) and rejected elsewhere. `None` — the
    /// default — keeps every backend bit-identical to its uncontrolled
    /// form.
    pub control: Option<ControlConfig>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-6,
            max_iterations: 100_000,
            norm: Norm::L1,
            omega: 1.0,
            method: Method::Jacobi,
            format: StorageFormat::Csr,
            seed: 2018,
            faults: None,
            staleness_timeout: None,
            pace_us: None,
            obs: ObsConfig::off(),
            plan: None,
            outer: None,
            outer_plan: None,
            control: None,
        }
    }
}

/// Builds the communication plan [`solve`] would build internally for
/// `Backend::SimDistributed { ranks, .. }` or `Backend::Net { ranks }` on
/// this problem: the block partition plus per-rank ghost/send lists. Callers that solve the same
/// problem repeatedly cache the result and pass it via
/// [`SolveOptions::plan`].
pub fn prepare_dist_plan(p: &Problem, ranks: usize) -> CommPlan {
    CommPlan::build(&p.a, &block_partition(p.n(), ranks))
}

/// What a solve produced.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Human-readable backend description.
    pub backend: String,
    /// Final iterate.
    pub x: Vec<f64>,
    /// `(x-axis, relative residual)` curve. The x-axis is iterations for
    /// sequential backends, wall-clock seconds for real threads, and
    /// simulated ticks for simulated backends.
    pub history: Vec<(f64, f64)>,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// True final relative residual (recomputed).
    pub final_residual: f64,
    /// Communication volume incl. drop/duplicate/reorder counts
    /// (simulated distributed backends only).
    pub comm: Option<CommVolume>,
    /// Termination-detection statistics (distributed `detect` runs only).
    pub termination: Option<TerminationStats>,
    /// Fault-injection statistics (faulted distributed runs only).
    pub faults: Option<FaultStats>,
    /// Observability snapshot (counters, staleness/latency histograms,
    /// per-rank timelines) when [`SolveOptions::obs`] enabled recording and
    /// the backend supports it.
    pub metrics: Option<Snapshot>,
    /// Outer-solve summary (hierarchy shape, outer iterations, inner sweep
    /// total) when [`SolveOptions::outer`] was set; `None` on standalone
    /// runs.
    pub outer: Option<OuterReport>,
    /// Controller decision record (decisions, final parameters, shed
    /// workers) when [`SolveOptions::control`] was set; `None` on
    /// uncontrolled runs.
    pub control: Option<ControlStats>,
}

/// Solves `p` with the chosen backend.
///
/// # Errors
/// Returns a message for solver-level failures (e.g. CG breakdown).
pub fn solve(p: &Problem, backend: Backend, opts: &SolveOptions) -> Result<SolveReport, String> {
    let caps = backend.capabilities();
    check_options(caps, opts)?;
    // Plan-time storage-format auto-selection: `format=auto` measures the
    // matrix's row-length statistics and picks the cheapest bit-compatible
    // layout for the asynchronous block engines (SELL-8 when the padding it
    // would add stays under [`aj_linalg::kernel::AUTO_PADDING_MAX`], CSR
    // otherwise). Backends that only run CSR get CSR — auto adapts to the
    // engine rather than erroring like an explicit selector would.
    let (format, auto_picked) = match opts.format {
        StorageFormat::Auto => {
            let picked = if caps.formats {
                aj_linalg::kernel::auto_select(&p.a)
            } else {
                StorageFormat::Csr
            };
            (picked, true)
        }
        f => (f, false),
    };
    // Record which concrete format auto picked so runs are auditable from
    // their metrics alone (only when the backend produced a snapshot).
    let stamp_auto = |mut rep: SolveReport| {
        if auto_picked {
            if let Some(snap) = &mut rep.metrics {
                snap.set_counter(&format!("format_auto_{format}"), 1);
            }
        }
        rep
    };
    // Outer solves invert control: the V-cycle / flexible Krylov loop owns
    // convergence and uses the backend as its inner smoothing engine.
    if let Some(spec) = &opts.outer {
        return run_outer(p, backend, opts, spec, format).map(stamp_auto);
    }
    // Resolve the method once against this problem's matrix (free for the
    // default; `omega=auto` runs the Lanczos spectrum estimate here). The
    // resolution also records the SPD-safe (ω, β) interval the estimate
    // implies, which the controller clamps against.
    let resolution = opts
        .method
        .resolve_full(&p.a, opts.seed)
        .map_err(|e| format!("method {}: {e}", opts.method.name()))?;
    let method = resolution.method;
    // The controller needs the safe interval even when the method resolved
    // without a spectrum estimate (fixed parameters, plain Jacobi): run the
    // estimate at plan time so the in-loop controller never does.
    let control_spec = match &opts.control {
        Some(cfg) => {
            let interval = match resolution.interval {
                Some(iv) => iv,
                None => SafeInterval::estimate(&p.a)
                    .map_err(|e| format!("control interval estimate: {e}"))?,
            };
            Some(ControlSpec {
                cfg: *cfg,
                interval,
            })
        }
        None => None,
    };
    // Tag non-default methods onto the backend label so reports and logs
    // say which update rule actually ran.
    let method_tag = if matches!(method, ResolvedMethod::Jacobi) {
        String::new()
    } else {
        format!(" [{}]", method.label())
    };
    let format_tag = if format == StorageFormat::Csr {
        String::new()
    } else {
        format!(" [{format}]")
    };
    // `last` is the engine's own residual of its final iterate, when it has
    // one (its last sample or history entry).
    let report = |label: String, x: Vec<f64>, history: Vec<(f64, f64)>, last: Option<f64>| {
        let final_residual = p.final_residual(&x, opts.norm, last);
        SolveReport {
            backend: label,
            converged: final_residual < opts.tol,
            x,
            history,
            final_residual,
            comm: None,
            termination: None,
            faults: None,
            metrics: None,
            outer: None,
            control: None,
        }
    };
    let sweep_curve = |history: &[f64]| -> Vec<(f64, f64)> {
        history
            .iter()
            .enumerate()
            .map(|(k, &r)| (k as f64, r))
            .collect()
    };
    let sampled_curve = |samples: &[Sample]| -> (Vec<(f64, f64)>, Option<f64>) {
        let curve = samples.iter().map(|s| (s.time, s.residual)).collect();
        (curve, samples.last().map(|s| s.residual))
    };
    let rep: Result<SolveReport, String> = match backend {
        Backend::Jacobi => {
            let out = sync_solve(
                &p.a,
                &p.b,
                &p.x0,
                &method.fold_omega(opts.omega),
                opts.tol,
                opts.max_iterations as usize,
                opts.norm,
            )
            .map_err(|e| e.to_string())?;
            let label = match method {
                ResolvedMethod::Jacobi if opts.omega == 1.0 => "Jacobi".into(),
                ResolvedMethod::Jacobi => format!("damped Jacobi (ω={})", opts.omega),
                _ => format!("sequential{method_tag}"),
            };
            let last = out.history.last().copied();
            Ok(report(label, out.x, sweep_curve(&out.history), last))
        }
        Backend::GaussSeidel => {
            let (x, hist) = sweeps::gauss_seidel_solve(
                &p.a,
                &p.b,
                &p.x0,
                opts.tol,
                opts.max_iterations as usize,
                opts.norm,
            )
            .map_err(|e| e.to_string())?;
            let last = hist.last().copied();
            Ok(report("Gauss–Seidel".into(), x, sweep_curve(&hist), last))
        }
        Backend::ConjugateGradient => {
            let r = krylov::conjugate_gradient(
                &p.a,
                &p.b,
                &p.x0,
                opts.tol,
                opts.max_iterations as usize,
                opts.norm,
            )
            .map_err(|e| e.to_string())?;
            // CG's history follows the recurrence residual, which drifts
            // from the true one: recompute.
            Ok(report(
                "Conjugate Gradients".into(),
                r.x,
                sweep_curve(&r.history),
                None,
            ))
        }
        Backend::AsyncThreads { workers } => {
            let cfg = aj_shmem::ShmemConfig {
                num_threads: workers,
                tol: opts.tol,
                max_iterations: opts.max_iterations as usize,
                norm: opts.norm,
                mode: aj_shmem::Mode::Asynchronous,
                omega: opts.omega,
                method,
                format,
                obs: opts.obs,
                control: control_spec,
                ..Default::default()
            };
            let out = aj_shmem::solver::run(&p.a, &p.b, &p.x0, &cfg);
            // The threads engine recomputes its final residual itself.
            let mut rep = report(
                format!("async threads ×{workers}{method_tag}{format_tag}"),
                out.x,
                out.residual_history,
                Some(out.final_residual),
            );
            rep.metrics = out.obs;
            rep.control = out.control;
            Ok(rep)
        }
        Backend::SimShared {
            workers,
            asynchronous,
        } => {
            let mut cfg = ShmemSimConfig::new(workers, p.n(), opts.seed);
            cfg.tol = opts.tol;
            cfg.max_iterations = opts.max_iterations;
            cfg.norm = opts.norm;
            cfg.omega = opts.omega;
            cfg.method = method;
            cfg.format = format;
            cfg.obs = opts.obs;
            cfg.control = control_spec;
            let out = if asynchronous {
                run_shmem_async(&p.a, &p.b, &p.x0, &cfg)
            } else {
                run_shmem_sync(&p.a, &p.b, &p.x0, &cfg)
            };
            let (curve, last) = sampled_curve(&out.samples);
            let kind = if asynchronous { "async" } else { "sync" };
            let mut rep = report(
                format!("simulated {kind} threads ×{workers}{method_tag}{format_tag}"),
                out.x,
                curve,
                last,
            );
            rep.metrics = out.obs;
            rep.control = out.control;
            Ok(rep)
        }
        Backend::SimDistributed {
            ranks,
            asynchronous,
            detect,
        } => {
            let plan = match &opts.plan {
                Some(plan) if plan.nparts() == ranks => Arc::clone(plan),
                Some(plan) => {
                    return Err(format!(
                        "precomputed plan has {} parts but the backend wants {ranks} ranks",
                        plan.nparts()
                    ));
                }
                None => Arc::new(prepare_dist_plan(p, ranks)),
            };
            let mut cfg = DistConfig::new(p.n(), opts.seed);
            cfg.tol = opts.tol;
            cfg.max_iterations = opts.max_iterations;
            cfg.norm = opts.norm;
            cfg.omega = opts.omega;
            cfg.method = method;
            cfg.format = format;
            cfg.obs = opts.obs;
            if detect && asynchronous {
                let mut proto = TerminationProtocol::default();
                if let Some(timeout) = opts.staleness_timeout {
                    proto.staleness_timeout = timeout;
                }
                cfg.termination = Some(proto);
            }
            if asynchronous {
                cfg.faults = opts.faults.clone();
                cfg.control = control_spec;
            }
            let out = if asynchronous {
                run_dist_async_plan(&p.a, &p.b, &p.x0, &plan, &cfg)
            } else {
                run_dist_sync_plan(&p.a, &p.b, &p.x0, &plan, &cfg)
            };
            let (curve, last) = sampled_curve(&out.samples);
            let kind = if asynchronous { "async" } else { "sync" };
            let mut rep = report(
                format!("simulated {kind} ranks ×{ranks}{method_tag}{format_tag}"),
                out.x,
                curve,
                last,
            );
            rep.comm = Some(out.comm);
            rep.termination = out.termination;
            rep.faults = out.faults;
            rep.metrics = out.obs;
            rep.control = out.control;
            Ok(rep)
        }
        Backend::Net { ranks } => {
            let plan = match &opts.plan {
                Some(plan) if plan.nparts() == ranks => Arc::clone(plan),
                Some(plan) => {
                    return Err(format!(
                        "precomputed plan has {} parts but the backend wants {ranks} ranks",
                        plan.nparts()
                    ));
                }
                None => Arc::new(prepare_dist_plan(p, ranks)),
            };
            let mut cfg = NetConfig::new(ranks);
            cfg.tol = opts.tol;
            cfg.max_iterations = opts.max_iterations;
            cfg.omega = opts.omega;
            cfg.method = method;
            cfg.format = format;
            cfg.seed = opts.seed;
            cfg.obs = opts.obs;
            if let Some(timeout) = opts.staleness_timeout {
                // Wall-clock seconds for real processes (the simulator's
                // timeout is in simulated ticks).
                cfg.staleness_timeout = timeout;
            }
            if let Some(pace) = opts.pace_us {
                cfg.pace_us = pace;
            }
            if let Some(faults) = &opts.faults {
                // Real processes can only die: a crash kills the child
                // `at` milliseconds after the solve starts. Recovery,
                // stalls, and link rules are simulator-only affordances.
                if !faults.stalls.is_empty() || !faults.links.is_empty() {
                    return Err(
                        "the net backend supports crash faults only (no stalls or link rules)"
                            .into(),
                    );
                }
                for crash in &faults.crashes {
                    if crash.recover_after.is_some() {
                        return Err(format!(
                            "the net backend cannot recover a killed process \
                             (crash of rank {} specifies a recovery)",
                            crash.rank
                        ));
                    }
                    cfg.hooks.kills.push((crash.rank, crash.at as u64));
                }
            }
            let out = run_net(&p.a, &p.b, &p.x0, &plan, &cfg)?;
            // The parent samples while the ranks still run: recompute.
            let mut rep = report(
                format!("net processes ×{ranks}{method_tag}{format_tag}"),
                out.x,
                out.history,
                None,
            );
            rep.comm = Some(out.comm);
            rep.termination = Some(out.termination);
            rep.metrics = out.obs;
            Ok(rep)
        }
    };
    let rep = stamp_auto(rep?);
    // Controller-requested rescue: the stalled standalone run is abandoned
    // and the solve escalates to the default V-cycle outer around the same
    // backend (control off — the outer loop owns convergence from here).
    // The stalled run's decision record is kept on the rescued report so
    // callers see why the escalation happened.
    if let Some(stats) = &rep.control {
        if stats.rescue_requested && !rep.converged {
            if opts.faults.as_ref().is_some_and(|f| !f.is_empty()) {
                // Outer solves reject fault plans; surface the stalled run
                // and its decision record rather than silently dropping
                // the faults for the rescue.
                return Ok(rep);
            }
            let mut rescue_opts = opts.clone();
            rescue_opts.control = None;
            // The stalled method and its weight are abandoned; the
            // V-cycle's smoother is the outer selector's own
            // (spectrum-damped Richardson).
            rescue_opts.method = Method::Jacobi;
            rescue_opts.omega = 1.0;
            rescue_opts.outer = Some(OuterSpec {
                kind: OuterKind::VCycle {
                    levels: None,
                    steps: OuterSpec::DEFAULT_STEPS,
                },
                smooth: OuterSpec::default_smooth(),
            });
            let mut rescued = solve(p, backend, &rescue_opts)?;
            rescued.backend = format!("{} → rescue: {}", rep.backend, rescued.backend);
            rescued.control = rep.control;
            return Ok(rescued);
        }
    }
    Ok(rep)
}

/// Rejects every option the backend with capabilities `caps` would not
/// honour, and every combination of options that cannot take effect
/// together, before any plan, spectrum estimate or hierarchy is built.
/// The outer-only checks live in [`run_outer`].
fn check_options(caps: Capabilities, opts: &SolveOptions) -> Result<(), String> {
    let faulted = opts.faults.as_ref().is_some_and(|f| !f.is_empty());
    // The relaxation that runs: the outer smoother under an outer solve.
    let relaxation = opts.outer.as_ref().map_or(opts.method, |o| o.smooth);
    ensure(caps.methods || opts.method == Method::Jacobi, || {
        format!(
            "method {} applies to the Jacobi-family backends only (gs and cg run \
             their own iteration)",
            opts.method.to_spec()
        )
    })?;
    ensure(caps.methods || opts.omega == 1.0, || {
        format!("omega={} does not apply to gs or cg", opts.omega)
    })?;
    ensure(opts.omega == 1.0 || relaxation == Method::Jacobi, || {
        format!(
            "omega={} weights plain Jacobi only, and the relaxation that runs is {} \
             (set its weight in the selector instead)",
            opts.omega,
            relaxation.to_spec()
        )
    })?;
    ensure(
        caps.formats || matches!(opts.format, StorageFormat::Csr | StorageFormat::Auto),
        || {
            format!(
                "format {} applies to the asynchronous block engines only (async-threads, \
             sim-async, dist-async, net)",
                opts.format
            )
        },
    )?;
    ensure(caps.faults || !faulted, || {
        "fault injection requires the asynchronous simulated distributed backend \
         or the real-process net backend"
            .into()
    })?;
    ensure(caps.pacing || opts.pace_us.is_none(), || {
        "sweep pacing (--pace) applies to the net backend only".into()
    })?;
    ensure(caps.detection || opts.staleness_timeout.is_none(), || {
        "the staleness timeout (--staleness) applies only where termination detection \
         runs: dist-async with detect, or net"
            .into()
    })?;
    ensure(caps.control || opts.control.is_none(), || {
        "the controller (--control) applies to the asynchronous engines only \
         (real threads and the simulators' async modes)"
            .into()
    })?;
    ensure(opts.control.is_none() || opts.outer.is_none(), || {
        "--control conflicts with --outer: inner solves run fixed sweep counts, \
         so there is no convergence loop for the controller to observe \
         (a controller-requested rescue escalates to --outer by itself)"
            .into()
    })?;
    ensure(opts.outer_plan.is_none() || opts.outer.is_some(), || {
        "a precomputed hierarchy (outer_plan) requires outer=vcycle".into()
    })
}

/// `Ok` when `ok`, otherwise the rejection `what()`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> Problem {
        let a = aj_matrices::fd::laplacian_2d(10, 10);
        Problem::from_matrix("fd-10x10", a, 7).unwrap()
    }

    #[test]
    fn every_backend_solves_the_poisson_problem() {
        let p = problem();
        let opts = SolveOptions {
            tol: 1e-6,
            ..Default::default()
        };
        for backend in [
            Backend::Jacobi,
            Backend::GaussSeidel,
            Backend::ConjugateGradient,
            Backend::AsyncThreads { workers: 3 },
            Backend::SimShared {
                workers: 10,
                asynchronous: true,
            },
            Backend::SimShared {
                workers: 10,
                asynchronous: false,
            },
            Backend::SimDistributed {
                ranks: 5,
                asynchronous: true,
                detect: false,
            },
            Backend::SimDistributed {
                ranks: 5,
                asynchronous: true,
                detect: true,
            },
            Backend::SimDistributed {
                ranks: 5,
                asynchronous: false,
                detect: false,
            },
        ] {
            let r = solve(&p, backend, &opts).unwrap_or_else(|e| panic!("{backend:?}: {e}"));
            assert!(
                r.converged,
                "{} failed: residual {}",
                r.backend, r.final_residual
            );
            assert!(!r.history.is_empty());
        }
    }

    #[test]
    fn faulted_distributed_solve_surfaces_fault_accounting() {
        let p = problem();
        let opts = SolveOptions {
            tol: 1e-4,
            faults: Some(
                FaultPlan::new(1)
                    .with_crash(2, 5_000.0, Some(4_000.0))
                    .with_link(aj_dmsim::LinkFault {
                        drop: 0.05,
                        ..aj_dmsim::LinkFault::everywhere()
                    }),
            ),
            ..Default::default()
        };
        let backend = Backend::SimDistributed {
            ranks: 5,
            asynchronous: true,
            detect: false,
        };
        let r = solve(&p, backend, &opts).unwrap();
        let faults = r.faults.expect("fault stats must surface");
        assert_eq!(faults.crash_times.len(), 1);
        assert_eq!(faults.recovery_times.len(), 1);
        assert!(r.comm.expect("comm stats must surface").drops > 0);
        // Every other backend rejects a non-empty plan instead of silently
        // ignoring it.
        assert!(solve(&p, Backend::Jacobi, &opts).is_err());
        let sync_dist = Backend::SimDistributed {
            ranks: 5,
            asynchronous: false,
            detect: false,
        };
        assert!(solve(&p, sync_dist, &opts).is_err());
    }

    #[test]
    fn net_backend_rejects_simulator_only_faults() {
        // These rejections fire before any process is spawned, so the test
        // is hermetic. (End-to-end net solves live in the aj-cli and
        // aj-net test suites, which can point AJ_NET_CHILD at a binary
        // with the `_rank` entrypoint.)
        let p = problem();
        let net = Backend::Net { ranks: 4 };
        let with_faults = |f: FaultPlan| SolveOptions {
            faults: Some(f),
            ..Default::default()
        };
        let err = solve(
            &p,
            net,
            &with_faults(FaultPlan::new(1).with_stall(1, 100.0, 50.0)),
        )
        .unwrap_err();
        assert!(err.contains("crash faults only"), "{err}");
        let err = solve(
            &p,
            net,
            &with_faults(FaultPlan::new(1).with_link(aj_dmsim::LinkFault::everywhere())),
        )
        .unwrap_err();
        assert!(err.contains("crash faults only"), "{err}");
        let err = solve(
            &p,
            net,
            &with_faults(FaultPlan::new(1).with_crash(2, 100.0, Some(50.0))),
        )
        .unwrap_err();
        assert!(err.contains("cannot recover"), "{err}");
        // A mismatched precomputed plan is caught before spawning too.
        let opts = SolveOptions {
            plan: Some(Arc::new(prepare_dist_plan(&p, 5))),
            ..Default::default()
        };
        assert!(solve(&p, net, &opts).is_err());
    }

    #[test]
    fn obs_flows_through_every_parallel_backend() {
        let p = problem();
        let opts = SolveOptions {
            tol: 1e-4,
            obs: ObsConfig::sampled(4),
            ..Default::default()
        };
        for backend in [
            Backend::AsyncThreads { workers: 2 },
            Backend::SimShared {
                workers: 4,
                asynchronous: true,
            },
            Backend::SimDistributed {
                ranks: 4,
                asynchronous: true,
                detect: false,
            },
        ] {
            let r = solve(&p, backend, &opts).unwrap();
            let snap = r
                .metrics
                .unwrap_or_else(|| panic!("{backend:?} dropped the obs snapshot"));
            assert!(
                snap.counters.get("relaxations").copied().unwrap_or(0) > 0,
                "{backend:?} recorded no relaxations"
            );
        }
        // Sequential backends have nothing to record; obs is silently off.
        let r = solve(&p, Backend::Jacobi, &opts).unwrap();
        assert!(r.metrics.is_none());
        // And the default (off) records nothing on parallel backends either.
        let r = solve(
            &p,
            Backend::SimDistributed {
                ranks: 4,
                asynchronous: true,
                detect: false,
            },
            &SolveOptions {
                tol: 1e-4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.metrics.is_none());
    }

    #[test]
    fn precomputed_plan_matches_per_call_build_and_rejects_mismatch() {
        let p = problem();
        let backend = Backend::SimDistributed {
            ranks: 5,
            asynchronous: true,
            detect: false,
        };
        let fresh = solve(&p, backend, &SolveOptions::default()).unwrap();
        let opts = SolveOptions {
            plan: Some(Arc::new(prepare_dist_plan(&p, 5))),
            ..Default::default()
        };
        let cached = solve(&p, backend, &opts).unwrap();
        // The plan is pure derived state: reusing it must not change a bit.
        assert_eq!(fresh.x, cached.x);
        assert_eq!(fresh.history, cached.history);
        let wrong = SolveOptions {
            plan: Some(Arc::new(prepare_dist_plan(&p, 4))),
            ..Default::default()
        };
        assert!(solve(&p, backend, &wrong).is_err());
    }

    #[test]
    fn methods_flow_through_every_jacobi_family_backend() {
        let p = problem();
        for selector in [
            "richardson1:omega=0.9",
            "richardson2:omega=1.0:beta=0.3",
            "rwr:fraction=0.5",
        ] {
            let opts = SolveOptions {
                tol: 1e-5,
                method: crate::spec::parse_method(selector).unwrap(),
                ..Default::default()
            };
            for backend in [
                Backend::Jacobi,
                Backend::AsyncThreads { workers: 2 },
                Backend::SimShared {
                    workers: 4,
                    asynchronous: true,
                },
                Backend::SimShared {
                    workers: 4,
                    asynchronous: false,
                },
                Backend::SimDistributed {
                    ranks: 4,
                    asynchronous: true,
                    detect: false,
                },
                Backend::SimDistributed {
                    ranks: 4,
                    asynchronous: false,
                    detect: false,
                },
            ] {
                let r = solve(&p, backend, &opts)
                    .unwrap_or_else(|e| panic!("{selector} on {backend:?}: {e}"));
                assert!(
                    r.converged,
                    "{selector} on {} failed: {}",
                    r.backend, r.final_residual
                );
                let name = opts.method.name();
                assert!(
                    r.backend.contains(name),
                    "label '{}' must name the method {name}",
                    r.backend
                );
            }
            // Non-Jacobi-family backends reject the method instead of
            // silently running their own iteration.
            assert!(solve(&p, Backend::GaussSeidel, &opts).is_err());
            assert!(solve(&p, Backend::ConjugateGradient, &opts).is_err());
        }
    }

    #[test]
    fn omega_auto_momentum_beats_plain_jacobi_in_iterations() {
        let p = problem();
        let opts = SolveOptions {
            method: crate::spec::parse_method("richardson2:omega=auto").unwrap(),
            ..Default::default()
        };
        let r2 = solve(&p, Backend::Jacobi, &opts).unwrap();
        let j = solve(&p, Backend::Jacobi, &SolveOptions::default()).unwrap();
        assert!(r2.converged && j.converged);
        assert!(
            r2.history.len() * 2 < j.history.len(),
            "momentum {} vs jacobi {} iterations",
            r2.history.len(),
            j.history.len()
        );
    }

    #[test]
    fn cg_is_the_fastest_in_iterations() {
        let p = problem();
        let opts = SolveOptions::default();
        let cg = solve(&p, Backend::ConjugateGradient, &opts).unwrap();
        let j = solve(&p, Backend::Jacobi, &opts).unwrap();
        assert!(cg.history.len() < j.history.len() / 5);
    }

    #[test]
    fn damped_backend_label_and_behaviour() {
        let p = problem();
        let opts = SolveOptions {
            omega: 0.8,
            tol: 1e-5,
            ..Default::default()
        };
        let r = solve(&p, Backend::Jacobi, &opts).unwrap();
        assert!(r.backend.contains("ω=0.8"));
        assert!(r.converged);
    }

    #[test]
    fn cg_breakdown_is_reported_as_error() {
        let a = aj_linalg::CsrMatrix::from_diagonal(&[1.0, 1.0]);
        // Make it indefinite *after* unit scaling is impossible; build the
        // problem manually with an indefinite matrix instead.
        let _ = a;
        let indefinite = {
            let mut coo = aj_linalg::CooMatrix::new(2, 2);
            coo.push(0, 0, 1.0);
            coo.push(1, 1, 1.0);
            coo.push_sym(0, 1, 2.0); // eigenvalues −1 and 3
            coo.to_csr()
        };
        // b = [1, −1] is the eigenvector with eigenvalue −1, so the very
        // first pᵀAp is negative.
        let p = Problem {
            name: "indef".into(),
            a: indefinite,
            b: vec![1.0, -1.0],
            x0: vec![0.0, 0.0],
        };
        let r = solve(&p, Backend::ConjugateGradient, &SolveOptions::default());
        assert!(r.is_err());
    }
}
