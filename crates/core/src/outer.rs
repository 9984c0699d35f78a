//! Outer-solve dispatch: runs `aj-outer`'s V-cycle and flexible Krylov
//! loops with the execution engines plugged in as inner smoothers.
//!
//! The composition inverts the usual driver flow: instead of an engine
//! owning the whole solve, the outer loop owns convergence and calls the
//! engine for `K` relaxation sweeps on a residual equation `A z = r` at a
//! time (`max_iterations = K`, start from zero). The simulators run those
//! sweeps [`StopRule::Unmonitored`]: the outer loop measures the residual
//! itself, so the inner runs take no residual samples. Inner sweeps
//! run as asynchronously as the chosen backend allows; the only
//! synchronization points are the coarse-grid transfers (V-cycle) and the
//! Krylov recurrence (FCG/FGMRES).

use crate::driver::{dist_plan, Backend, SolveOptions, SolveReport};
use crate::problem::Problem;
use aj_dmsim::shmem_sim::{run_shmem_async, run_shmem_sync, ShmemSimConfig, StopRule};
use aj_dmsim::{run_dist_async_plan, run_dist_sync_plan, DistConfig};
use aj_linalg::method::{Method, OmegaSpec, ResolvedMethod};
use aj_linalg::vecops::Norm;
use aj_linalg::{CsrMatrix, StorageFormat};
use aj_obs::{ObsConfig, Snapshot};
use aj_outer::{flex, smoothing_method, vcycle, ReferenceSmoother, Smoother};
use aj_partition::CommPlan;
use std::sync::Arc;

pub use aj_outer::{Hierarchy, OuterKind, OuterSpec};

/// Outer-solve summary attached to [`SolveReport::outer`].
#[derive(Debug, Clone)]
pub struct OuterReport {
    /// Canonical outer selector that ran ([`OuterSpec::to_spec`]).
    pub spec: String,
    /// `(rows, nnz)` per hierarchy level, finest first. The Krylov kinds
    /// work on the fine grid only and report a single entry.
    pub levels: Vec<(usize, usize)>,
    /// Outer iterations executed (V-cycles or Krylov steps).
    pub iterations: u64,
    /// Total inner relaxation sweeps spent in the smoother, across all
    /// levels and outer iterations.
    pub inner_sweeps: u64,
}

/// Per-hierarchy-level memoized state: the resolved method (Lanczos ω
/// estimation runs once per level, not once per smoothing call) and, for
/// the distributed engine, the communication plan.
struct LevelState {
    method: ResolvedMethod,
    plan: Option<Arc<CommPlan>>,
}

/// [`Smoother`] adapter that runs one of the execution engines for `steps`
/// sweeps per call: the sequential dense reference ([`ReferenceSmoother`])
/// for `sync`, the backend's own engine otherwise. `smoothing = true`
/// (V-cycle position) re-targets `omega=auto` to the oscillatory half-band
/// via [`smoothing_method`]; `false` (Krylov preconditioner position) keeps
/// the standalone rule.
struct EngineSmoother {
    backend: Backend,
    method: Method,
    smoothing: bool,
    seed: u64,
    format: StorageFormat,
    norm: Norm,
    obs: ObsConfig,
    /// Fine-level plan passed down from [`SolveOptions::plan`] (serve's
    /// plan cache); reused at level 0 when its part count matches.
    fine_plan: Option<Arc<CommPlan>>,
    levels: Vec<Option<LevelState>>,
    reference: Option<ReferenceSmoother>,
    /// Merged counters/histograms from every inner run (timelines are
    /// dropped: each inner run restarts its clock, so lanes from different
    /// smoothing calls would interleave meaninglessly).
    snap: Snapshot,
}

impl EngineSmoother {
    fn new(
        backend: Backend,
        smooth: Method,
        smoothing: bool,
        opts: &SolveOptions,
        format: StorageFormat,
    ) -> Self {
        let reference = (backend == Backend::Jacobi)
            .then(|| ReferenceSmoother::new(smooth, opts.seed, smoothing));
        EngineSmoother {
            backend,
            method: smooth,
            smoothing,
            seed: opts.seed,
            format,
            norm: opts.norm,
            obs: opts.obs,
            fine_plan: opts.plan.clone(),
            levels: Vec::new(),
            reference,
            snap: Snapshot::new(),
        }
    }

    /// Resolves (once) and returns this level's method and, for the
    /// distributed engine, its communication plan.
    fn level_state(
        &mut self,
        level: usize,
        a: &CsrMatrix,
    ) -> Result<(ResolvedMethod, Option<Arc<CommPlan>>), String> {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, || None);
        }
        if self.levels[level].is_none() {
            let method = if self.smoothing {
                smoothing_method(&self.method, a)
                    .map_err(|e| format!("level {level} smoother: {e}"))?
            } else {
                self.method
            };
            let resolved = method
                .resolve(a, self.seed)
                .map_err(|e| format!("level {level} smoother: {e}"))?;
            let plan = match self.backend {
                Backend::SimDistributed { ranks, .. } => {
                    let given = self.fine_plan.as_ref().filter(|_| level == 0);
                    let nparts = ranks.min(a.nrows()).max(1);
                    Some(dist_plan(a, given, nparts, "inner backend")?)
                }
                _ => None,
            };
            self.levels[level] = Some(LevelState {
                method: resolved,
                plan,
            });
        }
        let state = self.levels[level].as_ref().unwrap();
        Ok((state.method, state.plan.clone()))
    }

    /// Folds one inner run's observability into the outer aggregate.
    fn absorb(&mut self, obs: Option<Snapshot>) {
        let Some(s) = obs else { return };
        for (k, v) in &s.counters {
            self.snap.add_counter(k, *v);
        }
        for (k, h) in &s.histograms {
            self.snap.merge_histogram(k, h);
        }
    }

    fn into_snapshot(self) -> Option<Snapshot> {
        if self.obs.is_on() && self.reference.is_none() {
            Some(self.snap)
        } else {
            None
        }
    }
}

impl Smoother for EngineSmoother {
    fn smooth(
        &mut self,
        level: usize,
        a: &CsrMatrix,
        r: &[f64],
        steps: usize,
    ) -> Result<Vec<f64>, String> {
        if let Some(reference) = &mut self.reference {
            return reference.smooth(level, a, r, steps);
        }
        let (method, plan) = self.level_state(level, a)?;
        let n = a.nrows();
        let zeros = vec![0.0; n];
        match self.backend {
            Backend::AsyncThreads { workers } => {
                let cfg = aj_shmem::ShmemConfig {
                    num_threads: workers.min(n).max(1),
                    tol: 0.0,
                    max_iterations: steps,
                    norm: self.norm,
                    method,
                    format: self.format,
                    obs: self.obs,
                    ..Default::default()
                };
                let out = aj_shmem::solver::run(a, r, &zeros, &cfg);
                self.absorb(out.obs);
                Ok(out.x)
            }
            Backend::SimShared {
                workers,
                asynchronous,
            } => {
                let mut cfg = ShmemSimConfig::new(workers.min(n).max(1), n, self.seed);
                cfg.stop = StopRule::Unmonitored;
                cfg.max_iterations = steps as u64;
                cfg.norm = self.norm;
                cfg.method = method;
                cfg.format = self.format;
                cfg.obs = self.obs;
                let out = if asynchronous {
                    run_shmem_async(a, r, &zeros, &cfg)
                } else {
                    run_shmem_sync(a, r, &zeros, &cfg)
                };
                self.absorb(out.obs);
                Ok(out.x)
            }
            Backend::SimDistributed { asynchronous, .. } => {
                let plan = plan.expect("distributed level state always carries a plan");
                let mut cfg = DistConfig::new(n, self.seed);
                cfg.stop = StopRule::Unmonitored;
                cfg.max_iterations = steps as u64;
                cfg.norm = self.norm;
                cfg.method = method;
                cfg.format = self.format;
                cfg.obs = self.obs;
                let out = if asynchronous {
                    run_dist_async_plan(a, r, &zeros, &plan, &cfg)
                } else {
                    run_dist_sync_plan(a, r, &zeros, &plan, &cfg)
                };
                self.absorb(out.obs);
                Ok(out.x)
            }
            _ => unreachable!("run_outer admits only inner-capable backends"),
        }
    }
}

/// Runs an outer solve (`opts.outer` is `Some`) with `backend` as the
/// inner smoothing engine. Called by [`crate::driver::solve`] after its
/// option checks and format resolution; owns the outer-specific ones.
pub(crate) fn run_outer(
    p: &Problem,
    backend: Backend,
    opts: &SolveOptions,
    spec: &OuterSpec,
    format: StorageFormat,
) -> Result<SolveReport, String> {
    if !backend.capabilities().inner {
        return Err(format!(
            "outer={} needs an inner engine that runs fixed sweep counts: sync, \
             async-threads, the sim backends, or dist backends without termination \
             detection (gs and cg are standalone solvers; net would spawn processes \
             per smoothing call)",
            spec.name()
        ));
    }
    if opts.method != Method::Jacobi {
        return Err(format!(
            "--method {} conflicts with --outer: the inner relaxation is the outer \
             selector's smooth=/prec= method",
            opts.method.to_spec()
        ));
    }
    if opts.faults.as_ref().is_some_and(|f| !f.is_empty()) {
        return Err(
            "fault injection is not supported under --outer (inner solves run \
                    a fixed sweep count; fault semantics belong to standalone runs)"
                .into(),
        );
    }
    let kind = |asynchronous| if asynchronous { "async" } else { "sync" };
    let engine_label = match backend {
        Backend::AsyncThreads { workers } => format!("async threads ×{workers}"),
        Backend::SimShared {
            workers,
            asynchronous,
        } => format!("simulated {} threads ×{workers}", kind(asynchronous)),
        Backend::SimDistributed {
            ranks,
            asynchronous,
            ..
        } => format!("simulated {} ranks ×{ranks}", kind(asynchronous)),
        _ => "sequential reference".to_string(),
    };
    let smoothing = matches!(spec.kind, OuterKind::VCycle { .. });
    if opts.outer_plan.is_some() && !smoothing {
        return Err(format!(
            "a precomputed hierarchy (outer_plan) requires outer=vcycle, not outer={}",
            spec.name()
        ));
    }
    // A plain Jacobi smoother takes the solve's weight ω, as the engines'
    // own fold does for a standalone run; every other smoother carries its
    // own parameters, and `solve` rejects ω ≠ 1 for them.
    let smooth = match spec.smooth {
        Method::Jacobi if opts.omega != 1.0 => Method::Richardson1 {
            omega: OmegaSpec::Fixed(opts.omega),
        },
        m => m,
    };
    let mut smoother = EngineSmoother::new(backend, smooth, smoothing, opts, format);
    let (out, levels) = match spec.kind {
        OuterKind::VCycle { levels, steps } => {
            let h = match &opts.outer_plan {
                Some(h) if h.matrix(0).nrows() == p.n() && h.matrix(0).nnz() == p.a.nnz() => {
                    Arc::clone(h)
                }
                Some(h) => {
                    return Err(format!(
                        "precomputed hierarchy was built for a different matrix \
                         ({} rows / {} nonzeros, problem has {} / {})",
                        h.matrix(0).nrows(),
                        h.matrix(0).nnz(),
                        p.n(),
                        p.a.nnz()
                    ));
                }
                None => {
                    Arc::new(Hierarchy::build(&p.a, levels).map_err(|e| format!("hierarchy: {e}"))?)
                }
            };
            let out = vcycle::solve(
                &h,
                &mut smoother,
                steps,
                &p.b,
                &p.x0,
                opts.tol,
                opts.max_iterations,
                opts.norm,
            )?;
            (out, h.shape())
        }
        OuterKind::Fcg { inner } => {
            let out = flex::fcg(
                &p.a,
                &p.b,
                &p.x0,
                &mut smoother,
                inner,
                opts.tol,
                opts.max_iterations,
                opts.norm,
            )?;
            (out, vec![(p.n(), p.a.nnz())])
        }
        OuterKind::Fgmres { inner, restart } => {
            let out = flex::fgmres(
                &p.a,
                &p.b,
                &p.x0,
                &mut smoother,
                inner,
                restart,
                opts.tol,
                opts.max_iterations,
                opts.norm,
            )?;
            (out, vec![(p.n(), p.a.nnz())])
        }
    };
    let iterations = (out.history.len() - 1) as u64;
    let mut metrics = smoother.into_snapshot();
    if let Some(snap) = &mut metrics {
        snap.set_counter("outer_iterations", iterations);
        snap.set_counter("outer_inner_sweeps", out.inner_sweeps);
    }
    let final_residual = p.final_residual(&out.x, opts.norm, Some(out.final_residual));
    let history = out
        .history
        .iter()
        .enumerate()
        .map(|(k, &r)| (k as f64, r))
        .collect();
    Ok(SolveReport {
        backend: format!("outer={} on {engine_label}", spec.to_spec()),
        converged: final_residual < opts.tol,
        x: out.x,
        history,
        final_residual,
        comm: None,
        termination: None,
        faults: None,
        metrics,
        control: None,
        outer: Some(OuterReport {
            spec: spec.to_spec(),
            levels,
            iterations,
            inner_sweeps: out.inner_sweeps,
        }),
    })
}
