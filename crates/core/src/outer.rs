//! Outer-solve dispatch: runs `aj-outer`'s V-cycle and flexible Krylov
//! loops with the execution engines plugged in as inner smoothers.
//!
//! The composition inverts the usual driver flow: instead of an engine
//! owning the whole solve, the outer loop owns convergence and calls the
//! engine for `K` relaxation sweeps on a residual equation `A z = r` at a
//! time, from zero, through the same engine call a standalone solve makes.
//! The simulators run those sweeps
//! [`StopRule::Unmonitored`](aj_dmsim::shmem_sim::StopRule::Unmonitored)
//! and the sequential engine runs them as `K` `SyncStep` steps: the outer
//! loop measures the residual itself, so the inner runs take no residual
//! samples. Inner sweeps run as asynchronously as the chosen backend
//! allows; the only synchronization points are the coarse-grid transfers
//! (V-cycle) and the Krylov recurrence (FCG/FGMRES).

use crate::driver::{dist_plan, run_engine, Backend, Engine, SolveOptions, SolveReport, Stop};
use crate::problem::Problem;
use aj_linalg::method::{Method, OmegaSpec};
use aj_linalg::{CsrMatrix, StorageFormat};
use aj_obs::Snapshot;
use aj_outer::{flex, smoothing_method, vcycle, Smoother};
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

/// [`Smoother`] adapter that runs the backend's engine for `steps` sweeps
/// per call through [`run_engine`]. `smoothing = true` (V-cycle position)
/// re-targets `omega=auto` to the oscillatory half-band via
/// [`smoothing_method`]; `false` (Krylov preconditioner position) keeps the
/// standalone rule.
struct EngineSmoother<'o> {
    backend: Backend,
    method: Method,
    smoothing: bool,
    format: StorageFormat,
    opts: &'o SolveOptions,
    /// Each level's engine, memoized: Lanczos ω estimation runs once per
    /// level, not once per smoothing call, and so does the distributed
    /// engine's communication plan.
    levels: Vec<Option<Engine>>,
    /// Merged counters/histograms from every inner run (timelines are
    /// dropped: each inner run restarts its clock, so lanes from different
    /// smoothing calls would interleave meaninglessly).
    snap: Snapshot,
}

impl EngineSmoother<'_> {
    /// Resolves (once) and returns this level's engine.
    fn level(&mut self, level: usize, a: &CsrMatrix) -> Result<&Engine, String> {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, || None);
        }
        if self.levels[level].is_none() {
            let smoother_error = |e| format!("level {level} smoother: {e}");
            let method = if self.smoothing {
                smoothing_method(&self.method, a).map_err(smoother_error)?
            } else {
                self.method
            };
            let plan = match self.backend {
                Backend::SimDistributed { ranks, .. } => {
                    // serve's cached plan is the fine level's.
                    let given = self.opts.plan.as_ref().filter(|_| level == 0);
                    let nparts = ranks.min(a.nrows()).max(1);
                    Some(dist_plan(a, given, nparts, "inner backend")?)
                }
                _ => None,
            };
            self.levels[level] = Some(Engine {
                backend: self.backend,
                method: method.resolve(a, self.opts.seed).map_err(smoother_error)?,
                format: self.format,
                plan,
            });
        }
        Ok(self.levels[level].as_ref().expect("memoized above"))
    }

    /// The merged inner observability, when obs is on and the engine
    /// records any (the sequential one records none).
    fn into_snapshot(self) -> Option<Snapshot> {
        (self.opts.obs.is_on() && self.backend != Backend::Jacobi).then_some(self.snap)
    }
}

impl Smoother for EngineSmoother<'_> {
    fn smooth(
        &mut self,
        level: usize,
        a: &CsrMatrix,
        r: &[f64],
        steps: usize,
    ) -> Result<Vec<f64>, String> {
        let opts = self.opts;
        let zeros = vec![0.0; a.nrows()];
        let engine = self.level(level, a)?;
        let (rep, _) = run_engine(a, r, &zeros, engine, Stop::Sweeps(steps as u64), None, opts)?;
        if let Some(s) = rep.metrics {
            for (k, v) in &s.counters {
                self.snap.add_counter(k, *v);
            }
            for (k, h) in &s.histograms {
                self.snap.merge_histogram(k, h);
            }
        }
        Ok(rep.x)
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
    let smoothing = matches!(spec.kind, OuterKind::VCycle { .. });
    if opts.outer_plan.is_some() && !smoothing {
        return Err(format!(
            "a precomputed hierarchy (outer_plan) requires outer=vcycle, not outer={}",
            spec.name()
        ));
    }
    // A plain Jacobi smoother takes the solve's weight ω, as `solve` folds
    // it into a standalone run's method; every other smoother carries its
    // own parameters, and `solve` rejects ω ≠ 1 for them.
    let smooth = match spec.smooth {
        Method::Jacobi if opts.omega != 1.0 => Method::Richardson1 {
            omega: OmegaSpec::Fixed(opts.omega),
        },
        m => m,
    };
    let mut smoother = EngineSmoother {
        backend,
        method: smooth,
        smoothing,
        format,
        opts,
        levels: Vec::new(),
        snap: Snapshot::new(),
    };
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
        backend: format!("outer={} on {}", spec.to_spec(), backend.label()),
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
