//! # aj-outer
//!
//! Outer iterative solvers that wrap a relaxation method — including the
//! asynchronous engines — as an inner component, the composition the paper
//! points at: asynchronous Jacobi's modern job is smoothing and
//! preconditioning, not standalone solving.
//!
//! Two families:
//!
//! * [`vcycle`] — an L-level multigrid V-cycle. The hierarchy
//!   ([`hierarchy`]) is geometric (rediscretized 5-point stencils with full-weighting /
//!   bilinear transfers) when the matrix is recognizably a 2-D grid, and
//!   greedy strength-based aggregation with a Galerkin product otherwise.
//! * [`flex`] — flexible Krylov solvers (FCG and FGMRES) whose
//!   preconditioner is K inner relaxation sweeps. "Flexible" matters:
//!   an asynchronous inner solve is a *different* operator every
//!   application, which plain CG/GMRES do not tolerate.
//!
//! The crate deliberately depends only on `aj-linalg`. Execution layers
//! plug in through the [`Smoother`] trait: given a level, its matrix, and
//! a residual, run `steps` relaxation sweeps on `A z = r` from `z = 0` and
//! return the correction `z`. [`ReferenceSmoother`] is the sequential
//! dense-reference implementation this crate's tests run; `aj-core` runs
//! every engine, the sequential one included, behind the same trait, so
//! inner sweeps run asynchronously and only the coarse-grid transfer /
//! Krylov recurrence are synchronization points.

pub mod flex;
pub mod hierarchy;
pub mod vcycle;

pub use hierarchy::Hierarchy;

use aj_linalg::method::{method_iteration, Method, ResolvedMethod};
use aj_linalg::vecops::{self, Norm};
use aj_linalg::{CsrMatrix, LinalgError};

/// Relative-residual ceiling past which an outer solve is declared
/// divergent and stopped (the paper's `ρ(G) > 1` runs blow up fast; there
/// is no point iterating to the cap or to infinities).
pub const DIVERGENCE_CAP: f64 = 1e12;

/// Outer solves stop early when the relative residual has improved by less
/// than 1% over this many consecutive outer iterations — a stalled V-cycle
/// or Krylov plateau would otherwise burn the full iteration cap.
pub const STALL_WINDOW: usize = 30;

/// Which outer solver to run, with its family-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OuterKind {
    /// Multilevel V-cycle; `levels` caps the hierarchy depth (`None` =
    /// coarsen until the coarse problem is trivial), `steps` is the number
    /// of pre- and post-smoothing sweeps per level.
    VCycle {
        /// Hierarchy depth cap (≥ 2 when given).
        levels: Option<usize>,
        /// Pre/post smoothing sweeps per level per cycle.
        steps: usize,
    },
    /// Flexible conjugate gradients; `inner` relaxation sweeps per
    /// preconditioner application.
    Fcg {
        /// Inner sweeps per outer iteration.
        inner: usize,
    },
    /// Flexible GMRES with restart; `inner` relaxation sweeps per
    /// preconditioner application.
    Fgmres {
        /// Inner sweeps per outer iteration.
        inner: usize,
        /// Arnoldi basis size between restarts.
        restart: usize,
    },
}

/// A fully-parsed `outer=` selector: the outer solver plus the relaxation
/// method used as its smoother/preconditioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuterSpec {
    /// The outer solver family and its knobs.
    pub kind: OuterKind,
    /// The inner relaxation method (smoother for `vcycle`, preconditioner
    /// for the Krylov kinds).
    pub smooth: Method,
}

impl OuterSpec {
    /// Default smoothing sweeps per level for `vcycle`.
    pub const DEFAULT_STEPS: usize = 2;
    /// Default inner sweeps per Krylov preconditioner application.
    pub const DEFAULT_INNER: usize = 4;
    /// Default FGMRES restart length.
    pub const DEFAULT_RESTART: usize = 30;

    /// The default smoother: damped first-order Richardson with the
    /// spectrum-estimated ω. Undamped Jacobi is a *bad* smoother exactly
    /// in the paper's divergence regime (λ_max(D⁻¹A) ≈ 2 leaves the
    /// highest-frequency error untouched), so the default damps.
    pub fn default_smooth() -> Method {
        Method::Richardson1 {
            omega: aj_linalg::OmegaSpec::Auto,
        }
    }

    /// Canonical grammar name of the outer kind.
    pub fn name(&self) -> &'static str {
        match self.kind {
            OuterKind::VCycle { .. } => "vcycle",
            OuterKind::Fcg { .. } => "fcg",
            OuterKind::Fgmres { .. } => "fgmres",
        }
    }

    /// Canonical spec string that re-parses to this value (the memoization
    /// key used by aj-serve, mirroring `ResolvedMethod::to_spec`).
    pub fn to_spec(&self) -> String {
        let smooth = self.smooth.to_spec();
        match self.kind {
            OuterKind::VCycle { levels, steps } => {
                let levels = match levels {
                    Some(l) => format!("levels={l}:"),
                    None => String::new(),
                };
                format!("vcycle:{levels}smooth={smooth}:steps={steps}")
            }
            OuterKind::Fcg { inner } => format!("fcg:prec={smooth}:inner={inner}"),
            OuterKind::Fgmres { inner, restart } => {
                format!("fgmres:prec={smooth}:inner={inner}:restart={restart}")
            }
        }
    }
}

/// Reinterprets `omega=auto` (and the auto `β`) for *smoothing* position:
/// instead of the standalone minimax rule over the full spectrum
/// `[λ_min, λ_max]` of `D⁻¹A` — whose damping factor at the top of the
/// spectrum is `(λ_max−λ_min)/(λ_max+λ_min) ≈ 1`, i.e. a terrible smoother
/// — target the oscillatory half-band `[λ_max/2, λ_max]` that the coarse
/// grid cannot represent. For `richardson1` this gives the classic damped
/// weight `ω = 4/(3 λ_max)` (= 2/3 on the unit-diagonal Laplacian); for
/// `richardson2` the Chebyshev/heavy-ball pair over the half-band, which
/// damps it at ≈ 0.17 per sweep. Methods with fixed parameters (and
/// jacobi/rwr, which have none) pass through unchanged.
///
/// # Errors
/// Propagates the spectrum-estimate failures of
/// [`aj_linalg::method::preconditioned_extremes`].
pub fn smoothing_method(method: &Method, a: &CsrMatrix) -> Result<Method, LinalgError> {
    use aj_linalg::method::preconditioned_extremes;
    use aj_linalg::OmegaSpec;
    Ok(match *method {
        Method::Richardson1 {
            omega: OmegaSpec::Auto,
        } => {
            let (_, hi) = preconditioned_extremes(a)?;
            Method::Richardson1 {
                omega: OmegaSpec::Fixed(2.0 / (hi / 2.0 + hi)),
            }
        }
        Method::Richardson2 {
            omega: OmegaSpec::Auto,
            beta: None,
        } => {
            let (_, hi) = preconditioned_extremes(a)?;
            let (sl, sh) = ((hi / 2.0).sqrt(), hi.sqrt());
            Method::Richardson2 {
                omega: OmegaSpec::Fixed((2.0 / (sl + sh)).powi(2)),
                beta: Some(((sh - sl) / (sh + sl)).powi(2)),
            }
        }
        m => m,
    })
}

/// The inner component contract: approximately solve `A z = r` starting
/// from `z = 0` with `steps` relaxation sweeps and return `z`. The caller
/// applies the correction (`x += z`); running the sweeps on the residual
/// equation instead of the original system is what lets one engine run
/// serve every level of a hierarchy.
///
/// `level` identifies which hierarchy matrix `a` is (0 = finest; flexible
/// Krylov always passes 0), so implementations can memoize per-level state
/// (resolved method parameters, communication plans) across calls.
pub trait Smoother {
    /// Runs `steps` sweeps on `A z = r` from zero; returns `z`.
    ///
    /// # Errors
    /// Propagates engine/resolution failures as display-ready strings.
    fn smooth(
        &mut self,
        level: usize,
        a: &CsrMatrix,
        r: &[f64],
        steps: usize,
    ) -> Result<Vec<f64>, String>;
}

/// Sequential reference [`Smoother`]: loops the dense-reference
/// [`method_iteration`] with two-phase updates. Per-level resolution
/// (Lanczos ω estimation, rwr seeding) is memoized on first use.
pub struct ReferenceSmoother {
    method: Method,
    seed: u64,
    smoothing: bool,
    resolved: Vec<Option<(ResolvedMethod, Vec<f64>)>>,
}

impl ReferenceSmoother {
    /// A reference smoother applying `method`; `seed` feeds randomized row
    /// selection. `smoothing` switches `omega=auto` to the half-band
    /// [`smoothing_method`] rule — pass `true` when this instance smooths
    /// inside a V-cycle and `false` when it preconditions a Krylov outer
    /// (where the standalone full-spectrum rule is the right one).
    pub fn new(method: Method, seed: u64, smoothing: bool) -> Self {
        ReferenceSmoother {
            method,
            seed,
            smoothing,
            resolved: Vec::new(),
        }
    }
}

impl Smoother for ReferenceSmoother {
    fn smooth(
        &mut self,
        level: usize,
        a: &CsrMatrix,
        r: &[f64],
        steps: usize,
    ) -> Result<Vec<f64>, String> {
        if self.resolved.len() <= level {
            self.resolved.resize(level + 1, None);
        }
        if self.resolved[level].is_none() {
            let method = if self.smoothing {
                smoothing_method(&self.method, a)
                    .map_err(|e| format!("level {level} smoother: {e}"))?
            } else {
                self.method
            };
            let resolved = method
                .resolve(a, self.seed)
                .map_err(|e| format!("level {level} smoother: {e}"))?;
            let diag_inv = aj_linalg::sweeps::inverse_diagonal(a)
                .map_err(|e| format!("level {level} smoother: {e}"))?;
            self.resolved[level] = Some((resolved, diag_inv));
        }
        let (resolved, diag_inv) = self.resolved[level].as_ref().unwrap();
        let n = a.nrows();
        let mut z = vec![0.0; n];
        let mut z_prev = vec![0.0; n];
        let mut z_next = vec![0.0; n];
        for step in 0..steps as u64 {
            method_iteration(a, r, diag_inv, resolved, step, &z, &z_prev, &mut z_next);
            std::mem::swap(&mut z_prev, &mut z);
            std::mem::swap(&mut z, &mut z_next);
        }
        Ok(z)
    }
}

/// Outcome of an outer solve.
#[derive(Debug, Clone)]
pub struct OuterResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Relative residual after each outer iteration (entry 0 is the
    /// initial residual; one entry per V-cycle / Krylov step after that).
    pub history: Vec<f64>,
    /// Relative residual of `x`. It is the last history entry, except when
    /// FGMRES stops at its iteration cap inside a restart cycle: that entry
    /// belongs to a candidate the solve did not accept.
    pub final_residual: f64,
    /// Whether the final relative residual met the tolerance.
    pub converged: bool,
    /// Total inner relaxation sweeps spent in the smoother, over all
    /// levels and outer iterations.
    pub inner_sweeps: u64,
}

/// Shared stopping logic for the outer loops: tolerance, divergence cap,
/// and a stall window (< 1% total improvement over [`STALL_WINDOW`] outer
/// iterations).
pub(crate) fn should_stop(history: &[f64], tol: f64) -> bool {
    let last = *history.last().unwrap();
    if last < tol || !last.is_finite() || last > DIVERGENCE_CAP {
        return true;
    }
    if history.len() > STALL_WINDOW {
        let then = history[history.len() - 1 - STALL_WINDOW];
        if last > 0.99 * then {
            return true;
        }
    }
    false
}

/// `‖b − Ax‖ / ‖b‖` in the requested norm (the outer loops' shared
/// residual convention, matching the engines' relative residual).
pub(crate) fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64], norm: Norm) -> f64 {
    relative(a.residual_norm(x, b, norm), b, norm)
}

/// [`rel_residual`] of a residual vector `r = b − Ax` the caller already
/// holds; the norm of the vector has the fused pass's bits.
pub(crate) fn rel_norm(r: &[f64], b: &[f64], norm: Norm) -> f64 {
    relative(vecops::norm(r, norm), b, norm)
}

fn relative(residual_norm: f64, b: &[f64], norm: Norm) -> f64 {
    let nb = vecops::norm(b, norm);
    residual_norm / if nb > 0.0 { nb } else { 1.0 }
}

/// Solves the coarsest-level (or any small SPD) system tightly with CG;
/// used as the bottom solve of the V-cycle.
pub(crate) fn direct_solve(a: &CsrMatrix, r: &[f64]) -> Result<Vec<f64>, String> {
    let n = a.nrows();
    let out = aj_linalg::krylov::conjugate_gradient(
        a,
        r,
        &vec![0.0; n],
        1e-12,
        (10 * n).max(100),
        Norm::L2,
    )
    .map_err(|e: LinalgError| format!("coarse solve: {e}"))?;
    Ok(out.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip_strings() {
        let s = OuterSpec {
            kind: OuterKind::VCycle {
                levels: Some(4),
                steps: 2,
            },
            smooth: OuterSpec::default_smooth(),
        };
        assert_eq!(
            s.to_spec(),
            "vcycle:levels=4:smooth=richardson1:omega=auto:steps=2"
        );
        let s = OuterSpec {
            kind: OuterKind::Fcg { inner: 4 },
            smooth: Method::Jacobi,
        };
        assert_eq!(s.to_spec(), "fcg:prec=jacobi:inner=4");
        let s = OuterSpec {
            kind: OuterKind::Fgmres {
                inner: 3,
                restart: 20,
            },
            smooth: Method::RandomizedResidual { fraction: 0.5 },
        };
        assert_eq!(
            s.to_spec(),
            "fgmres:prec=rwr:fraction=0.5:inner=3:restart=20"
        );
    }

    #[test]
    fn reference_smoother_matches_jacobi_sweeps() {
        // One Jacobi sweep on A z = r from zero is z = D⁻¹ r.
        let a = aj_linalg::CsrMatrix::from_dense(2, 2, &[4.0, -1.0, -1.0, 4.0], 0.0);
        let r = vec![1.0, 2.0];
        let mut s = ReferenceSmoother::new(Method::Jacobi, 1, true);
        let z = s.smooth(0, &a, &r, 1).unwrap();
        assert!((z[0] - 0.25).abs() < 1e-15);
        assert!((z[1] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn stall_window_stops() {
        // 0.9997/iter over the window is < 1% total improvement → stall.
        let mut h = vec![1.0];
        for _ in 0..=STALL_WINDOW {
            h.push(0.9997 * h.last().unwrap());
        }
        assert!(should_stop(&h, 1e-12));
        // A healthy 10%/iter decay does not trip the window.
        let mut h = vec![1.0];
        for _ in 0..STALL_WINDOW {
            h.push(0.9 * h.last().unwrap());
        }
        assert!(!should_stop(&h, 1e-12));
    }
}
