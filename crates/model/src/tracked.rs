//! A generalized model executor that tracks the *error* as well as the
//! residual, with optional damping.
//!
//! Theorem 1 makes two statements: the residual 1-norm and the **error
//! ∞-norm** are non-increasing under any propagation sequence on W.D.D.
//! systems. The basic executor ([`crate::executor`]) observes the residual
//! (all the paper's figures use it, since the exact solution is unknown in
//! practice); this one also observes `‖x − x*‖∞` when a manufactured exact
//! solution is available, making the second half of Theorem 1 testable.

use crate::propagation::apply_step_weighted;
use crate::schedule::DelaySchedule;
use aj_linalg::vecops::{self, Norm};
use aj_linalg::{sweeps, CsrMatrix, LinalgError};

/// Options for a tracked run.
#[derive(Debug, Clone)]
pub struct TrackedOptions<'a> {
    /// Relative residual tolerance (set 0 to run a fixed number of steps).
    pub tol: f64,
    /// Maximum model steps.
    pub max_steps: u64,
    /// Residual norm.
    pub residual_norm: Norm,
    /// Relaxation weight ω.
    pub omega: f64,
    /// Exact solution for error tracking (e.g. from
    /// `aj_matrices::manufactured`).
    pub x_exact: Option<&'a [f64]>,
}

impl Default for TrackedOptions<'_> {
    fn default() -> Self {
        TrackedOptions {
            tol: 1e-6,
            max_steps: 100_000,
            residual_norm: Norm::L1,
            omega: 1.0,
            x_exact: None,
        }
    }
}

/// Result of a tracked run.
#[derive(Debug, Clone)]
pub struct TrackedRun {
    /// Final iterate.
    pub x: Vec<f64>,
    /// `(step, relative residual)` samples.
    pub residual_history: Vec<(u64, f64)>,
    /// `(step, ‖x − x*‖∞)` samples when an exact solution was supplied.
    pub error_history: Option<Vec<(u64, f64)>>,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Total relaxations.
    pub relaxations: u64,
}

/// Runs the asynchronous model under `schedule` with full tracking.
pub fn run_tracked(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    schedule: &DelaySchedule,
    opts: &TrackedOptions<'_>,
) -> Result<TrackedRun, LinalgError> {
    let n = a.nrows();
    let diag_inv = sweeps::inverse_diagonal(a)?;
    let mut x = x0.to_vec();
    let nb = vecops::norm(b, opts.residual_norm).max(f64::MIN_POSITIVE);
    let error_of = |x: &[f64]| {
        opts.x_exact
            .map(|xe| vecops::norm(&vecops::sub(x, xe), Norm::Inf))
    };
    let mut residual_history = vec![(0u64, a.residual_norm(&x, b, opts.residual_norm) / nb)];
    let mut error_history = error_of(&x).map(|e| vec![(0u64, e)]);
    let mut relaxations = 0u64;
    let mut step = 0u64;
    while residual_history.last().unwrap().1 >= opts.tol && step < opts.max_steps {
        step += 1;
        let mask = schedule.mask_at(n, step);
        apply_step_weighted(a, b, &diag_inv, &mask, opts.omega, &mut x);
        relaxations += mask.num_active() as u64;
        residual_history.push((step, a.residual_norm(&x, b, opts.residual_norm) / nb));
        if let (Some(h), Some(e)) = (error_history.as_mut(), error_of(&x)) {
            h.push((step, e));
        }
    }
    let converged = residual_history.last().unwrap().1 < opts.tol;
    Ok(TrackedRun {
        x,
        residual_history,
        error_history,
        converged,
        relaxations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::{fd, manufactured};

    #[test]
    fn error_infinity_norm_is_monotone_on_wdd_matrix() {
        // The error half of Theorem 1: ‖Ĝ‖∞ ≤ 1 ⇒ ‖e‖∞ never grows,
        // whatever the masks.
        let a = fd::laplacian_2d(6, 6).scale_to_unit_diagonal().unwrap();
        let m = manufactured::random(&a, 3);
        let schedule = DelaySchedule::Random {
            density: 0.5,
            seed: 9,
        };
        let x0 = vec![0.0; 36];
        let opts = TrackedOptions {
            tol: 0.0,
            max_steps: 300,
            x_exact: Some(&m.x_exact),
            ..Default::default()
        };
        let run = run_tracked(&a, &m.b, &x0, &schedule, &opts).unwrap();
        let hist = run.error_history.expect("error tracked");
        for w in hist.windows(2) {
            assert!(w[1].1 <= w[0].1 * (1.0 + 1e-12), "error grew: {:?}", w);
        }
        assert!(hist.last().unwrap().1 < 0.01 * hist[0].1);
    }

    #[test]
    fn damped_tracked_run_converges_on_fe_matrix() {
        // ω = 0.7 rescues the divergent FE matrix even synchronously.
        let a = aj_matrices::fe::fe_matrix(10, 10, 0.45, 3);
        let m = manufactured::random(&a, 4);
        let opts = TrackedOptions {
            tol: 1e-6,
            max_steps: 200_000,
            omega: 0.7,
            x_exact: Some(&m.x_exact),
            ..Default::default()
        };
        let run =
            run_tracked(&a, &m.b, &vec![0.0; a.nrows()], &DelaySchedule::None, &opts).unwrap();
        assert!(run.converged);
        assert!(run.error_history.unwrap().last().unwrap().1 < 1e-4);
    }

    #[test]
    fn tracked_matches_basic_executor_without_extras() {
        let a = fd::paper_fd("fd40")
            .unwrap()
            .scale_to_unit_diagonal()
            .unwrap();
        let (b, x0) = aj_matrices::rhs::paper_problem(40, 6);
        let schedule = DelaySchedule::single_slow_row(20, 7);
        let opts = TrackedOptions {
            tol: 1e-4,
            max_steps: 100_000,
            ..Default::default()
        };
        let t = run_tracked(&a, &b, &x0, &schedule, &opts).unwrap();
        let basic =
            crate::executor::run_async_model(&a, &b, &x0, &schedule, 1e-4, 100_000, Norm::L1)
                .unwrap();
        assert_eq!(t.converged, basic.converged);
        assert_eq!(t.relaxations, basic.relaxations);
        assert!(aj_linalg::vecops::rel_diff(&t.x, &basic.x) < 1e-14);
        assert!(t.error_history.is_none());
    }
}
