//! The sequential model executor (paper §VII-B, Figures 3 and 4).
//!
//! The model is "a mathematical simplification of actual asynchronous
//! computations": time advances in unit steps, every step relaxes the rows
//! the [`DelaySchedule`] activates using fully up-to-date information, and
//! the synchronous comparison pays the barrier cost (δ time units per
//! iteration when a thread is δ-delayed).

use crate::propagation::apply_method_step;
use crate::schedule::DelaySchedule;
use aj_linalg::method::{method_iteration, ResolvedMethod};
use aj_linalg::vecops::{self, Norm};
use aj_linalg::{CsrMatrix, LinalgError};

/// Result of one model run.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// `(model time, relative residual)` samples; entry 0 is the initial
    /// residual at time 0.
    pub residual_history: Vec<(u64, f64)>,
    /// Final iterate.
    pub x: Vec<f64>,
    /// Total number of row relaxations performed.
    pub relaxations: u64,
    /// Whether the tolerance was reached within the step budget.
    pub converged: bool,
    /// Model steps executed.
    pub steps: u64,
}

impl ModelRun {
    /// First model time at which the relative residual dropped below `tol`,
    /// or `None` if it never did.
    pub fn time_to_tolerance(&self, tol: f64) -> Option<u64> {
        self.residual_history
            .iter()
            .find(|&&(_, r)| r < tol)
            .map(|&(t, _)| t)
    }

    /// Final relative residual.
    pub fn final_residual(&self) -> f64 {
        self.residual_history.last().map_or(f64::NAN, |&(_, r)| r)
    }
}

fn diag_inv_of(a: &CsrMatrix) -> Result<Vec<f64>, LinalgError> {
    a.diagonal()
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            if d == 0.0 {
                Err(LinalgError::ZeroDiagonal { row: i })
            } else {
                Ok(1.0 / d)
            }
        })
        .collect()
}

/// Runs the **asynchronous** model: at step `k` the schedule's mask is
/// relaxed, model time advances by 1. Terminates when the relative residual
/// (in `norm`) drops below `tol` or after `max_steps`.
pub fn run_async_model(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    schedule: &DelaySchedule,
    tol: f64,
    max_steps: u64,
    norm: Norm,
) -> Result<ModelRun, LinalgError> {
    let jacobi = ResolvedMethod::Jacobi;
    run_async_model_method(a, b, x0, schedule, &jacobi, tol, max_steps, norm)
}

/// Runs the **synchronous** model: every iteration relaxes all rows, but the
/// barrier stretches each iteration to `schedule.sync_iteration_cost()`
/// model-time units (δ when one thread is δ-delayed).
pub fn run_sync_model(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    schedule: &DelaySchedule,
    tol: f64,
    max_steps: u64,
    norm: Norm,
) -> Result<ModelRun, LinalgError> {
    let jacobi = ResolvedMethod::Jacobi;
    run_sync_model_method(a, b, x0, schedule, &jacobi, tol, max_steps, norm)
}

/// Runs the **asynchronous** model for an arbitrary relaxation method:
/// like [`run_async_model`], but each masked step updates per `method`
/// (momentum rows carry their per-row previous value; randomized selection
/// draws a residual-weighted subset of the mask). With
/// [`ResolvedMethod::Jacobi`] this reproduces [`run_async_model`] exactly.
#[allow(clippy::too_many_arguments)] // mirrors the run_*_model signature plus the method
pub fn run_async_model_method(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    schedule: &DelaySchedule,
    method: &ResolvedMethod,
    tol: f64,
    max_steps: u64,
    norm: Norm,
) -> Result<ModelRun, LinalgError> {
    let n = a.nrows();
    let diag_inv = diag_inv_of(a)?;
    let mut x = x0.to_vec();
    let mut x_prev = x0.to_vec();
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    let mut history = vec![(0u64, a.residual_norm(&x, b, norm) / nb)];
    let mut relaxations = 0u64;
    let mut steps = 0u64;
    let mut converged = history[0].1 < tol;
    while !converged && steps < max_steps {
        let k = steps + 1;
        let mask = schedule.mask_at(n, k);
        relaxations +=
            apply_method_step(a, b, &diag_inv, &mask, method, k, &mut x, &mut x_prev) as u64;
        steps = k;
        let r = a.residual_norm(&x, b, norm) / nb;
        history.push((k, r));
        converged = r < tol;
    }
    Ok(ModelRun {
        residual_history: history,
        x,
        relaxations,
        converged,
        steps,
    })
}

/// Runs the **synchronous** model for an arbitrary relaxation method. The
/// iterate sequence is bit-identical to the dense reference
/// [`method_iteration`] (it *is* that iteration); the schedule only
/// stretches model time per iteration as in [`run_sync_model`].
#[allow(clippy::too_many_arguments)] // mirrors the run_*_model signature plus the method
pub fn run_sync_model_method(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    schedule: &DelaySchedule,
    method: &ResolvedMethod,
    tol: f64,
    max_steps: u64,
    norm: Norm,
) -> Result<ModelRun, LinalgError> {
    let diag_inv = diag_inv_of(a)?;
    let cost = schedule.sync_iteration_cost();
    let mut x_prev = x0.to_vec();
    let mut x = x0.to_vec();
    let mut x_next = vec![0.0; x.len()];
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    let mut history = vec![(0u64, a.residual_norm(&x, b, norm) / nb)];
    let mut relaxations = 0u64;
    let mut steps = 0u64;
    let mut converged = history[0].1 < tol;
    // `max_steps` bounds *model time* so sync and async runs are comparable.
    while !converged && (steps + 1) * cost <= max_steps {
        relaxations +=
            method_iteration(a, b, &diag_inv, method, steps, &x, &x_prev, &mut x_next) as u64;
        std::mem::swap(&mut x_prev, &mut x);
        std::mem::swap(&mut x, &mut x_next);
        steps += 1;
        let r = a.residual_norm(&x, b, norm) / nb;
        history.push((steps * cost, r));
        converged = r < tol;
    }
    Ok(ModelRun {
        residual_history: history,
        x,
        relaxations,
        converged,
        steps,
    })
}

/// The Figure 3 quantity: `speedup = (sync model time to tol) /
/// (async model time to tol)` for one δ-delayed row. Returns
/// `(sync_time, async_time, speedup)`; `None` when either run fails to reach
/// the tolerance within `max_steps` of model time.
pub fn model_speedup(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    row: usize,
    delta: u64,
    tol: f64,
    max_steps: u64,
) -> Result<Option<(u64, u64, f64)>, LinalgError> {
    let schedule = DelaySchedule::single_slow_row(row, delta);
    let sync = run_sync_model(a, b, x0, &schedule, tol, max_steps, Norm::L1)?;
    let async_ = run_async_model(a, b, x0, &schedule, tol, max_steps, Norm::L1)?;
    match (sync.time_to_tolerance(tol), async_.time_to_tolerance(tol)) {
        (Some(ts), Some(ta)) if ta > 0 => Ok(Some((ts, ta, ts as f64 / ta as f64))),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::{fd, rhs};

    fn paper68() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = fd::paper_fd("fd68")
            .unwrap()
            .scale_to_unit_diagonal()
            .unwrap();
        let (b, x0) = rhs::paper_problem(a.nrows(), 42);
        (a, b, x0)
    }

    #[test]
    fn async_with_no_delay_equals_sync() {
        let (a, b, x0) = paper68();
        let s = DelaySchedule::None;
        let sync = run_sync_model(&a, &b, &x0, &s, 1e-3, 10_000, Norm::L1).unwrap();
        let asyn = run_async_model(&a, &b, &x0, &s, 1e-3, 10_000, Norm::L1).unwrap();
        assert!(sync.converged && asyn.converged);
        assert_eq!(sync.steps, asyn.steps);
        assert!(vecops::rel_diff(&sync.x, &asyn.x) < 1e-14);
    }

    #[test]
    fn delayed_async_still_converges_and_sync_pays_barrier() {
        let (a, b, x0) = paper68();
        let s = DelaySchedule::single_slow_row(34, 20);
        let asyn = run_async_model(&a, &b, &x0, &s, 1e-3, 200_000, Norm::L1).unwrap();
        assert!(asyn.converged, "async residual {}", asyn.final_residual());
        let sync = run_sync_model(&a, &b, &x0, &s, 1e-3, 200_000, Norm::L1).unwrap();
        assert!(sync.converged);
        let ts = sync.time_to_tolerance(1e-3).unwrap();
        let ta = asyn.time_to_tolerance(1e-3).unwrap();
        assert!(ts > ta, "sync {ts} should exceed async {ta}");
    }

    #[test]
    fn speedup_grows_with_delay() {
        // The Figure 3 shape: larger δ ⇒ larger async-over-sync speedup.
        let (a, b, x0) = paper68();
        let s5 = model_speedup(&a, &b, &x0, 34, 5, 1e-3, 500_000)
            .unwrap()
            .unwrap();
        let s50 = model_speedup(&a, &b, &x0, 34, 50, 1e-3, 500_000)
            .unwrap()
            .unwrap();
        assert!(
            s50.2 > s5.2,
            "speedup(50) = {} vs speedup(5) = {}",
            s50.2,
            s5.2
        );
        assert!(s50.2 > 5.0, "expected a large speedup, got {}", s50.2);
    }

    #[test]
    fn residual_never_increases_in_l1_for_wdd_matrix() {
        // Theorem 1 consequence: ‖Ĥ‖₁ = 1 ⇒ the residual 1-norm is
        // non-increasing no matter the masks.
        let (a, b, x0) = paper68();
        let s = DelaySchedule::Random {
            density: 0.4,
            seed: 5,
        };
        let run = run_async_model(&a, &b, &x0, &s, 0.0, 300, Norm::L1).unwrap();
        for w in run.residual_history.windows(2) {
            assert!(w[1].1 <= w[0].1 * (1.0 + 1e-12), "residual grew: {:?}", w);
        }
    }

    #[test]
    fn history_starts_at_time_zero_and_is_monotone_in_time() {
        let (a, b, x0) = paper68();
        let s = DelaySchedule::single_slow_row(10, 7);
        let run = run_sync_model(&a, &b, &x0, &s, 1e-3, 50_000, Norm::L1).unwrap();
        assert_eq!(run.residual_history[0].0, 0);
        for w in run.residual_history.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 7, "sync time stride must equal δ");
        }
    }

    #[test]
    fn relaxation_counts_are_tracked() {
        let (a, b, x0) = paper68();
        let run =
            run_async_model(&a, &b, &x0, &DelaySchedule::None, 1e-2, 1_000, Norm::L1).unwrap();
        assert_eq!(run.relaxations, run.steps * 68);
    }

    #[test]
    fn jacobi_method_run_reproduces_the_plain_run_bitwise() {
        let (a, b, x0) = paper68();
        let s = DelaySchedule::Random {
            density: 0.6,
            seed: 3,
        };
        let plain = run_async_model(&a, &b, &x0, &s, 1e-4, 50_000, Norm::L1).unwrap();
        let via_method = run_async_model_method(
            &a,
            &b,
            &x0,
            &s,
            &ResolvedMethod::Jacobi,
            1e-4,
            50_000,
            Norm::L1,
        )
        .unwrap();
        assert_eq!(plain.x, via_method.x);
        assert_eq!(plain.relaxations, via_method.relaxations);
        assert_eq!(plain.residual_history, via_method.residual_history);
    }

    #[test]
    fn every_method_converges_under_a_delayed_schedule() {
        let (a, b, x0) = paper68();
        let s = DelaySchedule::Random {
            density: 0.7,
            seed: 12,
        };
        for method in [
            ResolvedMethod::Richardson1 { omega: 0.9 },
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.3,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 4,
            },
        ] {
            let run =
                run_async_model_method(&a, &b, &x0, &s, &method, 1e-4, 500_000, Norm::L1).unwrap();
            assert!(
                run.converged,
                "{} stalled at {}",
                method.name(),
                run.final_residual()
            );
            assert!(run.relaxations > 0);
        }
    }

    #[test]
    fn rwr_relaxes_only_the_selected_fraction() {
        let (a, b, x0) = paper68();
        let method = ResolvedMethod::RandomizedResidual {
            fraction: 0.25,
            seed: 8,
        };
        let run = run_async_model_method(
            &a,
            &b,
            &x0,
            &DelaySchedule::None,
            &method,
            1e-3,
            100_000,
            Norm::L1,
        )
        .unwrap();
        // ⌈0.25·68⌉ = 17 rows per full-mask step.
        assert_eq!(run.relaxations, run.steps * 17);
    }

    #[test]
    fn sync_method_run_is_bit_identical_to_the_dense_reference() {
        let (a, b, x0) = paper68();
        let methods = [
            ResolvedMethod::Richardson1 { omega: 0.85 },
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.35,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 21,
            },
        ];
        for method in methods {
            let run = run_sync_model_method(
                &a,
                &b,
                &x0,
                &DelaySchedule::None,
                &method,
                1e-5,
                200_000,
                Norm::L1,
            )
            .unwrap();
            let reference =
                aj_linalg::method::method_solve(&a, &b, &x0, &method, 1e-5, 200_000, Norm::L1)
                    .unwrap();
            assert!(run.converged && reference.converged, "{}", method.name());
            assert_eq!(run.x, reference.x, "{} drifted bitwise", method.name());
            assert_eq!(run.relaxations, reference.relaxations);
        }
    }
}
