//! Flexible Krylov outer solvers: FCG and FGMRES(m).
//!
//! Both treat K inner relaxation sweeps (via [`Smoother`]) as the
//! preconditioner `M⁻¹ r ≈ z`. An asynchronous inner solve is a different
//! operator on every application — nondeterministic interleavings change
//! the effective `M⁻¹` — which breaks the fixed-preconditioner assumptions
//! of standard CG/GMRES. The flexible variants only assume the current
//! application:
//!
//! * **FCG** A-orthogonalizes the new preconditioned direction against the
//!   *previous* direction explicitly (Notay's flexible/truncated CG) rather
//!   than relying on the three-term recurrence.
//! * **FGMRES** stores the preconditioned vectors `Z = [z_1 … z_m]` and
//!   forms the correction from them (Saad), so the Arnoldi identity
//!   `A Z_m = V_{m+1} H̄_m` holds regardless of how `z_j` was produced.

use crate::{rel_norm, rel_residual, should_stop, OuterResult, Smoother};
use aj_linalg::vecops::{self, Norm};
use aj_linalg::CsrMatrix;

/// Flexible (truncated) conjugate gradients with `inner` smoothing sweeps
/// as the preconditioner. Stops on `tol` (relative residual in `norm`),
/// divergence, stall, or `max_outer` iterations.
///
/// # Errors
/// Propagates smoother failures; reports breakdown when a search direction
/// has nonpositive curvature even after a steepest-descent restart (the
/// operator is not SPD as far as the iteration can tell).
#[allow(clippy::too_many_arguments)] // the full outer-solve contract: system + inner + stop rule
pub fn fcg(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    smoother: &mut dyn Smoother,
    inner: usize,
    tol: f64,
    max_outer: u64,
    norm: Norm,
) -> Result<OuterResult, String> {
    let n = a.nrows();
    let mut x = x0.to_vec();
    let mut r = a.residual(&x, b);
    let mut inner_sweeps = 0u64;
    let mut history = vec![rel_norm(&r, b, norm)];
    // Previous direction state for the one-back A-orthogonalization.
    let mut p_prev: Vec<f64> = Vec::new();
    let mut ap_prev: Vec<f64> = Vec::new();
    let mut pap_prev = 0.0f64;
    for _ in 0..max_outer {
        if should_stop(&history, tol) {
            break;
        }
        let z = smoother.smooth(0, a, &r, inner)?;
        inner_sweeps += inner as u64;
        let mut p = z.clone();
        if !p_prev.is_empty() {
            // β = (z, A p_prev) / (p_prev, A p_prev): make p A-orthogonal
            // to the previous direction.
            let beta = vecops::dot(&z, &ap_prev) / pap_prev;
            for i in 0..n {
                p[i] -= beta * p_prev[i];
            }
        }
        let mut ap = a.spmv(&p);
        let mut pap = vecops::dot(&p, &ap);
        if pap <= 0.0 {
            // Restart from the raw preconditioned residual.
            p = z;
            ap = a.spmv(&p);
            pap = vecops::dot(&p, &ap);
            if pap <= 0.0 {
                return Err(format!(
                    "FCG breakdown: direction curvature pᵀAp = {pap:.3e} ≤ 0 \
                     (operator or preconditioner not positive definite)"
                ));
            }
        }
        let alpha = vecops::dot(&p, &r) / pap;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &ap, &mut r);
        history.push(rel_norm(&r, b, norm));
        p_prev = p;
        ap_prev = ap;
        pap_prev = pap;
    }
    // The recurrence residual can drift; recompute the true residual for
    // the verdict so `converged` is honest.
    let final_residual = rel_residual(a, &x, b, norm);
    *history.last_mut().unwrap() = final_residual;
    Ok(OuterResult {
        x,
        history,
        converged: final_residual < tol,
        final_residual,
        inner_sweeps,
    })
}

/// Flexible GMRES with restart length `restart` and `inner` smoothing
/// sweeps as the preconditioner. The history records the true relative
/// residual (in `norm`) after every outer iteration — the solution is
/// reconstructed each Arnoldi step, which is cheap at the basis sizes used
/// here and keeps the history convention identical to every other solver.
///
/// # Errors
/// Propagates smoother failures.
#[allow(clippy::too_many_arguments)] // solver knobs, mirrors fcg/vcycle::solve
pub fn fgmres(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    smoother: &mut dyn Smoother,
    inner: usize,
    restart: usize,
    tol: f64,
    max_outer: u64,
    norm: Norm,
) -> Result<OuterResult, String> {
    let m = restart.max(1);
    let mut x = x0.to_vec();
    let mut inner_sweeps = 0u64;
    // `r` is always `x`'s residual: each restart begins from the one its
    // history entry measured. `rc` holds the latest candidate's.
    let mut r = a.residual(&x, b);
    let mut rc = vec![0.0; r.len()];
    let mut history = vec![rel_norm(&r, b, norm)];
    let mut final_residual = history[0];
    let mut outer = 0u64;
    'restart: loop {
        if should_stop(&history, tol) || outer >= max_outer {
            break;
        }
        let beta = vecops::norm(&r, Norm::L2);
        if beta == 0.0 {
            break;
        }
        let mut v: Vec<Vec<f64>> = vec![r.iter().map(|ri| ri / beta).collect()];
        let mut z: Vec<Vec<f64>> = Vec::new();
        // Column-major upper-Hessenberg entries after Givens, plus the
        // rotations and the rotated RHS g.
        let mut hcols: Vec<Vec<f64>> = Vec::new();
        let mut givens: Vec<(f64, f64)> = Vec::new();
        let mut g = vec![beta];
        for j in 0..m {
            if outer >= max_outer {
                break 'restart;
            }
            outer += 1;
            let zj = smoother.smooth(0, a, &v[j], inner)?;
            inner_sweeps += inner as u64;
            let mut w = a.spmv(&zj);
            z.push(zj);
            // Modified Gram-Schmidt.
            let mut h = vec![0.0; j + 2];
            for (i, vi) in v.iter().enumerate() {
                h[i] = vecops::dot(&w, vi);
                vecops::axpy(-h[i], vi, &mut w);
            }
            h[j + 1] = vecops::norm(&w, Norm::L2);
            // Apply existing rotations, then the new one.
            for (i, &(c, s)) in givens.iter().enumerate() {
                let (hi, hi1) = (h[i], h[i + 1]);
                h[i] = c * hi + s * hi1;
                h[i + 1] = -s * hi + c * hi1;
            }
            let (c, s) = {
                let (p, q) = (h[j], h[j + 1]);
                let d = (p * p + q * q).sqrt();
                if d == 0.0 {
                    (1.0, 0.0)
                } else {
                    (p / d, q / d)
                }
            };
            h[j] = c * h[j] + s * h[j + 1];
            h[j + 1] = 0.0;
            givens.push((c, s));
            let gj = g[j];
            g[j] = c * gj;
            g.push(-s * gj);
            hcols.push(h);
            // Solve the small triangular system and reconstruct the
            // candidate iterate for an honest per-step history entry.
            let k = hcols.len();
            let mut y = vec![0.0; k];
            for i in (0..k).rev() {
                let mut s = g[i];
                for (l, yl) in y.iter().enumerate().take(k).skip(i + 1) {
                    s -= hcols[l][i] * yl;
                }
                y[i] = s / hcols[i][i];
            }
            let mut xc = x.clone();
            for (l, yl) in y.iter().enumerate() {
                vecops::axpy(*yl, &z[l], &mut xc);
            }
            a.residual_into(&xc, b, &mut rc);
            history.push(rel_norm(&rc, b, norm));
            // `w` still holds the unnormalized next basis vector (MGS
            // orthogonalized, rotations only touched the copy in `h`); its
            // norm is the pre-rotation subdiagonal. Zero means lucky
            // breakdown: the Krylov space is exhausted, accept.
            let hlast = vecops::norm(&w, Norm::L2);
            if *history.last().unwrap() < tol || j + 1 == m || hlast == 0.0 {
                x = xc;
                std::mem::swap(&mut r, &mut rc);
                final_residual = *history.last().unwrap();
                continue 'restart;
            }
            v.push(w.iter().map(|wi| wi / hlast).collect());
        }
    }
    let converged = *history.last().unwrap() < tol;
    Ok(OuterResult {
        x,
        history,
        converged,
        final_residual,
        inner_sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OuterSpec, ReferenceSmoother};
    use aj_matrices::fd::laplacian_2d;

    fn setup() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplacian_2d(15, 15).scale_to_unit_diagonal().unwrap();
        let n = a.nrows();
        (a, vec![1.0; n], vec![0.0; n])
    }

    #[test]
    fn fcg_converges_preconditioned() {
        let (a, b, x0) = setup();
        let mut s = ReferenceSmoother::new(OuterSpec::default_smooth(), 2018, false);
        let out = fcg(&a, &b, &x0, &mut s, 4, 1e-10, 500, Norm::L2).unwrap();
        assert!(
            out.converged,
            "tail: {:?}",
            &out.history[out.history.len().saturating_sub(3)..]
        );
        // Preconditioning must beat the raw problem: check the true
        // residual really is tiny.
        assert!(rel_residual(&a, &out.x, &b, Norm::L2) < 1e-10);
    }

    #[test]
    fn fcg_beats_unpreconditioned_iteration_count() {
        let (a, b, x0) = setup();
        let mut s = ReferenceSmoother::new(OuterSpec::default_smooth(), 2018, false);
        let out = fcg(&a, &b, &x0, &mut s, 4, 1e-8, 500, Norm::L2).unwrap();
        let plain =
            aj_linalg::krylov::conjugate_gradient(&a, &b, &x0, 1e-8, 500, Norm::L2).unwrap();
        assert!(out.converged && plain.converged);
        assert!(
            out.history.len() < plain.history.len(),
            "fcg {} vs cg {}",
            out.history.len(),
            plain.history.len()
        );
    }

    #[test]
    fn fgmres_converges_and_history_is_true_residual() {
        let (a, b, x0) = setup();
        let mut s = ReferenceSmoother::new(OuterSpec::default_smooth(), 2018, false);
        let out = fgmres(&a, &b, &x0, &mut s, 4, 30, 1e-10, 500, Norm::L2).unwrap();
        assert!(out.converged);
        let true_res = rel_residual(&a, &out.x, &b, Norm::L2);
        let last = *out.history.last().unwrap();
        assert!((true_res - last).abs() <= 1e-8 * (1.0 + last));
        // Monotone nonincreasing within fp slack (GMRES minimizes).
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-8), "history not monotone: {w:?}");
        }
    }

    #[test]
    fn fgmres_restart_path_still_converges() {
        let (a, b, x0) = setup();
        let mut s = ReferenceSmoother::new(OuterSpec::default_smooth(), 2018, false);
        // Tiny restart forces several restart cycles.
        let out = fgmres(&a, &b, &x0, &mut s, 2, 5, 1e-8, 500, Norm::L2).unwrap();
        assert!(
            out.converged,
            "tail: {:?}",
            &out.history[out.history.len().saturating_sub(3)..]
        );
    }
}
