//! The L-level V-cycle driver.
//!
//! Each cycle is a defect-correction recursion: pre-smooth (`steps` inner
//! sweeps on `A z = r` via the pluggable [`Smoother`]), restrict the new
//! residual, recurse, prolong-and-correct, post-smooth. The coarsest level
//! is solved tightly with CG. When the smoother is one of the asynchronous
//! engines, everything *inside* a smoothing call runs asynchronously; the
//! level transfers are the only synchronization points.

use crate::hierarchy::Hierarchy;
use crate::{direct_solve, rel_norm, should_stop, OuterResult, Smoother};
use aj_linalg::vecops::Norm;

/// One V-cycle at `level`, improving `x` for `A_level x = b`. `r` is
/// `b − A_level x` when the caller already holds it. `sweeps` accumulates
/// inner smoothing sweeps across the recursion.
#[allow(clippy::too_many_arguments)] // the recursion's state, explicitly
fn cycle(
    h: &Hierarchy,
    smoother: &mut dyn Smoother,
    steps: usize,
    level: usize,
    b: &[f64],
    x: &mut [f64],
    r: Option<Vec<f64>>,
    sweeps: &mut u64,
) -> Result<(), String> {
    let a = h.matrix(level);
    let r = r.unwrap_or_else(|| a.residual(x, b));
    if level + 1 == h.levels() {
        // Coarsest level: tight CG solve of the residual equation.
        let e = direct_solve(a, &r)?;
        for (xi, ei) in x.iter_mut().zip(&e) {
            *xi += ei;
        }
        return Ok(());
    }
    // Pre-smooth: z ≈ A⁻¹ r from zero, then correct.
    let z = smoother.smooth(level, a, &r, steps)?;
    *sweeps += steps as u64;
    for (xi, zi) in x.iter_mut().zip(&z) {
        *xi += zi;
    }
    // Coarse-grid correction.
    let r = a.residual(x, b);
    let rc = h.restrict(level, &r);
    let mut ec = vec![0.0; h.matrix(level + 1).nrows()];
    cycle(h, smoother, steps, level + 1, &rc, &mut ec, None, sweeps)?;
    h.prolong_add(level, &ec, x);
    // Post-smooth.
    let r = a.residual(x, b);
    let z = smoother.smooth(level, a, &r, steps)?;
    *sweeps += steps as u64;
    for (xi, zi) in x.iter_mut().zip(&z) {
        *xi += zi;
    }
    Ok(())
}

/// Runs V-cycles on the finest level of `h` until the relative residual
/// (in `norm`) meets `tol`, diverges past the cap, stalls, or
/// `max_cycles` is reached. `steps` is the pre/post smoothing count per
/// level. The residual each history entry measures is the one the next
/// cycle pre-smooths.
///
/// # Errors
/// Propagates smoother and coarse-solve failures.
#[allow(clippy::too_many_arguments)] // the full outer-solve contract: system + inner + stop rule
pub fn solve(
    h: &Hierarchy,
    smoother: &mut dyn Smoother,
    steps: usize,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_cycles: u64,
    norm: Norm,
) -> Result<OuterResult, String> {
    let a = h.matrix(0);
    let mut x = x0.to_vec();
    let mut inner_sweeps = 0u64;
    let mut r = a.residual(&x, b);
    let mut history = vec![rel_norm(&r, b, norm)];
    for _ in 0..max_cycles {
        if should_stop(&history, tol) {
            break;
        }
        cycle(h, smoother, steps, 0, b, &mut x, Some(r), &mut inner_sweeps)?;
        r = a.residual(&x, b);
        history.push(rel_norm(&r, b, norm));
    }
    let final_residual = *history.last().unwrap();
    Ok(OuterResult {
        x,
        converged: final_residual < tol,
        final_residual,
        history,
        inner_sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OuterSpec, ReferenceSmoother};
    use aj_matrices::fd::laplacian_2d;

    #[test]
    fn vcycle_solves_laplacian_fast() {
        let a = laplacian_2d(31, 31).scale_to_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![1.0; n];
        let h = Hierarchy::build(&a, None).unwrap();
        let mut s = ReferenceSmoother::new(OuterSpec::default_smooth(), 2018, true);
        let out = solve(&h, &mut s, 2, &b, &vec![0.0; n], 1e-8, 60, Norm::L2).unwrap();
        assert!(out.converged, "history: {:?}", out.history);
        // Textbook V-cycle rates: far fewer cycles than the cap.
        assert!(
            out.history.len() - 1 <= 15,
            "took {} cycles",
            out.history.len() - 1
        );
        assert!(out.inner_sweeps > 0);
        let res = a.residual_norm(&out.x, &b, Norm::L2);
        assert!(res / (n as f64).sqrt() < 1e-7);
    }

    #[test]
    fn vcycle_solves_unstructured_via_aggregation() {
        let a = aj_matrices::fe::fe_matrix(12, 12, 0.2, 11)
            .scale_to_unit_diagonal()
            .unwrap();
        let n = a.nrows();
        let b = vec![1.0; n];
        let h = Hierarchy::build(&a, None).unwrap();
        assert!(!h.is_geometric());
        let mut s = ReferenceSmoother::new(OuterSpec::default_smooth(), 2018, true);
        let out = solve(&h, &mut s, 2, &b, &vec![0.0; n], 1e-8, 200, Norm::L2).unwrap();
        assert!(
            out.converged,
            "history tail: {:?}",
            &out.history[out.history.len().saturating_sub(4)..]
        );
    }
}
