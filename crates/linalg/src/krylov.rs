//! Krylov baseline: Conjugate Gradients.
//!
//! The paper studies stationary methods because they parallelize without
//! reductions; any downstream user will still want the classical
//! synchronous baseline for context. CG is the standard SPD solver (one
//! global reduction per iteration — exactly the synchronization the paper
//! is trying to escape).

use crate::csr::CsrMatrix;
use crate::error::LinalgError;
use crate::vecops::{self, Norm};

/// Result of an iterative solve.
#[derive(Debug, Clone)]
pub struct IterativeResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Relative residual per iteration (entry 0 = initial).
    pub history: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Conjugate Gradients for SPD `A`. The residual history tracks the *true*
/// relative residual in `norm` (recomputed; the recurrence residual is used
/// for the update itself).
///
/// # Errors
/// [`LinalgError::InvalidStructure`] if a breakdown occurs (`pᵀAp ≤ 0`,
/// i.e. the matrix is not positive definite on the Krylov space).
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iter: usize,
    norm: Norm,
) -> Result<IterativeResult, LinalgError> {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    let mut x = x0.to_vec();
    let mut r = a.residual(&x, b);
    let mut p = r.clone();
    let mut rr = vecops::dot(&r, &r);
    let mut history = vec![vecops::norm(&r, norm) / nb];
    let mut ap = vec![0.0; n];
    for _ in 0..max_iter {
        if *history.last().unwrap() < tol {
            break;
        }
        a.spmv_into(&p, &mut ap);
        let pap = vecops::dot(&p, &ap);
        if pap <= 0.0 {
            return Err(LinalgError::InvalidStructure(format!(
                "CG breakdown: pᵀAp = {pap} (matrix not SPD?)"
            )));
        }
        let alpha = rr / pap;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &ap, &mut r);
        let rr_new = vecops::dot(&r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        history.push(vecops::norm(&r, norm) / nb);
    }
    let converged = *history.last().unwrap() < tol;
    Ok(IterativeResult {
        x,
        history,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::sweeps;

    fn laplacian2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.0);
                if i + 1 < nx {
                    coo.push_sym(idx(i, j), idx(i + 1, j), -1.0);
                }
                if j + 1 < ny {
                    coo.push_sym(idx(i, j), idx(i, j + 1), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn cg_converges_much_faster_than_jacobi() {
        let a = laplacian2d(12, 12);
        let b: Vec<f64> = (0..144).map(|i| (i as f64).sin()).collect();
        let x0 = vec![0.0; 144];
        let cg = conjugate_gradient(&a, &b, &x0, 1e-10, 1000, Norm::L2).unwrap();
        assert!(cg.converged);
        let (_, jh) = sweeps::jacobi_solve(&a, &b, &x0, 1e-10, 100_000, Norm::L2).unwrap();
        assert!(
            cg.history.len() * 5 < jh.len(),
            "CG {} iters vs Jacobi {}",
            cg.history.len(),
            jh.len()
        );
        assert!(a.relative_residual(&cg.x, &b, Norm::L2) < 1e-9);
    }

    #[test]
    fn cg_reports_breakdown_on_indefinite_matrix() {
        // diag(1, -1) is symmetric indefinite.
        let a = CsrMatrix::from_diagonal(&[1.0, -1.0]);
        let r = conjugate_gradient(&a, &[1.0, 1.0], &[0.0, 0.0], 1e-12, 10, Norm::L2);
        assert!(matches!(r, Err(LinalgError::InvalidStructure(_))));
    }

    #[test]
    fn cg_on_already_converged_start() {
        let a = laplacian2d(4, 4);
        let x_exact = vec![1.0; 16];
        let b = a.spmv(&x_exact);
        let r = conjugate_gradient(&a, &b, &x_exact, 1e-10, 10, Norm::L2).unwrap();
        assert!(r.converged);
        assert_eq!(r.history.len(), 1);
    }
}
