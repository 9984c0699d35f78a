//! Eigenvalue machinery.
//!
//! Four tools, matched to how the paper uses spectra:
//!
//! * [`symmetric_eigenvalues`] — a cyclic Jacobi rotation eigensolver for
//!   dense symmetric matrices. Used to examine iteration matrices `G` and
//!   principal submatrices `G̃` directly (interlacing, §IV-C/D) on the
//!   paper's small FD/FE matrices.
//! * [`power_method`] — spectral radius estimation for a general (possibly
//!   non-symmetric, non-negative) operator such as `|G|`, needed for the
//!   Chazan–Miranker condition `ρ(|G|) < 1`.
//! * [`lanczos_extreme`] — extreme eigenvalues of a large sparse symmetric
//!   operator, used to compute `ρ(G) = max |1 − λ(A)|` for unit-diagonal
//!   SPD `A` without forming `G`, and by every `omega=auto` resolution.
//!   It runs the plain three-term recurrence: three rolling vectors, no
//!   stored basis, no reorthogonalization. Lost orthogonality only makes
//!   the Lanczos tridiagonal repeat Ritz values that have already converged
//!   ("ghosts"), and every Ritz value stays inside the operator's spectrum
//!   up to `O(ε‖A‖)` (Paige), so the extremes are as good as with full
//!   reorthogonalization at a fraction of the cost.
//! * [`tridiagonal_extremes`] — the smallest and largest eigenvalue of a
//!   symmetric tridiagonal matrix by Sturm-count bisection, `O(k)` per
//!   count; this is how [`lanczos_extreme`] reads its tridiagonal.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::ops::LinearOperator;
use crate::vecops;

/// Result of the power method.
#[derive(Debug, Clone)]
pub struct PowerResult {
    /// Estimated dominant eigenvalue magnitude (spectral radius for
    /// non-negative matrices by Perron–Frobenius).
    pub value: f64,
    /// The associated eigenvector estimate (unit 2-norm).
    pub vector: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative change in the eigenvalue estimate.
    pub residual: f64,
}

/// Power iteration on `op`, starting from a deterministic pseudo-random
/// vector, until the eigenvalue estimate stabilizes to `tol` or `max_iter`
/// is exhausted.
///
/// Convergence to the *spectral radius* is only guaranteed when a dominant
/// eigenvalue exists (e.g. non-negative irreducible matrices); the returned
/// [`PowerResult::residual`] lets callers judge the estimate.
pub fn power_method<T: LinearOperator>(
    op: &T,
    tol: f64,
    max_iter: usize,
) -> Result<PowerResult, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Ok(PowerResult {
            value: 0.0,
            vector: vec![],
            iterations: 0,
            residual: 0.0,
        });
    }
    // Deterministic, fully dense start vector (xorshift) so results are
    // reproducible and unlikely to be orthogonal to the dominant eigenvector.
    let mut x: Vec<f64> = {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 + 0.5
            })
            .collect()
    };
    vecops::normalize(&mut x);
    let mut y = vec![0.0; n];
    let mut lambda = 0.0f64;
    let mut resid = f64::INFINITY;
    for it in 1..=max_iter {
        op.apply(&x, &mut y);
        let ny = vecops::norm(&y, vecops::Norm::L2);
        if ny == 0.0 {
            // x is in the null space: spectral radius estimate 0 from this
            // starting vector.
            return Ok(PowerResult {
                value: 0.0,
                vector: x,
                iterations: it,
                residual: 0.0,
            });
        }
        let new_lambda = ny;
        resid = (new_lambda - lambda).abs() / new_lambda.max(1e-300);
        lambda = new_lambda;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / ny;
        }
        if resid < tol && it > 2 {
            return Ok(PowerResult {
                value: lambda,
                vector: x,
                iterations: it,
                residual: resid,
            });
        }
    }
    // Return the best estimate rather than erroring: spectral radii near
    // degenerate pairs converge slowly but the estimate is still useful.
    Ok(PowerResult {
        value: lambda,
        vector: x,
        iterations: max_iter,
        residual: resid,
    })
}

/// All eigenvalues of a dense symmetric matrix, ascending, via the cyclic
/// Jacobi rotation method. Robust and simple; `O(n³)` per sweep, fine for
/// the `n ≤ ~2000` matrices we analyze spectrally.
///
/// # Errors
/// Returns [`LinalgError::InvalidStructure`] when the matrix is not
/// symmetric, or [`LinalgError::NoConvergence`] if off-diagonal mass fails
/// to vanish in 100 sweeps (does not happen for symmetric input).
pub fn symmetric_eigenvalues(m: &DenseMatrix) -> Result<Vec<f64>, LinalgError> {
    if !m.is_symmetric(1e-10 * (1.0 + m.norm_inf())) {
        return Err(LinalgError::InvalidStructure(
            "symmetric_eigenvalues needs a symmetric matrix".into(),
        ));
    }
    let n = m.nrows();
    let mut a = m.clone();
    let tol = 1e-14 * (1.0 + a.norm_inf());
    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(a[(i, j)].abs());
            }
        }
        if off <= tol {
            let mut ev: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
            ev.sort_by(f64::total_cmp);
            return Ok(ev);
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= tol {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation A ← JᵀAJ on rows/cols p, q.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        what: "jacobi eigensolver",
        iterations: 100,
    })
}

/// Spectral radius of a dense (not necessarily symmetric) matrix: for
/// symmetric input uses the exact eigensolver, otherwise falls back to the
/// power method on the explicit matrix.
pub fn dense_spectral_radius(m: &DenseMatrix) -> f64 {
    if m.is_symmetric(1e-12 * (1.0 + m.norm_inf())) {
        let ev = symmetric_eigenvalues(m).expect("symmetric matrix");
        ev.iter().map(|v| v.abs()).fold(0.0, f64::max)
    } else {
        let csr = crate::csr::CsrMatrix::from_dense(m.nrows(), m.ncols(), m.as_slice(), 0.0);
        power_method(&csr, 1e-12, 20_000)
            .map(|r| r.value)
            .unwrap_or(f64::NAN)
    }
}

/// Extreme eigenvalues of a symmetric operator.
#[derive(Debug, Clone, Copy)]
pub struct ExtremeEigenvalues {
    /// Smallest eigenvalue estimate.
    pub min: f64,
    /// Largest eigenvalue estimate.
    pub max: f64,
    /// Lanczos steps taken.
    pub steps: usize,
}

/// Extreme eigenvalues of a symmetric operator by the Lanczos three-term
/// recurrence. `steps` Krylov steps are taken (capped at `dim`, stopping
/// early when the Krylov space is exhausted) from a fixed pseudo-random
/// start vector, so the estimate is deterministic; only the current,
/// previous and next Lanczos vectors are kept. The tridiagonal's extremes
/// come from [`tridiagonal_extremes`]. See the [module docs](self) for why
/// no reorthogonalization is needed for the extremes.
///
/// # Errors
/// Returns [`LinalgError::InvalidStructure`] as soon as a Lanczos
/// coefficient is not finite, which happens when the operator holds a NaN
/// or infinite entry.
pub fn lanczos_extreme<T: LinearOperator>(
    op: &T,
    steps: usize,
) -> Result<ExtremeEigenvalues, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Ok(ExtremeEigenvalues {
            min: 0.0,
            max: 0.0,
            steps: 0,
        });
    }
    let m = steps.min(n);
    let mut alpha = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m);
    // Deterministic start.
    let mut q = {
        let mut state = 0x853c49e6748fea9bu64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect::<Vec<f64>>()
    };
    vecops::normalize(&mut q);
    let mut q_prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    let not_finite = |what: &str, k: usize, v: f64| {
        LinalgError::InvalidStructure(format!(
            "lanczos step {k}: {what} = {v} is not finite (the operator has a non-finite entry)"
        ))
    };
    for k in 0..m {
        op.apply(&q, &mut w);
        let a_k = vecops::dot(&q, &w);
        if !a_k.is_finite() {
            return Err(not_finite("alpha", k, a_k));
        }
        alpha.push(a_k);
        // w ← w − α q − β q_prev.
        vecops::axpy(-a_k, &q, &mut w);
        if k > 0 {
            vecops::axpy(-beta[k - 1], &q_prev, &mut w);
        }
        let b_k = vecops::norm(&w, vecops::Norm::L2);
        if !b_k.is_finite() {
            return Err(not_finite("beta", k, b_k));
        }
        if b_k < 1e-13 || k == m - 1 {
            break;
        }
        beta.push(b_k);
        // Roll the vectors: q_prev ← q, q ← w / β.
        std::mem::swap(&mut q_prev, &mut q);
        for (qi, wi) in q.iter_mut().zip(&w) {
            *qi = wi / b_k;
        }
    }
    let (min, max) = tridiagonal_extremes(&alpha, &beta)?;
    Ok(ExtremeEigenvalues {
        min,
        max,
        steps: alpha.len(),
    })
}

/// Smallest and largest eigenvalue of the symmetric tridiagonal matrix with
/// diagonal `diag` and off-diagonal `off` (`off.len() + 1 == diag.len()`).
///
/// Each extreme is bisected inside the Gershgorin interval on the Sturm
/// count — the number of negative pivots of the `LDLᵀ` factorization of
/// `T − xI`, which equals the number of eigenvalues below `x` — until the
/// bracket is two adjacent floating-point numbers. A count costs `O(k)`,
/// and an extreme takes about 60 counts (at most about 1,100, for an
/// eigenvalue at zero). The entries are first scaled by a power of two to
/// magnitude at most one, which is exact and keeps the squared
/// off-diagonals and the Gershgorin sums from overflowing.
///
/// # Errors
/// Returns [`LinalgError::InvalidStructure`] for an empty matrix, mismatched
/// lengths, or any entry that is not finite.
pub fn tridiagonal_extremes(diag: &[f64], off: &[f64]) -> Result<(f64, f64), LinalgError> {
    let k = diag.len();
    if k == 0 || off.len() + 1 != k {
        return Err(LinalgError::InvalidStructure(format!(
            "tridiagonal_extremes needs k ≥ 1 diagonal and k − 1 off-diagonal entries, \
             got {k} and {}",
            off.len()
        )));
    }
    if let Some(v) = diag.iter().chain(off).find(|v| !v.is_finite()) {
        return Err(LinalgError::InvalidStructure(format!(
            "tridiagonal_extremes: entry {v} is not finite"
        )));
    }
    let largest = diag.iter().chain(off).fold(0.0, |m: f64, v| m.max(v.abs()));
    if largest == 0.0 {
        return Ok((0.0, 0.0));
    }
    let scale = 2f64.powi(-(largest.log2().ceil() as i32).clamp(-1000, 1000));
    let d: Vec<f64> = diag.iter().map(|v| v * scale).collect();
    let e: Vec<f64> = off.iter().map(|v| v * scale).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, di) in d.iter().enumerate() {
        let r = if i > 0 { e[i - 1].abs() } else { 0.0 } + e.get(i).map_or(0.0, |v| v.abs());
        lo = lo.min(di - r);
        hi = hi.max(di + r);
    }
    let e2: Vec<f64> = e.iter().map(|v| v * v).collect();
    // Eigenvalues at or below `x`, counting a vanishing pivot as negative.
    let count = |x: f64| {
        let mut pivot = 1.0;
        let mut below = 0;
        for (i, di) in d.iter().enumerate() {
            let coupling = if i > 0 { e2[i - 1] / pivot } else { 0.0 };
            pivot = di - x - coupling;
            if pivot.abs() < f64::MIN_POSITIVE {
                pivot = -f64::MIN_POSITIVE;
            }
            if pivot < 0.0 {
                below += 1;
            }
        }
        below
    };
    // Widen the Gershgorin interval past the counts' rounding so the
    // bracket starts with no eigenvalue at or below its low end and every
    // eigenvalue at or below its high end.
    let slack = 4.0 * k as f64 * f64::EPSILON * lo.abs().max(hi.abs());
    let bracket = (lo - slack, hi + slack);
    let min = bisect(bracket, |x| count(x) >= 1);
    let max = bisect(bracket, |x| count(x) >= k);
    // Eigenvalues lie in the Gershgorin interval; clamping only drops the
    // slack a tie at its edge can leave.
    Ok((min.clamp(lo, hi) / scale, max.clamp(lo, hi) / scale))
}

/// The smallest `x` of the bracket with `at_or_above(x)`, to one
/// floating-point step: bisects while the midpoint lies strictly inside the
/// bracket. Each step halves the bracket's width, so a finite bracket ends
/// once the width reaches the spacing of the floating-point numbers there;
/// a NaN midpoint fails the comparison and ends it too.
fn bisect((mut lo, mut hi): (f64, f64), at_or_above: impl Fn(f64) -> bool) -> f64 {
    loop {
        let mid = 0.5 * lo + 0.5 * hi;
        if !(lo < mid && mid < hi) {
            return hi;
        }
        if at_or_above(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Spectral radius of the Jacobi iteration matrix `G = I − A` for a
/// symmetric, unit-diagonal `A`: `ρ(G) = max(|1 − λ_min(A)|, |1 − λ_max(A)|)`.
pub fn jacobi_spectral_radius_unit_diag<T: LinearOperator>(
    a: &T,
    lanczos_steps: usize,
) -> Result<f64, LinalgError> {
    let ext = lanczos_extreme(a, lanczos_steps)?;
    Ok((1.0 - ext.min).abs().max((1.0 - ext.max).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    /// Eigenvalues of the n×n 1-D Laplacian: 2 − 2 cos(kπ/(n+1)).
    fn tridiag_eigs(n: usize) -> Vec<f64> {
        (1..=n)
            .map(|k| 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / (n as f64 + 1.0)).cos())
            .collect()
    }

    #[test]
    fn jacobi_eigensolver_matches_analytic_tridiagonal() {
        let n = 12;
        let a = tridiag(n).to_dense();
        let mut expect = tridiag_eigs(n);
        expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let got = symmetric_eigenvalues(&a).unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-10, "eig {g} vs analytic {e}");
        }
    }

    #[test]
    fn eigensolver_rejects_nonsymmetric() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 5.0, 0.0, 1.0]);
        assert!(symmetric_eigenvalues(&m).is_err());
    }

    #[test]
    fn power_method_finds_dominant_eigenvalue() {
        let a = tridiag(30);
        let r = power_method(&a, 1e-12, 50_000).unwrap();
        let exact = tridiag_eigs(30).into_iter().fold(0.0f64, f64::max);
        assert!((r.value - exact).abs() < 1e-6, "{} vs {}", r.value, exact);
    }

    #[test]
    fn power_method_zero_matrix() {
        let z = CsrMatrix::from_raw_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let r = power_method(&z, 1e-10, 100).unwrap();
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn lanczos_extremes_match_analytic() {
        let n = 64;
        let a = tridiag(n);
        let ext = lanczos_extreme(&a, n).unwrap();
        let eigs = tridiag_eigs(n);
        let (lo, hi) = (
            eigs.iter().cloned().fold(f64::INFINITY, f64::min),
            eigs.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!((ext.max - hi).abs() < 1e-8, "max {} vs {}", ext.max, hi);
        assert!((ext.min - lo).abs() < 1e-6, "min {} vs {}", ext.min, lo);
    }

    #[test]
    fn tridiagonal_extremes_match_analytic() {
        for n in [1, 2, 7, 64] {
            let eigs = tridiag_eigs(n);
            let (lo, hi) = tridiagonal_extremes(&vec![2.0; n], &vec![-1.0; n - 1]).unwrap();
            let (want_lo, want_hi) = (eigs[0], eigs[n - 1]);
            assert!((lo - want_lo).abs() < 1e-13, "n={n}: min {lo} vs {want_lo}");
            assert!((hi - want_hi).abs() < 1e-13, "n={n}: max {hi} vs {want_hi}");
        }
        assert_eq!(
            tridiagonal_extremes(&[0.0; 3], &[0.0; 2]).unwrap(),
            (0.0, 0.0)
        );
        // Bisection brackets a tie at the Gershgorin edge exactly.
        assert_eq!(tridiagonal_extremes(&[3.0], &[]).unwrap(), (3.0, 3.0));
    }

    #[test]
    fn tridiagonal_extremes_reject_bad_input() {
        assert!(tridiagonal_extremes(&[], &[]).is_err());
        assert!(tridiagonal_extremes(&[1.0, 2.0], &[]).is_err());
        assert!(tridiagonal_extremes(&[1.0, f64::NAN], &[0.5]).is_err());
        assert!(tridiagonal_extremes(&[1.0, 2.0], &[f64::INFINITY]).is_err());
    }

    #[test]
    fn lanczos_fails_on_a_non_finite_entry() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 1.0);
        }
        coo.push_sym(0, 1, f64::NAN);
        assert!(lanczos_extreme(&coo.to_csr(), 3).is_err());
    }

    #[test]
    fn jacobi_radius_of_scaled_laplacian_is_below_one() {
        let a = tridiag(40).scale_to_unit_diagonal().unwrap();
        let rho = jacobi_spectral_radius_unit_diag(&a, 40).unwrap();
        // 1-D Laplacian: ρ(G) = cos(π/(n+1)) < 1.
        let exact = (std::f64::consts::PI / 41.0).cos();
        assert!((rho - exact).abs() < 1e-8, "{rho} vs {exact}");
        assert!(rho < 1.0);
    }

    #[test]
    fn dense_spectral_radius_symmetric_and_not() {
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!((dense_spectral_radius(&a) - 1.0).abs() < 1e-12);
        // Non-symmetric positive matrix: Perron root of [[1,2],[3,4]]... use
        // a non-negative matrix so the power method applies.
        let b = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let exact = (5.0 + 33.0f64.sqrt()) / 2.0;
        assert!((dense_spectral_radius(&b) - exact).abs() < 1e-6);
    }
}
