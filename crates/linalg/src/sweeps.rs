//! Reference stationary sweeps: synchronous Jacobi, Gauss–Seidel, and
//! greedy multicoloring.
//!
//! These are the textbook baselines the paper compares against and the
//! ground truth that `aj-model`'s mask-sequence formulation must reproduce
//! (§IV-B: natural-order Gauss–Seidel equals relaxing single-row masks in
//! ascending order; multicolor Gauss–Seidel equals relaxing independent-set
//! masks).

use crate::csr::CsrMatrix;
use crate::error::LinalgError;
use crate::vecops::{self, Norm};

/// One synchronous Jacobi iteration `x⁺ = x + D⁻¹(b − Ax)`, writing into
/// `x_next`. `diag_inv[i] = 1/a_ii`.
pub fn jacobi_iteration(a: &CsrMatrix, b: &[f64], diag_inv: &[f64], x: &[f64], x_next: &mut [f64]) {
    weighted_jacobi_iteration(a, b, diag_inv, 1.0, x, x_next);
}

/// One weighted (damped) Jacobi iteration `x⁺ = x + ω D⁻¹(b − Ax)`.
///
/// The damped iteration matrix is `G_ω = I − ω D⁻¹A`; for symmetric
/// unit-diagonal `A` it converges iff `0 < ω < 2/λ_max(A)`, so damping can
/// rescue matrices with `ρ(G) > 1` — the synchronous counterpart of the
/// paper's asynchronous rescue (see the `omega` ablation).
pub fn weighted_jacobi_iteration(
    a: &CsrMatrix,
    b: &[f64],
    diag_inv: &[f64],
    omega: f64,
    x: &[f64],
    x_next: &mut [f64],
) {
    for i in 0..a.nrows() {
        let r = b[i] - a.row_dot(i, x);
        x_next[i] = x[i] + omega * diag_inv[i] * r;
    }
}

/// `1/a_ii` for every row.
///
/// # Errors
/// [`LinalgError::ZeroDiagonal`] naming the first row whose diagonal is 0.
pub fn inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, LinalgError> {
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

/// Runs synchronous Jacobi until the relative residual (in `norm`) drops
/// below `tol` or `max_iter` iterations elapse. Returns the iterate and the
/// per-iteration relative-residual history (entry 0 is the initial value).
pub fn jacobi_solve(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iter: usize,
    norm: Norm,
) -> Result<(Vec<f64>, Vec<f64>), LinalgError> {
    let diag_inv = inverse_diagonal(a)?;
    let mut x = x0.to_vec();
    let mut x_next = vec![0.0; x.len()];
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    // The fused path is bit-identical to norm-of-residual but allocates no
    // residual vector per iteration.
    let mut history = vec![a.residual_norm(&x, b, norm) / nb];
    for _ in 0..max_iter {
        if *history.last().unwrap() < tol {
            break;
        }
        jacobi_iteration(a, b, &diag_inv, &x, &mut x_next);
        std::mem::swap(&mut x, &mut x_next);
        history.push(a.residual_norm(&x, b, norm) / nb);
    }
    Ok((x, history))
}

/// One in-place Gauss–Seidel sweep in natural (ascending) row order.
pub fn gauss_seidel_sweep(a: &CsrMatrix, b: &[f64], diag_inv: &[f64], x: &mut [f64]) {
    sor_sweep(a, b, diag_inv, 1.0, x);
}

/// One in-place SOR sweep (`ω = 1` is Gauss–Seidel). For SPD matrices SOR
/// converges for any `0 < ω < 2`.
pub fn sor_sweep(a: &CsrMatrix, b: &[f64], diag_inv: &[f64], omega: f64, x: &mut [f64]) {
    for i in 0..a.nrows() {
        let r = b[i] - a.row_dot(i, x);
        x[i] += omega * diag_inv[i] * r;
    }
}

/// Runs Gauss–Seidel to `tol`; same contract as [`jacobi_solve`].
pub fn gauss_seidel_solve(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iter: usize,
    norm: Norm,
) -> Result<(Vec<f64>, Vec<f64>), LinalgError> {
    let diag_inv = inverse_diagonal(a)?;
    let mut x = x0.to_vec();
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    // Fused residual norm: no per-iteration Vec (see jacobi_solve).
    let mut history = vec![a.residual_norm(&x, b, norm) / nb];
    for _ in 0..max_iter {
        if *history.last().unwrap() < tol {
            break;
        }
        gauss_seidel_sweep(a, b, &diag_inv, &mut x);
        history.push(a.residual_norm(&x, b, norm) / nb);
    }
    Ok((x, history))
}

/// Greedy graph coloring of the matrix adjacency (off-diagonal pattern).
/// Returns `color[i]` with colors `0..num_colors`; rows sharing an edge get
/// different colors, so each color class is an independent set that can be
/// relaxed concurrently (multicolor Gauss–Seidel, §IV-B).
pub fn greedy_coloring(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    let mut color = vec![usize::MAX; n];
    let mut forbidden: Vec<usize> = Vec::new();
    for i in 0..n {
        forbidden.clear();
        for (j, _) in a.row_iter(i) {
            if j != i && color[j] != usize::MAX {
                forbidden.push(color[j]);
            }
        }
        let mut c = 0;
        while forbidden.contains(&c) {
            c += 1;
        }
        color[i] = c;
    }
    color
}

/// Groups row indices by color (ascending color, ascending index inside a
/// class).
pub fn color_classes(colors: &[usize]) -> Vec<Vec<usize>> {
    let k = colors.iter().copied().max().map_or(0, |m| m + 1);
    let mut classes = vec![Vec::new(); k];
    for (i, &c) in colors.iter().enumerate() {
        classes[c].push(i);
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn jacobi_converges_on_spd_wdd_matrix() {
        let a = laplacian(10);
        let b = vec![1.0; 10];
        let (x, hist) = jacobi_solve(&a, &b, &[0.0; 10], 1e-10, 20_000, Norm::L2).unwrap();
        assert!(*hist.last().unwrap() < 1e-10);
        assert!(a.relative_residual(&x, &b, Norm::L2) < 1e-9);
        // History is monotone decreasing for this normal iteration matrix.
        for w in hist.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12));
        }
    }

    #[test]
    fn gauss_seidel_converges_faster_than_jacobi() {
        let a = laplacian(20);
        let b = vec![1.0; 20];
        let x0 = vec![0.0; 20];
        let (_, hj) = jacobi_solve(&a, &b, &x0, 1e-8, 100_000, Norm::L2).unwrap();
        let (_, hg) = gauss_seidel_solve(&a, &b, &x0, 1e-8, 100_000, Norm::L2).unwrap();
        assert!(
            hg.len() < hj.len(),
            "GS {} iters vs Jacobi {}",
            hg.len(),
            hj.len()
        );
    }

    #[test]
    fn zero_diagonal_is_reported() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            jacobi_solve(&a, &[1.0, 1.0], &[0.0, 0.0], 1e-8, 10, Norm::L2),
            Err(LinalgError::ZeroDiagonal { row: 0 })
        ));
    }

    #[test]
    fn coloring_is_proper_and_tridiagonal_needs_two_colors() {
        let a = laplacian(9);
        let colors = greedy_coloring(&a);
        for i in 0..9 {
            for (j, _) in a.row_iter(i) {
                if j != i {
                    assert_ne!(colors[i], colors[j], "edge ({i},{j}) same color");
                }
            }
        }
        assert_eq!(colors.iter().copied().max().unwrap(), 1);
        let classes = color_classes(&colors);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.iter().map(|c| c.len()).sum::<usize>(), 9);
    }

    #[test]
    fn color_classes_of_empty() {
        assert!(color_classes(&[]).is_empty());
    }

    #[test]
    fn damped_jacobi_rescues_an_indefinite_splitting() {
        // K4 with +0.4 off-diagonals and unit diagonal: eigenvalues are
        // 1 + 3(0.4) = 2.2 (once) and 1 − 0.4 = 0.6 (three times) — SPD
        // with λ_max > 2, so plain Jacobi diverges (ρ(G) = 1.2) while
        // ω = 0.5 maps the spectrum into (−0.1, 0.7).
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
            for j in (i + 1)..4 {
                coo.push_sym(i, j, 0.4);
            }
        }
        let a2 = coo.to_csr();
        let diag_inv = vec![1.0; 4];
        let b = vec![1.0, 0.0, 1.0, -0.5];
        let mut x = vec![0.0; 4];
        let mut x_next = vec![0.0; 4];
        for _ in 0..2000 {
            weighted_jacobi_iteration(&a2, &b, &diag_inv, 0.5, &x, &mut x_next);
            std::mem::swap(&mut x, &mut x_next);
        }
        assert!(a2.relative_residual(&x, &b, Norm::L2) < 1e-8);
        // Plain Jacobi diverges on it.
        let mut y = vec![0.0; 4];
        let mut y_next = vec![0.0; 4];
        for _ in 0..2000 {
            jacobi_iteration(&a2, &b, &diag_inv, &y, &mut y_next);
            std::mem::swap(&mut y, &mut y_next);
        }
        assert!(a2.relative_residual(&y, &b, Norm::L2) > 1.0);
    }

    #[test]
    fn sor_with_omega_above_one_accelerates_laplacian() {
        let a = laplacian(30);
        let diag_inv: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let b = vec![1.0; 30];
        let count_sweeps = |omega: f64| {
            let mut x = vec![0.0; 30];
            let mut k = 0;
            while a.relative_residual(&x, &b, Norm::L2) > 1e-8 && k < 100_000 {
                sor_sweep(&a, &b, &diag_inv, omega, &mut x);
                k += 1;
            }
            k
        };
        let gs = count_sweeps(1.0);
        let sor = count_sweeps(1.8);
        assert!(sor < gs, "SOR(1.8) {sor} sweeps vs GS {gs}");
    }
}
