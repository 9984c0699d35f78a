//! Propagation matrices `Ĝ(k)` and `Ĥ(k)` (paper §IV-A) and the Theorem 1
//! diagnostics.
//!
//! Structure (for unit-diagonal `A`): `Ĝ(k)` equals `G = I − A` with every
//! *row* belonging to a delayed index replaced by the unit basis vector;
//! `Ĥ(k)` equals `G` with every such *column* replaced by the unit basis
//! vector.

use crate::mask::ActiveMask;
use aj_linalg::method::{self, ResolvedMethod};
use aj_linalg::{eigen, CsrMatrix};

/// One model relaxation step applied in place:
/// `x ← x + D̂ D⁻¹ (b − A x)`. Only rows active in `mask` change.
/// `diag_inv[i] = 1 / a_ii`.
pub fn apply_step(a: &CsrMatrix, b: &[f64], diag_inv: &[f64], mask: &ActiveMask, x: &mut [f64]) {
    apply_method_step(a, b, diag_inv, mask, &ResolvedMethod::Jacobi, 0, x, &mut []);
}

/// Weighted (damped) model step: `x ← x + ω D̂ D⁻¹ (b − A x)`, which is
/// [`apply_method_step`] with `Richardson1 { ω }`. The masked damped
/// propagation matrix is `Ĝ_ω(k) = I − ω D̂ D⁻¹ A`.
pub fn apply_step_weighted(
    a: &CsrMatrix,
    b: &[f64],
    diag_inv: &[f64],
    mask: &ActiveMask,
    omega: f64,
    x: &mut [f64],
) {
    let method = ResolvedMethod::Richardson1 { omega };
    apply_method_step(a, b, diag_inv, mask, &method, 0, x, &mut []);
}

/// One masked step of an arbitrary [`ResolvedMethod`]: active rows update
/// per the method, delayed rows hold. `x_prev[i]` must hold the value `x[i]`
/// had before its last relaxation (initialize to `x0`; the momentum term
/// then vanishes on a row's first relaxation) and is maintained here for
/// the rows that relax; methods without momentum never read it, so they
/// may pass an empty slice. `step` feeds the randomized row-selection
/// stream. Returns the number of rows relaxed, which for `rwr` is a
/// residual-weighted subset of the mask.
///
/// The active rows are gathered into one block, all their residuals are
/// computed from the same `x` (the simultaneous reads of Equation (6)),
/// [`method::relax_block`] updates the block, and the results are
/// scattered back.
#[allow(clippy::too_many_arguments)] // mirrors the run_*_model signature plus the method
pub fn apply_method_step(
    a: &CsrMatrix,
    b: &[f64],
    diag_inv: &[f64],
    mask: &ActiveMask,
    method: &ResolvedMethod,
    step: u64,
    x: &mut [f64],
    x_prev: &mut [f64],
) -> usize {
    debug_assert_eq!(x.len(), a.nrows());
    debug_assert_eq!(b.len(), a.nrows());
    let active = mask.active_rows();
    let gather = |v: &[f64]| -> Vec<f64> { active.iter().map(|&i| v[i]).collect() };
    let res: Vec<f64> = active.iter().map(|&i| b[i] - a.row_dot(i, x)).collect();
    let mut block = gather(x);
    let momentum = method.needs_previous_iterate();
    let mut block_prev = if momentum { gather(x_prev) } else { Vec::new() };
    let relaxed = method::relax_block(
        method,
        &res,
        &gather(diag_inv),
        &mut block,
        &mut block_prev,
        0,
        step,
    );
    for (k, &i) in active.iter().enumerate() {
        x[i] = block[k];
        if momentum {
            x_prev[i] = block_prev[k];
        }
    }
    relaxed
}

/// The error propagation matrix `Ĝ(k) = I − D̂ D⁻¹ A` as explicit CSR.
pub fn ghat_csr(a: &CsrMatrix, mask: &ActiveMask) -> CsrMatrix {
    let n = a.nrows();
    let diag = a.diagonal();
    let mut coo = aj_linalg::CooMatrix::with_capacity(n, n, a.nnz() + n);
    for i in 0..n {
        if mask.is_active(i) {
            let inv = 1.0 / diag[i];
            let mut wrote_diag = false;
            for (j, v) in a.row_iter(i) {
                let g = if j == i {
                    wrote_diag = true;
                    1.0 - inv * v
                } else {
                    -inv * v
                };
                coo.push(i, j, g);
            }
            if !wrote_diag {
                coo.push(i, i, 1.0);
            }
        } else {
            // Delayed row: unit basis vector row.
            coo.push(i, i, 1.0);
        }
    }
    coo.to_csr()
}

/// The residual propagation matrix `Ĥ(k) = I − A D̂ D⁻¹` as explicit CSR.
pub fn hhat_csr(a: &CsrMatrix, mask: &ActiveMask) -> CsrMatrix {
    let n = a.nrows();
    let diag = a.diagonal();
    let mut coo = aj_linalg::CooMatrix::with_capacity(n, n, a.nnz() + n);
    for i in 0..n {
        let mut wrote_diag = false;
        for (j, v) in a.row_iter(i) {
            if mask.is_active(j) {
                let h = if j == i {
                    wrote_diag = true;
                    1.0 - v / diag[j]
                } else {
                    -v / diag[j]
                };
                coo.push(i, j, h);
            } else if j == i {
                wrote_diag = true;
                coo.push(i, i, 1.0);
            }
        }
        if !wrote_diag {
            coo.push(i, i, 1.0);
        }
    }
    coo.to_csr()
}

/// Everything Theorem 1 asserts about one propagation step, measured.
#[derive(Debug, Clone, Copy)]
pub struct Theorem1Check {
    /// `‖Ĝ(k)‖∞` — 1 exactly when `A` is W.D.D. and some row is delayed.
    pub ghat_norm_inf: f64,
    /// `‖Ĥ(k)‖₁` — same statement in the 1-norm.
    pub hhat_norm_one: f64,
    /// `ρ(Ĝ(k))` (power-method estimate on small matrices).
    pub ghat_spectral_radius: f64,
    /// `ρ(Ĥ(k))`.
    pub hhat_spectral_radius: f64,
    /// Number of delayed rows in the mask.
    pub num_delayed: usize,
}

/// Measures the Theorem 1 quantities for `A` and one mask. Spectral radii
/// use the dense eigensolver when the propagation matrix is symmetric and a
/// power iteration otherwise, so keep `n` modest (≤ ~2000).
pub fn theorem1_check(a: &CsrMatrix, mask: &ActiveMask) -> Theorem1Check {
    let g = ghat_csr(a, mask);
    let h = hhat_csr(a, mask);
    Theorem1Check {
        ghat_norm_inf: g.norm_inf(),
        hhat_norm_one: h.norm_one(),
        ghat_spectral_radius: eigen::dense_spectral_radius(&g.to_dense()),
        hhat_spectral_radius: eigen::dense_spectral_radius(&h.to_dense()),
        num_delayed: mask.num_delayed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::fd;

    fn unit_fd(nx: usize, ny: usize) -> CsrMatrix {
        fd::laplacian_2d(nx, ny).scale_to_unit_diagonal().unwrap()
    }

    #[test]
    fn full_mask_reproduces_synchronous_jacobi() {
        let a = unit_fd(3, 4);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let diag_inv = vec![1.0; n];
        let mut x = x0.clone();
        apply_step(&a, &b, &diag_inv, &ActiveMask::all(n), &mut x);
        let mut x_ref = vec![0.0; n];
        aj_linalg::sweeps::jacobi_iteration(&a, &b, &diag_inv, &x0, &mut x_ref);
        assert!(aj_linalg::vecops::rel_diff(&x, &x_ref) < 1e-15);
    }

    #[test]
    fn empty_mask_is_identity() {
        let a = unit_fd(3, 3);
        let n = a.nrows();
        let b = vec![1.0; n];
        let diag_inv = vec![1.0; n];
        let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let before = x.clone();
        apply_step(&a, &b, &diag_inv, &ActiveMask::none(n), &mut x);
        assert_eq!(x, before);
        let g = ghat_csr(&a, &ActiveMask::none(n));
        assert!(
            g.to_dense()
                .max_abs_diff(&aj_linalg::DenseMatrix::identity(n))
                < 1e-15
        );
    }

    #[test]
    fn ghat_rows_of_delayed_rows_are_unit_basis() {
        let a = unit_fd(3, 3);
        let mask = ActiveMask::all_except(9, &[4]);
        let g = ghat_csr(&a, &mask);
        assert_eq!(g.row_indices(4), &[4]);
        assert_eq!(g.row_values(4), &[1.0]);
        // Active rows match G = I − A.
        let gfull = aj_linalg::IterationMatrix::new(&a).to_csr();
        for i in [0usize, 1, 2, 3, 5, 6, 7, 8] {
            assert_eq!(g.row_indices(i), gfull.row_indices(i));
        }
    }

    #[test]
    fn hhat_columns_of_delayed_rows_are_unit_basis() {
        let a = unit_fd(3, 3);
        let mask = ActiveMask::all_except(9, &[4]);
        let h = hhat_csr(&a, &mask);
        let ht = h.transpose();
        assert_eq!(ht.row_indices(4), &[4]);
        assert_eq!(ht.row_values(4), &[1.0]);
    }

    #[test]
    fn ghat_is_transpose_of_hhat_for_symmetric_unit_diagonal() {
        // For symmetric unit-diagonal A: Ĥ = I − A D̂ = (I − D̂ A)ᵀ = Ĝᵀ.
        let a = unit_fd(4, 3);
        let mask = ActiveMask::from_rows(12, &[0, 3, 7, 11]);
        let g = ghat_csr(&a, &mask);
        let h = hhat_csr(&a, &mask);
        assert!(g.to_dense().max_abs_diff(&h.transpose().to_dense()) < 1e-14);
    }

    #[test]
    fn error_and_residual_propagate_as_claimed() {
        // e(k+1) = Ĝ e(k) and r(k+1) = Ĥ r(k), verified numerically.
        let a = unit_fd(4, 4);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        // Solve accurately for the exact solution with plain Jacobi.
        let (x_exact, _) = aj_linalg::sweeps::jacobi_solve(
            &a,
            &b,
            &vec![0.0; n],
            1e-14,
            200_000,
            aj_linalg::vecops::Norm::L2,
        )
        .unwrap();
        let mask = ActiveMask::all_except(n, &[2, 9]);
        let diag_inv = vec![1.0; n];
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin()).collect();
        let mut x1 = x0.clone();
        apply_step(&a, &b, &diag_inv, &mask, &mut x1);

        let e0 = aj_linalg::vecops::sub(&x_exact, &x0);
        let e1 = aj_linalg::vecops::sub(&x_exact, &x1);
        let g = ghat_csr(&a, &mask);
        assert!(aj_linalg::vecops::rel_diff(&g.spmv(&e0), &e1) < 1e-10);

        let r0 = a.residual(&x0, &b);
        let r1 = a.residual(&x1, &b);
        let h = hhat_csr(&a, &mask);
        assert!(aj_linalg::vecops::rel_diff(&h.spmv(&r0), &r1) < 1e-10);
    }

    #[test]
    fn theorem1_holds_on_wdd_matrix_with_delays() {
        let a = unit_fd(4, 4);
        assert!(a.is_weakly_diagonally_dominant());
        let mask = ActiveMask::all_except(16, &[5]);
        let c = theorem1_check(&a, &mask);
        assert!(
            (c.ghat_norm_inf - 1.0).abs() < 1e-12,
            "‖Ĝ‖∞ = {}",
            c.ghat_norm_inf
        );
        assert!(
            (c.hhat_norm_one - 1.0).abs() < 1e-12,
            "‖Ĥ‖₁ = {}",
            c.hhat_norm_one
        );
        assert!(
            (c.ghat_spectral_radius - 1.0).abs() < 1e-6,
            "ρ(Ĝ) = {}",
            c.ghat_spectral_radius
        );
        assert!(
            (c.hhat_spectral_radius - 1.0).abs() < 1e-6,
            "ρ(Ĥ) = {}",
            c.hhat_spectral_radius
        );
        assert_eq!(c.num_delayed, 1);
    }

    #[test]
    fn weighted_step_with_omega_one_equals_plain_step() {
        let a = unit_fd(3, 3);
        let b = vec![0.5; 9];
        let diag_inv = vec![1.0; 9];
        let mask = ActiveMask::all_except(9, &[2]);
        let mut x1: Vec<f64> = (0..9).map(|i| i as f64 * 0.1).collect();
        let mut x2 = x1.clone();
        apply_step(&a, &b, &diag_inv, &mask, &mut x1);
        apply_step_weighted(&a, &b, &diag_inv, &mask, 1.0, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn weighted_step_scales_the_update() {
        let a = unit_fd(3, 3);
        let b = vec![0.5; 9];
        let diag_inv = vec![1.0; 9];
        let mask = ActiveMask::all(9);
        let x0: Vec<f64> = (0..9).map(|i| (i as f64).cos()).collect();
        let mut x_full = x0.clone();
        apply_step(&a, &b, &diag_inv, &mask, &mut x_full);
        let mut x_half = x0.clone();
        apply_step_weighted(&a, &b, &diag_inv, &mask, 0.5, &mut x_half);
        for i in 0..9 {
            let full = x_full[i] - x0[i];
            let half = x_half[i] - x0[i];
            assert!((half - 0.5 * full).abs() < 1e-15);
        }
    }

    #[test]
    fn no_delay_norms_can_drop_below_one_with_strict_dominance() {
        // Strictly dominant matrix, no delayed rows: ‖G‖∞ < 1.
        let a = fd::parabolic_2d(4, 4, 1.0)
            .scale_to_unit_diagonal()
            .unwrap();
        let c = theorem1_check(&a, &ActiveMask::all(16));
        assert!(c.ghat_norm_inf < 1.0);
    }
}
