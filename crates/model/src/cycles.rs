//! Spectral analysis of *periodic* propagation sequences.
//!
//! A periodic schedule applies the same masks `Ψ(1), …, Ψ(p)` over and
//! over, so the error contracts per period by the product
//! `T = Ĝ(p) ⋯ Ĝ(2) Ĝ(1)`. Its spectral radius `ρ(T)` is the *effective*
//! asymptotic rate of that asynchronous pattern — the quantity that decides
//! the §IV-D convergence questions exactly (e.g. multicolor Gauss–Seidel is
//! the two-mask period whose product radius matches classical GS theory).
//!
//! `T` is applied matrix-free (one masked relaxation per factor), and
//! `ρ(T)` estimated by the power method on the period map.

use crate::mask::ActiveMask;
use crate::propagation::apply_step_weighted;
use aj_linalg::ops::LinearOperator;
use aj_linalg::{eigen, sweeps, CsrMatrix, LinalgError};

/// The linear period map `e ↦ T e` of a mask sequence (error propagation
/// through one period, `b = 0`).
pub struct PeriodOperator<'a> {
    a: &'a CsrMatrix,
    masks: &'a [ActiveMask],
    diag_inv: Vec<f64>,
    omega: f64,
}

impl<'a> PeriodOperator<'a> {
    /// Builds the period map for `a` and `masks` with weight `omega`.
    ///
    /// # Errors
    /// [`LinalgError::ZeroDiagonal`] when a diagonal entry vanishes.
    pub fn new(a: &'a CsrMatrix, masks: &'a [ActiveMask], omega: f64) -> Result<Self, LinalgError> {
        assert!(!masks.is_empty(), "need at least one mask per period");
        let diag_inv = sweeps::inverse_diagonal(a)?;
        Ok(PeriodOperator {
            a,
            masks,
            diag_inv,
            omega,
        })
    }
}

impl LinearOperator for PeriodOperator<'_> {
    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Error propagation = the affine iteration with b = 0.
        y.copy_from_slice(x);
        let zero_b = vec![0.0; x.len()];
        for mask in self.masks {
            apply_step_weighted(self.a, &zero_b, &self.diag_inv, mask, self.omega, y);
        }
    }
}

/// Power-method estimate of the effective per-period spectral radius of a
/// mask sequence. The per-*step* rate is `ρ^(1/p)` for a period of length
/// `p`.
pub fn period_spectral_radius(
    a: &CsrMatrix,
    masks: &[ActiveMask],
    omega: f64,
) -> Result<f64, LinalgError> {
    let op = PeriodOperator::new(a, masks, omega)?;
    Ok(eigen::power_method(&op, 1e-10, 50_000)?.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gs_equiv;
    use aj_matrices::fd;

    fn unit_fd(nx: usize, ny: usize) -> CsrMatrix {
        fd::laplacian_2d(nx, ny).scale_to_unit_diagonal().unwrap()
    }

    #[test]
    fn full_mask_period_recovers_jacobi_radius() {
        let a = unit_fd(5, 5);
        let masks = vec![ActiveMask::all(25)];
        let rho = period_spectral_radius(&a, &masks, 1.0).unwrap();
        let exact = eigen::jacobi_spectral_radius_unit_diag(&a, 25).unwrap();
        assert!((rho - exact).abs() < 1e-6, "{rho} vs {exact}");
    }

    #[test]
    fn gauss_seidel_period_matches_classical_theory() {
        // For consistently-ordered matrices (2-D 5-point grids are),
        // ρ(GS) = ρ(Jacobi)². The GS period = single-row masks in order.
        let a = unit_fd(4, 4);
        let masks = gs_equiv::gauss_seidel_masks(16);
        let rho_gs = period_spectral_radius(&a, &masks, 1.0).unwrap();
        let rho_j = eigen::jacobi_spectral_radius_unit_diag(&a, 16).unwrap();
        assert!(
            (rho_gs - rho_j * rho_j).abs() < 1e-4,
            "ρ(GS) = {rho_gs} vs ρ(J)² = {}",
            rho_j * rho_j
        );
    }

    #[test]
    fn multicolor_gs_period_matches_gs_on_two_colorable_grids() {
        // Red-black GS on a consistently-ordered matrix has the same
        // asymptotic rate as lexicographic GS.
        let a = unit_fd(4, 4);
        let colors = sweeps::greedy_coloring(&a);
        let masks = gs_equiv::multicolor_masks(&colors);
        assert_eq!(masks.len(), 2);
        let rho_mc = period_spectral_radius(&a, &masks, 1.0).unwrap();
        let rho_j = eigen::jacobi_spectral_radius_unit_diag(&a, 16).unwrap();
        assert!(
            (rho_mc - rho_j * rho_j).abs() < 1e-4,
            "{rho_mc} vs {}",
            rho_j * rho_j
        );
    }

    #[test]
    fn delayed_row_period_has_unit_radius() {
        // Theorem 1 for products: if one row never relaxes in the period,
        // its unit vector is a fixed point of every factor, so ρ(T) = 1.
        let a = unit_fd(4, 4);
        let masks = vec![
            ActiveMask::all_except(16, &[5]),
            ActiveMask::all_except(16, &[5]),
        ];
        let rho = period_spectral_radius(&a, &masks, 1.0).unwrap();
        assert!((rho - 1.0).abs() < 1e-6, "ρ = {rho}");
    }

    #[test]
    fn alternating_halves_beat_single_jacobi_step_per_relaxation() {
        // Relaxing the two halves alternately (a 2-mask period; each row
        // relaxes once per period) is multiplicative and contracts at least
        // as fast per period as one full Jacobi step per... period of
        // relaxation work.
        let a = unit_fd(4, 4);
        let n = 16;
        let first: Vec<usize> = (0..n / 2).collect();
        let second: Vec<usize> = (n / 2..n).collect();
        let masks = vec![
            ActiveMask::from_rows(n, &first),
            ActiveMask::from_rows(n, &second),
        ];
        let rho_halves = period_spectral_radius(&a, &masks, 1.0).unwrap();
        let rho_j = eigen::jacobi_spectral_radius_unit_diag(&a, n).unwrap();
        // Same number of relaxations per period as one Jacobi step.
        assert!(
            rho_halves < rho_j,
            "ρ(halves) = {rho_halves} vs ρ(J) = {rho_j}"
        );
    }

    #[test]
    fn damping_changes_the_period_radius() {
        let a = unit_fd(4, 4);
        let masks = vec![ActiveMask::all(16)];
        let rho_1 = period_spectral_radius(&a, &masks, 1.0).unwrap();
        let rho_07 = period_spectral_radius(&a, &masks, 0.7).unwrap();
        assert!(
            rho_07 > rho_1,
            "under-damping slows SPD Jacobi: {rho_07} vs {rho_1}"
        );
    }
}
