//! Problem construction: matrix + right-hand side + initial iterate.

use aj_linalg::{CsrMatrix, LinalgError};
use aj_matrices::{fd, fe, mm, rhs, suite};
use std::path::Path;

/// A linear system in the paper's canonical form: symmetric `A` scaled to a
/// unit diagonal, random `b` and `x0` in `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Short name for reports.
    pub name: String,
    /// The system matrix (unit diagonal).
    pub a: CsrMatrix,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Initial iterate.
    pub x0: Vec<f64>,
}

impl Problem {
    /// Wraps an arbitrary matrix: scales it to unit diagonal and draws the
    /// paper's random `b`/`x0` with the given seed.
    pub fn from_matrix(
        name: impl Into<String>,
        a: CsrMatrix,
        seed: u64,
    ) -> Result<Problem, LinalgError> {
        let a = a.scale_to_unit_diagonal()?;
        let (b, x0) = rhs::paper_problem(a.nrows(), seed);
        Ok(Problem {
            name: name.into(),
            a,
            b,
            x0,
        })
    }

    /// One of the paper's FD matrices by name (`"fd40"`, `"fd68"`,
    /// `"fd272"`, `"fd4624"`).
    pub fn paper_fd(which: &str, seed: u64) -> Option<Problem> {
        let a = fd::paper_fd(which)?;
        Some(Self::from_matrix(which, a, seed).expect("FD matrices have positive diagonals"))
    }

    /// The paper's FE matrix (`ρ(G) > 1`; synchronous Jacobi diverges).
    pub fn paper_fe(seed: u64) -> Problem {
        let a = fe::paper_fe_matrix(); // already unit-diagonal
        let (b, x0) = rhs::paper_problem(a.nrows(), seed);
        Problem {
            name: "fe".into(),
            a,
            b,
            x0,
        }
    }

    /// A Table I analogue by SuiteSparse name.
    pub fn suite(name: &str, scale: suite::Scale, seed: u64) -> Option<Problem> {
        let p = suite::find_problem(name)?;
        let a = p.build(scale); // unit-diagonal by construction
        let (b, x0) = rhs::paper_problem(a.nrows(), seed);
        Some(Problem {
            name: p.name.into(),
            a,
            b,
            x0,
        })
    }

    /// Loads a Matrix Market file (e.g. a real SuiteSparse matrix) and puts
    /// it in canonical form.
    pub fn from_matrix_market(path: &Path, seed: u64) -> Result<Problem, LinalgError> {
        let a = mm::read_matrix_market_file(path)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        Self::from_matrix(name, a, seed)
    }

    /// Problem size.
    pub fn n(&self) -> usize {
        self.a.nrows()
    }

    /// Relative residual of an iterate in the requested norm.
    pub fn relative_residual(&self, x: &[f64], norm: aj_linalg::vecops::Norm) -> f64 {
        self.a.relative_residual(x, &self.b, norm)
    }

    /// [`Self::relative_residual`] of a solve's final iterate `x`, taking
    /// `taken` — the value the engine or outer loop already computed for
    /// `x` — when there is one and ‖b‖ ≥ `MIN_POSITIVE`. Above that bound
    /// the monitor's clamped ‖b‖, `relative_residual`'s b = 0 convention
    /// and aj-outer's divide-by-1 agree bit for bit; below it the residual
    /// is recomputed.
    pub(crate) fn final_residual(
        &self,
        x: &[f64],
        norm: aj_linalg::vecops::Norm,
        taken: Option<f64>,
    ) -> f64 {
        match taken {
            Some(r) if aj_linalg::vecops::norm(&self.b, norm) >= f64::MIN_POSITIVE => r,
            _ => self.relative_residual(x, norm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_linalg::vecops::Norm;

    #[test]
    fn paper_fd_problems_are_canonical() {
        let p = Problem::paper_fd("fd68", 1).unwrap();
        assert_eq!(p.n(), 68);
        assert!((p.a.get(0, 0) - 1.0).abs() < 1e-14);
        assert!(p.b.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert!(Problem::paper_fd("fd9999", 1).is_none());
    }

    #[test]
    fn fe_problem_has_rho_above_one() {
        let p = Problem::paper_fe(2);
        let rho = aj_linalg::eigen::jacobi_spectral_radius_unit_diag(&p.a, 120).unwrap();
        assert!(rho > 1.0);
    }

    #[test]
    fn suite_lookup_and_residual() {
        let p = Problem::suite("ecology2", aj_matrices::suite::Scale::Tiny, 3).unwrap();
        let r0 = p.relative_residual(&p.x0, Norm::L1);
        assert!(r0 > 0.1, "random start should not be converged, r0 = {r0}");
        assert!(Problem::suite("unknown", aj_matrices::suite::Scale::Tiny, 3).is_none());
    }

    #[test]
    fn from_matrix_scales_diagonal() {
        let a = aj_matrices::fd::laplacian_1d(5);
        let p = Problem::from_matrix("chain", a, 7).unwrap();
        for i in 0..5 {
            assert!((p.a.get(i, i) - 1.0).abs() < 1e-14);
        }
        assert_eq!(p.name, "chain");
    }

    #[test]
    fn seeds_change_data_not_matrix() {
        let p1 = Problem::paper_fd("fd40", 1).unwrap();
        let p2 = Problem::paper_fd("fd40", 2).unwrap();
        assert_eq!(p1.a, p2.a);
        assert_ne!(p1.b, p2.b);
    }
}
