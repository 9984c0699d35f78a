//! Finite-difference Laplacians and variants.
//!
//! All generators produce the negative Laplacian with homogeneous Dirichlet
//! boundary conditions eliminated, i.e. only interior unknowns appear. The
//! resulting matrices are irreducibly weakly diagonally dominant, symmetric
//! positive definite, and have `ρ(G) < 1` — exactly the paper's "FD" class.

use aj_linalg::{CooMatrix, CsrMatrix};

/// 1-D Laplacian: tridiagonal `[-1, 2, -1]` of order `n`.
pub fn laplacian_1d(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0);
        }
    }
    coo.to_csr()
}

/// 2-D five-point Laplacian on an `nx × ny` rectangular grid with uniform
/// spacing (the paper's FD matrices). Row count is `nx·ny`; the nonzero
/// count is `n + 2[(nx−1)ny + nx(ny−1)]`.
pub fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
    laplacian_2d_anisotropic(nx, ny, 1.0, 1.0)
}

/// 2-D five-point Laplacian with direction-dependent coefficients
/// (`cx` on x-couplings, `cy` on y-couplings). `cx = cy = 1` recovers
/// [`laplacian_2d`]; strong anisotropy slows Jacobi down, which the
/// thermal-problem analogue uses.
pub fn laplacian_2d_anisotropic(nx: usize, ny: usize, cx: f64, cy: f64) -> CsrMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let me = idx(i, j);
            coo.push(me, me, 2.0 * (cx + cy));
            if i + 1 < nx {
                coo.push_sym(me, idx(i + 1, j), -cx);
            }
            if j + 1 < ny {
                coo.push_sym(me, idx(i, j + 1), -cy);
            }
        }
    }
    coo.to_csr()
}

/// 3-D seven-point Laplacian on an `nx × ny × nz` box grid.
pub fn laplacian_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let me = idx(i, j, k);
                coo.push(me, me, 6.0);
                if i + 1 < nx {
                    coo.push_sym(me, idx(i + 1, j, k), -1.0);
                }
                if j + 1 < ny {
                    coo.push_sym(me, idx(i, j + 1, k), -1.0);
                }
                if k + 1 < nz {
                    coo.push_sym(me, idx(i, j, k + 1), -1.0);
                }
            }
        }
    }
    coo.to_csr()
}

/// 2-D five-point operator with per-edge random conductances in
/// `[1, 1 + spread]` (a circuit/heterogeneous-media analogue). The diagonal
/// is the sum of incident conductances, so the matrix stays irreducibly
/// W.D.D. and SPD. Deterministic in `seed`.
pub fn random_conductance_2d(nx: usize, ny: usize, spread: f64, seed: u64) -> CsrMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    let mut diag = vec![0.0f64; n];
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            let me = idx(i, j);
            if i + 1 < nx {
                let w = 1.0 + spread * next();
                edges.push((me, idx(i + 1, j), w));
            }
            if j + 1 < ny {
                let w = 1.0 + spread * next();
                edges.push((me, idx(i, j + 1), w));
            }
        }
    }
    for &(a, b, w) in &edges {
        coo.push_sym(a, b, -w);
        diag[a] += w;
        diag[b] += w;
    }
    for (i, &d) in diag.iter().enumerate() {
        // A small Dirichlet-like anchor keeps the matrix nonsingular even for
        // rows whose neighbours are all interior.
        coo.push(i, i, d + 0.05);
    }
    coo.to_csr()
}

/// 2-D Laplacian plus a mass-matrix shift `σI`, the implicit-time-step
/// operator of a parabolic (heat) equation: `A = L + σI`. Larger `σ` makes
/// the matrix more diagonally dominant and Jacobi faster.
pub fn parabolic_2d(nx: usize, ny: usize, sigma: f64) -> CsrMatrix {
    let mut a = laplacian_2d(nx, ny);
    a.shift_diagonal(|_| sigma)
        .expect("the Laplacian stores its diagonal");
    a
}

/// Dimensions of the paper's four FD test matrices, decoded from the row and
/// nonzero counts quoted in §VII: `(name, nx, ny)`.
pub const PAPER_FD_GRIDS: [(&str, usize, usize); 4] = [
    ("fd40", 5, 8),
    ("fd68", 4, 17),
    ("fd272", 16, 17),
    ("fd4624", 68, 68),
];

/// Builds one of the paper's FD matrices by name (`"fd40"`, `"fd68"`,
/// `"fd272"`, `"fd4624"`). Returns `None` for unknown names.
pub fn paper_fd(name: &str) -> Option<CsrMatrix> {
    PAPER_FD_GRIDS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, nx, ny)| laplacian_2d(nx, ny))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fd_sizes_match_quoted_counts() {
        // §VII-B quotes: 40 rows/174 nnz, 68/298, 272/1294, 4624/22848.
        let expect = [
            ("fd40", 40, 174),
            ("fd68", 68, 298),
            ("fd272", 272, 1294),
            ("fd4624", 4624, 22848),
        ];
        for (name, rows, nnz) in expect {
            let a = paper_fd(name).unwrap();
            assert_eq!(a.nrows(), rows, "{name} rows");
            assert_eq!(a.nnz(), nnz, "{name} nnz");
        }
        assert!(paper_fd("nope").is_none());
    }

    #[test]
    fn fd_matrices_are_spd_wdd_symmetric() {
        for a in [laplacian_1d(17), laplacian_2d(6, 7), laplacian_3d(4, 5, 3)] {
            assert!(a.is_symmetric(0.0));
            assert!(a.is_weakly_diagonally_dominant());
            // SPD check via smallest Lanczos eigenvalue.
            let ext = aj_linalg::eigen::lanczos_extreme(&a, a.nrows().min(60)).unwrap();
            assert!(ext.min > 0.0, "λ_min = {}", ext.min);
        }
    }

    #[test]
    fn fd_jacobi_radius_below_one() {
        let a = laplacian_2d(4, 17).scale_to_unit_diagonal().unwrap();
        let rho = aj_linalg::eigen::jacobi_spectral_radius_unit_diag(&a, 68).unwrap();
        assert!(rho < 1.0, "ρ(G) = {rho}");
        // Exact value for the 4×17 grid: (cos(π/5) + cos(π/18)) / 2 ≈ 0.897.
        assert!(
            rho > 0.85,
            "FD matrices are slow for Jacobi, got ρ(G) = {rho}"
        );
    }

    #[test]
    fn anisotropic_reduces_to_isotropic() {
        let a = laplacian_2d(5, 5);
        let b = laplacian_2d_anisotropic(5, 5, 1.0, 1.0);
        assert_eq!(a, b);
        let c = laplacian_2d_anisotropic(5, 5, 10.0, 1.0);
        assert!(c.is_weakly_diagonally_dominant());
        assert_eq!(c.get(0, 0), 22.0);
    }

    #[test]
    fn conductance_matrix_is_spd_and_wdd() {
        let a = random_conductance_2d(8, 9, 3.0, 42);
        assert!(a.is_symmetric(1e-14));
        assert!(a.is_weakly_diagonally_dominant());
        let ext = aj_linalg::eigen::lanczos_extreme(&a, 60).unwrap();
        assert!(ext.min > 0.0);
        // Deterministic in the seed.
        assert_eq!(a, random_conductance_2d(8, 9, 3.0, 42));
        assert_ne!(a, random_conductance_2d(8, 9, 3.0, 43));
    }

    #[test]
    fn parabolic_shift_increases_dominance() {
        let a = parabolic_2d(6, 6, 2.0);
        assert_eq!(a.get(0, 0), 6.0);
        assert!(a.is_weakly_diagonally_dominant());
        // Strictly dominant now, so Jacobi contracts in the ∞-norm.
        let g = aj_linalg::IterationMatrix::new(&a).to_csr();
        assert!(g.norm_inf() < 1.0);
    }

    #[test]
    fn grid_interior_row_has_five_nonzeros() {
        let a = laplacian_2d(5, 5);
        // Center point (2,2) → row 12.
        assert_eq!(a.row_nnz(12), 5);
        // Corner row 0 has 3.
        assert_eq!(a.row_nnz(0), 3);
    }
}
