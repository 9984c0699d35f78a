//! P1 (linear triangle) finite-element stiffness assembly for the Laplace
//! equation, with Dirichlet boundary elimination.
//!
//! For a triangle with vertices `p₀, p₁, p₂` and area `A`, the local
//! stiffness matrix is `K_ij = (bᵢbⱼ + cᵢcⱼ) / (4A)` where
//! `bᵢ = y_j − y_k`, `cᵢ = x_k − x_j` (cyclic). Off-diagonal entries are
//! `−cot(θ_k)/2` for the angle opposite the edge — *positive* when the
//! angle is obtuse, which is how perturbed meshes lose weak diagonal
//! dominance (and how the paper's FE matrix gets `ρ(G) > 1`).
//!
//! Assembly is O(nnz) and writes CSR directly: each interior vertex's row
//! holds the vertex and the interior vertices it shares a triangle with,
//! columns ascending, and the element matrices are added into those rows
//! in triangle order. A repeated `(row, col)` entry is therefore the sum of
//! its element contributions in the order the triangles come, the rule
//! [`aj_linalg::CooMatrix::to_csr`] applies to triplets pushed in that
//! order.

use crate::mesh::TriangleMesh;
use aj_linalg::CsrMatrix;

/// Assembles the P1 stiffness matrix over the interior (non-Dirichlet)
/// vertices of `mesh`. Returns the matrix together with the map from
/// interior-unknown index to mesh vertex index.
pub fn assemble_p1_stiffness(mesh: &TriangleMesh) -> (CsrMatrix, Vec<usize>) {
    let nv = mesh.num_vertices();
    let mut unknown_of_vertex = vec![usize::MAX; nv];
    let mut vertex_of_unknown = Vec::new();
    for v in 0..nv {
        if !mesh.boundary[v] {
            unknown_of_vertex[v] = vertex_of_unknown.len();
            vertex_of_unknown.push(v);
        }
    }
    let n = vertex_of_unknown.len();
    let (indptr, indices) = stiffness_pattern(mesh, &unknown_of_vertex, &vertex_of_unknown);
    // Every stored entry receives at least one contribution, and `-0.0 + v`
    // is `v` for every `v`, so each sum starts from its first term's bits.
    let mut values = vec![-0.0; indices.len()];
    for (t, tri) in mesh.triangles.iter().enumerate() {
        let area = mesh.signed_area(t);
        assert!(area > 0.0, "triangle {t} has non-positive area");
        let p = tri.map(|v| mesh.vertices[v]);
        // Gradient coefficients.
        let b = [p[1].1 - p[2].1, p[2].1 - p[0].1, p[0].1 - p[1].1];
        let c = [p[2].0 - p[1].0, p[0].0 - p[2].0, p[1].0 - p[0].0];
        for i in 0..3 {
            let ui = unknown_of_vertex[tri[i]];
            if ui == usize::MAX {
                continue;
            }
            let row = indptr[ui]..indptr[ui + 1];
            for j in 0..3 {
                let uj = unknown_of_vertex[tri[j]];
                if uj == usize::MAX {
                    continue;
                }
                let k_ij = (b[i] * b[j] + c[i] * c[j]) / (4.0 * area);
                let at = indices[row.clone()]
                    .binary_search(&uj)
                    .expect("the pattern holds every element coupling");
                values[row.start + at] += k_ij;
            }
        }
    }
    let k = CsrMatrix::from_raw_parts(n, n, indptr, indices, values)
        .expect("the stiffness pattern is valid CSR");
    (k, vertex_of_unknown)
}

/// The stiffness pattern as CSR row pointers and column indices: row `u`
/// holds `u` and every interior vertex that shares a triangle with it,
/// columns ascending.
fn stiffness_pattern(
    mesh: &TriangleMesh,
    unknown_of_vertex: &[usize],
    vertex_of_unknown: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let nv = mesh.num_vertices();
    let n = vertex_of_unknown.len();
    // The triangles around each vertex, by a counting sort over corners.
    let mut first = vec![0usize; nv + 1];
    for tri in &mesh.triangles {
        for &v in tri {
            first[v + 1] += 1;
        }
    }
    for v in 0..nv {
        first[v + 1] += first[v];
    }
    let mut around = vec![0usize; first[nv]];
    let mut next = first.clone();
    for (t, tri) in mesh.triangles.iter().enumerate() {
        for &v in tri {
            around[next[v]] = t;
            next[v] += 1;
        }
    }
    // Each row's couplings, in the order its triangles meet them; `seen_by`
    // stamps a column with the last row that listed it.
    let mut indptr = Vec::with_capacity(n + 1);
    let mut unsorted = Vec::with_capacity(7 * n);
    let mut seen_by = vec![usize::MAX; n];
    indptr.push(0);
    for (u, &v) in vertex_of_unknown.iter().enumerate() {
        for &t in &around[first[v]..first[v + 1]] {
            for &w in &mesh.triangles[t] {
                let uw = unknown_of_vertex[w];
                if uw != usize::MAX && seen_by[uw] != u {
                    seen_by[uw] = u;
                    unsorted.push(uw);
                }
            }
        }
        indptr.push(unsorted.len());
    }
    // The pattern is symmetric, so writing `u` into the row of each of its
    // couplings, for `u` ascending, fills every row in column order.
    let mut indices = vec![0usize; unsorted.len()];
    let mut fill = indptr[..n].to_vec();
    for u in 0..n {
        for &w in &unsorted[indptr[u]..indptr[u + 1]] {
            indices[fill[w]] = u;
            fill[w] += 1;
        }
    }
    (indptr, indices)
}

/// Builds the paper-style FE test matrix: perturbed unit-square mesh,
/// P1 Laplace stiffness, symmetric unit-diagonal scaling. The returned
/// matrix is SPD, not weakly diagonally dominant, and (for the default
/// parameters used by [`paper_fe_matrix`]) has `ρ(G) > 1`.
pub fn fe_matrix(nx: usize, ny: usize, perturb: f64, seed: u64) -> CsrMatrix {
    let mesh = crate::mesh::perturbed_unit_square(nx, ny, perturb, seed);
    let (a, _) = assemble_p1_stiffness(&mesh);
    a.scale_to_unit_diagonal()
        .expect("P1 stiffness has positive diagonal")
}

/// Like [`fe_matrix`] but with a lumped reaction term: `A = K + σ·diag(K)`
/// before unit-diagonal scaling. The shift compresses the scaled spectrum by
/// `1/(1+σ)`, so `ρ(G) < 1` holds with a σ-controlled margin at any mesh
/// size — the thermomech_dm analogue uses this to stay Jacobi-convergent
/// while keeping unstructured FE sparsity. Shift and scaling act on the
/// assembled values in place.
pub fn fe_matrix_shifted(nx: usize, ny: usize, perturb: f64, sigma: f64, seed: u64) -> CsrMatrix {
    let mesh = crate::mesh::perturbed_unit_square(nx, ny, perturb, seed);
    let (mut a, _) = assemble_p1_stiffness(&mesh);
    a.shift_diagonal(|k_ii| sigma * k_ii)
        .expect("P1 stiffness stores its diagonal");
    a.scale_to_unit_diagonal().expect("positive diagonal")
}

/// The FE matrix used throughout the reproduction for the paper's §VII
/// experiments on the FE problem (paper: 3081 rows, 20971 nnz). A 57×57-cell
/// mesh gives 3136 interior unknowns — the nearest grid size; the heavy
/// perturbation produces `ρ(G) > 1` so synchronous Jacobi diverges.
pub fn paper_fe_matrix() -> CsrMatrix {
    fe_matrix(57, 57, 0.45, 2018)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_linalg::eigen;

    #[test]
    fn structured_mesh_reproduces_five_point_laplacian_scaled() {
        // On the unperturbed unit-square mesh with right isoceles triangles,
        // P1 assembly yields exactly the 5-point stencil (diag 4/h², offdiag
        // −1/h² after scaling by h²... here h cancels in the stencil).
        let mesh = crate::mesh::perturbed_unit_square(8, 8, 0.0, 1);
        let (a, _) = assemble_p1_stiffness(&mesh);
        let fd = crate::fd::laplacian_2d(7, 7);
        assert_eq!(a.nrows(), 49);
        // Compare after unit-diagonal scaling to remove the h² factor.
        let a_s = a.scale_to_unit_diagonal().unwrap();
        let fd_s = fd.scale_to_unit_diagonal().unwrap();
        assert!(a_s.to_dense().max_abs_diff(&fd_s.to_dense()) < 1e-12);
    }

    #[test]
    fn stiffness_is_symmetric_spd() {
        let a = fe_matrix(12, 12, 0.4, 9);
        assert!(a.is_symmetric(1e-12));
        let ext = eigen::lanczos_extreme(&a, a.nrows().min(80)).unwrap();
        assert!(ext.min > 0.0, "λ_min = {}", ext.min);
    }

    #[test]
    fn row_sums_vanish_for_interior_rows_of_unconstrained_problem() {
        // P1 Laplace stiffness has zero row sums before boundary elimination;
        // verify on a mesh where we keep everything by marking no boundary.
        let mut mesh = crate::mesh::perturbed_unit_square(6, 6, 0.3, 4);
        for b in &mut mesh.boundary {
            *b = false;
        }
        let (a, _) = assemble_p1_stiffness(&mesh);
        for i in 0..a.nrows() {
            let s: f64 = a.row_values(i).iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sum {s}");
        }
    }

    #[test]
    fn perturbed_matrix_is_not_wdd_and_has_positive_offdiagonals() {
        let a = fe_matrix(16, 16, 0.45, 3);
        assert!(!a.is_weakly_diagonally_dominant());
        let has_positive_offdiag =
            (0..a.nrows()).any(|i| a.row_iter(i).any(|(j, v)| j != i && v > 0.0));
        assert!(has_positive_offdiag);
    }

    #[test]
    fn paper_fe_matrix_defeats_jacobi() {
        let a = paper_fe_matrix();
        assert_eq!(a.nrows(), 3136); // paper: 3081 (unstructured); nearest grid
        let rho = eigen::jacobi_spectral_radius_unit_diag(&a, 120).unwrap();
        assert!(
            rho > 1.0,
            "need ρ(G) > 1 for the divergence experiments, got {rho}"
        );
        // About half the rows should still be W.D.D. per the paper's
        // description ("approximately half the rows have the W.D.D.
        // property").
        let wdd_rows = (0..a.nrows())
            .filter(|&i| {
                let mut diag = 0.0;
                let mut off = 0.0;
                for (j, v) in a.row_iter(i) {
                    if j == i {
                        diag = v.abs();
                    } else {
                        off += v.abs();
                    }
                }
                diag >= off - 1e-14
            })
            .count();
        let frac = wdd_rows as f64 / a.nrows() as f64;
        assert!(frac > 0.2 && frac < 0.9, "W.D.D. row fraction {frac}");
    }

    #[test]
    fn vertex_map_covers_interior() {
        let mesh = crate::mesh::perturbed_unit_square(5, 4, 0.2, 8);
        let (a, map) = assemble_p1_stiffness(&mesh);
        assert_eq!(a.nrows(), mesh.num_interior());
        assert_eq!(map.len(), a.nrows());
        assert!(map.iter().all(|&v| !mesh.boundary[v]));
    }
}
