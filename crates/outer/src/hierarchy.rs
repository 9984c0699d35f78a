//! Multilevel hierarchies for the V-cycle: geometric when the matrix is
//! recognizably a 2-D five-point grid operator, greedy aggregation with a
//! Galerkin product otherwise.
//!
//! Geometric levels rediscretize the five-point stencil on the coarse grid
//! and transfer by full-weighting restriction and bilinear prolongation,
//! applied recursively; the grid shape
//! is *detected* from the sparsity structure rather than passed in, so the
//! `grid:NXxNY` and `fd*` selectors get geometric coarsening without the
//! spec having to carry dimensions around.
//!
//! Aggregation is plain smoothed-aggregation-style pairwise clustering
//! minus the smoothing: strength-of-connection filtering
//! (`|a_ij| > θ·√(a_ii·a_jj)`), greedy root aggregates, a second pass
//! joining leftovers to their strongest neighbour, piecewise-constant
//! transfer `P`, and `A_c = Pᵀ A P` assembled through the duplicate-summing
//! COO builder. Crude by AMG standards, but it keeps coarse operators SPD
//! (e_Iᵀ A e_I > 0) and gives the Krylov bottom solve a well-posed target
//! for any SPD input.

use aj_linalg::{CooMatrix, CsrMatrix, LinalgError};

/// Aggregation strength threshold: `j` is a strong neighbour of `i` when
/// `|a_ij| > θ·√(a_ii·a_jj)`.
const STRENGTH_THETA: f64 = 0.08;

/// Auto-depth coarsening stops once a level has at most this many rows —
/// small enough that the CG bottom solve is effectively free.
const COARSE_TARGET: usize = 64;

/// Hard cap on auto-selected hierarchy depth.
const MAX_AUTO_LEVELS: usize = 10;

/// Inter-level transfer operators.
#[derive(Debug, Clone)]
enum Transfer {
    /// Full-weighting restriction / bilinear prolongation on an
    /// `nx × ny` fine grid (row-major interior numbering).
    Geometric { nx: usize, ny: usize },
    /// Piecewise-constant aggregation: `agg[fine_row]` is the coarse index.
    Aggregation { agg: Vec<u32>, coarse_n: usize },
}

/// An L-level matrix hierarchy (level 0 = finest) with its transfers.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    matrices: Vec<CsrMatrix>,
    transfers: Vec<Transfer>,
    geometric: bool,
}

impl Hierarchy {
    /// Builds a hierarchy for `a`, coarsening geometrically when the
    /// sparsity structure is a 2-D five-point grid and by aggregation
    /// otherwise. `levels` caps the depth (≥ 2); `None` coarsens until the
    /// coarse problem has ≤ 64 rows (or coarsening stops making progress).
    /// The built hierarchy may be shallower than a requested cap when the
    /// problem bottoms out first, but always has ≥ 2 levels.
    ///
    /// # Errors
    /// [`LinalgError::InvalidStructure`] when not even one coarsening step
    /// is possible (e.g. a matrix too small or too irregular to aggregate).
    pub fn build(a: &CsrMatrix, levels: Option<usize>) -> Result<Hierarchy, LinalgError> {
        let cap = levels.unwrap_or(MAX_AUTO_LEVELS).max(2);
        let mut matrices = vec![a.clone()];
        let mut transfers = Vec::new();
        let grid = detect_grid(a);
        let geometric = grid.is_some();
        if let Some((mut nx, mut ny)) = grid {
            while matrices.len() < cap
                && nx >= 3
                && ny >= 3
                && nx % 2 == 1
                && ny % 2 == 1
                && (levels.is_some() || nx * ny > COARSE_TARGET)
            {
                let (cx, cy) = ((nx - 1) / 2, (ny - 1) / 2);
                let fine = matrices.last().unwrap();
                let coarse = coarse_five_point(fine, nx, ny, cx, cy)?;
                transfers.push(Transfer::Geometric { nx, ny });
                matrices.push(coarse);
                (nx, ny) = (cx, cy);
            }
        } else {
            while matrices.len() < cap {
                let fine = matrices.last().unwrap();
                let n = fine.nrows();
                if levels.is_none() && n <= COARSE_TARGET {
                    break;
                }
                let (agg, coarse_n) = aggregate(fine);
                // Stop when aggregation stalls (nearly 1:1) — a further
                // level would just duplicate this one.
                if coarse_n == 0 || coarse_n + coarse_n / 10 >= n {
                    break;
                }
                let coarse = galerkin(fine, &agg, coarse_n);
                transfers.push(Transfer::Aggregation { agg, coarse_n });
                matrices.push(coarse);
            }
        }
        if matrices.len() < 2 {
            return Err(LinalgError::InvalidStructure(format!(
                "cannot coarsen {}×{} matrix even once (grid detected: {}; try a larger problem \
                 or a Krylov outer solver instead of vcycle)",
                a.nrows(),
                a.nrows(),
                geometric,
            )));
        }
        Ok(Hierarchy {
            matrices,
            transfers,
            geometric,
        })
    }

    /// Number of levels (≥ 2; level 0 is the finest).
    pub fn levels(&self) -> usize {
        self.matrices.len()
    }

    /// The matrix at `level`.
    pub fn matrix(&self, level: usize) -> &CsrMatrix {
        &self.matrices[level]
    }

    /// Whether the hierarchy was built by geometric grid coarsening
    /// (`false` = aggregation).
    pub fn is_geometric(&self) -> bool {
        self.geometric
    }

    /// `(rows, nnz)` per level, finest first — the shape summary reported
    /// by `SolveReport`.
    pub fn shape(&self) -> Vec<(usize, usize)> {
        self.matrices.iter().map(|m| (m.nrows(), m.nnz())).collect()
    }

    /// Restricts a fine residual at `level` to level + 1.
    pub fn restrict(&self, level: usize, r: &[f64]) -> Vec<f64> {
        match &self.transfers[level] {
            Transfer::Geometric { nx, ny } => restrict_full_weighting(r, *nx, *ny),
            Transfer::Aggregation { agg, coarse_n } => {
                let mut rc = vec![0.0; *coarse_n];
                for (i, &g) in agg.iter().enumerate() {
                    rc[g as usize] += r[i];
                }
                rc
            }
        }
    }

    /// Prolongs a coarse correction from level + 1 and adds it into the
    /// fine iterate at `level`.
    pub fn prolong_add(&self, level: usize, ec: &[f64], x: &mut [f64]) {
        match &self.transfers[level] {
            Transfer::Geometric { nx, ny } => {
                let ef = prolong_bilinear(ec, *nx, *ny);
                for (xi, ei) in x.iter_mut().zip(&ef) {
                    *xi += ei;
                }
            }
            Transfer::Aggregation { agg, .. } => {
                for (i, &g) in agg.iter().enumerate() {
                    x[i] += ec[g as usize];
                }
            }
        }
    }
}

/// Recognizes a row-major 2-D five-point grid operator from its sparsity
/// structure: returns `(nx, ny)` when every row has exactly the in-bounds
/// {north, south, east, west} neighbours and the stencil is isotropic
/// (one diagonal value, one off-diagonal value across the whole matrix).
pub fn detect_grid(a: &CsrMatrix) -> Option<(usize, usize)> {
    let n = a.nrows();
    if n < 9 {
        return None;
    }
    // Row 0 (corner) couples to exactly (0,1) → column 1 and (1,0) → column
    // ny; that fixes the shape.
    let off0: Vec<usize> = a
        .row_indices(0)
        .iter()
        .copied()
        .filter(|&j| j != 0)
        .collect();
    if off0.len() != 2 || off0[0] != 1 {
        return None;
    }
    let ny = off0[1];
    if ny < 3 || !n.is_multiple_of(ny) {
        return None;
    }
    let nx = n / ny;
    if nx < 3 {
        return None;
    }
    // Isotropy reference values from the corner row.
    let center = a.get(0, 0);
    let off = a.get(0, 1);
    if center == 0.0 || off == 0.0 {
        return None;
    }
    // Full structural + isotropy check: O(nnz), done once at plan time.
    for i in 0..nx {
        for j in 0..ny {
            let row = i * ny + j;
            let mut expected: Vec<usize> = vec![row];
            if i > 0 {
                expected.push(row - ny);
            }
            if i + 1 < nx {
                expected.push(row + ny);
            }
            if j > 0 {
                expected.push(row - 1);
            }
            if j + 1 < ny {
                expected.push(row + 1);
            }
            expected.sort_unstable();
            if a.row_indices(row) != expected.as_slice() {
                return None;
            }
            for (c, v) in a.row_iter(row) {
                let want = if c == row { center } else { off };
                if (v - want).abs() > 1e-12 * want.abs() {
                    return None;
                }
            }
        }
    }
    Some((nx, ny))
}

/// Greedy strength-based aggregation. Returns `(agg, coarse_n)` with
/// `agg[i]` the aggregate index of fine row `i`.
fn aggregate(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.nrows();
    let diag = a.diagonal();
    const UNASSIGNED: u32 = u32::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let strong = |i: usize, j: usize, v: f64| -> bool {
        i != j && v.abs() > STRENGTH_THETA * (diag[i].abs() * diag[j].abs()).sqrt()
    };
    let mut next = 0u32;
    // Pass 1: roots whose strong neighbourhood is wholly unassigned seed
    // an aggregate containing themselves and that neighbourhood.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let neigh: Vec<usize> = a
            .row_iter(i)
            .filter(|&(j, v)| strong(i, j, v))
            .map(|(j, _)| j)
            .collect();
        if neigh.iter().any(|&j| agg[j] != UNASSIGNED) {
            continue;
        }
        agg[i] = next;
        for &j in &neigh {
            agg[j] = next;
        }
        next += 1;
    }
    // Pass 2: leftovers join their strongest assigned neighbour.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut best: Option<(f64, u32)> = None;
        for (j, v) in a.row_iter(i) {
            if strong(i, j, v) && agg[j] != UNASSIGNED {
                let w = v.abs();
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, agg[j]));
                }
            }
        }
        if let Some((_, g)) = best {
            agg[i] = g;
        }
    }
    // Pass 3: isolated rows become singletons.
    for g in agg.iter_mut() {
        if *g == UNASSIGNED {
            *g = next;
            next += 1;
        }
    }
    (agg, next as usize)
}

/// Galerkin coarse operator `A_c = Pᵀ A P` for piecewise-constant `P`
/// (entry `(agg[i], agg[j]) += a_ij`; the COO builder sums duplicates).
fn galerkin(a: &CsrMatrix, agg: &[u32], coarse_n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(coarse_n, coarse_n, a.nnz());
    for i in 0..a.nrows() {
        for (j, v) in a.row_iter(i) {
            coo.push(agg[i] as usize, agg[j] as usize, v);
        }
    }
    coo.to_csr()
}

/// Rediscretized coarse operator with the same stencil scaling as the fine
/// one (reads the center/off weights from an interior fine row).
fn coarse_five_point(
    fine: &CsrMatrix,
    nx: usize,
    ny: usize,
    cx: usize,
    cy: usize,
) -> Result<CsrMatrix, LinalgError> {
    // Interior fine row: center of the grid.
    let mid = (nx / 2) * ny + ny / 2;
    let mut center = 0.0;
    let mut off = 0.0;
    for (j, v) in fine.row_iter(mid) {
        if j == mid {
            center = v;
        } else if off == 0.0 {
            off = v;
        } else if (v - off).abs() > 1e-12 * off.abs() {
            // Rediscretization below assumes one coefficient for both
            // directions; refuse anisotropic stencils rather than silently
            // building the wrong coarse operator.
            return Err(LinalgError::InvalidStructure(format!(
                "anisotropic stencil (off-diagonals {off} vs {v}); geometric \
                 rediscretization supports isotropic five-point operators only"
            )));
        }
    }
    if center == 0.0 || off == 0.0 {
        return Err(LinalgError::InvalidStructure(
            "fine operator does not look like a five-point stencil".into(),
        ));
    }
    // Standard h → 2h rediscretization keeps the same stencil values for
    // the unit-spacing convention used by `laplacian_2d` (entries are
    // spacing-independent).
    let mut coo = CooMatrix::with_capacity(cx * cy, cx * cy, 5 * cx * cy);
    let idx = |i: usize, j: usize| i * cy + j;
    for i in 0..cx {
        for j in 0..cy {
            let me = idx(i, j);
            coo.push(me, me, center);
            if i + 1 < cx {
                coo.push_sym(me, idx(i + 1, j), off);
            }
            if j + 1 < cy {
                coo.push_sym(me, idx(i, j + 1), off);
            }
        }
    }
    Ok(coo.to_csr())
}

/// Full-weighting restriction: coarse point (I, J) at fine (2I+1, 2J+1)
/// takes the 9-point weighted average of its fine neighbourhood.
fn restrict_full_weighting(r: &[f64], nx: usize, ny: usize) -> Vec<f64> {
    let (cx, cy) = ((nx - 1) / 2, (ny - 1) / 2);
    let at = |i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i >= nx as isize || j >= ny as isize {
            0.0
        } else {
            r[i as usize * ny + j as usize]
        }
    };
    let mut rc = vec![0.0; cx * cy];
    for bi in 0..cx {
        for bj in 0..cy {
            let (fi, fj) = ((2 * bi + 1) as isize, (2 * bj + 1) as isize);
            let mut acc = 4.0 * at(fi, fj);
            acc += 2.0 * (at(fi - 1, fj) + at(fi + 1, fj) + at(fi, fj - 1) + at(fi, fj + 1));
            acc +=
                at(fi - 1, fj - 1) + at(fi - 1, fj + 1) + at(fi + 1, fj - 1) + at(fi + 1, fj + 1);
            rc[bi * cy + bj] = acc / 16.0 * 4.0; // ×4: operator scaling h→2h
        }
    }
    rc
}

/// Bilinear prolongation (transpose of full weighting up to scaling).
fn prolong_bilinear(ec: &[f64], nx: usize, ny: usize) -> Vec<f64> {
    let (cx, cy) = ((nx - 1) / 2, (ny - 1) / 2);
    let coarse_at = |i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i >= cx as isize || j >= cy as isize {
            0.0
        } else {
            ec[i as usize * cy + j as usize]
        }
    };
    let mut ef = vec![0.0; nx * ny];
    for fi in 0..nx {
        for fj in 0..ny {
            // Fine (fi, fj) sits among coarse points at odd fine coords.
            let (qi, ri) = (
                ((fi as isize) - 1).div_euclid(2),
                ((fi as isize) - 1).rem_euclid(2),
            );
            let (qj, rj) = (
                ((fj as isize) - 1).div_euclid(2),
                ((fj as isize) - 1).rem_euclid(2),
            );
            ef[fi * ny + fj] = match (ri, rj) {
                (0, 0) => coarse_at(qi, qj),
                (1, 0) => 0.5 * (coarse_at(qi, qj) + coarse_at(qi + 1, qj)),
                (0, 1) => 0.5 * (coarse_at(qi, qj) + coarse_at(qi, qj + 1)),
                _ => {
                    0.25 * (coarse_at(qi, qj)
                        + coarse_at(qi + 1, qj)
                        + coarse_at(qi, qj + 1)
                        + coarse_at(qi + 1, qj + 1))
                }
            };
        }
    }
    ef
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::fd::laplacian_2d;

    #[test]
    fn detects_grid_shape() {
        let a = laplacian_2d(15, 9);
        assert_eq!(detect_grid(&a), Some((15, 9)));
        // Unit-diagonal scaling preserves structure and isotropy.
        let s = a.scale_to_unit_diagonal().unwrap();
        assert_eq!(detect_grid(&s), Some((15, 9)));
    }

    #[test]
    fn rejects_non_grid() {
        // A tridiagonal (1-D) operator: corner row has one neighbour.
        let a = CsrMatrix::from_dense(
            3,
            3,
            &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0],
            0.0,
        );
        assert_eq!(detect_grid(&a), None);
    }

    #[test]
    fn geometric_hierarchy_depth_and_shapes() {
        let a = laplacian_2d(31, 31);
        let h = Hierarchy::build(&a, None).unwrap();
        assert!(h.is_geometric());
        // 31 → 15 → 7: auto depth stops once 7×7 = 49 ≤ 64 rows.
        assert_eq!(h.levels(), 3);
        assert_eq!(h.shape()[0].0, 31 * 31);
        assert_eq!(h.shape()[2].0, 49);
        // Level cap respected.
        let h2 = Hierarchy::build(&a, Some(2)).unwrap();
        assert_eq!(h2.levels(), 2);
        assert_eq!(h2.matrix(1).nrows(), 15 * 15);
    }

    #[test]
    fn aggregation_hierarchy_on_unstructured_spd() {
        let a = aj_matrices::fe::fe_matrix(12, 12, 0.3, 7);
        let h = Hierarchy::build(&a, None).unwrap();
        assert!(!h.is_geometric());
        assert!(h.levels() >= 2);
        for l in 0..h.levels() {
            let m = h.matrix(l);
            // Galerkin keeps symmetry and positive diagonals.
            assert!(m.is_symmetric(1e-10), "level {l} not symmetric");
            assert!(m.diagonal().iter().all(|&d| d > 0.0), "level {l} diag");
            if l > 0 {
                assert!(m.nrows() < h.matrix(l - 1).nrows());
            }
        }
    }

    #[test]
    fn restrict_prolong_roundtrip_shapes() {
        let a = laplacian_2d(15, 15);
        let h = Hierarchy::build(&a, Some(3)).unwrap();
        let r = vec![1.0; 15 * 15];
        let rc = h.restrict(0, &r);
        assert_eq!(rc.len(), 7 * 7);
        let mut x = vec![0.0; 15 * 15];
        h.prolong_add(0, &rc, &mut x);
        assert!(x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn anisotropic_stencils_are_rejected() {
        // Silent misbuilds are worse than errors: the rediscretized coarse
        // grid only matches isotropic operators.
        let idx = |i: usize, j: usize| i * 9 + j;
        let mut coo = CooMatrix::new(81, 81);
        for i in 0..9 {
            for j in 0..9 {
                coo.push(idx(i, j), idx(i, j), 12.0);
                if i + 1 < 9 {
                    coo.push_sym(idx(i, j), idx(i + 1, j), -1.0);
                }
                if j + 1 < 9 {
                    coo.push_sym(idx(i, j), idx(i, j + 1), -5.0);
                }
            }
        }
        let err = coarse_five_point(&coo.to_csr(), 9, 9, 4, 4);
        assert!(matches!(err, Err(LinalgError::InvalidStructure(_))));
    }

    #[test]
    fn restriction_and_prolongation_shapes() {
        let r = vec![1.0; 9 * 9];
        let rc = restrict_full_weighting(&r, 9, 9);
        assert_eq!(rc.len(), 16);
        let ef = prolong_bilinear(&[1.0; 16], 9, 9);
        assert_eq!(ef.len(), 81);
        // Interior coarse-coincident points prolong exactly.
        assert_eq!(ef[9 + 1], 1.0);
    }
}
