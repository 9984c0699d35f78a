//! Compressed sparse row matrices.
//!
//! [`CsrMatrix`] is the workhorse of the whole reproduction: every solver
//! (model executor, threaded shared-memory solver, discrete-event simulator)
//! relaxes rows of a CSR matrix. Rows are stored with *sorted* column
//! indices, which lets `get` use binary search and keeps SpMV streaming.

use crate::error::LinalgError;
use crate::vecops;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// `indptr[i]..indptr[i+1]` is the slice of `indices`/`values` for row `i`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Nonzero values, aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if indptr.len() != nrows + 1 {
            return Err(LinalgError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indices.len() != values.len() {
            return Err(LinalgError::InvalidStructure(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        if indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
            return Err(LinalgError::InvalidStructure(
                "indptr must start at 0 and end at nnz".into(),
            ));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(LinalgError::InvalidStructure(
                    "indptr must be monotone".into(),
                ));
            }
        }
        for i in 0..nrows {
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(LinalgError::InvalidStructure(format!(
                        "row {i} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(LinalgError::IndexOutOfBounds {
                        index: last,
                        bound: ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// A square matrix with the given diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Builds from a dense row-major slice, keeping entries with
    /// `|a| > threshold`.
    pub fn from_dense(rows: usize, cols: usize, data: &[f64], threshold: f64) -> Self {
        assert_eq!(data.len(), rows * cols);
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = data[i * cols + j];
                if v.abs() > threshold {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: rows,
            ncols: cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array (length `nrows + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `i` (sorted).
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, aligned with [`CsrMatrix::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterates `(col, value)` over row `i`.
    #[inline]
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_indices(i)
            .iter()
            .copied()
            .zip(self.row_values(i).iter().copied())
    }

    /// Reads entry `(i, j)`; zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = self.row_indices(i);
        match row.binary_search(&j) {
            Ok(pos) => self.row_values(i)[pos],
            Err(_) => 0.0,
        }
    }

    /// The diagonal as a vector (zeros where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// `y ← A x` without allocating.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for i in 0..self.nrows {
            let mut acc = 0.0;
            for (j, v) in self.row_iter(i) {
                acc += v * x[j];
            }
            y[i] = acc;
        }
    }

    /// Dot product of row `i` with `x`: `(A x)_i`.
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (j, v) in self.row_iter(i) {
            acc += v * x[j];
        }
        acc
    }

    /// Residual `r = b − A x`.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; self.nrows];
        self.residual_into(x, b, &mut r);
        r
    }

    /// `out ← b − A x` without allocating.
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn residual_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "residual: x length mismatch");
        assert_eq!(b.len(), self.nrows, "residual: b length mismatch");
        assert_eq!(out.len(), self.nrows, "residual: out length mismatch");
        for i in 0..self.nrows {
            out[i] = b[i] - self.row_dot(i, x);
        }
    }

    /// `‖b − Ax‖` in the requested norm, fused row-wise: allocates nothing
    /// and never materializes the residual vector. Bit-identical to
    /// `vecops::norm(&self.residual(x, b), norm)` — both walk rows in order
    /// with the same accumulation.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn residual_norm(&self, x: &[f64], b: &[f64], norm: vecops::Norm) -> f64 {
        assert_eq!(x.len(), self.ncols, "residual: x length mismatch");
        assert_eq!(b.len(), self.nrows, "residual: b length mismatch");
        let mut acc = 0.0f64;
        match norm {
            vecops::Norm::L1 => {
                for i in 0..self.nrows {
                    acc += (b[i] - self.row_dot(i, x)).abs();
                }
                acc
            }
            vecops::Norm::L2 => {
                for i in 0..self.nrows {
                    let r = b[i] - self.row_dot(i, x);
                    acc += r * r;
                }
                acc.sqrt()
            }
            vecops::Norm::Inf => {
                for i in 0..self.nrows {
                    acc = vecops::max_nan(acc, (b[i] - self.row_dot(i, x)).abs());
                }
                acc
            }
        }
    }

    /// Relative residual in the requested norm: `‖b − Ax‖ / ‖b‖`.
    pub fn relative_residual(&self, x: &[f64], b: &[f64], norm: vecops::Norm) -> f64 {
        let nr = self.residual_norm(x, b, norm);
        let nb = vecops::norm(b, norm);
        if nb == 0.0 {
            nr
        } else {
            nr / nb
        }
    }

    /// Transpose (also CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for i in 0..self.nrows {
            for (j, v) in self.row_iter(i) {
                let pos = indptr[j];
                indices[pos] = i;
                values[pos] = v;
                indptr[j] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr: counts,
            indices,
            values,
        }
    }

    /// True when the matrix equals its transpose to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            // Patterns differ; fall back to value comparison via get to be
            // robust against explicitly stored zeros.
            for i in 0..self.nrows {
                for (j, v) in self.row_iter(i) {
                    if (v - self.get(j, i)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// True when every row satisfies `|a_ii| ≥ Σ_{j≠i} |a_ij|` (weak diagonal
    /// dominance, the hypothesis of the paper's Theorem 1).
    pub fn is_weakly_diagonally_dominant(&self) -> bool {
        (0..self.nrows).all(|i| {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (j, v) in self.row_iter(i) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            diag + 1e-14 * (diag + off) >= off
        })
    }

    /// Symmetric diagonal scaling `D^{-1/2} A D^{-1/2}` producing a unit
    /// diagonal, as the paper assumes throughout ("A is scaled to have unit
    /// diagonal values"). Requires a strictly positive diagonal.
    pub fn scale_to_unit_diagonal(&self) -> Result<CsrMatrix, LinalgError> {
        let diag = self.diagonal();
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 {
                return Err(LinalgError::ZeroDiagonal { row: i });
            }
        }
        let inv_sqrt: Vec<f64> = diag.iter().map(|d| 1.0 / d.sqrt()).collect();
        let mut out = self.clone();
        for i in 0..self.nrows {
            let (start, end) = (self.indptr[i], self.indptr[i + 1]);
            for k in start..end {
                let j = out.indices[k];
                out.values[k] *= inv_sqrt[i] * inv_sqrt[j];
            }
        }
        Ok(out)
    }

    /// Row scaling `D^{-1} A` (the Jacobi-preconditioned operator for
    /// non-symmetric use). Requires a nonzero diagonal.
    pub fn scale_rows_by_inverse_diagonal(&self) -> Result<CsrMatrix, LinalgError> {
        let diag = self.diagonal();
        for (i, &d) in diag.iter().enumerate() {
            if d == 0.0 {
                return Err(LinalgError::ZeroDiagonal { row: i });
            }
        }
        let mut out = self.clone();
        for i in 0..self.nrows {
            let (start, end) = (self.indptr[i], self.indptr[i + 1]);
            let inv = 1.0 / diag[i];
            for k in start..end {
                out.values[k] *= inv;
            }
        }
        Ok(out)
    }

    /// The principal submatrix `A[keep, keep]`, with rows/columns renumbered
    /// in the order given by `keep`. Used for the §IV-C/D interlacing
    /// analysis of delayed-row propagation matrices.
    ///
    /// # Panics
    /// Panics if `keep` contains duplicates or out-of-range indices.
    pub fn principal_submatrix(&self, keep: &[usize]) -> CsrMatrix {
        let mut new_index = vec![usize::MAX; self.ncols];
        for (new, &old) in keep.iter().enumerate() {
            assert!(old < self.nrows, "submatrix index {old} out of range");
            assert!(new_index[old] == usize::MAX, "duplicate index {old}");
            new_index[old] = new;
        }
        let mut indptr = Vec::with_capacity(keep.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for &old in keep {
            let mut row: Vec<(usize, f64)> = self
                .row_iter(old)
                .filter_map(|(j, v)| {
                    let nj = new_index[j];
                    (nj != usize::MAX).then_some((nj, v))
                })
                .collect();
            row.sort_unstable_by_key(|&(j, _)| j);
            for (j, v) in row {
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: keep.len(),
            ncols: keep.len(),
            indptr,
            indices,
            values,
        }
    }

    /// Symmetric permutation `P A Pᵀ` where row `i` of the result is row
    /// `perm[i]` of the input (and likewise for columns).
    pub fn permute_symmetric(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(perm.len(), self.nrows);
        self.principal_submatrix(perm)
    }

    /// Dense row-major copy; intended for small matrices in tests and the
    /// dense eigensolver.
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, v) in self.row_iter(i) {
                d[(i, j)] = v;
            }
        }
        d
    }

    /// Entry-wise absolute value `|A|` (used for the Chazan–Miranker
    /// condition `ρ(|G|) < 1`).
    pub fn abs(&self) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = v.abs();
        }
        out
    }

    /// `C = αA + βB` for structurally arbitrary CSR operands.
    pub fn add_scaled(
        &self,
        alpha: f64,
        other: &CsrMatrix,
        beta: f64,
    ) -> Result<CsrMatrix, LinalgError> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled",
                expected: self.nrows,
                found: other.nrows,
            });
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..self.nrows {
            let (a_idx, a_val) = (self.row_indices(i), self.row_values(i));
            let (b_idx, b_val) = (other.row_indices(i), other.row_values(i));
            let (mut p, mut q) = (0, 0);
            while p < a_idx.len() || q < b_idx.len() {
                let (col, val) = if q >= b_idx.len() || (p < a_idx.len() && a_idx[p] < b_idx[q]) {
                    let r = (a_idx[p], alpha * a_val[p]);
                    p += 1;
                    r
                } else if p >= a_idx.len() || b_idx[q] < a_idx[p] {
                    let r = (b_idx[q], beta * b_val[q]);
                    q += 1;
                    r
                } else {
                    let r = (a_idx[p], alpha * a_val[p] + beta * b_val[q]);
                    p += 1;
                    q += 1;
                    r
                };
                indices.push(col);
                values.push(val);
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Infinity norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row_values(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// One norm: maximum absolute column sum.
    pub fn norm_one(&self) -> f64 {
        let mut col_sums = vec![0.0f64; self.ncols];
        for (k, &c) in self.indices.iter().enumerate() {
            col_sums[c] += self.values[k].abs();
        }
        col_sums.into_iter().fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small() -> CsrMatrix {
        // [ 2 -1  0]
        // [-1  2 -1]
        // [ 0 -1  2]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0);
        }
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(1, 2, -1.0);
        coo.to_csr()
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let a = small();
        let y = a.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn residual_and_relative_residual() {
        let a = small();
        let b = vec![1.0, 0.0, 1.0];
        let x = vec![1.0, 1.0, 1.0]; // exact solution
        let r = a.residual(&x, &b);
        assert!(r.iter().all(|v| v.abs() < 1e-15));
        assert!(a.relative_residual(&x, &b, vecops::Norm::L2) < 1e-15);
    }

    #[test]
    fn residual_into_and_fused_norm_match_allocating_path() {
        // A non-trivial iterate so the residual has mixed signs/magnitudes.
        let a = small();
        let b = vec![1.0, -2.0, 0.5];
        let x = vec![0.3, -1.7, 2.2];
        let r = a.residual(&x, &b);
        let mut r2 = vec![f64::NAN; 3];
        a.residual_into(&x, &b, &mut r2);
        assert_eq!(r, r2, "residual_into must write the same vector");
        // The fused norms must be bit-identical to norm-of-residual (same
        // accumulation order), not merely close.
        for norm in [vecops::Norm::L1, vecops::Norm::L2, vecops::Norm::Inf] {
            assert_eq!(
                a.residual_norm(&x, &b, norm).to_bits(),
                vecops::norm(&r, norm).to_bits(),
                "fused {norm:?} differs from the two-pass path"
            );
        }
    }

    #[test]
    fn inf_residual_norm_of_a_nan_iterate_is_nan() {
        // A NaN row must make the ∞-norm NaN; `f64::max` drops it, which
        // lets a diverged iterate pass a tolerance test.
        let a = small();
        let b = vec![1.0, -2.0, 0.5];
        for x in [vec![f64::NAN; 3], vec![0.3, f64::NAN, 2.2]] {
            assert!(a.residual_norm(&x, &b, vecops::Norm::Inf).is_nan());
            assert!(a.relative_residual(&x, &b, vecops::Norm::Inf).is_nan());
        }
    }

    #[test]
    #[should_panic(expected = "out")]
    fn residual_into_rejects_wrong_output_length() {
        let a = small();
        let mut out = vec![0.0; 2];
        a.residual_into(&[0.0; 3], &[0.0; 3], &mut out);
    }

    #[test]
    fn transpose_of_symmetric_matrix_is_identical() {
        let a = small();
        assert_eq!(a.transpose(), a);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn transpose_rectangular() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 1, 5.0);
        coo.push(1, 2, 7.0);
        let a = coo.to_csr();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(1, 0), 5.0);
        assert_eq!(t.get(2, 1), 7.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn wdd_detection() {
        let a = small();
        assert!(a.is_weakly_diagonally_dominant());
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 1.0);
        assert!(!coo.to_csr().is_weakly_diagonally_dominant());
    }

    #[test]
    fn unit_diagonal_scaling_preserves_symmetry_and_unit_diag() {
        let a = small();
        let s = a.scale_to_unit_diagonal().unwrap();
        assert!(s.is_symmetric(1e-14));
        for i in 0..3 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-14);
        }
        // Scaling preserves weak diagonal dominance for this matrix.
        assert!(s.is_weakly_diagonally_dominant());
    }

    #[test]
    fn scaling_rejects_nonpositive_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, -1.0);
        coo.push(1, 1, 1.0);
        assert!(matches!(
            coo.to_csr().scale_to_unit_diagonal(),
            Err(LinalgError::ZeroDiagonal { row: 0 })
        ));
    }

    #[test]
    fn principal_submatrix_extracts_and_renumbers() {
        let a = small();
        let s = a.principal_submatrix(&[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 1), 2.0);
        assert_eq!(s.get(0, 1), 0.0); // rows 0 and 2 are decoupled
    }

    #[test]
    fn symmetric_permutation_reverses() {
        let a = small();
        let p = a.permute_symmetric(&[2, 1, 0]);
        assert_eq!(p.get(0, 0), 2.0);
        assert_eq!(p.get(0, 1), -1.0);
        assert_eq!(p.get(0, 2), 0.0);
        // Permuting back recovers the original.
        assert_eq!(p.permute_symmetric(&[2, 1, 0]), a);
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let a = small();
        let i = CsrMatrix::identity(3);
        // G = I - A for unit-diagonal A; here just exercise the merge.
        let g = i.add_scaled(1.0, &a, -0.5).unwrap();
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(0, 1), 0.5);
        assert_eq!(g.get(2, 2), 0.0);
    }

    #[test]
    fn matrix_norms() {
        let a = small();
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(a.norm_one(), 4.0);
        assert!((a.norm_fro() - (3.0 * 4.0 + 4.0 * 1.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 2], vec![0, 0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn identity_and_diagonal_constructors() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.spmv(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
        let d = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d.spmv(&[1.0, 1.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn abs_takes_entrywise_absolute_value() {
        let a = small().abs();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(0, 0), 2.0);
    }

    #[test]
    fn from_dense_round_trip() {
        let data = vec![1.0, 0.0, 0.0, -2.0];
        let a = CsrMatrix::from_dense(2, 2, &data, 0.0);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(1, 1), -2.0);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
