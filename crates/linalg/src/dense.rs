//! Small dense matrices.
//!
//! Used for the model-validation experiments on the paper's small FD
//! matrices (n ≤ a few thousand), the dense symmetric eigensolver, and
//! tests. Storage is row-major.

use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_rows(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_rows: length mismatch");
        DenseMatrix {
            nrows,
            ncols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Underlying storage (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        (0..self.nrows)
            .map(|i| crate::vecops::dot(self.row(i), x))
            .collect()
    }

    /// `C = A B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul: inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    c[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        c
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Maximum absolute entry difference to `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when `‖A − Aᵀ‖_max ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// One norm (max absolute column sum).
    pub fn norm_one(&self) -> f64 {
        (0..self.ncols)
            .map(|j| (0..self.nrows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn symmetry_check() {
        let s = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 5.0]);
        assert!(s.is_symmetric(0.0));
        let ns = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 5.0]);
        assert!(!ns.is_symmetric(0.5));
        assert!(!DenseMatrix::zeros(2, 3).is_symmetric(0.0));
    }

    #[test]
    fn dense_norms() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, -3.0, 2.0, 0.0]);
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(a.norm_one(), 3.0);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = DenseMatrix::identity(2);
        let mut b = a.clone();
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
