//! Coordinate-format (triplet) matrix builder.
//!
//! The finite-difference generators and the Matrix Market reader in
//! `aj-matrices` collect triplets into a [`CooMatrix`] and convert to CSR
//! once. Repeated `(row, col)` entries are *summed* on conversion, in the
//! order they were pushed: the first value, plus the second, plus the
//! third, and so on. The finite-element assembly scatters its element
//! matrices straight into CSR in the same order, so both paths produce the
//! same bits.

use crate::csr::CsrMatrix;

/// A sparse matrix under construction, stored as `(row, col, value)` triplets.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` builder.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty builder with room for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
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

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Adds `value` at `(row, col)`. Repeats accumulate on conversion, in
    /// the order they were pushed.
    ///
    /// # Panics
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        assert!(col < self.ncols, "col {col} out of bounds ({})", self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
    }

    /// Adds `value` at `(row, col)` and `(col, row)`; the diagonal is added
    /// once. Convenient for symmetric assembly.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Iterates over the raw triplets in insertion order.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR in O(nnz + nrows + ncols), summing repeated entries
    /// in insertion order. Explicit zeros, and entries that cancel to zero,
    /// are kept, so sparsity patterns stay predictable for tests.
    ///
    /// Two stable counting sorts, by column and then by row, leave the
    /// triplets in (row, column) order with repeats in insertion order;
    /// one pass then sums each run of repeats.
    pub fn to_csr(&self) -> CsrMatrix {
        let by_col = counting_sort(&self.cols, self.ncols, 0..self.vals.len());
        let by_row = counting_sort(&self.rows, self.nrows, by_col);
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(self.vals.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.vals.len());
        let mut last = None;
        for k in by_row {
            let (r, c, v) = (self.rows[k], self.cols[k], self.vals[k]);
            if last == Some((r, c)) {
                *values.last_mut().expect("a repeat follows its first entry") += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for r in 0..self.nrows {
            indptr[r + 1] += indptr[r];
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, indptr, indices, values)
            .expect("COO→CSR conversion produced invalid structure")
    }
}

/// The triplet positions of `order` grouped by `keys[k]` ascending, each
/// group in `order`'s order (a stable counting sort over keys below
/// `bound`).
fn counting_sort(
    keys: &[usize],
    bound: usize,
    order: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    let mut start = vec![0usize; bound + 1];
    for &key in keys {
        start[key + 1] += 1;
    }
    for key in 0..bound {
        start[key + 1] += start[key];
    }
    let mut sorted = vec![0usize; keys.len()];
    for k in order {
        let slot = &mut start[keys[k]];
        sorted[*slot] = k;
        *slot += 1;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 0, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(1, 1), 0.0);
    }

    #[test]
    fn push_sym_mirrors_offdiagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 2, 4.0);
        coo.push_sym(1, 1, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 2), 4.0);
        assert_eq!(csr.get(2, 0), 4.0);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn rows_out_of_order_are_sorted() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(2, 1, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(0, 0, 4.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_indices(0), &[0, 2]);
        assert_eq!(csr.row_values(0), &[4.0, 2.0]);
        assert_eq!(csr.row_indices(2), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn rectangular_shapes_supported() {
        let mut coo = CooMatrix::new(2, 4);
        coo.push(1, 3, 9.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 2);
        assert_eq!(csr.ncols(), 4);
        assert_eq!(csr.get(1, 3), 9.0);
    }
}
