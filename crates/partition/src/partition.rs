//! Row-to-part assignments and their quality metrics.

use aj_linalg::CsrMatrix;

/// An assignment of matrix rows to `nparts` parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    nparts: usize,
    assignment: Vec<usize>,
}

impl Partition {
    /// Builds from an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any entry is `≥ nparts` or some part is empty.
    pub fn from_assignment(nparts: usize, assignment: Vec<usize>) -> Self {
        assert!(nparts > 0, "need at least one part");
        let mut seen = vec![false; nparts];
        for &p in &assignment {
            assert!(p < nparts, "part id {p} out of range ({nparts})");
            seen[p] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every part must own at least one row"
        );
        Partition { nparts, assignment }
    }

    /// Number of parts.
    pub fn nparts(&self) -> usize {
        self.nparts
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when there are no rows (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Part owning row `i`.
    #[inline]
    pub fn part_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Row indices of each part, ascending within a part.
    pub fn parts(&self) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); self.nparts];
        for (i, &p) in self.assignment.iter().enumerate() {
            parts[p].push(i);
        }
        parts
    }

    /// Rows per part.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.nparts];
        for &p in &self.assignment {
            sizes[p] += 1;
        }
        sizes
    }

    /// Load imbalance: `max part size / mean part size` (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.sizes();
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = self.assignment.len() as f64 / self.nparts as f64;
        max / mean
    }

    /// Number of matrix nonzeros coupling different parts (each off-diagonal
    /// entry crossing a part boundary counts once).
    pub fn edge_cut(&self, a: &CsrMatrix) -> usize {
        assert_eq!(a.nrows(), self.assignment.len());
        let mut cut = 0;
        for i in 0..a.nrows() {
            for (j, _) in a.row_iter(i) {
                if j != i && self.assignment[i] != self.assignment[j] {
                    cut += 1;
                }
            }
        }
        cut / 2
    }

    /// The partition as contiguous row ranges of the parts' sizes, part 0
    /// first: the block part `p` would own if rows were renumbered part by
    /// part (the paper's "METIS-then-contiguous-subdomains" setup).
    pub fn contiguous_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let sizes = self.sizes();
        let mut ranges = Vec::with_capacity(self.nparts);
        let mut start = 0;
        for s in sizes {
            ranges.push(start..start + s);
            start += s;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_linalg::CooMatrix;

    fn path_graph(n: usize) -> CsrMatrix {
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
    fn basic_accessors() {
        let p = Partition::from_assignment(2, vec![0, 0, 1, 1, 1]);
        assert_eq!(p.nparts(), 2);
        assert_eq!(p.len(), 5);
        assert_eq!(p.sizes(), vec![2, 3]);
        assert_eq!(p.part_of(4), 1);
        assert_eq!(p.parts()[0], vec![0, 1]);
        assert!((p.imbalance() - 3.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn edge_cut_of_split_path() {
        let a = path_graph(6);
        let p = Partition::from_assignment(2, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(p.edge_cut(&a), 1);
        let p2 = Partition::from_assignment(2, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(p2.edge_cut(&a), 5);
    }

    #[test]
    fn contiguous_ranges_follow_part_sizes() {
        let p = Partition::from_assignment(2, vec![1, 0, 1, 0]);
        let ranges = p.contiguous_ranges();
        assert_eq!(ranges, vec![0..2, 2..4]);
    }

    #[test]
    #[should_panic(expected = "every part must own")]
    fn empty_part_rejected() {
        Partition::from_assignment(3, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_part_rejected() {
        Partition::from_assignment(2, vec![0, 2]);
    }
}
