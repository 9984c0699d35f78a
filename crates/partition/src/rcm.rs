//! Reverse Cuthill–McKee (RCM) bandwidth-reducing reordering.
//!
//! The paper's distributed setup assigns each process a *contiguous* row
//! block, so the quality of contiguous blocks depends entirely on the row
//! ordering. RCM clusters coupled rows near the diagonal, which makes plain
//! [`crate::partitioners::block_partition`] competitive with graph
//! partitioning — the cheap path to the paper's "METIS then contiguous
//! subdomains" pipeline.

// The algorithm itself lives in `aj_linalg::rcm`, next to the permutation
// type it returns; this module keeps the partition-level API and the
// partition-scale tests.
pub use aj_linalg::rcm::{bandwidth, reverse_cuthill_mckee};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioners::block_partition;
    use crate::Partition;
    use aj_linalg::CsrMatrix;

    /// A 2-D grid numbered *column-major-by-accident* (bad ordering) so RCM
    /// has something to fix: take the 5-point grid and scramble it.
    fn scrambled_grid(nx: usize, ny: usize, seed: u64) -> CsrMatrix {
        let a = aj_matrices::fd::laplacian_2d(nx, ny);
        let n = a.nrows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in (1..n).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        a.permute_symmetric(&order)
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_grid() {
        let a = scrambled_grid(12, 12, 3);
        let before = bandwidth(&a);
        let p = reverse_cuthill_mckee(&a);
        let reordered = a.permute_symmetric(p.as_slice());
        let after = bandwidth(&reordered);
        assert!(after * 3 < before, "bandwidth {before} → {after}");
        // Grid bandwidth can't go below min(nx, ny).
        assert!(after >= 12);
    }

    #[test]
    fn rcm_is_a_permutation_and_preserves_spectrum_endpoints() {
        let a = scrambled_grid(8, 8, 5);
        let p = reverse_cuthill_mckee(&a);
        let reordered = a.permute_symmetric(p.as_slice());
        let e1 = aj_linalg::eigen::lanczos_extreme(&a, 64).unwrap();
        let e2 = aj_linalg::eigen::lanczos_extreme(&reordered, 64).unwrap();
        assert!((e1.max - e2.max).abs() < 1e-8);
        assert!((e1.min - e2.min).abs() < 1e-6);
    }

    #[test]
    fn rcm_improves_block_partition_edge_cut_on_scrambled_input() {
        let a = scrambled_grid(16, 16, 7);
        let parts = 8;
        let cut_before = block_partition(a.nrows(), parts).edge_cut(&a);
        let p = reverse_cuthill_mckee(&a);
        let reordered = a.permute_symmetric(p.as_slice());
        let cut_after = block_partition(reordered.nrows(), parts).edge_cut(&reordered);
        assert!(
            cut_after * 2 < cut_before,
            "edge cut {cut_before} → {cut_after} after RCM"
        );
    }

    #[test]
    fn handles_disconnected_graphs_and_identity() {
        // Diagonal matrix: any ordering works, all vertices isolated.
        let a = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let p = reverse_cuthill_mckee(&a);
        assert_eq!(p.len(), 3);
        assert_eq!(bandwidth(&a), 0);
        // Two decoupled chains.
        let mut coo = aj_linalg::CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(3, 4, -1.0);
        let p = reverse_cuthill_mckee(&coo.to_csr());
        let _ = Partition::from_assignment(1, vec![0; 6]); // module smoke-link
        assert_eq!(p.len(), 6);
    }
}
