//! Reverse Cuthill–McKee (RCM) bandwidth-reducing reordering.
//!
//! RCM clusters coupled rows near the diagonal. The partition crate uses it
//! to make contiguous row blocks competitive with graph partitioning (see
//! `aj-partition::rcm`, which re-exports this module). It lives here, next
//! to [`Permutation`], because `aj-partition` already depends on
//! `aj-linalg`.

use crate::csr::CsrMatrix;
use crate::perm::Permutation;
use std::collections::VecDeque;

/// Computes the RCM ordering of the symmetric sparsity pattern of `a`.
/// Returns a permutation suitable for [`CsrMatrix::permute_symmetric`]
/// (`perm[new] = old`). Disconnected components are handled by restarting
/// from the lowest-degree unvisited vertex.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Permutation {
    let n = a.nrows();
    let degree = |v: usize| a.row_nnz(v).saturating_sub(1);
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    while order.len() < n {
        // Start from a pseudo-peripheral-ish vertex: the unvisited vertex of
        // minimum degree.
        let start = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| degree(v))
            .expect("unvisited vertex exists");
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            // Neighbours in ascending degree order (Cuthill–McKee rule).
            let mut nbrs: Vec<usize> = a
                .row_indices(v)
                .iter()
                .copied()
                .filter(|&u| u != v && !visited[u])
                .collect();
            nbrs.sort_by_key(|&u| degree(u));
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order)
}

/// Bandwidth of a matrix: `max |i − j|` over nonzeros.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    (0..a.nrows())
        .flat_map(|i| a.row_indices(i).iter().map(move |&j| i.abs_diff(j)))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

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
    fn rcm_restores_path_bandwidth_after_scramble() {
        // Scramble a path graph (bandwidth 1) with a fixed permutation; RCM
        // must find an ordering with bandwidth 1 again.
        let a = path_graph(8);
        let scramble = [3usize, 7, 1, 5, 0, 6, 2, 4];
        let scrambled = a.permute_symmetric(&scramble);
        assert!(bandwidth(&scrambled) > 1);
        let p = reverse_cuthill_mckee(&scrambled);
        assert_eq!(bandwidth(&scrambled.permute_symmetric(p.as_slice())), 1);
    }

    #[test]
    fn handles_diagonal_and_disconnected_graphs() {
        let d = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(reverse_cuthill_mckee(&d).len(), 3);
        assert_eq!(bandwidth(&d), 0);
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(3, 4, -1.0);
        let p = reverse_cuthill_mckee(&coo.to_csr());
        assert_eq!(p.len(), 6);
    }
}
