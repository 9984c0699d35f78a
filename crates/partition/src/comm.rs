//! Communication plans.
//!
//! §VI of the paper: "A neighbor of process p_i is determined by inspecting
//! the nonzero values of the matrix rows of p_i. If the index of a value is
//! in the subdomain of a different process p_j, then p_j is a neighbor of
//! p_i … p_i always locally stores a ghost layer of points that p_j sent to
//! p_i previously." [`CommPlan::build`] performs exactly that inspection.

use crate::partition::Partition;
use aj_linalg::CsrMatrix;
use std::ops::Range;

/// The communication schedule of one subdomain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubdomainPlan {
    /// Global row indices owned by this part (ascending).
    pub owned: Vec<usize>,
    /// Global indices of the ghost layer: columns referenced by owned rows
    /// but owned by other parts, grouped by owning part (ascending) and
    /// ascending within each owner. Each `recv_from` list is therefore one
    /// contiguous run of `ghosts`, starting where the earlier lists end, so
    /// a neighbour's values land in a ghost window with one copy. Under
    /// contiguous parts (a block partition) this is plain ascending order.
    pub ghosts: Vec<usize>,
    /// For each neighbour we receive from: `(neighbour part, global indices
    /// received)`, ascending by part; their concatenation is `ghosts`.
    pub recv_from: Vec<(usize, Vec<usize>)>,
    /// For each neighbour we send to: `(neighbour part, owned global indices
    /// they need)`, ascending by part. Symmetric matrices make this the
    /// mirror of the neighbour's `recv_from`.
    pub send_to: Vec<(usize, Vec<usize>)>,
}

impl SubdomainPlan {
    /// Each in-neighbour with the positions in `ghosts` its values occupy,
    /// in `recv_from` order: the window run a put from it lands in.
    pub fn recv_runs(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        self.recv_from.iter().scan(0, |start, (q, list)| {
            let run = *start..*start + list.len();
            *start = run.end;
            Some((*q, run))
        })
    }
}

/// Communication plans for every part of a partition.
#[derive(Debug, Clone)]
pub struct CommPlan {
    plans: Vec<SubdomainPlan>,
}

impl CommPlan {
    /// Derives the plan from the matrix sparsity: ghost = referenced column
    /// owned elsewhere; the send side is obtained by transposing the
    /// receive relation.
    ///
    /// Runs in O(nnz + ghosts·log ghosts) time and O(n + ghosts) memory:
    /// a per-column stamp drops repeated references, each part's ghosts are
    /// sorted and then grouped by owner in place, and the receive lists are
    /// transposed into send lists, so nothing is sized by `nparts²`.
    pub fn build(a: &CsrMatrix, partition: &Partition) -> CommPlan {
        assert_eq!(a.nrows(), partition.len(), "matrix/partition size mismatch");
        let nparts = partition.nparts();
        let parts = partition.parts();

        // Receive side: for each part, the external columns its rows touch,
        // grouped by owner. `stamp[j] == p` once part `p` has listed column
        // `j`, so each ghost is listed once per part.
        let mut stamp = vec![usize::MAX; a.nrows()];
        let mut ghosts = Vec::with_capacity(nparts);
        let mut recv_from: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(nparts);
        for (p, rows) in parts.iter().enumerate() {
            let mut mine: Vec<usize> = Vec::new();
            for &i in rows {
                for &j in a.row_indices(i) {
                    if partition.part_of(j) != p && stamp[j] != p {
                        stamp[j] = p;
                        mine.push(j);
                    }
                }
            }
            mine.sort_unstable();
            // The stable sort keeps each owner's run ascending; with
            // contiguous parts the runs already come in owner order.
            mine.sort_by_key(|&g| partition.part_of(g));
            let mut recv: Vec<(usize, Vec<usize>)> = Vec::new();
            for &g in &mine {
                let q = partition.part_of(g);
                match recv.last_mut() {
                    Some((last, list)) if *last == q => list.push(g),
                    _ => recv.push((q, vec![g])),
                }
            }
            ghosts.push(mine);
            recv_from.push(recv);
        }

        // Send side: part `p` receiving `list` from `q` means `q` sends
        // `list` to `p`. Visiting receivers in ascending order keeps every
        // `send_to` ascending by part.
        let mut send_to: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); nparts];
        for (p, recv) in recv_from.iter().enumerate() {
            for (q, list) in recv {
                send_to[*q].push((p, list.clone()));
            }
        }

        let plans = parts
            .into_iter()
            .zip(ghosts)
            .zip(recv_from)
            .zip(send_to)
            .map(|(((owned, ghosts), recv_from), send_to)| SubdomainPlan {
                owned,
                ghosts,
                recv_from,
                send_to,
            })
            .collect();
        CommPlan { plans }
    }

    /// Number of parts.
    pub fn nparts(&self) -> usize {
        self.plans.len()
    }

    /// Plan for part `p`.
    pub fn plan(&self, p: usize) -> &SubdomainPlan {
        &self.plans[p]
    }

    /// Iterate over all plans.
    pub fn iter(&self) -> impl Iterator<Item = &SubdomainPlan> {
        self.plans.iter()
    }

    /// Each global row's position in its owner's `owned` list: the local
    /// index a part reads each value of its `send_to` lists from, without a
    /// search per value.
    pub fn owned_positions(&self) -> Vec<u32> {
        let n = self.plans.iter().map(|sp| sp.owned.len()).sum();
        assert!(n <= u32::MAX as usize, "too many rows for u32 positions");
        let mut pos = vec![0u32; n];
        for sp in &self.plans {
            for (l, &g) in sp.owned.iter().enumerate() {
                pos[g] = l as u32;
            }
        }
        pos
    }

    /// Total communication volume per iteration over all parts (each value
    /// counted once on the send side).
    pub fn total_volume(&self) -> usize {
        self.plans
            .iter()
            .map(|p| p.send_to.iter().map(|(_, v)| v.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioners::block_partition;
    use aj_matrices::fd;

    #[test]
    fn chain_split_in_two_exchanges_one_value_each_way() {
        let a = fd::laplacian_1d(6);
        let p = block_partition(6, 2);
        let cp = CommPlan::build(&a, &p);
        let left = cp.plan(0);
        assert_eq!(left.owned, vec![0, 1, 2]);
        assert_eq!(left.ghosts, vec![3]);
        assert_eq!(left.recv_from, vec![(1, vec![3])]);
        assert_eq!(left.send_to, vec![(1, vec![2])]);
        let right = cp.plan(1);
        assert_eq!(right.ghosts, vec![2]);
        assert_eq!(right.send_to, vec![(0, vec![3])]);
    }

    #[test]
    fn send_and_recv_sides_are_consistent() {
        let a = fd::laplacian_2d(10, 10);
        let p = block_partition(100, 7);
        let cp = CommPlan::build(&a, &p);
        for me in 0..7 {
            for (other, sent) in &cp.plan(me).send_to {
                let back = cp
                    .plan(*other)
                    .recv_from
                    .iter()
                    .find(|(q, _)| *q == me)
                    .expect("receiver must list the sender");
                assert_eq!(&back.1, sent, "parts {me}↔{other} disagree");
            }
        }
    }

    #[test]
    fn ghosts_are_exactly_external_references() {
        let a = fd::laplacian_2d(8, 8);
        let p = block_partition(64, 4);
        let cp = CommPlan::build(&a, &p);
        for me in 0..4 {
            let plan = cp.plan(me);
            let mut expect: Vec<usize> = plan
                .owned
                .iter()
                .flat_map(|&i| a.row_indices(i).iter().copied())
                .filter(|&j| p.part_of(j) != me)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(plan.ghosts, expect);
        }
    }

    #[test]
    fn single_part_has_no_communication() {
        let a = fd::laplacian_2d(4, 4);
        let p = block_partition(16, 1);
        let cp = CommPlan::build(&a, &p);
        assert!(cp.plan(0).ghosts.is_empty());
        assert_eq!(cp.total_volume(), 0);
    }

    #[test]
    fn total_volume_counts_each_sent_value_once() {
        let a = fd::laplacian_1d(9);
        let p = block_partition(9, 3);
        let cp = CommPlan::build(&a, &p);
        // Two interfaces, each sends one value in each direction.
        assert_eq!(cp.total_volume(), 4);
    }
}
