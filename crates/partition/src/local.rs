//! Per-subdomain local systems.
//!
//! Each simulated rank iterates on its own rows only. [`LocalSystem`]
//! re-indexes a subdomain's rows so that columns `0..n_owned` refer to owned
//! unknowns and columns `n_owned..n_owned+n_ghost` refer to the ghost layer,
//! which is how the paper's distributed implementation stores its halo.

use crate::comm::{CommPlan, SubdomainPlan};
use aj_linalg::method::relax_block;
use aj_linalg::{CsrMatrix, LinalgError, ResolvedMethod, StorageFormat, SweepKernel};

/// A subdomain's rows of `A` in local indexing, plus the index maps back to
/// the global problem.
#[derive(Debug, Clone)]
pub struct LocalSystem {
    /// Local matrix: `n_owned` rows, `n_owned + n_ghost` columns. Row `r`
    /// corresponds to global row `global_owned[r]`.
    pub matrix: CsrMatrix,
    /// Global index of each owned row (ascending).
    pub global_owned: Vec<usize>,
    /// Global index of each ghost column, in ghost-local order (column
    /// `n_owned + g` of [`LocalSystem::matrix`] is `global_ghosts[g]`).
    pub global_ghosts: Vec<usize>,
    /// Inverse diagonal of the owned rows (for relaxation).
    pub diag_inv: Vec<f64>,
}

impl LocalSystem {
    /// Extracts the subdomain described by `plan` from the global matrix:
    /// the one-rank entry point of [`LocalSystem::build_all`]. Each call
    /// allocates an index over every column of `a`, so callers that
    /// extract many parts use `build_all`.
    ///
    /// # Panics
    /// Panics when a referenced column is neither owned nor in the ghost
    /// list (i.e. the plan does not belong to this matrix), or when a
    /// diagonal entry is missing/zero.
    pub fn build(a: &CsrMatrix, plan: &SubdomainPlan) -> LocalSystem {
        LocalIndex::new(a).extract(a, plan)
    }

    /// Extracts every part of `plan`, in part order, over one shared
    /// global → local index: O(n + nnz) for all parts together.
    ///
    /// # Panics
    /// As [`LocalSystem::build`].
    pub fn build_all(a: &CsrMatrix, plan: &CommPlan) -> Vec<LocalSystem> {
        let mut index = LocalIndex::new(a);
        plan.iter().map(|sp| index.extract(a, sp)).collect()
    }

    /// Number of owned unknowns.
    pub fn n_owned(&self) -> usize {
        self.global_owned.len()
    }

    /// Number of ghost values.
    pub fn n_ghost(&self) -> usize {
        self.global_ghosts.len()
    }

    /// Builds a reusable sweep kernel over all owned rows in the requested
    /// storage format (see [`aj_linalg::kernel`]).
    ///
    /// # Errors
    /// Propagates format-validation errors (bad SELL lane count, …).
    pub fn kernel(&self, format: StorageFormat) -> Result<SweepKernel, LinalgError> {
        SweepKernel::build(&self.matrix, 0..self.n_owned(), format)
    }

    /// One local Jacobi relaxation sweep over all owned rows:
    /// `x_owned ← x_owned + D⁻¹ (b_local − A_local · [x_owned; x_ghost])`,
    /// through a prebuilt [`SweepKernel`] and caller-owned residual
    /// scratch, so steady-state sweeps allocate nothing.
    ///
    /// `x` must have length `n_owned + n_ghost` (owned first). `b_local`
    /// and `residuals` have length `n_owned`. The ghost tail of `x` is
    /// read, never written. Every residual is computed before any owned
    /// value changes, i.e. this is a *Jacobi* (additive) local sweep
    /// matching the paper's compute-residual-then-correct structure (§V).
    pub fn jacobi_sweep_with(
        &self,
        kernel: &SweepKernel,
        b_local: &[f64],
        x: &mut [f64],
        residuals: &mut [f64],
    ) {
        let n = self.n_owned();
        debug_assert_eq!(x.len(), n + self.n_ghost());
        kernel.residuals_into(&self.matrix, x, b_local, residuals);
        relax_block(
            &ResolvedMethod::Jacobi,
            residuals,
            &self.diag_inv,
            &mut x[..n],
            &mut [],
            0,
            0,
        );
    }
}

/// Dense global → local column map shared by the parts one extraction at
/// a time: every entry is [`LocalIndex::NONE`] between extractions.
struct LocalIndex {
    local_of: Vec<u32>,
    /// Entries of the row being copied that go after the ones written
    /// directly: its ghosts, or the whole row when it needs sorting.
    tail: Vec<(usize, f64)>,
}

impl LocalIndex {
    const NONE: u32 = u32::MAX;

    fn new(a: &CsrMatrix) -> Self {
        LocalIndex {
            local_of: vec![Self::NONE; a.ncols()],
            tail: Vec::new(),
        }
    }

    /// Owned rows map columns to `0..n_owned` and ghosts to
    /// `n_owned..n_owned+n_ghost`. With ascending `owned` and `ghosts`
    /// lists (every [`CommPlan`] of contiguous parts) a row's owned columns,
    /// then its ghosts, each in global order, are already in local-column
    /// order, so they are written as they come; any other plan sorts each
    /// row.
    fn extract(&mut self, a: &CsrMatrix, plan: &SubdomainPlan) -> LocalSystem {
        let n_owned = plan.owned.len();
        let width = n_owned + plan.ghosts.len();
        assert!(
            width < Self::NONE as usize,
            "subdomain too wide for u32 columns"
        );
        let ascending = |list: &[usize]| list.windows(2).all(|w| w[0] < w[1]);
        let in_order = ascending(&plan.owned) && ascending(&plan.ghosts);
        for (l, &g) in plan.owned.iter().chain(&plan.ghosts).enumerate() {
            self.local_of[g] = l as u32;
        }
        let nnz = plan.owned.iter().map(|&i| a.row_nnz(i)).sum();
        let mut indptr = Vec::with_capacity(n_owned + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut diag_inv = Vec::with_capacity(n_owned);
        indptr.push(0);
        for &gi in &plan.owned {
            let mut diag = 0.0;
            self.tail.clear();
            for (gj, v) in a.row_iter(gi) {
                let lj = self.local_of[gj];
                assert!(
                    lj != Self::NONE,
                    "column {gj} of row {gi} missing from plan"
                );
                let lj = lj as usize;
                if in_order && lj < n_owned {
                    indices.push(lj);
                    values.push(v);
                } else {
                    self.tail.push((lj, v));
                }
                if gj == gi {
                    diag = v;
                }
            }
            if !in_order {
                self.tail.sort_unstable_by_key(|&(lj, _)| lj);
            }
            indices.extend(self.tail.iter().map(|&(lj, _)| lj));
            values.extend(self.tail.iter().map(|&(_, v)| v));
            indptr.push(indices.len());
            assert!(diag != 0.0, "zero/missing diagonal in global row {gi}");
            diag_inv.push(1.0 / diag);
        }
        for &g in plan.owned.iter().chain(&plan.ghosts) {
            self.local_of[g] = Self::NONE;
        }
        LocalSystem {
            matrix: CsrMatrix::from_raw_parts(n_owned, width, indptr, indices, values)
                .expect("local rows have strictly increasing columns"),
            global_owned: plan.owned.clone(),
            global_ghosts: plan.ghosts.clone(),
            diag_inv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommPlan;
    use crate::partitioners::block_partition;
    use aj_matrices::fd;

    fn setup(n: usize, parts: usize) -> (CsrMatrix, CommPlan) {
        let a = fd::laplacian_1d(n);
        let p = block_partition(n, parts);
        let cp = CommPlan::build(&a, &p);
        (a, cp)
    }

    /// One local Jacobi sweep through a CSR kernel.
    fn csr_sweep(ls: &LocalSystem, b_local: &[f64], x: &mut [f64]) {
        let k = ls.kernel(StorageFormat::Csr).unwrap();
        let mut res = vec![0.0; ls.n_owned()];
        ls.jacobi_sweep_with(&k, b_local, x, &mut res);
    }

    #[test]
    fn local_matrix_shape_and_diag() {
        let (a, cp) = setup(10, 2);
        let ls = LocalSystem::build(&a, cp.plan(0));
        assert_eq!(ls.n_owned(), 5);
        assert_eq!(ls.n_ghost(), 1);
        assert_eq!(ls.matrix.nrows(), 5);
        assert_eq!(ls.matrix.ncols(), 6);
        assert!(ls.diag_inv.iter().all(|&d| (d - 0.5).abs() < 1e-15));
    }

    #[test]
    fn distributed_sweep_equals_global_jacobi() {
        let n = 12;
        let a = fd::laplacian_1d(n);
        let p = block_partition(n, 3);
        let cp = CommPlan::build(&a, &p);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();

        // Global reference: one synchronous Jacobi iteration.
        let diag_inv: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let mut x_ref = vec![0.0; n];
        aj_linalg::sweeps::jacobi_iteration(&a, &b, &diag_inv, &x0, &mut x_ref);

        // Distributed: each part sweeps locally with fresh ghosts.
        let mut x_global = x0.clone();
        let mut new_global = x0.clone();
        for part in 0..3 {
            let plan = cp.plan(part);
            let ls = LocalSystem::build(&a, plan);
            let mut x_local: Vec<f64> = plan
                .owned
                .iter()
                .chain(plan.ghosts.iter())
                .map(|&g| x_global[g])
                .collect();
            let b_local: Vec<f64> = plan.owned.iter().map(|&g| b[g]).collect();
            csr_sweep(&ls, &b_local, &mut x_local);
            for (l, &g) in plan.owned.iter().enumerate() {
                new_global[g] = x_local[l];
            }
        }
        x_global = new_global;
        assert!(aj_linalg::vecops::rel_diff(&x_global, &x_ref) < 1e-14);
    }

    #[test]
    fn kernel_sweep_matches_plain_sweep_per_format() {
        let (a, cp) = setup(24, 3);
        let ls = LocalSystem::build(&a, cp.plan(1));
        let width = ls.n_owned() + ls.n_ghost();
        let b_local = vec![1.25; ls.n_owned()];
        let x0: Vec<f64> = (0..width).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut x_ref = x0.clone();
        csr_sweep(&ls, &b_local, &mut x_ref);
        for format in [StorageFormat::Csr, StorageFormat::SellC { c: 4 }] {
            let k = ls.kernel(format).unwrap();
            let mut x = x0.clone();
            let mut res = vec![0.0; ls.n_owned()];
            ls.jacobi_sweep_with(&k, &b_local, &mut x, &mut res);
            assert_eq!(x, x_ref, "{format}");
        }
    }

    #[test]
    fn sweep_leaves_ghost_tail_untouched() {
        let (a, cp) = setup(8, 2);
        let ls = LocalSystem::build(&a, cp.plan(1));
        let b_local = vec![1.0; ls.n_owned()];
        let mut x = vec![0.5; ls.n_owned() + ls.n_ghost()];
        x[ls.n_owned()] = 9.0; // ghost
        csr_sweep(&ls, &b_local, &mut x);
        assert_eq!(x[ls.n_owned()], 9.0);
    }
}
