//! Per-solve rank assembly against reference copies of the original
//! algorithms: `CommPlan::build` must produce the same plans, and
//! `LocalSystem::build` / `LocalSystem::build_all` the same local matrices
//! bit for bit, as the nparts × nparts table and the `HashMap` + COO
//! assembly they replaced.

use async_jacobi_repro::linalg::{CooMatrix, CsrMatrix};
use async_jacobi_repro::matrices::fd;
use async_jacobi_repro::matrices::suite::{suite_problems, Scale};
use async_jacobi_repro::partition::{
    bfs_partition, block_partition, coordinate_bisection, CommPlan, LocalSystem, Partition,
    SubdomainPlan,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The original plan construction: an nparts × nparts table of receive
/// lists, read once per part for `recv_from` and transposed for `send_to`.
fn reference_plans(a: &CsrMatrix, partition: &Partition) -> Vec<SubdomainPlan> {
    let nparts = partition.nparts();
    let parts = partition.parts();
    let mut recv: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); nparts]; nparts];
    for (p, rows) in parts.iter().enumerate() {
        let mut seen: Vec<usize> = Vec::new();
        for &i in rows {
            for (j, _) in a.row_iter(i) {
                if partition.part_of(j) != p {
                    seen.push(j);
                }
            }
        }
        seen.sort_unstable();
        seen.dedup();
        for g in seen {
            recv[p][partition.part_of(g)].push(g);
        }
    }
    (0..nparts)
        .map(|p| {
            let mut ghosts: Vec<usize> = recv[p].iter().flatten().copied().collect();
            ghosts.sort_unstable();
            SubdomainPlan {
                owned: parts[p].clone(),
                ghosts,
                recv_from: (0..nparts)
                    .filter(|&q| !recv[p][q].is_empty())
                    .map(|q| (q, recv[p][q].clone()))
                    .collect(),
                send_to: (0..nparts)
                    .filter(|&q| !recv[q][p].is_empty())
                    .map(|q| (q, recv[q][p].clone()))
                    .collect(),
            }
        })
        .collect()
}

/// The original local extraction: a hashed global → local map and a COO
/// sorted into CSR.
fn reference_local(a: &CsrMatrix, plan: &SubdomainPlan) -> LocalSystem {
    let n_owned = plan.owned.len();
    let n_ghost = plan.ghosts.len();
    let mut local_of = HashMap::with_capacity(n_owned + n_ghost);
    for (l, &g) in plan.owned.iter().enumerate() {
        local_of.insert(g, l);
    }
    for (l, &g) in plan.ghosts.iter().enumerate() {
        local_of.insert(g, n_owned + l);
    }
    let mut coo = CooMatrix::new(n_owned, n_owned + n_ghost);
    let mut diag_inv = Vec::with_capacity(n_owned);
    for (r, &gi) in plan.owned.iter().enumerate() {
        let mut diag = 0.0;
        for (gj, v) in a.row_iter(gi) {
            coo.push(r, local_of[&gj], v);
            if gj == gi {
                diag = v;
            }
        }
        diag_inv.push(1.0 / diag);
    }
    LocalSystem {
        matrix: coo.to_csr(),
        global_owned: plan.owned.clone(),
        global_ghosts: plan.ghosts.clone(),
        diag_inv,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Describes the first difference between two local systems, if any.
fn local_mismatch(got: &LocalSystem, want: &LocalSystem) -> Option<&'static str> {
    let (g, w) = (&got.matrix, &want.matrix);
    if (g.nrows(), g.ncols()) != (w.nrows(), w.ncols()) {
        Some("shape")
    } else if g.indptr() != w.indptr() {
        Some("indptr")
    } else if g.indices() != w.indices() {
        Some("indices")
    } else if bits(g.values()) != bits(w.values()) {
        Some("value bits")
    } else if bits(&got.diag_inv) != bits(&want.diag_inv) {
        Some("diag_inv bits")
    } else if got.global_owned != want.global_owned {
        Some("global_owned")
    } else if got.global_ghosts != want.global_ghosts {
        Some("global_ghosts")
    } else {
        None
    }
}

/// Checks plans, per-rank and all-ranks local systems against the
/// references; `Err` names the first difference.
fn check_assembly(a: &CsrMatrix, partition: &Partition) -> Result<(), String> {
    let plan = CommPlan::build(a, partition);
    let want = reference_plans(a, partition);
    if plan.nparts() != want.len() {
        return Err(format!("{} parts, want {}", plan.nparts(), want.len()));
    }
    for (p, w) in want.iter().enumerate() {
        if plan.plan(p) != w {
            return Err(format!("plan of part {p} differs"));
        }
    }
    let all = LocalSystem::build_all(a, &plan);
    if all.len() != want.len() {
        return Err(format!("build_all made {} systems", all.len()));
    }
    for (p, (w, from_all)) in want.iter().zip(&all).enumerate() {
        let reference = reference_local(a, w);
        if let Some(what) = local_mismatch(&LocalSystem::build(a, w), &reference) {
            return Err(format!("build, part {p}: {what}"));
        }
        if let Some(what) = local_mismatch(from_all, &reference) {
            return Err(format!("build_all, part {p}: {what}"));
        }
    }
    Ok(())
}

#[test]
fn suite_block_partitions_match_the_reference_assembly() {
    for sp in suite_problems() {
        let a = sp.build(Scale::Tiny);
        for nparts in [1, 2, 7, 64, 256] {
            check_assembly(&a, &block_partition(a.nrows(), nparts))
                .unwrap_or_else(|e| panic!("{} ×{nparts}: {e}", sp.name));
        }
    }
}

#[test]
fn non_contiguous_partitions_match_the_reference_assembly() {
    let (nx, ny) = (31, 31);
    let a = fd::laplacian_2d(nx, ny);
    // laplacian_2d numbers grid point (i, j) as row i·ny + j.
    let coords: Vec<(f64, f64)> = (0..nx * ny)
        .map(|r| ((r / ny) as f64, (r % ny) as f64))
        .collect();
    for nparts in [2, 7, 64] {
        check_assembly(&a, &bfs_partition(&a, nparts))
            .unwrap_or_else(|e| panic!("bfs ×{nparts}: {e}"));
        check_assembly(&a, &coordinate_bisection(&coords, nparts))
            .unwrap_or_else(|e| panic!("coordinate bisection ×{nparts}: {e}"));
    }
}

/// A symmetric pattern on `n` rows with a nonzero diagonal, from raw
/// `(row, col, value)` draws folded into range.
fn symmetric_matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + i as f64 / n as f64);
    }
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            coo.push_sym(i, j, v);
        }
    }
    coo.to_csr()
}

/// The rows `0..n` ordered by their random keys.
fn shuffled(n: usize, keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys[i % keys.len()], i));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random symmetric patterns under random assignments with every part
    /// non-empty.
    #[test]
    fn random_partitions_match_the_reference_assembly(
        n in 1usize..61,
        parts in 1usize..61,
        entries in proptest::collection::vec((0usize..60, 0usize..60, -1.0f64..1.0), 0..240),
        owners in proptest::collection::vec(0usize..60, 60),
        keys in proptest::collection::vec(0u64..1_000_000, 60),
    ) {
        let nparts = parts.min(n);
        let a = symmetric_matrix(n, &entries);
        let mut assignment: Vec<usize> = owners[..n].iter().map(|&o| o % nparts).collect();
        // Seed every part with one row picked by the random keys.
        for (p, &row) in shuffled(n, &keys).iter().take(nparts).enumerate() {
            assignment[row] = p;
        }
        let partition = Partition::from_assignment(nparts, assignment);
        if let Err(e) = check_assembly(&a, &partition) {
            prop_assert!(false, "n = {n}, nparts = {nparts}: {e}");
        }
    }

    /// `LocalSystem::build` reproduces the COO order for any valid plan,
    /// not only the ascending ones `CommPlan::build` produces.
    #[test]
    fn permuted_plans_match_the_reference_local_system(
        n in 2usize..61,
        parts in 2usize..9,
        entries in proptest::collection::vec((0usize..60, 0usize..60, -1.0f64..1.0), 0..240),
        keys in proptest::collection::vec(0u64..1_000_000, 60),
    ) {
        let nparts = parts.min(n);
        let a = symmetric_matrix(n, &entries);
        let plan = CommPlan::build(&a, &block_partition(n, nparts));
        for sp in plan.iter() {
            let permute = |list: &[usize]| -> Vec<usize> {
                shuffled(list.len(), &keys).into_iter().map(|k| list[k]).collect()
            };
            let permuted = SubdomainPlan {
                owned: permute(&sp.owned),
                ghosts: permute(&sp.ghosts),
                recv_from: sp.recv_from.clone(),
                send_to: sp.send_to.clone(),
            };
            let got = LocalSystem::build(&a, &permuted);
            if let Some(what) = local_mismatch(&got, &reference_local(&a, &permuted)) {
                prop_assert!(false, "n = {n}, nparts = {nparts}: {what}");
            }
        }
    }
}
