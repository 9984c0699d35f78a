//! Cross-crate property-based tests (proptest).

use async_jacobi_repro::linalg::perm::Permutation;
use async_jacobi_repro::linalg::vecops::{self, Norm};
use async_jacobi_repro::linalg::{CooMatrix, CsrMatrix};
use async_jacobi_repro::model::mask::ActiveMask;
use async_jacobi_repro::model::propagation;
use async_jacobi_repro::partition::{bfs_partition, block_partition, CommPlan};
use async_jacobi_repro::trace::{reconstruct, RelaxationEvent, Trace};
use proptest::prelude::*;

/// A random sparse symmetric W.D.D. matrix with unit diagonal.
fn wdd_matrix(n: usize, entries: Vec<(usize, usize, f64)>) -> CsrMatrix {
    let mut off = vec![0.0f64; n];
    let mut coo = CooMatrix::new(n, n);
    let mut seen = std::collections::HashSet::new();
    for (i, j, w) in entries {
        let (i, j) = (i % n, j % n);
        if i == j || !seen.insert((i.min(j), i.max(j))) {
            continue;
        }
        // Keep row sums below the diagonal we will add.
        let w = 0.4 * w.abs().min(1.0) + 0.01;
        coo.push_sym(i, j, -w);
        off[i] += w;
        off[j] += w;
    }
    let max_off = off.iter().cloned().fold(0.0, f64::max).max(0.5);
    for (i, &o) in off.iter().enumerate() {
        // Diagonal ≥ off-diagonal sum (weak dominance), then scaled to 1.
        coo.push(i, i, max_off.max(o));
    }
    coo.to_csr().scale_to_unit_diagonal().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// SpMV is linear: A(αx + y) = αAx + Ay.
    #[test]
    fn spmv_linearity(
        entries in proptest::collection::vec((0usize..12, 0usize..12, -1.0f64..1.0), 5..40),
        xs in proptest::collection::vec(-1.0f64..1.0, 12),
        ys in proptest::collection::vec(-1.0f64..1.0, 12),
        alpha in -2.0f64..2.0,
    ) {
        let a = wdd_matrix(12, entries);
        let mut combo = vec![0.0; 12];
        for i in 0..12 {
            combo[i] = alpha * xs[i] + ys[i];
        }
        let lhs = a.spmv(&combo);
        let ax = a.spmv(&xs);
        let ay = a.spmv(&ys);
        let rhs: Vec<f64> = (0..12).map(|i| alpha * ax[i] + ay[i]).collect();
        prop_assert!(vecops::rel_diff(&lhs, &rhs) < 1e-12);
    }

    /// Symmetric permutation preserves SpMV: (PAPᵀ)(Px) = P(Ax).
    #[test]
    fn permutation_commutes_with_spmv(
        entries in proptest::collection::vec((0usize..10, 0usize..10, -1.0f64..1.0), 5..30),
        xs in proptest::collection::vec(-1.0f64..1.0, 10),
        seed in 0u64..1000,
    ) {
        let a = wdd_matrix(10, entries);
        // Deterministic shuffle from the seed.
        let mut order: Vec<usize> = (0..10).collect();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in (1..10).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let p = Permutation::from_vec(order);
        let pa = a.permute_symmetric(p.as_slice());
        let lhs = pa.spmv(&p.apply(&xs));
        let rhs = p.apply(&a.spmv(&xs));
        prop_assert!(vecops::rel_diff(&lhs, &rhs) < 1e-12);
    }

    /// Theorem 1 as a property: any mask with ≥1 delayed row on a random
    /// W.D.D. matrix gives ‖Ĝ‖∞ = ‖Ĥ‖₁ = 1; full masks give ≤ 1.
    #[test]
    fn theorem1_for_random_masks(
        entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 8..50),
        delayed in proptest::collection::btree_set(0usize..14, 0..6),
    ) {
        let a = wdd_matrix(14, entries);
        let delayed: Vec<usize> = delayed.into_iter().collect();
        let mask = ActiveMask::all_except(14, &delayed);
        let g = propagation::ghat_csr(&a, &mask);
        let h = propagation::hhat_csr(&a, &mask);
        if delayed.is_empty() {
            prop_assert!(g.norm_inf() <= 1.0 + 1e-12);
            prop_assert!(h.norm_one() <= 1.0 + 1e-12);
        } else {
            prop_assert!((g.norm_inf() - 1.0).abs() < 1e-12);
            prop_assert!((h.norm_one() - 1.0).abs() < 1e-12);
        }
    }

    /// A model step never increases the L1 residual on W.D.D. matrices,
    /// whatever the mask (the practical content of Theorem 1).
    #[test]
    fn residual_monotone_under_any_mask(
        entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 8..50),
        bs in proptest::collection::vec(-1.0f64..1.0, 14),
        x0 in proptest::collection::vec(-1.0f64..1.0, 14),
        density in 0.1f64..1.0,
        seed in 0u64..1000,
    ) {
        let a = wdd_matrix(14, entries);
        let mask = ActiveMask::random(14, density, seed);
        let diag_inv = vec![1.0; 14];
        let r0 = vecops::norm(&a.residual(&x0, &bs), Norm::L1);
        let mut x = x0.clone();
        propagation::apply_step(&a, &bs, &diag_inv, &mask, &mut x);
        let r1 = vecops::norm(&a.residual(&x, &bs), Norm::L1);
        prop_assert!(r1 <= r0 * (1.0 + 1e-12), "residual grew: {r0} → {r1}");
    }

    /// Partition invariants: parts cover all rows exactly once, stay within
    /// one row of balance (block) and the comm plan is symmetric.
    #[test]
    fn partition_and_comm_plan_invariants(
        nx in 3usize..8,
        ny in 3usize..8,
        parts in 2usize..6,
    ) {
        let a = async_jacobi_repro::matrices::fd::laplacian_2d(nx, ny);
        let n = a.nrows();
        prop_assume!(parts <= n);
        for partition in [block_partition(n, parts), bfs_partition(&a, parts)] {
            let sizes = partition.sizes();
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
            let plan = CommPlan::build(&a, &partition);
            for me in 0..parts {
                for (other, sent) in &plan.plan(me).send_to {
                    let back = plan.plan(*other).recv_from.iter().find(|(q, _)| *q == me);
                    prop_assert!(back.is_some());
                    prop_assert_eq!(&back.unwrap().1, sent);
                }
            }
        }
    }

    /// Trace reconstruction conserves events and never reports a fraction
    /// outside [0, 1], for arbitrary (even physically impossible) traces.
    #[test]
    fn reconstruction_is_total_and_conservative(
        raw in proptest::collection::vec(
            (0usize..6, 0u64..20, proptest::collection::vec((0usize..6, 0u64..4), 0..3)),
            0..40
        ),
    ) {
        let events: Vec<RelaxationEvent> = raw
            .into_iter()
            .map(|(row, seq, reads)| RelaxationEvent {
                row,
                seq,
                reads: reads.into_iter().filter(|&(j, _)| j != row)
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter().collect(),
            })
            .collect();
        let trace = Trace::from_events(6, events);
        let analysis = reconstruct(&trace);
        prop_assert_eq!(analysis.propagated + analysis.non_propagated.len(), analysis.total);
        let in_steps: usize = analysis.steps.iter().map(|s| s.len()).sum();
        prop_assert_eq!(in_steps, analysis.propagated);
        prop_assert!((0.0..=1.0).contains(&analysis.fraction()));
    }

    /// CG decreases the A-norm of the error monotonically on SPD systems
    /// (the defining property of conjugate directions).
    #[test]
    fn cg_error_a_norm_is_monotone(
        nx in 3usize..7,
        ny in 3usize..7,
        seed in 0u64..500,
    ) {
        let a = async_jacobi_repro::matrices::fd::laplacian_2d(nx, ny);
        let m = async_jacobi_repro::matrices::manufactured::random(&a, seed);
        let n = a.nrows();
        // Run CG step by step by capping iterations, measuring the error
        // A-norm at each stage.
        let a_norm = |x: &[f64]| {
            let e = vecops::sub(x, &m.x_exact);
            vecops::dot(&e, &a.spmv(&e)).max(0.0).sqrt()
        };
        let initial = a_norm(&vec![0.0; n]);
        let mut prev = initial;
        for k in 1..=6 {
            let r = async_jacobi_repro::linalg::krylov::conjugate_gradient(
                &a, &m.b, &vec![0.0; n], 0.0, k, Norm::L2,
            ).unwrap();
            let cur = a_norm(&r.x);
            // Absolute floor absorbs round-off once converged to machine
            // precision.
            prop_assert!(
                cur <= prev * (1.0 + 1e-10) + 1e-13 * initial,
                "A-norm grew at step {k}: {prev} → {cur}"
            );
            prev = cur;
        }
    }

    /// RCM always returns a valid permutation and never increases the
    /// bandwidth of an already-banded (1-D chain) matrix beyond its width.
    #[test]
    fn rcm_is_valid_on_random_wdd_matrices(
        entries in proptest::collection::vec((0usize..16, 0usize..16, -1.0f64..1.0), 5..60),
    ) {
        let a = wdd_matrix(16, entries);
        let p = async_jacobi_repro::partition::reverse_cuthill_mckee(&a);
        // Valid permutation (constructor validates, so reaching here with
        // the right length is the assertion).
        prop_assert_eq!(p.len(), 16);
        // Permuting must preserve symmetry and nnz.
        let r = a.permute_symmetric(p.as_slice());
        prop_assert_eq!(r.nnz(), a.nnz());
        prop_assert!(r.is_symmetric(1e-14));
    }

    /// Manufactured problems have zero residual at the exact solution and
    /// the error metric is a norm (zero iff equal).
    #[test]
    fn manufactured_solutions_are_consistent(
        nx in 2usize..8,
        ny in 2usize..8,
        seed in 0u64..1000,
    ) {
        let a = async_jacobi_repro::matrices::fd::laplacian_2d(nx, ny);
        let m = async_jacobi_repro::matrices::manufactured::random(&a, seed);
        let r = a.residual(&m.x_exact, &m.b);
        prop_assert!(vecops::norm(&r, Norm::Inf) < 1e-12);
        prop_assert_eq!(m.error(&m.x_exact, Norm::L2), 0.0);
    }

    /// The periodic-schedule spectral radius of the all-rows mask matches
    /// the Jacobi iteration-matrix radius for any W.D.D. system.
    #[test]
    fn period_radius_of_full_mask_is_jacobi_radius(
        entries in proptest::collection::vec((0usize..10, 0usize..10, -1.0f64..1.0), 5..30),
    ) {
        let a = wdd_matrix(10, entries);
        let masks = vec![ActiveMask::all(10)];
        let rho = async_jacobi_repro::model::cycles::period_spectral_radius(&a, &masks, 1.0)
            .unwrap();
        // ρ(G) for symmetric unit-diagonal A via eigenvalues of A.
        let ext = async_jacobi_repro::linalg::eigen::lanczos_extreme(&a, 10).unwrap();
        let exact = (1.0 - ext.min).abs().max((1.0 - ext.max).abs());
        prop_assert!((rho - exact).abs() < 1e-4, "ρ = {rho} vs exact {exact}");
    }

    /// Matrix Market round-trips arbitrary W.D.D. matrices exactly.
    #[test]
    fn matrix_market_round_trip(
        entries in proptest::collection::vec((0usize..9, 0usize..9, -1.0f64..1.0), 3..25),
    ) {
        let a = wdd_matrix(9, entries);
        let mut buf = Vec::new();
        async_jacobi_repro::matrices::mm::write_matrix_market(&a, &mut buf).unwrap();
        let b = async_jacobi_repro::matrices::mm::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `apply` then `apply_inverse` (and the inverse permutation's `apply`)
    /// recover any vector exactly, for any permutation.
    #[test]
    fn permutation_apply_round_trips(
        xs in proptest::collection::vec(-1.0f64..1.0, 12),
        seed in 0u64..1000,
    ) {
        let mut order: Vec<usize> = (0..12).collect();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in (1..12).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let p = Permutation::from_vec(order);
        let forward = p.apply(&xs);
        prop_assert_eq!(&p.apply_inverse(&forward), &xs);
        prop_assert_eq!(&p.inverse().apply(&forward), &xs);
        prop_assert_eq!(&p.apply(&p.inverse().apply(&xs)), &xs);
    }

    /// RCM orderings are bijections, and conjugating by the ordering and
    /// then by its inverse recovers the matrix exactly.
    #[test]
    fn rcm_permutation_round_trips(
        entries in proptest::collection::vec((0usize..11, 0usize..11, -1.0f64..1.0), 4..30),
    ) {
        let a = wdd_matrix(11, entries);
        let p = async_jacobi_repro::partition::reverse_cuthill_mckee(&a);
        let mut seen = [false; 11];
        for &old in p.as_slice() {
            prop_assert!(!seen[old]);
            seen[old] = true;
        }
        let reordered = a.permute_symmetric(p.as_slice());
        let back = reordered.permute_symmetric(p.inverse().as_slice());
        prop_assert_eq!(back, a);
    }

    /// Every storage format computes the same block residuals as the CSR
    /// reference on arbitrary W.D.D. systems and arbitrary row blocks, bit
    /// for bit.
    #[test]
    fn sweep_kernel_formats_agree(
        entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 5..50),
        xs in proptest::collection::vec(-1.0f64..1.0, 14),
        bs in proptest::collection::vec(-1.0f64..1.0, 14),
        lo in 0usize..14,
        len in 0usize..14,
        ci in 0usize..4,
    ) {
        use async_jacobi_repro::linalg::{StorageFormat, SweepKernel};
        let c = [2usize, 4, 8, 16][ci];
        let a = wdd_matrix(14, entries);
        let rows = lo..(lo + len).min(14);
        let mut reference = vec![0.0; rows.len()];
        let b_blk = &bs[rows.clone()];
        SweepKernel::build(&a, rows.clone(), StorageFormat::Csr)
            .unwrap()
            .residuals_into(&a, &xs, b_blk, &mut reference);
        let format = StorageFormat::SellC { c };
        let mut out = vec![0.0; rows.len()];
        SweepKernel::build(&a, rows.clone(), format)
            .unwrap()
            .residuals_into(&a, &xs, b_blk, &mut out);
        prop_assert!(out == reference, "{format}: {out:?} vs {reference:?}");
    }

    /// A residual-monitor sample taken through SELL block kernels has the
    /// bits of the fused CSR residual norm, for every lane count and norm,
    /// on matrices whose irregular rows make SELL pad, over any split into
    /// contiguous blocks, and with ±∞ or NaN anywhere in `x` (`x[0]`, the
    /// pad column, included). NaN matches NaN.
    #[test]
    fn monitor_samples_through_sell_kernels_match_the_fused_csr_norm(
        entries in proptest::collection::vec((0usize..20, 0usize..20, -1.0f64..1.0), 0..80),
        xs in proptest::collection::vec(-1.0f64..1.0, 20),
        bs in proptest::collection::vec(-1.0f64..1.0, 20),
        cuts in proptest::collection::vec(0usize..=20, 0..6),
        specials in proptest::collection::vec((0usize..20, 0usize..3), 1..4),
        inject in 0usize..3,
    ) {
        use async_jacobi_repro::dmsim::ResidualMonitor;
        use async_jacobi_repro::linalg::{StorageFormat, SweepKernel};
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for (i, j, v) in entries {
            coo.push(i, j, v);
        }
        let a = coo.to_csr();
        // A third of the cases keep `x` finite, where only the order of
        // the norm's sum can change its bits; the others inject ±∞ or NaN,
        // half of them at `x[0]`.
        let non_finite = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut x = xs;
        if inject > 0 {
            for &(i, k) in &specials {
                x[i] = non_finite[k];
            }
        }
        if inject == 2 {
            x[0] = non_finite[specials[0].1];
        }
        let mut bounds = cuts;
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        for norm in [Norm::L1, Norm::L2, Norm::Inf] {
            let nb = vecops::norm(&bs, norm).max(f64::MIN_POSITIVE);
            let want = a.residual_norm(&x, &bs, norm) / nb;
            for c in [2usize, 4, 8, 16] {
                let kernels: Vec<SweepKernel> = bounds
                    .windows(2)
                    .map(|w| SweepKernel::build(&a, w[0]..w[1], StorageFormat::SellC { c }).unwrap())
                    .collect();
                let mut monitor = ResidualMonitor::new(&a, &bs, norm, 0.0, 1);
                monitor.observe(0.0, 0, &x, &kernels);
                let got = monitor.samples()[0].residual;
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{norm:?}, sellc:c={c}, blocks {bounds:?}: {got} vs {want}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The shared relaxation routine over the whole matrix, fed the CSR
    /// kernel's residuals, is the dense reference iteration bit for bit —
    /// for every method, at any step of the selection stream, on random
    /// sparse diagonally dominant matrices with a non-unit diagonal.
    #[test]
    fn relax_block_over_the_whole_matrix_is_the_reference_iteration(
        entries in proptest::collection::vec((0usize..16, 0usize..16, -1.0f64..1.0), 5..60),
        scales in proptest::collection::vec(0.25f64..4.0, 16),
        xs in proptest::collection::vec(-1.0f64..1.0, 16),
        prevs in proptest::collection::vec(-1.0f64..1.0, 16),
        bs in proptest::collection::vec(-1.0f64..1.0, 16),
        omega in 0.05f64..1.95,
        beta in 0.0f64..0.95,
        fraction in 0.01f64..=1.0,
        seed in 0u64..=u64::MAX,
        step in 0u64..=u64::MAX,
    ) {
        use async_jacobi_repro::linalg::method::{method_iteration, relax_block, ResolvedMethod};
        use async_jacobi_repro::linalg::{StorageFormat, SweepKernel};
        let n = 16;
        // Scaling each row keeps it diagonally dominant.
        let unit = wdd_matrix(n, entries);
        let mut coo = CooMatrix::new(n, n);
        for (i, scale) in scales.iter().enumerate() {
            for (j, v) in unit.row_iter(i) {
                coo.push(i, j, scale * v);
            }
        }
        let a = coo.to_csr();
        let diag_inv: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let mut res = vec![0.0; n];
        SweepKernel::build(&a, 0..n, StorageFormat::Csr)
            .unwrap()
            .residuals_into(&a, &xs, &bs, &mut res);
        for method in [
            ResolvedMethod::Jacobi,
            ResolvedMethod::Richardson1 { omega },
            ResolvedMethod::Richardson2 { omega, beta },
            ResolvedMethod::RandomizedResidual { fraction, seed },
        ] {
            let mut reference = vec![0.0; n];
            let want = method_iteration(&a, &bs, &diag_inv, &method, step, &xs, &prevs, &mut reference);
            let mut x = xs.clone();
            let mut x_prev = prevs.clone();
            let got = relax_block(&method, &res, &diag_inv, &mut x, &mut x_prev, 0, step);
            prop_assert_eq!(got, want);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
            prop_assert!(
                bits(&x) == bits(&reference),
                "{}: {:?} vs {:?}", method.label(), x, reference
            );
            // Momentum state ends where the reference's swap leaves it: at
            // the iterate before this step.
            if method.needs_previous_iterate() {
                prop_assert!(bits(&x_prev) == bits(&xs), "{}: x_prev", method.label());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused synchronous solve — one residual per iterate, read by the
    /// stop test and by the update — is the dense reference solve bit for
    /// bit: iterate, history, relaxation count and verdict, for every
    /// method and norm, at an iteration cap of 0, 1 or `k`, from a random
    /// `x0` and from one that already meets the tolerance. Each synchronous
    /// simulator's samples are the ones the monitor's fused pass records
    /// for the reference iterates.
    #[test]
    fn fused_sync_step_is_the_dense_reference(
        entries in proptest::collection::vec((0usize..16, 0usize..16, -1.0f64..1.0), 5..60),
        xs in proptest::collection::vec(-1.0f64..1.0, 16),
        bs in proptest::collection::vec(-1.0f64..1.0, 16),
        omega in 0.05f64..1.5,
        beta in 0.0f64..0.9,
        fraction in 0.01f64..=1.0,
        seed in 0u64..=u64::MAX,
        k in 2usize..40,
    ) {
        use async_jacobi_repro::dmsim::shmem_sim::{run_shmem_sync, ShmemSimConfig};
        use async_jacobi_repro::dmsim::{run_dist_sync, DistConfig, ResidualMonitor};
        use async_jacobi_repro::linalg::method::{
            method_iteration, method_solve, sync_solve, ResolvedMethod,
        };
        use async_jacobi_repro::linalg::{StorageFormat, SweepKernel};
        let n = 16;
        let a = wdd_matrix(n, entries);
        let tol = 1e-4;
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        // `b = A x0` makes the residual of `x0` exactly zero.
        let meets_tol = (xs.clone(), a.spmv(&xs));
        let random = (vec![0.0; n], bs);
        let whole = [SweepKernel::build(&a, 0..n, StorageFormat::Csr).unwrap()];
        let diag_inv: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        for method in [
            ResolvedMethod::Jacobi,
            ResolvedMethod::Richardson1 { omega },
            ResolvedMethod::Richardson2 { omega, beta },
            ResolvedMethod::RandomizedResidual { fraction, seed },
        ] {
            for (x0, b) in [&random, &meets_tol] {
                for norm in [Norm::L1, Norm::L2, Norm::Inf] {
                    for cap in [0, 1, k] {
                        let want = method_solve(&a, b, x0, &method, tol, cap, norm).unwrap();
                        let got = sync_solve(&a, b, x0, &method, tol, cap, norm).unwrap();
                        let what = format!("{} {norm:?} cap {cap}", method.label());
                        prop_assert!(bits(&got.x) == bits(&want.x), "{}: x", what);
                        prop_assert!(bits(&got.history) == bits(&want.history), "{}: history", what);
                        prop_assert_eq!(got.relaxations, want.relaxations);
                        prop_assert_eq!(got.converged, want.converged);

                        let mut scfg = ShmemSimConfig::new(4, n, seed);
                        let mut dcfg = DistConfig::new(n, seed);
                        (scfg.tol, scfg.norm, scfg.method) = (tol, norm, method);
                        (dcfg.tol, dcfg.norm, dcfg.method) = (tol, norm, method);
                        (scfg.max_iterations, dcfg.max_iterations) = (cap as u64, cap as u64);
                        (scfg.sample_every, dcfg.sample_every) = (1, 1);
                        let runs = [
                            run_shmem_sync(&a, b, x0, &scfg),
                            run_dist_sync(&a, b, x0, &block_partition(n, 4), &dcfg),
                        ];
                        for out in runs {
                            // The reference iterates, sampled by the
                            // monitor's own pass.
                            let iters = out.worker_iterations[0];
                            let mut monitor = ResidualMonitor::new(&a, b, norm, tol, 1);
                            let mut x = x0.clone();
                            let mut x_prev = x0.clone();
                            let mut x_next = vec![0.0; n];
                            monitor.observe(0.0, 0, &x, &whole);
                            for step in 0..iters {
                                method_iteration(&a, b, &diag_inv, &method, step, &x, &x_prev, &mut x_next);
                                std::mem::swap(&mut x_prev, &mut x);
                                std::mem::swap(&mut x, &mut x_next);
                                monitor.observe(0.0, step + 1, &x, &whole);
                            }
                            let want: Vec<f64> = monitor.samples().iter().map(|s| s.residual).collect();
                            let got: Vec<f64> = out.samples.iter().map(|s| s.residual).collect();
                            prop_assert!(bits(&got) == bits(&want), "{}: sim samples", what);
                            prop_assert!(bits(&out.x) == bits(&x), "{}: sim x", what);
                        }
                    }
                }
            }
        }
    }
}

/// A symmetric tridiagonal `(diagonal, off-diagonal)` of order `k` built
/// from raw draws scaled by `magnitude`. `shape` picks the family: 0 plain
/// random; 1 with about half the off-diagonals zero, so `T` splits into
/// blocks; 2 with a constant diagonal; 3 with constant diagonal and
/// off-diagonal and every third off-diagonal zero, so identical blocks
/// repeat every eigenvalue.
fn tridiagonal(
    k: usize,
    draws: &[(f64, f64, usize)],
    shape: usize,
    magnitude: f64,
) -> (Vec<f64>, Vec<f64>) {
    let (d0, e0, _) = draws[0];
    let diag = (0..k)
        .map(|i| magnitude * if shape >= 2 { d0 } else { draws[i].0 })
        .collect();
    let off = (0..k - 1)
        .map(|i| {
            let (_, e, coin) = draws[i];
            magnitude
                * match shape {
                    1 if coin % 2 == 0 => 0.0,
                    3 if i % 3 == 2 => 0.0,
                    3 => e0,
                    _ => e,
                }
        })
        .collect();
    (diag, off)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Bisection on Sturm counts finds the same extremes as the dense
    /// Jacobi eigensolver, inside the Gershgorin interval, for split and
    /// repeated spectra alike.
    #[test]
    fn tridiagonal_extremes_match_the_dense_eigensolver(
        k in 1usize..81,
        draws in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0usize..4), 80),
        shape in 0usize..4,
        exponent in -3i64..4,
    ) {
        use async_jacobi_repro::linalg::{eigen, DenseMatrix};
        let (diag, off) = tridiagonal(k, &draws, shape, 10f64.powi(exponent as i32));
        let (lo, hi) = eigen::tridiagonal_extremes(&diag, &off).unwrap();
        let mut dense = DenseMatrix::zeros(k, k);
        let (mut g_lo, mut g_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..k {
            dense[(i, i)] = diag[i];
            if i + 1 < k {
                dense[(i, i + 1)] = off[i];
                dense[(i + 1, i)] = off[i];
            }
            let r = if i > 0 { off[i - 1].abs() } else { 0.0 }
                + off.get(i).map_or(0.0, |e| e.abs());
            g_lo = g_lo.min(diag[i] - r);
            g_hi = g_hi.max(diag[i] + r);
        }
        let ev = eigen::symmetric_eigenvalues(&dense).unwrap();
        let tol = 1e-12 * (1.0 + dense.norm_inf());
        prop_assert!(
            (lo - ev[0]).abs() <= tol && (hi - ev[k - 1]).abs() <= tol,
            "k={k} shape={shape}: bisection [{lo}, {hi}] vs dense [{}, {}]",
            ev[0],
            ev[k - 1]
        );
        prop_assert!(
            g_lo <= lo && lo <= hi && hi <= g_hi,
            "k={k} shape={shape}: [{lo}, {hi}] outside Gershgorin [{g_lo}, {g_hi}]"
        );
    }

    /// A NaN or infinite entry anywhere gives an error (or non-finite
    /// extremes), never a finite answer and never a hang.
    #[test]
    fn tridiagonal_extremes_reject_non_finite_entries(
        k in 1usize..81,
        draws in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0usize..4), 80),
        shape in 0usize..4,
        (at, bad) in (0usize..159, 0usize..3),
    ) {
        let (mut diag, mut off) = tridiagonal(k, &draws, shape, 1.0);
        let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad];
        let at = at % (2 * k - 1);
        if at < k {
            diag[at] = value;
        } else {
            off[at - k] = value;
        }
        match async_jacobi_repro::linalg::eigen::tridiagonal_extremes(&diag, &off) {
            Err(_) => {}
            Ok((lo, hi)) => prop_assert!(
                !lo.is_finite() && !hi.is_finite(),
                "k={k}: {value} at {at} gave finite extremes [{lo}, {hi}]"
            ),
        }
    }
}
