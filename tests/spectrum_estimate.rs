//! The `omega=auto` spectrum estimate against the algorithm it replaced,
//! and its behaviour on a matrix with a non-finite entry.
//!
//! `preconditioned_extremes` runs the plain three-term Lanczos recurrence
//! and reads the tridiagonal's extremes by bisection. The reference below
//! is the earlier algorithm, kept only here: the same 64 Lanczos steps from
//! the same start vector, but with modified Gram–Schmidt reorthogonalization
//! against every stored Lanczos vector, and the dense Jacobi eigensolver on
//! the tridiagonal.

use aj_core::spec::{load_problem, parse_method};
use aj_core::{solve, Backend, SolveOptions};
use async_jacobi_repro::linalg::eigen::{self, ExtremeEigenvalues};
use async_jacobi_repro::linalg::method::{
    preconditioned_extremes, Method, OmegaSpec, ResolvedMethod, SafeInterval, AUTO_LANCZOS_STEPS,
    BETA_CAP,
};
use async_jacobi_repro::linalg::ops::LinearOperator;
use async_jacobi_repro::linalg::vecops;
use async_jacobi_repro::linalg::{CsrMatrix, DenseMatrix};

/// Lanczos with full modified Gram–Schmidt reorthogonalization, then the
/// dense eigensolver on the tridiagonal.
fn reorthogonalized_lanczos(op: &CsrMatrix, steps: usize) -> ExtremeEigenvalues {
    let n = op.dim();
    let m = steps.min(n);
    let mut qs: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alpha = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m);
    let mut q = {
        let mut state = 0x853c49e6748fea9bu64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect::<Vec<f64>>()
    };
    vecops::normalize(&mut q);
    let mut w = vec![0.0; n];
    for k in 0..m {
        op.apply(&q, &mut w);
        let a_k = vecops::dot(&q, &w);
        alpha.push(a_k);
        vecops::axpy(-a_k, &q, &mut w);
        if k > 0 {
            vecops::axpy(-beta[k - 1], &qs[k - 1], &mut w);
        }
        for prev in &qs {
            let proj = vecops::dot(prev, &w);
            vecops::axpy(-proj, prev, &mut w);
        }
        qs.push(q.clone());
        let b_k = vecops::norm(&w, vecops::Norm::L2);
        if b_k < 1e-13 || k == m - 1 {
            beta.push(0.0);
            break;
        }
        beta.push(b_k);
        q = w.iter().map(|v| v / b_k).collect();
    }
    let k = alpha.len();
    let mut tri = DenseMatrix::zeros(k, k);
    for i in 0..k {
        tri[(i, i)] = alpha[i];
        if i + 1 < k {
            tri[(i, i + 1)] = beta[i];
            tri[(i + 1, i)] = beta[i];
        }
    }
    let ev = eigen::symmetric_eigenvalues(&tri).unwrap();
    ExtremeEigenvalues {
        min: ev[0],
        max: ev[k - 1],
        steps: k,
    }
}

fn rel(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs()
}

/// Checks the estimate, the resolved `richardson1` ω and the resolved
/// `richardson2` (ω, β) against the reference, within `tol` relative.
fn compare(selector: &str, tol: f64) {
    let p = load_problem(selector, 2018).unwrap();
    let scaled = p.a.scale_to_unit_diagonal().unwrap();
    let reference = reorthogonalized_lanczos(&scaled, AUTO_LANCZOS_STEPS);
    let (lo, hi) = preconditioned_extremes(&p.a).unwrap();
    assert!(
        rel(lo, reference.min) <= tol && rel(hi, reference.max) <= tol,
        "{selector}: estimate [{lo}, {hi}] vs reference [{}, {}]",
        reference.min,
        reference.max
    );

    let interval = SafeInterval {
        lambda_min: reference.min,
        lambda_max: reference.max,
    };
    let want_omega1 = interval.clamp(interval.omega_opt1(), 0.0).0;
    match (Method::Richardson1 {
        omega: OmegaSpec::Auto,
    })
    .resolve(&p.a, 0)
    .unwrap()
    {
        ResolvedMethod::Richardson1 { omega } => assert!(
            rel(omega, want_omega1) <= tol,
            "{selector}: richardson1 ω {omega} vs {want_omega1}"
        ),
        other => panic!("{selector}: {other:?}"),
    }

    let (sl, sh) = (reference.min.sqrt(), reference.max.sqrt());
    let want_beta = ((sh - sl) / (sh + sl)).powi(2).min(BETA_CAP);
    let want_omega2 = interval.clamp((2.0 / (sl + sh)).powi(2), want_beta).0;
    match (Method::Richardson2 {
        omega: OmegaSpec::Auto,
        beta: None,
    })
    .resolve(&p.a, 0)
    .unwrap()
    {
        ResolvedMethod::Richardson2 { omega, beta } => assert!(
            rel(omega, want_omega2) <= tol && rel(beta, want_beta) <= tol,
            "{selector}: richardson2 (ω, β) ({omega}, {beta}) vs ({want_omega2}, {want_beta})"
        ),
        other => panic!("{selector}: {other:?}"),
    }
}

#[test]
fn estimate_matches_the_reorthogonalized_reference() {
    for name in [
        "thermal2",
        "G3_circuit",
        "ecology2",
        "apache2",
        "parabolic_fem",
        "thermomech_dm",
        "Dubcova2",
    ] {
        compare(&format!("suite:{name}:tiny"), 1e-9);
    }
    for selector in ["grid:12x12", "grid:31x31", "fd68", "fe"] {
        compare(selector, 1e-9);
    }
}

/// On grids of at most 64 rows the 64 steps span the whole space, so both
/// estimates are the operator's exact extremes.
#[test]
fn estimate_is_exact_when_the_steps_span_the_space() {
    for selector in ["grid:6x6", "grid:8x8"] {
        compare(selector, 1e-12);
        let p = load_problem(selector, 2018).unwrap();
        let dense = p.a.scale_to_unit_diagonal().unwrap().to_dense();
        let ev = eigen::symmetric_eigenvalues(&dense).unwrap();
        let (lo, hi) = preconditioned_extremes(&p.a).unwrap();
        assert!(
            rel(lo, ev[0]) <= 1e-12 && rel(hi, ev[ev.len() - 1]) <= 1e-12,
            "{selector}: estimate [{lo}, {hi}] vs dense [{}, {}]",
            ev[0],
            ev[ev.len() - 1]
        );
    }
}

/// A `nan` entry used to panic inside the dense eigensolver's sort; the
/// estimate must now fail with an error both where a solve resolves
/// `omega=auto` and where `aj info` reads the Jacobi spectral radius.
#[test]
fn a_nan_entry_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("aj-nan-entry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nan.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real symmetric\n\
         3 3 5\n\
         1 1 4\n\
         2 2 4\n\
         3 3 4\n\
         2 1 -1\n\
         3 2 nan\n",
    )
    .unwrap();
    let p = load_problem(&format!("mtx:{}", path.display()), 2018);
    std::fs::remove_dir_all(&dir).unwrap();
    let p = p.unwrap();

    let opts = SolveOptions {
        method: parse_method("richardson2:omega=auto").unwrap(),
        ..Default::default()
    };
    let backend = Backend::SimShared {
        workers: 2,
        asynchronous: true,
    };
    assert!(solve(&p, backend, &opts).is_err());
    assert!(eigen::jacobi_spectral_radius_unit_diag(&p.a, 200.min(p.n())).is_err());
}
