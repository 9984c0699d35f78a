//! Every selector combination either solves or is rejected, and the
//! backend capability table ([`Backend::capabilities`]) plus the
//! cross-option rules are the oracle for which.
//!
//! The matrix is backend × method × format × outer × control × one extra
//! option on `grid:9x9`, the smallest grid on which vcycle, fcg and fgmres
//! all run. Every combination goes through the spec parsers and
//! [`aj_core::solve`]. A combination must be rejected exactly when the
//! oracle says so. An accepted one must show each option in its report
//! and must never call a NaN or an above-tolerance residual converged.
//! `net` combinations are only checked for their rejections, which happen
//! before any process is spawned.

use aj_core::dmsim::fault::FaultPlan;
use aj_core::linalg::kernel::auto_select;
use aj_core::linalg::method::Method;
use aj_core::linalg::vecops::Norm;
use aj_core::linalg::StorageFormat;
use aj_core::{spec, Backend, SolveOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};

const TOL: f64 = 1e-6;

const BACKENDS: [&str; 9] = [
    "sync",
    "gs",
    "cg",
    "async-threads",
    "sim-async",
    "sim-sync",
    "dist-async",
    "dist-sync",
    "net",
];
const METHODS: [&str; 4] = [
    "jacobi",
    "richardson1:omega=0.8",
    "richardson2:omega=auto",
    "rwr:fraction=0.5",
];
const FORMATS: [&str; 3] = ["csr", "sellc:c=8", "auto"];
const OUTERS: [Option<&str>; 3] = [None, Some("vcycle"), Some("fcg:inner=8")];
const CONTROLS: [&str; 2] = ["off", "on"];

/// The one option added on top of the selectors.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    None,
    Crash,
    Pace,
    Detect,
    Staleness,
    Omega,
}
const EXTRAS: [Extra; 6] = [
    Extra::None,
    Extra::Crash,
    Extra::Pace,
    Extra::Detect,
    Extra::Staleness,
    Extra::Omega,
];

/// The backend `name` asks for, with termination detection when `detect`
/// (only the distributed simulator carries the request in its value).
fn requested(name: &str, detect: bool) -> Backend {
    match spec::parse_backend(name, 2, 4, false).expect("every listed backend parses") {
        Backend::SimDistributed {
            ranks,
            asynchronous,
            ..
        } => Backend::SimDistributed {
            ranks,
            asynchronous,
            detect,
        },
        b => b,
    }
}

/// The oracle: whether the combination must be rejected.
fn must_reject(backend: Backend, opts: &SolveOptions, detect: bool) -> bool {
    let caps = backend.capabilities();
    let faulted = opts.faults.is_some();
    let relaxation = opts.outer.as_ref().map_or(opts.method, |o| o.smooth);
    let explicit_format = !matches!(opts.format, StorageFormat::Csr | StorageFormat::Auto);
    let outer = opts.outer.is_some();
    (!caps.methods && (opts.method != Method::Jacobi || opts.omega != 1.0))
        || (opts.omega != 1.0 && relaxation != Method::Jacobi)
        || (explicit_format && !caps.formats)
        || (faulted && !caps.faults)
        || (opts.pace_us.is_some() && !caps.pacing)
        || ((detect || opts.staleness_timeout.is_some()) && !caps.detection)
        || (opts.control.is_some() && (!caps.control || outer))
        || (outer && (!caps.inner || opts.method != Method::Jacobi || faulted))
}

#[test]
fn every_combination_solves_or_is_rejected_as_the_table_says() {
    let p = spec::load_problem("grid:9x9", 2018).unwrap();
    let (mut solved, mut rejected) = (0, 0);
    for name in BACKENDS {
        for method in METHODS {
            for format in FORMATS {
                for outer in OUTERS {
                    for control in CONTROLS {
                        for extra in EXTRAS {
                            let label = format!(
                                "{name} {method} {format} {outer:?} control={control} {extra:?}"
                            );
                            let opts = SolveOptions {
                                tol: TOL,
                                max_iterations: 20_000,
                                omega: if extra == Extra::Omega { 0.8 } else { 1.0 },
                                method: spec::parse_method(method).unwrap(),
                                format: spec::parse_format(format).unwrap(),
                                faults: (extra == Extra::Crash)
                                    .then(|| FaultPlan::new(7).with_crash(1, 2_000.0, None)),
                                staleness_timeout: (extra == Extra::Staleness).then_some(1e9),
                                pace_us: (extra == Extra::Pace).then_some(100),
                                outer: outer.map(|o| spec::parse_outer(o).unwrap()),
                                control: spec::parse_control(control).unwrap(),
                                ..Default::default()
                            };
                            let detect = extra == Extra::Detect;
                            let backend = requested(name, detect);
                            let reject = must_reject(backend, &opts, detect);
                            let parsed = spec::parse_backend(name, 2, 4, detect);
                            let Ok(parsed) = parsed else {
                                assert!(reject, "{label}: parse rejected {parsed:?}");
                                rejected += 1;
                                continue;
                            };
                            assert_eq!(parsed, backend, "{label}");
                            if name == "net" && !reject {
                                continue;
                            }
                            let run = catch_unwind(AssertUnwindSafe(|| {
                                aj_core::solve(&p, backend, &opts)
                            }));
                            let result = run.unwrap_or_else(|_| panic!("{label}: panicked"));
                            match result {
                                Err(e) => {
                                    assert!(reject, "{label}: rejected, table accepts: {e}");
                                    rejected += 1;
                                }
                                Ok(rep) => {
                                    assert!(!reject, "{label}: solved, table rejects");
                                    check_report(&p, backend, &opts, &rep, &label);
                                    solved += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // A tripwire on the table itself: 202 of the 3,456 non-net
    // combinations solve (130 with no extra option, 24 each with a crash,
    // with detect and with ω = 0.8), and 369 of the 432 net ones are
    // rejected. A changed count means a changed capability or rule.
    assert_eq!((solved, rejected), (202, 3_254 + 369));
}

/// An accepted combination shows every option it set where the report has
/// room for it, and never reports a false convergence.
fn check_report(
    p: &aj_core::Problem,
    backend: Backend,
    opts: &SolveOptions,
    rep: &aj_core::SolveReport,
    label: &str,
) {
    let caps = backend.capabilities();
    let rescued = rep.backend.contains("→ rescue");
    if opts.outer.is_none() {
        let format = match opts.format {
            StorageFormat::Auto if caps.formats => auto_select(&p.a),
            StorageFormat::Auto => StorageFormat::Csr,
            f => f,
        };
        let tagged = rep.backend.contains(&format!("[{format}]"));
        assert_eq!(
            tagged,
            format != StorageFormat::Csr,
            "{label}: {}",
            rep.backend
        );
        assert_eq!(rep.termination.is_some(), caps.detection, "{label}");
    }
    assert_eq!(
        rep.outer.is_some(),
        opts.outer.is_some() || rescued,
        "{label}"
    );
    assert_eq!(rep.control.is_some(), opts.control.is_some(), "{label}");
    assert_eq!(rep.faults.is_some(), opts.faults.is_some(), "{label}");
    assert!(
        !(rep.converged && rep.final_residual.is_nan()),
        "{label}: NaN residual reported as converged"
    );
    if rep.converged {
        let residual = p.relative_residual(&rep.x, Norm::L1);
        assert!(residual < TOL, "{label}: converged at {residual:e}");
    }
}

/// `omega` weights a plain Jacobi smoother the way the engines fold it
/// into a standalone run: an outer solve with `smooth=jacobi` and ω runs
/// exactly the `richardson1:omega=ω` smoother, on the sequential
/// reference and on an engine alike.
#[test]
fn omega_weights_a_jacobi_smoother_on_every_inner_engine() {
    let p = spec::load_problem("grid:15x15", 2018).unwrap();
    let run = |backend: Backend, outer: &str, omega: f64| {
        let opts = SolveOptions {
            tol: 1e-8,
            omega,
            outer: Some(spec::parse_outer(outer).unwrap()),
            ..Default::default()
        };
        aj_core::solve(&p, backend, &opts).unwrap()
    };
    let sim = Backend::SimShared {
        workers: 2,
        asynchronous: true,
    };
    for backend in [Backend::Jacobi, sim] {
        let weighted = run(backend, "vcycle:smooth=jacobi", 0.5);
        let explicit = run(backend, "vcycle:smooth=richardson1:omega=0.5", 1.0);
        let plain = run(backend, "vcycle:smooth=jacobi", 1.0);
        assert_eq!(weighted.x, explicit.x, "{backend:?}");
        assert_eq!(weighted.history, explicit.history, "{backend:?}");
        assert_ne!(weighted.history.len(), plain.history.len(), "{backend:?}");
    }
}

/// A worker or rank count outside `1..=n` is a rejection from `solve`
/// itself, not a panic inside the engine.
#[test]
fn out_of_range_worker_and_rank_counts_are_rejected() {
    let p = spec::load_problem("fd40", 2018).unwrap();
    let shared = |workers| Backend::SimShared {
        workers,
        asynchronous: true,
    };
    let dist = |ranks| Backend::SimDistributed {
        ranks,
        asynchronous: true,
        detect: false,
    };
    let threads = Backend::AsyncThreads { workers: 0 };
    for backend in [shared(0), shared(41), dist(0), dist(41), threads] {
        let run = catch_unwind(AssertUnwindSafe(|| {
            aj_core::solve(&p, backend, &SolveOptions::default())
        }));
        let result = run.unwrap_or_else(|_| panic!("{backend:?}: panicked"));
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{backend:?}: solved"));
        assert!(err.contains("must be in 1..=40"), "{backend:?}: {err}");
    }
}

/// An out-of-range `omega` is rejected with the message the method
/// grammar gives the same weight.
#[test]
fn out_of_range_omega_is_rejected_like_a_method_weight() {
    let p = spec::load_problem("grid:8x8", 2018).unwrap();
    let sim = Backend::SimShared {
        workers: 4,
        asynchronous: true,
    };
    for omega in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let opts = SolveOptions {
            omega,
            max_iterations: 100,
            ..Default::default()
        };
        let err = aj_core::solve(&p, sim, &opts)
            .err()
            .unwrap_or_else(|| panic!("omega={omega}: solved"));
        assert_eq!(
            err,
            format!("omega must be finite and positive, got {omega}")
        );
        let grammar = spec::parse_method(&format!("richardson1:omega={omega}")).unwrap_err();
        assert!(grammar.contains(&err), "{grammar}");
    }
}
