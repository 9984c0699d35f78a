//! Cross-crate integration: every backend must solve the same problem and
//! agree with the others.

use aj_obs::ObsConfig;
use async_jacobi_repro::dmsim::shmem_sim::{
    run_shmem_async, run_shmem_async_rowwise, run_shmem_sync, ShmemSimConfig,
};
use async_jacobi_repro::dmsim::{run_dist_async, run_dist_sync, DistConfig};
use async_jacobi_repro::linalg::method::{method_solve, ResolvedMethod};
use async_jacobi_repro::linalg::sweeps;
use async_jacobi_repro::linalg::vecops::{self, Norm};
use async_jacobi_repro::model::{
    run_async_model, run_async_model_method, run_sync_model, run_sync_model_method, DelaySchedule,
};
use async_jacobi_repro::partition::partitioners::grid_coordinates;
use async_jacobi_repro::partition::{bfs_partition, block_partition, coordinate_bisection};
use async_jacobi_repro::shmem::ShmemConfig;
use async_jacobi_repro::Problem;

const TOL: f64 = 1e-8;

fn problem() -> Problem {
    let a = async_jacobi_repro::matrices::fd::laplacian_2d(12, 12);
    Problem::from_matrix("fd-12x12", a, 11).unwrap()
}

#[test]
fn all_backends_reach_the_same_solution() {
    let p = problem();

    // Ground truth: sequential Jacobi to high accuracy.
    let (x_ref, _) = sweeps::jacobi_solve(&p.a, &p.b, &p.x0, 1e-12, 500_000, Norm::L2).unwrap();

    // Model (sync).
    let m = run_sync_model(
        &p.a,
        &p.b,
        &p.x0,
        &DelaySchedule::None,
        TOL,
        500_000,
        Norm::L2,
    )
    .unwrap();
    assert!(m.converged);
    assert!(vecops::rel_diff(&m.x, &x_ref) < 1e-6, "model vs reference");

    // Model (async, random masks).
    let s = DelaySchedule::Random {
        density: 0.5,
        seed: 3,
    };
    let ma = run_async_model(&p.a, &p.b, &p.x0, &s, TOL, 2_000_000, Norm::L2).unwrap();
    assert!(ma.converged);
    assert!(
        vecops::rel_diff(&ma.x, &x_ref) < 1e-6,
        "async model vs reference"
    );

    // Real threads (async racy).
    let cfg = ShmemConfig {
        num_threads: 3,
        tol: TOL,
        max_iterations: 500_000,
        norm: Norm::L2,
        ..Default::default()
    };
    let t = async_jacobi_repro::shmem::solver::run(&p.a, &p.b, &p.x0, &cfg);
    assert!(t.converged, "threads failed: {}", t.final_residual);
    assert!(
        vecops::rel_diff(&t.x, &x_ref) < 1e-5,
        "threads vs reference"
    );

    // Simulated shared memory (async).
    let mut scfg = ShmemSimConfig::new(9, p.n(), 5);
    scfg.tol = TOL;
    scfg.norm = Norm::L2;
    let sim = run_shmem_async(&p.a, &p.b, &p.x0, &scfg);
    assert!(sim.converged);
    assert!(
        vecops::rel_diff(&sim.x, &x_ref) < 1e-5,
        "shmem sim vs reference"
    );

    // Simulated distributed memory (async + sync).
    let part = block_partition(p.n(), 6);
    let mut dcfg = DistConfig::new(p.n(), 5);
    dcfg.tol = TOL;
    dcfg.norm = Norm::L2;
    let da = run_dist_async(&p.a, &p.b, &p.x0, &part, &dcfg);
    assert!(da.converged);
    assert!(
        vecops::rel_diff(&da.x, &x_ref) < 1e-5,
        "dist async vs reference"
    );
    let ds = run_dist_sync(&p.a, &p.b, &p.x0, &part, &dcfg);
    assert!(ds.converged);
    assert!(
        vecops::rel_diff(&ds.x, &x_ref) < 1e-5,
        "dist sync vs reference"
    );
}

fn conformance_methods() -> Vec<ResolvedMethod> {
    vec![
        ResolvedMethod::Richardson1 { omega: 0.9 },
        ResolvedMethod::Richardson2 {
            omega: 1.0,
            beta: 0.3,
        },
        ResolvedMethod::RandomizedResidual {
            fraction: 0.5,
            seed: 17,
        },
    ]
}

/// The real-thread configuration of
/// [`every_method_reaches_the_same_solution_on_every_engine`]. A notch
/// looser than TOL: the racy stop check reads residual contributions that
/// can be one update stale, which for rwr's partial sweeps can leave the
/// residual hovering a hair above a tight threshold.
fn threads_config(method: ResolvedMethod) -> ShmemConfig {
    ShmemConfig {
        num_threads: 3,
        tol: 1e-7,
        max_iterations: 500_000,
        norm: Norm::L2,
        method,
        ..Default::default()
    }
}

#[test]
fn every_method_reaches_the_same_solution_on_every_engine() {
    // Per method: the model executor, the shared-memory simulator, the
    // distributed simulator, and the real threads all converge to the one
    // fixed point of Ax = b (methods change the path, not the solution).
    let p = problem();
    let (x_ref, _) = sweeps::jacobi_solve(&p.a, &p.b, &p.x0, 1e-12, 500_000, Norm::L2).unwrap();

    for m in conformance_methods() {
        // Model executor under a random delay schedule.
        let s = DelaySchedule::Random {
            density: 0.5,
            seed: 3,
        };
        let mr = run_async_model_method(&p.a, &p.b, &p.x0, &s, &m, TOL, 2_000_000, Norm::L2)
            .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        assert!(mr.converged, "{} model", m.name());
        assert!(
            vecops::rel_diff(&mr.x, &x_ref) < 1e-5,
            "{} model vs reference",
            m.name()
        );

        // Simulated shared memory (async).
        let mut scfg = ShmemSimConfig::new(9, p.n(), 5);
        scfg.tol = TOL;
        scfg.norm = Norm::L2;
        scfg.method = m;
        let sim = run_shmem_async(&p.a, &p.b, &p.x0, &scfg);
        assert!(sim.converged, "{} shmem sim", m.name());
        assert!(
            vecops::rel_diff(&sim.x, &x_ref) < 1e-5,
            "{} shmem sim vs reference",
            m.name()
        );

        // Simulated distributed memory (async).
        let part = block_partition(p.n(), 6);
        let mut dcfg = DistConfig::new(p.n(), 5);
        dcfg.tol = TOL;
        dcfg.norm = Norm::L2;
        dcfg.method = m;
        let da = run_dist_async(&p.a, &p.b, &p.x0, &part, &dcfg);
        assert!(da.converged, "{} dist async", m.name());
        assert!(
            vecops::rel_diff(&da.x, &x_ref) < 1e-5,
            "{} dist async vs reference",
            m.name()
        );

        // Real threads (async racy).
        let t = async_jacobi_repro::shmem::solver::run(&p.a, &p.b, &p.x0, &threads_config(m));
        assert!(t.converged, "{} threads: {}", m.name(), t.final_residual);
        assert!(
            vecops::rel_diff(&t.x, &x_ref) < 1e-5,
            "{} threads vs reference",
            m.name()
        );
    }
}

/// Real threads stop on a racy "all flags up" only after the true residual
/// of the quiescent `x` confirms it, so a run that ends short of its
/// iteration cap has met the tolerance under any interleaving. Stale stops
/// show up only under some schedules, hence the repetitions.
#[test]
fn real_threads_stop_short_of_the_cap_only_below_tolerance() {
    let p = problem();
    for round in 0..10 {
        for m in conformance_methods() {
            let cfg = threads_config(m);
            let t = async_jacobi_repro::shmem::solver::run(&p.a, &p.b, &p.x0, &cfg);
            if t.iterations.iter().any(|&it| it < cfg.max_iterations) {
                assert!(
                    t.converged && t.final_residual < cfg.tol,
                    "{} round {round}: stopped at {} after {:?} sweeps",
                    m.name(),
                    t.final_residual,
                    t.iterations
                );
            }
        }
    }
}

/// Real threads raise their flags from the block residuals their sweeps
/// already take, so a run's whole-matrix residual passes are its stop
/// meetings (plus the final residual): at least one, and far fewer than its
/// thread sweeps.
#[test]
fn real_threads_take_whole_matrix_residuals_only_at_stop_meetings() {
    let p = problem();
    let threads = 4;
    let cfg = ShmemConfig {
        num_threads: threads,
        obs: ObsConfig::full(),
        ..threads_config(ResolvedMethod::Jacobi)
    };
    let t = async_jacobi_repro::shmem::solver::run(&p.a, &p.b, &p.x0, &cfg);
    assert!(t.converged, "stopped at {}", t.final_residual);
    let snap = t.obs.expect("obs on yields a snapshot");
    let meetings = *snap
        .counters
        .get("stop_meetings")
        .expect("the snapshot counts stop meetings");
    let sweeps = snap.counters["relaxations"] / (p.n() / threads) as u64;
    assert!(meetings >= 1, "a run stops only at a meeting");
    assert!(
        meetings * 10 <= sweeps,
        "{meetings} stop meetings over {sweeps} thread sweeps"
    );
}

/// A real-thread run with `tol = 0` and cap `k`, the inner run of an
/// outer solve, sweeps every thread exactly `k` times: a thread at its cap
/// stops sweeping and waits for the meeting, which stops without taking
/// the whole-matrix residual. Early finishers show only under some
/// schedules, hence the repetitions.
#[test]
fn real_threads_sweep_exactly_to_their_cap() {
    let a = async_jacobi_repro::matrices::fd::laplacian_2d(15, 15);
    let p = Problem::from_matrix("grid:15x15", a, 1).unwrap();
    let cfg = ShmemConfig {
        num_threads: 4,
        tol: 0.0,
        max_iterations: 2,
        obs: ObsConfig::full(),
        ..Default::default()
    };
    for round in 0..20 {
        let t = async_jacobi_repro::shmem::solver::run(&p.a, &p.b, &p.x0, &cfg);
        assert_eq!(t.iterations, [2, 2, 2, 2], "round {round}");
        let snap = t.obs.expect("obs on yields a snapshot");
        assert_eq!(
            snap.counters["relaxations"],
            2 * p.n() as u64,
            "round {round}"
        );
        assert_eq!(snap.counters["stop_meetings"], 0, "round {round}");
    }
}

#[test]
fn synchronous_engines_match_the_dense_reference_bit_for_bit_per_method() {
    // Synchronous mode is one global method iteration per step on every
    // engine, so the iterates are not just close — they are identical.
    let p = problem();
    for m in conformance_methods() {
        let reference = method_solve(&p.a, &p.b, &p.x0, &m, 1e-6, 100_000, Norm::L1).unwrap();
        assert!(reference.converged, "{} reference", m.name());

        let mr = run_sync_model_method(
            &p.a,
            &p.b,
            &p.x0,
            &DelaySchedule::None,
            &m,
            1e-6,
            100_000,
            Norm::L1,
        )
        .unwrap();
        assert_eq!(mr.x, reference.x, "{} model sync", m.name());

        // Per-relaxation sampling aligns the simulators' stop checks with
        // the reference's per-iteration check (rwr sweeps touch fewer than
        // n rows, which would desync the default cadence).
        let mut scfg = ShmemSimConfig::new(4, p.n(), 5);
        scfg.tol = 1e-6;
        scfg.sample_every = 1;
        scfg.method = m;
        let sim = run_shmem_sync(&p.a, &p.b, &p.x0, &scfg);
        assert_eq!(sim.x, reference.x, "{} shmem sim sync", m.name());

        let mut dcfg = DistConfig::new(p.n(), 5);
        dcfg.tol = 1e-6;
        dcfg.sample_every = 1;
        dcfg.method = m;
        let ds = run_dist_sync(&p.a, &p.b, &p.x0, &block_partition(p.n(), 6), &dcfg);
        assert_eq!(ds.x, reference.x, "{} dist sync", m.name());
        assert_eq!(
            ds.relaxations,
            reference.relaxations,
            "{} dist sync relaxations",
            m.name()
        );
    }
}

#[test]
fn sync_model_and_sync_dist_sim_are_both_plain_jacobi() {
    // Both must take exactly the same number of iterations as sequential
    // Jacobi with the same tolerance/norm.
    let p = problem();
    let (_, hist) = sweeps::jacobi_solve(&p.a, &p.b, &p.x0, 1e-6, 100_000, Norm::L1).unwrap();
    let seq_iters = hist.len() - 1;

    let m = run_sync_model(
        &p.a,
        &p.b,
        &p.x0,
        &DelaySchedule::None,
        1e-6,
        100_000,
        Norm::L1,
    )
    .unwrap();
    assert_eq!(m.steps as usize, seq_iters, "model");

    let part = block_partition(p.n(), 4);
    let mut dcfg = DistConfig::new(p.n(), 1);
    dcfg.tol = 1e-6;
    let ds = run_dist_sync(&p.a, &p.b, &p.x0, &part, &dcfg);
    assert_eq!(ds.worker_iterations[0] as usize, seq_iters, "dist sync");
}

#[test]
fn partitioning_choice_does_not_change_sync_solution() {
    let p = problem();
    let mut dcfg = DistConfig::new(p.n(), 1);
    dcfg.tol = 1e-9;
    dcfg.norm = Norm::L2;
    let p4 = run_dist_sync(&p.a, &p.b, &p.x0, &block_partition(p.n(), 4), &dcfg);
    let p12 = run_dist_sync(&p.a, &p.b, &p.x0, &block_partition(p.n(), 12), &dcfg);
    // Sync distributed Jacobi is exactly global Jacobi regardless of the
    // partitioning, so the iterates agree to machine precision.
    assert!(vecops::rel_diff(&p4.x, &p12.x) < 1e-12);
}

#[test]
fn dist_async_runs_on_partitions_that_are_not_contiguous() {
    // BFS and bisection parts own scattered rows, so their ghosts in owner
    // order are not ascending: the puts must still land where each rank's
    // local matrix reads them.
    let p = problem();
    let mut cfg = DistConfig::new(p.n(), 5);
    cfg.tol = TOL;
    for (name, partition) in [
        ("bfs", bfs_partition(&p.a, 9)),
        (
            "coordinate bisection",
            coordinate_bisection(&grid_coordinates(12, 12), 9),
        ),
    ] {
        let out = run_dist_async(&p.a, &p.b, &p.x0, &partition, &cfg);
        let res = p.a.relative_residual(&out.x, &p.b, cfg.norm);
        assert!(out.converged && res < TOL, "{name}: residual {res}");
        let again = run_dist_async(&p.a, &p.b, &p.x0, &partition, &cfg);
        assert_eq!(bits(&again.x), bits(&out.x), "{name} must replay bitwise");
        assert_eq!(again.time, out.time, "{name}");
        assert_eq!(again.relaxations, out.relaxations, "{name}");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn model_gs_masks_match_linalg_gauss_seidel_solver() {
    // Cross-crate §IV-B check at solver level: driving the model executor
    // with single-row masks in ascending order must converge in the same
    // sweeps as the aj-linalg Gauss-Seidel solver.
    let p = problem();
    let n = p.n();
    let masks = async_jacobi_repro::model::gs_equiv::gauss_seidel_masks(n);
    let schedule = DelaySchedule::Explicit(masks);
    let m = run_async_model(&p.a, &p.b, &p.x0, &schedule, 1e-8, 2_000_000, Norm::L2).unwrap();
    assert!(m.converged);
    let (_, hist) = sweeps::gauss_seidel_solve(&p.a, &p.b, &p.x0, 1e-8, 100_000, Norm::L2).unwrap();
    let gs_sweeps = hist.len() - 1;
    let model_sweeps = (m.steps as usize).div_ceil(n);
    // The model checks convergence after every single-row step rather than
    // at sweep boundaries, so it can stop up to one sweep earlier.
    assert!(
        (model_sweeps as i64 - gs_sweeps as i64).abs() <= 1,
        "model sweeps {model_sweeps} vs GS sweeps {gs_sweeps}"
    );
}

#[test]
fn async_engines_stop_at_the_time_horizon() {
    // Horizons a few sweeps in, with a tolerance no run meets: every
    // asynchronous engine must stop at its last event inside the horizon,
    // not stamp its outcome and final sample with the first one past it,
    // and every lock-step engine at its last iteration that ends inside it.
    let a = async_jacobi_repro::matrices::fd::laplacian_2d(16, 16);
    let p = Problem::from_matrix("fd-16x16", a, 2018).unwrap();
    let n = p.n();
    let mut shmem = ShmemSimConfig::new(4, n, 2018);
    shmem.tol = 0.0;
    shmem.max_time = 500.0;
    let mut dist = DistConfig::new(n, 2018);
    dist.tol = 0.0;
    dist.max_time = 5_000.0;
    let part = block_partition(n, 4);
    let (a, b, x0) = (&p.a, &p.b, &p.x0);
    for (engine, out, horizon) in [
        ("block", run_shmem_async(a, b, x0, &shmem), 500.0),
        ("row-wise", run_shmem_async_rowwise(a, b, x0, &shmem), 500.0),
        ("dist", run_dist_async(a, b, x0, &part, &dist), 5_000.0),
        ("sim-sync", run_shmem_sync(a, b, x0, &shmem), 500.0),
        ("dist-sync", run_dist_sync(a, b, x0, &part, &dist), 5_000.0),
    ] {
        let last = out.samples.last().expect("a final sample").time;
        assert!(out.relaxations > 0, "{engine}: no sweep inside the horizon");
        assert!(
            out.time <= horizon && last <= horizon,
            "{engine}: stopped at {} with its last sample at {last}, past the horizon {horizon}",
            out.time
        );
    }
}
