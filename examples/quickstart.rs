//! Quickstart: solve a Poisson problem three ways and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! 1. synchronous Jacobi (the textbook baseline),
//! 2. the paper's §IV propagation-matrix model with a random active set per
//!    step (an "asynchronous" execution with exact information), and
//! 3. real `std::thread` asynchronous Jacobi with racy shared-memory reads.

use async_jacobi_repro::linalg::sweeps;
use async_jacobi_repro::linalg::vecops::Norm;
use async_jacobi_repro::model::{run_async_model, DelaySchedule};
use async_jacobi_repro::shmem::ShmemConfig;
use async_jacobi_repro::Problem;

fn main() {
    // A 2-D Laplace problem on a 40×40 interior grid, unit-diagonal scaled,
    // with the paper's random b and x0 in [-1, 1].
    let a = async_jacobi_repro::matrices::fd::laplacian_2d(40, 40);
    let p = Problem::from_matrix("poisson-40x40", a, 7).expect("SPD matrix scales");
    let tol = 1e-6;

    // 1. Synchronous Jacobi.
    let (x_sync, history) =
        sweeps::jacobi_solve(&p.a, &p.b, &p.x0, tol, 200_000, Norm::L1).expect("solver runs");
    println!(
        "synchronous Jacobi:   {:>6} iterations → rel. residual {:.2e}",
        history.len() - 1,
        p.relative_residual(&x_sync, Norm::L1)
    );

    // 2. The propagation-matrix model: each step relaxes a random 60% of
    // the rows. Convergence still holds (Theorem 1 machinery), with more
    // steps but fewer relaxations per step.
    let schedule = DelaySchedule::Random {
        density: 0.6,
        seed: 42,
    };
    let run = run_async_model(&p.a, &p.b, &p.x0, &schedule, tol, 1_000_000, Norm::L1)
        .expect("model runs");
    println!(
        "async model (60%):    {:>6} steps      → rel. residual {:.2e} ({} relaxations)",
        run.steps,
        run.final_residual(),
        run.relaxations
    );

    // 3. Real threads, racy reads, no barriers.
    let cfg = ShmemConfig {
        num_threads: 4,
        tol,
        max_iterations: 200_000,
        norm: Norm::L1,
        ..Default::default()
    };
    let run = async_jacobi_repro::shmem::solver::run(&p.a, &p.b, &p.x0, &cfg);
    println!(
        "async threads (4):    {:>6} iterations → rel. residual {:.2e} (wall {:?})",
        run.iterations.iter().max().unwrap(),
        run.final_residual,
        run.wall_time
    );
    assert!(
        run.converged,
        "asynchronous threads must converge on this SPD W.D.D. system"
    );
    println!("\nAll three converged to {tol:.0e}. See examples/delayed_worker.rs next.");
}
