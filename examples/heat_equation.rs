//! A realistic downstream workload: implicit time stepping of the heat
//! equation, solving `(I + Δt·L) uⁿ⁺¹ = uⁿ` each step.
//!
//! This is the `parabolic_fem` class from the paper's Table I in its
//! natural habitat. Two properties make (a)synchronous Jacobi attractive
//! here: the operator is strongly diagonally dominant (Δt-shifted), so
//! Jacobi converges fast, and consecutive steps give excellent warm starts
//! — exactly the "many cheap solves, no synchronization" regime.
//!
//! ```sh
//! cargo run --release --example heat_equation
//! ```

use async_jacobi_repro::dmsim::shmem_sim::{run_shmem_async, ShmemSimConfig};
use async_jacobi_repro::linalg::sweeps;
use async_jacobi_repro::linalg::vecops::Norm;
use async_jacobi_repro::matrices::{fd, manufactured};

fn main() {
    // 31×31 interior grid; Δt chosen so the implicit operator is
    // (I + Δt·L) with a healthy diagonal shift.
    let (nx, ny) = (31usize, 31usize);
    let n = nx * ny;
    let dt = 0.5;
    let a = fd::parabolic_2d(nx, ny, 1.0 / dt); // L + (1/dt)·I, scaled below
                                                // Initial condition: the smooth Poisson mode.
    let coords = manufactured::grid_unit_coords(nx, ny);
    let mut u: Vec<f64> = coords
        .iter()
        .map(|&(x, y)| (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin())
        .collect();

    let steps = 10;
    println!("implicit heat equation, {nx}×{ny} grid, {steps} time steps, Δt = {dt}\n");
    println!(
        "{:>5} {:>14} {:>18} {:>18}",
        "step", "‖u‖∞", "Jacobi sweeps", "async relax/n"
    );
    let mut total_sweeps = 0usize;
    for step in 1..=steps {
        // Right-hand side: (1/dt)·uⁿ (the operator is L + (1/dt)I).
        let b: Vec<f64> = u.iter().map(|&v| v / dt).collect();

        // Reference: sequential Jacobi from the warm start.
        let (u_seq, hist) =
            sweeps::jacobi_solve(&a, &b, &u, 1e-10, 10_000, Norm::L2).expect("solves");
        total_sweeps += hist.len() - 1;

        // Asynchronous (simulated 16 workers), same warm start.
        let mut cfg = ShmemSimConfig::new(16, n, step as u64);
        cfg.tol = 1e-10;
        cfg.norm = Norm::L2;
        let asy = run_shmem_async(&a, &b, &u, &cfg);
        assert!(asy.converged, "async step {step} failed");
        let max_diff = u_seq
            .iter()
            .zip(&asy.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-8, "solvers disagree: {max_diff}");

        u = asy.x;
        let umax = u.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        println!(
            "{step:>5} {umax:>14.6e} {:>18} {:>18.1}",
            hist.len() - 1,
            asy.relaxations as f64 / n as f64
        );
    }
    println!(
        "\nWarm starts keep every solve cheap ({} total sweeps over {steps} steps);",
        total_sweeps
    );
    // The slowest discrete mode has eigenvalue λ₁ = 4 − 4·cos(π/(nx+1)) for
    // the unit-spacing stencil; implicit Euler damps it by 1/(1 + Δt·λ₁)
    // per step.
    let lam1 = 4.0 - 4.0 * (std::f64::consts::PI / (nx as f64 + 1.0)).cos();
    println!(
        "the slowest mode decays by 1/(1 + Δt·λ₁) = {:.6} per step, matching the table.",
        1.0 / (1.0 + dt * lam1)
    );

    // Bonus: the same Poisson operator solved with a multigrid V-cycle —
    // the smoother context where damped Jacobi actually lives. In
    // smoothing position `omega=auto` damps Jacobi by 4/(3·λ_max) = 2/3.
    let poisson = fd::laplacian_2d(nx, ny);
    let m = manufactured::smooth_on_coords(&poisson, &coords);
    let problem = aj_core::Problem {
        name: "poisson".into(),
        a: poisson,
        b: m.b.clone(),
        x0: vec![0.0; n],
    };
    let opts = aj_core::SolveOptions {
        tol: 1e-10,
        norm: Norm::L2,
        outer: Some(
            aj_core::spec::parse_outer("vcycle:smooth=richardson1:omega=auto").expect("selector"),
        ),
        ..Default::default()
    };
    let mg = aj_core::solve(&problem, aj_core::Backend::Jacobi, &opts).expect("mg solves");
    println!(
        "\nmultigrid (damped-Jacobi smoother): {} V-cycles to 1e-10, error {:.2e}",
        mg.history.len() - 1,
        m.relative_error(&mg.x, Norm::Inf)
    );
}
