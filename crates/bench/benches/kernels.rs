//! Criterion kernel benchmarks: the building-block costs behind every
//! figure. Sample sizes are kept small so `cargo bench --workspace`
//! completes quickly; these measure *our* kernels, not the paper's
//! hardware.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use aj_core::dmsim::shmem_sim::{run_shmem_async, ShmemSimConfig, StopRule};
use aj_core::dmsim::{run_dist_async, DistConfig};
use aj_core::linalg::{eigen, sweeps, IterationMatrix};
use aj_core::model::{mask::ActiveMask, propagation};
use aj_core::partition::{bfs_partition, block_partition, CommPlan};
use aj_core::Problem;

fn bench_spmv(c: &mut Criterion) {
    let p = Problem::paper_fd("fd4624", 1).unwrap();
    let x = p.x0.clone();
    let mut y = vec![0.0; p.n()];
    c.bench_function("spmv_fd4624", |b| {
        b.iter(|| p.a.spmv_into(black_box(&x), black_box(&mut y)));
    });
}

fn bench_relaxation(c: &mut Criterion) {
    let p = Problem::paper_fd("fd4624", 1).unwrap();
    let diag_inv = vec![1.0; p.n()];
    let mut g = c.benchmark_group("relaxation_sweep");
    g.bench_function("jacobi_iteration", |b| {
        let mut x_next = vec![0.0; p.n()];
        b.iter(|| sweeps::jacobi_iteration(&p.a, &p.b, &diag_inv, black_box(&p.x0), &mut x_next));
    });
    g.bench_function("gauss_seidel_sweep", |b| {
        b.iter_batched(
            || p.x0.clone(),
            |mut x| sweeps::gauss_seidel_sweep(&p.a, &p.b, &diag_inv, black_box(&mut x)),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_sweep_kernel(c: &mut Criterion) {
    // The storage-format abstraction behind every asynchronous block
    // engine: block residuals through csr / SELL-C-σ kernels, at a small whole-matrix block, a large whole-matrix block,
    // and the 256-rank subdomain shape the dist engine actually sweeps.
    use aj_core::linalg::{StorageFormat, SweepKernel};
    let formats = [StorageFormat::Csr, StorageFormat::SellC { c: 8 }];
    let mut g = c.benchmark_group("sweep_kernel");
    for (label, matrix) in [("fd272", "fd272"), ("fd4624", "fd4624")] {
        let p = Problem::paper_fd(matrix, 1).unwrap();
        let mut out = vec![0.0; p.n()];
        for format in formats {
            let k = SweepKernel::build(&p.a, 0..p.n(), format).unwrap();
            g.bench_function(&format!("{label}/{format}"), |b| {
                b.iter(|| {
                    k.residuals_into(black_box(&p.a), &p.x0, &p.b, &mut out);
                });
            });
        }
    }
    // 256-rank subdomain of the Table-I analogue: ~n/256 rows per kernel,
    // swept over the full-width x (owned + ghost columns).
    let p = Problem::suite("thermomech_dm", aj_core::matrices::suite::Scale::Tiny, 1).unwrap();
    let rows = aj_core::linalg::util::even_ranges(p.n(), 256)[128].clone();
    let mut out = vec![0.0; rows.len()];
    for format in formats {
        let k = SweepKernel::build(&p.a, rows.clone(), format).unwrap();
        g.bench_function(&format!("subdomain_256r/{format}"), |b| {
            b.iter(|| {
                k.residuals_into(black_box(&p.a), &p.x0, &p.b[rows.clone()], &mut out);
            });
        });
    }
    g.finish();
}

fn bench_model_step(c: &mut Criterion) {
    let p = Problem::paper_fd("fd4624", 1).unwrap();
    let diag_inv = vec![1.0; p.n()];
    let mask = ActiveMask::random(p.n(), 0.5, 7);
    c.bench_function("model_propagation_step", |b| {
        b.iter_batched(
            || p.x0.clone(),
            |mut x| propagation::apply_step(&p.a, &p.b, &diag_inv, black_box(&mask), &mut x),
            BatchSize::SmallInput,
        );
    });
}

fn bench_residual(c: &mut Criterion) {
    // The monitoring hot path: residual_into (no per-call Vec) and the
    // fused residual_norm (no residual vector at all).
    let p = Problem::paper_fd("fd4624", 1).unwrap();
    let mut g = c.benchmark_group("residual");
    g.bench_function("residual_alloc_fd4624", |b| {
        b.iter(|| p.a.residual(black_box(&p.x0), &p.b));
    });
    g.bench_function("residual_into_fd4624", |b| {
        let mut r = vec![0.0; p.n()];
        b.iter(|| p.a.residual_into(black_box(&p.x0), &p.b, &mut r));
    });
    g.bench_function("residual_norm_fused_fd4624", |b| {
        b.iter(|| {
            p.a.residual_norm(black_box(&p.x0), &p.b, aj_core::linalg::vecops::Norm::L1)
        });
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    use aj_core::dmsim::EventQueue;
    // Slot free-list under the simulator's steady-state pattern: each
    // popped event schedules a successor, so slots recycle 1-for-1.
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("steady_state_churn_256_pending", |b| {
        b.iter_batched(
            || {
                let mut q: EventQueue<u64> = EventQueue::new();
                for i in 0..256u64 {
                    q.push(i, i);
                }
                q
            },
            |mut q| {
                for i in 0..4096u64 {
                    let (tick, v) = q.pop().unwrap();
                    q.push(tick + 7 + (v & 3), i);
                }
                q
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("burst_push_pop_4096", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..4096u64 {
                q.push(black_box(i * 37 % 512), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        });
    });
    g.finish();
}

fn bench_event_engine(c: &mut Criterion) {
    let p = Problem::paper_fd("fd272", 1).unwrap();
    c.bench_function("shmem_sim_50_iterations_68_workers", |b| {
        b.iter(|| {
            let mut cfg = ShmemSimConfig::new(68, p.n(), 1);
            cfg.stop = StopRule::FixedIterations(50);
            cfg.tol = 0.0;
            run_shmem_async(black_box(&p.a), &p.b, &p.x0, &cfg)
        });
    });
    c.bench_function("dist_sim_20_iterations_32_ranks", |b| {
        let part = block_partition(p.n(), 32);
        b.iter(|| {
            let mut cfg = DistConfig::new(p.n(), 1);
            cfg.stop = StopRule::FixedIterations(20);
            cfg.tol = 0.0;
            run_dist_async(black_box(&p.a), &p.b, &p.x0, &part, &cfg)
        });
    });
}

fn bench_partitioning(c: &mut Criterion) {
    let p = Problem::paper_fd("fd4624", 1).unwrap();
    let mut g = c.benchmark_group("partitioning");
    g.bench_function("bfs_partition_64", |b| {
        b.iter(|| bfs_partition(black_box(&p.a), 64));
    });
    g.bench_function("comm_plan_64", |b| {
        let part = block_partition(p.n(), 64);
        b.iter(|| CommPlan::build(black_box(&p.a), &part));
    });
    g.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    // Trace capture + §IV-A reconstruction on the paper's Fig-2 setup.
    let p = Problem::paper_fd("fd272", 1).unwrap();
    let mut cfg = aj_core::dmsim::shmem_sim::ShmemSimConfig::new(68, p.n(), 1);
    cfg.stop = StopRule::FixedIterations(10);
    cfg.tol = 0.0;
    let (_, trace) = aj_core::dmsim::shmem_sim::run_shmem_async_traced(&p.a, &p.b, &p.x0, &cfg);
    c.bench_function("trace_reconstruct_fd272_68w_10it", |b| {
        b.iter(|| aj_core::trace::reconstruct(black_box(&trace)));
    });
}

fn bench_solvers(c: &mut Criterion) {
    let p = Problem::paper_fd("fd4624", 1).unwrap();
    let mut g = c.benchmark_group("solvers");
    g.sample_size(10);
    g.bench_function("multigrid_vcycle_31x31", |b| {
        // One aj-outer V-cycle over the sequential reference smoother,
        // damped Jacobi at ω = 2/3, with the hierarchy built once.
        let a = aj_core::matrices::fd::laplacian_2d(31, 31);
        let p = Problem {
            name: "grid-31x31".into(),
            b: (0..961).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect(),
            x0: vec![0.0; 961],
            a,
        };
        let opts = aj_core::SolveOptions {
            tol: 0.0,
            max_iterations: 1,
            outer: Some(
                aj_core::spec::parse_outer("vcycle:smooth=richardson1:omega=0.6666666666666666")
                    .unwrap(),
            ),
            outer_plan: Some(std::sync::Arc::new(
                aj_core::Hierarchy::build(&p.a, None).unwrap(),
            )),
            ..Default::default()
        };
        b.iter(|| aj_core::solve(black_box(&p), aj_core::Backend::Jacobi, &opts).unwrap());
    });
    g.bench_function("cg_fd4624_to_1e-6", |b| {
        b.iter(|| {
            aj_core::linalg::krylov::conjugate_gradient(
                black_box(&p.a),
                &p.b,
                &p.x0,
                1e-6,
                10_000,
                aj_core::linalg::vecops::Norm::L2,
            )
            .unwrap()
        });
    });
    g.finish();
}

fn bench_eigen(c: &mut Criterion) {
    let p = Problem::paper_fd("fd272", 1).unwrap();
    let mut g = c.benchmark_group("eigen");
    g.sample_size(10);
    g.bench_function("lanczos_extreme_fd272", |b| {
        b.iter(|| eigen::lanczos_extreme(black_box(&p.a), 80).unwrap());
    });
    g.bench_function("power_method_abs_g", |b| {
        let gabs = IterationMatrix::new(&p.a).abs_csr();
        b.iter(|| eigen::power_method(black_box(&gabs), 1e-8, 2_000).unwrap());
    });
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_spmv, bench_relaxation, bench_sweep_kernel, bench_model_step, bench_residual, bench_event_queue, bench_event_engine, bench_partitioning, bench_reconstruction, bench_solvers, bench_eigen
}
criterion_main!(kernels);
