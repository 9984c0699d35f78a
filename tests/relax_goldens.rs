//! Golden fingerprints for every engine path that applies the relaxation
//! update `x ← x + D̂ ω D⁻¹ r (+ β (x − x_prev))`:
//!
//! * both event simulators, asynchronous and synchronous, under each of
//!   the four methods (and, asynchronously, each of two storage formats);
//! * the legacy damping weight `omega` on every engine that reads it,
//!   including the row-wise traced engine and the distributed engine's
//!   Gauss–Seidel local solve;
//! * the online controller on both simulators, with decisions that take
//!   in Shrink, Widen and Switch;
//! * the model executors, the tracked executor and the period map.
//!
//! The table was captured before the engines shared one relaxation
//! routine. Every fingerprint must hold bit for bit: a refactor of the
//! update rule that changes any of them changed the arithmetic.

use aj_control::{ControlConfig, ControlSpec, ControlStats, Decision};
use async_jacobi_repro::dmsim::dist::{run_dist_async, run_dist_sync, DistConfig, LocalSolve};
use async_jacobi_repro::dmsim::monitor::SimOutcome;
use async_jacobi_repro::dmsim::shmem_sim::{
    run_shmem_async, run_shmem_async_rowwise, run_shmem_sync, ShmemSimConfig, SimDelay, StopRule,
};
use async_jacobi_repro::linalg::method::{ResolvedMethod, SafeInterval};
use async_jacobi_repro::linalg::vecops::Norm;
use async_jacobi_repro::linalg::{CsrMatrix, StorageFormat};
use async_jacobi_repro::matrices::{fd, rhs};
use async_jacobi_repro::model::cycles::period_spectral_radius;
use async_jacobi_repro::model::executor::ModelRun;
use async_jacobi_repro::model::gs_equiv::multicolor_masks;
use async_jacobi_repro::model::schedule::DelaySchedule;
use async_jacobi_repro::model::tracked::{run_tracked, TrackedOptions};
use async_jacobi_repro::model::{
    run_async_model, run_async_model_method, run_sync_model, run_sync_model_method,
};
use async_jacobi_repro::partition::block_partition;

/// FNV-1a over 64-bit words.
struct Hasher(u64);

impl Hasher {
    fn new() -> Self {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn floats(&mut self, vs: &[f64]) {
        for v in vs {
            self.word(v.to_bits());
        }
    }

    fn control(&mut self, stats: Option<&ControlStats>) {
        let Some(c) = stats else {
            return;
        };
        self.word(c.decisions.len() as u64);
        for (ordinal, d) in &c.decisions {
            self.word(*ordinal);
            let (kind, p, q) = match *d {
                Decision::Shrink { omega, beta } => (1, omega.to_bits(), beta.to_bits()),
                Decision::Widen { omega, beta } => (2, omega.to_bits(), beta.to_bits()),
                Decision::Switch { omega } => (3, omega.to_bits(), 0),
                Decision::Shed { worker } => (4, worker as u64, 0),
                Decision::Rescue => (5, 0, 0),
            };
            self.word(kind);
            self.word(p);
            self.word(q);
        }
        self.word(c.samples);
        self.word(c.final_omega.to_bits());
        self.word(c.final_beta.to_bits());
        self.word(c.switched as u64);
        self.word(c.rescue_requested as u64);
    }
}

/// `(sample count, hash)` of a simulator outcome: every residual sample's
/// bits, the final iterate's bits, the relaxation, iteration and
/// communication counters, and the controller's decisions and final ω/β.
fn sim_fingerprint(out: &SimOutcome) -> (usize, u64) {
    let mut h = Hasher::new();
    for s in &out.samples {
        h.floats(&[s.time, s.relaxations_per_n, s.residual]);
    }
    h.floats(&out.x);
    h.word(out.relaxations);
    for &it in &out.worker_iterations {
        h.word(it);
    }
    h.word(out.comm.puts);
    h.word(out.comm.values);
    h.control(out.control.as_ref());
    (out.samples.len(), h.0)
}

/// `(history length, hash)` of a model run.
fn model_fingerprint(run: &ModelRun) -> (usize, u64) {
    let mut h = Hasher::new();
    for &(t, r) in &run.residual_history {
        h.word(t);
        h.word(r.to_bits());
    }
    h.floats(&run.x);
    h.word(run.relaxations);
    h.word(run.steps);
    (run.residual_history.len(), h.0)
}

fn fd68() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let a = fd::paper_fd("fd68")
        .unwrap()
        .scale_to_unit_diagonal()
        .unwrap();
    let (b, x0) = rhs::paper_problem(a.nrows(), 2018);
    (a, b, x0)
}

fn lap144() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let a = fd::laplacian_2d(12, 12).scale_to_unit_diagonal().unwrap();
    let (b, x0) = rhs::paper_problem(a.nrows(), 99);
    (a, b, x0)
}

fn methods() -> [(&'static str, ResolvedMethod); 4] {
    [
        ("jacobi", ResolvedMethod::Jacobi),
        ("richardson1", ResolvedMethod::Richardson1 { omega: 0.9 }),
        (
            "richardson2",
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.3,
            },
        ),
        (
            "rwr",
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 7,
            },
        ),
    ]
}

const FORMATS: [(&str, StorageFormat); 2] = [
    ("csr", StorageFormat::Csr),
    ("sellc8", StorageFormat::SellC { c: 8 }),
];

type Table = Vec<(String, usize, u64)>;

fn push(got: &mut Table, name: String, fp: (usize, u64)) {
    got.push((name, fp.0, fp.1));
}

fn capture_methods_and_formats(got: &mut Table) {
    let (a, b, x0) = fd68();
    for (mname, m) in methods() {
        for (fname, f) in FORMATS {
            let mut cfg = ShmemSimConfig::new(8, a.nrows(), 11);
            cfg.tol = 1e-6;
            cfg.method = m;
            cfg.format = f;
            let out = run_shmem_async(&a, &b, &x0, &cfg);
            push(
                got,
                format!("shmem_async_{mname}_{fname}"),
                sim_fingerprint(&out),
            );
        }
    }
    for (mname, m) in methods() {
        let mut cfg = ShmemSimConfig::new(8, a.nrows(), 11);
        cfg.tol = 1e-6;
        cfg.method = m;
        let out = run_shmem_sync(&a, &b, &x0, &cfg);
        push(got, format!("shmem_sync_{mname}"), sim_fingerprint(&out));
    }

    let (a, b, x0) = lap144();
    let p = block_partition(a.nrows(), 8);
    for (mname, m) in methods() {
        for (fname, f) in FORMATS {
            let mut cfg = DistConfig::new(a.nrows(), 5);
            cfg.tol = 1e-5;
            cfg.method = m;
            cfg.format = f;
            let out = run_dist_async(&a, &b, &x0, &p, &cfg);
            push(
                got,
                format!("dist_async_{mname}_{fname}"),
                sim_fingerprint(&out),
            );
        }
    }
    for (mname, m) in methods() {
        let mut cfg = DistConfig::new(a.nrows(), 5);
        cfg.tol = 1e-5;
        cfg.method = m;
        let out = run_dist_sync(&a, &b, &x0, &p, &cfg);
        push(got, format!("dist_sync_{mname}"), sim_fingerprint(&out));
    }
}

fn capture_legacy_omega(got: &mut Table) {
    let (a, b, x0) = fd68();
    let shmem = |threads: usize, method: ResolvedMethod| {
        let mut cfg = ShmemSimConfig::new(threads, a.nrows(), 11);
        cfg.tol = 1e-6;
        cfg.omega = 0.7;
        cfg.method = method;
        cfg
    };
    let out = run_shmem_async(&a, &b, &x0, &shmem(8, ResolvedMethod::Jacobi));
    push(got, "shmem_async_omega07".into(), sim_fingerprint(&out));
    let mut cfg = shmem(8, ResolvedMethod::Jacobi);
    cfg.format = StorageFormat::SellC { c: 8 };
    let out = run_shmem_async(&a, &b, &x0, &cfg);
    push(
        got,
        "shmem_async_omega07_sellc8".into(),
        sim_fingerprint(&out),
    );
    let out = run_shmem_sync(&a, &b, &x0, &shmem(8, ResolvedMethod::Jacobi));
    push(got, "shmem_sync_omega07".into(), sim_fingerprint(&out));
    let out = run_shmem_async_rowwise(&a, &b, &x0, &shmem(17, ResolvedMethod::Jacobi));
    push(got, "shmem_rowwise_omega07".into(), sim_fingerprint(&out));
    // Methods that carry their own weight ignore the legacy one.
    let (_, r2) = methods()[2];
    let out = run_shmem_async(&a, &b, &x0, &shmem(8, r2));
    push(
        got,
        "shmem_async_richardson2_omega07".into(),
        sim_fingerprint(&out),
    );

    let (a, b, x0) = lap144();
    let p = block_partition(a.nrows(), 8);
    let dist = |method: ResolvedMethod| {
        let mut cfg = DistConfig::new(a.nrows(), 5);
        cfg.tol = 1e-5;
        cfg.omega = 0.7;
        cfg.method = method;
        cfg
    };
    let out = run_dist_async(&a, &b, &x0, &p, &dist(ResolvedMethod::Jacobi));
    push(got, "dist_async_omega07".into(), sim_fingerprint(&out));
    let out = run_dist_sync(&a, &b, &x0, &p, &dist(ResolvedMethod::Jacobi));
    push(got, "dist_sync_omega07".into(), sim_fingerprint(&out));
    let mut cfg = dist(ResolvedMethod::Jacobi);
    cfg.local_solve = LocalSolve::GaussSeidel;
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    push(
        got,
        "dist_gauss_seidel_omega07".into(),
        sim_fingerprint(&out),
    );
    let (_, rwr) = methods()[3];
    let out = run_dist_async(&a, &b, &x0, &p, &dist(rwr));
    push(got, "dist_async_rwr_omega07".into(), sim_fingerprint(&out));
}

/// The controller on both simulators with worker/rank 0 delayed hard
/// enough to pin the staleness regime High: the shrink ladder, the
/// widen/shrink oscillation at the floor and, for the momentum method, the
/// switch to first order.
fn controller_runs() -> Vec<(String, SimOutcome)> {
    let (a, b, x0) = fd68();
    let n = a.nrows();
    let interval = SafeInterval::estimate(&a).expect("safe interval");
    // The huge window keeps the stall ladder out, so the decisions are the
    // staleness regime's: shrink to the floor, then widen/shrink there.
    let regime_only = ControlConfig {
        window: 10_000,
        ..ControlConfig::default()
    };
    // A demanded decay rate the shrunk momentum run cannot keep up: the
    // stall ladder switches it to first order.
    let stall = ControlConfig {
        stall_decades: 0.02,
        ..ControlConfig::default()
    };
    let delay = SimDelay {
        worker: 0,
        extra_ticks: 2e4,
    };
    let runs: [(&str, ResolvedMethod, f64, ControlConfig); 3] = [
        ("jacobi", ResolvedMethod::Jacobi, 1.0, regime_only),
        ("jacobi_omega08", ResolvedMethod::Jacobi, 0.8, regime_only),
        (
            "richardson2",
            ResolvedMethod::Richardson2 {
                omega: 1.0,
                beta: 0.5,
            },
            1.0,
            stall,
        ),
    ];
    let mut outs = Vec::new();
    for (name, method, omega, cfg) in runs {
        let spec = ControlSpec { cfg, interval };
        let mut scfg = ShmemSimConfig::new(4, n, 11);
        scfg.delay = Some(delay);
        scfg.stop = StopRule::FixedIterations(40);
        scfg.tol = 1e-300;
        scfg.omega = omega;
        scfg.method = method;
        scfg.control = Some(spec);
        outs.push((
            format!("shmem_control_{name}"),
            run_shmem_async(&a, &b, &x0, &scfg),
        ));

        let p = block_partition(n, 4);
        let mut dcfg = DistConfig::new(n, 11);
        dcfg.delay = Some(delay);
        dcfg.stop = StopRule::FixedIterations(40);
        dcfg.tol = 1e-300;
        dcfg.omega = omega;
        dcfg.method = method;
        dcfg.control = Some(spec);
        outs.push((
            format!("dist_control_{name}"),
            run_dist_async(&a, &b, &x0, &p, &dcfg),
        ));
    }
    // The Gauss–Seidel local solve takes its weight from the controller
    // too.
    let mut dcfg = DistConfig::new(n, 11);
    dcfg.delay = Some(delay);
    dcfg.stop = StopRule::FixedIterations(40);
    dcfg.tol = 1e-300;
    dcfg.local_solve = LocalSolve::GaussSeidel;
    dcfg.control = Some(ControlSpec {
        cfg: regime_only,
        interval,
    });
    let p = block_partition(n, 4);
    outs.push((
        "dist_control_gauss_seidel".into(),
        run_dist_async(&a, &b, &x0, &p, &dcfg),
    ));
    outs
}

fn capture_model(got: &mut Table) {
    let (a, b, x0) = fd68();
    let schedule = DelaySchedule::single_slow_row(5, 7);
    for (mname, m) in methods() {
        let run =
            run_async_model_method(&a, &b, &x0, &schedule, &m, 1e-6, 20_000, Norm::L1).unwrap();
        push(got, format!("model_async_{mname}"), model_fingerprint(&run));
        let run =
            run_sync_model_method(&a, &b, &x0, &schedule, &m, 1e-6, 20_000, Norm::L1).unwrap();
        push(got, format!("model_sync_{mname}"), model_fingerprint(&run));
    }
    let run = run_async_model(&a, &b, &x0, &schedule, 1e-6, 20_000, Norm::L1).unwrap();
    push(got, "model_async_plain".into(), model_fingerprint(&run));
    let run = run_sync_model(&a, &b, &x0, &schedule, 1e-6, 20_000, Norm::L1).unwrap();
    push(got, "model_sync_plain".into(), model_fingerprint(&run));

    let opts = TrackedOptions {
        omega: 0.7,
        ..TrackedOptions::default()
    };
    let run = run_tracked(&a, &b, &x0, &schedule, &opts).unwrap();
    let mut h = Hasher::new();
    for &(t, r) in &run.residual_history {
        h.word(t);
        h.word(r.to_bits());
    }
    h.floats(&run.x);
    h.word(run.relaxations);
    push(
        got,
        "model_tracked_omega07".into(),
        (run.residual_history.len(), h.0),
    );

    let colors: Vec<usize> = (0..a.nrows()).map(|i| i % 3).collect();
    let rho = period_spectral_radius(&a, &multicolor_masks(&colors), 0.7).unwrap();
    push(
        got,
        "model_period_radius_omega07".into(),
        (1, rho.to_bits()),
    );
}

fn capture() -> Table {
    let mut got = Table::new();
    capture_methods_and_formats(&mut got);
    capture_legacy_omega(&mut got);
    for (name, out) in controller_runs() {
        push(&mut got, name, sim_fingerprint(&out));
    }
    capture_model(&mut got);
    got
}

/// Captured on the engines' per-method update code, before the shared
/// relaxation routine replaced it.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("shmem_async_jacobi_csr", 85, 0x18d4aaec861a7c28),
    ("shmem_async_jacobi_sellc8", 90, 0x41e0aba4d8dd48aa),
    ("shmem_async_richardson1_csr", 98, 0xe866b6a1d4c11db1),
    ("shmem_async_richardson1_sellc8", 103, 0x31cafcee4c7a032f),
    ("shmem_async_richardson2_csr", 49, 0xf6e5288a73628251),
    ("shmem_async_richardson2_sellc8", 51, 0x3bab4120e9b3fafd),
    ("shmem_async_rwr_csr", 73, 0x9588420573eb0e14),
    ("shmem_async_rwr_sellc8", 74, 0x86576192e22a8f11),
    ("shmem_sync_jacobi", 116, 0xd8ad053977d9b201),
    ("shmem_sync_richardson1", 119, 0x286f3333cbd6ddf1),
    ("shmem_sync_richardson2", 76, 0xba7089fbaa0d28ad),
    ("shmem_sync_rwr", 69, 0xf4dbb81fceca0f40),
    ("dist_async_jacobi_csr", 261, 0xd287d35b5a61202a),
    ("dist_async_jacobi_sellc8", 261, 0xa740675510725d11),
    ("dist_async_richardson1_csr", 293, 0x73f39582d167bb45),
    ("dist_async_richardson1_sellc8", 293, 0x18a7be27e15351da),
    ("dist_async_richardson2_csr", 191, 0x9d77bbd6a9efda65),
    ("dist_async_richardson2_sellc8", 191, 0xd55475e266eeb5e1),
    ("dist_async_rwr_csr", 196, 0x9f71eb42d4cae78e),
    ("dist_async_rwr_sellc8", 197, 0xf9bec469a747e4a0),
    ("dist_sync_jacobi", 315, 0x95caeafe73c87890),
    ("dist_sync_richardson1", 325, 0x0522b2cfa4d45bf5),
    ("dist_sync_richardson2", 223, 0x3eb60f5abc26163b),
    ("dist_sync_rwr", 197, 0xd887d26bf7b87be7),
    ("shmem_async_omega07", 135, 0x0d630d9a04dcc61a),
    ("shmem_async_omega07_sellc8", 142, 0x38b5a94ca0ee767c),
    ("shmem_sync_omega07", 154, 0xdc44bc34df1c059f),
    ("shmem_rowwise_omega07", 134, 0x77e6d5058211620c),
    ("shmem_async_richardson2_omega07", 49, 0xf6e5288a73628251),
    ("dist_async_omega07", 387, 0x4b9355aa41b2b09b),
    ("dist_sync_omega07", 419, 0xd93b4310367b0722),
    ("dist_gauss_seidel_omega07", 292, 0x1cdc8769d021edbc),
    ("dist_async_rwr_omega07", 196, 0x9f71eb42d4cae78e),
    ("shmem_control_jacobi", 5124, 0xa66917a76d3140d8),
    ("dist_control_jacobi", 1614, 0x7b30978b26d0a61d),
    ("shmem_control_jacobi_omega08", 5124, 0xb14fea10ee1b75d4),
    ("dist_control_jacobi_omega08", 1614, 0x6b4c36b030c3857d),
    ("shmem_control_richardson2", 37, 0xb707b0a567a79551),
    ("dist_control_richardson2", 25, 0xbaf1688b5115e450),
    ("dist_control_gauss_seidel", 1614, 0xc576fb424945c08e),
    ("model_async_jacobi", 120, 0x526adee7c1c67ba5),
    ("model_sync_jacobi", 116, 0x402e25d3885ccdf3),
    ("model_async_richardson1", 135, 0x3edb1357ac1cf9a0),
    ("model_sync_richardson1", 119, 0xe035dc77d00d3329),
    ("model_async_richardson2", 123, 0xa4b574d1043de05d),
    ("model_sync_richardson2", 76, 0x4d3d837021522b1e),
    ("model_async_rwr", 140, 0xd2fc69a45ef428b8),
    ("model_sync_rwr", 137, 0x0e59ec800e2ba4ce),
    ("model_async_plain", 120, 0x526adee7c1c67ba5),
    ("model_sync_plain", 116, 0x402e25d3885ccdf3),
    ("model_tracked_omega07", 180, 0xde1c116b708312ca),
    ("model_period_radius_omega07", 1, 0x3fec97206075c53a),
];

#[test]
fn relaxation_paths_match_their_golden_fingerprints() {
    let got = capture();
    let expected: Table = EXPECTED
        .iter()
        .map(|&(name, c, h)| (name.to_string(), c, h))
        .collect();
    if got != expected {
        let mut table = String::new();
        for (name, c, h) in &got {
            table.push_str(&format!("    (\"{name}\", {c}, 0x{h:016x}),\n"));
        }
        panic!(
            "relaxation fingerprints changed — the update rule drifted.\nActual table:\n{table}"
        );
    }
}

/// The controller runs must exercise every parameter-moving decision, or
/// their fingerprints pin less than they claim.
#[test]
fn controller_goldens_cover_shrink_widen_and_switch() {
    let mut kinds = Vec::new();
    for (_, out) in controller_runs() {
        let stats = out.control.expect("controller stats");
        for (_, d) in &stats.decisions {
            if !kinds.contains(&d.name()) {
                kinds.push(d.name());
            }
        }
    }
    for kind in ["shrink", "widen", "switch"] {
        assert!(kinds.contains(&kind), "no {kind} decision among {kinds:?}");
    }
}
