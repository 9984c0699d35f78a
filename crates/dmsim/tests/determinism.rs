//! Determinism regression tests for the event engines.
//!
//! For a fixed seed the engines must produce *byte-identical* residual
//! samples and iterates run over run; the golden fingerprints below pin
//! that behaviour bit for bit, including under injected faults (crashes,
//! stalls, lossy links), whose RNG is drawn in event-processing order.
//!
//! The table has been recaptured twice for deliberate semantic changes:
//! once for the allocation-free event engine (which left every fingerprint
//! unchanged, as required), and once for the monitor/termination bugfixes
//! (`ResidualMonitor::observe` snapping checkpoints to the sample grid —
//! shifts `shmem_*` sample counts — and `RootAggregator` counting
//! confirmations per complete round instead of per report — shifts
//! `dist_termination`). The fault-free `dist_*` entries survived both
//! recaptures untouched, pinning that the fault-injection layer is inert
//! when no plan is configured.
//!
//! Consecutive duplicate samples are collapsed before hashing so the
//! fingerprints are invariant to the `finalize` duplicate-sample fix (the
//! dropped sample is an exact copy of its predecessor — no information is
//! lost or altered).

use aj_dmsim::dist::{run_dist_async, run_dist_sync, DistConfig, DistVariant, LocalSolve};
use aj_dmsim::fault::{FaultPlan, LinkFault};
use aj_dmsim::monitor::SimOutcome;
use aj_dmsim::shmem_sim::{
    run_shmem_async, run_shmem_async_rowwise, run_shmem_sync, ShmemSimConfig,
};
use aj_dmsim::termination::TerminationProtocol;
use aj_linalg::method::ResolvedMethod;
use aj_linalg::CsrMatrix;
use aj_matrices::{fd, rhs};
use aj_partition::block_partition;

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// `(sample count, FNV-1a hash)` over every sample's exact bit pattern,
/// the final iterate's bits, and the relaxation/iteration counters.
fn fingerprint(out: &SimOutcome) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0usize;
    let mut prev: Option<(u64, u64, u64)> = None;
    for s in &out.samples {
        let bits = (
            s.time.to_bits(),
            s.relaxations_per_n.to_bits(),
            s.residual.to_bits(),
        );
        if prev == Some(bits) {
            continue; // collapse exact consecutive duplicates (see above)
        }
        prev = Some(bits);
        count += 1;
        fnv(&mut h, bits.0);
        fnv(&mut h, bits.1);
        fnv(&mut h, bits.2);
    }
    for v in &out.x {
        fnv(&mut h, v.to_bits());
    }
    fnv(&mut h, out.relaxations);
    for &it in &out.worker_iterations {
        fnv(&mut h, it);
    }
    for c in [
        out.comm.puts,
        out.comm.values,
        out.comm.drops,
        out.comm.duplicates,
        out.comm.reorders,
    ] {
        fnv(&mut h, c);
    }
    if let Some(fs) = &out.faults {
        for (rank, t) in fs.crash_times.iter().chain(&fs.recovery_times) {
            fnv(&mut h, *rank as u64);
            fnv(&mut h, t.to_bits());
        }
        fnv(&mut h, fs.stalled_sweeps);
        fnv(&mut h, fs.skipped_sweeps);
        fnv(&mut h, fs.dead_window_drops);
        for &alive in &fs.alive {
            fnv(&mut h, alive as u64);
        }
    }
    (count, h)
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

/// Runs every engine configuration the optimization touches and returns
/// labelled fingerprints.
fn capture() -> Vec<(&'static str, usize, u64)> {
    let mut got = Vec::new();

    let (a, b, x0) = fd68();
    let cfg = ShmemSimConfig::new(8, a.nrows(), 11);
    let out = run_shmem_async(&a, &b, &x0, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("shmem_async_jacobi", c, h));

    let cfg = ShmemSimConfig::new(17, a.nrows(), 13);
    let out = run_shmem_async_rowwise(&a, &b, &x0, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("shmem_rowwise", c, h));

    let cfg = ShmemSimConfig::new(8, a.nrows(), 11);
    let out = run_shmem_sync(&a, &b, &x0, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("shmem_sync", c, h));

    let (a, b, x0) = lap144();
    let p = block_partition(a.nrows(), 8);

    let cfg = DistConfig::new(a.nrows(), 1);
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_jacobi", c, h));

    let mut cfg = DistConfig::new(a.nrows(), 3);
    cfg.tol = 1e-4;
    cfg.local_solve = LocalSolve::GaussSeidel;
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_gauss_seidel", c, h));

    let mut cfg = DistConfig::new(a.nrows(), 9);
    cfg.cost.put_latency = 3_000.0;
    cfg.variant = DistVariant::Eager;
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_eager", c, h));

    let mut cfg = DistConfig::new(a.nrows(), 3);
    cfg.tol = 1e-4;
    cfg.termination = Some(TerminationProtocol::default());
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_termination", c, h));

    let cfg = DistConfig::new(a.nrows(), 2);
    let out = run_dist_sync(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_sync", c, h));

    // Faulted config 1: lossy links everywhere + a recovering crash + a
    // transient stall, omniscient stopping.
    let mut cfg = DistConfig::new(a.nrows(), 1);
    cfg.faults = Some(
        FaultPlan::new(7)
            .with_link(LinkFault {
                drop: 0.05,
                duplicate: 0.10,
                reorder: 0.10,
                latency_factor: 1.5,
                ..LinkFault::everywhere()
            })
            .with_crash(2, 10_000.0, Some(8_000.0))
            .with_stall(5, 8_000.0, 6_000.0),
    );
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_faulted_links", c, h));

    // Faulted config 2: the acceptance scenario — a permanent crash at
    // ~25% of the run plus 10% put drop on every link, detection via the
    // staleness-timeout path.
    let mut cfg = DistConfig::new(a.nrows(), 3);
    cfg.tol = 1e-4;
    cfg.termination = Some(TerminationProtocol::with_staleness_timeout(10_000.0));
    cfg.faults = Some(
        FaultPlan::new(42)
            .with_link(LinkFault {
                drop: 0.10,
                ..LinkFault::everywhere()
            })
            .with_crash(6, 20_000.0, None),
    );
    let out = run_dist_async(&a, &b, &x0, &p, &cfg);
    let (c, h) = fingerprint(&out);
    got.push(("dist_faulted_crash_term", c, h));

    got
}

/// Golden fingerprints (see the module docs for the recapture history).
/// The hash covers samples, the final iterate, iteration counters, comm
/// volume (incl. drop/duplicate/reorder counts) and fault statistics.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("shmem_async_jacobi", 35, 0x63fc193b7ae5f5c4),
    ("shmem_rowwise", 35, 0xbafbb0eca8550990),
    ("shmem_sync", 53, 0xa6875b437274aaea),
    ("dist_jacobi", 120, 0x1aa5546d32f484c4),
    ("dist_gauss_seidel", 121, 0x308501059bec2a83),
    ("dist_eager", 465, 0xfb1e6b761e9c7502),
    ("dist_termination", 206, 0x07ad2ecef7f5d75e),
    ("dist_sync", 159, 0x757377446b1887eb),
    ("dist_faulted_links", 141, 0x8500288c0f0308ce),
    ("dist_faulted_crash_term", 164, 0x9331d486d656e4a4),
];

/// The three non-Jacobi methods, each through the distributed engine twice:
/// once fault-free and once under the `dist_faulted_links` fault plan
/// (lossy links + recovering crash + transient stall). Labelled like the
/// main table.
fn capture_methods() -> Vec<(&'static str, usize, u64)> {
    let (a, b, x0) = lap144();
    let p = block_partition(a.nrows(), 8);
    let methods: [(&'static str, &'static str, ResolvedMethod); 3] = [
        (
            "dist_richardson1",
            "dist_richardson1_faulted",
            ResolvedMethod::Richardson1 { omega: 0.9 },
        ),
        (
            "dist_richardson2",
            "dist_richardson2_faulted",
            ResolvedMethod::Richardson2 {
                omega: 1.0,
                beta: 0.3,
            },
        ),
        (
            "dist_rwr",
            "dist_rwr_faulted",
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 7,
            },
        ),
    ];
    let mut got = Vec::new();
    for (clean_name, faulted_name, m) in methods {
        let mut cfg = DistConfig::new(a.nrows(), 5);
        cfg.method = m;
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        let (c, h) = fingerprint(&out);
        got.push((clean_name, c, h));

        let mut cfg = DistConfig::new(a.nrows(), 5);
        cfg.method = m;
        cfg.faults = Some(
            FaultPlan::new(7)
                .with_link(LinkFault {
                    drop: 0.05,
                    duplicate: 0.10,
                    reorder: 0.10,
                    latency_factor: 1.5,
                    ..LinkFault::everywhere()
                })
                .with_crash(2, 10_000.0, Some(8_000.0))
                .with_stall(5, 8_000.0, 6_000.0),
        );
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        let (c, h) = fingerprint(&out);
        got.push((faulted_name, c, h));
    }
    got
}

/// Golden fingerprints for the relaxation methods: one fault-free and one
/// faulted run each, captured when the method abstraction landed. The
/// `seeded-schedules` corpus under `results/` mirrors this table (see
/// [`method_schedule_corpus_matches_results_file`]).
const EXPECTED_METHODS: &[(&str, usize, u64)] = &[
    ("dist_richardson1", 137, 0x5c9b2a5559f4b659),
    ("dist_richardson1_faulted", 154, 0xe2abab0b99d58787),
    ("dist_richardson2", 80, 0xcd72ed7a81197ae8),
    ("dist_richardson2_faulted", 98, 0x11ac5ad84d72c45f),
    ("dist_rwr", 90, 0x39ae0e5c3e091963),
    ("dist_rwr_faulted", 98, 0xb144dbed4e0b6d5e),
];

#[test]
fn method_runs_match_golden_fingerprints() {
    let got = capture_methods();
    let expected: Vec<(&str, usize, u64)> = EXPECTED_METHODS.to_vec();
    if got != expected {
        let mut table = String::new();
        for (name, c, h) in &got {
            table.push_str(&format!("    (\"{name}\", {c}, 0x{h:016x}),\n"));
        }
        panic!("method fingerprints changed — semantics drifted.\nActual table:\n{table}");
    }
}

/// The seeded-schedule regression corpus: `results/method_schedules.csv`
/// holds one row per method run (same runs as [`capture_methods`]), and a
/// fresh capture must regenerate it byte for byte. The file is the
/// repo-level record; this test is what keeps it honest.
///
/// This file also compiles into the root package (`tests/dmsim_goldens.rs`),
/// so the corpus is found by walking up from whichever manifest built it.
#[test]
fn method_schedule_corpus_matches_results_file() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("results/method_schedules.csv"))
        .find(|p| p.is_file())
        .expect("results/method_schedules.csv must exist above the manifest directory");
    let recorded = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus {} must be readable: {e}", path.display()));
    let mut fresh = String::from("run,samples,fingerprint\n");
    for (name, c, h) in capture_methods() {
        fresh.push_str(&format!("{name},{c},0x{h:016x}\n"));
    }
    assert_eq!(
        recorded, fresh,
        "results/method_schedules.csv is stale — regenerate it from this test's capture"
    );
}

#[test]
fn engines_match_pre_optimization_fingerprints() {
    let got = capture();
    let expected: Vec<(&str, usize, u64)> = EXPECTED.to_vec();
    if got != expected {
        let mut table = String::new();
        for (name, c, h) in &got {
            table.push_str(&format!("    (\"{name}\", {c}, 0x{h:016x}),\n"));
        }
        panic!("fingerprints changed — semantics drifted.\nActual table:\n{table}");
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let first = capture();
    let second = capture();
    assert_eq!(first, second, "same seed must give identical outcomes");
}

/// The faulted-links scenario with observability enabled: recording must
/// not perturb the simulation (the outcome fingerprint stays pinned to the
/// obs-off golden above), and the snapshot itself must serialize to
/// byte-identical JSON run over run.
#[test]
fn obs_snapshot_is_deterministic_and_observer_free() {
    let (a, b, x0) = lap144();
    let p = block_partition(a.nrows(), 8);
    let run = |obs: aj_dmsim::ObsConfig| {
        let mut cfg = DistConfig::new(a.nrows(), 1);
        cfg.obs = obs;
        cfg.faults = Some(
            FaultPlan::new(7)
                .with_link(LinkFault {
                    drop: 0.05,
                    duplicate: 0.10,
                    reorder: 0.10,
                    latency_factor: 1.5,
                    ..LinkFault::everywhere()
                })
                .with_crash(2, 10_000.0, Some(8_000.0))
                .with_stall(5, 8_000.0, 6_000.0),
        );
        run_dist_async(&a, &b, &x0, &p, &cfg)
    };

    // Observer-freedom: the outcome with recording on matches the obs-off
    // golden fingerprint (`dist_faulted_links` in EXPECTED) exactly.
    let observed = run(aj_dmsim::ObsConfig::sampled(4));
    assert_eq!(
        fingerprint(&observed),
        (141, 0x8500288c0f0308ce),
        "enabling obs changed the simulation outcome"
    );

    // Snapshot determinism: same seed ⇒ byte-identical JSON.
    let json = observed
        .obs
        .as_ref()
        .expect("obs on must yield a snapshot")
        .to_json();
    let again = run(aj_dmsim::ObsConfig::sampled(4));
    assert_eq!(
        json,
        again.obs.as_ref().unwrap().to_json(),
        "snapshot JSON must be bit-identical across same-seed runs"
    );

    // And the JSON is losslessly parseable (what `aj obs summary` and the
    // CI smoke step rely on).
    let back = aj_obs::Snapshot::from_json(&json).expect("snapshot JSON must parse");
    assert_eq!(back.to_json(), json);
    assert!(back.counters["crashes"] >= 1);
    assert!(back.family_total("staleness").count() > 0);

    // Obs-off runs carry no snapshot at all.
    let off = run(aj_dmsim::ObsConfig::off());
    assert!(off.obs.is_none());
}
