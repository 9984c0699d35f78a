//! Hermetic (thread-mode) integration tests for the multi-process backend:
//! convergence to the true fixed point, obs shard merging, and
//! reconnect-and-resync after a dropped transport.

use aj_linalg::vecops::{self, Norm};
use aj_matrices::fd;
use aj_net::{run_net, ChildMode, NetConfig, NetHooks};
use aj_obs::ObsConfig;
use aj_partition::{block_partition, CommPlan};

fn solve_setup(n: usize, ranks: usize) -> (aj_linalg::CsrMatrix, Vec<f64>, Vec<f64>, CommPlan) {
    let a = fd::laplacian_1d(n);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let x0 = vec![0.0; n];
    let plan = CommPlan::build(&a, &block_partition(n, ranks));
    (a, b, x0, plan)
}

fn thread_cfg() -> NetConfig {
    NetConfig {
        mode: ChildMode::Thread,
        tol: 1e-8,
        pace_us: 20, // fast tests: light pacing still exercises staleness
        deadline: std::time::Duration::from_secs(60),
        ..NetConfig::default()
    }
}

#[test]
fn two_ranks_converge_to_the_fixed_point() {
    let (a, b, x0, plan) = solve_setup(64, 2);
    let mut cfg = thread_cfg();
    cfg.obs = ObsConfig::sampled(4);
    let out = run_net(&a, &b, &x0, &plan, &cfg).expect("net solve");

    let r = a.residual(&out.x, &b);
    let rel = vecops::norm(&r, Norm::L1) / vecops::norm(&b, Norm::L1);
    assert!(
        rel < 1e-7,
        "relative residual {rel:e} not converged (history: {:?})",
        out.history.last()
    );
    assert!(
        out.termination.detected_at.is_some(),
        "detection never fired"
    );
    assert!(out.termination.excluded_ranks.is_empty());
    assert!(out.iterations > 0);
    assert!(out.comm.puts > 0, "no puts routed");

    // Obs shards from both ranks merged under per-rank keys.
    let obs = out.obs.expect("obs snapshot");
    assert_eq!(obs.per_rank("staleness").len(), 2);
    assert!(obs.family_total("staleness").count() > 0);
    assert!(obs.family_total("sweep_period").count() > 0);
    assert!(obs.counters.get("relaxations").copied().unwrap_or(0) > 0);
    assert_eq!(obs.counters["ranks"], 2);
}

#[test]
fn four_ranks_all_methods_converge() {
    use aj_linalg::ResolvedMethod;
    for method in [
        ResolvedMethod::Jacobi,
        ResolvedMethod::Richardson1 { omega: 0.9 },
        ResolvedMethod::Richardson2 {
            omega: 0.9,
            beta: 0.2,
        },
        ResolvedMethod::RandomizedResidual {
            fraction: 0.75,
            seed: 7,
        },
    ] {
        let (a, b, x0, plan) = solve_setup(48, 4);
        let mut cfg = thread_cfg();
        cfg.tol = 1e-6;
        // Light pacing keeps put latency under the sweep period — the
        // regime the termination protocol's inconsistent-read safety
        // factor is calibrated for (see termination.rs module docs).
        cfg.pace_us = 20;
        cfg.method = method;
        let out =
            run_net(&a, &b, &x0, &plan, &cfg).unwrap_or_else(|e| panic!("{}: {e}", method.name()));
        let r = a.residual(&out.x, &b);
        let rel = vecops::norm(&r, Norm::L1) / vecops::norm(&b, Norm::L1);
        assert!(rel < 1e-5, "{}: residual {rel:e}", method.name());
    }
}

#[test]
fn dropped_socket_reconnects_and_still_converges() {
    let (a, b, x0, plan) = solve_setup(64, 2);
    let mut cfg = thread_cfg();
    cfg.tol = 1e-8;
    cfg.pace_us = 100; // long enough that the drop lands mid-solve
    cfg.hooks = NetHooks {
        kills: vec![],
        drops: vec![(1, 80)],
    };
    let out = run_net(&a, &b, &x0, &plan, &cfg).expect("net solve with drop");
    assert!(
        out.reconnects >= 1,
        "drop hook should force at least one reconnect (saw {})",
        out.reconnects
    );
    let r = a.residual(&out.x, &b);
    let rel = vecops::norm(&r, Norm::L1) / vecops::norm(&b, Norm::L1);
    assert!(rel < 1e-7, "post-reconnect residual {rel:e}");
}

#[test]
fn kill_hooks_rejected_in_thread_mode() {
    let (a, b, x0, plan) = solve_setup(32, 2);
    let mut cfg = thread_cfg();
    cfg.hooks.kills = vec![(1, 10)];
    let err = run_net(&a, &b, &x0, &plan, &cfg).unwrap_err();
    assert!(err.contains("kill hooks"), "unexpected error: {err}");
}
