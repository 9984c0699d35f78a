//! Regression guard for the put-routing staleness regime.
//!
//! The parent routes every one-sided put through a single coordinator fed
//! by a bounded event queue. Before the coordinator coalesced superseded
//! puts, a backed-up queue turned directly into ghost staleness (~75 sweep
//! periods observed on this exact problem): every rank converged locally
//! against frozen boundaries, all reported tiny norms at once, and the
//! termination protocol fired a FALSE global decision at ~1e-3 true
//! residual. This test runs the same tight-tolerance solve hermetically
//! (thread mode, no child binary) and pins both the outcome and the
//! regime: ghosts must be at most a handful of sweeps old.

use aj_net::{run_net, ChildMode, NetConfig};
use aj_partition::{block_partition, CommPlan};

#[test]
fn tight_tolerance_stays_in_the_modeled_staleness_regime() {
    let p = aj_core::spec::load_problem("fd68", 2018).unwrap();
    let plan = CommPlan::build(&p.a, &block_partition(p.n(), 4));
    let cfg = NetConfig {
        obs: aj_core::obs::ObsConfig::sampled(4),
        mode: ChildMode::Thread,
        tol: 1e-11,
        staleness_timeout: 30.0,
        deadline: std::time::Duration::from_secs(60),
        ..NetConfig::default()
    };
    let out = run_net(&p.a, &p.b, &p.x0, &plan, &cfg).expect("net solve");

    // A false decision leaves whole subdomains frozen at ~1e-3; a true one
    // lands at or below tol against the recomputed global residual.
    let r = p.relative_residual(&out.x, aj_core::linalg::vecops::Norm::L1);
    assert!(
        r < 1e-10,
        "false termination: recomputed rel residual {r:e}"
    );
    assert!(
        out.termination.detected_at.is_some(),
        "detection never fired"
    );
    assert!(
        out.termination.excluded_ranks.is_empty(),
        "no rank died, none may be excluded: {:?}",
        out.termination.excluded_ranks
    );

    // Regime pin: mean ghost age at use within a handful of sweep periods
    // (the broken router measured ~75). Generous bound — this guards the
    // regime, not the scheduler's mood on a loaded host.
    let snap = out.obs.as_ref().expect("obs snapshot");
    let stale = snap
        .family_total("staleness")
        .mean()
        .expect("staleness samples");
    let period = snap
        .family_total("sweep_period")
        .mean()
        .expect("sweep-period samples");
    let norm_stale = stale / period;
    assert!(
        norm_stale < 10.0,
        "ghosts are {norm_stale:.1} sweeps old on average — the router is \
         queueing puts instead of coalescing them"
    );
}
