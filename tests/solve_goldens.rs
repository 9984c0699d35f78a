//! Golden fingerprints for the solve paths that take their residuals in
//! the driver and in the outer loops rather than in an engine's monitor:
//!
//! * `aj_core::solve` on the sequential `sync` backend, for plain and
//!   damped Jacobi and the three other methods, in each norm;
//! * `aj_core::solve` on the four simulated backends, whose reported final
//!   residual comes from the engine;
//! * the V-cycle, FCG and FGMRES outer solves over each inner engine that
//!   runs deterministically, with the merged inner observability.
//!
//! Each fingerprint hashes the bits of the final iterate, the residual
//! history, the reported final residual and the verdict. The table was
//! captured before the synchronous loops took one residual per iterate;
//! every entry must hold bit for bit.

use aj_core::spec::{parse_backend, parse_method, parse_outer};
use aj_core::{solve, SolveOptions, SolveReport};
use aj_obs::ObsConfig;
use async_jacobi_repro::linalg::vecops::Norm;
use async_jacobi_repro::Problem;

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

    fn bytes(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// `(history length, hash)` of a report: the iterate, every history
/// point, the final residual and the verdict, plus the observability
/// snapshot when one was recorded.
fn fingerprint(rep: &SolveReport) -> (usize, u64) {
    let mut h = Hasher::new();
    h.floats(&rep.x);
    for &(t, r) in &rep.history {
        h.floats(&[t, r]);
    }
    h.word(rep.final_residual.to_bits());
    h.word(rep.converged as u64);
    if let Some(snap) = &rep.metrics {
        h.bytes(&snap.to_json());
    }
    (rep.history.len(), h.0)
}

const NORMS: [(&str, Norm); 3] = [("l1", Norm::L1), ("l2", Norm::L2), ("inf", Norm::Inf)];

type Table = Vec<(String, usize, u64)>;

fn run(
    p: &Problem,
    backend: &str,
    threads: usize,
    ranks: usize,
    opts: &SolveOptions,
) -> SolveReport {
    let backend = parse_backend(backend, threads, ranks, false).expect("backend selector");
    solve(p, backend, opts).expect("solve runs")
}

/// The sequential backend's three loops: plain Jacobi, Jacobi damped by
/// `omega`, and every other method.
fn capture_sequential(got: &mut Table) {
    let p = Problem::paper_fd("fd68", 2018).unwrap();
    let cases: [(&str, &str, f64); 5] = [
        ("jacobi", "jacobi", 1.0),
        ("jacobi_omega07", "jacobi", 0.7),
        ("richardson1_omega07", "richardson1:omega=0.7", 1.0),
        ("richardson2_auto", "richardson2:omega=auto", 1.0),
        ("rwr_half", "rwr:fraction=0.5", 1.0),
    ];
    for (name, method, omega) in cases {
        for (nname, norm) in NORMS {
            let opts = SolveOptions {
                norm,
                omega,
                method: parse_method(method).unwrap(),
                ..Default::default()
            };
            let fp = fingerprint(&run(&p, "sync", 1, 1, &opts));
            got.push((format!("sync_{name}_{nname}"), fp.0, fp.1));
        }
    }
}

/// The simulated backends standalone: the reported final residual is the
/// engine's last sample.
fn capture_simulated(got: &mut Table) {
    let p = Problem::paper_fd("fd68", 7).unwrap();
    for backend in ["sim-sync", "dist-sync", "sim-async", "dist-async"] {
        for method in [
            "jacobi",
            "richardson2:omega=0.9:beta=0.3",
            "rwr:fraction=0.5",
        ] {
            for (nname, norm) in NORMS {
                let opts = SolveOptions {
                    norm,
                    method: parse_method(method).unwrap(),
                    seed: 11,
                    ..Default::default()
                };
                let fp = fingerprint(&run(&p, backend, 4, 4, &opts));
                let mname = method.split(':').next().unwrap();
                got.push((format!("{backend}_{mname}_{nname}"), fp.0, fp.1));
            }
        }
    }
    // Recorded observability on the asynchronous simulators.
    for backend in ["sim-async", "dist-async"] {
        let opts = SolveOptions {
            obs: ObsConfig::sampled(4),
            seed: 11,
            ..Default::default()
        };
        let fp = fingerprint(&run(&p, backend, 4, 4, &opts));
        got.push((format!("{backend}_obs"), fp.0, fp.1));
    }
}

/// Each outer kind over each deterministic inner engine, with the merged
/// inner observability recorded.
fn capture_outer(got: &mut Table) {
    let p = async_jacobi_repro::matrices::fd::laplacian_2d(15, 15);
    let p = Problem::from_matrix("grid:15x15", p, 5).unwrap();
    let engines: [(&str, &str, usize); 5] = [
        ("sync", "sync", 1),
        ("sim_sync2", "sim-sync", 2),
        ("sim_async2", "sim-async", 2),
        ("dist_sync4", "dist-sync", 4),
        ("dist_async4", "dist-async", 4),
    ];
    for outer in ["vcycle", "fcg", "fgmres"] {
        for (ename, backend, count) in engines {
            let opts = SolveOptions {
                tol: 1e-8,
                norm: Norm::L2,
                outer: Some(parse_outer(outer).unwrap()),
                obs: ObsConfig::sampled(4),
                seed: 3,
                ..Default::default()
            };
            let fp = fingerprint(&run(&p, backend, count, count, &opts));
            got.push((format!("{outer}_{ename}"), fp.0, fp.1));
        }
    }
}

/// Runs stopped by the iteration cap before the tolerance, where the last
/// residual is the cap's and, for FGMRES stopped inside a restart cycle,
/// belongs to a candidate the solve did not accept.
fn capture_capped(got: &mut Table) {
    let p = Problem::paper_fd("fd68", 2018).unwrap();
    let cases: [(&str, &str, &str, f64); 4] = [
        ("sync_jacobi", "sync", "jacobi", 1.0),
        ("sync_jacobi_omega07", "sync", "jacobi", 0.7),
        ("sim-sync_rwr", "sim-sync", "rwr:fraction=0.5", 1.0),
        ("dist-async_jacobi", "dist-async", "jacobi", 1.0),
    ];
    for (name, backend, method, omega) in cases {
        let opts = SolveOptions {
            max_iterations: 5,
            omega,
            method: parse_method(method).unwrap(),
            ..Default::default()
        };
        let fp = fingerprint(&run(&p, backend, 4, 4, &opts));
        got.push((format!("capped_{name}"), fp.0, fp.1));
    }
    let p = async_jacobi_repro::matrices::fd::laplacian_2d(15, 15);
    let p = Problem::from_matrix("grid:15x15", p, 5).unwrap();
    for (outer, cap) in [("vcycle", 2), ("fcg", 3), ("fgmres", 7)] {
        for (ename, backend) in [("sync", "sync"), ("sim_async2", "sim-async")] {
            let opts = SolveOptions {
                tol: 1e-12,
                max_iterations: cap,
                outer: Some(parse_outer(outer).unwrap()),
                ..Default::default()
            };
            let fp = fingerprint(&run(&p, backend, 2, 2, &opts));
            got.push((format!("capped_{outer}_{ename}"), fp.0, fp.1));
        }
    }
}

fn capture() -> Table {
    let mut got = Table::new();
    capture_sequential(&mut got);
    capture_simulated(&mut got);
    capture_outer(&mut got);
    capture_capped(&mut got);
    got
}

/// Captured before the synchronous loops were fused.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("sync_jacobi_l1", 116, 0x86e91cad70751b81),
    ("sync_jacobi_l2", 117, 0x6432526746a39c03),
    ("sync_jacobi_inf", 119, 0xacb0882bf357f37c),
    ("sync_jacobi_omega07_l1", 154, 0xc1bb09fe166213e9),
    ("sync_jacobi_omega07_l2", 154, 0x6d1e5872af904a23),
    ("sync_jacobi_omega07_inf", 154, 0xc44694127a0e4ab6),
    ("sync_richardson1_omega07_l1", 154, 0xc1bb09fe166213e9),
    ("sync_richardson1_omega07_l2", 154, 0x6d1e5872af904a23),
    ("sync_richardson1_omega07_inf", 154, 0xc44694127a0e4ab6),
    ("sync_richardson2_auto_l1", 36, 0x480da65ce72e03d9),
    ("sync_richardson2_auto_l2", 36, 0x200fbeb3c42c0a8b),
    ("sync_richardson2_auto_inf", 37, 0x8770dbff117bf12e),
    ("sync_rwr_half_l1", 131, 0x7e4374cf767230f0),
    ("sync_rwr_half_l2", 132, 0x0b747a5fc0aac757),
    ("sync_rwr_half_inf", 136, 0xb5e7ba9440ae06e3),
    ("sim-sync_jacobi_l1", 116, 0xf4387a15afc13aa6),
    ("sim-sync_jacobi_l2", 116, 0xd0a4021d9fe631f7),
    ("sim-sync_jacobi_inf", 117, 0x52c188ed18178f82),
    ("sim-sync_richardson2_l1", 75, 0xb6f413ae111b1957),
    ("sim-sync_richardson2_l2", 74, 0x9e6da7534caaea91),
    ("sim-sync_richardson2_inf", 74, 0xcc6a3c1a19c8036e),
    ("sim-sync_rwr_l1", 68, 0x3b494fc31283e6cd),
    ("sim-sync_rwr_l2", 69, 0xb59cf294a850532a),
    ("sim-sync_rwr_inf", 70, 0x9f95cd092ecd5442),
    ("dist-sync_jacobi_l1", 116, 0x98abf0923fd86272),
    ("dist-sync_jacobi_l2", 116, 0x8dbaa6ede0d27747),
    ("dist-sync_jacobi_inf", 117, 0x284882a3293b8625),
    ("dist-sync_richardson2_l1", 75, 0xe89e7f98f914beee),
    ("dist-sync_richardson2_l2", 74, 0x0e1463904817c860),
    ("dist-sync_richardson2_inf", 74, 0x951f6b517ddc14b3),
    ("dist-sync_rwr_l1", 68, 0xac8f5d80404b9290),
    ("dist-sync_rwr_l2", 69, 0xb01a6e1f98fa92cf),
    ("dist-sync_rwr_inf", 70, 0x04c799ad35a67449),
    ("sim-async_jacobi_l1", 86, 0xfe40a44f9a47dd7c),
    ("sim-async_jacobi_l2", 87, 0x5fe199257bef0c9a),
    ("sim-async_jacobi_inf", 89, 0xec90dbadc6d9e99e),
    ("sim-async_richardson2_l1", 52, 0xee34bf7e1dfddee6),
    ("sim-async_richardson2_l2", 53, 0xf753acadc457e9c8),
    ("sim-async_richardson2_inf", 53, 0x4397a158bcecd820),
    ("sim-async_rwr_l1", 69, 0xe8af15efb617174d),
    ("sim-async_rwr_l2", 70, 0x24568634b768fa63),
    ("sim-async_rwr_inf", 74, 0x7f46eb678b2b7209),
    ("dist-async_jacobi_l1", 89, 0xbd8d0b73c5ed2602),
    ("dist-async_jacobi_l2", 89, 0x2fbd30f7daf59593),
    ("dist-async_jacobi_inf", 90, 0xb05d666fc763480b),
    ("dist-async_richardson2_l1", 55, 0x979249fe7a538ec5),
    ("dist-async_richardson2_l2", 55, 0x726162d411511820),
    ("dist-async_richardson2_inf", 56, 0xbffb520c97ee3f6b),
    ("dist-async_rwr_l1", 70, 0x96d2d485ebf4a8f8),
    ("dist-async_rwr_l2", 71, 0x1176c89af902b777),
    ("dist-async_rwr_inf", 73, 0x7c7375648f5c3b13),
    ("sim-async_obs", 86, 0x186425af00068360),
    ("dist-async_obs", 89, 0xbc82a347ec82a5c6),
    ("vcycle_sync", 11, 0x82c1c22c879afeff),
    ("vcycle_sim_sync2", 11, 0x81e90573eadb1265),
    ("vcycle_sim_async2", 11, 0x483b53dff1bcd60c),
    ("vcycle_dist_sync4", 11, 0x81e90573eadb1265),
    ("vcycle_dist_async4", 11, 0x3043bd48640eb121),
    ("fcg_sync", 19, 0x2a8f9d126f7d39d5),
    ("fcg_sim_sync2", 19, 0x249c6cc969cd3280),
    ("fcg_sim_async2", 33, 0xde844b3df48371d0),
    ("fcg_dist_sync4", 19, 0x249c6cc969cd3280),
    ("fcg_dist_async4", 26, 0xbe0f84b6306bc784),
    ("fgmres_sync", 19, 0x0029ca730ccef477),
    ("fgmres_sim_sync2", 19, 0x6a14afbf33b07e5a),
    ("fgmres_sim_async2", 24, 0xb53d772cb30c6b1e),
    ("fgmres_dist_sync4", 19, 0x6a14afbf33b07e5a),
    ("fgmres_dist_async4", 24, 0xa983dd93e61d3575),
    ("capped_sync_jacobi", 6, 0x218af5d46ad386e4),
    ("capped_sync_jacobi_omega07", 6, 0xd1c5182babc616cd),
    ("capped_sim-sync_rwr", 4, 0x3e383192dc0850ea),
    ("capped_dist-async_jacobi", 7, 0xac90cfa71871e4d4),
    ("capped_vcycle_sync", 3, 0x5d8e6cba84c9760a),
    ("capped_vcycle_sim_async2", 3, 0x1d11dc6e8bdaabbd),
    ("capped_fcg_sync", 4, 0x2c570876d86bb671),
    ("capped_fcg_sim_async2", 4, 0x5e1a91225db5beca),
    ("capped_fgmres_sync", 8, 0xcb9957b217539703),
    ("capped_fgmres_sim_async2", 8, 0x4dd110c7a3c13537),
];

#[test]
fn solve_paths_match_their_golden_fingerprints() {
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
        panic!("solve fingerprints changed.\nActual table:\n{table}");
    }
}

/// `--omega w` on `sync` used to relax once before its first stop test, so
/// an `x0` that already met the tolerance still took a step. Every
/// sequential loop now tests first, as `richardson1:omega=w` always did.
#[test]
fn damped_jacobi_stops_where_x0_already_meets_the_tolerance() {
    let p = Problem::from_matrix(
        "grid:8x8",
        async_jacobi_repro::matrices::fd::laplacian_2d(8, 8),
        2018,
    )
    .unwrap();
    let solve_with = |omega: f64, method: &str| {
        let opts = SolveOptions {
            tol: 1e9,
            omega,
            method: parse_method(method).unwrap(),
            ..Default::default()
        };
        run(&p, "sync", 1, 1, &opts)
    };
    let damped = solve_with(0.7, "jacobi");
    let richardson = solve_with(1.0, "richardson1:omega=0.7");
    assert_eq!(damped.history.len(), 1, "damped Jacobi relaxed past tol");
    assert_eq!(damped.x, p.x0);
    assert_eq!(damped.history, richardson.history);
    assert!(damped.converged);
}

/// The reported final residual is the recomputed relative residual of the
/// reported iterate on every deterministic path: where it comes from the
/// engine or the outer loop, and where ‖b‖ is zero or subnormal and those
/// conventions would disagree, so it is recomputed.
#[test]
fn reported_final_residual_is_the_recomputed_one() {
    let base = async_jacobi_repro::matrices::fd::laplacian_2d(9, 9);
    for scale in [1.0, 1e-310, 0.0] {
        let mut p = Problem::from_matrix("grid:9x9", base.clone(), 9).unwrap();
        for bi in &mut p.b {
            *bi *= scale;
        }
        for (nname, norm) in NORMS {
            let check = |what: &str, rep: &SolveReport| {
                assert_eq!(
                    rep.final_residual.to_bits(),
                    p.relative_residual(&rep.x, norm).to_bits(),
                    "{what} in {nname} with b scaled by {scale:e}"
                );
                assert_eq!(rep.converged, rep.final_residual < 1e-6, "{what}");
            };
            for backend in [
                "sync",
                "gs",
                "cg",
                "sim-sync",
                "dist-sync",
                "sim-async",
                "dist-async",
            ] {
                let opts = SolveOptions {
                    norm,
                    max_iterations: 40,
                    ..Default::default()
                };
                check(backend, &run(&p, backend, 2, 2, &opts));
            }
            for (outer, cap) in [("vcycle", 3), ("fcg", 5), ("fgmres", 7)] {
                for backend in ["sync", "sim-async", "dist-sync"] {
                    let opts = SolveOptions {
                        norm,
                        max_iterations: cap,
                        outer: Some(parse_outer(outer).unwrap()),
                        ..Default::default()
                    };
                    check(
                        &format!("{outer} on {backend}"),
                        &run(&p, backend, 2, 2, &opts),
                    );
                }
            }
        }
    }
}
