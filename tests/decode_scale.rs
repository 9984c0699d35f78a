//! Real-size lines decode in time linear in their length.
//!
//! Every line the workspace reads from a socket, a log or a snapshot goes
//! through `aj_obs::json::parse`. A string decoder that does per-character
//! work over the rest of the line is quadratic: rank 0's `net` job line for
//! `suite:thermomech_dm:small` on four ranks, about 1 MB, then takes
//! seconds to decode, longer than the solve it ships. Each decode here gets
//! a wall-time bound that is generous for a debug build on a busy host and
//! far below what a quadratic decoder takes.

use aj_core::net::wire::{self, JobMsg, MethodMsg, Msg};
use aj_serve::proto::{self, Request};
use aj_serve::JobSpec;
use async_jacobi_repro::linalg::ResolvedMethod;
use async_jacobi_repro::partition::LocalSystem;
use std::time::{Duration, Instant};

/// Wall-time bound on one decode of a line of about 1 MB.
const BOUND: Duration = Duration::from_secs(3);

/// Decodes `line` with `parse`, failing the test past [`BOUND`].
fn timed<T>(what: &str, line: &str, parse: impl FnOnce(&str) -> T) -> T {
    let start = Instant::now();
    let out = parse(line);
    let took = start.elapsed();
    assert!(
        took < BOUND,
        "{what}: decoding {} bytes took {took:?} (bound {BOUND:?})",
        line.len()
    );
    out
}

/// Rank 0's job message for the four-rank net solve of `problem`, built as
/// the net parent builds it: local rows, slices of `b` and `x0`, and the
/// send and receive maps in local indices.
fn rank0_job(selector: &str) -> JobMsg {
    let p = aj_core::spec::load_problem(selector, 2018).unwrap();
    let plan = aj_core::prepare_dist_plan(&p, 4);
    let sp = plan.plan(0);
    let ls = LocalSystem::build_all(&p.a, &plan).swap_remove(0);
    let local = |set: &[usize], g: usize| set.binary_search(&g).unwrap();
    JobMsg {
        n_owned: ls.n_owned(),
        n_ghost: ls.n_ghost(),
        indptr: ls.matrix.indptr().iter().map(|&v| v as u64).collect(),
        cols: ls.matrix.indices().iter().map(|&v| v as u64).collect(),
        vals: ls.matrix.values().to_vec(),
        b: sp.owned.iter().map(|&g| p.b[g]).collect(),
        x: sp
            .owned
            .iter()
            .chain(&sp.ghosts)
            .map(|&g| p.x0[g])
            .collect(),
        sends: sp
            .send_to
            .iter()
            .map(|(q, gs)| (*q, gs.iter().map(|&g| local(&sp.owned, g)).collect()))
            .collect(),
        recvs: sp
            .recv_from
            .iter()
            .map(|(q, gs)| (*q, gs.iter().map(|&g| local(&sp.ghosts, g)).collect()))
            .collect(),
        method: MethodMsg::encode(&ResolvedMethod::Jacobi),
        format: "csr".into(),
        sell_c: 0,
        max_iterations: 100_000,
        check_interval: 10,
        pace_us: 0,
        obs_stride: 0,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_net_job_line_at_full_size_decodes_bit_for_bit_in_linear_time() {
    let job = rank0_job("suite:thermomech_dm:small");
    let line = wire::render(&Msg::Job(Box::new(job.clone())));
    assert!(line.len() > 1_000_000, "{} bytes", line.len());

    let Msg::Job(back) = timed("net job line", &line, wire::parse).unwrap() else {
        panic!("wrong tag");
    };
    assert_eq!(bits(&back.vals), bits(&job.vals));
    assert_eq!(bits(&back.b), bits(&job.b));
    assert_eq!(bits(&back.x), bits(&job.x));
    assert_eq!(*back, job);
}

#[test]
fn a_solve_request_with_a_one_megabyte_string_decodes_in_linear_time() {
    // Runs of multi-byte chars between every kind of escape, and a
    // supplementary-plane char written as a surrogate pair.
    let unit = "key-é€\u{1F600}\"\\/\n\t\u{1}";
    let key = unit.repeat(1_000_000 / unit.len() + 1);
    let req = Request::Solve {
        id: 7,
        spec: JobSpec {
            matrix: "grid:8x8".into(),
            idempotency_key: Some(key),
            ..JobSpec::default()
        },
    };
    let line = proto::render_request(&req);
    assert!(line.len() > 1_000_000, "{} bytes", line.len());
    assert_eq!(
        timed("solve request", &line, proto::parse_request),
        Ok(req.clone())
    );

    let escaped = line.replace('\u{1F600}', "\\ud83d\\ude00");
    assert_eq!(
        timed("solve request, \\u-escaped", &escaped, proto::parse_request),
        Ok(req)
    );
}
