//! End-to-end tests for the solve service: in-process submission paths,
//! shed semantics, panic isolation, and the full TCP round trip.

use aj_serve::proto::{self, Request, Response};
use aj_serve::{
    JobOutcome, JobSpec, Server, ServiceConfig, ShedReason, SolveService, PANIC_SELECTOR,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn small(matrix: &str, backend: &str) -> JobSpec {
    JobSpec {
        matrix: matrix.into(),
        backend: backend.into(),
        threads: 2,
        ranks: 4,
        tol: 1e-5,
        ..Default::default()
    }
}

fn quiet_config(workers: usize, queue_cap: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_cap,
        cache_cap: 4,
        ..Default::default()
    }
}

#[test]
fn solves_across_backends_and_reports_cache_hits() {
    let service = SolveService::start(quiet_config(2, 16));
    // Same problem through three backends: one assembly, two cache hits.
    let specs = [
        small("fd68", "sync"),
        small("fd68", "sim-async"),
        small("fd68", "dist-async"),
    ];
    let handles: Vec<_> = specs
        .iter()
        .map(|s| service.submit(s.clone()).expect("admitted"))
        .collect();
    let mut hits = 0;
    for h in &handles {
        match h.wait() {
            JobOutcome::Done(r) => {
                assert!(r.converged, "{} did not converge", r.backend);
                hits += r.cache_hit as usize;
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    assert_eq!(service.cache().misses.get(), 1);
    assert_eq!(hits, 2);
    service.shutdown(true);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counters["jobs_completed"], 3);
    assert_eq!(snap.counters["jobs_submitted"], 3);
    assert_eq!(snap.histograms["serve/total_us"].count(), 3);
}

#[test]
fn dist_plan_reuse_matches_fresh_solve_exactly() {
    // Serving through the plan cache must not change results: compare the
    // cached-path residual against a direct aj_core::solve.
    let service = SolveService::start(quiet_config(1, 8));
    let spec = small("fd68", "dist-async");
    let warm = service.submit(spec.clone()).unwrap().wait();
    let cached = service.submit(spec.clone()).unwrap().wait();
    let (JobOutcome::Done(a), JobOutcome::Done(b)) = (&warm, &cached) else {
        panic!("expected two Done outcomes, got {warm:?} / {cached:?}");
    };
    assert!(!a.cache_hit && b.cache_hit);
    let p = aj_core::spec::load_problem("fd68", spec.seed).unwrap();
    let direct = aj_core::solve(
        &p,
        aj_core::Backend::SimDistributed {
            ranks: 4,
            asynchronous: true,
            detect: false,
        },
        &aj_core::SolveOptions {
            tol: 1e-5,
            seed: spec.seed,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(a.final_residual, direct.final_residual);
    assert_eq!(b.final_residual, direct.final_residual);
}

#[test]
fn method_selector_flows_through_and_memoizes_resolution() {
    let service = SolveService::start(quiet_config(2, 16));
    let spec = JobSpec {
        method: "richardson2:omega=auto".into(),
        ..small("fd68", "sim-async")
    };
    let first = service.submit(spec.clone()).unwrap().wait();
    let second = service
        .submit(JobSpec {
            backend: "dist-async".into(),
            ..spec.clone()
        })
        .unwrap()
        .wait();
    for out in [&first, &second] {
        let JobOutcome::Done(r) = out else {
            panic!("expected Done, got {out:?}");
        };
        assert!(r.converged, "{} did not converge", r.backend);
        assert!(
            r.backend.contains("richardson2"),
            "label '{}' must name the method",
            r.backend
        );
    }
    // Both solves share one memoized omega=auto resolution: the Lanczos
    // spectrum estimate ran once for the cached problem.
    let (entry, hit) = service.cache().get_or_build("fd68", spec.seed).unwrap();
    assert!(hit);
    assert_eq!(entry.resolved_method_count(), 1);
    // A bad selector fails the job with the grammar in the message.
    let bad = service
        .submit(JobSpec {
            method: "warp-drive".into(),
            ..small("fd68", "sync")
        })
        .unwrap()
        .wait();
    let JobOutcome::Failed(msg) = bad else {
        panic!("bad method selector must fail the job, got {bad:?}");
    };
    assert!(
        msg.contains("warp-drive") && msg.contains("jacobi"),
        "unhelpful message: {msg}"
    );
    service.shutdown(true);
}

#[test]
fn outer_selector_flows_through_and_memoizes_hierarchy() {
    let service = SolveService::start(quiet_config(2, 16));
    let spec = JobSpec {
        outer: "vcycle:smooth=richardson1:omega=auto".into(),
        ..small("grid:15x15", "sim-async")
    };
    let first = service.submit(spec.clone()).unwrap().wait();
    let second = service
        .submit(JobSpec {
            backend: "dist-async".into(),
            ..spec.clone()
        })
        .unwrap()
        .wait();
    for out in [&first, &second] {
        let JobOutcome::Done(r) = out else {
            panic!("expected Done, got {out:?}");
        };
        assert!(r.converged, "{} did not converge", r.backend);
        assert!(
            r.backend.starts_with("outer=vcycle"),
            "label '{}' must name the outer solver",
            r.backend
        );
    }
    // Both solves share one memoized selector resolution: the multigrid
    // coarsening ran once for the cached problem.
    let (entry, hit) = service
        .cache()
        .get_or_build("grid:15x15", spec.seed)
        .unwrap();
    assert!(hit);
    assert_eq!(entry.resolved_outer_count(), 1);
    // A bad selector fails the job with the grammar in the message.
    let bad = service
        .submit(JobSpec {
            outer: "wcycle".into(),
            ..small("fd68", "sync")
        })
        .unwrap()
        .wait();
    let JobOutcome::Failed(msg) = bad else {
        panic!("bad outer selector must fail the job, got {bad:?}");
    };
    assert!(
        msg.contains("wcycle") && msg.contains("vcycle"),
        "unhelpful message: {msg}"
    );
    service.shutdown(true);
}

#[test]
fn bad_format_selector_fails_the_job_with_the_grammar() {
    let service = SolveService::start(quiet_config(1, 8));
    let bad = service
        .submit(JobSpec {
            format: "ellpack".into(),
            ..small("fd68", "sim-async")
        })
        .unwrap()
        .wait();
    let JobOutcome::Failed(msg) = bad else {
        panic!("bad format selector must fail the job, got {bad:?}");
    };
    assert!(
        msg.contains("ellpack") && msg.contains(aj_core::spec::FORMAT_GRAMMAR),
        "unhelpful message: {msg}"
    );
    service.shutdown(true);
}

#[test]
fn queue_full_sheds_at_the_door() {
    // One worker, tiny queue, slow jobs: submissions past capacity must be
    // rejected synchronously with QueueFull.
    let service = SolveService::start(quiet_config(1, 1));
    let slow = JobSpec {
        max_iterations: 200_000,
        tol: 1e-14,
        ..small("grid:48x48", "sync")
    };
    let mut handles = Vec::new();
    let mut shed = 0;
    for _ in 0..16 {
        match service.submit(slow.clone()) {
            Ok(h) => handles.push(h),
            Err(reason) => {
                assert_eq!(reason, ShedReason::QueueFull);
                shed += 1;
            }
        }
    }
    assert!(shed > 0, "16 slow submits into a 1-slot queue never shed");
    service.shutdown(true);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counters["jobs_shed_queue_full"], shed);
    assert_eq!(
        snap.counters["jobs_completed"] + snap.counters["jobs_shed_queue_full"],
        16
    );
}

#[test]
fn expired_deadline_sheds_at_pickup() {
    let service = SolveService::start(quiet_config(1, 8));
    // Occupy the only worker so the deadlined job waits past its deadline.
    let blocker = service
        .submit(JobSpec {
            max_iterations: 500_000,
            tol: 1e-14,
            ..small("grid:40x40", "sync")
        })
        .unwrap();
    let doomed = service
        .submit(JobSpec {
            deadline: Some(Duration::from_millis(1)),
            ..small("fd40", "sync")
        })
        .unwrap();
    assert_eq!(doomed.wait(), JobOutcome::Shed(ShedReason::DeadlineExpired));
    let _ = blocker.wait();
    service.shutdown(true);
    assert_eq!(service.metrics().shed_deadline.get(), 1);
}

#[test]
fn cancel_sheds_a_queued_job() {
    let service = SolveService::start(quiet_config(1, 8));
    let blocker = service
        .submit(JobSpec {
            max_iterations: 500_000,
            tol: 1e-14,
            ..small("grid:40x40", "sync")
        })
        .unwrap();
    let victim = service.submit(small("fd40", "sync")).unwrap();
    victim.cancel();
    assert_eq!(victim.wait(), JobOutcome::Shed(ShedReason::Cancelled));
    let _ = blocker.wait();
    service.shutdown(true);
}

#[test]
fn panicking_solver_fails_one_job_and_the_pool_survives() {
    let service = SolveService::start(quiet_config(2, 8));
    let boom = service.submit(small(PANIC_SELECTOR, "sync")).unwrap();
    let JobOutcome::Failed(msg) = boom.wait() else {
        panic!("injected panic did not fail the job");
    };
    assert!(msg.contains("panicked"), "unhelpful message: {msg}");
    // The pool keeps serving afterwards.
    let after = service.submit(small("fd40", "sync")).unwrap();
    assert!(matches!(after.wait(), JobOutcome::Done(r) if r.converged));
    assert_eq!(service.metrics().panics.get(), 1);
    service.shutdown(true);
}

#[test]
fn bad_specs_fail_with_messages_not_crashes() {
    let service = SolveService::start(quiet_config(1, 8));
    for spec in [
        small("no-such-matrix", "sync"),
        small("fd40", "no-such-backend"),
        JobSpec {
            ranks: 0,
            ..small("fd40", "dist-async")
        },
    ] {
        let h = service.submit(spec).unwrap();
        assert!(matches!(h.wait(), JobOutcome::Failed(_)));
    }
    service.shutdown(true);
    assert_eq!(service.metrics().failed.get(), 3);
}

#[test]
fn non_draining_shutdown_sheds_the_queue_but_answers_everything() {
    let service = SolveService::start(quiet_config(1, 32));
    let mut handles = vec![service
        .submit(JobSpec {
            max_iterations: 500_000,
            tol: 1e-14,
            ..small("grid:40x40", "sync")
        })
        .unwrap()];
    for _ in 0..8 {
        handles.push(service.submit(small("fd40", "sync")).unwrap());
    }
    service.shutdown(false);
    // Post-shutdown submissions shed at the door.
    assert_eq!(
        service.submit(small("fd40", "sync")).unwrap_err(),
        ShedReason::ShuttingDown
    );
    // Every accepted job still gets its one outcome.
    let mut shed = 0;
    for h in &handles {
        match h.wait() {
            JobOutcome::Done(_) | JobOutcome::Failed(_) => {}
            JobOutcome::Shed(ShedReason::ShuttingDown) => shed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(shed > 0, "non-draining shutdown drained nothing");
}

#[test]
fn tcp_round_trip_solve_stats_shutdown() {
    let service = SolveService::start(quiet_config(2, 16));
    let server = Server::bind("127.0.0.1:0", service).unwrap();
    let addr = server.addr();
    let server = std::sync::Arc::new(server);
    let srv = std::sync::Arc::clone(&server);
    let loop_thread = std::thread::spawn(move || srv.run().unwrap());

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        proto::parse_response(line.trim()).unwrap()
    }
    fn roundtrip(
        writer: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        req: &Request,
    ) -> Response {
        let mut s = proto::render_request(req);
        s.push('\n');
        writer.write_all(s.as_bytes()).unwrap();
        read_response(reader)
    }

    // Two solves of the same spec: the second must be a cache hit.
    for (id, expect_hit) in [(1u64, false), (2u64, true)] {
        let resp = roundtrip(
            &mut writer,
            &mut reader,
            &Request::Solve {
                id,
                spec: small("fd68", "sync"),
            },
        );
        let Response::Done { id: rid, result } = resp else {
            panic!("expected Done, got {resp:?}");
        };
        assert_eq!(rid, id);
        assert!(result.converged);
        assert_eq!(result.cache_hit, expect_hit);
    }

    // Malformed line → protocol error, connection stays usable.
    writer.write_all(b"this is not json\n").unwrap();
    assert!(matches!(read_response(&mut reader), Response::Error { .. }));

    let resp = roundtrip(&mut writer, &mut reader, &Request::Stats);
    let Response::Stats { snapshot } = resp else {
        panic!("expected Stats, got {resp:?}");
    };
    assert_eq!(snapshot.counters["jobs_completed"], 2);
    assert_eq!(snapshot.counters["plan_cache_hits"], 1);
    assert!(snapshot.gauges["plan_cache_hit_ratio"] > 0.0);

    let resp = roundtrip(&mut writer, &mut reader, &Request::Shutdown { drain: true });
    assert_eq!(resp, Response::ShuttingDown);
    loop_thread.join().unwrap();
}
