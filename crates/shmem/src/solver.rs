//! The §V shared-memory solvers.

use crate::shared_vec::SharedVec;
use aj_control::{ControlSpec, ControlStats, Controller, Observation};
use aj_linalg::method::{self, ResolvedMethod};
use aj_linalg::vecops::{self, Norm};
use aj_linalg::{CsrMatrix, StorageFormat, SweepKernel};
use aj_obs::{Histogram, ObsConfig, Snapshot, SpanKind, Timeline};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Artificially slows one thread, emulating the paper's hardware-fault
/// scenario (the thread sleeps `duration` every iteration).
#[derive(Debug, Clone, Copy)]
pub struct DelayInjection {
    /// Which thread to slow down.
    pub thread: usize,
    /// Sleep inserted per iteration.
    pub duration: Duration,
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct ShmemConfig {
    /// Number of worker threads; rows are split into contiguous blocks.
    pub num_threads: usize,
    /// Relative-residual tolerance (`‖r‖/‖b‖` in `norm`).
    pub tol: f64,
    /// Per-thread iteration cap; a thread flags convergence at the cap even
    /// if the tolerance was not met.
    pub max_iterations: usize,
    /// Norm used for the convergence test (the paper reports the 1-norm).
    pub norm: Norm,
    /// Optional per-iteration delay of one thread.
    pub delay: Option<DelayInjection>,
    /// Relaxation method (see [`aj_linalg::method`]). The default
    /// [`ResolvedMethod::Jacobi`] keeps the classic two-step program; the
    /// other methods replace step 2's correction rule per thread (momentum
    /// state and row selection are thread-private over the thread's rows).
    pub method: ResolvedMethod,
    /// Sweep storage format of step 1's block residual (see
    /// [`aj_linalg::kernel`]). Every format, the default
    /// [`StorageFormat::Csr`] included, runs a per-thread [`SweepKernel`]:
    /// each iteration first *prefetches* every column the block touches
    /// (owned rows and ghosts) from the shared array into a dense
    /// thread-local vector, then sweeps that snapshot — one sequential
    /// gather pass instead of scattered atomic loads inside the kernel's
    /// inner loops.
    pub format: StorageFormat,
    /// Observability recording (off by default). When on, each thread owns
    /// a private iteration-duration histogram and timeline shard — no
    /// cross-thread synchronization on the hot path — merged into
    /// [`ShmemRun::obs`] after the threads join.
    pub obs: ObsConfig,
    /// Optional online controller (off by default). Thread 0 hosts it and
    /// feeds it one observation per complete round, a stretch in which
    /// every live (non-shed) thread has finished at least one sweep since
    /// the previous sample. The residual is the stop estimate; the
    /// staleness is the most sweeps any live thread made in the round over
    /// the fewest, and the thread with the fewest is the worst. Real
    /// threads have no deterministic clock, so this sweep ratio stands in
    /// for the simulators' delay-tick measure. The adapted ω/β are
    /// published through atomic cells the workers read each sweep, and a
    /// [`aj_control::Decision::Switch`] is realised by driving β to zero
    /// (momentum off) rather than swapping the per-thread state machines
    /// mid-flight.
    pub control: Option<ControlSpec>,
}

impl Default for ShmemConfig {
    fn default() -> Self {
        ShmemConfig {
            num_threads: 2,
            tol: 1e-3,
            max_iterations: 10_000,
            norm: Norm::L1,
            delay: None,
            method: ResolvedMethod::Jacobi,
            format: StorageFormat::Csr,
            obs: ObsConfig::off(),
            control: None,
        }
    }
}

/// Result of a shared-memory run.
#[derive(Debug, Clone)]
pub struct ShmemRun {
    /// Final iterate (snapshot of the shared array).
    pub x: Vec<f64>,
    /// Wall-clock duration of the parallel region.
    pub wall_time: Duration,
    /// Iterations each thread performed.
    pub iterations: Vec<usize>,
    /// `(seconds, stop estimate)` samples recorded by thread 0, one per
    /// complete round (see [`ShmemConfig::control`]): the aggregate of the
    /// threads' latest block residuals, as the net backend's history
    /// aggregates its ranks' reports.
    pub residual_history: Vec<(f64, f64)>,
    /// True when the *true* final residual meets the tolerance.
    pub converged: bool,
    /// True relative residual of `x` (recomputed exactly at the end).
    pub final_residual: f64,
    /// Merged observability snapshot (per-thread iteration-duration
    /// histograms in ns, timelines, and the `stop_meetings` counter), when
    /// [`ShmemConfig::obs`] enabled recording.
    pub obs: Option<Snapshot>,
    /// Controller decision record, when [`ShmemConfig::control`] was set.
    pub control: Option<ControlStats>,
}

/// Runs asynchronous shared-memory Jacobi per the paper's program
/// structure, with no barrier between the steps — threads use whatever
/// values are in shared memory:
///
/// ```text
/// loop {
///     r = b[mine] − (A x)[mine]           // thread-private; reads shared x
///     publish ‖r‖
///     x[mine] += D⁻¹ r
///     check convergence (the stop estimate below)
/// }
/// ```
///
/// The stop estimate is the norm of every thread's latest block-residual
/// norm, over ‖b‖: no pass over the whole matrix, and exact for the 1-, 2-
/// and ∞-norms when the partials are current. Termination follows the §V
/// flag protocol: a thread whose estimate meets the tolerance (or that has
/// reached its iteration cap) raises its flag but keeps relaxing until
/// every flag is up. The partials were taken at different times, so when
/// every flag is up the threads meet at the barrier and one of them
/// evaluates the true residual of the now quiescent `x`: the threads then
/// all stop (below the tolerance, every thread at its cap, or a controller
/// abort) or all lower the flags of threads short of their cap and go on.
/// These stop meetings and the final residual are the run's only
/// whole-matrix residual passes.
///
/// # Panics
/// Panics if `config.num_threads` is 0 or exceeds the number of rows, or if
/// a delayed-thread index is out of range.
pub fn run(a: &CsrMatrix, b: &[f64], x0: &[f64], config: &ShmemConfig) -> ShmemRun {
    let n = a.nrows();
    let t = config.num_threads;
    assert!(t > 0 && t <= n, "need 1 ≤ threads ≤ rows");
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    if let Some(d) = config.delay {
        assert!(d.thread < t, "delayed thread {} out of range", d.thread);
    }
    let diag_inv = aj_linalg::sweeps::inverse_diagonal(a).expect("zero diagonal");

    let ranges = aj_linalg::util::even_ranges(n, t);

    let x = SharedVec::from_slice(x0);
    let flags: Vec<AtomicBool> = (0..t).map(|_| AtomicBool::new(false)).collect();
    let iter_counts: Vec<AtomicU64> = (0..t).map(|_| AtomicU64::new(0)).collect();
    // Each thread's latest block-residual norm, ∞ before its first sweep.
    let partials: Vec<AtomicU64> = (0..t)
        .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
        .collect();
    let barrier = Barrier::new(t);
    let nb = vecops::norm(b, config.norm).max(f64::MIN_POSITIVE);
    let meetings = AtomicU64::new(0);

    let method = config.method;
    // Controller plumbing: thread 0 hosts the controller and publishes the
    // adapted ω/β through these cells; workers build their sweep's method
    // from them. With the controller off the cells are never read.
    let ctrl_on = config.control.is_some();
    let mut controller = config
        .control
        .map(|spec| Controller::new(spec.cfg, method, spec.interval));
    let (base_omega, base_beta) = controller.as_ref().map_or((1.0, 0.0), Controller::params);
    let omega_cell = AtomicU64::new(base_omega.to_bits());
    let beta_cell = AtomicU64::new(base_beta.to_bits());
    let ctrl_abort = AtomicBool::new(false);
    // The verdict of a stop meeting. Its leader writes it, and lowers the
    // flags, between the meeting's two barrier waits; the barrier orders
    // those writes before every thread's reads, so they can be Relaxed.
    let stop_all = AtomicBool::new(false);

    let start = Instant::now();
    // Per-thread observability shards, returned through the join handles:
    // each thread records into private state (no hot-path sharing) and the
    // merge happens once, after the parallel region.
    let mut shards: Vec<Option<(Histogram, Timeline)>> = Vec::new();
    let mut relaxations = 0u64;
    let mut history = Vec::new();
    let mut control_stats: Option<ControlStats> = None;
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..t {
            let range = ranges[tid].clone();
            let x = &x;
            let flags = &flags;
            let iter_counts = &iter_counts;
            let partials = &partials;
            let barrier = &barrier;
            let meetings = &meetings;
            let diag_inv = &diag_inv;
            let omega_cell = &omega_cell;
            let beta_cell = &beta_cell;
            let ctrl_abort = &ctrl_abort;
            let stop_all = &stop_all;
            // Thread 0 samples once per complete round: each thread's sweep
            // count at the previous sample, the history, and the controller.
            let mut rounds =
                (tid == 0).then(|| (vec![0u64; t], Vec::<(f64, f64)>::new(), controller.take()));
            handles.push(scope.spawn(move |_| {
                let mut iters = 0usize;
                let mut relaxed = 0u64;
                // Private copies of my rows' residuals and values. I am the
                // only writer of my rows, so `x_own` always equals the
                // shared values; momentum state is over my rows only too.
                let mut res = vec![0.0; range.len()];
                let mut x_own = x0[range.clone()].to_vec();
                let mut x_prev = x_own.clone();
                // Step 1 sweeps a thread-local snapshot: `touched` lists
                // every column my rows reference (owned + ghosts), gathered
                // from the shared array once per iteration.
                let kernel = SweepKernel::build(a, range.clone(), config.format)
                    .expect("storage format rejected for this matrix");
                let mut touched: Vec<usize> = range
                    .clone()
                    .flat_map(|i| a.row_indices(i).iter().copied())
                    .collect();
                touched.sort_unstable();
                touched.dedup();
                let mut x_local = vec![0.0; n];
                let mut parts = vec![0.0; t];
                let mut counts = vec![0u64; t];
                let mut shard = config.obs.is_on().then(|| {
                    let tl = Timeline::new(config.obs.timeline_capacity);
                    (Histogram::new(), tl, config.obs.sampler())
                });
                'sweeps: loop {
                    // Sampled iteration timing: two clock reads per sampled
                    // iteration, nothing otherwise.
                    let iter_start = shard
                        .as_mut()
                        .and_then(|(_, _, sampler)| sampler.hit().then(Instant::now));
                    // Optional fault-injection delay.
                    if let Some(d) = config.delay.filter(|d| d.thread == tid) {
                        std::thread::sleep(d.duration);
                    }
                    // Step 1: residual for my rows. The snapshot is one
                    // ordered pass over the shared array — still "whatever
                    // information is available", read just before the sweep.
                    for &j in touched.iter() {
                        x_local[j] = x.load(j);
                    }
                    kernel.residuals_into(a, &x_local, &b[range.clone()], &mut res);
                    partials[tid]
                        .store(vecops::norm(&res, config.norm).to_bits(), Ordering::Relaxed);
                    // Step 2: correct my rows. A Switch is realised by
                    // driving β to zero rather than swapping the method.
                    let sweep_method = if ctrl_on {
                        method.with_params(
                            f64::from_bits(omega_cell.load(Ordering::Relaxed)),
                            f64::from_bits(beta_cell.load(Ordering::Relaxed)),
                        )
                    } else {
                        method
                    };
                    relaxed += method::relax_block(
                        &sweep_method,
                        &res,
                        &diag_inv[range.clone()],
                        &mut x_own,
                        &mut x_prev,
                        tid as u64 + 1,
                        iters as u64,
                    ) as u64;
                    for (offset, i) in range.clone().enumerate() {
                        x.store(i, x_own[offset]);
                    }
                    iters += 1;
                    iter_counts[tid].store(iters as u64, Ordering::Relaxed);

                    // Step 3: the stop estimate from every thread's latest
                    // partial.
                    for (p, c) in parts.iter_mut().zip(partials) {
                        *p = f64::from_bits(c.load(Ordering::Relaxed));
                    }
                    let estimate = vecops::norm(&parts, config.norm) / nb;
                    if let Some((last, history, ctrl)) = rounds.as_mut() {
                        for (k, c) in counts.iter_mut().zip(iter_counts) {
                            *k = c.load(Ordering::Relaxed);
                        }
                        // Sweeps per live thread in this round: the most,
                        // and the fewest with its thread.
                        let mut most = 0u64;
                        let mut fewest = (u64::MAX, 0usize);
                        for v in 0..t {
                            if ctrl.as_ref().is_none_or(|c| !c.is_shed(v)) {
                                most = most.max(counts[v] - last[v]);
                                fewest = fewest.min((counts[v] - last[v], v));
                            }
                        }
                        if fewest.0 > 0 {
                            history.push((start.elapsed().as_secs_f64(), estimate));
                            last.copy_from_slice(&counts);
                            if let Some(c) = ctrl.as_mut() {
                                let obs = Observation {
                                    residual: estimate,
                                    staleness: most as f64 / fewest.0 as f64,
                                    worst: fewest.1,
                                };
                                if c.observe(obs).is_some() {
                                    let (omega, beta) = c.params();
                                    omega_cell.store(omega.to_bits(), Ordering::Relaxed);
                                    beta_cell.store(beta.to_bits(), Ordering::Relaxed);
                                    if c.rescue_requested() {
                                        ctrl_abort.store(true, Ordering::Release);
                                    }
                                }
                            }
                        }
                    }
                    if !flags[tid].load(Ordering::Relaxed)
                        && (estimate < config.tol || iters >= config.max_iterations)
                    {
                        flags[tid].store(true, Ordering::Release);
                    }
                    if let Some(t0) = iter_start {
                        let (hist, tl, _) = shard.as_mut().expect("timed without a shard");
                        hist.record(t0.elapsed().as_nanos() as u64);
                        tl.push(start.elapsed().as_nanos() as u64, SpanKind::SweepEnd);
                    }
                    // Flags and the abort only rise between meetings, so once
                    // one thread sees a reason to meet, every thread will.
                    // Past the hard safety cap (4× the budget, never reached
                    // in normal operation) a thread stops sweeping but keeps
                    // coming to meetings, so no peer waits for it in vain.
                    // Only a thread that panics misses a meeting.
                    let aborted = || ctrl_on && ctrl_abort.load(Ordering::Acquire);
                    loop {
                        if aborted() || flags.iter().all(|f| f.load(Ordering::Acquire)) {
                            if barrier.wait().is_leader() {
                                meetings.fetch_add(1, Ordering::Relaxed);
                                let res = a.relative_residual(&x.snapshot(), b, config.norm);
                                let capped = |c: &AtomicU64| {
                                    c.load(Ordering::Relaxed) >= config.max_iterations as u64
                                };
                                let stop =
                                    aborted() || res < config.tol || iter_counts.iter().all(capped);
                                if !stop {
                                    for (f, c) in flags.iter().zip(iter_counts) {
                                        f.store(capped(c), Ordering::Relaxed);
                                    }
                                }
                                stop_all.store(stop, Ordering::Relaxed);
                            }
                            barrier.wait();
                            if stop_all.load(Ordering::Relaxed) {
                                break 'sweeps;
                            }
                        }
                        if iters < 4 * config.max_iterations {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    // With more threads than cores (common here, and on the
                    // paper's 272-thread KNL runs), yield so the scheduler
                    // interleaves workers instead of running each to the end
                    // of its timeslice.
                    std::thread::yield_now();
                }
                let (history, stats) = rounds.map_or((Vec::new(), None), |(_, history, ctrl)| {
                    (history, ctrl.map(Controller::into_stats))
                });
                (
                    shard.map(|(hist, tl, _)| (hist, tl)),
                    relaxed,
                    history,
                    stats,
                )
            }));
        }
        for (tid, h) in handles.into_iter().enumerate() {
            let (sh, relaxed, hist, cs) = h.join().expect("a solver thread panicked");
            shards.push(sh);
            relaxations += relaxed;
            if tid == 0 {
                history = hist;
                control_stats = cs;
            }
        }
    })
    .expect("a solver thread panicked");
    let wall_time = start.elapsed();

    let x_final = x.snapshot();
    let final_residual = a.relative_residual(&x_final, b, config.norm);
    let iterations: Vec<usize> = iter_counts
        .iter()
        .map(|c| c.load(Ordering::Relaxed) as usize)
        .collect();
    let obs = config.obs.is_on().then(|| {
        let mut snap = Snapshot::new();
        for (tid, sh) in shards.into_iter().enumerate() {
            if let Some((hist, tl)) = sh {
                if hist.count() > 0 {
                    snap.merge_histogram(&format!("iter_ns/rank{tid}"), &hist);
                }
                if !tl.is_empty() || tl.dropped() > 0 {
                    snap.push_timeline(tid, &tl);
                }
            }
        }
        snap.set_counter("threads", t as u64);
        snap.set_counter(&format!("method/{}", config.method.name()), 1);
        snap.set_counter("relaxations", relaxations);
        snap.set_counter("stop_meetings", meetings.into_inner());
        snap.set_gauge("wall_time_s", wall_time.as_secs_f64());
        snap.set_gauge("final_residual", final_residual);
        snap
    });
    ShmemRun {
        x: x_final,
        wall_time,
        iterations,
        residual_history: history,
        converged: final_residual < config.tol,
        final_residual,
        obs,
        control: control_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::{fd, rhs};

    fn problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = fd::paper_fd("fd68")
            .unwrap()
            .scale_to_unit_diagonal()
            .unwrap();
        let (b, x0) = rhs::paper_problem(a.nrows(), 7);
        (a, b, x0)
    }

    #[test]
    fn asynchronous_converges_racy() {
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 4,
            tol: 1e-4,
            max_iterations: 100_000,
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(
            r.converged,
            "async failed to converge: {}",
            r.final_residual
        );
        assert!(r.iterations.iter().all(|&it| it > 0));
    }

    #[test]
    fn async_threads_take_different_iteration_counts_under_delay() {
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 1e-4,
            max_iterations: 100_000,
            delay: Some(DelayInjection {
                thread: 1,
                duration: Duration::from_micros(500),
            }),
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(r.converged, "delayed async failed: {}", r.final_residual);
        // The delayed thread should lag well behind the fast one.
        assert!(
            r.iterations[0] > r.iterations[1],
            "fast {} vs delayed {}",
            r.iterations[0],
            r.iterations[1]
        );
    }

    #[test]
    fn history_is_recorded_and_final_state_consistent() {
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 1e-3,
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(!r.residual_history.is_empty());
        // Times are non-decreasing.
        for w in r.residual_history.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(r.x.len(), a.nrows());
    }

    #[test]
    fn single_thread_async_equals_gauss_jacobi_hybrid_but_converges() {
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 1,
            tol: 1e-5,
            max_iterations: 100_000,
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(r.converged);
    }

    #[test]
    fn damped_threads_converge_with_omega_below_one() {
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 1e-4,
            max_iterations: 200_000,
            method: ResolvedMethod::Richardson1 { omega: 0.6 },
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(r.converged, "damped async failed: {}", r.final_residual);
    }

    #[test]
    fn every_method_converges_on_real_threads() {
        let (a, b, x0) = problem();
        for m in [
            ResolvedMethod::Richardson1 { omega: 0.9 },
            ResolvedMethod::Richardson2 {
                omega: 1.0,
                beta: 0.3,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 3,
            },
        ] {
            let cfg = ShmemConfig {
                num_threads: 4,
                tol: 1e-4,
                max_iterations: 200_000,
                method: m,
                ..Default::default()
            };
            let r = run(&a, &b, &x0, &cfg);
            assert!(
                r.converged,
                "{} failed to converge: {}",
                m.name(),
                r.final_residual
            );
        }
    }

    #[test]
    fn every_format_converges_on_real_threads() {
        let (a, b, x0) = problem();
        let (x_ref, _) =
            aj_linalg::sweeps::jacobi_solve(&a, &b, &x0, 1e-5, 100_000, Norm::L1).unwrap();
        for format in [StorageFormat::SellC { c: 4 }, StorageFormat::SellC { c: 8 }] {
            let cfg = ShmemConfig {
                num_threads: 4,
                tol: 1e-5,
                max_iterations: 200_000,
                format,
                ..Default::default()
            };
            let r = run(&a, &b, &x0, &cfg);
            assert!(
                r.converged,
                "{format} failed to converge: {}",
                r.final_residual
            );
            assert!(vecops::rel_diff(&r.x, &x_ref) < 1e-3, "{format}");
        }
    }

    #[test]
    fn controller_shrinks_then_rescues_under_pathological_delay() {
        // A worker that sleeps 500µs every sweep lags the fast thread by
        // thousands of sweep periods: the controller shrinks ω to the safe
        // floor, progress at the floor cannot meet the (aggressive) stall
        // rate, and — Jacobi having no momentum to drop — the ladder ends in
        // a rescue request that aborts the run for the driver to escalate.
        let (a, b, x0) = problem();
        let interval = aj_linalg::method::SafeInterval::estimate(&a).unwrap();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 1e-12,
            max_iterations: 50_000,
            delay: Some(DelayInjection {
                thread: 1,
                duration: Duration::from_micros(500),
            }),
            control: Some(ControlSpec {
                cfg: aj_control::ControlConfig {
                    stall_decades: 0.02,
                    ..aj_control::ControlConfig::default()
                },
                interval,
            }),
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        let stats = r.control.expect("controller stats recorded");
        assert!(stats.samples > 0);
        assert!(
            stats.rescue_requested,
            "expected a rescue request; decisions: {:?}",
            stats.decisions
        );
        assert!(!stats.decisions.is_empty());
        // The rescue abort must actually stop the threads well short of the
        // safety cap.
        assert!(r.iterations.iter().all(|&it| it < 4 * 50_000));
    }

    #[test]
    fn controller_on_healthy_run_does_not_hurt_convergence() {
        let (a, b, x0) = problem();
        let interval = aj_linalg::method::SafeInterval::estimate(&a).unwrap();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 1e-4,
            max_iterations: 100_000,
            control: Some(ControlSpec {
                cfg: aj_control::ControlConfig::default(),
                interval,
            }),
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(r.converged, "controlled async failed: {}", r.final_residual);
        let stats = r.control.expect("controller stats recorded");
        assert!(stats.samples > 0);
        assert!(!stats.rescue_requested);
    }

    #[test]
    fn control_off_records_no_stats() {
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 1e-3,
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(r.control.is_none());
    }

    #[test]
    fn iteration_cap_terminates_nonconverging_runs() {
        // Tolerance of 0 can never be met; the cap must stop the run.
        let (a, b, x0) = problem();
        let cfg = ShmemConfig {
            num_threads: 2,
            tol: 0.0,
            max_iterations: 50,
            ..Default::default()
        };
        let r = run(&a, &b, &x0, &cfg);
        assert!(!r.converged);
        assert!(r.iterations.iter().all(|&it| (50..=200).contains(&it)));
    }
}
