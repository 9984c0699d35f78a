//! Simulated shared-memory threads (§V semantics, event-driven).
//!
//! Threads own contiguous row blocks of a global solution array. An
//! iteration snapshots the shared array when it *starts*, computes new
//! values for the owned rows, and commits them when it *ends* (start time +
//! compute cost × jitter + injected delay). Commits are immediately visible
//! to every thread — the cache-coherent shared-array model of the paper's
//! OpenMP implementation. The synchronous variant runs lock-step
//! iterations whose duration is the slowest thread plus a barrier.

use crate::cost::{CostModel, WorkerJitter, TICK_SCALE};
use crate::monitor::{whole_csr_kernel, ResidualMonitor, SimOutcome};
use crate::obsrec::{decision_kind, EngineObs};
use aj_control::{ControlSpec, Controller, Observation};
use aj_linalg::method::{self, ResolvedMethod};
use aj_linalg::vecops::Norm;
use aj_linalg::{CsrMatrix, StorageFormat, SweepKernel};
use aj_obs::{ObsConfig, SpanKind};
use aj_trace::{RelaxationEvent, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Extra ticks added to every iteration of one worker (the paper's
/// sleep-injection experiment).
#[derive(Debug, Clone, Copy)]
pub struct SimDelay {
    /// Worker to slow down.
    pub worker: usize,
    /// Extra ticks per iteration.
    pub extra_ticks: f64,
}

/// When to stop a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Stop when the sampled relative residual drops below the tolerance.
    Tolerance,
    /// Stop when every worker has completed this many iterations (fast
    /// workers keep relaxing while they wait, as in §V/§VI).
    FixedIterations(u64),
}

/// Configuration for the simulated shared-memory solvers.
#[derive(Debug, Clone)]
pub struct ShmemSimConfig {
    /// Number of simulated threads (each owns a contiguous row block).
    pub num_threads: usize,
    /// Relative-residual tolerance.
    pub tol: f64,
    /// Norm for the tolerance test (paper: 1-norm).
    pub norm: Norm,
    /// Hard cap on simulated time (ticks).
    pub max_time: f64,
    /// Hard cap on any worker's iteration count.
    pub max_iterations: u64,
    /// Cost model.
    pub cost: CostModel,
    /// Optional slow worker.
    pub delay: Option<SimDelay>,
    /// Residual sampling cadence in relaxations (≈ `n` samples once per
    /// global-iteration equivalent).
    pub sample_every: u64,
    /// Termination rule.
    pub stop: StopRule,
    /// Relaxation weight ω (1.0 = plain Jacobi). Applies to the default
    /// [`ResolvedMethod::Jacobi`]; the Richardson methods carry their own ω.
    pub omega: f64,
    /// Relaxation method executed per sweep (default plain Jacobi; with
    /// the default the engine is bit-identical to its pre-method form).
    pub method: ResolvedMethod,
    /// Sweep storage format for the asynchronous block engine (default
    /// [`StorageFormat::Csr`], bit-identical to the classic loops). The
    /// synchronous and row-granular engines always run CSR; the driver
    /// rejects other selectors before they reach them.
    pub format: StorageFormat,
    /// Observability recording (off by default; the asynchronous block
    /// engine records per-worker staleness and sweep-period histograms and
    /// timelines into [`SimOutcome::obs`]).
    pub obs: ObsConfig,
    /// Online controller closing the loop from observed staleness back into
    /// the running parameters (asynchronous block engine only). `None` — the
    /// default — keeps the engine bit-identical to its uncontrolled form.
    pub control: Option<ControlSpec>,
}

impl ShmemSimConfig {
    /// Sensible defaults for an `n`-row problem with `threads` workers.
    pub fn new(threads: usize, n: usize, seed: u64) -> Self {
        ShmemSimConfig {
            num_threads: threads,
            tol: 1e-3,
            norm: Norm::L1,
            max_time: 1e12,
            max_iterations: 1_000_000,
            cost: CostModel::shared_memory(seed),
            delay: None,
            sample_every: n as u64,
            stop: StopRule::Tolerance,
            omega: 1.0,
            method: ResolvedMethod::Jacobi,
            format: StorageFormat::Csr,
            obs: ObsConfig::off(),
            control: None,
        }
    }
}

fn block_ranges(n: usize, t: usize) -> Vec<std::ops::Range<usize>> {
    aj_linalg::util::even_ranges(n, t)
}

/// Runs the **asynchronous** simulated shared-memory solver.
///
/// Each worker repeatedly sweeps its block; a sweep occupies a compute
/// window (cost × jitter) and its relaxation *takes effect* at the end of
/// the window, using the neighbour values current at that instant —
/// "whatever information is available", read just in time. This matches
/// the paper's model assumption that `s_ij(k)` maps to the most up-to-date
/// information, and is what lets staggered workers behave multiplicatively
/// (the §IV-B mechanism behind asynchronous Jacobi's per-relaxation
/// advantage). Workers that land on the same tick commit in worker order,
/// each seeing the previous one's values — a deterministic convention for
/// the physically ill-defined simultaneous case.
///
/// # Panics
/// Panics if `num_threads` is 0 or exceeds the number of rows.
pub fn run_shmem_async(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    config: &ShmemSimConfig,
) -> SimOutcome {
    let n = a.nrows();
    let t = config.num_threads;
    assert!(t > 0 && t <= n, "need 1 ≤ threads ≤ rows");
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    let diag_inv: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|d| {
            assert!(*d != 0.0, "zero diagonal");
            1.0 / d
        })
        .collect();
    let ranges = block_ranges(n, t);
    // One sweep kernel per worker block in the configured storage format.
    // The cost model charges the *stored* nonzeros the kernel streams per
    // sweep — identical to the row-nnz sum for CSR, padded for SELL-C-σ
    // whose lanes compute the padding too.
    let kernels: Vec<SweepKernel> = ranges
        .iter()
        .map(|r| {
            SweepKernel::build(a, r.clone(), config.format)
                .expect("storage format rejected for this matrix")
        })
        .collect();
    let work_nnz: Vec<usize> = kernels.iter().map(|k| k.work_nnz(a)).collect();

    let mut x = x0.to_vec();
    let mut jitters: Vec<WorkerJitter> = (0..t)
        .map(|w| WorkerJitter::new(&config.cost.jitter, w))
        .collect();
    let mut iterations = vec![0u64; t];
    let mut relaxations = 0u64;
    // The monitor samples through the block kernels: SELL samples take the
    // vectorized pass, and every sample keeps the bits of the CSR one.
    let mut monitor = ResidualMonitor::new(a, b, config.norm, config.tol, config.sample_every);
    monitor.observe(0.0, 0, &x, &kernels);

    // Observability shards, built only when recording is on so the off
    // path allocates nothing and checks one Option per sweep. A worker's
    // neighbours are the owners of off-block columns its rows touch; the
    // age of a neighbour's data at use is `commit tick − neighbour's last
    // commit tick` (values are visible the instant they commit).
    let mut obs = EngineObs::new(&config.obs, t);
    // The method each sweep runs, with the legacy ω folded in; controller
    // decisions retarget it mid-run.
    let mut method = config.method.fold_omega(config.omega);
    // Controller state. Commit-tick tracking is shared with observability:
    // either consumer being on turns it on; with both off the loop body is
    // unchanged from the uncontrolled engine.
    let mut ctrl = config
        .control
        .as_ref()
        .map(|spec| Controller::new(spec.cfg, method, spec.interval));
    let track_commits = obs.is_some() || ctrl.is_some();
    let neighbors: Vec<Vec<usize>> = if obs.is_some() {
        let mut owner = vec![0usize; n];
        for (w, r) in ranges.iter().enumerate() {
            for i in r.clone() {
                owner[i] = w;
            }
        }
        ranges
            .iter()
            .enumerate()
            .map(|(w, r)| {
                let mut set = std::collections::BTreeSet::new();
                for i in r.clone() {
                    for (j, _) in a.row_iter(i) {
                        if owner[j] != w {
                            set.insert(owner[j]);
                        }
                    }
                }
                set.into_iter().collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut last_commit = vec![0u64; if track_commits { t } else { 0 }];
    // Last observed commit-to-commit gap per worker; the fastest worker's
    // gap is the controller's staleness unit (ages are measured in "fastest
    // sweep periods", the paper's delay scale).
    let mut period = vec![0u64; if ctrl.is_some() { t } else { 0 }];

    // Priority queue of (commit tick, insertion order, worker); the order
    // component keeps simultaneous commits deterministic.
    let mut queue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut order = 0u64;
    let draw_cost = |w: usize, jitters: &mut [WorkerJitter]| {
        let mut cost = config.cost.sweep_cost(work_nnz[w]) * jitters[w].next_factor();
        if let Some(d) = config.delay {
            if d.worker == w {
                cost += d.extra_ticks;
            }
        }
        (cost * TICK_SCALE).max(1.0) as u64
    };
    for w in 0..t {
        let c = draw_cost(w, &mut jitters);
        queue.push(Reverse((c, order, w)));
        order += 1;
    }

    let mut now = 0.0f64;
    let mut done = false;
    // Residual scratch, hoisted out of the event loop and reused by every
    // sweep: the engine allocates nothing per event in steady state (rwr's
    // weighted draw is the one exception).
    let widest = ranges.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut res: Vec<f64> = vec![0.0; widest];
    // Momentum state: per-row value before the row's last relaxation (read
    // only by richardson2).
    let mut x_prev = x0.to_vec();
    while let Some(Reverse((tick, _, w))) = queue.pop() {
        if done {
            break;
        }
        now = tick as f64 / TICK_SCALE;
        if now > config.max_time {
            break;
        }
        // The sweep that finishes now takes effect using the freshest
        // available values (just-in-time reads). Two-phase within the
        // block: all residuals from the same state, then all corrections.
        let range = ranges[w].clone();
        let res = &mut res[..range.len()];
        kernels[w].residuals_into(a, &x, &b[range.clone()], res);
        let swept = method::relax_block(
            &method,
            res,
            &diag_inv[range.clone()],
            &mut x[range.clone()],
            &mut x_prev[range],
            w as u64 + 1,
            iterations[w],
        );
        iterations[w] += 1;
        relaxations += swept as u64;
        if let Some(o) = obs.as_mut() {
            if o.sweep_sampler.hit() {
                for &nb in &neighbors[w] {
                    o.record_staleness(w, tick - last_commit[nb]);
                }
                if let Some(prev) = o.last_sweep_end[w] {
                    o.record_sweep_period(w, tick - prev);
                }
                o.event(w, tick, SpanKind::SweepEnd);
            }
            o.last_sweep_end[w] = Some(tick);
        }
        if !period.is_empty() {
            period[w] = tick - last_commit[w];
        }
        if track_commits {
            last_commit[w] = tick;
        }
        let samples_before = if ctrl.is_some() {
            monitor.samples().len()
        } else {
            0
        };
        let hit_tol = monitor.observe(now, relaxations, &x, &kernels);
        if let Some(c) = ctrl.as_mut() {
            if monitor.samples().len() > samples_before {
                // Staleness-at-use on the monitor's grid: the oldest live
                // worker's commit age in units of the fastest live worker's
                // sweep period — the same coarse quantity both engines can
                // measure, so decision sequences conform across them.
                let mut fast = u64::MAX;
                for v in 0..t {
                    if !c.is_shed(v) && period[v] > 0 {
                        fast = fast.min(period[v]);
                    }
                }
                let mut worst = 0usize;
                let mut staleness = 0.0f64;
                if fast != u64::MAX {
                    for v in 0..t {
                        if c.is_shed(v) {
                            continue;
                        }
                        let age = (tick - last_commit[v]) as f64 / fast as f64;
                        if age > staleness {
                            staleness = age;
                            worst = v;
                        }
                    }
                }
                let residual = monitor.samples().last().map_or(f64::NAN, |s| s.residual);
                if let Some(d) = c.observe(Observation {
                    residual,
                    staleness,
                    worst,
                }) {
                    method = Controller::retune(method, &d);
                    if let Some(o) = obs.as_mut() {
                        o.event(0, tick, decision_kind(&d));
                    }
                    if c.rescue_requested() {
                        // Stop here; the driver escalates to an outer rescue.
                        done = true;
                    }
                }
            }
        }
        match config.stop {
            StopRule::Tolerance => {
                if hit_tol {
                    done = true;
                }
            }
            StopRule::FixedIterations(k) => {
                if iterations.iter().all(|&it| it >= k) {
                    done = true;
                }
            }
        }
        if !done && iterations[w] < config.max_iterations {
            let c = draw_cost(w, &mut jitters);
            queue.push(Reverse((tick + c, order, w)));
            order += 1;
        }
    }
    monitor.finalize(now, relaxations, &x, &kernels);
    let converged = monitor.converged();
    let obs_snapshot = obs.map(|o| {
        let mut snap = o.into_snapshot(None);
        snap.set_counter("relaxations", relaxations);
        snap.set_counter(&format!("method/{}", config.method.name()), 1);
        snap.set_counter("workers", t as u64);
        snap.set_gauge("sim_time", now);
        snap.set_gauge(
            "final_residual",
            monitor.samples().last().map_or(f64::NAN, |s| s.residual),
        );
        snap
    });
    SimOutcome {
        samples: monitor.into_samples(),
        x,
        time: now,
        relaxations,
        worker_iterations: iterations,
        converged,
        termination: None,
        comm: Default::default(),
        faults: None,
        obs: obs_snapshot,
        control: ctrl.map(Controller::into_stats),
    }
}

/// Runs asynchronous Jacobi at **row granularity** with the paper's §V
/// two-phase structure, recording every relaxation's neighbour reads for
/// the Figure 2 analysis.
///
/// A worker's iteration occupies a compute window `W`. Phase 1 (first half
/// of `W`) computes residuals: row `p` of an `m`-row block performs its
/// neighbour *reads* at `t₀ + (p+½)/m · W/2`. Phase 2 (second half) writes
/// the corrected values: row `p` *publishes* at `t₀ + W/2 + (p+½)/m · W/2`.
/// The read→write gap is what makes some relaxations inexpressible as
/// propagation matrices; it shrinks (relative to everything else) as rows
/// per worker shrink, reproducing the paper's Figure 2 trend of the
/// propagated fraction growing with thread count.
pub fn run_shmem_async_traced(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    config: &ShmemSimConfig,
) -> (SimOutcome, Trace) {
    let mut events = Vec::new();
    let outcome = rowwise_impl(a, b, x0, config, Some(&mut events));
    (outcome, Trace::from_events(a.nrows(), events))
}

/// The row-granular two-phase engine without trace collection: use this
/// when within-window read freshness matters to convergence (e.g. the
/// Figure 6 divergence-rescue experiment, which probes the Jacobi↔
/// Gauss–Seidel boundary), at ~2 events per row per iteration.
pub fn run_shmem_async_rowwise(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    config: &ShmemSimConfig,
) -> SimOutcome {
    rowwise_impl(a, b, x0, config, None)
}

fn rowwise_impl(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    config: &ShmemSimConfig,
    mut sink: Option<&mut Vec<RelaxationEvent>>,
) -> SimOutcome {
    let n = a.nrows();
    let t = config.num_threads;
    assert!(t > 0 && t <= n, "need 1 ≤ threads ≤ rows");
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    let diag_inv: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|d| {
            assert!(*d != 0.0, "zero diagonal");
            1.0 / d
        })
        .collect();
    let ranges = block_ranges(n, t);
    let block_nnz: Vec<usize> = ranges
        .iter()
        .map(|r| r.clone().map(|i| a.row_nnz(i)).sum())
        .collect();

    let mut x = x0.to_vec();
    let mut versions = vec![0u64; n];
    let mut seq = 0u64;
    let mut jitters: Vec<WorkerJitter> = (0..t)
        .map(|w| WorkerJitter::new(&config.cost.jitter, w))
        .collect();
    let mut iterations = vec![0u64; t];
    // Sub-event cursor: 0..m are phase-1 reads, m..2m are phase-2 writes.
    let mut cursor = vec![0usize; t];
    // Phase 1 (residual SpMV) dominates the window; phase 2 (the x update)
    // is a short tail. The split controls the read→write gap and therefore
    // the propagated fraction; 80/20 reflects the relative work of the two
    // phases in the paper's solver structure.
    const PHASE1_FRAC: f64 = 0.8;
    let mut read_step = vec![0.0f64; t];
    let mut write_step = vec![0.0f64; t];
    // Ticks of per-iteration overhead (loop bookkeeping plus the §V
    // convergence check, which scans the whole residual array and performs
    // no writes to x). The overhead precedes the relax phases, so reads and
    // writes cluster in the window's tail — as they do in the real solver.
    let mut overhead = vec![0.0f64; t];
    // Phase-1 buffers: staged (new value, reads) per row of the block.
    type StagedRow = (f64, Vec<(usize, u64)>);
    let mut staged: Vec<Vec<StagedRow>> =
        ranges.iter().map(|r| Vec::with_capacity(r.len())).collect();
    let mut relaxations = 0u64;
    let whole = whole_csr_kernel(a);
    let mut monitor = ResidualMonitor::new(a, b, config.norm, config.tol, config.sample_every);
    monitor.observe(0.0, 0, &x, &whole);

    // Returns (overhead ticks, compute ticks) for one iteration of worker w.
    let draw_window =
        |w: usize, jitters: &mut [WorkerJitter], block_nnz: &[usize], config: &ShmemSimConfig| {
            let f = jitters[w].next_factor() * config.cost.compute_oversub(t);
            let mut over = config.cost.per_iteration * f;
            if let Some(d) = config.delay {
                if d.worker == w {
                    over += d.extra_ticks;
                }
            }
            let compute = (config.cost.per_nonzero * block_nnz[w] as f64 * f).max(1.0);
            (over, compute)
        };

    // (tick, insertion order, worker)
    let mut queue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut order = 0u64;
    for w in 0..t {
        let (over, compute) = draw_window(w, &mut jitters, &block_nnz, config);
        let m = ranges[w].len() as f64;
        overhead[w] = over;
        read_step[w] = PHASE1_FRAC * compute / m;
        write_step[w] = (1.0 - PHASE1_FRAC) * compute / m;
        queue.push(Reverse((
            ((over + read_step[w]) * TICK_SCALE).max(1.0) as u64,
            order,
            w,
        )));
        order += 1;
    }

    let mut now = 0.0f64;
    while let Some(Reverse((tick, _, w))) = queue.pop() {
        now = tick as f64 / TICK_SCALE;
        if now > config.max_time {
            break;
        }
        let m = ranges[w].len();
        let mut stop = false;
        if cursor[w] < m {
            // Phase 1: residual read for row p.
            let i = ranges[w].start + cursor[w];
            let mut acc = 0.0;
            let mut reads = Vec::new();
            if sink.is_some() {
                reads.reserve(a.row_nnz(i).saturating_sub(1));
                for (j, v) in a.row_iter(i) {
                    if j == i {
                        continue;
                    }
                    acc += v * x[j];
                    reads.push((j, versions[j]));
                }
            } else {
                for (j, v) in a.row_iter(i) {
                    if j != i {
                        acc += v * x[j];
                    }
                }
            }
            // Weighted update x_i + ω((b_i − Σ_{j≠i} a_ij x_j)/a_ii − x_i);
            // the own-value term cancels entirely only at ω = 1.
            let target = (b[i] - acc) * diag_inv[i];
            staged[w].push((x[i] + config.omega * (target - x[i]), reads));
        } else {
            // Phase 2: publish row p's corrected value.
            let p = cursor[w] - m;
            let i = ranges[w].start + p;
            let (value, reads) = std::mem::take(&mut staged[w][p]);
            x[i] = value;
            versions[i] += 1;
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(RelaxationEvent { row: i, seq, reads });
                seq += 1;
            }
            relaxations += 1;
        }
        cursor[w] += 1;
        if cursor[w] == 2 * m {
            // Iteration complete.
            cursor[w] = 0;
            staged[w].clear();
            iterations[w] += 1;
            let hit_tol = monitor.observe(now, relaxations, &x, &whole);
            stop = match config.stop {
                StopRule::Tolerance => hit_tol,
                StopRule::FixedIterations(k) => iterations.iter().all(|&it| it >= k),
            };
            if !stop && iterations[w] < config.max_iterations {
                let (over, compute) = draw_window(w, &mut jitters, &block_nnz, config);
                overhead[w] = over;
                read_step[w] = PHASE1_FRAC * compute / m as f64;
                write_step[w] = (1.0 - PHASE1_FRAC) * compute / m as f64;
            } else if !stop {
                continue; // worker retires at its iteration cap
            }
        }
        if stop {
            break;
        }
        // First read of a fresh iteration pays the overhead phase first.
        let step = if cursor[w] == 0 {
            overhead[w] + read_step[w]
        } else if cursor[w] < m {
            read_step[w]
        } else {
            write_step[w]
        };
        queue.push(Reverse((
            tick + ((step * TICK_SCALE).max(1.0) as u64),
            order,
            w,
        )));
        order += 1;
    }
    monitor.finalize(now, relaxations, &x, &whole);
    let converged = monitor.converged();
    SimOutcome {
        samples: monitor.into_samples(),
        x,
        time: now,
        relaxations,
        worker_iterations: iterations,
        converged,
        termination: None,
        comm: Default::default(),
        faults: None,
        obs: None,
        control: None,
    }
}

/// Runs the **synchronous** simulated shared-memory solver: lock-step
/// Jacobi where each iteration costs the slowest worker's compute time plus
/// a barrier.
pub fn run_shmem_sync(a: &CsrMatrix, b: &[f64], x0: &[f64], config: &ShmemSimConfig) -> SimOutcome {
    let n = a.nrows();
    let t = config.num_threads;
    assert!(t > 0 && t <= n, "need 1 ≤ threads ≤ rows");
    let diag_inv: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
    let ranges = block_ranges(n, t);
    let block_nnz: Vec<usize> = ranges
        .iter()
        .map(|r| r.clone().map(|i| a.row_nnz(i)).sum())
        .collect();
    let mut jitters: Vec<WorkerJitter> = (0..t)
        .map(|w| WorkerJitter::new(&config.cost.jitter, w))
        .collect();
    let barrier = config.cost.barrier_cost(t);

    let method = config.method.fold_omega(config.omega);
    let mut x = x0.to_vec();
    let mut x_next = vec![0.0; n];
    let mut x_prev = x0.to_vec();
    let mut now = 0.0f64;
    let mut relaxations = 0u64;
    let mut iters = 0u64;
    let whole = whole_csr_kernel(a);
    let mut monitor = ResidualMonitor::new(a, b, config.norm, config.tol, config.sample_every);
    monitor.observe(0.0, 0, &x, &whole);

    loop {
        match config.stop {
            StopRule::Tolerance => {
                if monitor.converged() {
                    break;
                }
            }
            StopRule::FixedIterations(k) => {
                if iters >= k {
                    break;
                }
            }
        }
        if now > config.max_time || iters >= config.max_iterations {
            break;
        }
        // Slowest worker (plus injected delay) sets the pace.
        let oversub = config.cost.compute_oversub(t);
        let mut slowest = 0.0f64;
        for w in 0..t {
            let mut cost =
                config.cost.sweep_cost(block_nnz[w]) * jitters[w].next_factor() * oversub;
            if let Some(d) = config.delay {
                if d.worker == w {
                    cost += d.extra_ticks;
                }
            }
            slowest = slowest.max(cost);
        }
        // One dense reference iteration, so a synchronous simulated run is
        // bit-identical to `aj_linalg::method::method_solve`.
        let swept =
            method::method_iteration(a, b, &diag_inv, &method, iters, &x, &x_prev, &mut x_next);
        std::mem::swap(&mut x_prev, &mut x);
        std::mem::swap(&mut x, &mut x_next);
        now += slowest + barrier;
        iters += 1;
        relaxations += swept as u64;
        monitor.observe(now, relaxations, &x, &whole);
    }
    monitor.finalize(now, relaxations, &x, &whole);
    let converged = monitor.converged();
    SimOutcome {
        samples: monitor.into_samples(),
        x,
        time: now,
        relaxations,
        worker_iterations: vec![iters; t],
        converged,
        termination: None,
        comm: Default::default(),
        faults: None,
        obs: None,
        control: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Jitter;
    use aj_matrices::{fd, rhs};

    fn fd68() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = fd::paper_fd("fd68")
            .unwrap()
            .scale_to_unit_diagonal()
            .unwrap();
        let (b, x0) = rhs::paper_problem(a.nrows(), 2018);
        (a, b, x0)
    }

    #[test]
    fn zero_jitter_async_is_multiplicative_and_beats_sync() {
        // With zero jitter all workers commit on the same ticks; the
        // deterministic commit order makes each see its predecessors' fresh
        // values — block Gauss–Seidel — so asynchronous Jacobi needs *fewer*
        // relaxations than synchronous (the §IV-B multiplicative mechanism
        // in its purest form).
        let (a, b, x0) = fd68();
        let mut cfg = ShmemSimConfig::new(4, 68, 1);
        cfg.cost.jitter = Jitter::none();
        cfg.cost.barrier_base = 0.0;
        cfg.cost.barrier_per_worker = 0.0;
        cfg.cost.barrier_log = 0.0;
        cfg.cost.per_nonzero = 0.0;
        let asy = run_shmem_async(&a, &b, &x0, &cfg);
        let syn = run_shmem_sync(&a, &b, &x0, &cfg);
        assert!(asy.converged && syn.converged);
        assert!(
            asy.relaxations < syn.relaxations,
            "async {} vs sync {}",
            asy.relaxations,
            syn.relaxations
        );
    }

    #[test]
    fn async_with_jitter_converges() {
        let (a, b, x0) = fd68();
        let cfg = ShmemSimConfig::new(17, 68, 3);
        let out = run_shmem_async(&a, &b, &x0, &cfg);
        assert!(out.converged, "residual {}", out.final_residual());
        assert!(out.relaxations > 0);
        assert!(out.worker_iterations.iter().all(|&i| i > 0));
    }

    #[test]
    fn delayed_worker_slows_sync_more_than_async() {
        let (a, b, x0) = fd68();
        let delay = SimDelay {
            worker: 3,
            extra_ticks: 50_000.0,
        };
        let mut cfg = ShmemSimConfig::new(68, 68, 5);
        cfg.delay = Some(delay);
        let asy = run_shmem_async(&a, &b, &x0, &cfg);
        let syn = run_shmem_sync(&a, &b, &x0, &cfg);
        assert!(asy.converged, "async residual {}", asy.final_residual());
        assert!(syn.converged);
        let ta = asy.time_to_tolerance(cfg.tol).unwrap();
        let ts = syn.time_to_tolerance(cfg.tol).unwrap();
        assert!(
            ts > 3.0 * ta,
            "sync {ts} should be much slower than async {ta} under delay"
        );
    }

    #[test]
    fn fixed_iterations_stop_rule_counts_slowest_worker() {
        let (a, b, x0) = fd68();
        let mut cfg = ShmemSimConfig::new(4, 68, 7);
        cfg.stop = StopRule::FixedIterations(50);
        cfg.tol = 0.0; // never triggers
        let out = run_shmem_async(&a, &b, &x0, &cfg);
        assert!(out.worker_iterations.iter().all(|&i| i >= 50));
        let syn = run_shmem_sync(&a, &b, &x0, &cfg);
        assert_eq!(syn.worker_iterations, vec![50; 4]);
    }

    #[test]
    fn damped_sync_rescues_the_fe_matrix() {
        // ρ(G) ≈ 1.43 on the FE matrix, but λ(A) ⊂ (0, 2.43) so ω = 0.7
        // maps the damped spectrum inside the unit disc: synchronous damped
        // Jacobi converges where plain Jacobi diverges — the classical
        // counterpart of the paper's asynchronous rescue.
        let a = aj_matrices::fe::fe_matrix(12, 12, 0.45, 3);
        let (b, x0) = aj_matrices::rhs::paper_problem(a.nrows(), 5);
        let mut plain = ShmemSimConfig::new(8, a.nrows(), 1);
        plain.stop = StopRule::FixedIterations(400);
        plain.tol = 0.0;
        plain.max_time = 1e14;
        let mut damped = plain.clone();
        damped.omega = 0.7;
        let o_plain = run_shmem_sync(&a, &b, &x0, &plain);
        let o_damped = run_shmem_sync(&a, &b, &x0, &damped);
        assert!(
            o_plain.final_residual() > 1e3,
            "plain diverges: {}",
            o_plain.final_residual()
        );
        assert!(
            o_damped.final_residual() < 1e-2,
            "damped converges: {}",
            o_damped.final_residual()
        );
    }

    #[test]
    fn omega_zero_freezes_the_iterate() {
        // ω = 0 makes every relaxation a no-op: the solution must stay at
        // x0 in both engines (a degenerate but well-defined configuration).
        let (a, b, x0) = fd68();
        let mut cfg = ShmemSimConfig::new(4, 68, 1);
        cfg.stop = StopRule::FixedIterations(5);
        cfg.tol = 0.0;
        cfg.omega = 0.0;
        let out = run_shmem_async(&a, &b, &x0, &cfg);
        assert_eq!(out.x, x0);
        let (out_rw, _) = run_shmem_async_traced(&a, &b, &x0, &cfg);
        assert_eq!(out_rw.x, x0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (a, b, x0) = fd68();
        let cfg = ShmemSimConfig::new(8, 68, 11);
        let o1 = run_shmem_async(&a, &b, &x0, &cfg);
        let o2 = run_shmem_async(&a, &b, &x0, &cfg);
        assert_eq!(o1.time, o2.time);
        assert_eq!(o1.relaxations, o2.relaxations);
        assert_eq!(o1.x, o2.x);
    }

    #[test]
    fn traced_run_produces_consistent_trace() {
        let (a, b, x0) = fd68();
        let mut cfg = ShmemSimConfig::new(17, 68, 13);
        cfg.stop = StopRule::FixedIterations(10);
        cfg.tol = 0.0;
        let (out, trace) = run_shmem_async_traced(&a, &b, &x0, &cfg);
        assert_eq!(trace.len() as u64, out.relaxations);
        // A sizeable share of relaxations is expressible even at 4 rows per
        // worker (the hardest regime for the reconstruction)…
        let analysis = aj_trace::reconstruct(&trace);
        assert!(
            analysis.fraction() > 0.4,
            "fraction {}",
            analysis.fraction()
        );
        // …and with one row per worker nearly everything is, the upper end
        // of the paper's Figure 2 range.
        let mut cfg1 = ShmemSimConfig::new(68, 68, 13);
        cfg1.stop = StopRule::FixedIterations(10);
        cfg1.tol = 0.0;
        let (_, trace1) = run_shmem_async_traced(&a, &b, &x0, &cfg1);
        let analysis1 = aj_trace::reconstruct(&trace1);
        assert!(
            analysis1.fraction() > 0.9,
            "fraction {}",
            analysis1.fraction()
        );
        assert!(analysis1.fraction() >= analysis.fraction());
    }

    #[test]
    fn every_method_converges_asynchronously() {
        let (a, b, x0) = fd68();
        for method in [
            ResolvedMethod::Richardson1 { omega: 0.9 },
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.3,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 2,
            },
        ] {
            let mut cfg = ShmemSimConfig::new(8, 68, 3);
            cfg.method = method;
            let out = run_shmem_async(&a, &b, &x0, &cfg);
            assert!(
                out.converged,
                "{} stalled at {}",
                method.name(),
                out.final_residual()
            );
            let o2 = run_shmem_async(&a, &b, &x0, &cfg);
            assert_eq!(out.x, o2.x, "{} is not deterministic", method.name());
        }
    }

    #[test]
    fn momentum_needs_fewer_relaxations_than_jacobi() {
        let (a, b, x0) = fd68();
        let mut plain = ShmemSimConfig::new(8, 68, 9);
        plain.tol = 1e-6;
        let mut momentum = plain.clone();
        // ω/β from the fd68 spectrum via the auto rule.
        momentum.method = aj_linalg::method::Method::Richardson2 {
            omega: aj_linalg::method::OmegaSpec::Auto,
            beta: None,
        }
        .resolve(&a, 0)
        .unwrap();
        let o_plain = run_shmem_async(&a, &b, &x0, &plain);
        let o_momentum = run_shmem_async(&a, &b, &x0, &momentum);
        assert!(o_plain.converged && o_momentum.converged);
        // The asynchronous block engine is already multiplicative
        // (Gauss–Seidel-like), which eats part of momentum's synchronous
        // advantage; it still has to win measurably.
        assert!(
            o_momentum.relaxations * 10 < o_plain.relaxations * 9,
            "momentum {} vs jacobi {} relaxations",
            o_momentum.relaxations,
            o_plain.relaxations
        );
    }

    #[test]
    fn rwr_counts_only_the_selected_rows() {
        let (a, b, x0) = fd68();
        let mut cfg = ShmemSimConfig::new(4, 68, 5);
        cfg.method = ResolvedMethod::RandomizedResidual {
            fraction: 0.25,
            seed: 11,
        };
        cfg.stop = StopRule::FixedIterations(10);
        cfg.tol = 0.0;
        let out = run_shmem_async(&a, &b, &x0, &cfg);
        let sweeps: u64 = out.worker_iterations.iter().sum();
        // Each 17-row block relaxes ⌈0.25·17⌉ = 5 rows per sweep.
        assert_eq!(out.relaxations, sweeps * 5);
    }

    #[test]
    fn sync_method_run_matches_the_dense_reference_bitwise() {
        let (a, b, x0) = fd68();
        for method in [
            ResolvedMethod::Richardson1 { omega: 0.85 },
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.35,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 6,
            },
        ] {
            let mut cfg = ShmemSimConfig::new(4, 68, 7);
            cfg.tol = 1e-6;
            cfg.method = method;
            // Check convergence after every sweep, as the reference does —
            // rwr relaxes fewer than `n` rows per sweep, so the default
            // once-per-n-relaxations cadence would stop later.
            cfg.sample_every = 1;
            let out = run_shmem_sync(&a, &b, &x0, &cfg);
            let reference = aj_linalg::method::method_solve(
                &a,
                &b,
                &x0,
                &method,
                cfg.tol,
                cfg.max_iterations as usize,
                cfg.norm,
            )
            .unwrap();
            assert!(out.converged && reference.converged, "{}", method.name());
            assert_eq!(out.x, reference.x, "{} drifted bitwise", method.name());
            assert_eq!(out.relaxations, reference.relaxations);
        }
    }

    #[test]
    fn more_threads_do_not_hurt_async_relaxation_efficiency() {
        // The §VII-B observation: async convergence (per relaxation)
        // improves (or at least does not degrade) with concurrency.
        let (a, b, x0) = fd68();
        let mut few = ShmemSimConfig::new(4, 68, 17);
        few.tol = 1e-3;
        let mut many = ShmemSimConfig::new(68, 68, 17);
        many.tol = 1e-3;
        let o_few = run_shmem_async(&a, &b, &x0, &few);
        let o_many = run_shmem_async(&a, &b, &x0, &many);
        assert!(o_few.converged && o_many.converged);
        let r_few = o_few.relaxations_to_tolerance(1e-3).unwrap();
        let r_many = o_many.relaxations_to_tolerance(1e-3).unwrap();
        assert!(
            r_many <= r_few * 1.5,
            "per-relaxation efficiency collapsed: {r_many} vs {r_few}"
        );
    }
}
