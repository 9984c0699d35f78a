//! Simulated distributed-memory ranks (§VI semantics).
//!
//! Each rank owns a subdomain ([`aj_partition::LocalSystem`]) and a ghost
//! layer. Asynchronous mode models MPI-3 RMA: after finishing a local sweep
//! a rank *puts* its boundary values toward each neighbour; the values land
//! in the neighbour's window (ghost array) one network latency later,
//! element-atomically, with no action by the receiver — `MPI_Put` with
//! passive target completion. Ranks never wait: the next sweep starts
//! immediately with whatever ghost values have arrived (Baudet's racy
//! scheme, the one the paper studies).
//!
//! Synchronous mode models the point-to-point implementation: every
//! iteration all ranks exchange boundary values and wait (a barrier-like
//! completion), so an iteration lasts as long as its slowest rank plus the
//! exchange.

use crate::cost::{CostModel, TICK_SCALE};
use crate::engine::{run_lockstep, spec, ticks, AsyncRun, Pacing, Reads};
use crate::fault::{FaultPlan, FaultState, LinkParams};
use crate::monitor::SimOutcome;
use crate::shmem_sim::{SimDelay, StopRule};
use crate::termination::{RootAggregator, TerminationProtocol, TerminationStats};
use aj_control::ControlSpec;
use aj_linalg::method::{self, ResolvedMethod};
use aj_linalg::vecops::Norm;
use aj_linalg::{kernel, CsrMatrix, StorageFormat, SweepKernel};
use aj_obs::{ObsConfig, SpanKind};
use aj_partition::{CommPlan, LocalSystem, Partition};
use std::rc::Rc;

/// How a rank relaxes its own subdomain each sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalSolve {
    /// One local Jacobi iteration (additive; the paper's scheme).
    Jacobi,
    /// One local Gauss–Seidel sweep (multiplicative within the subdomain;
    /// Jager & Bradley's "inexact block Jacobi" uses exactly this).
    GaussSeidel,
}

/// Which asynchronous update discipline ranks follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistVariant {
    /// Baudet's racy scheme (the paper's): relax continuously with whatever
    /// ghost values are present, even if they were already used.
    Racy,
    /// Jager & Bradley's "eager" (semi-synchronous) scheme: a rank relaxes
    /// only when at least one ghost value changed since its last sweep;
    /// otherwise it parks until a put arrives.
    ///
    /// Caveat: if every rank parks within one latency window (possible with
    /// tiny subdomains and large latencies), no puts remain in flight and
    /// the run ends early with `converged = false`; check
    /// `worker_iterations` when an eager run stops unexpectedly soon.
    Eager,
}

/// Configuration for the simulated distributed solvers.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Relative-residual tolerance.
    pub tol: f64,
    /// Norm for the tolerance test.
    pub norm: Norm,
    /// Hard cap on simulated time (ticks).
    pub max_time: f64,
    /// Hard cap on any rank's iteration count.
    pub max_iterations: u64,
    /// Cost model (see [`CostModel::distributed`]).
    pub cost: CostModel,
    /// Optional slow rank.
    pub delay: Option<SimDelay>,
    /// Residual sampling cadence in relaxations.
    pub sample_every: u64,
    /// Termination rule.
    pub stop: StopRule,
    /// Asynchronous update discipline.
    pub variant: DistVariant,
    /// Relaxation weight ω (1.0 = plain Jacobi; damping ω < 1 shrinks the
    /// spectrum of the local iteration).
    pub omega: f64,
    /// Relaxation method (see [`aj_linalg::method`]). The default
    /// [`ResolvedMethod::Jacobi`] keeps the engine bit-identical to the
    /// pre-method build; non-Jacobi methods require
    /// [`LocalSolve::Jacobi`] (the method *is* the local update rule).
    pub method: ResolvedMethod,
    /// Sweep storage format for each rank's local matrix in the
    /// **asynchronous** engine (default [`StorageFormat::Csr`],
    /// bit-identical to the classic loops). The synchronous solver and the
    /// Gauss–Seidel local solve always run CSR; the driver rejects other
    /// selectors for the synchronous backend.
    pub format: StorageFormat,
    /// Local subdomain solver.
    pub local_solve: LocalSolve,
    /// When set, the asynchronous solver stops through the distributed
    /// termination-detection protocol of [`crate::termination`] instead of
    /// the omniscient monitor (which then only records curves).
    ///
    /// The protocol always aggregates **L1** residual norms (the norm
    /// Theorem 1 makes non-increasing, and the only one that decomposes as
    /// a sum of per-rank contributions); `tol` is therefore interpreted in
    /// the L1 norm for detection even when [`DistConfig::norm`] selects a
    /// different norm for monitoring.
    pub termination: Option<TerminationProtocol>,
    /// Deterministic fault injection (crashes, stalls, lossy links); see
    /// [`crate::fault`]. Applies to the **asynchronous** engine — the
    /// synchronous solver models reliable, acknowledged point-to-point
    /// exchange and ignores the plan. `None` or an empty plan leaves the
    /// engine byte-identical to the fault-free build.
    pub faults: Option<FaultPlan>,
    /// Observability recording (off by default; the asynchronous engine
    /// records per-rank staleness/sweep-period histograms, put latencies,
    /// queue depth on the monitor's sample grid, and per-rank timelines
    /// into [`SimOutcome::obs`]).
    pub obs: ObsConfig,
    /// Online controller closing the loop from observed staleness back into
    /// the running parameters (asynchronous engine only). `None` — the
    /// default — keeps the engine bit-identical to its uncontrolled form.
    pub control: Option<ControlSpec>,
}

impl DistConfig {
    /// Defaults for an `n`-row problem.
    pub fn new(n: usize, seed: u64) -> Self {
        DistConfig {
            tol: 1e-3,
            norm: Norm::L1,
            max_time: 1e13,
            max_iterations: 1_000_000,
            cost: CostModel::distributed(seed),
            delay: None,
            sample_every: n as u64,
            stop: StopRule::Tolerance,
            variant: DistVariant::Racy,
            omega: 1.0,
            method: ResolvedMethod::Jacobi,
            format: StorageFormat::Csr,
            local_solve: LocalSolve::Jacobi,
            termination: None,
            faults: None,
            obs: ObsConfig::off(),
            control: None,
        }
    }
}

/// Per-rank simulation state.
struct Rank {
    local: LocalSystem,
    /// Owned values followed by the ghost tail (window).
    x: Vec<f64>,
    /// Momentum state of the owned rows: each row's value before its last
    /// committed relaxation (read only by richardson2). Seeded with `x0`,
    /// so the first sweep's momentum term vanishes; a crashed rank keeps
    /// it just as it keeps `x`, which is the restart semantics.
    x_prev: Vec<f64>,
    b: Vec<f64>,
    /// For each neighbour: `(positions into our owned vector to send,
    ///  ghost-slot positions at the receiver)`.
    sends: Vec<SendPlan>,
    iterations: u64,
    /// Eager-variant state: did any ghost change since the last sweep?
    dirty: bool,
    /// Eager-variant state: is the rank parked waiting for fresh data?
    parked: bool,
    /// Termination protocol: rank received the stop broadcast.
    stopped: bool,
    /// Fault injection: is the rank's process up? Crashed ranks neither
    /// sweep nor accept puts into their window.
    alive: bool,
    /// Fault injection: sweeps deferred until this tick (transient stall).
    stalled_until: u64,
    /// Generation counter for in-flight [`Event::Sweep`]s: a crash bumps
    /// it, invalidating the pending sweep so a recovery cannot leave two
    /// sweep chains running for one rank.
    sweep_epoch: u64,
    /// Resolved fault parameters for this rank's residual reports toward
    /// the root (rank 0). The root's self-report never crosses the
    /// network, so its params stay clean.
    report_faults: LinkParams,
}

struct SendPlan {
    to: usize,
    /// Local owned indices whose values are sent.
    source_local: Vec<usize>,
    /// Ghost-tail slot index at the *receiver* for each value. Shared
    /// (`Rc`) so each put event carries a pointer-sized handle instead of
    /// cloning the index list; the simulation is single-threaded.
    target_slot: Rc<[usize]>,
    /// Resolved fault parameters for this directed link (clean when no
    /// fault plan is active).
    faults: LinkParams,
    /// Index into the flat ghost-generation table: the receiver's base
    /// offset plus *this sender's* position in the receiver's `recv_from`
    /// list. Observability updates the table with this one precomputed
    /// indexed store per landing put — a dense rank×rank table thrashes
    /// cache at 256+ ranks, and a per-put neighbour scan once cost ~30% of
    /// the event loop.
    gen_idx: u32,
}

fn build_ranks(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    plan: &CommPlan,
    fault_plan: Option<&FaultPlan>,
) -> Vec<Rank> {
    // Base offset of each rank's span in the flat ghost-generation table
    // (one entry per in-neighbour, `recv_from` order); see `gen_base`.
    let gen_base = gen_base(plan);
    LocalSystem::build_all(a, plan)
        .into_iter()
        .enumerate()
        .map(|(p, local)| {
            let sp = plan.plan(p);
            let mut x = Vec::with_capacity(local.n_owned() + local.n_ghost());
            x.extend(sp.owned.iter().map(|&g| x0[g]));
            x.extend(sp.ghosts.iter().map(|&g| x0[g]));
            let b_local: Vec<f64> = sp.owned.iter().map(|&g| b[g]).collect();
            // Plan lists are ascending, so a sent value's owned position and
            // its ghost slot at the receiver are binary searches.
            let sends = sp
                .send_to
                .iter()
                .map(|(to, globals)| {
                    let receiver = plan.plan(*to);
                    SendPlan {
                        to: *to,
                        source_local: globals
                            .iter()
                            .map(|g| sp.owned.binary_search(g).expect("send index not owned"))
                            .collect(),
                        target_slot: globals
                            .iter()
                            .map(|g| {
                                receiver
                                    .ghosts
                                    .binary_search(g)
                                    .expect("send index not a ghost of the receiver")
                            })
                            .collect::<Vec<_>>()
                            .into(),
                        faults: fault_plan
                            .map(|fp| fp.link_params(p, *to))
                            .unwrap_or_default(),
                        gen_idx: (gen_base[*to]
                            + receiver
                                .recv_from
                                .binary_search_by_key(&p, |(s, _)| *s)
                                .expect("send_to mirrors recv_from"))
                            as u32,
                    }
                })
                .collect();
            Rank {
                local,
                x_prev: x[..sp.owned.len()].to_vec(),
                x,
                b: b_local,
                sends,
                iterations: 0,
                dirty: true,
                parked: false,
                stopped: false,
                alive: true,
                stalled_until: 0,
                sweep_epoch: 0,
                report_faults: if p == 0 {
                    LinkParams::default()
                } else {
                    fault_plan
                        .map(|fp| fp.link_params(p, 0))
                        .unwrap_or_default()
                },
            }
        })
        .collect()
}

/// Prefix-sum of in-neighbour counts: rank `p`'s ghost-generation entries
/// live at `gen_base[p] .. gen_base[p] + recv_from.len()` in the flat
/// table, and `gen_base[nparts]` is its total length.
fn gen_base(plan: &CommPlan) -> Vec<usize> {
    let nparts = plan.nparts();
    let mut base = Vec::with_capacity(nparts + 1);
    let mut acc = 0usize;
    for p in 0..nparts {
        base.push(acc);
        acc += plan.plan(p).recv_from.len();
    }
    base.push(acc);
    base
}

enum Event {
    /// Rank's sweep finishes: relax owned rows against the freshest window
    /// contents (just-in-time reads), then send puts. `epoch` must match
    /// the rank's current `sweep_epoch` or the sweep is stale (the rank
    /// crashed while it was in flight) and is discarded.
    Sweep { rank: usize, epoch: u64 },
    /// A put lands in `rank`'s window. `slots` shares the sender's
    /// [`SendPlan::target_slot`]; `values` comes from (and returns to) the
    /// payload pool. `gen_idx`/`sent` identify the sender's entry in the
    /// flat ghost-generation table and the sweep tick that generated the
    /// payload — observability uses them to age ghost data; the solver
    /// itself never reads them.
    PutArrive {
        rank: usize,
        gen_idx: u32,
        sent: u64,
        slots: Rc<[usize]>,
        values: Vec<f64>,
    },
    /// A residual report reaches the root (termination protocol).
    Report { rank: usize, norm: f64 },
    /// The root's stop decision reaches `rank`.
    StopArrive { rank: usize },
    /// Fault injection: the rank's process dies, freezing its window and
    /// subdomain. With `recover_after`, a [`Event::Recover`] follows that
    /// many ticks later.
    Crash {
        rank: usize,
        recover_after: Option<u64>,
    },
    /// Fault injection: a crashed rank restarts from its last committed
    /// local state (its `x` as of the crash) and resumes sweeping.
    Recover { rank: usize },
    /// Fault injection: the rank defers sweeps until tick `until`
    /// (transient stall — the window stays live, puts still land).
    Stall { rank: usize, until: u64 },
}

/// Runs **asynchronous** distributed Jacobi over a partition.
///
/// # Panics
/// Panics on dimension mismatches or a delayed-rank index out of range.
pub fn run_dist_async(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    partition: &Partition,
    config: &DistConfig,
) -> SimOutcome {
    run_dist_async_plan(a, b, x0, &CommPlan::build(a, partition), config)
}

/// [`run_dist_async`] with a prebuilt communication plan. The plan must
/// have been built from `a` and the intended partition — callers that
/// solve the same partitioned system repeatedly (the `aj-serve` plan
/// cache) reuse the ghost/send-list assembly instead of rebuilding it per
/// run.
///
/// # Panics
/// Panics on dimension mismatches or a delayed-rank index out of range.
pub fn run_dist_async_plan(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    plan: &CommPlan,
    config: &DistConfig,
) -> SimOutcome {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    let nparts = plan.nparts();
    if let Some(d) = config.delay {
        assert!(d.worker < nparts, "delayed rank {} out of range", d.worker);
    }
    assert!(
        matches!(config.method, ResolvedMethod::Jacobi)
            || matches!(config.local_solve, LocalSolve::Jacobi),
        "non-Jacobi relaxation methods replace the Jacobi local update; \
         they cannot be combined with a Gauss-Seidel local solve"
    );
    // A `None` (or empty) plan draws no RNG and resolves every link clean,
    // so fault-free runs stay byte-identical to the pre-fault engine.
    let fault_plan = config.faults.as_ref().filter(|p| !p.is_empty());
    let mut fault_state = fault_plan.map(|p| FaultState::new(p, nparts));
    let mut ranks = build_ranks(a, b, x0, plan, fault_plan);
    // One sweep kernel per rank over its local matrix, in the configured
    // storage format (kept beside `ranks` so the borrow checker sees the
    // kernels and the rank state as disjoint). The cost model charges the
    // stored nonzeros the kernel streams per sweep — the plain local nnz
    // for CSR, padded nnz for SELL-C-σ.
    let kernels: Vec<SweepKernel> = ranks
        .iter()
        .map(|rk| {
            rk.local
                .kernel(config.format)
                .expect("storage format rejected for this subdomain")
        })
        .collect();
    let work_nnz = kernels
        .iter()
        .zip(&ranks)
        .map(|(k, rk)| k.work_nnz(&rk.local.matrix))
        .collect();
    let mut run = AsyncRun::new(a, b, spec!(config), work_nnz);
    // Global mirror of owned values, for residual monitoring. The rank
    // kernels index local columns, so the monitor gets one whole-matrix
    // kernel of its own, in `auto_select`'s format whatever the ranks
    // sweep in: it only observes, and a SELL sample has the CSR bits.
    let mut x_global = x0.to_vec();
    let whole = [SweepKernel::build(a, 0..n, kernel::auto_select(a))
        .expect("auto_select picks a format every matrix accepts")];
    run.monitor.observe(0.0, 0, &x_global, &whole);

    // Ghost-data generations for the obs staleness samples, kept only
    // while recording. The age of a ghost value at use is `sweep tick −
    // generation tick`, where the generation tick is the *sender's* sweep
    // that produced the value — the same definition the shared-memory
    // simulator uses, so the two engines cross-validate. The flat
    // `ghost_gen` table holds one generation tick per (receiver,
    // in-neighbour) pair; rank `r`'s span starts at `gen_base[r]`, and each
    // put carries its [`SendPlan::gen_idx`] so a landing put updates the
    // table with one precomputed indexed store.
    let gen_base = gen_base(plan);
    let mut ghost_gen: Vec<u64> = if run.obs.is_some() {
        vec![0; gen_base[nparts]]
    } else {
        Vec::new()
    };
    for r in 0..nparts {
        run.schedule(r, 0, Event::Sweep { rank: r, epoch: 0 });
    }
    if let Some(fp) = fault_plan {
        for c in &fp.crashes {
            run.queue.push(
                (c.at * TICK_SCALE).max(0.0) as u64,
                Event::Crash {
                    rank: c.rank,
                    recover_after: c.recover_after.map(ticks),
                },
            );
        }
        for s in &fp.stalls {
            let start = (s.at * TICK_SCALE).max(0.0) as u64;
            let (rank, until) = (s.rank, start + ticks(s.duration));
            run.queue.push(start, Event::Stall { rank, until });
        }
    }
    // Kernel residual scratch, sliced per rank.
    let max_owned = ranks.iter().map(|r| r.local.n_owned()).max().unwrap_or(0);
    let mut sweep_res: Vec<f64> = vec![0.0; max_owned];
    // Free list of put payload buffers: a consumed PutArrive returns its
    // `Vec<f64>` here instead of dropping it, so steady-state sweeps issue
    // puts without touching the allocator.
    let mut payload_pool: Vec<Vec<f64>> = Vec::new();

    // Termination-detection state (root = rank 0).
    let norm_b = aj_linalg::vecops::norm(b, aj_linalg::vecops::Norm::L1);
    let mut aggregator = config
        .termination
        .map(|t| RootAggregator::new(nparts, config.tol, norm_b, t.staleness_timeout));
    let mut term_stats = TerminationStats::default();
    let mut stopped_count = 0usize;
    let mut comm = crate::monitor::CommVolume::default();

    while let Some((tick, event)) = run.next() {
        let now = run.now;
        match event {
            Event::Sweep { rank: r, epoch } => {
                if !ranks[r].alive || epoch != ranks[r].sweep_epoch {
                    // Crashed rank, or a sweep orphaned by its crash.
                    if let Some(fs) = fault_state.as_mut() {
                        fs.stats.skipped_sweeps += 1;
                    }
                    continue;
                }
                if tick < ranks[r].stalled_until {
                    // Transient stall: defer the sweep, don't drop it.
                    if let Some(fs) = fault_state.as_mut() {
                        fs.stats.stalled_sweeps += 1;
                    }
                    let until = ranks[r].stalled_until;
                    run.queue.push(until, Event::Sweep { rank: r, epoch });
                    continue;
                }
                // Relax against the freshest window contents as of now.
                let rank = &mut ranks[r];
                let n_owned = rank.local.n_owned();
                let swept = match config.local_solve {
                    LocalSolve::Jacobi => {
                        // Two-phase: all residuals from the same state. The
                        // stream index r+1 keeps rwr's rank draws
                        // independent (stream 0 is the sync engine's).
                        let res = &mut sweep_res[..n_owned];
                        kernels[r].residuals_into(&rank.local.matrix, &rank.x, &rank.b, res);
                        method::relax_block(
                            &run.method,
                            res,
                            &rank.local.diag_inv,
                            &mut rank.x[..n_owned],
                            &mut rank.x_prev,
                            r as u64 + 1,
                            rank.iterations,
                        )
                    }
                    LocalSolve::GaussSeidel => {
                        // Only plain Jacobi reaches here (asserted above),
                        // folded and retuned as richardson1.
                        let ResolvedMethod::Richardson1 { omega } = run.method else {
                            unreachable!("Gauss-Seidel local solve running {}", run.method.name());
                        };
                        // In-place: each row sees its predecessors' updates.
                        for row in 0..n_owned {
                            let res = rank.b[row] - rank.local.matrix.row_dot(row, &rank.x);
                            rank.x[row] += omega * rank.local.diag_inv[row] * res;
                        }
                        n_owned
                    }
                };
                for (&g, &v) in rank.local.global_owned.iter().zip(&rank.x) {
                    x_global[g] = v;
                }
                ranks[r].iterations += 1;
                run.relaxations += swept as u64;
                run.commit(r, tick, Reads::Stamps(&ghost_gen, &gen_base));

                // One-sided puts toward every neighbour.
                for s in 0..ranks[r].sends.len() {
                    let (to, gen_idx, slots, vals, volume, lp) = {
                        let sp = &ranks[r].sends[s];
                        let mut vals = payload_pool.pop().unwrap_or_default();
                        vals.clear();
                        vals.extend(sp.source_local.iter().map(|&l| ranks[r].x[l]));
                        (
                            sp.to,
                            sp.gen_idx,
                            Rc::clone(&sp.target_slot),
                            vals,
                            sp.source_local.len(),
                            sp.faults,
                        )
                    };
                    comm.puts += 1;
                    comm.values += volume as u64;
                    let mut latency =
                        config.cost.put_latency + config.cost.per_value_comm * volume as f64;
                    // Link faults: the RNG is only consulted for faulty
                    // links, in event-processing order (deterministic).
                    let mut duplicated = false;
                    if !lp.is_clean() {
                        let fs = fault_state.as_mut().expect("faulty link without a plan");
                        if fs.draw() < lp.drop {
                            comm.drops += 1;
                            payload_pool.push(vals);
                            continue;
                        }
                        latency *= lp.latency_factor;
                        if fs.draw() < lp.reorder {
                            // An out-of-order put is just a put that took
                            // longer: one-sided windows are last-writer-wins
                            // per element, so older data landing later is
                            // the whole effect.
                            latency += fs.extra_delay(config.cost.put_latency);
                            comm.reorders += 1;
                        }
                        duplicated = fs.draw() < lp.duplicate;
                    }
                    let arrive = tick + ticks(latency);
                    if duplicated {
                        // Duplicate delivery of an idempotent put: the copy
                        // lands later with identical contents.
                        comm.duplicates += 1;
                        let fs = fault_state.as_mut().expect("duplicate without a plan");
                        let extra = fs.extra_delay(config.cost.put_latency);
                        let mut copy = payload_pool.pop().unwrap_or_default();
                        copy.clear();
                        copy.extend_from_slice(&vals);
                        run.queue.push(
                            arrive + ticks(extra),
                            Event::PutArrive {
                                rank: to,
                                gen_idx,
                                sent: tick,
                                slots: Rc::clone(&slots),
                                values: copy,
                            },
                        );
                    }
                    run.queue.push(
                        arrive,
                        Event::PutArrive {
                            rank: to,
                            gen_idx,
                            sent: tick,
                            slots,
                            values: vals,
                        },
                    );
                }
                if let Some(o) = run.obs.as_mut() {
                    if !ranks[r].sends.is_empty() && o.put_sampler.hit() {
                        o.event(r, tick, SpanKind::PutSend);
                    }
                }

                let checkpoints = run.monitor.checkpoints();
                let hit_tol = run.observe(tick, &x_global, &whole);
                if let Some(o) = run.obs.as_mut() {
                    // Queue depth is sampled at the monitor's checkpoints,
                    // so both series share its snapped relaxation grid, and
                    // an unmonitored run keeps the series.
                    if run.monitor.checkpoints() > checkpoints {
                        o.queue_depth.record(run.queue.len() as u64);
                    }
                }
                // With the protocol active, the omniscient monitor only
                // records; stopping is the protocol's job.
                let tolerance_met = hit_tol && config.termination.is_none();
                run.done |= config
                    .stop
                    .met(tolerance_met, ranks.iter().map(|rk| rk.iterations));
                // Periodic residual report toward the root.
                if let Some(proto) = config.termination {
                    if !ranks[r].stopped
                        && ranks[r]
                            .iterations
                            .is_multiple_of(proto.check_interval.max(1))
                    {
                        let rank = &ranks[r];
                        let mut local_norm = 0.0;
                        for row in 0..rank.local.n_owned() {
                            local_norm +=
                                (rank.b[row] - rank.local.matrix.row_dot(row, &rank.x)).abs();
                        }
                        term_stats.reports_sent += 1;
                        // Reports ride the same lossy link toward the root
                        // (duplication is a no-op for a latest-value
                        // aggregator, so only drop and latency apply).
                        let lp = ranks[r].report_faults;
                        let mut latency = config.cost.put_latency;
                        let mut dropped = false;
                        if !lp.is_clean() {
                            let fs = fault_state.as_mut().expect("faulty link without a plan");
                            if fs.draw() < lp.drop {
                                dropped = true;
                            } else {
                                latency *= lp.latency_factor;
                            }
                        }
                        if dropped {
                            term_stats.reports_dropped += 1;
                        } else {
                            let report = Event::Report {
                                rank: r,
                                norm: local_norm,
                            };
                            run.queue.push(tick + ticks(latency), report);
                        }
                    }
                }
                if !run.done && !ranks[r].stopped && ranks[r].iterations < config.max_iterations {
                    // Eager variant: park until a neighbour's put brings
                    // new information (ranks without neighbours never park).
                    if config.variant == DistVariant::Eager
                        && !ranks[r].dirty
                        && !ranks[r].sends.is_empty()
                    {
                        ranks[r].parked = true;
                    } else {
                        ranks[r].dirty = false;
                        let epoch = ranks[r].sweep_epoch;
                        run.schedule(r, tick, Event::Sweep { rank: r, epoch });
                    }
                }
            }
            Event::PutArrive {
                rank: r,
                gen_idx,
                sent,
                slots,
                values,
            } => {
                if !ranks[r].alive {
                    // The target's window died with its process; the put
                    // vanishes (MPI would surface an RMA error — the
                    // solver's answer either way is "that data is gone").
                    if let Some(fs) = fault_state.as_mut() {
                        fs.stats.dead_window_drops += 1;
                    }
                    payload_pool.push(values);
                    continue;
                }
                let n_owned = ranks[r].local.n_owned();
                for (&slot, &v) in slots.iter().zip(values.iter()) {
                    ranks[r].x[n_owned + slot] = v;
                }
                payload_pool.push(values);
                if let Some(o) = run.obs.as_mut() {
                    // Last writer wins, exactly like the window itself: a
                    // reordered put landing late overwrites the generation
                    // tick the same way it overwrites the ghost values.
                    ghost_gen[gen_idx as usize] = sent;
                    if o.put_sampler.hit() {
                        o.put_latency.record(tick - sent);
                        o.event(r, tick, SpanKind::PutArrive);
                    }
                }
                ranks[r].dirty = true;
                if ranks[r].parked && !ranks[r].stopped {
                    ranks[r].parked = false;
                    ranks[r].dirty = false;
                    let epoch = ranks[r].sweep_epoch;
                    run.schedule(r, tick, Event::Sweep { rank: r, epoch });
                }
            }
            Event::Report { rank, norm } => {
                if let Some(o) = run.obs.as_mut() {
                    o.term_reports += 1;
                    // Protocol rounds show on the root's timeline (rank 0).
                    if o.put_sampler.hit() {
                        o.event(0, tick, SpanKind::TermRound);
                    }
                }
                if let Some(agg) = aggregator.as_mut() {
                    if let Some(rel) = agg.ingest(rank, norm, now) {
                        // Root decides: broadcast the stop to every rank.
                        term_stats.detected_at = Some(now);
                        term_stats.detected_residual = Some(rel);
                        term_stats.excluded_ranks = agg.excluded_ranks().to_vec();
                        for target in 0..nparts {
                            term_stats.stops_sent += 1;
                            let arrive = tick + ticks(config.cost.put_latency);
                            run.queue.push(arrive, Event::StopArrive { rank: target });
                        }
                    }
                }
            }
            Event::StopArrive { rank } => {
                // Stop broadcasts are modelled reliable (MPI would retry a
                // collective until completion) and a dead rank is trivially
                // "stopped", so the count always reaches `nparts`.
                if !ranks[rank].stopped {
                    ranks[rank].stopped = true;
                    stopped_count += 1;
                    if stopped_count == nparts {
                        run.done = true;
                    }
                }
            }
            Event::Crash {
                rank,
                recover_after,
            } => {
                if ranks[rank].alive {
                    ranks[rank].alive = false;
                    if let Some(o) = run.obs.as_mut() {
                        o.event(rank, tick, SpanKind::Crash);
                    }
                    // Orphan the in-flight sweep so a recovery can't leave
                    // two sweep chains running for this rank.
                    ranks[rank].sweep_epoch += 1;
                    if let Some(fs) = fault_state.as_mut() {
                        fs.stats.crash_times.push((rank, now));
                        fs.stats.alive[rank] = false;
                    }
                    if let Some(rec) = recover_after {
                        run.queue.push(tick + rec, Event::Recover { rank });
                    }
                }
            }
            Event::Recover { rank } => {
                if !ranks[rank].alive {
                    ranks[rank].alive = true;
                    if let Some(o) = run.obs.as_mut() {
                        o.event(rank, tick, SpanKind::Recover);
                    }
                    if let Some(fs) = fault_state.as_mut() {
                        fs.stats.recovery_times.push((rank, now));
                        fs.stats.alive[rank] = true;
                    }
                    if !ranks[rank].stopped {
                        // Restart from the last committed local state: the
                        // rank's `x` (owned + ghost window) as of the
                        // crash. Stale ghosts are exactly what Theorem 1
                        // tolerates; neighbours' next puts refresh them.
                        ranks[rank].parked = false;
                        ranks[rank].dirty = true;
                        let epoch = ranks[rank].sweep_epoch;
                        run.schedule(rank, tick, Event::Sweep { rank, epoch });
                    }
                }
            }
            Event::Stall { rank, until } => {
                if ranks[rank].alive {
                    ranks[rank].stalled_until = ranks[rank].stalled_until.max(until);
                    if let Some(o) = run.obs.as_mut() {
                        o.event(rank, tick, SpanKind::Stall);
                    }
                }
            }
        }
    }
    let iterations = ranks.iter().map(|r| r.iterations).collect();
    let mut out = run.finish(x_global, &whole, iterations, "ranks", Some(&comm));
    if let (Some(snap), Some(fs)) = (out.obs.as_mut(), &fault_state) {
        snap.set_counter("crashes", fs.stats.crash_times.len() as u64);
        snap.set_counter("recoveries", fs.stats.recovery_times.len() as u64);
        snap.set_counter("skipped_sweeps", fs.stats.skipped_sweeps);
        snap.set_counter("stalled_sweeps", fs.stats.stalled_sweeps);
        snap.set_counter("dead_window_drops", fs.stats.dead_window_drops);
    }
    out.termination = config.termination.map(|_| term_stats);
    out.comm = comm;
    out.faults = fault_state.map(|fs| fs.stats);
    out
}

/// Runs **synchronous** distributed Jacobi: one global Jacobi iteration per
/// step; simulated time per step is the slowest rank's sweep plus the
/// point-to-point exchange (latency + bandwidth on the largest message).
pub fn run_dist_sync(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    partition: &Partition,
    config: &DistConfig,
) -> SimOutcome {
    run_dist_sync_plan(a, b, x0, &CommPlan::build(a, partition), config)
}

/// [`run_dist_sync`] with a prebuilt communication plan (see
/// [`run_dist_async_plan`] for when that pays off).
pub fn run_dist_sync_plan(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    plan: &CommPlan,
    config: &DistConfig,
) -> SimOutcome {
    let nparts = plan.nparts();
    let rank_nnz: Vec<usize> = (0..nparts)
        .map(|p| plan.plan(p).owned.iter().map(|&i| a.row_nnz(i)).sum())
        .collect();
    let max_send: usize = (0..nparts)
        .map(|p| {
            plan.plan(p)
                .send_to
                .iter()
                .map(|(_, v)| v.len())
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    let msgs_per_iter: u64 = (0..nparts).map(|p| plan.plan(p).send_to.len() as u64).sum();
    let values_per_iter: u64 = plan.total_volume() as u64;
    let exchange = config.cost.put_latency + config.cost.per_value_comm * max_send as f64;
    // Synchronous mode is exactly one global dense-reference iteration per
    // step, so every method-capable engine agrees bit-for-bit in sync mode.
    let spec = spec!(config);
    let mut pacing = Pacing::new(&spec, rank_nnz, 1.0);
    let mut out = run_lockstep(a, b, x0, &spec, nparts, || pacing.slowest() + exchange);
    let iters = out.worker_iterations.first().copied().unwrap_or(0);
    out.comm = crate::monitor::CommVolume {
        puts: msgs_per_iter * iters,
        values: values_per_iter * iters,
        ..Default::default()
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::{fd, rhs};
    use aj_partition::block_partition;

    fn problem(nx: usize, ny: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = fd::laplacian_2d(nx, ny).scale_to_unit_diagonal().unwrap();
        let (b, x0) = rhs::paper_problem(a.nrows(), 99);
        (a, b, x0)
    }

    #[test]
    fn async_distributed_converges() {
        let (a, b, x0) = problem(12, 12);
        let p = block_partition(a.nrows(), 8);
        let cfg = DistConfig::new(a.nrows(), 1);
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.converged, "residual {}", out.final_residual());
        assert!(out.worker_iterations.iter().all(|&i| i > 0));
    }

    #[test]
    fn sync_distributed_matches_global_jacobi_relaxation_count() {
        let (a, b, x0) = problem(10, 10);
        let p = block_partition(a.nrows(), 4);
        let cfg = DistConfig::new(a.nrows(), 2);
        let out = run_dist_sync(&a, &b, &x0, &p, &cfg);
        assert!(out.converged);
        // Reference sequential Jacobi with the same tolerance/norm.
        let (_, hist) =
            aj_linalg::sweeps::jacobi_solve(&a, &b, &x0, cfg.tol, 100_000, cfg.norm).unwrap();
        let sync_iters = out.worker_iterations[0];
        assert_eq!(
            sync_iters as usize,
            hist.len() - 1,
            "sync dist must be exactly global Jacobi"
        );
    }

    #[test]
    fn async_needs_no_more_relaxations_than_sync() {
        // The Figure 7 headline: asynchronous Jacobi tends to converge in
        // fewer relaxations.
        let (a, b, x0) = problem(16, 16);
        let p = block_partition(a.nrows(), 16);
        let cfg = DistConfig::new(a.nrows(), 3);
        let asy = run_dist_async(&a, &b, &x0, &p, &cfg);
        let syn = run_dist_sync(&a, &b, &x0, &p, &cfg);
        assert!(asy.converged && syn.converged);
        let ra = asy.relaxations_to_tolerance(cfg.tol).unwrap();
        let rs = syn.relaxations_to_tolerance(cfg.tol).unwrap();
        assert!(ra <= rs * 1.15, "async {ra} vs sync {rs} relaxations/n");
    }

    #[test]
    fn delayed_rank_hurts_sync_much_more() {
        let (a, b, x0) = problem(12, 12);
        let p = block_partition(a.nrows(), 12);
        let mut cfg = DistConfig::new(a.nrows(), 4);
        cfg.delay = Some(SimDelay {
            worker: 5,
            extra_ticks: 1e6,
        });
        let asy = run_dist_async(&a, &b, &x0, &p, &cfg);
        let syn = run_dist_sync(&a, &b, &x0, &p, &cfg);
        assert!(asy.converged && syn.converged);
        let ta = asy.time_to_tolerance(cfg.tol).unwrap();
        let ts = syn.time_to_tolerance(cfg.tol).unwrap();
        assert!(ts > 2.0 * ta, "sync {ts} vs async {ta}");
    }

    #[test]
    fn ghost_values_propagate_through_puts() {
        // With exactly two ranks on a chain, rank 1's interface value must
        // reach rank 0's window, otherwise rank 0 converges to the wrong
        // solution. Convergence of the global residual proves delivery.
        let a = fd::laplacian_1d(20).scale_to_unit_diagonal().unwrap();
        let (b, x0) = rhs::paper_problem(20, 5);
        let p = block_partition(20, 2);
        let mut cfg = DistConfig::new(20, 5);
        cfg.tol = 1e-8;
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.converged);
        assert!(a.relative_residual(&out.x, &b, Norm::L1) < 1e-7);
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, b, x0) = problem(8, 8);
        let p = block_partition(64, 4);
        let cfg = DistConfig::new(64, 6);
        let o1 = run_dist_async(&a, &b, &x0, &p, &cfg);
        let o2 = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert_eq!(o1.time, o2.time);
        assert_eq!(o1.x, o2.x);
    }

    #[test]
    fn eager_variant_converges_with_fewer_wasted_relaxations() {
        // Eager ranks skip sweeps that would reuse stale ghosts, so at a
        // high put latency they spend no more relaxations than racy ranks.
        let (a, b, x0) = problem(12, 12);
        let p = block_partition(a.nrows(), 12);
        let mut racy = DistConfig::new(a.nrows(), 9);
        racy.cost.put_latency = 3_000.0;
        let mut eager = racy.clone();
        eager.variant = DistVariant::Eager;
        let o_racy = run_dist_async(&a, &b, &x0, &p, &racy);
        let o_eager = run_dist_async(&a, &b, &x0, &p, &eager);
        assert!(o_racy.converged && o_eager.converged);
        assert!(
            o_eager.relaxations <= o_racy.relaxations,
            "eager {} vs racy {}",
            o_eager.relaxations,
            o_racy.relaxations
        );
    }

    #[test]
    fn eager_single_rank_never_parks() {
        let (a, b, x0) = problem(6, 6);
        let p = block_partition(a.nrows(), 1);
        let mut cfg = DistConfig::new(a.nrows(), 2);
        cfg.variant = DistVariant::Eager;
        cfg.tol = 1e-6;
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.converged, "residual {}", out.final_residual());
    }

    #[test]
    fn gauss_seidel_local_solve_converges_faster_per_relaxation() {
        // Jager & Bradley's inexact block Jacobi: local GS sweeps propagate
        // information within the subdomain, so fewer relaxations are needed.
        let (a, b, x0) = problem(14, 14);
        let p = block_partition(a.nrows(), 7);
        let mut jac = DistConfig::new(a.nrows(), 3);
        jac.tol = 1e-4;
        let mut gs = jac.clone();
        gs.local_solve = LocalSolve::GaussSeidel;
        let oj = run_dist_async(&a, &b, &x0, &p, &jac);
        let og = run_dist_async(&a, &b, &x0, &p, &gs);
        assert!(oj.converged && og.converged);
        let rj = oj.relaxations_to_tolerance(1e-4).unwrap();
        let rg = og.relaxations_to_tolerance(1e-4).unwrap();
        assert!(
            rg < rj,
            "GS blocks {rg} vs Jacobi blocks {rj} relaxations/n"
        );
    }

    #[test]
    fn damped_omega_changes_but_preserves_convergence_on_spd() {
        let (a, b, x0) = problem(10, 10);
        let p = block_partition(a.nrows(), 5);
        let mut cfg = DistConfig::new(a.nrows(), 4);
        cfg.tol = 1e-4;
        cfg.omega = 0.7;
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.converged);
        // Damping slows convergence on this well-behaved matrix.
        let mut plain = DistConfig::new(a.nrows(), 4);
        plain.tol = 1e-4;
        let out_plain = run_dist_async(&a, &b, &x0, &p, &plain);
        assert!(
            out.relaxations > out_plain.relaxations,
            "ω=0.7 should need more relaxations ({} vs {})",
            out.relaxations,
            out_plain.relaxations
        );
    }

    #[test]
    fn termination_protocol_stops_all_ranks_at_tolerance() {
        let (a, b, x0) = problem(14, 14);
        let p = block_partition(a.nrows(), 7);
        let mut cfg = DistConfig::new(a.nrows(), 3);
        cfg.tol = 1e-4;
        cfg.termination = Some(crate::termination::TerminationProtocol::default());
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        let stats = out.termination.as_ref().expect("protocol stats present");
        assert!(stats.detected_at.is_some(), "root must detect convergence");
        assert!(stats.reports_sent > 0);
        assert_eq!(stats.stops_sent, 7);
        // Theorem 1 safety: the true residual at stop time meets the
        // tolerance the root saw (W.D.D. ⇒ non-increasing residual), up to
        // the inconsistency of per-rank ghost views in the reports.
        let true_res = a.relative_residual(&out.x, &b, Norm::L1);
        assert!(true_res < 2.0 * cfg.tol, "true residual {true_res}");
        // The protocol detects no earlier than the omniscient monitor.
        let mut oracle = cfg.clone();
        oracle.termination = None;
        let o = run_dist_async(&a, &b, &x0, &p, &oracle);
        let oracle_t = o.time_to_tolerance(cfg.tol).unwrap();
        assert!(
            stats.detected_at.unwrap() >= oracle_t * 0.9,
            "protocol {:?} vs oracle {oracle_t}",
            stats.detected_at
        );
    }

    #[test]
    fn termination_protocol_never_fires_on_non_converging_run() {
        let (a, b, x0) = problem(8, 8);
        let p = block_partition(a.nrows(), 4);
        let mut cfg = DistConfig::new(a.nrows(), 5);
        cfg.tol = 1e-30; // unreachable
        cfg.max_iterations = 200;
        cfg.termination = Some(crate::termination::TerminationProtocol::default());
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        let stats = out.termination.as_ref().unwrap();
        assert!(stats.detected_at.is_none());
        assert_eq!(stats.stops_sent, 0);
        assert!(out.worker_iterations.iter().all(|&i| i == 200));
    }

    #[test]
    fn communication_volume_is_accounted() {
        let (a, b, x0) = problem(8, 8);
        let p = block_partition(a.nrows(), 4);
        let mut cfg = DistConfig::new(a.nrows(), 6);
        cfg.stop = StopRule::FixedIterations(10);
        cfg.tol = 0.0;
        let asy = run_dist_async(&a, &b, &x0, &p, &cfg);
        // Every rank has ≤ 2 neighbours on a block-partitioned grid; each
        // iteration sends one put per neighbour.
        assert!(asy.comm.puts > 0);
        assert!(
            asy.comm.values >= asy.comm.puts,
            "each put carries ≥ 1 value"
        );
        let syn = run_dist_sync(&a, &b, &x0, &p, &cfg);
        assert!(syn.comm.puts > 0);
        assert_eq!(
            syn.comm.puts % 10,
            0,
            "sync sends the same messages every iteration"
        );
    }

    #[test]
    fn fixed_iterations_stop_in_distributed_mode() {
        let (a, b, x0) = problem(8, 8);
        let p = block_partition(64, 4);
        let mut cfg = DistConfig::new(64, 7);
        cfg.stop = StopRule::FixedIterations(25);
        cfg.tol = 0.0;
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.worker_iterations.iter().all(|&i| i >= 25));
    }

    fn all_methods() -> Vec<ResolvedMethod> {
        vec![
            ResolvedMethod::Jacobi,
            ResolvedMethod::Richardson1 { omega: 0.9 },
            ResolvedMethod::Richardson2 {
                omega: 1.0,
                beta: 0.3,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 7,
            },
        ]
    }

    #[test]
    fn every_method_converges_async_distributed() {
        let (a, b, x0) = problem(12, 12);
        let p = block_partition(a.nrows(), 6);
        for m in all_methods() {
            let mut cfg = DistConfig::new(a.nrows(), 11);
            cfg.method = m;
            let o1 = run_dist_async(&a, &b, &x0, &p, &cfg);
            assert!(
                o1.converged,
                "{} residual {}",
                m.name(),
                o1.final_residual()
            );
            // Every method keeps the event engine deterministic.
            let o2 = run_dist_async(&a, &b, &x0, &p, &cfg);
            assert_eq!(o1.x, o2.x, "{} must replay bitwise", m.name());
            assert_eq!(o1.time, o2.time);
        }
    }

    #[test]
    fn sync_method_run_matches_the_dense_reference_bitwise() {
        let (a, b, x0) = problem(10, 10);
        let p = block_partition(a.nrows(), 4);
        for m in all_methods().into_iter().skip(1) {
            let mut cfg = DistConfig::new(a.nrows(), 3);
            // Per-iteration sampling so the engine's stop check lands on
            // the same iterate as the reference's (rwr relaxes fewer than
            // n rows per sweep, which would desync the default cadence).
            cfg.sample_every = 1;
            cfg.method = m;
            let out = run_dist_sync(&a, &b, &x0, &p, &cfg);
            let reference = aj_linalg::method::method_solve(
                &a,
                &b,
                &x0,
                &m,
                cfg.tol,
                cfg.max_iterations as usize,
                cfg.norm,
            )
            .unwrap();
            assert!(out.converged && reference.converged, "{}", m.name());
            assert_eq!(
                out.x,
                reference.x,
                "sync dist {} must be the dense reference bit-for-bit",
                m.name()
            );
            assert_eq!(out.relaxations, reference.relaxations, "{}", m.name());
        }
    }

    #[test]
    fn rwr_relaxes_only_the_selected_rows_distributed() {
        let (a, b, x0) = problem(10, 10);
        let p = block_partition(a.nrows(), 4); // 25 owned rows per rank
        let mut cfg = DistConfig::new(a.nrows(), 13);
        cfg.method = ResolvedMethod::RandomizedResidual {
            fraction: 0.25,
            seed: 5,
        };
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.converged);
        // ⌈0.25 · 25⌉ = 7 rows per sweep, on every rank.
        let sweeps: u64 = out.worker_iterations.iter().sum();
        assert_eq!(out.relaxations, sweeps * 7);
    }

    #[test]
    fn lock_step_engines_panic_on_a_zero_diagonal_like_the_block_engine() {
        // An 8-row path whose row 3 stores no diagonal.
        let mut coo = aj_linalg::CooMatrix::new(8, 8);
        for i in 0..8 {
            if i != 3 {
                coo.push(i, i, 2.0);
            }
            if i + 1 < 8 {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        let (b, x0) = (vec![1.0; 8], vec![0.0; 8]);
        let p = block_partition(8, 2);
        let mut shared = crate::ShmemSimConfig::new(2, 8, 1);
        shared.max_iterations = 50;
        let mut dist = DistConfig::new(8, 1);
        dist.max_iterations = 50;
        let panic_message = |run: &dyn Fn() -> SimOutcome| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("a zero diagonal must not run");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        use crate::shmem_sim::{run_shmem_async, run_shmem_sync};
        for (engine, message) in [
            (
                "sim-async",
                panic_message(&|| run_shmem_async(&a, &b, &x0, &shared)),
            ),
            (
                "sim-sync",
                panic_message(&|| run_shmem_sync(&a, &b, &x0, &shared)),
            ),
            (
                "dist-sync",
                panic_message(&|| run_dist_sync(&a, &b, &x0, &p, &dist)),
            ),
        ] {
            assert!(message.starts_with("zero diagonal"), "{engine}: {message}");
        }
    }

    #[test]
    #[should_panic(expected = "Gauss-Seidel")]
    fn non_jacobi_method_rejects_gauss_seidel_local_solve() {
        let (a, b, x0) = problem(6, 6);
        let p = block_partition(a.nrows(), 2);
        let mut cfg = DistConfig::new(a.nrows(), 1);
        cfg.local_solve = LocalSolve::GaussSeidel;
        cfg.method = ResolvedMethod::Richardson2 {
            omega: 1.0,
            beta: 0.3,
        };
        run_dist_async(&a, &b, &x0, &p, &cfg);
    }

    #[test]
    fn momentum_converges_under_faults_distributed() {
        // The fault path (crash + lossy links) composes with momentum: the
        // recovered rank restarts from its last committed x and x_prev.
        use crate::fault::{CrashFault, FaultPlan, LinkFault};
        let (a, b, x0) = problem(12, 12);
        let p = block_partition(a.nrows(), 6);
        let mut cfg = DistConfig::new(a.nrows(), 21);
        cfg.method = ResolvedMethod::Richardson2 {
            omega: 1.0,
            beta: 0.2,
        };
        let mut fp = FaultPlan::new(77);
        fp.crashes.push(CrashFault {
            rank: 2,
            at: 400.0,
            recover_after: Some(2_000.0),
        });
        fp.links.push(LinkFault {
            from: Some(1),
            to: None,
            drop: 0.2,
            duplicate: 0.1,
            reorder: 0.1,
            latency_factor: 2.0,
        });
        cfg.faults = Some(fp);
        let out = run_dist_async(&a, &b, &x0, &p, &cfg);
        assert!(out.converged, "residual {}", out.final_residual());
        let fs = out.faults.expect("fault stats recorded");
        assert_eq!(fs.crash_times.len(), 1);
    }
}
