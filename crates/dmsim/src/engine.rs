//! What the simulated engines share around their sweeps.
//!
//! The shared-memory (§V) and distributed (§VI) simulators differ only in
//! how a relaxation reads its neighbours: a block of the one shared array,
//! or a rank's window plus the puts that fill it. Everything around that
//! read lives here once: sweep pacing ([`Pacing`]), the event queue and
//! its time horizon, the per-worker commit clock that the obs histograms
//! and the controller both read ([`CommitClock`]), the controller's
//! staleness sample, and the outcome with its obs snapshot
//! ([`AsyncRun`]). The lock-step and row-wise loops use the pacing, the
//! queue, the stop test and the outcome too.

use crate::cost::{CostModel, WorkerJitter, TICK_SCALE};
use crate::event::EventQueue;
use crate::monitor::{CommVolume, ResidualMonitor, SimOutcome};
use crate::obsrec::{decision_kind, EngineObs};
use crate::shmem_sim::{SimDelay, StopRule};
use aj_control::{ControlSpec, Controller, Observation};
use aj_linalg::method::{ResolvedMethod, SyncStep};
use aj_linalg::vecops::Norm;
use aj_linalg::{sweeps, CsrMatrix, SweepKernel};
use aj_obs::{ObsConfig, SpanKind};

/// Whole event ticks for a duration in simulated time, at least one.
pub(crate) fn ticks(duration: f64) -> u64 {
    (duration * TICK_SCALE).max(1.0) as u64
}

/// What the loops read from a simulator's configuration.
#[derive(Clone, Copy)]
pub(crate) struct Spec {
    /// The configured method, named in the obs snapshot.
    pub configured: ResolvedMethod,
    /// The method the sweeps start with: the configured one with the
    /// legacy ω folded in.
    pub method: ResolvedMethod,
    pub norm: Norm,
    pub tol: f64,
    pub sample_every: u64,
    pub stop: StopRule,
    pub max_time: f64,
    pub max_iterations: u64,
    pub cost: CostModel,
    pub delay: Option<SimDelay>,
    pub obs: ObsConfig,
    pub control: Option<ControlSpec>,
}

/// The [`Spec`] of a [`ShmemSimConfig`](crate::ShmemSimConfig) or a
/// [`DistConfig`](crate::DistConfig), which name these fields alike.
macro_rules! spec {
    ($config:expr) => {
        $crate::engine::Spec {
            configured: $config.method,
            method: $config.method.fold_omega($config.omega),
            norm: $config.norm,
            tol: $config.tol,
            sample_every: $config.sample_every,
            stop: $config.stop,
            max_time: $config.max_time,
            max_iterations: $config.max_iterations,
            cost: $config.cost,
            delay: $config.delay,
            obs: $config.obs,
            control: $config.control,
        }
    };
}
pub(crate) use spec;

impl Spec {
    /// The run's residual monitor; it takes no samples under
    /// [`StopRule::Unmonitored`].
    pub fn monitor<'a>(&self, a: &'a CsrMatrix, b: &'a [f64]) -> ResidualMonitor<'a> {
        ResidualMonitor::new(a, b, self.norm, self.tol, self.sample_every)
            .with_samples(self.stop != StopRule::Unmonitored)
    }
}

/// How long sweeps take: the cost model's charge for the nonzeros a
/// worker's sweep streams, times the worker's jitter stream and a compute
/// slowdown, plus the injected delay on the delayed worker.
pub(crate) struct Pacing {
    cost: CostModel,
    delay: Option<SimDelay>,
    jitters: Vec<WorkerJitter>,
    /// Nonzeros each worker's sweep streams.
    nnz: Vec<usize>,
    /// Compute slowdown: oversubscription in the lock-step and row-wise
    /// shared-memory engines, 1 in the others.
    slowdown: f64,
}

impl Pacing {
    /// Pacing for one worker per entry of `nnz`.
    pub fn new(spec: &Spec, nnz: Vec<usize>, slowdown: f64) -> Pacing {
        Pacing {
            cost: spec.cost,
            delay: spec.delay,
            jitters: (0..nnz.len())
                .map(|w| WorkerJitter::new(&spec.cost.jitter, w))
                .collect(),
            nnz,
            slowdown,
        }
    }

    /// Simulated duration of worker `w`'s next sweep.
    pub fn sweep(&mut self, w: usize) -> f64 {
        let f = self.jitters[w].next_factor();
        self.delayed(w, self.cost.sweep_cost(self.nnz[w]) * f * self.slowdown)
    }

    /// The slowest of one lock-step iteration's sweeps.
    pub fn slowest(&mut self) -> f64 {
        (0..self.nnz.len()).fold(0.0, |slowest, w| slowest.max(self.sweep(w)))
    }

    /// Worker `w`'s next row-wise window: the per-iteration overhead with
    /// the injected delay, and the nonzero work (at least one tick), both
    /// scaled by one jitter draw and the slowdown.
    pub fn window(&mut self, w: usize) -> (f64, f64) {
        let f = self.jitters[w].next_factor() * self.slowdown;
        let compute = (self.cost.per_nonzero * self.nnz[w] as f64 * f).max(1.0);
        (self.delayed(w, self.cost.per_iteration * f), compute)
    }

    /// `duration` plus the injected delay when `w` is the delayed worker.
    fn delayed(&self, w: usize, duration: f64) -> f64 {
        match self.delay {
            Some(d) if d.worker == w => duration + d.extra_ticks,
            _ => duration,
        }
    }
}

/// Each worker's latest commit tick and the gap before it: what the obs
/// sweep-period histograms and the controller's staleness measure read.
pub(crate) struct CommitClock {
    /// Latest commit per worker; `None` before its first.
    last: Vec<Option<u64>>,
    /// Gap between each worker's latest two commits, its first counted
    /// from tick 0; 0 before its first.
    period: Vec<u64>,
}

impl CommitClock {
    fn new(workers: usize) -> CommitClock {
        CommitClock {
            last: vec![None; workers],
            period: vec![0; workers],
        }
    }

    /// Tick of `w`'s latest commit, 0 before its first.
    fn last(&self, w: usize) -> u64 {
        self.last[w].unwrap_or(0)
    }

    /// The controller's staleness at `tick`: the oldest live worker's
    /// commit age in units of the fastest live worker's sweep period, and
    /// that worker (0 while no live worker has a period). Both engines
    /// measure this same coarse quantity, so their decision sequences
    /// conform.
    fn staleness(&self, tick: u64, shed: impl Fn(usize) -> bool) -> (f64, usize) {
        let live = || (0..self.last.len()).filter(|&v| !shed(v));
        let mut worst = (0.0, 0);
        let fastest = live().map(|v| self.period[v]).filter(|&p| p > 0).min();
        if let Some(fast) = fastest {
            for v in live() {
                let age = (tick - self.last(v)) as f64 / fast as f64;
                if age > worst.0 {
                    worst = (age, v);
                }
            }
        }
        worst
    }
}

/// Where the data a sweep read was generated, for its obs staleness
/// samples: each value's age is the commit tick minus its generation tick.
pub(crate) enum Reads<'s> {
    /// Shared memory: `neighbours[w]` lists the workers whose values `w`'s
    /// rows read, visible the instant each commits.
    Commits(&'s [Vec<usize>]),
    /// Distributed memory: rank `w`'s ghost values, stamped with the
    /// generating sweep's tick at `stamps[base[w]..base[w + 1]]`.
    Stamps(&'s [u64], &'s [usize]),
}

/// The state an asynchronous engine keeps around its sweeps.
pub(crate) struct AsyncRun<'a, E> {
    pub queue: EventQueue<E>,
    pacing: Pacing,
    pub monitor: ResidualMonitor<'a>,
    pub obs: Option<EngineObs>,
    ctrl: Option<Controller>,
    /// Kept only while obs or the controller reads it.
    clock: Option<CommitClock>,
    /// The method each sweep runs; controller decisions retune it.
    pub method: ResolvedMethod,
    pub relaxations: u64,
    /// Simulated time of the latest event.
    pub now: f64,
    /// Set once the stop rule holds or the controller asks for a rescue.
    pub done: bool,
    spec: Spec,
}

impl<'a, E> AsyncRun<'a, E> {
    /// A run of one worker per entry of `nnz`, the nonzeros its sweep
    /// streams.
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], spec: Spec, nnz: Vec<usize>) -> Self {
        let workers = nnz.len();
        let obs = EngineObs::new(&spec.obs, workers);
        let ctrl = spec
            .control
            .map(|c| Controller::new(c.cfg, spec.method, c.interval));
        AsyncRun {
            queue: EventQueue::new(),
            pacing: Pacing::new(&spec, nnz, 1.0),
            monitor: spec.monitor(a, b),
            clock: (obs.is_some() || ctrl.is_some()).then(|| CommitClock::new(workers)),
            obs,
            ctrl,
            method: spec.method,
            relaxations: 0,
            now: 0.0,
            done: false,
            spec,
        }
    }

    /// Queues `event`, worker `w`'s next sweep, one sweep after `tick`.
    pub fn schedule(&mut self, w: usize, tick: u64, event: E) {
        let at = tick + ticks(self.pacing.sweep(w));
        self.queue.push(at, event);
    }

    /// The next event, unless the run is done or the event lies past the
    /// time horizon; the clock then stays at the last event handled.
    pub fn next(&mut self) -> Option<(u64, E)> {
        if self.done {
            return None;
        }
        let (tick, event) = self.queue.pop_until(self.spec.max_time)?;
        self.now = tick as f64 / TICK_SCALE;
        Some((tick, event))
    }

    /// Books worker `w`'s commit at `tick` on the clock and, when the obs
    /// sampler hits, records the age of each value `reads` names, the gap
    /// since `w`'s previous commit and a sweep-end span.
    pub fn commit(&mut self, w: usize, tick: u64, reads: Reads) {
        let Some(clock) = self.clock.as_mut() else {
            return;
        };
        if let Some(o) = self.obs.as_mut() {
            if o.sweep_sampler.hit() {
                match reads {
                    Reads::Commits(neighbours) => {
                        for &v in &neighbours[w] {
                            o.staleness[w].record(tick - clock.last(v));
                        }
                    }
                    Reads::Stamps(stamps, base) => {
                        for &generated in &stamps[base[w]..base[w + 1]] {
                            o.staleness[w].record(tick - generated);
                        }
                    }
                }
                if let Some(prev) = clock.last[w] {
                    o.sweep_period[w].record(tick - prev);
                }
                o.event(w, tick, SpanKind::SweepEnd);
            }
        }
        clock.period[w] = tick - clock.last(w);
        clock.last[w] = Some(tick);
    }

    /// Offers the monitor a sample of `x` at the current time and, when it
    /// takes one, gives the controller its observation: a decision retunes
    /// the method, and a rescue request ends the run. Returns whether the
    /// tolerance has been met.
    pub fn observe(&mut self, tick: u64, x: &[f64], kernels: &[SweepKernel]) -> bool {
        let (Some(c), Some(clock)) = (self.ctrl.as_mut(), &self.clock) else {
            return self.monitor.observe(self.now, self.relaxations, x, kernels);
        };
        let samples = self.monitor.samples().len();
        let hit_tol = self.monitor.observe(self.now, self.relaxations, x, kernels);
        if let Some(sample) = self.monitor.samples().get(samples) {
            let (staleness, worst) = clock.staleness(tick, |v| c.is_shed(v));
            if let Some(d) = c.observe(Observation {
                residual: sample.residual,
                staleness,
                worst,
            }) {
                self.method = Controller::retune(self.method, &d);
                if let Some(o) = self.obs.as_mut() {
                    o.event(0, tick, decision_kind(&d));
                }
                self.done |= c.rescue_requested();
            }
        }
        hit_tol
    }

    /// Takes the final sample of `x` and assembles the outcome, with the
    /// controller's record and an obs snapshot that counts the workers
    /// under `workers_key`.
    pub fn finish(
        mut self,
        x: Vec<f64>,
        kernels: &[SweepKernel],
        iterations: Vec<u64>,
        workers_key: &str,
        comm: Option<&CommVolume>,
    ) -> SimOutcome {
        self.monitor
            .finalize(self.now, self.relaxations, &x, kernels);
        let mut out = SimOutcome::new(self.monitor, x, self.now, self.relaxations, iterations);
        out.obs = self.obs.map(|o| {
            let mut snap = o.into_snapshot(comm);
            snap.set_counter("relaxations", out.relaxations);
            snap.set_counter(&format!("method/{}", self.spec.configured.name()), 1);
            snap.set_counter(workers_key, out.worker_iterations.len() as u64);
            snap.set_gauge("sim_time", out.time);
            snap.set_gauge("final_residual", out.final_residual());
            snap
        });
        out.control = self.ctrl.map(Controller::into_stats);
        out
    }
}

/// The loop both synchronous simulators run: one whole-matrix
/// [`SyncStep`] per iteration, `duration()` simulated ticks each, for
/// `workers` workers or ranks. The monitor samples the residual the step
/// relaxes from, so a run of `k` iterations takes `k + 1` residual passes
/// (`k` under [`StopRule::Unmonitored`]) and is bit-identical to
/// [`aj_linalg::method::method_solve`]. Panics on a zero diagonal, as the
/// block engines do.
pub(crate) fn run_lockstep(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    spec: &Spec,
    workers: usize,
    mut duration: impl FnMut() -> f64,
) -> SimOutcome {
    let diag_inv = sweeps::inverse_diagonal(a).expect("zero diagonal");
    let mut step = SyncStep::new(a, b, &diag_inv, spec.method, x0);
    let mut monitor = spec.monitor(a, b);
    monitor.observe_step(0.0, 0, &mut step);
    let mut now = 0.0f64;
    let mut iters = 0u64;
    let mut relaxations = 0u64;
    loop {
        let stop = spec.stop.met(monitor.converged(), [iters]);
        if stop || iters >= spec.max_iterations {
            break;
        }
        // An iteration that would end past the horizon does not run.
        let end = now + duration();
        if end > spec.max_time {
            break;
        }
        now = end;
        relaxations += step.step() as u64;
        iters += 1;
        monitor.observe_step(now, relaxations, &mut step);
    }
    monitor.finalize_step(now, relaxations, &mut step);
    let x = step.into_x();
    SimOutcome::new(monitor, x, now, relaxations, vec![iters; workers])
}
