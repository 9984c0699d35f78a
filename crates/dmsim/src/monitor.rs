//! Residual monitoring for simulated runs.
//!
//! The figures need two x-axes: *relaxations / n* (Figures 6, 7, 9) and
//! *wall-clock (simulated) time* (Figures 4, 5, 8). The monitor samples the
//! true global residual whenever the run crosses a relaxation-count
//! checkpoint, recording both coordinates.

use aj_linalg::method::SyncStep;
use aj_linalg::vecops::{self, Norm};
use aj_linalg::{CsrMatrix, StorageFormat, SweepKernel};

/// One residual sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time in ticks.
    pub time: f64,
    /// Total relaxations performed so far, divided by `n`.
    pub relaxations_per_n: f64,
    /// Relative residual `‖b − Ax‖ / ‖b‖`.
    pub residual: f64,
}

/// Outcome of a simulated run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Residual samples in time order (first entry is the initial state).
    pub samples: Vec<Sample>,
    /// Final iterate.
    pub x: Vec<f64>,
    /// Simulated finish time (ticks).
    pub time: f64,
    /// Total row relaxations.
    pub relaxations: u64,
    /// Iterations per worker.
    pub worker_iterations: Vec<u64>,
    /// True on tolerance-met termination.
    pub converged: bool,
    /// Termination-detection statistics, when the distributed protocol ran
    /// (see [`crate::termination`]); `None` for oracle-monitored runs.
    pub termination: Option<crate::termination::TerminationStats>,
    /// Communication accounting (distributed runs; zeros in shared memory).
    pub comm: CommVolume,
    /// Fault-injection accounting, when a non-empty
    /// [`crate::fault::FaultPlan`] was configured; `None` for clean runs.
    pub faults: Option<crate::fault::FaultStats>,
    /// Observability snapshot (staleness histograms, timelines, comm
    /// counters), when the config's [`aj_obs::ObsConfig`] enabled
    /// recording; `None` for un-instrumented runs.
    pub obs: Option<aj_obs::Snapshot>,
    /// Closed-loop controller summary (decision timeline, final
    /// parameters), when a controller was configured; `None` for
    /// uncontrolled runs — the default, which is bit-identical to the
    /// pre-controller engines.
    pub control: Option<aj_control::ControlStats>,
}

/// Message/volume counters for distributed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommVolume {
    /// One-sided puts issued.
    pub puts: u64,
    /// Total values carried by those puts.
    pub values: u64,
    /// Puts lost to link faults (never delivered).
    pub drops: u64,
    /// Extra deliveries injected by link duplication faults.
    pub duplicates: u64,
    /// Puts delivered out of issue order by link reordering faults.
    pub reorders: u64,
}

impl SimOutcome {
    /// The outcome of a run that stopped at `time` with iterate `x`: the
    /// monitor's samples and verdict, and no protocol, communication,
    /// fault, obs or controller record (the engines that keep one add it).
    pub(crate) fn new(
        monitor: ResidualMonitor,
        x: Vec<f64>,
        time: f64,
        relaxations: u64,
        worker_iterations: Vec<u64>,
    ) -> SimOutcome {
        SimOutcome {
            converged: monitor.converged(),
            samples: monitor.into_samples(),
            x,
            time,
            relaxations,
            worker_iterations,
            termination: None,
            comm: CommVolume::default(),
            faults: None,
            obs: None,
            control: None,
        }
    }

    /// First simulated time at which the sampled residual fell below `tol`.
    pub fn time_to_tolerance(&self, tol: f64) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.residual < tol)
            .map(|s| s.time)
    }

    /// First relaxations/n at which the sampled residual fell below `tol`.
    pub fn relaxations_to_tolerance(&self, tol: f64) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.residual < tol)
            .map(|s| s.relaxations_per_n)
    }

    /// Final sampled residual.
    pub fn final_residual(&self) -> f64 {
        self.samples.last().map_or(f64::NAN, |s| s.residual)
    }

    /// Simulated time at which the residual first dropped below
    /// `factor × initial residual`, linearly interpolated on
    /// `log10(residual)` as the paper does for its Figure 8 wall-clock
    /// numbers. `None` when the run never got there.
    pub fn time_to_reduction(&self, factor: f64) -> Option<f64> {
        let target = self.samples.first()?.residual * factor;
        if target <= 0.0 {
            return None;
        }
        let lt = target.log10();
        let mut prev = self.samples.first()?;
        if prev.residual <= target {
            return Some(prev.time);
        }
        for s in &self.samples[1..] {
            if s.residual <= target {
                // An exact-zero sample has no log10; its own time is the
                // best crossing estimate (same guard as
                // `aj_core::interp::crossing_log10`). Without it the -inf
                // weight collapses to -0.0 and the *previous* sample's time
                // is returned.
                if s.residual <= 0.0 {
                    return Some(s.time);
                }
                let (l0, l1) = (prev.residual.log10(), s.residual.log10());
                if (l1 - l0).abs() < 1e-300 {
                    return Some(s.time);
                }
                let w = (lt - l0) / (l1 - l0);
                return Some(prev.time + w * (s.time - prev.time));
            }
            prev = s;
        }
        None
    }
}

/// One CSR kernel over the whole matrix, for engines that sweep without
/// block kernels: it keeps their monitor on the fused residual pass.
pub(crate) fn whole_csr_kernel(a: &CsrMatrix) -> [SweepKernel; 1] {
    [SweepKernel::build(a, 0..a.nrows(), StorageFormat::Csr).expect("rows 0..n are in range")]
}

/// Samples the residual every `sample_every` relaxations.
#[derive(Debug)]
pub struct ResidualMonitor<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    nb: f64,
    norm: Norm,
    tol: f64,
    sample_every: u64,
    next_checkpoint: u64,
    samples: Vec<Sample>,
    converged: bool,
    /// Row residuals of a SELL sample; empty until the first one, so runs
    /// on the fused CSR path never allocate it.
    scratch: Vec<f64>,
    /// Whether checkpoints take samples; see [`Self::with_samples`].
    sampling: bool,
    /// Checkpoints crossed so far, sampled or not.
    checkpoints: usize,
}

impl<'a> ResidualMonitor<'a> {
    /// Creates a monitor; `sample_every` is in units of row relaxations
    /// (a value around `n` samples once per "global iteration equivalent").
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], norm: Norm, tol: f64, sample_every: u64) -> Self {
        let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
        ResidualMonitor {
            a,
            b,
            nb,
            norm,
            tol,
            sample_every: sample_every.max(1),
            next_checkpoint: 0,
            samples: Vec::new(),
            converged: false,
            scratch: Vec::new(),
            sampling: true,
            checkpoints: 0,
        }
    }

    /// Switches sampling on or off. A monitor without samples keeps its
    /// checkpoint grid ([`Self::checkpoints`]) but computes no residual,
    /// records nothing and never converges: the run of a
    /// [`StopRule::Unmonitored`](crate::shmem_sim::StopRule::Unmonitored)
    /// engine, whose caller measures the residual itself.
    pub(crate) fn with_samples(mut self, sampling: bool) -> Self {
        self.sampling = sampling;
        self
    }

    /// Checkpoints crossed so far, whether or not they were sampled. While
    /// sampling, every checkpoint is one sample.
    pub(crate) fn checkpoints(&self) -> usize {
        self.checkpoints
    }

    /// Whether the tolerance has been observed.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Samples collected so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Consumes the monitor, returning its samples.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }

    /// Called by simulators after relaxations were performed; takes a sample
    /// when a checkpoint is crossed. Returns `true` when the tolerance has
    /// been met (the caller decides whether to stop).
    ///
    /// `kernels` are the engine's sweep kernels over rows `0..n`, in order.
    /// When every kernel is SELL-C-σ a sample runs them and takes the norm
    /// in row order, with the bits of the fused CSR pass; otherwise it takes
    /// the fused [`CsrMatrix::residual_norm`]. Between checkpoints the call
    /// only compares two counters.
    ///
    /// # Panics
    /// Panics at a sample unless `kernels` cover rows `0..n` in order.
    pub fn observe(
        &mut self,
        time: f64,
        total_relaxations: u64,
        x: &[f64],
        kernels: &[SweepKernel],
    ) -> bool {
        if self.checkpoint(total_relaxations) {
            let res = self.relative_residual(x, kernels);
            self.record(time, total_relaxations, res);
        }
        self.converged
    }

    /// [`Self::observe`] for a synchronous engine: a sample takes the norm
    /// of the residual `step` computes for its own update, which has the
    /// bits of the fused pass, instead of a pass of its own.
    pub(crate) fn observe_step(
        &mut self,
        time: f64,
        total_relaxations: u64,
        step: &mut SyncStep,
    ) -> bool {
        if self.checkpoint(total_relaxations) {
            let res = vecops::norm(step.residual(), self.norm) / self.nb;
            self.record(time, total_relaxations, res);
        }
        self.converged
    }

    /// Final sample at termination time. Skipped when `observe` already
    /// sampled this exact state (same time and relaxation count) — the
    /// residual is a pure function of `x`, so sampling again would only
    /// duplicate the last entry. `kernels` as for [`Self::observe`].
    pub fn finalize(
        &mut self,
        time: f64,
        total_relaxations: u64,
        x: &[f64],
        kernels: &[SweepKernel],
    ) {
        if self.final_sample_due(time, total_relaxations) {
            let res = self.relative_residual(x, kernels);
            self.record(time, total_relaxations, res);
        }
    }

    /// [`Self::finalize`] for a synchronous engine, as
    /// [`Self::observe_step`] is for `observe`.
    pub(crate) fn finalize_step(&mut self, time: f64, total_relaxations: u64, step: &mut SyncStep) {
        if self.final_sample_due(time, total_relaxations) {
            let res = vecops::norm(step.residual(), self.norm) / self.nb;
            self.record(time, total_relaxations, res);
        }
    }

    /// Whether `total_relaxations` crosses a checkpoint; advances the grid
    /// when it does. True only while sampling.
    fn checkpoint(&mut self, total_relaxations: u64) -> bool {
        if total_relaxations < self.next_checkpoint {
            return false;
        }
        // Snap to the next multiple of `sample_every` so a burst of
        // relaxations (one big sweep crossing a checkpoint) cannot
        // shift the sampling grid; sync and async runs of the same
        // config then sample on the same relaxation grid.
        self.next_checkpoint = (total_relaxations / self.sample_every + 1) * self.sample_every;
        self.checkpoints += 1;
        self.sampling
    }

    /// Whether the final state still needs a sample: sampling is on and
    /// the last sample is not of this exact state.
    fn final_sample_due(&self, time: f64, total_relaxations: u64) -> bool {
        let relaxations_per_n = total_relaxations as f64 / self.a.nrows() as f64;
        self.sampling
            && self
                .samples
                .last()
                .is_none_or(|last| last.time != time || last.relaxations_per_n != relaxations_per_n)
    }

    fn record(&mut self, time: f64, total_relaxations: u64, residual: f64) {
        self.samples.push(Sample {
            time,
            relaxations_per_n: total_relaxations as f64 / self.a.nrows() as f64,
            residual,
        });
        if residual < self.tol {
            self.converged = true;
        }
    }

    /// `‖b − Ax‖ / ‖b‖` for one sample.
    ///
    /// When every kernel is SELL-C-σ, their row residuals fill the scratch
    /// block by block and the norm runs over it in row order. A SELL row
    /// equals the CSR row up to the sign of a zero, which `|·|` and
    /// squaring erase, so the sample has the bits of the fused path. CSR
    /// kernels take the fused [`CsrMatrix::residual_norm`], which
    /// allocates nothing.
    ///
    /// # Panics
    /// Panics unless `kernels` cover rows `0..n` in order.
    fn relative_residual(&mut self, x: &[f64], kernels: &[SweepKernel]) -> f64 {
        let n = self.a.nrows();
        let mut next = 0;
        for k in kernels.iter() {
            assert_eq!(k.rows().start, next, "monitor kernels must tile rows 0..n");
            next = k.rows().end;
        }
        assert_eq!(next, n, "monitor kernels must cover rows 0..n");
        let sell = |k: &SweepKernel| matches!(k.format(), StorageFormat::SellC { .. });
        let residual = if n > 0 && kernels.iter().all(sell) {
            self.scratch.resize(n, 0.0);
            for k in kernels {
                let rows = k.rows();
                k.residuals_into(self.a, x, &self.b[rows.clone()], &mut self.scratch[rows]);
            }
            vecops::norm(&self.scratch, self.norm)
        } else {
            self.a.residual_norm(x, self.b, self.norm)
        };
        residual / self.nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::fd;

    /// One whole-matrix kernel in `format`.
    fn whole(a: &CsrMatrix, format: StorageFormat) -> Vec<SweepKernel> {
        vec![SweepKernel::build(a, 0..a.nrows(), format).unwrap()]
    }

    #[test]
    fn monitor_samples_at_checkpoints() {
        let a = fd::laplacian_1d(4);
        let b = vec![1.0; 4];
        let x = vec![0.0; 4];
        let mut m = ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 8);
        let k = whole(&a, StorageFormat::Csr);
        assert!(!m.observe(0.0, 0, &x, &k)); // initial sample at checkpoint 0
        assert_eq!(m.samples().len(), 1);
        assert!(!m.observe(1.0, 4, &x, &k)); // below next checkpoint: no sample
        assert_eq!(m.samples().len(), 1);
        assert!(!m.observe(2.0, 8, &x, &k));
        assert_eq!(m.samples().len(), 2);
    }

    #[test]
    fn finalize_skips_duplicate_of_last_observed_sample() {
        let a = fd::laplacian_1d(4);
        let b = vec![1.0; 4];
        let x = vec![0.0; 4];
        let mut m = ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 4);
        let k = whole(&a, StorageFormat::Csr);
        m.observe(0.0, 0, &x, &k);
        m.observe(2.5, 8, &x, &k); // checkpoint sample at (t=2.5, 8 relaxations)
        assert_eq!(m.samples().len(), 2);
        // Terminating at the exact state just sampled adds nothing…
        m.finalize(2.5, 8, &x, &k);
        assert_eq!(m.samples().len(), 2, "duplicate final sample");
        // …but terminating later (same time, more relaxations — or vice
        // versa) still records the true final state.
        m.finalize(2.5, 9, &x, &k);
        assert_eq!(m.samples().len(), 3);
        let (s2, s3) = (m.samples()[1], m.samples()[2]);
        assert_eq!(s2.residual, s3.residual);
        assert!(s3.relaxations_per_n > s2.relaxations_per_n);
    }

    #[test]
    fn monitor_detects_convergence() {
        let a = fd::laplacian_1d(3);
        let b = a.spmv(&[1.0, 1.0, 1.0]);
        let mut m = ResidualMonitor::new(&a, &b, Norm::L1, 1e-8, 1);
        let k = whole(&a, StorageFormat::Csr);
        assert!(m.observe(0.0, 0, &[1.0, 1.0, 1.0], &k));
        assert!(m.converged());
    }

    /// Four SELL blocks of uneven length over a 2-D Laplacian whose border
    /// rows are shorter than its interior rows, so every chunk pads.
    fn sell_blocks(a: &CsrMatrix, c: usize) -> Vec<SweepKernel> {
        aj_linalg::util::even_ranges(a.nrows(), 4)
            .into_iter()
            .map(|r| SweepKernel::build(a, r, StorageFormat::SellC { c }).unwrap())
            .collect()
    }

    #[test]
    fn sell_samples_have_the_bits_of_the_fused_csr_samples() {
        let a = fd::laplacian_2d(9, 7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) as f64 * 0.41).cos()).collect();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + 11) as f64 * 0.62).sin())
            .collect();
        for norm in [Norm::L1, Norm::L2, Norm::Inf] {
            let mut csr = ResidualMonitor::new(&a, &b, norm, 1e-10, 1);
            csr.observe(0.0, 0, &x, &whole(&a, StorageFormat::Csr));
            for c in aj_linalg::kernel::SELL_LANE_CHOICES {
                let mut sell = ResidualMonitor::new(&a, &b, norm, 1e-10, 1);
                sell.observe(0.0, 0, &x, &sell_blocks(&a, c));
                sell.finalize(1.0, 1, &x, &whole(&a, StorageFormat::SellC { c }));
                for s in sell.samples() {
                    assert_eq!(
                        s.residual.to_bits(),
                        csr.samples()[0].residual.to_bits(),
                        "{norm:?}, sellc:c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_sell_samples_allocate_the_scratch() {
        let a = fd::laplacian_2d(6, 5);
        let b = vec![1.0; a.nrows()];
        let x = vec![0.25; a.nrows()];
        let mut m = ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 1);
        m.observe(0.0, 0, &x, &whole(&a, StorageFormat::Csr));
        m.finalize(1.0, 1, &x, &whole(&a, StorageFormat::Csr));
        assert_eq!(m.scratch.capacity(), 0);
        assert_eq!(
            m.samples()[1].residual.to_bits(),
            (a.residual_norm(&x, &b, Norm::L1) / m.nb).to_bits()
        );
        let mut m = ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 1);
        assert_eq!(
            m.scratch.capacity(),
            0,
            "no scratch before the first sample"
        );
        m.observe(0.0, 0, &x, &sell_blocks(&a, 8));
        assert_eq!(m.scratch.len(), a.nrows());
    }

    #[test]
    fn an_all_nan_iterate_never_converges_in_the_inf_norm() {
        let a = fd::laplacian_2d(5, 5);
        let b = vec![1.0; a.nrows()];
        let x = vec![f64::NAN; a.nrows()];
        for format in [StorageFormat::Csr, StorageFormat::SellC { c: 8 }] {
            let mut m = ResidualMonitor::new(&a, &b, Norm::Inf, 1e-3, 1);
            assert!(!m.observe(0.0, 0, &x, &whole(&a, format)), "{format}");
            m.finalize(1.0, 1, &x, &whole(&a, format));
            assert!(!m.converged(), "{format}");
            assert!(m.samples().iter().all(|s| s.residual.is_nan()), "{format}");
        }
    }

    #[test]
    #[should_panic(expected = "must cover rows")]
    fn kernels_that_miss_rows_are_rejected() {
        let a = fd::laplacian_1d(6);
        let b = vec![1.0; 6];
        let k = vec![SweepKernel::build(&a, 0..4, StorageFormat::SellC { c: 2 }).unwrap()];
        ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 1).observe(0.0, 0, &[0.0; 6], &k);
    }

    #[test]
    #[should_panic(expected = "must tile rows")]
    fn kernels_out_of_order_are_rejected() {
        let a = fd::laplacian_1d(6);
        let b = vec![1.0; 6];
        let k: Vec<SweepKernel> = [3..6, 0..3]
            .into_iter()
            .map(|r| SweepKernel::build(&a, r, StorageFormat::Csr).unwrap())
            .collect();
        ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 1).observe(0.0, 0, &[0.0; 6], &k);
    }

    #[test]
    fn time_to_reduction_interpolates_logarithmically() {
        let outcome = SimOutcome {
            samples: vec![
                Sample {
                    time: 0.0,
                    relaxations_per_n: 0.0,
                    residual: 1.0,
                },
                Sample {
                    time: 10.0,
                    relaxations_per_n: 1.0,
                    residual: 1e-2,
                },
            ],
            x: vec![],
            time: 10.0,
            relaxations: 0,
            worker_iterations: vec![],
            converged: true,
            termination: None,
            comm: CommVolume::default(),
            faults: None,
            obs: None,
            control: None,
        };
        // 10× reduction on a log-linear path from 1 to 1e-2 over t∈[0,10]
        // happens exactly at t = 5.
        let t = outcome.time_to_reduction(0.1).unwrap();
        assert!((t - 5.0).abs() < 1e-12, "t = {t}");
        // Unreachable factor.
        assert!(outcome.time_to_reduction(1e-6).is_none());
    }

    #[test]
    fn time_to_reduction_handles_exact_zero_samples() {
        // A sample whose residual is exactly 0.0 has log10 = -inf; the
        // crossing must be reported at that sample's own time, not the
        // previous sample's.
        let outcome = SimOutcome {
            samples: vec![
                Sample {
                    time: 0.0,
                    relaxations_per_n: 0.0,
                    residual: 1.0,
                },
                Sample {
                    time: 4.0,
                    relaxations_per_n: 1.0,
                    residual: 0.5,
                },
                Sample {
                    time: 10.0,
                    relaxations_per_n: 2.0,
                    residual: 0.0,
                },
            ],
            x: vec![],
            time: 10.0,
            relaxations: 0,
            worker_iterations: vec![],
            converged: true,
            termination: None,
            comm: CommVolume::default(),
            faults: None,
            obs: None,
            control: None,
        };
        assert_eq!(outcome.time_to_reduction(0.1), Some(10.0));
    }

    #[test]
    fn observe_snaps_checkpoints_to_the_sample_grid() {
        // A burst crossing a checkpoint must not shift the grid: after
        // observing at 13 relaxations (grid 8), the next checkpoint is 16,
        // not 13 + 8 = 21.
        let a = fd::laplacian_1d(4);
        let b = vec![1.0; 4];
        let x = vec![0.0; 4];
        let mut m = ResidualMonitor::new(&a, &b, Norm::L1, 1e-10, 8);
        let k = whole(&a, StorageFormat::Csr);
        m.observe(0.0, 0, &x, &k);
        m.observe(1.0, 13, &x, &k); // burst past checkpoint 8
        assert_eq!(m.samples().len(), 2);
        m.observe(2.0, 16, &x, &k); // grid-aligned checkpoint still fires
        assert_eq!(m.samples().len(), 3, "grid must stay on multiples of 8");
        m.observe(3.0, 17, &x, &k); // off-grid, below next checkpoint 24
        assert_eq!(m.samples().len(), 3);
    }

    #[test]
    fn outcome_tolerance_queries() {
        let outcome = SimOutcome {
            samples: vec![
                Sample {
                    time: 0.0,
                    relaxations_per_n: 0.0,
                    residual: 1.0,
                },
                Sample {
                    time: 3.0,
                    relaxations_per_n: 2.0,
                    residual: 1e-4,
                },
            ],
            x: vec![],
            time: 3.0,
            relaxations: 8,
            worker_iterations: vec![4, 4],
            converged: true,
            termination: None,
            comm: CommVolume::default(),
            faults: None,
            obs: None,
            control: None,
        };
        assert_eq!(outcome.time_to_tolerance(1e-3), Some(3.0));
        assert_eq!(outcome.relaxations_to_tolerance(1e-3), Some(2.0));
        assert_eq!(outcome.time_to_tolerance(1e-9), None);
        assert_eq!(outcome.final_residual(), 1e-4);
    }
}
