//! Distributed termination detection (the paper's §VI future work).
//!
//! The paper's distributed solver stops after a fixed iteration count
//! because "if it is desired that some global criteria is met … a more
//! sophisticated scheme must be employed. … we leave this latter topic for
//! future research." This module supplies that scheme for the simulator.
//!
//! ## Protocol
//!
//! A root rank (0) aggregates periodic asynchronous residual reports:
//!
//! 1. every `check_interval` local iterations, each rank computes the
//!    L1-norm contribution of its *owned* residual rows (using its current
//!    ghost values) and sends it to the root — one small message, no
//!    barrier, no synchronisation of iteration counts;
//! 2. the root keeps the latest report per rank; once a **complete round**
//!    is in — a fresh report from every rank considered alive since the
//!    previous round was judged — it sums the latest norms, and the first
//!    round with `Σ ‖r_owned‖₁ < ½·tol·‖b‖₁` makes it broadcast a stop
//!    message;
//! 3. a rank receiving the stop finishes its in-flight sweep and retires.
//!
//! Judging *rounds* rather than *reports* matters: reports arrive one at a
//! time, and a round's sum must hold a report from every live rank, not
//! two reports from one of them.
//!
//! ## Staleness timeouts and dead-rank exclusion
//!
//! Under fault injection ([`crate::fault`]) a rank can crash and never
//! report again. Waiting for a fresh report from *every* rank would then
//! deadlock detection forever, so the root applies a **staleness timeout**:
//! a rank whose last report (or the start of the run, if it never reported)
//! is older than `staleness_timeout` is *presumed dead* — it is excluded
//! both from round coverage and from the aggregate sum. The live ranks
//! converge to the frozen-subdomain limit (DESIGN.md §10), their owned
//! residuals go to zero, and detection fires on the live sum. A presumed
//! dead rank that reports again (crash with recovery, or a very long stall)
//! is re-included automatically — presumed death is re-evaluated from
//! report times at every ingest, never latched.
//!
//! ## Why one round suffices for W.D.D. systems
//!
//! Reports are stale by up to `check_interval` iterations plus a network
//! latency, so the root's sum is a snapshot of the *past*. The paper's own
//! Theorem 1 closes the gap: for weakly diagonally dominant systems the
//! global residual 1-norm is non-increasing under any relaxation schedule,
//! so a past global norm below tolerance implies the present one is too.
//! Per-rank reports taken at different times with inconsistent ghost
//! views can still underestimate the instantaneous global norm; the
//! factor ½ absorbs that in practice, and
//! [`TerminationStats::detected_residual`] against the true final
//! residual measures the gap. A consistent confirmation round would close
//! it (ROADMAP item 1).

/// Configuration of the detection protocol.
#[derive(Debug, Clone, Copy)]
pub struct TerminationProtocol {
    /// Local iterations between residual reports.
    pub check_interval: u64,
    /// Simulated time without a report after which the root presumes a rank
    /// dead and excludes it from detection (`f64::INFINITY` = never — the
    /// pre-fault behaviour, where one crashed rank blocks detection
    /// forever). Calibrate to several `check_interval` sweeps plus network
    /// latency; [`TerminationProtocol::with_staleness_timeout`] helps.
    pub staleness_timeout: f64,
}

impl Default for TerminationProtocol {
    fn default() -> Self {
        TerminationProtocol {
            check_interval: 5,
            staleness_timeout: f64::INFINITY,
        }
    }
}

impl TerminationProtocol {
    /// The default protocol with a staleness timeout (simulated time).
    pub fn with_staleness_timeout(timeout: f64) -> Self {
        TerminationProtocol {
            staleness_timeout: timeout,
            ..Default::default()
        }
    }
}

/// What the protocol observed during a run.
#[derive(Debug, Clone, Default)]
pub struct TerminationStats {
    /// Report messages sent toward the root.
    pub reports_sent: u64,
    /// Report messages lost to link faults on the way to the root.
    pub reports_dropped: u64,
    /// Stop broadcasts issued (0 when the run ended by other means).
    pub stops_sent: u64,
    /// Simulated time at which the root decided to stop, if it did.
    pub detected_at: Option<f64>,
    /// The aggregate relative residual the root saw when it decided.
    pub detected_residual: Option<f64>,
    /// Ranks presumed dead (stale beyond the timeout) at decision time —
    /// non-empty exactly when detection went through the staleness path.
    pub excluded_ranks: Vec<usize>,
}

/// The root stops at `aggregate < SAFETY_FACTOR × tol`. Per-rank reports
/// are taken at different instants with different ghost views, so their
/// sum can *underestimate* the instantaneous global norm; the factor
/// absorbs that inconsistency in practice (the integration tests check the
/// true residual at stop).
const SAFETY_FACTOR: f64 = 0.5;

/// Root-side aggregation state.
#[derive(Debug)]
pub struct RootAggregator {
    /// Latest reported norm per rank.
    latest: Vec<Option<f64>>,
    /// Time of each rank's last report (run start when never reported).
    last_report: Vec<f64>,
    /// Whether the rank reported since the last judged round.
    fresh: Vec<bool>,
    norm_b: f64,
    /// The stop threshold, `SAFETY_FACTOR × tol`.
    threshold: f64,
    staleness_timeout: f64,
    excluded_at_decision: Vec<usize>,
    decided: bool,
}

impl RootAggregator {
    /// Creates the aggregator for `nparts` ranks with tolerance `tol`
    /// relative to `norm_b = ‖b‖₁`.
    pub fn new(nparts: usize, tol: f64, norm_b: f64, staleness_timeout: f64) -> Self {
        RootAggregator {
            latest: vec![None; nparts],
            last_report: vec![0.0; nparts],
            fresh: vec![false; nparts],
            norm_b: norm_b.max(f64::MIN_POSITIVE),
            threshold: SAFETY_FACTOR * tol,
            staleness_timeout: if staleness_timeout > 0.0 {
                staleness_timeout
            } else {
                f64::INFINITY
            },
            excluded_at_decision: Vec::new(),
            decided: false,
        }
    }

    /// Whether `rank` is presumed dead at time `now` (no report within the
    /// staleness timeout).
    pub fn presumed_dead(&self, rank: usize, now: f64) -> bool {
        now - self.last_report[rank] > self.staleness_timeout
    }

    /// Ingests a report arriving at simulated time `now`; returns
    /// `Some(aggregate relative residual)` when this report completes a
    /// round below the threshold — i.e. the root should broadcast the stop
    /// now.
    pub fn ingest(&mut self, rank: usize, local_norm: f64, now: f64) -> Option<f64> {
        if self.decided {
            return None;
        }
        self.latest[rank] = Some(local_norm);
        self.last_report[rank] = now;
        self.fresh[rank] = true;

        // A round is judged once every rank either reported since the last
        // judgement or is presumed dead. Presumed death is recomputed from
        // report times on every ingest, so a resurrected rank (recovery,
        // long stall) is pulled back into coverage automatically.
        let covered = (0..self.latest.len()).all(|q| self.fresh[q] || self.presumed_dead(q, now));
        if !covered {
            return None;
        }
        let total: f64 = (0..self.latest.len())
            .filter(|&q| !self.presumed_dead(q, now))
            .filter_map(|q| self.latest[q])
            .sum();
        let rel = total / self.norm_b;
        self.fresh.iter_mut().for_each(|f| *f = false);
        if rel < self.threshold {
            self.decided = true;
            self.excluded_at_decision = (0..self.latest.len())
                .filter(|&q| self.presumed_dead(q, now))
                .collect();
            return Some(rel);
        }
        None
    }

    /// Whether the stop decision has been made.
    pub fn decided(&self) -> bool {
        self.decided
    }

    /// Ranks that were presumed dead when the stop decision fired (empty
    /// before the decision, and for decisions with full coverage).
    pub fn excluded_ranks(&self) -> &[usize] {
        &self.excluded_at_decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: f64 = f64::INFINITY;

    #[test]
    fn waits_for_every_rank_before_judging() {
        let mut agg = RootAggregator::new(3, 1e-3, 1.0, NEVER);
        assert!(agg.ingest(0, 0.0, 1.0).is_none());
        assert!(agg.ingest(1, 0.0, 2.0).is_none());
        // Last rank completes the round; everything is below tolerance.
        let rel = agg.ingest(2, 1e-5, 3.0).expect("should decide");
        assert!(rel < 1e-3);
        assert!(agg.decided());
        assert!(agg.excluded_ranks().is_empty());
    }

    #[test]
    fn ingest_after_decision_is_inert() {
        let mut agg = RootAggregator::new(1, 1.0, 1.0, NEVER);
        assert!(agg.ingest(0, 0.0, 1.0).is_some());
        assert!(agg.ingest(0, 0.0, 2.0).is_none());
    }

    #[test]
    fn zero_norm_b_is_guarded() {
        let mut agg = RootAggregator::new(1, 1e-8, 0.0, NEVER);
        // Does not divide by zero; a zero residual still terminates.
        assert!(agg.ingest(0, 0.0, 1.0).is_some());
    }

    #[test]
    fn dead_rank_is_excluded_after_the_staleness_timeout() {
        // Rank 1 reports once and dies; without the timeout the root would
        // wait for it forever. With it, detection fires on ranks {0, 2}.
        let mut agg = RootAggregator::new(3, 1e-3, 1.0, 100.0);
        assert!(agg.ingest(1, 0.5, 10.0).is_none());
        assert!(agg.ingest(0, 1e-5, 20.0).is_none());
        assert!(agg.ingest(2, 1e-5, 30.0).is_none()); // round judged: 0.5 keeps it above tol
        assert!(agg.ingest(0, 1e-5, 120.0).is_none()); // round reset consumed freshness
        let rel = agg
            .ingest(2, 1e-5, 150.0)
            .expect("rank 1 now 140 ticks stale → excluded, live round decides");
        // Rank 1's 0.5 contribution is excluded from the aggregate.
        assert!(rel < 1e-3, "aggregate {rel}");
        assert_eq!(agg.excluded_ranks(), &[1]);
    }

    #[test]
    fn never_reporting_rank_times_out_from_run_start() {
        let mut agg = RootAggregator::new(2, 1e-3, 1.0, 50.0);
        assert!(agg.ingest(0, 1e-6, 10.0).is_none()); // rank 1 not stale yet
        let rel = agg.ingest(0, 1e-6, 90.0).expect("rank 1 presumed dead");
        assert!(rel < 1e-3);
        assert_eq!(agg.excluded_ranks(), &[1]);
    }

    #[test]
    fn resurrected_rank_rejoins_coverage_and_the_aggregate() {
        let mut agg = RootAggregator::new(2, 1e-3, 1.0, 50.0);
        assert!(agg.ingest(0, 1e-6, 10.0).is_none());
        // Rank 1 recovers and reports an above-tolerance norm: it must be
        // counted again, blocking detection.
        assert!(agg.ingest(1, 0.7, 60.0).is_none());
        assert!(!agg.decided());
        // Both converge; the next full round decides with no exclusions.
        assert!(agg.ingest(0, 1e-6, 70.0).is_none()); // round incomplete
        assert!(agg.ingest(1, 1e-6, 80.0).is_some()); // full round, below tol
        assert!(agg.excluded_ranks().is_empty());
    }
}
