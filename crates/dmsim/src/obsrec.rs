//! Engine-side observability recorder.
//!
//! One [`EngineObs`] instance lives inside a simulator run when
//! [`aj_obs::ObsConfig`] enables recording; every touchpoint in the event
//! loops is a single `if let Some(o) = obs.as_mut()` — when recording is
//! off the engines skip all of it through one `Option` check and allocate
//! none of the shard state, keeping the off-mode overhead at zero.
//!
//! The **staleness** histograms hold, per rank, the age in ticks of each
//! neighbour's data at the moment a sweep uses it (one sample per sweep ×
//! neighbour). Both engines define age against the tick at which the
//! neighbour *generated* the data (its sweep/commit tick), not the tick it
//! arrived — so the shared-memory simulator (instant visibility) and the
//! distributed simulator (puts in flight) measure the same quantity and
//! can be cross-validated against each other.

use crate::monitor::CommVolume;
use aj_control::Decision;
use aj_obs::{Histogram, ObsConfig, Sampler, Snapshot, SpanKind, Timeline};

/// Timeline span kind for a controller decision. Both simulator engines
/// stamp decisions on rank 0's timeline through this single mapping so the
/// cross-engine conformance test can compare event streams verbatim.
pub(crate) fn decision_kind(d: &Decision) -> SpanKind {
    match d {
        Decision::Shrink { .. } => SpanKind::CtrlShrink,
        Decision::Widen { .. } => SpanKind::CtrlWiden,
        Decision::Switch { .. } => SpanKind::CtrlSwitch,
        Decision::Shed { .. } => SpanKind::CtrlShed,
        Decision::Rescue => SpanKind::CtrlRescue,
    }
}

/// Per-run recording state shared by the simulator engines.
pub(crate) struct EngineObs {
    /// Per-rank neighbour-data age at use (ticks).
    pub staleness: Vec<Histogram>,
    /// Per-rank gap between consecutive sweep completions (ticks).
    pub sweep_period: Vec<Histogram>,
    /// Network latency of landed puts (ticks); distributed engine only.
    pub put_latency: Histogram,
    /// Pending event-queue depth, sampled on the residual monitor's grid.
    pub queue_depth: Histogram,
    /// Per-rank span-event rings.
    timelines: Vec<Timeline>,
    /// 1-in-N gate for sweep-frequency records (staleness, periods).
    pub sweep_sampler: Sampler,
    /// 1-in-N gate for put-frequency records (latency, send/arrive spans).
    pub put_sampler: Sampler,
    /// Termination-protocol reports seen by the root.
    pub term_reports: u64,
}

impl EngineObs {
    /// Builds the recorder, or `None` when the config disables recording.
    pub fn new(cfg: &ObsConfig, nranks: usize) -> Option<EngineObs> {
        if !cfg.is_on() {
            return None;
        }
        Some(EngineObs {
            staleness: vec![Histogram::new(); nranks],
            sweep_period: vec![Histogram::new(); nranks],
            put_latency: Histogram::new(),
            queue_depth: Histogram::new(),
            timelines: (0..nranks)
                .map(|_| Timeline::new(cfg.timeline_capacity))
                .collect(),
            sweep_sampler: cfg.sampler(),
            put_sampler: cfg.sampler(),
            term_reports: 0,
        })
    }

    /// Appends a span event to `rank`'s timeline.
    #[inline]
    pub fn event(&mut self, rank: usize, tick: u64, kind: SpanKind) {
        self.timelines[rank].push(tick, kind);
    }

    /// Assembles the merged snapshot. Empty histograms are omitted so
    /// fault-free runs don't carry dead keys; `comm` totals, when present,
    /// become counters.
    pub fn into_snapshot(self, comm: Option<&CommVolume>) -> Snapshot {
        let mut snap = Snapshot::new();
        for (r, h) in self.staleness.iter().enumerate() {
            if h.count() > 0 {
                snap.merge_histogram(&format!("staleness/rank{r}"), h);
            }
        }
        for (r, h) in self.sweep_period.iter().enumerate() {
            if h.count() > 0 {
                snap.merge_histogram(&format!("sweep_period/rank{r}"), h);
            }
        }
        if self.put_latency.count() > 0 {
            snap.merge_histogram("put_latency", &self.put_latency);
        }
        if self.queue_depth.count() > 0 {
            snap.merge_histogram("queue_depth", &self.queue_depth);
        }
        for (r, tl) in self.timelines.iter().enumerate() {
            if !tl.is_empty() || tl.dropped() > 0 {
                snap.push_timeline(r, tl);
            }
        }
        if self.term_reports > 0 {
            snap.set_counter("term_reports", self.term_reports);
        }
        if let Some(c) = comm {
            snap.set_counter("puts_sent", c.puts);
            snap.set_counter("put_values", c.values);
            if c.drops > 0 {
                snap.set_counter("put_drops", c.drops);
            }
            if c.duplicates > 0 {
                snap.set_counter("put_duplicates", c.duplicates);
            }
            if c.reorders > 0 {
                snap.set_counter("put_reorders", c.reorders);
            }
        }
        snap
    }
}
