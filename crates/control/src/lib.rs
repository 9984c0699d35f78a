//! Online closed-loop control for the asynchronous relaxation engines.
//!
//! The paper's central observation is that asynchronous Jacobi's behavior
//! is governed by *observed* staleness, not the worst-case bound — and
//! PR 5 showed the flip side: statically auto-tuned over-relaxation
//! (`omega=auto`) is fragile once staleness moves the effective spectrum.
//! "Asynchronous Richardson iterations" (Chow, Frommer & Szyld) derives how
//! the stable ω/β window shrinks with delay; "Supremum-Norm Convergence for
//! Step-Asynchronous SOR" (Vigna) gives the sup-norm safety condition.
//! Together they say the relaxation parameters should be adapted online
//! from measured staleness — which is exactly what aj-obs measures.
//!
//! This crate is the pure decision kernel: engines feed a [`Controller`]
//! one [`Observation`] per residual-monitor sample and apply the
//! [`Decision`]s it returns. Two properties make cross-engine conformance
//! testable (and are pinned by this crate's tests plus the workspace-level
//! `control_conformance` suite):
//!
//! 1. **Purity.** A controller is a deterministic function of its
//!    observation sequence — no clocks, no randomness, no engine state.
//! 2. **Quantization.** Observations enter as a coarse staleness *regime*
//!    (`Low < low ≤ Moderate < high ≤ High` in units of the fastest sweep
//!    period) and parameter moves are discrete multiplicative steps from
//!    shared base values, so two engines with different tick dynamics but
//!    the same staleness regime history emit bit-identical decisions.
//!
//! The decision ladder, most- to least-conservative trigger:
//!
//! * staleness above `shed_after` periods → [`Decision::Shed`] the worst
//!   worker (reusing the termination layer's presumed-dead semantics);
//! * `High` regime → [`Decision::Shrink`] ω (and β, quadratically) one
//!   step toward the delay-safe floor of the [`SafeInterval`];
//! * `patience` consecutive `Low` samples → [`Decision::Widen`] one step
//!   back toward the resolved base values;
//! * residual decay stalled over the last `window` samples → with momentum
//!   active, [`Decision::Switch`] to first-order at the minimax ω; already
//!   first-order → [`Decision::Rescue`] (escalate to an outer solve).

use aj_linalg::method::{ResolvedMethod, SafeInterval};

/// Adaptation gain of the continuous reference law [`adapt`]: how fast the
/// shrink factor falls with excess staleness.
pub const ADAPT_GAIN: f64 = 0.25;

/// Multiplicative step of one [`Decision::Shrink`].
pub const SHRINK_STEP: f64 = 0.5;

/// Multiplicative step of one [`Decision::Widen`].
pub const WIDEN_STEP: f64 = 1.25;

/// Momentum below this snaps to exactly 0 when shrinking, so the shrink
/// chain terminates (a finite decision sequence is what makes cross-engine
/// conformance checkable).
pub const BETA_SNAP: f64 = 1e-3;

/// Controller knobs. Parsed from the `control=` spec grammar in `aj-core`;
/// all defaults are chosen so that a clean (low-staleness, converging) run
/// emits no decisions at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Residual-decay window, in monitor samples, for stall detection.
    pub window: usize,
    /// Staleness ratio at or below which the regime is `Low`.
    pub low: f64,
    /// Staleness ratio at or above which the regime is `High`.
    pub high: f64,
    /// Consecutive `Low` samples required before widening one step.
    pub patience: u32,
    /// Minimum decades of residual decay per sample (averaged over the
    /// window) that still counts as progress; below it the run is stalled.
    /// The default `0.0` declares a stall only when the window shows no net
    /// decay at all (flat or growing residual) — a threshold that is safe at
    /// any observation cadence, from the simulators' sparse monitor grid to
    /// the real-thread backend's per-round sampling. Raise it to demand a
    /// minimum convergence *rate*, calibrated to your sample spacing.
    pub stall_decades: f64,
    /// Shed the worst worker when its data age exceeds this many fastest
    /// sweep periods. Non-finite disables shedding.
    pub shed_after: f64,
    /// Allow escalation to an outer rescue when the stall ladder runs out.
    pub rescue: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            window: 8,
            low: 4.0,
            high: 16.0,
            patience: 4,
            stall_decades: 0.0,
            shed_after: f64::INFINITY,
            rescue: true,
        }
    }
}

/// Coarse staleness regime — the only resolution at which staleness enters
/// a decision, so engines with different tick dynamics agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// At most [`ControlConfig::low`] fastest-periods of data age.
    Low,
    /// Between the two thresholds; holds parameters steady.
    Moderate,
    /// At least [`ControlConfig::high`] periods: shrink toward the floor.
    High,
}

impl ControlConfig {
    /// Quantizes a staleness ratio.
    pub fn regime(&self, ratio: f64) -> Regime {
        if ratio >= self.high {
            Regime::High
        } else if ratio <= self.low {
            Regime::Low
        } else {
            Regime::Moderate
        }
    }
}

/// What an engine reports at one residual-monitor sample. Engine ticks are
/// deliberately absent: decisions may not depend on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Relative residual at this sample.
    pub residual: f64,
    /// Maximum data age across live (non-shed) workers, in units of the
    /// fastest observed sweep period.
    pub staleness: f64,
    /// The worker with that maximum age (shed candidate).
    pub worst: usize,
}

/// One controller action, applied by the engine at the sample that
/// produced it. At most one decision is emitted per observation.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Set the relaxation parameters one step closer to the delay-safe
    /// floor (`ω × 1/2`, `β × 1/4`, clamped into the safe interval).
    Shrink {
        /// New relaxation weight.
        omega: f64,
        /// New momentum coefficient.
        beta: f64,
    },
    /// Set the parameters one step back toward the resolved base values.
    Widen {
        /// New relaxation weight.
        omega: f64,
        /// New momentum coefficient.
        beta: f64,
    },
    /// Drop the momentum term: continue as first-order Richardson at the
    /// minimax-safe ω.
    Switch {
        /// First-order relaxation weight to continue with.
        omega: f64,
    },
    /// Exclude a persistently stale worker from the staleness aggregate
    /// (and, where a termination protocol runs, from its quorum).
    Shed {
        /// The shed worker/rank.
        worker: usize,
    },
    /// The stall ladder ran out: request an outer (V-cycle) rescue run.
    /// The engine stops; the driver re-runs over an outer solver.
    Rescue,
}

impl Decision {
    /// Stable short name (timeline/CSV tag).
    pub fn name(&self) -> &'static str {
        match self {
            Decision::Shrink { .. } => "shrink",
            Decision::Widen { .. } => "widen",
            Decision::Switch { .. } => "switch",
            Decision::Shed { .. } => "shed",
            Decision::Rescue => "rescue",
        }
    }
}

/// Everything an engine needs to instantiate a controller at run start:
/// the parsed knobs plus the safe interval resolved at plan time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSpec {
    /// Parsed `control=` knobs.
    pub cfg: ControlConfig,
    /// The SPD-safe window every adapted parameter is clamped into.
    pub interval: SafeInterval,
}

/// Summary of a controller's run, carried on `SimOutcome`/`SolveReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlStats {
    /// Every emitted decision, tagged with the 0-based monitor-sample
    /// ordinal it was emitted at.
    pub decisions: Vec<(u64, Decision)>,
    /// Observations consumed.
    pub samples: u64,
    /// Relaxation weight in effect at the end of the run.
    pub final_omega: f64,
    /// Momentum coefficient in effect at the end of the run.
    pub final_beta: f64,
    /// Whether the momentum method was switched to first-order mid-run.
    pub switched: bool,
    /// Whether an outer rescue was requested.
    pub rescue_requested: bool,
    /// Workers shed from the staleness aggregate, in shed order.
    pub shed: Vec<usize>,
}

impl ControlStats {
    /// One-line human summary for CLI/report output.
    pub fn summary(&self) -> String {
        format!(
            "{} decisions over {} samples (ω→{:.4}, β→{:.4}{}{}{})",
            self.decisions.len(),
            self.samples,
            self.final_omega,
            self.final_beta,
            if self.switched { ", switched" } else { "" },
            if self.rescue_requested {
                ", rescue requested"
            } else {
                ""
            },
            if self.shed.is_empty() {
                String::new()
            } else {
                format!(", shed {:?}", self.shed)
            },
        )
    }
}

/// The continuous reference adaptation law the discrete controller steps
/// track: a shrink factor `1/(1 + GAIN·max(0, s − 1))` of the base pair
/// (β quadratically, matching the heavy-ball contraction's β ~ ω·λ
/// coupling), clamped into the safe interval.
///
/// Pinned by the property battery: the result always lies in `interval`,
/// is monotone non-increasing in `staleness`, and the function is pure.
pub fn adapt(
    interval: &SafeInterval,
    base_omega: f64,
    base_beta: f64,
    staleness: f64,
) -> (f64, f64) {
    let (base_omega, base_beta) = interval.clamp(base_omega, base_beta);
    let excess = (staleness - 1.0).max(0.0);
    let shrink = 1.0 / (1.0 + ADAPT_GAIN * excess);
    interval.clamp(base_omega * shrink, base_beta * shrink * shrink)
}

/// The stateful decision kernel. See the module docs for the ladder.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControlConfig,
    interval: SafeInterval,
    /// Resolved base parameters (the widen ceiling).
    base_omega: f64,
    base_beta: f64,
    omega: f64,
    beta: f64,
    /// Whether the running method takes ω/β at all (rwr does not).
    adaptable: bool,
    /// Momentum still active (switch candidate).
    momentum: bool,
    low_streak: u32,
    /// Residual window for stall detection (cleared on every decision —
    /// the dynamics just changed).
    window: Vec<f64>,
    shed: Vec<usize>,
    switched: bool,
    rescued: bool,
    samples: u64,
    decisions: Vec<(u64, Decision)>,
}

impl Controller {
    /// Builds a controller for a run starting on `method` (an engine's
    /// legacy ω already folded in, see [`ResolvedMethod::fold_omega`]).
    pub fn new(cfg: ControlConfig, method: ResolvedMethod, interval: SafeInterval) -> Controller {
        let (omega, beta, adaptable, momentum) = match method {
            ResolvedMethod::Jacobi => (1.0, 0.0, true, false),
            ResolvedMethod::Richardson1 { omega } => (omega, 0.0, true, false),
            ResolvedMethod::Richardson2 { omega, beta } => (omega, beta, true, true),
            ResolvedMethod::RandomizedResidual { .. } => (1.0, 0.0, false, false),
        };
        Controller {
            cfg,
            interval,
            base_omega: omega,
            base_beta: beta,
            omega,
            beta,
            adaptable,
            momentum,
            low_streak: 0,
            window: Vec::with_capacity(cfg.window.min(1 << 16)),
            shed: Vec::new(),
            switched: false,
            rescued: false,
            samples: 0,
            decisions: Vec::new(),
        }
    }

    /// Whether `worker` has been shed; engines exclude shed workers from
    /// the staleness aggregate they feed back in.
    pub fn is_shed(&self, worker: usize) -> bool {
        self.shed.contains(&worker)
    }

    /// Whether a rescue has been requested (the engine should stop and let
    /// the driver escalate).
    pub fn rescue_requested(&self) -> bool {
        self.rescued
    }

    /// Parameters currently in effect.
    pub fn params(&self) -> (f64, f64) {
        (self.omega, self.beta)
    }

    /// Consumes one monitor sample; returns at most one decision. The
    /// engine must apply it before the next sweep takes effect.
    pub fn observe(&mut self, obs: Observation) -> Option<Decision> {
        self.samples += 1;
        let ordinal = self.samples - 1;
        let decision = self.decide(obs);
        if let Some(d) = &decision {
            self.apply(d);
            self.window.clear();
            self.low_streak = 0;
            self.decisions.push((ordinal, d.clone()));
        }
        decision
    }

    fn decide(&mut self, obs: Observation) -> Option<Decision> {
        if self.rescued {
            return None;
        }
        // 1. Shed: the worst worker's data is so old the termination layer
        //    would presume it dead; stop letting it pin the regime.
        if obs.staleness > self.cfg.shed_after && !self.is_shed(obs.worst) {
            return Some(Decision::Shed { worker: obs.worst });
        }
        // 2. Regime-driven parameter steps.
        match self.cfg.regime(obs.staleness) {
            Regime::High => {
                self.low_streak = 0;
                if self.adaptable {
                    let shrunk_beta = self.beta * SHRINK_STEP * SHRINK_STEP;
                    let (omega, beta) = self.interval.clamp(
                        (self.omega * SHRINK_STEP).max(self.interval.omega_min()),
                        if shrunk_beta < BETA_SNAP {
                            0.0
                        } else {
                            shrunk_beta
                        },
                    );
                    if (omega, beta) != (self.omega, self.beta) {
                        return Some(Decision::Shrink { omega, beta });
                    }
                }
            }
            Regime::Moderate => {
                self.low_streak = 0;
            }
            Regime::Low => {
                self.low_streak += 1;
                if self.adaptable && self.low_streak >= self.cfg.patience {
                    // A snapped-to-zero β re-seeds at BETA_SNAP so widening
                    // can regrow it toward the base value.
                    let grown_beta = if self.beta == 0.0 && self.base_beta > 0.0 {
                        BETA_SNAP
                    } else {
                        self.beta * WIDEN_STEP
                    };
                    let (omega, beta) = self.interval.clamp(
                        (self.omega * WIDEN_STEP).min(self.base_omega),
                        grown_beta.min(self.base_beta),
                    );
                    if (omega, beta) != (self.omega, self.beta) {
                        return Some(Decision::Widen { omega, beta });
                    }
                }
            }
        }
        // 3. Stall ladder on windowed residual decay.
        self.window.push(obs.residual);
        if self.window.len() > self.cfg.window {
            self.window.remove(0);
        }
        if self.cfg.window >= 2 && self.window.len() == self.cfg.window {
            let first = self.window[0].max(f64::MIN_POSITIVE);
            let last = self.window[self.window.len() - 1].max(f64::MIN_POSITIVE);
            let decades = (first / last).log10();
            let need = self.cfg.stall_decades * (self.cfg.window - 1) as f64;
            // A NaN decay (non-finite residuals) must count as stalled, so
            // the test is "provably making progress", not "not stalled".
            let progressing = matches!(
                decades.partial_cmp(&need),
                Some(std::cmp::Ordering::Greater)
            );
            if !progressing {
                if self.momentum {
                    let (omega, _) = self.interval.clamp(self.interval.omega_opt1(), 0.0);
                    return Some(Decision::Switch { omega });
                }
                if self.cfg.rescue {
                    return Some(Decision::Rescue);
                }
            }
        }
        None
    }

    fn apply(&mut self, d: &Decision) {
        match *d {
            Decision::Shrink { omega, beta } | Decision::Widen { omega, beta } => {
                self.omega = omega;
                self.beta = beta;
            }
            Decision::Switch { omega } => {
                self.omega = omega;
                self.beta = 0.0;
                self.momentum = false;
                self.switched = true;
                // The widen ceiling follows the switch: never re-widen back
                // into the configuration that stalled.
                self.base_omega = omega;
                self.base_beta = 0.0;
            }
            Decision::Shed { worker } => self.shed.push(worker),
            Decision::Rescue => self.rescued = true,
        }
    }

    /// Applies an emitted decision to a running method value, returning the
    /// method the next sweep should execute. Shared by every engine so the
    /// decision→method mapping cannot drift between them; plain Jacobi
    /// shrinks and widens as `Richardson1 { ω }`, its damped form.
    pub fn retune(method: ResolvedMethod, d: &Decision) -> ResolvedMethod {
        match *d {
            Decision::Shrink { omega, beta } | Decision::Widen { omega, beta } => {
                method.with_params(omega, beta)
            }
            Decision::Switch { omega } => ResolvedMethod::Richardson1 { omega },
            Decision::Shed { .. } | Decision::Rescue => method,
        }
    }

    /// Finishes the run, yielding the summary carried on outcomes.
    pub fn into_stats(self) -> ControlStats {
        ControlStats {
            decisions: self.decisions,
            samples: self.samples,
            final_omega: self.omega,
            final_beta: self.beta,
            switched: self.switched,
            rescue_requested: self.rescued,
            shed: self.shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval() -> SafeInterval {
        SafeInterval {
            lambda_min: 0.1,
            lambda_max: 1.9,
        }
    }

    fn r2() -> ResolvedMethod {
        ResolvedMethod::Richardson2 {
            omega: 1.0,
            beta: 0.5,
        }
    }

    fn obs(residual: f64, staleness: f64) -> Observation {
        Observation {
            residual,
            staleness,
            worst: 0,
        }
    }

    #[test]
    fn clean_run_emits_no_decisions() {
        let mut c = Controller::new(ControlConfig::default(), r2(), interval());
        let mut r = 1.0;
        for _ in 0..200 {
            r *= 0.8;
            assert_eq!(c.observe(obs(r, 1.5)), None);
        }
        let stats = c.into_stats();
        assert!(stats.decisions.is_empty());
        assert_eq!(stats.samples, 200);
        assert_eq!((stats.final_omega, stats.final_beta), (1.0, 0.5));
    }

    #[test]
    fn high_staleness_shrinks_to_the_floor_then_stops() {
        let cfg = ControlConfig {
            window: 10_000, // stall detection off
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg, r2(), interval());
        let mut shrinks = 0;
        let mut r = 1.0;
        for _ in 0..50 {
            r *= 0.9;
            if let Some(d) = c.observe(obs(r, 100.0)) {
                assert!(matches!(d, Decision::Shrink { .. }), "{d:?}");
                shrinks += 1;
            }
        }
        let (w, b) = c.params();
        assert_eq!(w, interval().omega_min(), "shrunk to the floor");
        assert!(b < 0.5 / 16.0);
        // Finite decision count: once at the floor, High samples are quiet.
        assert!(shrinks > 2 && shrinks < 10, "{shrinks} shrinks");
        let stats = c.into_stats();
        assert_eq!(stats.decisions.len(), shrinks);
    }

    #[test]
    fn sustained_low_staleness_widens_back_to_base() {
        let cfg = ControlConfig {
            window: 10_000,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg, r2(), interval());
        let mut r = 1.0;
        for _ in 0..10 {
            r *= 0.9;
            c.observe(obs(r, 100.0));
        }
        assert!(c.params().0 < 1.0);
        for _ in 0..500 {
            r *= 0.9;
            if let Some(d) = c.observe(obs(r, 0.5)) {
                assert!(matches!(d, Decision::Widen { .. }), "{d:?}");
            }
        }
        assert_eq!(c.params(), (1.0, 0.5), "back at base exactly");
    }

    #[test]
    fn stalled_momentum_switches_then_rescues() {
        let cfg = ControlConfig {
            window: 4,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg, r2(), interval());
        let mut saw_switch = false;
        let mut saw_rescue = false;
        for _ in 0..40 {
            // Flat residual, calm staleness: pure stall.
            match c.observe(obs(0.5, 1.0)) {
                Some(Decision::Switch { omega }) => {
                    assert!(!saw_switch, "switch fired twice");
                    assert_eq!(omega, interval().omega_opt1());
                    saw_switch = true;
                }
                Some(Decision::Rescue) => {
                    assert!(saw_switch, "rescue before switch");
                    saw_rescue = true;
                }
                Some(other) => panic!("unexpected {other:?}"),
                None => {}
            }
        }
        assert!(saw_switch && saw_rescue);
        let stats = c.into_stats();
        assert!(stats.switched && stats.rescue_requested);
        assert_eq!(stats.final_beta, 0.0);
        // After a rescue request the controller goes quiet.
        let mut c2 = Controller::new(
            ControlConfig {
                window: 2,
                ..ControlConfig::default()
            },
            ResolvedMethod::Richardson1 { omega: 0.9 },
            interval(),
        );
        let mut rescues = 0;
        for _ in 0..20 {
            if let Some(Decision::Rescue) = c2.observe(obs(0.5, 1.0)) {
                rescues += 1;
            }
        }
        assert_eq!(rescues, 1);
    }

    #[test]
    fn shed_fires_once_per_worker_and_takes_priority() {
        let cfg = ControlConfig {
            shed_after: 64.0,
            window: 10_000,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg, r2(), interval());
        assert_eq!(
            c.observe(Observation {
                residual: 1.0,
                staleness: 100.0,
                worst: 3
            }),
            Some(Decision::Shed { worker: 3 })
        );
        assert!(c.is_shed(3) && !c.is_shed(0));
        // Same worker again: regime logic resumes (shrink, not re-shed).
        assert!(matches!(
            c.observe(Observation {
                residual: 1.0,
                staleness: 100.0,
                worst: 3
            }),
            Some(Decision::Shrink { .. })
        ));
    }

    #[test]
    fn rwr_adapts_nothing_but_still_sheds_and_rescues() {
        let cfg = ControlConfig {
            shed_after: 64.0,
            window: 3,
            ..ControlConfig::default()
        };
        let m = ResolvedMethod::RandomizedResidual {
            fraction: 0.5,
            seed: 1,
        };
        let mut c = Controller::new(cfg, m, interval());
        for _ in 0..10 {
            if let Some(d) = c.observe(obs(0.5, 30.0)) {
                // High regime but not adaptable: only the stall ladder may
                // fire, and rwr has no momentum, so straight to rescue.
                assert_eq!(d, Decision::Rescue);
            }
        }
        assert!(c.rescue_requested());
    }

    #[test]
    fn retune_maps_decisions_onto_every_method() {
        let shrink = Decision::Shrink {
            omega: 0.25,
            beta: 0.1,
        };
        assert_eq!(
            Controller::retune(ResolvedMethod::Jacobi, &shrink),
            ResolvedMethod::Richardson1 { omega: 0.25 }
        );
        assert_eq!(
            Controller::retune(ResolvedMethod::Richardson1 { omega: 0.9 }, &shrink),
            ResolvedMethod::Richardson1 { omega: 0.25 }
        );
        assert_eq!(
            Controller::retune(r2(), &shrink),
            ResolvedMethod::Richardson2 {
                omega: 0.25,
                beta: 0.1
            }
        );
        let rwr = ResolvedMethod::RandomizedResidual {
            fraction: 0.5,
            seed: 7,
        };
        assert_eq!(Controller::retune(rwr, &shrink), rwr);
        assert_eq!(
            Controller::retune(r2(), &Decision::Switch { omega: 0.8 }),
            ResolvedMethod::Richardson1 { omega: 0.8 }
        );
        assert_eq!(Controller::retune(r2(), &Decision::Rescue), r2());
    }

    #[test]
    fn jacobi_starts_where_its_damped_form_does() {
        // Plain Jacobi is richardson1 at ω = 1: the two controllers are one.
        let mut jacobi =
            Controller::new(ControlConfig::default(), ResolvedMethod::Jacobi, interval());
        let mut r1 = Controller::new(
            ControlConfig::default(),
            ResolvedMethod::Richardson1 { omega: 1.0 },
            interval(),
        );
        assert_eq!(jacobi.params(), (1.0, 0.0));
        for i in 0..60 {
            let o = obs(1.0 / (1.0 + i as f64), (i % 40) as f64);
            assert_eq!(jacobi.observe(o), r1.observe(o));
        }
        assert_eq!(jacobi.into_stats(), r1.into_stats());
    }

    #[test]
    fn controller_is_a_pure_function_of_its_observations() {
        let cfg = ControlConfig {
            shed_after: 50.0,
            ..ControlConfig::default()
        };
        let seq: Vec<Observation> = (0..300)
            .map(|i| Observation {
                residual: 1.0 / (1.0 + i as f64 * 0.1),
                staleness: ((i * 37) % 90) as f64,
                worst: i % 5,
            })
            .collect();
        let mut a = Controller::new(cfg, r2(), interval());
        let mut b = Controller::new(cfg, r2(), interval());
        for o in &seq {
            assert_eq!(a.observe(*o), b.observe(*o));
        }
        assert_eq!(a.into_stats(), b.into_stats());
    }
}
