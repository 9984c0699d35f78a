//! Relaxation methods beyond plain Jacobi.
//!
//! The paper's propagation-matrix model `x(k+1) = (I − D̂(k)D⁻¹A)x(k) +
//! D̂(k)D⁻¹b` is not Jacobi-specific: any per-row update with an active-row
//! mask fits it. This module defines the method family, and the one
//! routine that applies it, [`relax_block`], which every engine in the
//! workspace (model executor, both simulators, shared-memory threads, net
//! ranks) calls on the rows it relaxes:
//!
//! * **`jacobi`** — the paper's method, `x_i ← x_i + d_i⁻¹ r_i`;
//! * **`richardson1`** — first-order (weighted) Richardson,
//!   `x_i ← x_i + ω d_i⁻¹ r_i`, with `ω` fixed or estimated from the
//!   spectrum (Chow, Frommer & Szyld, *Asynchronous Richardson iterations*);
//! * **`richardson2`** — second-order Richardson with a momentum term,
//!   `x_i ← x_i + ω d_i⁻¹ r_i + β (x_i − x_i^prev)`, the stationary limit
//!   of the Chebyshev semi-iteration (also heavy-ball momentum);
//! * **`rwr`** — residual-weighted randomized row selection (Coleman et
//!   al.): each sweep relaxes `⌈fraction·m⌉` rows drawn without replacement
//!   with probability proportional to `|r_i|`.
//!
//! A [`Method`] may defer `ω`/`β` to the spectrum (`omega=auto`); calling
//! [`Method::resolve`] against a concrete matrix runs a deterministic
//! Lanczos estimate of the extreme eigenvalues of the Jacobi-preconditioned
//! operator `D^{-1/2} A D^{-1/2}` and fixes the parameters, producing a
//! [`ResolvedMethod`] that engines consume. Resolution is the only
//! expensive step, so callers (e.g. a solve service) can cache it per
//! matrix.
//!
//! ### ω-estimation rule
//!
//! With `λ_min`, `λ_max` the extreme eigenvalues of `D^{-1/2} A D^{-1/2}`
//! (equal to those of `D⁻¹A` for SPD `A`):
//!
//! * `richardson1`: `ω = 2 / (λ_min + λ_max)` — the minimax-optimal
//!   stationary first-order parameter;
//! * `richardson2`: `ω = (2 / (√λ_max + √λ_min))²`,
//!   `β = ((√λ_max − √λ_min) / (√λ_max + √λ_min))²` — the optimal
//!   heavy-ball pair, with asymptotic rate `O(√κ)` instead of `O(κ)`.
//!
//! Both require `λ_min > 0` (SPD after Jacobi preconditioning); resolution
//! fails otherwise rather than silently diverging.

use crate::csr::CsrMatrix;
use crate::eigen;
use crate::error::LinalgError;
use crate::kernel::{self, StorageFormat, SweepKernel};
use crate::ops::LinearOperator;
use crate::sweeps;
use crate::vecops::{self, Norm};
use std::cell::RefCell;

/// Lanczos budget for `omega=auto` resolution. Extreme eigenvalues of the
/// Laplacian-like suite matrices converge well within this many steps. The
/// run is deterministic (fixed start vector) and uses the plain three-term
/// recurrence: past the first few dozen steps orthogonality is lost, which
/// only repeats Ritz values that have already converged, so the extremes
/// need no reorthogonalization (see [`eigen`]).
pub const AUTO_LANCZOS_STEPS: usize = 64;

/// How `ω` is chosen for the Richardson methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OmegaSpec {
    /// Use this value as-is.
    Fixed(f64),
    /// Estimate the extreme eigenvalues at [`Method::resolve`] time and
    /// apply the module-level ω-estimation rule.
    Auto,
}

impl std::fmt::Display for OmegaSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OmegaSpec::Fixed(w) => write!(f, "{w}"),
            OmegaSpec::Auto => f.write_str("auto"),
        }
    }
}

/// Parses an `omega=` value: a number or `auto`.
impl std::str::FromStr for OmegaSpec {
    type Err = std::num::ParseFloatError;

    fn from_str(v: &str) -> Result<Self, Self::Err> {
        match v {
            "auto" => Ok(OmegaSpec::Auto),
            v => v.parse().map(OmegaSpec::Fixed),
        }
    }
}

/// A relaxation method with possibly-unresolved parameters. This is what
/// the spec grammar parses to and what solve options carry; engines consume
/// the [`ResolvedMethod`] produced by [`Method::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Method {
    /// Plain Jacobi (the paper's method).
    #[default]
    Jacobi,
    /// First-order Richardson: `x ← x + ω D⁻¹ r`.
    Richardson1 {
        /// Relaxation weight.
        omega: OmegaSpec,
    },
    /// Second-order Richardson: `x ← x + ω D⁻¹ r + β (x − x_prev)`.
    Richardson2 {
        /// Relaxation weight.
        omega: OmegaSpec,
        /// Momentum coefficient; `None` derives it from the spectrum
        /// together with ω (and forces a spectrum estimate even when ω is
        /// fixed).
        beta: Option<f64>,
    },
    /// Residual-weighted randomized row selection: each sweep relaxes
    /// `⌈fraction·m⌉` of its `m` candidate rows, drawn without replacement
    /// with probability ∝ `|r_i|`.
    RandomizedResidual {
        /// Fraction of candidate rows relaxed per sweep, in `(0, 1]`.
        fraction: f64,
    },
}

impl Method {
    /// Canonical grammar name (`jacobi`, `richardson1`, `richardson2`,
    /// `rwr`).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Jacobi => "jacobi",
            Method::Richardson1 { .. } => "richardson1",
            Method::Richardson2 { .. } => "richardson2",
            Method::RandomizedResidual { .. } => "rwr",
        }
    }

    /// The selector that re-parses to this method, e.g.
    /// `richardson2:omega=auto`.
    pub fn to_spec(&self) -> String {
        match *self {
            Method::Jacobi => "jacobi".into(),
            Method::Richardson1 { omega } => format!("richardson1:omega={omega}"),
            Method::Richardson2 { omega, beta: None } => format!("richardson2:omega={omega}"),
            Method::Richardson2 {
                omega,
                beta: Some(b),
            } => format!("richardson2:omega={omega}:beta={b}"),
            Method::RandomizedResidual { fraction } => format!("rwr:fraction={fraction}"),
        }
    }

    /// Checks every fixed parameter against its documented range through
    /// [`ResolvedMethod::validate`]; parameters left to the spectrum pass.
    ///
    /// # Errors
    /// The message naming the first parameter out of range.
    pub fn validate(&self) -> Result<(), String> {
        let fixed = |omega| match omega {
            OmegaSpec::Fixed(w) => w,
            OmegaSpec::Auto => 1.0,
        };
        let resolved = match *self {
            Method::Jacobi => ResolvedMethod::Jacobi,
            Method::Richardson1 { omega } => ResolvedMethod::Richardson1 {
                omega: fixed(omega),
            },
            Method::Richardson2 { omega, beta } => ResolvedMethod::Richardson2 {
                omega: fixed(omega),
                beta: beta.unwrap_or(0.0),
            },
            Method::RandomizedResidual { fraction } => {
                ResolvedMethod::RandomizedResidual { fraction, seed: 0 }
            }
        };
        resolved.validate().map(drop)
    }

    /// Fixes all parameters against a concrete matrix. `seed` feeds the
    /// randomized row selection (ignored by the deterministic methods).
    ///
    /// # Errors
    /// Fails when `omega=auto` (or a derived β) is requested and the
    /// Jacobi-preconditioned operator is not positive definite, or when a
    /// parameter is out of its documented range.
    pub fn resolve(&self, a: &CsrMatrix, seed: u64) -> Result<ResolvedMethod, LinalgError> {
        Ok(self.resolve_full(a, seed)?.method)
    }

    /// Like [`Method::resolve`], but also returns the [`SafeInterval`] when
    /// a spectrum estimate ran, so callers (the static plan path and the
    /// online controller) can clamp adapted parameters against the same
    /// window the auto rule was derived from.
    ///
    /// Auto-derived parameters are clamped into the interval before being
    /// recorded; the optimal rules always land strictly inside it, so for a
    /// healthy estimate the clamp is bit-identical to the PR 5 resolution.
    ///
    /// # Errors
    /// Same contract as [`Method::resolve`].
    pub fn resolve_full(&self, a: &CsrMatrix, seed: u64) -> Result<Resolution, LinalgError> {
        // Fixed parameters are checked before any spectrum estimate runs.
        self.validate().map_err(LinalgError::InvalidStructure)?;
        let done = |method| Resolution {
            method,
            interval: None,
        };
        match *self {
            Method::Jacobi => Ok(done(ResolvedMethod::Jacobi)),
            Method::Richardson1 { omega } => match omega {
                OmegaSpec::Fixed(w) => Ok(done(ResolvedMethod::Richardson1 { omega: w })),
                OmegaSpec::Auto => {
                    let interval = SafeInterval::estimate(a)?;
                    let (omega, _) = interval.clamp(interval.omega_opt1(), 0.0);
                    Ok(Resolution {
                        method: ResolvedMethod::Richardson1 { omega },
                        interval: Some(interval),
                    })
                }
            },
            Method::Richardson2 { omega, beta } => match (omega, beta) {
                (OmegaSpec::Fixed(w), Some(b)) => {
                    Ok(done(ResolvedMethod::Richardson2 { omega: w, beta: b }))
                }
                // Any unresolved parameter needs the spectrum; the optimal
                // pair is derived jointly, and a fixed ω keeps its value
                // with only β derived. The derived values lie in range
                // because the estimate is finite and positive.
                (spec, b) => {
                    let interval = SafeInterval::estimate(a)?;
                    let (sl, sh) = (interval.lambda_min.sqrt(), interval.lambda_max.sqrt());
                    let beta = b.unwrap_or((((sh - sl) / (sh + sl)).powi(2)).min(BETA_CAP));
                    let omega = match spec {
                        OmegaSpec::Fixed(w) => w,
                        OmegaSpec::Auto => interval.clamp((2.0 / (sl + sh)).powi(2), beta).0,
                    };
                    Ok(Resolution {
                        method: ResolvedMethod::Richardson2 { omega, beta },
                        interval: Some(interval),
                    })
                }
            },
            Method::RandomizedResidual { fraction } => {
                Ok(done(ResolvedMethod::RandomizedResidual { fraction, seed }))
            }
        }
    }
}

/// `D^{-1/2} A D^{-1/2}` — the same spectrum as `D⁻¹A` for SPD `A`, but
/// symmetric, so Lanczos applies — applied through one whole-matrix
/// [`SweepKernel`] in [`kernel::auto_select`]'s format. The kernel computes
/// residuals `b − A x`, so it runs with `b = 0` and the sign is folded into
/// the output scaling. Each row's products accumulate in CSR column order,
/// as in `CsrMatrix::spmv_into`.
struct JacobiScaledOp<'a> {
    a: &'a CsrMatrix,
    dinv_sqrt: Vec<f64>,
    /// The kernel's right-hand side `b = 0`.
    zeros: Vec<f64>,
    /// Built once and reused by every apply.
    kernel: SweepKernel,
    /// The kernel's input `D^{-1/2} x`, reused by every apply.
    scaled: RefCell<Vec<f64>>,
}

impl LinearOperator for JacobiScaledOp<'_> {
    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut scaled = self.scaled.borrow_mut();
        for ((t, v), s) in scaled.iter_mut().zip(x).zip(&self.dinv_sqrt) {
            *t = v * s;
        }
        self.kernel.residuals_into(self.a, &scaled, &self.zeros, y);
        for (v, s) in y.iter_mut().zip(&self.dinv_sqrt) {
            *v *= -s;
        }
    }
}

/// Estimated extreme eigenvalues `(λ_min, λ_max)` of the Jacobi-
/// preconditioned operator `D⁻¹A`, validated positive: Lanczos
/// ([`AUTO_LANCZOS_STEPS`] steps of [`eigen::lanczos_extreme`]) on the
/// similar symmetric `D^{-1/2} A D^{-1/2}`. This is the spectrum every
/// `omega=auto` rule is derived from; public so outer solvers can derive
/// *smoothing*-targeted weights (which damp the oscillatory half-band
/// rather than minimize over the whole spectrum) from the same estimate.
///
/// # Errors
/// Fails on nonpositive diagonals, on a non-finite entry, or when the
/// estimate says the operator is not positive definite.
pub fn preconditioned_extremes(a: &CsrMatrix) -> Result<(f64, f64), LinalgError> {
    let diag = a.diagonal();
    let mut dinv_sqrt = Vec::with_capacity(diag.len());
    for (row, &d) in diag.iter().enumerate() {
        if d <= 0.0 {
            return Err(if d == 0.0 {
                LinalgError::ZeroDiagonal { row }
            } else {
                LinalgError::InvalidStructure(format!(
                    "omega=auto needs a positive diagonal; row {row} has {d}"
                ))
            });
        }
        dinv_sqrt.push(1.0 / d.sqrt());
    }
    let op = JacobiScaledOp {
        a,
        dinv_sqrt,
        zeros: vec![0.0; a.nrows()],
        kernel: SweepKernel::build(a, 0..a.nrows(), kernel::auto_select(a))?,
        scaled: RefCell::new(vec![0.0; a.ncols()]),
    };
    let ext = eigen::lanczos_extreme(&op, AUTO_LANCZOS_STEPS)?;
    if ext.min <= 0.0 || !ext.min.is_finite() || !ext.max.is_finite() {
        return Err(LinalgError::InvalidStructure(format!(
            "omega=auto needs an SPD Jacobi-preconditioned operator \
             (estimated spectrum [{}, {}])",
            ext.min, ext.max
        )));
    }
    Ok((ext.min, ext.max))
}

/// The SPD-safe relaxation window recorded when a method resolves against
/// a concrete spectrum.
///
/// PR 5 resolved `omega=auto` once at plan time from the *synchronous*
/// spectrum and threw the spectrum away, so nothing downstream could tell
/// how much headroom the chosen parameters had once asynchronous staleness
/// shrank the stable window (Chow, Frommer & Szyld). This type keeps the
/// Lanczos estimate: both the static resolution path and the online
/// controller clamp against the same interval.
///
/// It is a *companion* to [`ResolvedMethod`] rather than a field on it —
/// resolved methods are `Copy + PartialEq` values hand-constructed all over
/// the engine tests, and the interval is per-matrix, not per-method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafeInterval {
    /// Estimated smallest eigenvalue of `D⁻¹A` (positive for SPD).
    pub lambda_min: f64,
    /// Estimated largest eigenvalue of `D⁻¹A`.
    pub lambda_max: f64,
}

/// Momentum coefficients are capped strictly below the β < 1 stability
/// boundary so a clamped pair always has contraction margin.
pub const BETA_CAP: f64 = 0.95;

/// Fraction of the synchronous ω upper bound used as the adaptive floor —
/// the slowest relaxation the controller will shrink to.
pub const OMEGA_FLOOR_FRACTION: f64 = 0.05;

impl SafeInterval {
    /// Estimates the interval for `a` with the same deterministic Lanczos
    /// run `omega=auto` resolution uses.
    ///
    /// # Errors
    /// Fails when the Jacobi-preconditioned operator is not SPD.
    pub fn estimate(a: &CsrMatrix) -> Result<SafeInterval, LinalgError> {
        let (lambda_min, lambda_max) = preconditioned_extremes(a)?;
        Ok(SafeInterval {
            lambda_min,
            lambda_max,
        })
    }

    /// Synchronous stability bound on ω for a given momentum β: second-order
    /// Richardson on an SPD spectrum is stable iff `ω λ_max < 2 (1 + β)`
    /// (β = 0 recovers the classical `ω < 2/λ_max`).
    pub fn omega_max(&self, beta: f64) -> f64 {
        2.0 * (1.0 + beta) / self.lambda_max
    }

    /// The adaptive lower bound: a small fixed fraction of the β = 0 upper
    /// bound, so "shrink toward the delay-safe window" terminates at a
    /// still-productive relaxation weight instead of zero.
    pub fn omega_min(&self) -> f64 {
        OMEGA_FLOOR_FRACTION * self.omega_max(0.0)
    }

    /// The minimax-optimal first-order ω, `2/(λ_min + λ_max)` — the value
    /// the controller switches a destabilized momentum method down to.
    pub fn omega_opt1(&self) -> f64 {
        2.0 / (self.lambda_min + self.lambda_max)
    }

    /// Whether `(ω, β)` lies inside the safe window.
    pub fn contains(&self, omega: f64, beta: f64) -> bool {
        (0.0..=BETA_CAP).contains(&beta)
            && omega >= self.omega_min()
            && omega < self.omega_max(beta)
    }

    /// Clamps `(ω, β)` into the safe window: β first (into `[0, BETA_CAP]`),
    /// then ω against the bound at the clamped β. Values already inside are
    /// returned bit-identical.
    pub fn clamp(&self, omega: f64, beta: f64) -> (f64, f64) {
        let beta = beta.clamp(0.0, BETA_CAP);
        // Stay strictly inside the open upper bound: the boundary itself is
        // the non-contractive edge.
        let hi = self.omega_max(beta) * (1.0 - f64::EPSILON);
        (omega.clamp(self.omega_min(), hi), beta)
    }
}

/// A resolved method together with the spectrum window it was resolved
/// against (when a spectrum estimate ran). Produced by
/// [`Method::resolve_full`]; the plain [`Method::resolve`] discards the
/// interval for callers that only execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolution {
    /// The method with every parameter fixed.
    pub method: ResolvedMethod,
    /// The safe window, present whenever resolution estimated the spectrum
    /// (`omega=auto` or a derived β). `None` means no Lanczos ran; callers
    /// that need an interval anyway (the controller) use
    /// [`SafeInterval::estimate`].
    pub interval: Option<SafeInterval>,
}

/// A method with every parameter fixed; what the engines execute.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ResolvedMethod {
    /// Plain Jacobi.
    #[default]
    Jacobi,
    /// `x ← x + ω D⁻¹ r`.
    Richardson1 {
        /// Relaxation weight.
        omega: f64,
    },
    /// `x ← x + ω D⁻¹ r + β (x − x_prev)`.
    Richardson2 {
        /// Relaxation weight.
        omega: f64,
        /// Momentum coefficient.
        beta: f64,
    },
    /// Residual-weighted randomized row selection.
    RandomizedResidual {
        /// Fraction of candidate rows relaxed per sweep.
        fraction: f64,
        /// Base seed for the selection streams (engines mix in their own
        /// worker/sweep indices via [`selection_seed`]).
        seed: u64,
    },
}

impl ResolvedMethod {
    /// Canonical grammar name.
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedMethod::Jacobi => "jacobi",
            ResolvedMethod::Richardson1 { .. } => "richardson1",
            ResolvedMethod::Richardson2 { .. } => "richardson2",
            ResolvedMethod::RandomizedResidual { .. } => "rwr",
        }
    }

    /// Human-readable tag with resolved parameters, e.g.
    /// `richardson2(ω=0.872, β=0.311)`.
    pub fn label(&self) -> String {
        match *self {
            ResolvedMethod::Jacobi => "jacobi".into(),
            ResolvedMethod::Richardson1 { omega } => format!("richardson1(ω={omega:.4})"),
            ResolvedMethod::Richardson2 { omega, beta } => {
                format!("richardson2(ω={omega:.4}, β={beta:.4})")
            }
            ResolvedMethod::RandomizedResidual { fraction, .. } => {
                format!("rwr(fraction={fraction})")
            }
        }
    }

    /// Whether the update reads the previous value of the relaxed row
    /// (engines must keep per-row `x_prev` state).
    pub fn needs_previous_iterate(&self) -> bool {
        matches!(self, ResolvedMethod::Richardson2 { .. })
    }

    /// Returns the method unchanged when every parameter lies in its
    /// documented range: ω finite and positive, β in `[0, 1)`, the rwr
    /// fraction in `(0, 1]`. Otherwise returns the message naming the
    /// first parameter that does not. [`Method::resolve`] and the wire
    /// decode of a net job both check through here.
    pub fn validate(self) -> Result<ResolvedMethod, String> {
        match self {
            ResolvedMethod::Richardson1 { omega } | ResolvedMethod::Richardson2 { omega, .. }
                if !(omega.is_finite() && omega > 0.0) =>
            {
                Err(format!("omega must be finite and positive, got {omega}"))
            }
            ResolvedMethod::Richardson2 { beta, .. }
                if !(beta.is_finite() && (0.0..1.0).contains(&beta)) =>
            {
                Err(format!("beta must lie in [0, 1), got {beta}"))
            }
            ResolvedMethod::RandomizedResidual { fraction, .. }
                if !(fraction > 0.0 && fraction <= 1.0) =>
            {
                Err(format!("rwr fraction must lie in (0, 1], got {fraction}"))
            }
            valid => Ok(valid),
        }
    }

    /// Folds a legacy damping weight into the method. Plain Jacobi damped
    /// by ω is `Richardson1 { ω }`: both run `x + ω d⁻¹ r`, and at ω = 1
    /// that is Jacobi's own update bit for bit (`1·d = d`). Every other
    /// method carries its own parameters and ignores `omega`. `aj-core`'s
    /// `solve` folds its `omega` option once, and the simulators fold
    /// their configs' `omega` once, at entry.
    pub fn fold_omega(self, omega: f64) -> ResolvedMethod {
        match self {
            ResolvedMethod::Jacobi => ResolvedMethod::Richardson1 { omega },
            other => other,
        }
    }

    /// The method with its relaxation parameters replaced by `(ω, β)`, the
    /// way an online controller retargets a running method: Jacobi becomes
    /// `Richardson1 { ω }`, first order drops β, and rwr, which takes
    /// neither, stays as it is.
    pub fn with_params(self, omega: f64, beta: f64) -> ResolvedMethod {
        match self {
            ResolvedMethod::Jacobi | ResolvedMethod::Richardson1 { .. } => {
                ResolvedMethod::Richardson1 { omega }
            }
            ResolvedMethod::Richardson2 { .. } => ResolvedMethod::Richardson2 { omega, beta },
            rwr @ ResolvedMethod::RandomizedResidual { .. } => rwr,
        }
    }

    /// The canonical `method=` selector that re-parses to this resolved
    /// method with no further spectrum estimation — lets a cache hand a
    /// resolved method back through a string interface.
    pub fn to_spec(&self) -> String {
        match *self {
            ResolvedMethod::Jacobi => "jacobi".into(),
            ResolvedMethod::Richardson1 { omega } => format!("richardson1:omega={omega}"),
            ResolvedMethod::Richardson2 { omega, beta } => {
                format!("richardson2:omega={omega}:beta={beta}")
            }
            ResolvedMethod::RandomizedResidual { fraction, .. } => {
                format!("rwr:fraction={fraction}")
            }
        }
    }
}

/// Mixes the method seed with an engine-chosen stream (worker/rank id) and
/// step (sweep counter) into one selection-stream seed. Engines that must
/// agree bit-for-bit (a synchronous engine and the dense reference) use the
/// same `(stream, step)` pair.
pub fn selection_seed(base: u64, stream: u64, step: u64) -> u64 {
    base ^ stream
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(step.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Rows an rwr sweep relaxes out of `m` candidates: `⌈fraction·m⌉`, at
/// least one.
fn rwr_rows(fraction: f64, m: usize) -> usize {
    ((fraction * m as f64).ceil() as usize).max(1)
}

/// Draws `k` of the `weights.len()` candidates without replacement with
/// probability ∝ `weights[i]` (Efraimidis–Spirakis exponential keys), using
/// a self-contained splitmix64 stream so every engine reproduces the same
/// draw from the same seed. Returns the chosen indices in ascending order.
pub fn select_residual_weighted(weights: &[f64], k: usize, seed: u64) -> Vec<usize> {
    let m = weights.len();
    let k = k.min(m);
    if k == 0 {
        return Vec::new();
    }
    if k == m {
        return (0..m).collect();
    }
    let mut state = seed;
    let mut next_unit = move || {
        // splitmix64; (0, 1] so the log key is always defined.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        ((z >> 11) + 1) as f64 / (1u64 << 53) as f64
    };
    // key_i = ln(u_i) / w_i; the k largest keys are a weighted sample
    // without replacement. Zero-weight rows key to -∞ and are only chosen
    // once every positive-weight row is, with the index breaking ties
    // deterministically.
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let u = next_unit();
            let key = if w > 0.0 {
                u.ln() / w
            } else {
                f64::NEG_INFINITY
            };
            (key, i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut chosen: Vec<usize> = keyed[..k].iter().map(|&(_, i)| i).collect();
    chosen.sort_unstable();
    chosen
}

/// Relaxes one block of rows in place: the update every asynchronous
/// engine applies to the rows it owns, `x ← x + ω D⁻¹ r` (richardson2 adds
/// `β (x − x_prev)`; rwr relaxes a residual-weighted subset at ω = 1).
///
/// `res` holds the block's residuals `b − A x`, all computed from one
/// state by the engine's [`SweepKernel`] before the call; `diag_inv`, `x`
/// and `x_prev` are the block's own entries of `D⁻¹`, the iterate and the
/// value each row held before its last relaxation. `x_prev` is read and
/// written only when [`ResolvedMethod::needs_previous_iterate`] (it may be
/// empty otherwise). rwr draws its rows from
/// `selection_seed(seed, stream, step)`. Returns the number of rows
/// relaxed.
///
/// Each row's update reads only that row's own values, so updating in
/// place equals the two-phase update; over a whole matrix with `stream`
/// 0 this is [`method_iteration`] bit for bit.
///
/// # Panics
/// Panics when `res`, `diag_inv` or a needed `x_prev` is not as long as
/// `x`.
pub fn relax_block(
    method: &ResolvedMethod,
    res: &[f64],
    diag_inv: &[f64],
    x: &mut [f64],
    x_prev: &mut [f64],
    stream: u64,
    step: u64,
) -> usize {
    let m = x.len();
    assert!(
        res.len() == m && diag_inv.len() == m,
        "relax_block: block length mismatch"
    );
    match *method {
        ResolvedMethod::Jacobi | ResolvedMethod::Richardson1 { .. } => {
            let omega = match *method {
                ResolvedMethod::Richardson1 { omega } => omega,
                _ => 1.0,
            };
            for ((xi, &d), &r) in x.iter_mut().zip(diag_inv).zip(res) {
                *xi += omega * d * r;
            }
            m
        }
        ResolvedMethod::Richardson2 { omega, beta } => {
            assert_eq!(x_prev.len(), m, "relax_block: x_prev length mismatch");
            for (((xi, pi), &d), &r) in x.iter_mut().zip(x_prev.iter_mut()).zip(diag_inv).zip(res) {
                let next = *xi + omega * d * r + beta * (*xi - *pi);
                *pi = *xi;
                *xi = next;
            }
            m
        }
        ResolvedMethod::RandomizedResidual { fraction, seed } => {
            let weights: Vec<f64> = res.iter().map(|r| r.abs()).collect();
            let rows = select_residual_weighted(
                &weights,
                rwr_rows(fraction, m),
                selection_seed(seed, stream, step),
            );
            for &i in &rows {
                x[i] += diag_inv[i] * res[i];
            }
            rows.len()
        }
    }
}

/// One synchronous iteration of `method`, writing into `x_next` (two-phase:
/// every update reads `x`). `x_prev` is the iterate before `x` (pass `x0`
/// on the first step, where the momentum term then vanishes) and `step` is
/// the 0-based iteration index feeding the randomized selection stream.
/// Returns the number of rows relaxed this iteration.
///
/// This is the dense reference every synchronous engine must match
/// bit-for-bit: they either call it directly or perform the identical
/// floating-point expression in the identical row order.
#[allow(clippy::too_many_arguments)] // the dense-iteration contract: all engine state, explicitly
pub fn method_iteration(
    a: &CsrMatrix,
    b: &[f64],
    diag_inv: &[f64],
    method: &ResolvedMethod,
    step: u64,
    x: &[f64],
    x_prev: &[f64],
    x_next: &mut [f64],
) -> usize {
    let n = a.nrows();
    match *method {
        ResolvedMethod::Jacobi => {
            sweeps::weighted_jacobi_iteration(a, b, diag_inv, 1.0, x, x_next);
            n
        }
        ResolvedMethod::Richardson1 { omega } => {
            sweeps::weighted_jacobi_iteration(a, b, diag_inv, omega, x, x_next);
            n
        }
        ResolvedMethod::Richardson2 { omega, beta } => {
            for i in 0..n {
                let r = b[i] - a.row_dot(i, x);
                x_next[i] = x[i] + omega * diag_inv[i] * r + beta * (x[i] - x_prev[i]);
            }
            n
        }
        ResolvedMethod::RandomizedResidual { fraction, seed } => {
            let mut res = vec![0.0; n];
            for i in 0..n {
                res[i] = b[i] - a.row_dot(i, x);
            }
            let weights: Vec<f64> = res.iter().map(|r| r.abs()).collect();
            let rows = select_residual_weighted(
                &weights,
                rwr_rows(fraction, n),
                selection_seed(seed, 0, step),
            );
            x_next.copy_from_slice(x);
            for &i in &rows {
                x_next[i] = x[i] + diag_inv[i] * res[i];
            }
            rows.len()
        }
    }
}

/// Outcome of [`method_solve`].
#[derive(Debug, Clone)]
pub struct MethodSolve {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Relative-residual history (entry 0 is the initial value).
    pub history: Vec<f64>,
    /// Total rows relaxed across all iterations.
    pub relaxations: u64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Runs `method` synchronously until the relative residual (in `norm`)
/// drops below `tol` or `max_iter` iterations elapse — the sequential
/// reference solver for every method, mirroring
/// [`sweeps::jacobi_solve`]'s contract.
///
/// # Errors
/// Propagates a zero diagonal.
pub fn method_solve(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    method: &ResolvedMethod,
    tol: f64,
    max_iter: usize,
    norm: Norm,
) -> Result<MethodSolve, LinalgError> {
    let diag_inv = sweeps::inverse_diagonal(a)?;
    let mut x_prev = x0.to_vec();
    let mut x = x0.to_vec();
    let mut x_next = vec![0.0; x.len()];
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    let mut history = vec![vecops::norm(&a.residual(&x, b), norm) / nb];
    let mut relaxations = 0u64;
    for step in 0..max_iter {
        if *history.last().unwrap() < tol {
            break;
        }
        relaxations += method_iteration(
            a,
            b,
            &diag_inv,
            method,
            step as u64,
            &x,
            &x_prev,
            &mut x_next,
        ) as u64;
        std::mem::swap(&mut x_prev, &mut x);
        std::mem::swap(&mut x, &mut x_next);
        // After the swaps: x is the new iterate, x_prev the one before it,
        // x_next scratch (holding the stale pre-previous values).
        history.push(vecops::norm(&a.residual(&x, b), norm) / nb);
    }
    let converged = *history.last().unwrap() < tol;
    Ok(MethodSolve {
        x,
        history,
        relaxations,
        converged,
    })
}

/// The synchronous iteration, taking each residual once.
///
/// One residual `r = b − Ax` does two jobs in a synchronous step: its norm
/// is the convergence measure and `r` itself is the correction
/// `x ← x + ω D⁻¹ r`. `SyncStep` takes `r` through one whole-matrix CSR
/// [`SweepKernel`], lends it to the stop test or a monitor sample
/// ([`SyncStep::residual`]), and relaxes from the same vector with
/// [`relax_block`] over the whole matrix on stream 0. The residual is taken
/// when first asked for after a step, so `k` steps followed by one more
/// look take `k + 1` passes over `A`, where [`method_solve`] takes
/// `2k + 1`, and a caller that never looks takes `k`.
///
/// Every iterate, residual and row count is [`method_iteration`]'s bit for
/// bit: the kernel's CSR rows are the reference's `b_i − (Ax)_i`, the norm
/// of the residual vector is the fused [`CsrMatrix::residual_norm`], and
/// `relax_block` over the whole matrix on stream 0 is the reference
/// iteration (see there).
#[derive(Debug)]
pub struct SyncStep<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    diag_inv: &'a [f64],
    method: ResolvedMethod,
    kernel: SweepKernel,
    x: Vec<f64>,
    /// Each row's value before its last relaxation; read only by
    /// richardson2, empty for the other methods.
    x_prev: Vec<f64>,
    r: Vec<f64>,
    /// Whether `r` is the residual of the current `x`.
    fresh: bool,
    steps: u64,
}

impl<'a> SyncStep<'a> {
    /// Starts at `x0`. `diag_inv` holds `1/a_ii`; the step divides by
    /// nothing itself, so the caller decides how a zero diagonal fails.
    ///
    /// # Panics
    /// Panics unless `b`, `diag_inv` and `x0` have one entry per row.
    pub fn new(
        a: &'a CsrMatrix,
        b: &'a [f64],
        diag_inv: &'a [f64],
        method: ResolvedMethod,
        x0: &[f64],
    ) -> Self {
        let n = a.nrows();
        assert!(
            b.len() == n && diag_inv.len() == n && x0.len() == n,
            "SyncStep: length mismatch"
        );
        let kernel =
            SweepKernel::build(a, 0..n, StorageFormat::Csr).expect("rows 0..n are in range");
        SyncStep {
            a,
            b,
            diag_inv,
            method,
            kernel,
            x: x0.to_vec(),
            x_prev: if method.needs_previous_iterate() {
                x0.to_vec()
            } else {
                Vec::new()
            },
            r: vec![0.0; n],
            fresh: false,
            steps: 0,
        }
    }

    /// `b − Ax` for the current iterate, taken through the kernel the first
    /// time it is asked for after each step.
    pub fn residual(&mut self) -> &[f64] {
        if !self.fresh {
            self.kernel
                .residuals_into(self.a, &self.x, self.b, &mut self.r);
            self.fresh = true;
        }
        &self.r
    }

    /// One synchronous iteration from the current residual; returns the
    /// number of rows relaxed. rwr draws its rows from
    /// `selection_seed(seed, 0, step)`, `step` counting from 0.
    pub fn step(&mut self) -> usize {
        self.residual();
        let swept = relax_block(
            &self.method,
            &self.r,
            self.diag_inv,
            &mut self.x,
            &mut self.x_prev,
            0,
            self.steps,
        );
        self.fresh = false;
        self.steps += 1;
        swept
    }

    /// Consumes the step, returning the current iterate.
    pub fn into_x(self) -> Vec<f64> {
        self.x
    }
}

/// [`method_solve`]'s contract and bits on [`SyncStep`]: `k` iterations
/// take `k + 1` residual passes instead of `2k + 1`. This is the solver the
/// sequential backend runs; [`method_solve`] stays the dense reference
/// that tests compare it with.
///
/// # Errors
/// Propagates a zero diagonal.
pub fn sync_solve(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    method: &ResolvedMethod,
    tol: f64,
    max_iter: usize,
    norm: Norm,
) -> Result<MethodSolve, LinalgError> {
    let diag_inv = sweeps::inverse_diagonal(a)?;
    let nb = vecops::norm(b, norm).max(f64::MIN_POSITIVE);
    let mut step = SyncStep::new(a, b, &diag_inv, *method, x0);
    let mut history = vec![vecops::norm(step.residual(), norm) / nb];
    let mut relaxations = 0u64;
    for _ in 0..max_iter {
        if *history.last().unwrap() < tol {
            break;
        }
        relaxations += step.step() as u64;
        history.push(vecops::norm(step.residual(), norm) / nb);
    }
    let converged = *history.last().unwrap() < tol;
    Ok(MethodSolve {
        x: step.into_x(),
        history,
        relaxations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    fn unit_laplacian(n: usize) -> CsrMatrix {
        laplacian(n).scale_to_unit_diagonal().unwrap()
    }

    #[test]
    fn jacobi_resolution_is_trivial() {
        let a = unit_laplacian(8);
        assert_eq!(
            Method::Jacobi.resolve(&a, 1).unwrap(),
            ResolvedMethod::Jacobi
        );
    }

    #[test]
    fn auto_omega_matches_the_known_laplacian_spectrum() {
        // Unit-diagonal 1-D Laplacian of size n: eigenvalues
        // 1 − cos(kπ/(n+1)), so λmin+λmax = 2 and the optimal first-order
        // ω is exactly 1.
        let a = unit_laplacian(40);
        let m = Method::Richardson1 {
            omega: OmegaSpec::Auto,
        }
        .resolve(&a, 0)
        .unwrap();
        match m {
            ResolvedMethod::Richardson1 { omega } => {
                assert!((omega - 1.0).abs() < 1e-6, "ω = {omega}");
            }
            other => panic!("wrong resolution: {other:?}"),
        }
    }

    #[test]
    fn richardson2_auto_derives_a_momentum_pair() {
        let a = unit_laplacian(40);
        let m = Method::Richardson2 {
            omega: OmegaSpec::Auto,
            beta: None,
        }
        .resolve(&a, 0)
        .unwrap();
        match m {
            ResolvedMethod::Richardson2 { omega, beta } => {
                assert!(omega > 0.0 && omega < 2.0);
                assert!(beta > 0.0 && beta < 1.0);
                // κ is large for n=40, so momentum should be substantial.
                assert!(beta > 0.5, "β = {beta}");
            }
            other => panic!("wrong resolution: {other:?}"),
        }
    }

    #[test]
    fn fixed_omega_with_derived_beta_keeps_omega() {
        let a = unit_laplacian(20);
        let m = Method::Richardson2 {
            omega: OmegaSpec::Fixed(0.75),
            beta: None,
        }
        .resolve(&a, 0)
        .unwrap();
        match m {
            ResolvedMethod::Richardson2 { omega, beta } => {
                assert_eq!(omega, 0.75);
                assert!(beta > 0.0 && beta < 1.0);
            }
            other => panic!("wrong resolution: {other:?}"),
        }
    }

    #[test]
    fn out_of_range_parameters_are_rejected() {
        let a = unit_laplacian(8);
        assert!(Method::Richardson1 {
            omega: OmegaSpec::Fixed(-0.5)
        }
        .resolve(&a, 0)
        .is_err());
        assert!(Method::Richardson2 {
            omega: OmegaSpec::Fixed(1.0),
            beta: Some(1.5)
        }
        .resolve(&a, 0)
        .is_err());
        assert!(Method::RandomizedResidual { fraction: 0.0 }
            .resolve(&a, 0)
            .is_err());
        assert!(Method::RandomizedResidual { fraction: 1.5 }
            .resolve(&a, 0)
            .is_err());
    }

    #[test]
    fn indefinite_preconditioned_operator_fails_auto_resolution() {
        // A symmetric matrix with positive diagonal but an indefinite
        // Jacobi-preconditioned spectrum: strong off-diagonal coupling.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push_sym(0, 1, -3.0);
        let a = coo.to_csr();
        let err = Method::Richardson1 {
            omega: OmegaSpec::Auto,
        }
        .resolve(&a, 0)
        .unwrap_err();
        assert!(err.to_string().contains("SPD"), "{err}");
    }

    #[test]
    fn weighted_selection_is_deterministic_and_biased() {
        let weights = vec![0.0, 0.0, 10.0, 0.1, 10.0, 0.0];
        let s1 = select_residual_weighted(&weights, 2, 42);
        let s2 = select_residual_weighted(&weights, 2, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 2);
        // Heavy rows dominate a k=2 draw over many seeds.
        let mut heavy = 0;
        for seed in 0..200 {
            let s = select_residual_weighted(&weights, 2, seed);
            heavy += s.iter().filter(|&&i| i == 2 || i == 4).count();
        }
        assert!(heavy > 350, "heavy rows picked only {heavy}/400 times");
        // k ≥ m returns everything; k = 0 nothing.
        assert_eq!(
            select_residual_weighted(&weights, 10, 7),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert!(select_residual_weighted(&weights, 0, 7).is_empty());
    }

    #[test]
    fn selection_never_repeats_an_index() {
        let weights: Vec<f64> = (0..50).map(|i| (i as f64 * 0.73).sin().abs()).collect();
        for seed in 0..20 {
            let s = select_residual_weighted(&weights, 20, seed);
            assert_eq!(s.len(), 20);
            let mut dedup = s.clone();
            dedup.dedup();
            assert_eq!(s, dedup, "duplicate index in draw");
            assert!(s.windows(2).all(|w| w[0] < w[1]), "not ascending");
        }
    }

    #[test]
    fn every_method_solves_the_laplacian() {
        let a = unit_laplacian(24);
        let b = vec![1.0; 24];
        let x0 = vec![0.0; 24];
        for method in [
            ResolvedMethod::Jacobi,
            ResolvedMethod::Richardson1 { omega: 0.9 },
            Method::Richardson2 {
                omega: OmegaSpec::Auto,
                beta: None,
            }
            .resolve(&a, 0)
            .unwrap(),
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 7,
            },
        ] {
            let out = method_solve(&a, &b, &x0, &method, 1e-8, 200_000, Norm::L2).unwrap();
            assert!(out.converged, "{} did not converge", method.name());
            assert!(
                a.relative_residual(&out.x, &b, Norm::L2) < 1e-7,
                "{} residual too high",
                method.name()
            );
            assert!(out.relaxations > 0);
        }
    }

    #[test]
    fn momentum_beats_plain_jacobi_in_iterations() {
        let a = unit_laplacian(64);
        let b = vec![1.0; 64];
        let x0 = vec![0.0; 64];
        let plain = method_solve(
            &a,
            &b,
            &x0,
            &ResolvedMethod::Jacobi,
            1e-6,
            500_000,
            Norm::L2,
        )
        .unwrap();
        let r2 = Method::Richardson2 {
            omega: OmegaSpec::Auto,
            beta: None,
        }
        .resolve(&a, 0)
        .unwrap();
        let momentum = method_solve(&a, &b, &x0, &r2, 1e-6, 500_000, Norm::L2).unwrap();
        assert!(plain.converged && momentum.converged);
        assert!(
            momentum.history.len() * 4 < plain.history.len(),
            "momentum {} vs jacobi {} iterations",
            momentum.history.len(),
            plain.history.len()
        );
    }

    #[test]
    fn jacobi_method_iteration_matches_the_classic_kernel() {
        let a = unit_laplacian(12);
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let x: Vec<f64> = (0..12).map(|i| (i as f64).cos()).collect();
        let diag_inv = vec![1.0; 12];
        let mut m = vec![0.0; 12];
        let mut c = vec![0.0; 12];
        method_iteration(
            &a,
            &b,
            &diag_inv,
            &ResolvedMethod::Jacobi,
            0,
            &x,
            &x,
            &mut m,
        );
        sweeps::jacobi_iteration(&a, &b, &diag_inv, &x, &mut c);
        assert_eq!(m, c, "must be bit-identical");
    }

    #[test]
    fn first_richardson2_step_has_no_momentum() {
        let a = unit_laplacian(10);
        let b = vec![0.5; 10];
        let x0: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let diag_inv = vec![1.0; 10];
        let mut with_m = vec![0.0; 10];
        let mut without = vec![0.0; 10];
        method_iteration(
            &a,
            &b,
            &diag_inv,
            &ResolvedMethod::Richardson2 {
                omega: 0.8,
                beta: 0.4,
            },
            0,
            &x0,
            &x0,
            &mut with_m,
        );
        sweeps::weighted_jacobi_iteration(&a, &b, &diag_inv, 0.8, &x0, &mut without);
        for i in 0..10 {
            assert!((with_m[i] - without[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn resolve_full_records_the_lanczos_interval() {
        let a = unit_laplacian(40);
        let (lo, hi) = preconditioned_extremes(&a).unwrap();
        let r = Method::Richardson2 {
            omega: OmegaSpec::Auto,
            beta: None,
        }
        .resolve_full(&a, 0)
        .unwrap();
        let interval = r.interval.expect("auto resolution records the interval");
        assert_eq!(
            interval,
            SafeInterval {
                lambda_min: lo,
                lambda_max: hi
            }
        );
        // The auto pair lands strictly inside its own window — the clamp is
        // a no-op, so resolve() and resolve_full() agree bit-for-bit.
        match r.method {
            ResolvedMethod::Richardson2 { omega, beta } => {
                assert!(interval.contains(omega, beta), "ω={omega} β={beta}");
                assert!(omega < interval.omega_max(beta));
            }
            other => panic!("wrong resolution: {other:?}"),
        }
        assert_eq!(
            r.method,
            Method::Richardson2 {
                omega: OmegaSpec::Auto,
                beta: None,
            }
            .resolve(&a, 0)
            .unwrap()
        );
        // Same for first-order auto.
        let r1 = Method::Richardson1 {
            omega: OmegaSpec::Auto,
        }
        .resolve_full(&a, 0)
        .unwrap();
        let i1 = r1.interval.unwrap();
        match r1.method {
            ResolvedMethod::Richardson1 { omega } => {
                assert!(i1.contains(omega, 0.0));
                assert!((omega - i1.omega_opt1()).abs() == 0.0);
            }
            other => panic!("wrong resolution: {other:?}"),
        }
    }

    #[test]
    fn fixed_parameters_skip_the_spectrum_estimate() {
        let a = unit_laplacian(16);
        for m in [
            Method::Jacobi,
            Method::Richardson1 {
                omega: OmegaSpec::Fixed(0.9),
            },
            Method::Richardson2 {
                omega: OmegaSpec::Fixed(0.9),
                beta: Some(0.3),
            },
            Method::RandomizedResidual { fraction: 0.5 },
        ] {
            assert!(
                m.resolve_full(&a, 0).unwrap().interval.is_none(),
                "{} should not estimate",
                m.name()
            );
        }
        // A derived β forces the estimate even at fixed ω.
        assert!(Method::Richardson2 {
            omega: OmegaSpec::Fixed(0.9),
            beta: None,
        }
        .resolve_full(&a, 0)
        .unwrap()
        .interval
        .is_some());
    }

    #[test]
    fn safe_interval_clamp_is_identity_inside_and_pins_outside() {
        let interval = SafeInterval {
            lambda_min: 0.1,
            lambda_max: 1.9,
        };
        // Inside: bit-identical passthrough.
        let (w, b) = interval.clamp(0.8, 0.4);
        assert_eq!((w, b), (0.8, 0.4));
        // Above the momentum-adjusted bound: clamped strictly below it.
        let hot = interval.omega_max(0.0) * 3.0;
        let (w, b) = interval.clamp(hot, 0.0);
        assert!(w < interval.omega_max(0.0) && interval.contains(w, b));
        // Below the floor: clamped up to it.
        let (w, _) = interval.clamp(1e-9, 0.0);
        assert_eq!(w, interval.omega_min());
        // β beyond the cap: capped, ω re-checked at the capped β.
        let (w, b) = interval.clamp(1.0, 2.0);
        assert_eq!(b, BETA_CAP);
        assert!(interval.contains(w, b));
        // A larger β widens the ω bound (the 2(1+β)/λmax law).
        assert!(interval.omega_max(0.9) > interval.omega_max(0.0));
    }

    #[test]
    fn spec_roundtrip_resolves_without_spectrum_work() {
        let a = unit_laplacian(16);
        let resolved = Method::Richardson2 {
            omega: OmegaSpec::Auto,
            beta: None,
        }
        .resolve(&a, 0)
        .unwrap();
        let spec = resolved.to_spec();
        assert!(spec.starts_with("richardson2:omega="), "{spec}");
        assert!(spec.contains(":beta="), "{spec}");
    }
}
