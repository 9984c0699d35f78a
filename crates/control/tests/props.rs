//! Property battery for the adaptation law and the decision kernel
//! (the ISSUE 10 controller test battery's pure half):
//!
//! 1. adapted ω/β stay inside the SPD-safe interval for arbitrary
//!    staleness histograms and base parameters;
//! 2. the law is monotone non-increasing in mean staleness;
//! 3. the controller is a pure function of its observation window
//!    (replay-determinism), and every parameter decision it emits is
//!    inside the safe interval.

use aj_control::{adapt, ControlConfig, Controller, Decision, Observation};
use aj_linalg::method::{ResolvedMethod, SafeInterval, BETA_CAP};
use proptest::prelude::*;

/// Mean of a staleness histogram given as (bucket value, count) pairs.
fn histogram_mean(hist: &[(f64, u64)]) -> f64 {
    let total: u64 = hist.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    hist.iter().map(|&(v, c)| v * c as f64).sum::<f64>() / total as f64
}

fn interval(lo: f64, spread: f64) -> SafeInterval {
    SafeInterval {
        lambda_min: lo,
        lambda_max: lo + spread,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (1) In-interval for arbitrary histograms: whatever staleness
    /// distribution the engines measure, the adapted pair is SPD-safe.
    #[test]
    fn adapted_parameters_stay_in_the_safe_interval(
        lo in 0.01f64..1.0,
        spread in 0.1f64..3.0,
        base_omega in 0.0f64..4.0,
        base_beta in 0.0f64..1.5,
        hist in proptest::collection::vec((0.0f64..500.0, 0u64..1000), 1..32),
    ) {
        let iv = interval(lo, spread);
        let s = histogram_mean(&hist);
        let (w, b) = adapt(&iv, base_omega, base_beta, s);
        prop_assert!(iv.contains(w, b), "(ω={w}, β={b}) outside {iv:?} at s={s}");
        prop_assert!(b <= BETA_CAP);
        prop_assert!(w < iv.omega_max(b));
        prop_assert!(w >= iv.omega_min());
    }

    /// (2) Monotone: more observed staleness never yields a hotter pair.
    #[test]
    fn adaptation_is_monotone_in_mean_staleness(
        lo in 0.01f64..1.0,
        spread in 0.1f64..3.0,
        base_omega in 0.0f64..4.0,
        base_beta in 0.0f64..1.5,
        s1 in 0.0f64..300.0,
        ds in 0.0f64..300.0,
    ) {
        let iv = interval(lo, spread);
        let (w1, b1) = adapt(&iv, base_omega, base_beta, s1);
        let (w2, b2) = adapt(&iv, base_omega, base_beta, s1 + ds);
        prop_assert!(w2 <= w1, "ω grew with staleness: {w1} -> {w2}");
        prop_assert!(b2 <= b1, "β grew with staleness: {b1} -> {b2}");
    }

    /// (2b) The law is a pure function: same inputs, same outputs, bitwise.
    #[test]
    fn adaptation_law_is_pure(
        lo in 0.01f64..1.0,
        spread in 0.1f64..3.0,
        base_omega in 0.0f64..4.0,
        base_beta in 0.0f64..1.5,
        s in 0.0f64..300.0,
    ) {
        let iv = interval(lo, spread);
        prop_assert_eq!(
            adapt(&iv, base_omega, base_beta, s),
            adapt(&iv, base_omega, base_beta, s)
        );
    }

    /// (3) Replay-determinism: two controllers fed the same observation
    /// sequence agree decision-for-decision and end in the same state; and
    /// every parameter decision lies in the safe interval.
    #[test]
    fn controller_replays_deterministically_and_stays_safe(
        lo in 0.01f64..1.0,
        spread in 0.1f64..3.0,
        base_omega in 0.1f64..1.5,
        base_beta in 0.0f64..0.9,
        window in 2usize..12,
        shed_after in 10.0f64..200.0,
        raw in proptest::collection::vec(
            (0.0f64..2.0, 0.0f64..400.0, 0usize..8), 1..120),
    ) {
        let iv = interval(lo, spread);
        // Base parameters come from a resolution, which clamps them.
        let (base_omega, base_beta) = iv.clamp(base_omega, base_beta);
        let method = ResolvedMethod::Richardson2 {
            omega: base_omega,
            beta: base_beta,
        };
        let cfg = ControlConfig {
            window,
            shed_after,
            ..ControlConfig::default()
        };
        let mut a = Controller::new(cfg, method, iv);
        let mut b = Controller::new(cfg, method, iv);
        for &(residual, staleness, worst) in &raw {
            let o = Observation { residual, staleness, worst };
            let da = a.observe(o);
            let db = b.observe(o);
            prop_assert_eq!(&da, &db);
            match da {
                Some(Decision::Shrink { omega, beta })
                | Some(Decision::Widen { omega, beta }) => {
                    prop_assert!(
                        iv.contains(omega, beta),
                        "unsafe decision (ω={omega}, β={beta}) in {iv:?}"
                    );
                }
                Some(Decision::Switch { omega }) => {
                    prop_assert!(iv.contains(omega, 0.0));
                }
                _ => {}
            }
            let (w, bb) = a.params();
            prop_assert!(iv.contains(w, bb), "state left the interval");
        }
        prop_assert_eq!(a.into_stats(), b.into_stats());
    }
}
