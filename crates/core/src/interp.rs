//! Interpolation helpers for residual curves.
//!
//! §VII-C: "to measure wall-clock times for a specific residual norm, linear
//! interpolation on the log10 of the relative residual norm was used."

/// First `x` at which a monotone-sampled residual curve crosses below
/// `target`, linearly interpolating on `log10(residual)` between bracketing
/// samples. The curve need not be monotone overall; the first crossing is
/// used. Returns `None` when the curve never reaches the target or is empty.
pub fn crossing_log10(curve: &[(f64, f64)], target: f64) -> Option<f64> {
    if target <= 0.0 {
        return None;
    }
    let mut prev: Option<(f64, f64)> = None;
    let lt = target.log10();
    for &(x, r) in curve {
        if r <= target {
            return match prev {
                None => Some(x),
                Some((px, pr)) => {
                    if pr <= 0.0 || r <= 0.0 {
                        return Some(x);
                    }
                    let (l0, l1) = (pr.log10(), r.log10());
                    if (l1 - l0).abs() < 1e-300 {
                        Some(x)
                    } else {
                        Some(px + (lt - l0) / (l1 - l0) * (x - px))
                    }
                }
            };
        }
        prev = Some((x, r));
    }
    None
}

/// `x` at which the curve has decayed by `factor` relative to its first
/// sample (e.g. `0.1` = one order of magnitude, the Figure 8 metric).
pub fn time_to_reduction(curve: &[(f64, f64)], factor: f64) -> Option<f64> {
    let first = curve.first()?.1;
    crossing_log10(curve, first * factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_interpolates_logarithmically() {
        let curve = [(0.0, 1.0), (10.0, 1e-2)];
        let x = crossing_log10(&curve, 1e-1).unwrap();
        assert!((x - 5.0).abs() < 1e-12);
        // Target hit exactly at a sample.
        assert_eq!(crossing_log10(&curve, 1e-2), Some(10.0));
        // Unreachable.
        assert_eq!(crossing_log10(&curve, 1e-3), None);
        // First sample already below.
        assert_eq!(crossing_log10(&curve, 2.0), Some(0.0));
    }

    #[test]
    fn reduction_uses_first_sample_as_reference() {
        let curve = [(0.0, 0.5), (4.0, 0.05), (8.0, 0.005)];
        let x = time_to_reduction(&curve, 0.1).unwrap();
        assert!((x - 4.0).abs() < 1e-12);
        assert!(time_to_reduction(&curve, 1e-6).is_none());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(crossing_log10(&[], 0.5), None);
        assert_eq!(crossing_log10(&[(0.0, 1.0)], 0.0), None);
    }
}
