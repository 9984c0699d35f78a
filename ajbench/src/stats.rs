//! Order statistics over raw samples (never histogram buckets).

/// The `q`-quantile of `samples` by linear interpolation between the two
/// closest ranks (`q` in [0, 1]); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the samples between the first and third quartile (the
/// interquartile mean): as robust as the median, but not stuck on one
/// sample's value when samples are coarsely quantized.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted.len() / 4, sorted.len() - sorted.len() / 4);
    mean(&sorted[lo..hi])
}

/// The arithmetic mean of `samples`; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&s), 2.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 4.0, 100.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
