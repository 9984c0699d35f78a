//! Active-row sets `Ψ(k)` and their 0/1 diagonal indicator `D̂(k)`.

/// The set of rows relaxed at one model step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveMask {
    active: Vec<bool>,
    count: usize,
}

impl ActiveMask {
    /// All rows active (synchronous Jacobi step).
    pub fn all(n: usize) -> Self {
        ActiveMask {
            active: vec![true; n],
            count: n,
        }
    }

    /// No rows active (identity step).
    pub fn none(n: usize) -> Self {
        ActiveMask {
            active: vec![false; n],
            count: 0,
        }
    }

    /// Only the listed rows active.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn from_rows(n: usize, rows: &[usize]) -> Self {
        let mut active = vec![false; n];
        let mut count = 0;
        for &r in rows {
            assert!(r < n, "row {r} out of range ({n})");
            if !active[r] {
                active[r] = true;
                count += 1;
            }
        }
        ActiveMask { active, count }
    }

    /// All rows *except* the listed delayed ones.
    pub fn all_except(n: usize, delayed: &[usize]) -> Self {
        let mut mask = Self::all(n);
        for &r in delayed {
            assert!(r < n, "row {r} out of range ({n})");
            if mask.active[r] {
                mask.active[r] = false;
                mask.count -= 1;
            }
        }
        mask
    }

    /// Deterministic pseudo-random mask where each row is active with
    /// probability `density`.
    pub fn random(n: usize, density: f64, seed: u64) -> Self {
        let mut state = seed
            .wrapping_mul(0xa0761d6478bd642f)
            .wrapping_add(0x9e3779b97f4a7c15);
        let mut active = vec![false; n];
        let mut count = 0;
        for slot in active.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            if u < density {
                *slot = true;
                count += 1;
            }
        }
        ActiveMask { active, count }
    }

    /// Problem size.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True when no rows exist (not merely no active rows).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Whether row `i` relaxes this step.
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Number of active rows `|Ψ(k)|`.
    pub fn num_active(&self) -> usize {
        self.count
    }

    /// Number of delayed rows `n − |Ψ(k)|`.
    pub fn num_delayed(&self) -> usize {
        self.active.len() - self.count
    }

    /// Ascending list of active rows.
    pub fn active_rows(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&i| self.active[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_counts() {
        let all = ActiveMask::all(5);
        assert_eq!(all.num_active(), 5);
        assert_eq!(all.num_delayed(), 0);
        let none = ActiveMask::none(5);
        assert_eq!(none.num_active(), 0);
        let some = ActiveMask::from_rows(5, &[1, 3, 3]);
        assert_eq!(some.num_active(), 2);
        assert_eq!(some.active_rows(), vec![1, 3]);
        let except = ActiveMask::all_except(5, &[0]);
        assert_eq!(except.num_delayed(), 1);
    }

    #[test]
    fn random_mask_density_and_determinism() {
        let m = ActiveMask::random(10_000, 0.3, 9);
        let frac = m.num_active() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "density {frac}");
        assert_eq!(m, ActiveMask::random(10_000, 0.3, 9));
        assert_ne!(m, ActiveMask::random(10_000, 0.3, 10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        ActiveMask::from_rows(3, &[3]);
    }
}
