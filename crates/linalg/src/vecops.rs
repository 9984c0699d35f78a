//! Dense vector kernels and norms.
//!
//! The paper reports residual histories in the 1-norm (`‖r‖₁`, Figures 4 and
//! 6) and uses the ∞-norm for the error bound of Theorem 1, so all three
//! standard norms are provided behind a single [`Norm`] selector.

/// Which vector norm to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Norm {
    /// `Σ|xᵢ|` — the norm Theorem 1 bounds for the residual.
    L1,
    /// Euclidean norm.
    L2,
    /// `max|xᵢ|` — the norm Theorem 1 bounds for the error.
    Inf,
}

/// `‖x‖` in the requested norm. A NaN entry makes every norm NaN, the
/// ∞-norm included (see [`max_nan`]).
pub fn norm(x: &[f64], which: Norm) -> f64 {
    match which {
        Norm::L1 => x.iter().map(|v| v.abs()).sum(),
        Norm::L2 => x.iter().map(|v| v * v).sum::<f64>().sqrt(),
        Norm::Inf => x.iter().map(|v| v.abs()).fold(0.0, max_nan),
    }
}

/// `max(acc, v)` that propagates NaN, the fold step of every ∞-norm.
/// `f64::max` returns the other operand when one is NaN, so an all-NaN
/// residual would fold to 0.0 and pass any tolerance test. On non-NaN
/// inputs this returns the same bits as `f64::max` of two `|·|` values.
#[inline]
pub fn max_nan(acc: f64, v: f64) -> f64 {
    if v > acc || v.is_nan() {
        v
    } else {
        acc
    }
}

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← y + αx`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← αx`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// `z = x − y`.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// `z = x + y`.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Normalizes `x` to unit 2-norm in place; returns the original norm.
/// Leaves `x` untouched (and returns 0) for the zero vector.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x, Norm::L2);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Relative difference `‖x − y‖₂ / max(‖x‖₂, ‖y‖₂, 1)`, a symmetric
/// comparison metric used throughout the tests.
pub fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    let d = norm(&sub(x, y), Norm::L2);
    let s = norm(x, Norm::L2).max(norm(y, Norm::L2)).max(1.0);
    d / s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_vector() {
        let x = [3.0, -4.0];
        assert_eq!(norm(&x, Norm::L1), 7.0);
        assert_eq!(norm(&x, Norm::L2), 5.0);
        assert_eq!(norm(&x, Norm::Inf), 4.0);
    }

    #[test]
    fn norms_of_empty_and_zero_vectors() {
        assert_eq!(norm(&[], Norm::L1), 0.0);
        assert_eq!(norm(&[], Norm::Inf), 0.0);
        assert_eq!(norm(&[0.0, 0.0], Norm::L2), 0.0);
    }

    #[test]
    fn inf_norm_propagates_nan() {
        assert!(norm(&[1.0, f64::NAN, 3.0], Norm::Inf).is_nan());
        assert!(norm(&[f64::NAN, 1.0], Norm::Inf).is_nan());
        assert!(norm(&[f64::NAN; 4], Norm::Inf).is_nan());
        assert_eq!(norm(&[1.0, f64::NEG_INFINITY], Norm::Inf), f64::INFINITY);
        assert_eq!(norm(&[-0.0, 0.0], Norm::Inf).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn dot_and_axpy() {
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        assert_eq!(dot(&x, &y), 6.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut x = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm(&x, Norm::L2) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn rel_diff_is_zero_for_identical() {
        let x = [1.0, 2.0];
        assert_eq!(rel_diff(&x, &x), 0.0);
        assert!(rel_diff(&x, &[1.0, 2.1]) > 0.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = [1.0, -2.0];
        let y = [0.5, 0.5];
        assert_eq!(add(&sub(&x, &y), &y), x.to_vec());
    }
}
