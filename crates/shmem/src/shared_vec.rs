//! Shared `f64` arrays with word-atomic access.
//!
//! The paper's OpenMP code writes and reads `double`s in shared arrays
//! without atomics, relying on the x86 guarantee that aligned 8-byte
//! accesses are atomic. In Rust that would be a data race (UB), so we store
//! the bits in `AtomicU64` with `Relaxed` ordering — identical machine code
//! on x86-64, defined behaviour everywhere.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size shared vector of `f64` with per-element atomic access.
#[derive(Debug)]
pub struct SharedVec {
    data: Vec<AtomicU64>,
}

impl SharedVec {
    /// Creates from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        SharedVec {
            data: values.iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
        }
    }

    /// All zeros, length `n`.
    pub fn zeros(n: usize) -> Self {
        SharedVec {
            data: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Racy (relaxed) read of element `i`.
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Racy (relaxed) write of element `i`.
    #[inline]
    pub fn store(&self, i: usize, value: f64) {
        self.data[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Copies the current contents into a `Vec` (itself racy: elements are
    /// read one at a time).
    pub fn snapshot(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_values() {
        let v = SharedVec::from_slice(&[1.5, -2.25, 0.0]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.load(0), 1.5);
        v.store(2, f64::MIN_POSITIVE);
        assert_eq!(v.load(2), f64::MIN_POSITIVE);
        assert_eq!(v.snapshot(), vec![1.5, -2.25, f64::MIN_POSITIVE]);
    }

    #[test]
    fn special_values_survive_bitcast() {
        let v = SharedVec::zeros(2);
        v.store(0, f64::NEG_INFINITY);
        v.store(1, -0.0);
        assert_eq!(v.load(0), f64::NEG_INFINITY);
        assert!(v.load(1) == 0.0 && v.load(1).is_sign_negative());
    }

    #[test]
    fn concurrent_read_write_is_word_atomic() {
        // A reader must never observe a torn value: writers alternate between
        // two bit patterns, readers must only ever see one of them.
        use std::sync::Arc;
        let v = Arc::new(SharedVec::from_slice(&[1.0]));
        let writer = {
            let v = Arc::clone(&v);
            std::thread::spawn(move || {
                for k in 0..100_000u64 {
                    v.store(0, if k % 2 == 0 { 1.0 } else { -1.0 });
                }
            })
        };
        for _ in 0..100_000 {
            let x = v.load(0);
            assert!(x == 1.0 || x == -1.0, "torn read: {x}");
        }
        writer.join().unwrap();
    }
}
