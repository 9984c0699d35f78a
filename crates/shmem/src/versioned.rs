//! Seqlock-versioned shared cells.
//!
//! The Figure 2 analysis needs to know *which relaxation's value* a read
//! observed — the `s_ij(k)` mapping. A plain racy `f64` read cannot tell.
//! Each [`VersionedCell`] pairs the value with a version counter using the
//! seqlock protocol: writers bump the counter to odd, store, bump to even;
//! readers retry until they see a stable even counter. A successful read
//! returns `(value of relaxation v, v)` exactly.

use std::sync::atomic::{AtomicU64, Ordering};

/// One `f64` cell whose writes are numbered.
#[derive(Debug)]
pub struct VersionedCell {
    /// Even = stable; odd = write in progress. Version `v` (the number of
    /// completed writes) is `seq / 2`.
    seq: AtomicU64,
    bits: AtomicU64,
}

impl VersionedCell {
    /// A cell holding `value` at version 0 (the initial guess).
    pub fn new(value: f64) -> Self {
        VersionedCell {
            seq: AtomicU64::new(0),
            bits: AtomicU64::new(value.to_bits()),
        }
    }

    /// Publishes a new value; returns the version it became (1 for the first
    /// write). Only one writer per cell may be active at a time — in the
    /// solvers each row has exactly one owning thread, which guarantees
    /// this.
    pub fn write(&self, value: f64) -> u64 {
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert!(s.is_multiple_of(2), "concurrent writers on a VersionedCell");
        self.seq.store(s + 1, Ordering::Release);
        self.bits.store(value.to_bits(), Ordering::Release);
        self.seq.store(s + 2, Ordering::Release);
        (s + 2) / 2
    }

    /// Reads a consistent `(value, version)` pair, retrying through
    /// in-progress writes.
    pub fn read(&self) -> (f64, u64) {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if !s1.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let bits = self.bits.load(Ordering::Acquire);
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return (f64::from_bits(bits), s1 / 2);
            }
            std::hint::spin_loop();
        }
    }
}

/// A shared vector of versioned cells.
#[derive(Debug)]
pub struct VersionedVec {
    cells: Vec<VersionedCell>,
}

impl VersionedVec {
    /// Builds from initial values (all version 0).
    pub fn from_slice(values: &[f64]) -> Self {
        VersionedVec {
            cells: values.iter().map(|&v| VersionedCell::new(v)).collect(),
        }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> &VersionedCell {
        &self.cells[i]
    }

    /// Snapshot of the values (each cell read consistently, the vector as a
    /// whole racy).
    pub fn snapshot(&self) -> Vec<f64> {
        self.cells.iter().map(|c| c.read().0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_count_writes() {
        let c = VersionedCell::new(3.0);
        assert_eq!(c.read(), (3.0, 0));
        assert_eq!(c.write(4.0), 1);
        assert_eq!(c.write(5.0), 2);
        assert_eq!(c.read(), (5.0, 2));
        assert_eq!(c.read().1, 2);
    }

    #[test]
    fn reads_are_always_consistent_pairs_under_contention() {
        use std::sync::Arc;
        let c = Arc::new(VersionedCell::new(0.0));
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for k in 1..=50_000u64 {
                    c.write(k as f64);
                }
            })
        };
        for _ in 0..50_000 {
            let (v, ver) = c.read();
            // Value written at version `ver` is exactly `ver as f64`.
            assert_eq!(v, ver as f64, "inconsistent pair ({v}, {ver})");
        }
        writer.join().unwrap();
    }

    #[test]
    fn vec_of_cells() {
        let v = VersionedVec::from_slice(&[1.0, 2.0]);
        assert_eq!(v.len(), 2);
        v.cell(1).write(9.0);
        assert_eq!(v.snapshot(), vec![1.0, 9.0]);
        assert!(!v.is_empty());
    }
}
