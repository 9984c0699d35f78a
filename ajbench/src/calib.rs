//! Host-speed calibration for the end-to-end wall times.
//!
//! A shared host runs the same code up to a third slower for minutes at a
//! time, on either vCPU, so two runs of one build disagree by more than
//! any bound worth gating on. [`Calibrator::around`] runs a fixed
//! reference workload after each measured call and scales the call's wall
//! times by how fast the reference ran around it, against
//! [`REFERENCE_S`]. The reference is the benchmark's own code, a sparse
//! matrix-vector pass and a binary heap's churn like the simulators'
//! kernels and event queues, with no call into the repository, so a change
//! to the program cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one run of the reference workload typically took on the
/// reference host (Intel Xeon, 2 vCPUs, 2 MiB L2 per core): calibrated
/// figures read as seconds on that host.
pub const REFERENCE_S: f64 = 4.0e-3;

const ROWS: usize = 20_000;
const PER_ROW: usize = 7;
/// Column offsets stay within this distance of the diagonal, as in the
/// suite's banded FE matrices.
const BAND: u64 = 300;
const PASSES: usize = 8;
const EVENTS: usize = 60_000;

/// The reference workload: a 20,000-row sparse matrix with 7 entries a row
/// (about 2 MiB with its vectors, the solve workloads' working set) and a
/// stream of event keys.
struct Reference {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    keys: Vec<u64>,
}

/// A 64-bit LCG step; its top 53 bits.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

impl Reference {
    /// The same matrix and keys on every run and host.
    fn new() -> Reference {
        let mut st = 0x5eed;
        let mut indptr = vec![0];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for i in 0..ROWS as u64 {
            for _ in 0..PER_ROW {
                let j = (i + lcg(&mut st) % (2 * BAND + 1))
                    .saturating_sub(BAND)
                    .min(ROWS as u64 - 1);
                indices.push(j as u32);
                // Row sums below 0.9 keep x = 1 + A x bounded and away from
                // subnormals.
                values.push((lcg(&mut st) % 1000) as f64 * 0.9e-3 / PER_ROW as f64);
            }
            indptr.push(indices.len());
        }
        Reference {
            indptr,
            indices,
            values,
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
            keys: (0..EVENTS).map(|_| lcg(&mut st)).collect(),
        }
    }

    /// [`PASSES`] sweeps of `x ← 1 + A x`, then every key through a heap
    /// that pops one per two pushes. Returns its wall time.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for (i, y) in self.y.iter_mut().enumerate() {
                let row = self.indptr[i]..self.indptr[i + 1];
                *y = 1.0
                    + self.values[row.clone()]
                        .iter()
                        .zip(&self.indices[row])
                        .map(|(v, &j)| v * self.x[j as usize])
                        .sum::<f64>();
            }
            std::mem::swap(&mut self.x, &mut self.y);
        }
        let mut heap = BinaryHeap::with_capacity(1024);
        let mut sum = 0u64;
        for (n, &k) in black_box(&self.keys).iter().enumerate() {
            heap.push(Reverse(k));
            if n % 2 == 1 || heap.len() > 512 {
                sum = sum.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
            }
        }
        black_box((sum, self.x[0]));
        t0.elapsed().as_secs_f64()
    }
}

/// Times calls in seconds at the reference host's speed.
pub struct Calibrator {
    reference: Reference,
    /// The reference's time after the previous call (or at start).
    last_s: f64,
}

impl Calibrator {
    /// Builds the reference and times it, after one warm-up run.
    pub fn new() -> Calibrator {
        let mut reference = Reference::new();
        reference.run();
        let mut host = Calibrator {
            reference,
            last_s: 0.0,
        };
        host.last_s = host.reference_s(5);
        host
    }

    /// The median of `runs` reference times.
    fn reference_s(&mut self, runs: usize) -> f64 {
        let times: Vec<f64> = (0..runs.max(1)).map(|_| self.reference.run()).collect();
        crate::stats::median(&times)
    }

    /// Runs `f`, then the reference `runs` times. Returns the factor that
    /// turns wall time spent in `f` into time on the reference host:
    /// [`REFERENCE_S`] over the mean of the reference's (median) times
    /// just before and just after `f`. With `f`'s result.
    pub fn around<T>(&mut self, runs: usize, f: impl FnOnce() -> T) -> (f64, T) {
        let out = f();
        let after_s = self.reference_s(runs);
        let factor = REFERENCE_S / ((self.last_s + after_s) / 2.0);
        self.last_s = after_s;
        (factor, out)
    }

    /// `f`'s wall time on the reference host, with its result; one
    /// reference run follows it.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let (factor, (t, out)) = self.around(1, || crate::timed(f));
        (t * factor, out)
    }
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}
