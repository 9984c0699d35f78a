//! Traced asynchronous Jacobi: records the `s_ij(k)` read mapping.
//!
//! §VII-B: "For each row i, we printed the solution components that i read
//! from other rows for each relaxation of i, and used this information to
//! construct a sequence of propagation matrices." The versioned cells make
//! the "which relaxation produced the value I read" question exact.

use crate::versioned::VersionedVec;
use aj_linalg::CsrMatrix;
use aj_trace::{RelaxationEvent, Trace};
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs asynchronous Jacobi with `num_threads` threads for a fixed number of
/// `iterations` per thread (each iteration relaxes all of the thread's rows
/// once), recording every relaxation's neighbour reads.
///
/// Returns the trace and the final iterate.
///
/// # Panics
/// Panics if `num_threads` is 0 or exceeds the number of rows.
pub fn run_traced(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    num_threads: usize,
    iterations: usize,
) -> (Trace, Vec<f64>) {
    let n = a.nrows();
    assert!(
        num_threads > 0 && num_threads <= n,
        "need 1 ≤ threads ≤ rows"
    );
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    let diag: Vec<f64> = a.diagonal();
    for (i, &d) in diag.iter().enumerate() {
        assert!(d != 0.0, "zero diagonal in row {i}");
    }

    let ranges = aj_linalg::util::even_ranges(n, num_threads);

    let x = VersionedVec::from_slice(x0);
    let stamp = AtomicU64::new(0);

    let mut per_thread: Vec<Vec<RelaxationEvent>> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..num_threads {
            let range = ranges[tid].clone();
            let x = &x;
            let stamp = &stamp;
            let diag = &diag;
            handles.push(scope.spawn(move |_| {
                let mut events = Vec::with_capacity(iterations * range.len());
                for _ in 0..iterations {
                    for i in range.clone() {
                        // Jacobi relaxation of row i: the new value depends
                        // only on neighbour values (the own-value term
                        // cancels), so reads are exactly the off-diagonals.
                        let mut acc = 0.0;
                        let mut reads = Vec::with_capacity(a.row_nnz(i).saturating_sub(1));
                        for (j, v) in a.row_iter(i) {
                            if j == i {
                                continue;
                            }
                            let (value, version) = x.cell(j).read();
                            acc += v * value;
                            reads.push((j, version));
                        }
                        x.cell(i).write((b[i] - acc) / diag[i]);
                        let seq = stamp.fetch_add(1, Ordering::Relaxed);
                        events.push(RelaxationEvent { row: i, seq, reads });
                    }
                    // Interleave fairly when threads outnumber cores.
                    std::thread::yield_now();
                }
                events
            }));
        }
        per_thread = handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect();
    })
    .expect("traced solver thread panicked");

    let events: Vec<RelaxationEvent> = per_thread.into_iter().flatten().collect();
    (Trace::from_events(n, events), x.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_matrices::{fd, rhs};
    use aj_trace::reconstruct;

    #[test]
    fn trace_has_one_event_per_relaxation() {
        let a = fd::paper_fd("fd40")
            .unwrap()
            .scale_to_unit_diagonal()
            .unwrap();
        let (b, x0) = rhs::paper_problem(a.nrows(), 3);
        let (trace, _) = run_traced(&a, &b, &x0, 4, 5);
        assert_eq!(trace.len(), 40 * 5);
        for i in 0..40 {
            assert_eq!(trace.relaxations_of(i), 5);
        }
    }

    #[test]
    fn single_thread_trace_is_fully_propagated() {
        // One thread relaxes rows in order: a pure multiplicative
        // (Gauss–Seidel-like) history, always expressible.
        let a = fd::laplacian_2d(4, 4).scale_to_unit_diagonal().unwrap();
        let (b, x0) = rhs::paper_problem(16, 5);
        let (trace, _) = run_traced(&a, &b, &x0, 1, 4);
        let analysis = reconstruct(&trace);
        assert_eq!(analysis.fraction(), 1.0);
    }

    #[test]
    fn majority_of_relaxations_are_propagated_multithreaded() {
        // The Figure 2 claim: in practice most relaxations are expressible
        // (the paper's worst case across platforms was 0.8).
        let a = fd::paper_fd("fd40")
            .unwrap()
            .scale_to_unit_diagonal()
            .unwrap();
        let (b, x0) = rhs::paper_problem(40, 11);
        let (trace, _) = run_traced(&a, &b, &x0, 5, 10);
        let analysis = reconstruct(&trace);
        assert!(
            analysis.fraction() > 0.5,
            "propagated fraction {} too low",
            analysis.fraction()
        );
    }

    #[test]
    fn traced_solution_approaches_the_true_solution() {
        let a = fd::laplacian_2d(5, 5).scale_to_unit_diagonal().unwrap();
        let (b, x0) = rhs::paper_problem(25, 9);
        let (_, x) = run_traced(&a, &b, &x0, 2, 2_000);
        assert!(a.relative_residual(&x, &b, aj_linalg::vecops::Norm::L1) < 1e-6);
    }

    #[test]
    fn reads_record_neighbours_only() {
        let a = fd::laplacian_2d(3, 3).scale_to_unit_diagonal().unwrap();
        let (b, x0) = rhs::paper_problem(9, 1);
        let (trace, _) = run_traced(&a, &b, &x0, 3, 2);
        for e in trace.events() {
            let expected: Vec<usize> = a
                .row_indices(e.row)
                .iter()
                .copied()
                .filter(|&j| j != e.row)
                .collect();
            let mut got: Vec<usize> = e.reads.iter().map(|&(j, _)| j).collect();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }
}
