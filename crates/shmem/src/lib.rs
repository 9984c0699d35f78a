//! # aj-shmem
//!
//! Real-thread shared-memory asynchronous Jacobi, following the paper's §V
//! implementation (the synchronous comparison runs on the simulators):
//!
//! * the solution `x` lives in a shared array; every thread owns a
//!   contiguous block of rows (its subdomain) and keeps their residuals
//!   `r` private;
//! * one step is `r = b − Ax` over owned rows, swept through the block's
//!   `SweepKernel` on a snapshot of the columns it reads, then
//!   `x += D⁻¹ r`, then a convergence check on the stop estimate: the norm
//!   of every thread's latest block-residual norm, so no step reads the
//!   whole matrix;
//! * there are no barriers between the steps: a thread reads "whatever
//!   information is available" (Baudet's racy scheme);
//! * element reads/writes are word-atomic — the paper relies on aligned
//!   8-byte stores being atomic on x86; we use `AtomicU64` bit-casts with
//!   `Relaxed` ordering, which is the same guarantee made portable;
//! * termination uses the shared flag-array protocol of §V: a converged
//!   thread raises its flag but keeps relaxing until everyone has converged;
//!   then the threads meet at a barrier, and the true residual of the
//!   quiescent `x` decides whether they all stop or all go on.
//!
//! [`traced`] adds a seqlock-versioned variant that records which *version*
//! of each neighbour value every relaxation consumed, producing an
//! `aj_trace::Trace` for the Figure 2 propagated-fraction analysis.

// Index-based loops over coupled arrays are the clearest form for these
// numeric kernels; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod shared_vec;
pub mod solver;
pub mod traced;
pub mod versioned;

pub use shared_vec::SharedVec;
pub use solver::{DelayInjection, ShmemConfig, ShmemRun};
