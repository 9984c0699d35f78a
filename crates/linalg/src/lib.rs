//! # aj-linalg
//!
//! Sparse and dense linear-algebra kernels underpinning the asynchronous
//! Jacobi reproduction (Wolfson-Pou & Chow, IPDPS 2018).
//!
//! The crate is deliberately self-contained (no external numerics crates):
//! the paper's experiments only need
//!
//! * compressed sparse row matrices with fast row access ([`CsrMatrix`]),
//! * a triplet builder ([`CooMatrix`]),
//! * dense symmetric eigensolvers to study iteration/propagation matrices
//!   ([`eigen`]),
//! * vector kernels and the three norms the paper reports (`‖·‖₁`, `‖·‖₂`,
//!   `‖·‖∞`; see [`vecops`]),
//! * classic stationary sweeps used as references ([`sweeps`]) and a
//!   conjugate-gradient baseline ([`krylov`]),
//! * pluggable block-sweep storage formats — scalar CSR and SIMD-friendly
//!   SELL-C-σ — behind one [`SweepKernel`] ([`kernel`]), and
//! * principal submatrices for the §IV-C/D interlacing analysis
//!   ([`CsrMatrix::principal_submatrix`]).
//!
//! Everything operates on `f64`.

// Index-based loops over coupled arrays are the clearest form for these
// numeric kernels; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod kernel;
pub mod krylov;
pub mod method;
pub mod ops;
pub mod sweeps;
pub mod util;
pub mod vecops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use kernel::{StorageFormat, SweepKernel};
pub use method::{Method, OmegaSpec, ResolvedMethod};
pub use ops::{IterationMatrix, LinearOperator};
