//! # aj-core
//!
//! The public façade of the asynchronous Jacobi reproduction. Downstream
//! users interact with three ideas:
//!
//! * a [`Problem`] — matrix (unit-diagonal scaled, as the paper assumes),
//!   right-hand side, and initial iterate, constructed from the paper's
//!   generators, the Table I analogues, or a Matrix Market file;
//! * a solver run — pick a backend and call it:
//!   - [`aj_model`] for the §IV propagation-matrix model,
//!   - [`aj_shmem`] for real threads (§V),
//!   - [`aj_dmsim`] for simulated threads/ranks at paper scale (§V–§VI);
//! * a [`report::Series`] — a labelled `(x, y)` curve with text-table and
//!   CSV output, the common currency of every figure bench.
//!
//! ```
//! use aj_core::{Problem, report::Series};
//! use aj_linalg::vecops::Norm;
//!
//! // The paper's 68-row FD matrix, one worker per row, one slow worker:
//! let p = Problem::paper_fd("fd68", 42).unwrap();
//! let schedule = aj_model::DelaySchedule::single_slow_row(34, 20);
//! let run = aj_model::run_async_model(&p.a, &p.b, &p.x0, &schedule,
//!                                     1e-3, 100_000, Norm::L1).unwrap();
//! assert!(run.converged);
//! ```

pub mod driver;
pub mod interp;
pub mod outer;
pub mod problem;
pub mod report;
pub mod spec;

pub use driver::{prepare_dist_plan, solve, Backend, Capabilities, SolveOptions, SolveReport};
pub use outer::{Hierarchy, OuterKind, OuterReport, OuterSpec};
pub use problem::Problem;

// Re-export the sub-crates under their natural names so a single dependency
// on `aj-core` suffices.
pub use aj_dmsim as dmsim;
pub use aj_linalg as linalg;
pub use aj_matrices as matrices;
pub use aj_model as model;
pub use aj_net as net;
pub use aj_obs as obs;
pub use aj_partition as partition;
pub use aj_shmem as shmem;
pub use aj_trace as trace;
