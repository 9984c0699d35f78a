//! # aj-dmsim
//!
//! A deterministic discrete-event simulator for shared-memory threads and
//! distributed-memory ranks running (a)synchronous Jacobi.
//!
//! ## Why a simulator
//!
//! The paper's shared-memory experiments use up to 272 hardware threads on a
//! Xeon Phi and its distributed experiments up to 4096 MPI ranks on Cori
//! with MPI-3 RMA (`MPI_Put` into passive-target windows). Neither is
//! available here (single-core host, no MPI), but the paper's convergence
//! claims depend only on *which version of neighbour data each relaxation
//! reads* and on *relative progress rates* — both of which a discrete-event
//! simulation reproduces exactly and deterministically:
//!
//! * each worker alternates compute phases (cost = per-nonzero work ×
//!   worker speed × stochastic jitter) and communication;
//! * in distributed mode, ghost values travel as one-sided puts that land
//!   in the target's window after a network latency — element-atomic, no
//!   tag matching, no receiver involvement, exactly the §VI RMA semantics;
//! * in shared-memory mode, a worker's committed values are immediately
//!   visible to everyone (cache-coherent shared arrays, §V);
//! * synchronous variants insert a barrier: every iteration lasts as long
//!   as its slowest worker plus the exchange.
//!
//! The jitter is the physical source of asynchrony's advantage: staggered
//! workers read *fresher* neighbour values, pushing asynchronous Jacobi
//! toward multiplicative (Gauss–Seidel-like) behaviour — the paper's §IV-B
//! mechanism. With jitter set to zero, asynchronous and synchronous runs
//! coincide step for step, a property the tests exploit.
//!
//! Modules: [`cost`] (cost model and jitter), [`monitor`] (residual
//! sampling), [`shmem_sim`] (simulated threads, Figures 2–6),
//! [`dist`] (simulated ranks, Figures 7–9; both engines keep only their
//! sweep and share the rest through a crate-private module), [`fault`]
//! (deterministic crash/stall/lossy-link injection for the distributed
//! engine).

// Index-based loops over coupled arrays are the clearest form for these
// numeric kernels; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod cost;
pub mod dist;
mod engine;
pub mod event;
pub mod fault;
pub mod monitor;
mod obsrec;
pub mod shmem_sim;
pub mod termination;

pub use aj_obs::ObsConfig;
pub use cost::{CostModel, Jitter};
pub use dist::{
    run_dist_async, run_dist_async_plan, run_dist_sync, run_dist_sync_plan, DistConfig, DistVariant,
};
pub use event::EventQueue;
pub use fault::{CrashFault, FaultPlan, FaultStats, LinkFault, StallFault};
pub use monitor::{ResidualMonitor, SimOutcome};
pub use shmem_sim::{run_shmem_async, run_shmem_sync, ShmemSimConfig};
pub use termination::{TerminationProtocol, TerminationStats};
