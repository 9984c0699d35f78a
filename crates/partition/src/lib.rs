//! # aj-partition
//!
//! Domain decomposition for the distributed-memory experiments (§VI–VII of
//! the paper).
//!
//! The paper assigns each process a *contiguous* block of rows (its
//! subdomain), after reordering the SuiteSparse matrices with METIS. The
//! figures here split rows in natural order into contiguous blocks
//! ([`block_partition`]); the engines take any row-to-part assignment. The
//! crate provides
//!
//! * [`Partition`] — an assignment of rows to parts with quality metrics
//!   (edge cut, imbalance);
//! * partitioners in [`partitioners`] — plain contiguous blocks, greedy BFS
//!   graph growing (the METIS substitute), and recursive coordinate
//!   bisection for grid problems;
//! * [`CommPlan`] — per-subdomain ghost lists and symmetric send/receive
//!   schedules derived from the matrix sparsity, exactly the
//!   neighbour-inspection rule of §VI;
//! * [`LocalSystem`] — a subdomain's rows with columns renumbered into
//!   `owned ++ ghost` local indexing, the data structure every simulated
//!   rank iterates on.

pub mod comm;
pub mod local;
pub mod partition;
pub mod partitioners;

pub use comm::{CommPlan, SubdomainPlan};
pub use local::LocalSystem;
pub use partition::Partition;
pub use partitioners::{bfs_partition, block_partition, coordinate_bisection};
