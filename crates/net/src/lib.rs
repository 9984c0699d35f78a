//! # aj-net
//!
//! A **real multi-process distributed backend** for the asynchronous
//! Jacobi solver: one OS process per rank, one-sided ghost puts over
//! NDJSON/TCP, and the same termination protocol the discrete-event
//! simulator uses.
//!
//! The paper's headline results come from real MPI runs with
//! passive-target RMA windows; until now this repository's distributed
//! engine was simulator-only (DESIGN.md §2). This crate closes that gap
//! with no new dependencies:
//!
//! * [`wire`] — versioned NDJSON protocol: hello/welcome handshake, job
//!   shipment, one-sided puts, residual reports, stop, done;
//!   bulk values travel as bit-lossless `hexf64`.
//! * [`child`] — the per-rank worker: an atomic-u64 ghost window (element
//!   atomicity ≈ an RMA window), the dmsim method arms over real sockets,
//!   reconnect-and-resync when the transport breaks.
//! * [`parent`] — the coordinator: spawns/supervises workers, routes and
//!   caches boundary puts, feeds the shared
//!   [`RootAggregator`](aj_dmsim::termination::RootAggregator) (staleness
//!   timeout included, so a killed rank can never deadlock detection),
//!   merges per-rank obs shards through the lossless histogram merge.
//!
//! The backend's acceptance experiment is *cross-validation*: the same
//! seeded problem solved by dmsim and by real processes must agree on the
//! fixed point to tight tolerance and produce staleness-at-use
//! distributions whose normalized means (staleness ÷ sweep period, a
//! dimensionless ratio that cancels ticks vs µs) sit in a pinned band —
//! see DESIGN.md §15 and EXPERIMENTS.md.

pub mod child;
pub mod parent;
pub mod wire;

pub use child::run as run_child;
pub use parent::{run_net, ChildMode, NetConfig, NetHooks, NetOutcome};
pub use wire::PROTO_VERSION;
