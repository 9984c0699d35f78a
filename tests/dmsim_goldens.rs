//! The event engines' golden fingerprints (`EXPECTED`, `EXPECTED_METHODS`),
//! the `results/method_schedules.csv` corpus check and the obs
//! observer-freedom check, run from the root package. The tables live once,
//! in the dmsim crate's own test file, which is compiled here as a module.

#[path = "../crates/dmsim/tests/determinism.rs"]
mod determinism;
