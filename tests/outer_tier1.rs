//! The outer-solver tests (V-cycle, FCG and FGMRES over asynchronous
//! `richardson1` smoothing on both simulators), run from the root package.
//! The tests live once, in the core crate's own test file, which is
//! compiled here as a module.

#[path = "../crates/core/tests/outer.rs"]
mod outer;
