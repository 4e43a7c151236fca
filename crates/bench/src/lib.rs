//! The SKiPPER evaluation harness.
//!
//! [`experiments`] reproduces every figure and quantitative claim of the
//! paper (`experiments --list` prints the index); [`pipeline`] is the
//! end-to-end environment demo used by E2/E7 and the integration tests. The
//! `experiments` binary runs them from the command line; Criterion
//! micro-benchmarks live under `benches/`.

pub mod experiments;
pub mod pipeline;
