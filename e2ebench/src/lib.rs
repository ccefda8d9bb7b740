//! End-to-end and per-layer benchmark of the Circles count engine.
//!
//! [`workloads`] runs the three benchmark workloads on the unmodified
//! engine ([`workloads::Plain`]) or with every generic seam of the engine
//! wrapped by [`wrap::Traced`] ([`workloads::Tracing`]), which records
//! per-layer counts and self times through [`trace`]. [`report`] turns
//! both into the benchmark's metrics. See `README.md` for the metric
//! definitions and the recorded baseline.

pub mod report;
pub mod trace;
pub mod workloads;
pub mod wrap;
