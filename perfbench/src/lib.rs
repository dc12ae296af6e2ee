//! The repository benchmark: end-to-end simulation speed and Nimbus
//! outcomes over four workloads, plus a per-layer trace taken at the
//! congestion-control, endpoint and spawner boundaries.
//!
//! `perfbench/run.py` builds and runs the `perfbench` binary; see
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them.

pub mod alloc;
pub mod bench;
pub mod calib;
pub mod cells;
pub mod embed;
pub mod stats;
pub mod trace;
