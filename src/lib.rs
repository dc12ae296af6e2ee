//! # nimbus-repro
//!
//! A from-scratch Rust reproduction of *"Elasticity Detection: A Building
//! Block for Internet Congestion Control"* (Goyal et al.): the Nimbus
//! elasticity detector and mode-switching congestion controller, every
//! baseline it is evaluated against, and the packet-level network simulator
//! the evaluation runs on.
//!
//! This facade crate re-exports the workspace members under short names:
//!
//! * [`core_types`] — dependency-free primitives ([`core_types::Time`],
//!   rate parsing/formatting) shared by every layer.
//! * [`dsp`] — FFT, pulse shapes, filters, statistics.
//! * [`netsim`] — the discrete-event dumbbell simulator (Mahimahi stand-in).
//! * [`transport`] — sender machinery plus re-exports of the
//!   simulator-free congestion controllers under their historical paths.
//! * [`traffic`] — cross-traffic generators: the fleet flow-arrival
//!   generator (the §8.1 WAN mix and open-loop churn), video and scripted
//!   phases.
//! * [`nimbus`] — the paper's contribution, simulator-free: estimator,
//!   detector, BasicDelay, the Nimbus controller, the multi-flow
//!   pulser/watcher protocol and every baseline congestion controller.
//! * [`sim`] — the adapter wiring `nimbus` into the simulator
//!   ([`sim::nimbus_flow`]).
//! * [`experiments`] — the harness regenerating every table and figure.
//!
//! See `README.md` for a quickstart, the workspace layout and the scenario
//! grammars; `nimbus-experiments list` names every reproducible figure.

pub use nimbus_core as nimbus;
pub use nimbus_core_types as core_types;
pub use nimbus_dsp as dsp;
pub use nimbus_experiments as experiments;
pub use nimbus_netsim as netsim;
pub use nimbus_sim as sim;
pub use nimbus_traffic as traffic;
pub use nimbus_transport as transport;
