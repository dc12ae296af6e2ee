//! # nimbus-netsim
//!
//! A packet-level, deterministic, discrete-event network simulator built for
//! the Nimbus reproduction.  It plays the role Mahimahi plays in the paper:
//! an emulated dumbbell with a single bottleneck link (Fig. 2 of the paper),
//! shared by one or more instrumented flows and arbitrary cross traffic.
//!
//! ```text
//!  senders ──▶ [ queue | bottleneck link @ µ ] ──▶ receivers
//!     ▲                                               │
//!     └────────────── ACKs (uncongested) ◀────────────┘
//! ```
//!
//! Key properties:
//!
//! * **Packet level.** ACK clocking — the mechanism the elasticity detector
//!   relies on — emerges naturally: window-limited senders transmit only when
//!   ACKs return, and the bottleneck queue shapes the inter-packet (and hence
//!   inter-ACK) spacing.
//! * **Deterministic.** All randomness comes from seeded RNGs owned by the
//!   loss models and workload generators; two runs with the same seed produce
//!   identical event sequences.
//! * **Instrumented.** The [`recorder::Recorder`] produces the throughput,
//!   queueing-delay, flow-completion-time and ground-truth-elasticity time
//!   series that the paper's figures are drawn from.
//!
//! The simulator knows nothing about congestion control: senders are
//! abstracted behind the [`endpoint::FlowEndpoint`] trait, which the
//! `nimbus-transport` crate implements for every algorithm the paper
//! evaluates (Cubic, NewReno, Vegas, Copa, BBR, PCC-Vivace, Compound, …) and
//! `nimbus-core` implements for Nimbus itself.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endpoint;
pub mod engine;
pub mod eventq;
pub mod loss;
pub mod packet;
pub mod queue;
pub mod recorder;
pub mod schedule;
pub mod slab;

pub use endpoint::{AckInfo, FlowEndpoint, SendAction};
pub use engine::{FlowConfig, FlowHandle, FlowSpawner, LinkConfig, Network, QueueKind, SimConfig};
pub use eventq::CalendarQueue;
pub use loss::{LossModel, Policer};
pub use nimbus_core_types::Time;
pub use packet::{EcnCodepoint, FlowId, Packet};
pub use queue::{CoDelQueue, DropTailQueue, EcnMarking, PieQueue, QueueDiscipline, RedQueue};
pub use recorder::{
    FctBucket, FctSummary, FlowStats, Recorder, RecorderConfig, TimeSeries, ELEPHANT_MIN_BYTES,
    MICE_MAX_BYTES,
};
pub use schedule::RateSchedule;

/// Default maximum segment size, in bytes, used when a flow does not override it.
pub const DEFAULT_MSS_BYTES: u32 = 1500;
