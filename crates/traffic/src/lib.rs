//! # nimbus-traffic
//!
//! Cross-traffic workload generators for the Nimbus reproduction.
//!
//! The paper's evaluation draws its cross traffic from three families, all of
//! which are built here on top of `nimbus-transport` senders:
//!
//! * [`flow_sizes`] + [`fleet`] — a CAIDA-like wide-area workload: Cubic
//!   cross-flows whose sizes come from a heavy-tailed distribution and whose
//!   arrivals form a Poisson (or bursty Pareto) process targeting a
//!   configurable offered load.  The real trace is proprietary, so
//!   [`FlowSizeDistribution`] substitutes a lognormal body with a Pareto
//!   tail.  The one generator serves both the §8.1 WAN mix ("Throughput and
//!   delay with WAN cross-traffic"), drained into a flow list up front, and
//!   open-loop churn at population scale, where flows spawn through the
//!   engine's `FlowSpawner` hook and retire on completion so 1000+-flow runs
//!   only pay for the concurrently active population.
//! * [`video`] — DASH-style adaptive video sources: a 4K ladder that exceeds
//!   its fair share (network-limited, elastic) and a 1080p ladder that stays
//!   below it (application-limited, inelastic), reproducing Fig. 11.
//! * [`phases`] — the scripted elastic/inelastic phase schedules of Figs. 1
//!   and 8 ("xM of Poisson cross traffic, yT long-running Cubic flows"),
//!   together with the fair-share reference line plotted in those figures.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fleet;
pub mod flow_sizes;
pub mod phases;
pub mod video;

pub use fleet::{ArrivalProcess, FleetSpawner, FleetWorkloadConfig};
pub use flow_sizes::FlowSizeDistribution;
pub use phases::{fair_share_mbps, Phase, PhaseSchedule};
pub use video::{VideoQuality, VideoSource};
