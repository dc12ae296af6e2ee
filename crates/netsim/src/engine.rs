//! The discrete-event engine: a dumbbell network whose forward direction is a
//! **path** — an ordered chain of links, each with its own rate schedule,
//! queue discipline, loss model and propagation delay.
//!
//! A single-hop path is exactly the network model of Fig. 2 in the paper: any
//! number of senders share one bottleneck link of rate `µ` fronted by a
//! queue; receivers acknowledge every data packet; the ACK path is
//! uncongested.  Per-flow propagation delay is split evenly between the data
//! direction (after the flow's last hop → receiver) and the ACK direction
//! (receiver → sender), so a flow's base RTT equals its configured
//! propagation RTT plus per-hop propagation plus serialization.
//!
//! Multi-hop paths generalize this: packets traverse the hops in order, each
//! hop serializing independently at its own (possibly time-varying) rate, so
//! a *secondary* bottleneck — fixed or moving as the schedules shift — and
//! cross traffic entering or exiting at interior hops are both expressible.
//! Flows declare the span of hops they traverse (`entry_hop ..= exit_hop`);
//! the default span is the whole path.
//!
//! Event types:
//!
//! * `FlowStart` — activate a flow at its configured start time.
//! * `PollSend`  — ask a flow's endpoint for its next action (pacing timers,
//!   retransmission timers and post-ACK transmission opportunities all funnel
//!   through this one event).
//! * `LinkDone`  — a hop finished serializing a packet; forward it to the
//!   next hop (or its receiver) and start on the next one.
//! * `HopArrival` — a data packet propagated to an interior hop's queue.
//! * `ReceiverArrival` — a data packet reached its receiver; generate an ACK.
//! * `AckArrival` — an ACK reached the sender; inform the endpoint, poll it.
//! * `RateChange` — one hop's rate schedule µᵢ(t) reached a transition;
//!   re-plan the in-flight packet's serialization and re-size delay-specified
//!   buffers on that hop.
//! * `Tick` — the global 10 ms measurement tick (CCP reporting cadence).
//! * `Sample` — the recorder's sampling interval elapsed.

use crate::endpoint::{AckInfo, FlowEndpoint, SendAction};
use crate::eventq::CalendarQueue;
use crate::loss::{LossModel, LossProcess, Policer};
use crate::packet::{AckPacket, EcnCodepoint, FlowId, Packet};
use crate::queue::{
    delay_capacity_bytes, CoDelQueue, DropTailQueue, EcnMarking, EnqueueResult, PieQueue,
    QueueDiscipline, RedQueue,
};
use crate::recorder::{Recorder, RecorderConfig};
use crate::schedule::RateSchedule;
use crate::slab::Slab;
use nimbus_core_types::Time;
use std::collections::BTreeMap;

/// Which queue discipline the bottleneck uses.
#[derive(Debug, Clone)]
pub enum QueueKind {
    /// Drop-tail with an explicit byte capacity.
    DropTailBytes(u64),
    /// Drop-tail sized to this many seconds of buffering at the link rate
    /// ("100 ms of buffering" in the paper's experiment descriptions).
    DropTailDelay(f64),
    /// PIE AQM with the given target delay (seconds) and physical buffer (seconds).
    Pie {
        /// Target queueing delay in seconds.
        target_delay_s: f64,
        /// Physical buffer size in seconds of line rate.
        buffer_s: f64,
    },
    /// RED with a physical buffer of this many seconds of line rate.
    Red {
        /// Physical buffer size in seconds of line rate.
        buffer_s: f64,
    },
    /// CoDel with standard parameters and a physical buffer of this many seconds.
    CoDel {
        /// Physical buffer size in seconds of line rate.
        buffer_s: f64,
    },
}

/// Configuration of one link (hop) on the forward path.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Link rate µ(t) in bits per second — constant or time-varying.
    pub schedule: RateSchedule,
    /// Queue discipline in front of the link.
    pub queue: QueueKind,
    /// Random-loss model applied to packets before they reach the queue.
    pub loss: LossModel,
    /// Optional token-bucket policer in front of the queue.
    pub policer: Option<(f64, f64)>,
    /// ECN marking profile of the queue: [`EcnMarking::None`] keeps the pure
    /// drop behaviour; `Classic` / `Step` convert the discipline's congestion
    /// signal into CE marks for ECT packets (drops for everything else).
    pub ecn: EcnMarking,
    /// Propagation delay from the *previous* hop's output into this link's
    /// queue.  Ignored on the first hop a flow traverses (senders inject
    /// directly); after a flow's last hop the packet instead travels the
    /// data half of the flow's configured propagation RTT to its receiver.
    pub prop_delay: Time,
}

impl LinkConfig {
    /// A plain drop-tail bottleneck: `rate_bps` with `buffer_s` seconds of buffering.
    pub fn drop_tail(rate_bps: f64, buffer_s: f64) -> Self {
        LinkConfig {
            schedule: RateSchedule::constant(rate_bps),
            queue: QueueKind::DropTailDelay(buffer_s),
            loss: LossModel::None,
            policer: None,
            ecn: EcnMarking::None,
            prop_delay: Time::ZERO,
        }
    }

    /// Replace the (constant) rate with an arbitrary schedule.
    pub fn with_schedule(mut self, schedule: RateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the inbound propagation delay (from the previous hop's output).
    pub fn with_prop_delay(mut self, delay: Time) -> Self {
        self.prop_delay = delay;
        self
    }

    /// Enable an ECN marking profile on this hop's queue.
    pub fn with_ecn(mut self, ecn: EcnMarking) -> Self {
        self.ecn = ecn;
        self
    }

    /// The link rate at simulation start, bits/s.
    pub fn initial_rate_bps(&self) -> f64 {
        self.schedule.initial_rate_bps()
    }
}

/// Whole-simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The forward path: an ordered, non-empty chain of links.  `path[0]` is
    /// the hop adjacent to the senders, the last hop hands packets to their
    /// receivers.  A one-element path is the paper's dumbbell.
    pub path: Vec<LinkConfig>,
    /// How long to simulate.
    pub duration: Time,
    /// Measurement tick interval delivered to every endpoint (CCP cadence).
    pub tick_interval: Time,
    /// Recorder configuration.
    pub recorder: RecorderConfig,
    /// Master seed for the engine's stochastic components (loss models).
    pub seed: u64,
}

impl SimConfig {
    /// A convenient default: a single-hop path of the given link rate (bps),
    /// buffer (seconds of line rate) and run duration in seconds.
    pub fn new(rate_bps: f64, buffer_s: f64, duration_s: f64) -> Self {
        SimConfig {
            path: vec![LinkConfig::drop_tail(rate_bps, buffer_s)],
            duration: Time::from_secs_f64(duration_s),
            tick_interval: Time::from_millis(10),
            recorder: RecorderConfig::default(),
            seed: 1,
        }
    }

    /// Append another hop to the forward path (builder style).
    pub fn with_hop(mut self, link: LinkConfig) -> Self {
        self.path.push(link);
        self
    }

    /// The first hop — the classic "the bottleneck" accessor for single-hop
    /// configurations.
    pub fn link_mut(&mut self) -> &mut LinkConfig {
        &mut self.path[0]
    }
}

/// Per-flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Human-readable label for results.
    pub label: String,
    /// Propagation RTT of the flow (excluding queueing and serialization).
    pub prop_rtt: Time,
    /// When the flow starts.
    pub start: Time,
    /// For the experiment ground truth: is this cross-traffic flow elastic?
    /// `None` marks the monitored (primary) flows, which are not cross traffic.
    pub counts_as_elastic: Option<bool>,
    /// Whether the recorder keeps full time series for this flow.
    pub monitored: bool,
    /// Flow size in bytes, if finite (used for FCT bookkeeping only; the
    /// endpoint itself decides when it is `Finished`).
    pub size_bytes: Option<u64>,
    /// First path hop this flow's packets traverse (0 = the full path).
    /// Cross traffic that merges in mid-path enters at a later hop.
    pub entry_hop: usize,
    /// Last path hop this flow traverses, inclusive (`None` = the path's
    /// final hop).  Cross traffic that exits mid-path leaves earlier.
    pub exit_hop: Option<usize>,
    /// Whether this flow negotiated ECN: its data packets are sent as
    /// [`EcnCodepoint::Ect`], marking queues may flip them to CE instead of
    /// dropping, and the receiver echoes the mark on the ACK.
    pub ecn: bool,
    /// Retire the flow when its endpoint reports `Finished`: drop the boxed
    /// endpoint (sender windows, SACK scoreboard, controller state) and the
    /// receiver's reassembly map, replacing the endpoint with an inert stub.
    /// Essential for fleet workloads where thousands of short flows churn
    /// through one run; meaningless for endpoints callers inspect afterwards.
    pub retire_on_finish: bool,
}

impl FlowConfig {
    /// A monitored, backlogged primary flow.
    pub fn primary(label: &str, prop_rtt: Time) -> Self {
        FlowConfig {
            label: label.to_string(),
            prop_rtt,
            start: Time::ZERO,
            counts_as_elastic: None,
            monitored: true,
            size_bytes: None,
            entry_hop: 0,
            exit_hop: None,
            ecn: false,
            retire_on_finish: false,
        }
    }

    /// An unmonitored cross-traffic flow.
    pub fn cross(label: &str, prop_rtt: Time, elastic: bool) -> Self {
        FlowConfig {
            label: label.to_string(),
            prop_rtt,
            start: Time::ZERO,
            counts_as_elastic: Some(elastic),
            monitored: false,
            size_bytes: None,
            entry_hop: 0,
            exit_hop: None,
            ecn: false,
            retire_on_finish: false,
        }
    }

    /// Enter the path at `hop` instead of its head (mid-path cross traffic).
    pub fn entering_at(mut self, hop: usize) -> Self {
        self.entry_hop = hop;
        self
    }

    /// Leave the path after `hop` instead of its tail (inclusive).
    pub fn exiting_at(mut self, hop: usize) -> Self {
        self.exit_hop = Some(hop);
        self
    }

    /// Set the start time.
    pub fn starting_at(mut self, start: Time) -> Self {
        self.start = start;
        self
    }

    /// Set the flow size.
    pub fn with_size(mut self, bytes: u64) -> Self {
        self.size_bytes = Some(bytes);
        self
    }

    /// Mark the flow as monitored (full time series recorded).
    pub fn monitored(mut self, yes: bool) -> Self {
        self.monitored = yes;
        self
    }

    /// Negotiate ECN: send data packets as ECT so marking queues mark
    /// instead of dropping.
    pub fn with_ecn(mut self, yes: bool) -> Self {
        self.ecn = yes;
        self
    }

    /// Free the flow's endpoint and receiver state when it finishes.
    pub fn retiring(mut self) -> Self {
        self.retire_on_finish = true;
        self
    }
}

/// A source of dynamically arriving flows: the engine asks it for the next
/// `(arrival time, config, endpoint)` triple and schedules the flow's
/// creation at that time, so an open-loop workload of thousands of flows
/// costs nothing until each one actually arrives.  Return `None` when the
/// process is exhausted.  Arrival times must be non-decreasing.
pub trait FlowSpawner: Send {
    /// The next flow to arrive, or `None` when no more flows will.
    fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)>;
}

/// An inert endpoint installed in place of a retired flow's real one; any
/// straggler event for the flow (late ACK, in-flight drop) hits a no-op.
struct RetiredEndpoint;

impl FlowEndpoint for RetiredEndpoint {
    fn on_ack(&mut self, _ack: &AckInfo) {}
    fn poll_send(&mut self, _now: Time) -> SendAction {
        SendAction::Finished
    }
    fn label(&self) -> &str {
        "retired"
    }
}

/// Handle returned when adding a flow; use it to retrieve the endpoint after
/// the run for inspection (e.g. to read Nimbus's detector log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHandle(pub FlowId);

/// Pending-event descriptor.  Packet and ACK payloads live in the engine's
/// slabs for the duration of their propagation; events carry only the 4-byte
/// slab ticket, which keeps every queue entry small (two words) no matter the
/// payload — the queue's push/pop traffic is dominated by the payload-free
/// `LinkDone`/`PollSend` kinds.
#[derive(Debug)]
enum EventKind {
    FlowStart(FlowId),
    PollSend(FlowId),
    /// Hop `hop` finished serializing its in-flight packet.  Tagged with the
    /// link generation at scheduling time: a rate transition mid-
    /// serialization bumps the generation and reschedules, orphaning the old
    /// entry, which must then be ignored.
    LinkDone {
        hop: usize,
        gen: u64,
    },
    /// A data packet propagated from one hop's output to the next hop's
    /// queue (the packet's `hop` field names the destination hop); the
    /// ticket indexes the engine's packet slab.
    HopArrival(u32),
    /// A data packet reached its receiver (packet-slab ticket).
    ReceiverArrival(u32),
    /// An ACK reached its sender (ACK-slab ticket).
    AckArrival(u32),
    /// Hop `hop`'s rate schedule reaches its next transition: advance the
    /// in-flight packet's byte progress under the outgoing rate and
    /// reschedule its completion under the incoming one.
    RateChange {
        hop: usize,
    },
    /// Spawner `idx`'s next pending flow arrives now: add it, fetch the
    /// following arrival and reschedule.
    Spawn(usize),
    Tick,
    Sample,
}

/// A registered [`FlowSpawner`] plus its pre-fetched next arrival (fetched
/// eagerly so the arrival *time* is known and schedulable before the flow
/// itself needs to exist).
struct SpawnerState {
    spawner: Box<dyn FlowSpawner>,
    pending: Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)>,
}

struct FlowState {
    cfg: FlowConfig,
    endpoint: Box<dyn FlowEndpoint>,
    started: bool,
    finished: bool,
    // Receiver-side state.
    next_expected: u64,
    out_of_order: BTreeMap<u64, u32>,
    delivered_bytes: u64,
    // Sender-side bookkeeping maintained by the engine.
    last_cum_ack: u64,
    /// Earliest pending `PollSend` event for this flow, used to avoid
    /// scheduling redundant polls (which would otherwise accumulate and blow
    /// up the event queue on paced flows).
    next_scheduled_poll: Time,
}

/// The packet currently being serialized on a link, tracked by byte progress
/// so the schedule can change the rate under it.
struct InFlight {
    pkt: Packet,
    /// Bits still to serialize (at the current rate).
    remaining_bits: f64,
    /// Time the progress was last advanced (transmission start or the most
    /// recent rate transition).
    since: Time,
}

/// Runtime state of one path hop.
struct LinkState {
    queue: Box<dyn QueueDiscipline>,
    busy: bool,
    /// Packet currently being serialized on this hop's link.
    in_flight: Option<InFlight>,
    /// Link rate currently in effect, bits/s.
    current_rate_bps: f64,
    /// Generation counter validating `LinkDone` events across rate changes.
    gen: u64,
    loss: LossProcess,
    policer: Option<Policer>,
}

/// The path network simulator (a dumbbell when the path has one hop).
pub struct Network {
    cfg: SimConfig,
    now: Time,
    events: CalendarQueue<EventKind>,
    event_seq: u64,
    /// Data packets mid-propagation (inside a scheduled `HopArrival` /
    /// `ReceiverArrival` event).
    pkt_slab: Slab<Packet>,
    /// ACKs mid-propagation (inside a scheduled `AckArrival` event).
    ack_slab: Slab<AckPacket>,
    links: Vec<LinkState>,
    flows: Vec<FlowState>,
    /// Registered flow spawners (`None` only transiently during dispatch).
    spawners: Vec<Option<SpawnerState>>,
    /// Flow ids that have started and not yet finished, ascending.  The
    /// per-tick walk visits only these, so a fleet run's cost per tick tracks
    /// the *concurrent* population, not the total number of flows ever
    /// created.  Ascending order keeps the tick's endpoint-call order
    /// identical to the historical `0..flows.len()` scan.
    active_flows: Vec<FlowId>,
    recorder: Recorder,
    /// Reusable per-hop occupancy buffer for recorder samples.
    occupancy_buf: Vec<u64>,
    /// Reusable per-hop cumulative-mark buffer for recorder samples.
    marks_buf: Vec<u64>,
    /// Bytes admitted into the path at each flow's entry hop.
    total_enqueued_bytes: u64,
    /// Bytes delivered in order to receivers.
    total_delivered_bytes: u64,
    /// Bytes that arrived at receivers regardless of order.
    total_received_bytes: u64,
    /// Bytes dropped after admission (at interior hops of a multi-hop path).
    dropped_in_transit_bytes: u64,
    /// Bytes currently propagating between hops or towards a receiver
    /// (inside a scheduled `HopArrival` / `ReceiverArrival` event).
    in_transit_bytes: u64,
    events_processed: u64,
}

/// Serialization time of `bits` at `rate_bps` (already floored by the schedule).
fn bits_time(bits: f64, rate_bps: f64) -> Time {
    Time::from_secs_f64(bits / rate_bps.max(crate::schedule::MIN_RATE_BPS))
}

/// Per-hop seed derivation: hop 0 keeps the master seed byte-for-byte (so
/// single-hop runs reproduce the pre-path engine exactly); later hops fold in
/// their index so independent hops draw independent random streams.
fn hop_seed(master: u64, hop: usize) -> u64 {
    master.wrapping_add((hop as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl Network {
    /// Create an empty network from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(!cfg.path.is_empty(), "the path needs at least one hop");
        let links: Vec<LinkState> = cfg
            .path
            .iter()
            .enumerate()
            .map(|(hop, link)| {
                let rate = link.schedule.initial_rate_bps();
                assert!(rate > 0.0, "hop {hop} rate must be positive");
                let seed = hop_seed(cfg.seed, hop);
                let queue: Box<dyn QueueDiscipline> = match link.queue {
                    QueueKind::DropTailBytes(b) => Box::new(DropTailQueue::new(b)),
                    QueueKind::DropTailDelay(s) => {
                        Box::new(DropTailQueue::with_delay_capacity(rate, s))
                    }
                    QueueKind::Pie {
                        target_delay_s,
                        buffer_s,
                    } => Box::new(PieQueue::new(
                        delay_capacity_bytes(rate, buffer_s),
                        rate,
                        Time::from_secs_f64(target_delay_s),
                        seed,
                    )),
                    QueueKind::Red { buffer_s } => {
                        Box::new(RedQueue::new(delay_capacity_bytes(rate, buffer_s), seed))
                    }
                    QueueKind::CoDel { buffer_s } => {
                        Box::new(CoDelQueue::new(delay_capacity_bytes(rate, buffer_s)))
                    }
                };
                let mut queue = queue;
                queue.set_ecn_marking(link.ecn);
                // Step profiles measure depth in drain time; give every
                // discipline the initial rate (PIE already has it, the
                // others store it only for marking).
                queue.set_drain_rate_bps(rate);
                LinkState {
                    queue,
                    busy: false,
                    in_flight: None,
                    current_rate_bps: rate,
                    gen: 0,
                    loss: LossProcess::new(link.loss.clone(), seed),
                    policer: link
                        .policer
                        .map(|(rate_bps, burst)| Policer::new(rate_bps, burst)),
                }
            })
            .collect();
        let recorder = Recorder::new(cfg.recorder.clone(), cfg.path.len());
        Network {
            cfg,
            now: Time::ZERO,
            events: CalendarQueue::new(),
            event_seq: 0,
            pkt_slab: Slab::new(),
            ack_slab: Slab::new(),
            links,
            flows: Vec::new(),
            spawners: Vec::new(),
            active_flows: Vec::new(),
            recorder,
            occupancy_buf: Vec::new(),
            marks_buf: Vec::new(),
            total_enqueued_bytes: 0,
            total_delivered_bytes: 0,
            total_received_bytes: 0,
            dropped_in_transit_bytes: 0,
            in_transit_bytes: 0,
            events_processed: 0,
        }
    }

    /// Number of hops on the forward path.
    pub fn num_hops(&self) -> usize {
        self.links.len()
    }

    /// The first hop's rate currently in effect, in bits per second.
    pub fn link_rate_bps(&self) -> f64 {
        self.links[0].current_rate_bps
    }

    /// Every hop's configured rate schedule, in path order.
    pub fn hop_schedules(&self) -> Vec<&RateSchedule> {
        self.cfg.path.iter().map(|l| &l.schedule).collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Add a flow. Returns a handle whose index identifies the flow in the
    /// recorder output.
    pub fn add_flow(&mut self, cfg: FlowConfig, endpoint: Box<dyn FlowEndpoint>) -> FlowHandle {
        assert!(
            cfg.entry_hop < self.links.len(),
            "flow '{}' enters at hop {} of a {}-hop path",
            cfg.label,
            cfg.entry_hop,
            self.links.len()
        );
        if let Some(exit) = cfg.exit_hop {
            assert!(
                exit >= cfg.entry_hop && exit < self.links.len(),
                "flow '{}' exits at hop {exit} outside [{}, {})",
                cfg.label,
                cfg.entry_hop,
                self.links.len()
            );
        }
        let id = self.flows.len();
        self.recorder.register_flow(
            id,
            cfg.label.clone(),
            cfg.counts_as_elastic,
            cfg.monitored,
            cfg.start,
            cfg.size_bytes,
        );
        self.schedule(cfg.start, EventKind::FlowStart(id));
        self.flows.push(FlowState {
            cfg,
            endpoint,
            started: false,
            finished: false,
            next_expected: 0,
            out_of_order: BTreeMap::new(),
            delivered_bytes: 0,
            last_cum_ack: 0,
            next_scheduled_poll: Time::MAX,
        });
        FlowHandle(id)
    }

    /// Register an open-loop flow source.  Its first arrival is fetched and
    /// scheduled immediately; each arrival event adds the pending flow and
    /// fetches the next, so at most one un-created flow per spawner is ever
    /// held in memory.
    pub fn add_spawner(&mut self, spawner: Box<dyn FlowSpawner>) {
        let mut state = SpawnerState {
            spawner,
            pending: None,
        };
        if let Some(next) = state.spawner.next_flow() {
            let at = next.0;
            state.pending = Some(next);
            let idx = self.spawners.len();
            self.schedule(at, EventKind::Spawn(idx));
        }
        self.spawners.push(Some(state));
    }

    /// Total number of flows ever created (static adds plus spawned).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Flows currently started and not finished.  (The internal active list
    /// is compacted lazily at each tick, so filter here for an exact count.)
    pub fn active_flow_count(&self) -> usize {
        self.active_flows
            .iter()
            .filter(|&&id| !self.flows[id].finished)
            .count()
    }

    /// Flows that finished and had their endpoint/receiver state retired.
    pub fn retired_flow_count(&self) -> usize {
        self.flows
            .iter()
            .filter(|f| f.finished && f.cfg.retire_on_finish)
            .count()
    }

    /// Run the simulation to completion (until `duration`).
    pub fn run(&mut self) {
        self.schedule(self.cfg.tick_interval, EventKind::Tick);
        self.schedule(self.cfg.recorder.sample_interval, EventKind::Sample);
        for hop in 0..self.cfg.path.len() {
            if let Some(at) = self.cfg.path[hop]
                .schedule
                .next_transition_after(Time::ZERO)
            {
                self.schedule(at, EventKind::RateChange { hop });
            }
        }
        while let Some((at, _seq, kind)) = self.events.pop() {
            if at > self.cfg.duration {
                break;
            }
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            self.dispatch(kind);
        }
        // Advance the clock to the configured end of the run: the loop above
        // leaves `now` at the last event at or before `duration`, which would
        // stamp the closing sample early and truncate `now()`-based
        // steady-state windows.  This must not depend on any hop's `LinkDone`
        // firing — a hop whose schedule ends in a (near-)zero-rate outage
        // schedules its completion far beyond `duration` and still closes here.
        if self.now < self.cfg.duration {
            self.now = self.cfg.duration;
        }
        // Close the final recorder interval.
        self.take_sample();
    }

    /// Refresh the reusable occupancy buffer and close a recorder interval.
    fn take_sample(&mut self) {
        self.occupancy_buf.clear();
        self.occupancy_buf
            .extend(self.links.iter().map(|l| l.queue.len_bytes()));
        self.recorder.sample(self.now, &self.occupancy_buf);
        self.marks_buf.clear();
        self.marks_buf
            .extend(self.links.iter().map(|l| l.queue.marks()));
        self.recorder.sample_marks(self.now, &self.marks_buf);
    }

    /// Consume the network, returning the recorder (results) and the flow
    /// endpoints (so callers can inspect controller-internal logs).
    pub fn finish(self) -> (Recorder, Vec<Box<dyn FlowEndpoint>>) {
        (
            self.recorder,
            self.flows.into_iter().map(|f| f.endpoint).collect(),
        )
    }

    /// Access the recorder during/after a run.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Borrow a flow's endpoint (e.g. to inspect controller state mid-run in tests).
    pub fn endpoint(&self, handle: FlowHandle) -> &dyn FlowEndpoint {
        self.flows[handle.0].endpoint.as_ref()
    }

    /// Total number of events processed (diagnostics / benchmarking).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total bytes admitted into the path at the flows' entry hops.
    pub fn total_enqueued_bytes(&self) -> u64 {
        self.total_enqueued_bytes
    }

    /// Total bytes delivered in order to receivers.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.total_delivered_bytes
    }

    /// Total bytes that arrived at receivers, regardless of ordering.
    pub fn total_received_bytes(&self) -> u64 {
        self.total_received_bytes
    }

    /// Bytes dropped after admission (interior hops of a multi-hop path).
    pub fn dropped_in_transit_bytes(&self) -> u64 {
        self.dropped_in_transit_bytes
    }

    /// Bytes currently inside the network: queued at a hop, mid-serialization
    /// on a link, or propagating between hops / towards a receiver.  Together
    /// with the counters above this makes admission conservation exact:
    /// `total_enqueued = total_received + dropped_in_transit + in_network`.
    pub fn in_network_bytes(&self) -> u64 {
        self.links
            .iter()
            .map(|l| {
                l.queue.len_bytes() + l.in_flight.as_ref().map_or(0, |f| f.pkt.size_bytes as u64)
            })
            .sum::<u64>()
            + self.in_transit_bytes
    }

    fn schedule(&mut self, at: Time, kind: EventKind) {
        let at = at.max(self.now);
        self.event_seq += 1;
        self.events.push(at, self.event_seq, kind);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::FlowStart(id) => {
                if !self.flows[id].started {
                    self.flows[id].started = true;
                    let pos = self.active_flows.binary_search(&id).unwrap_or_else(|p| p);
                    self.active_flows.insert(pos, id);
                    self.recorder.on_flow_start(id);
                    let now = self.now;
                    self.flows[id].endpoint.on_start(now);
                    self.poll_flow(id);
                }
            }
            EventKind::PollSend(id) => {
                // Only the poll recorded in `next_scheduled_poll` is live; an
                // entry left in the heap after an earlier poll superseded it
                // must be dropped here, otherwise every stale entry would
                // reschedule itself and the poll chains would multiply without
                // bound (each ACK that moves the wake-up earlier would leak
                // one immortal chain).
                if self.now != self.flows[id].next_scheduled_poll {
                    return;
                }
                self.flows[id].next_scheduled_poll = Time::MAX;
                self.poll_flow(id)
            }
            EventKind::LinkDone { hop, gen } => self.on_link_done(hop, gen),
            EventKind::HopArrival(ticket) => {
                let pkt = self.pkt_slab.take(ticket);
                self.on_hop_arrival(pkt);
            }
            EventKind::ReceiverArrival(ticket) => {
                let pkt = self.pkt_slab.take(ticket);
                self.on_receiver_arrival(pkt);
            }
            EventKind::AckArrival(ticket) => {
                let ack = self.ack_slab.take(ticket);
                self.on_ack_arrival(ack);
            }
            EventKind::RateChange { hop } => self.on_rate_change(hop),
            EventKind::Spawn(idx) => {
                // Take the state out so `add_flow` can borrow `self` freely.
                if let Some(mut state) = self.spawners[idx].take() {
                    if let Some((at, cfg, endpoint)) = state.pending.take() {
                        debug_assert!(at <= self.now, "spawn fired before its arrival time");
                        // The flow's `FlowStart` lands at the same instant but
                        // a later event sequence number, so it fires right
                        // after this event — deterministically.
                        self.add_flow(cfg, endpoint);
                    }
                    if let Some(next) = state.spawner.next_flow() {
                        let at = next.0;
                        state.pending = Some(next);
                        self.schedule(at, EventKind::Spawn(idx));
                    }
                    self.spawners[idx] = Some(state);
                }
            }
            EventKind::Tick => {
                let now = self.now;
                // Walk by index (not iterator) because `poll_flow` needs
                // `&mut self`; the list only grows at `FlowStart`, never
                // during a tick, so the bound is stable.
                let mut i = 0;
                while i < self.active_flows.len() {
                    let id = self.active_flows[i];
                    if !self.flows[id].finished {
                        self.flows[id].endpoint.on_tick(now);
                        self.poll_flow(id);
                    }
                    i += 1;
                }
                self.active_flows.retain(|&id| !self.flows[id].finished);
                self.schedule(now + self.cfg.tick_interval, EventKind::Tick);
            }
            EventKind::Sample => {
                self.take_sample();
                let next = self.now + self.cfg.recorder.sample_interval;
                self.schedule(next, EventKind::Sample);
            }
        }
    }

    fn poll_flow(&mut self, id: FlowId) {
        if !self.flows[id].started || self.flows[id].finished {
            return;
        }
        // Cap the number of back-to-back transmissions per poll so a buggy
        // endpoint cannot wedge the simulation.
        const MAX_BURST: usize = 100_000;
        for iteration in 0.. {
            assert!(
                iteration < MAX_BURST,
                "flow {id} ({}) transmitted {MAX_BURST} packets in one poll; runaway endpoint",
                self.flows[id].cfg.label
            );
            let action = self.flows[id].endpoint.poll_send(self.now);
            match action {
                SendAction::Transmit {
                    seq,
                    bytes,
                    retransmit,
                } => {
                    self.transmit(id, seq, bytes, retransmit);
                }
                SendAction::WaitUntil(t) => {
                    // Guard against endpoints asking to be polled in the past,
                    // which would busy-loop the event queue.
                    let t = t.max(self.now + Time::from_nanos(1));
                    // Only schedule if no earlier (or equal) poll is already
                    // pending; otherwise ACK-triggered polls on paced flows
                    // would pile up duplicate events.
                    if self.flows[id].next_scheduled_poll > t {
                        self.flows[id].next_scheduled_poll = t;
                        self.schedule(t, EventKind::PollSend(id));
                    }
                    break;
                }
                SendAction::Idle => break,
                SendAction::Finished => {
                    self.flows[id].finished = true;
                    self.recorder.on_finish(id, self.now);
                    if self.flows[id].cfg.retire_on_finish {
                        self.retire_flow(id);
                    }
                    break;
                }
            }
        }
    }

    /// Free a finished flow's heavyweight state: the boxed endpoint (sender
    /// window, SACK scoreboard, congestion controller) and the receiver's
    /// reassembly map.  Straggler events — an ACK still propagating, a packet
    /// dropped in transit — find a no-op endpoint and a `finished` flag that
    /// short-circuits the ACK path, so late arrivals are harmless.
    fn retire_flow(&mut self, id: FlowId) {
        let flow = &mut self.flows[id];
        flow.endpoint = Box::new(RetiredEndpoint);
        flow.out_of_order = BTreeMap::new();
    }

    /// The last hop flow `id` traverses.
    fn exit_hop_of(&self, id: FlowId) -> usize {
        self.flows[id].cfg.exit_hop.unwrap_or(self.links.len() - 1)
    }

    /// Offer `pkt` to `hop`'s ingress: policer, then random loss, then the
    /// queue — the same order the single-link engine used.  On a drop the
    /// recorder and the owning endpoint are notified; returns whether the
    /// packet was accepted.
    fn offer_to_hop(&mut self, hop: usize, pkt: Packet) -> bool {
        let id = pkt.flow;
        let seq = pkt.seq;
        let bytes = pkt.size_bytes;
        let link = &mut self.links[hop];
        let policed = match &mut link.policer {
            Some(pol) => !pol.conforms(bytes, self.now),
            None => false,
        };
        // Short-circuit keeps the loss RNG untouched on a policer drop,
        // exactly as the single-link engine behaved.
        let lost = policed || link.loss.should_drop();
        let accepted = !lost && link.queue.enqueue(pkt, self.now) == EnqueueResult::Accepted;
        if !accepted {
            self.recorder.on_drop(id, hop);
            self.flows[id].endpoint.on_packet_dropped(seq, self.now);
        }
        accepted
    }

    fn transmit(&mut self, id: FlowId, seq: u64, bytes: u32, retransmit: bool) {
        debug_assert!(bytes > 0, "cannot transmit an empty packet");
        let entry = self.flows[id].cfg.entry_hop;
        let mut pkt = Packet::new(id, seq, bytes, self.now, retransmit);
        pkt.hop = entry;
        if self.flows[id].cfg.ecn {
            pkt.ecn = EcnCodepoint::Ect;
        }
        if self.offer_to_hop(entry, pkt) {
            self.total_enqueued_bytes += bytes as u64;
            self.recorder.on_enqueue(id, bytes);
            self.maybe_start_transmission(entry);
        }
    }

    /// A packet propagated to an interior hop's queue.
    fn on_hop_arrival(&mut self, pkt: Packet) {
        let hop = pkt.hop;
        let bytes = pkt.size_bytes as u64;
        let id = pkt.flow;
        self.in_transit_bytes -= bytes;
        if self.offer_to_hop(hop, pkt) {
            self.maybe_start_transmission(hop);
        } else {
            // The bytes were admitted upstream but died here.
            self.dropped_in_transit_bytes += bytes;
            self.poll_flow(id);
        }
    }

    fn maybe_start_transmission(&mut self, hop: usize) {
        if self.links[hop].busy {
            return;
        }
        if let Some(mut pkt) = self.links[hop].queue.dequeue(self.now) {
            self.links[hop].busy = true;
            let delay = pkt.queueing_delay(self.now);
            pkt.cum_queue_delay += delay;
            // The recorder sees one sample per packet: its whole-path
            // queueing delay, reported as it clears its final queue.
            if hop >= self.exit_hop_of(pkt.flow) {
                self.recorder.on_dequeue(pkt.flow, pkt.cum_queue_delay);
            }
            let bits = pkt.size_bytes as f64 * 8.0;
            let tx = bits_time(bits, self.links[hop].current_rate_bps);
            self.links[hop].in_flight = Some(InFlight {
                pkt,
                remaining_bits: bits,
                since: self.now,
            });
            self.links[hop].gen += 1;
            let gen = self.links[hop].gen;
            self.schedule(self.now + tx, EventKind::LinkDone { hop, gen });
        }
    }

    /// Apply a scheduled rate transition on `hop`.  The in-flight packet (if
    /// any) has its byte progress advanced under the outgoing rate and its
    /// completion rescheduled under the incoming one; delay-sized queue
    /// capacities are recomputed so "x seconds of buffering" keeps meaning
    /// x seconds.
    fn on_rate_change(&mut self, hop: usize) {
        let new_rate = self.cfg.path[hop].schedule.rate_at(self.now);
        let link = &mut self.links[hop];
        if let Some(inf) = &mut link.in_flight {
            let elapsed = self.now.saturating_sub(inf.since).as_secs_f64();
            inf.remaining_bits = (inf.remaining_bits - elapsed * link.current_rate_bps).max(0.0);
            inf.since = self.now;
        }
        link.current_rate_bps = new_rate;
        if let Some(inf) = &link.in_flight {
            let tx = bits_time(inf.remaining_bits, new_rate);
            link.gen += 1;
            let gen = link.gen;
            let at = self.now + tx;
            self.schedule(at, EventKind::LinkDone { hop, gen });
        }
        // Keep delay-specified buffers coherent with the new rate.
        let buffer_s = match self.cfg.path[hop].queue {
            QueueKind::DropTailBytes(_) => None,
            QueueKind::DropTailDelay(s) => Some(s),
            QueueKind::Pie { buffer_s, .. } => Some(buffer_s),
            QueueKind::Red { buffer_s } => Some(buffer_s),
            QueueKind::CoDel { buffer_s } => Some(buffer_s),
        };
        let link = &mut self.links[hop];
        if let Some(s) = buffer_s {
            link.queue
                .set_capacity_bytes(delay_capacity_bytes(new_rate, s));
        }
        link.queue.set_drain_rate_bps(new_rate);
        if let Some(at) = self.cfg.path[hop].schedule.next_transition_after(self.now) {
            self.schedule(at, EventKind::RateChange { hop });
        }
    }

    fn on_link_done(&mut self, hop: usize, gen: u64) {
        // A rate transition mid-serialization reschedules completion under a
        // new generation; the orphaned entry must not complete the packet.
        if gen != self.links[hop].gen {
            return;
        }
        self.links[hop].busy = false;
        if let Some(inf) = self.links[hop].in_flight.take() {
            let mut pkt = inf.pkt;
            self.in_transit_bytes += pkt.size_bytes as u64;
            if hop >= self.exit_hop_of(pkt.flow) {
                // Last hop for this flow: propagate to the receiver over the
                // data half of the configured RTT.
                let prop = Time::from_nanos(self.flows[pkt.flow].cfg.prop_rtt.as_nanos() / 2);
                let ticket = self.pkt_slab.insert(pkt);
                self.schedule(self.now + prop, EventKind::ReceiverArrival(ticket));
            } else {
                // Interior hop: propagate into the next hop's queue over
                // that hop's configured inbound delay.
                let delay = self.cfg.path[hop + 1].prop_delay;
                pkt.hop = hop + 1;
                let ticket = self.pkt_slab.insert(pkt);
                self.schedule(self.now + delay, EventKind::HopArrival(ticket));
            }
        }
        self.maybe_start_transmission(hop);
    }

    fn on_receiver_arrival(&mut self, pkt: Packet) {
        let id = pkt.flow;
        self.in_transit_bytes -= pkt.size_bytes as u64;
        self.total_received_bytes += pkt.size_bytes as u64;
        let flow = &mut self.flows[id];
        // Receiver: cumulative ACK generation with duplicate-data suppression.
        let mut newly_delivered = 0u64;
        if pkt.seq >= flow.next_expected && !flow.out_of_order.contains_key(&pkt.seq) {
            flow.out_of_order.insert(pkt.seq, pkt.size_bytes);
        }
        while let Some(sz) = flow.out_of_order.remove(&flow.next_expected) {
            newly_delivered += sz as u64;
            flow.next_expected += 1;
        }
        flow.delivered_bytes += newly_delivered;
        self.total_delivered_bytes += newly_delivered;
        self.recorder.on_arrival(id, pkt.size_bytes as u64);
        self.recorder.on_delivered(id, newly_delivered);

        let ack = AckPacket {
            flow: id,
            cum_ack: flow.next_expected,
            triggering_seq: pkt.seq,
            triggering_bytes: pkt.size_bytes,
            data_sent_at: pkt.sent_at,
            received_at: self.now,
            newly_delivered_bytes: newly_delivered,
            total_delivered_bytes: flow.delivered_bytes,
            ce: pkt.ecn == EcnCodepoint::Ce,
        };
        let ack_delay = Time::from_nanos(flow.cfg.prop_rtt.as_nanos() / 2);
        let ticket = self.ack_slab.insert(ack);
        self.schedule(self.now + ack_delay, EventKind::AckArrival(ticket));
    }

    fn on_ack_arrival(&mut self, ack: AckPacket) {
        let id = ack.flow;
        if self.flows[id].finished {
            return;
        }
        let is_duplicate = ack.cum_ack <= self.flows[id].last_cum_ack;
        self.flows[id].last_cum_ack = self.flows[id].last_cum_ack.max(ack.cum_ack);
        let rtt = self.now.saturating_sub(ack.data_sent_at);
        self.recorder.on_rtt_sample(id, rtt);
        let info = AckInfo {
            now: self.now,
            cum_ack: ack.cum_ack,
            triggering_seq: ack.triggering_seq,
            triggering_bytes: ack.triggering_bytes,
            data_sent_at: ack.data_sent_at,
            rtt_sample: rtt,
            is_duplicate,
            newly_delivered_bytes: ack.newly_delivered_bytes,
            total_delivered_bytes: ack.total_delivered_bytes,
            ce: ack.ce,
        };
        self.flows[id].endpoint.on_ack(&info);
        self.poll_flow(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant-bit-rate, paced sender: one MSS every `interval`.
    struct PacedCbr {
        rate_bps: f64,
        mss: u32,
        next_seq: u64,
        next_send: Time,
        total_packets: Option<u64>,
    }

    impl PacedCbr {
        fn new(rate_bps: f64) -> Self {
            PacedCbr {
                rate_bps,
                mss: 1500,
                next_seq: 0,
                next_send: Time::ZERO,
                total_packets: None,
            }
        }
        fn with_limit(mut self, packets: u64) -> Self {
            self.total_packets = Some(packets);
            self
        }
    }

    impl FlowEndpoint for PacedCbr {
        fn on_ack(&mut self, _ack: &AckInfo) {}
        fn poll_send(&mut self, now: Time) -> SendAction {
            if let Some(limit) = self.total_packets {
                if self.next_seq >= limit {
                    return SendAction::Finished;
                }
            }
            if now >= self.next_send {
                let seq = self.next_seq;
                self.next_seq += 1;
                let gap = Time::from_secs_f64(self.mss as f64 * 8.0 / self.rate_bps);
                self.next_send = if self.next_send == Time::ZERO {
                    now + gap
                } else {
                    self.next_send + gap
                };
                SendAction::Transmit {
                    seq,
                    bytes: self.mss,
                    retransmit: false,
                }
            } else {
                SendAction::WaitUntil(self.next_send)
            }
        }
        fn label(&self) -> &str {
            "paced-cbr"
        }
    }

    /// A fixed-window, ACK-clocked sender (no loss recovery; relies on the
    /// queue being big enough in these tests).
    struct FixedWindow {
        window: u64,
        next_seq: u64,
        cum_ack: u64,
        mss: u32,
    }

    impl FixedWindow {
        fn new(window: u64) -> Self {
            FixedWindow {
                window,
                next_seq: 0,
                cum_ack: 0,
                mss: 1500,
            }
        }
    }

    impl FlowEndpoint for FixedWindow {
        fn on_ack(&mut self, ack: &AckInfo) {
            self.cum_ack = self.cum_ack.max(ack.cum_ack);
        }
        fn poll_send(&mut self, _now: Time) -> SendAction {
            if self.next_seq < self.cum_ack + self.window {
                let seq = self.next_seq;
                self.next_seq += 1;
                SendAction::Transmit {
                    seq,
                    bytes: self.mss,
                    retransmit: false,
                }
            } else {
                SendAction::Idle
            }
        }
        fn label(&self) -> &str {
            "fixed-window"
        }
    }

    fn base_config(rate_bps: f64, duration_s: f64) -> SimConfig {
        SimConfig::new(rate_bps, 0.1, duration_s)
    }

    #[test]
    fn paced_flow_below_capacity_sees_no_queueing() {
        // 10 Mbit/s offered on a 96 Mbit/s link: essentially zero queueing delay.
        let mut net = Network::new(base_config(96e6, 10.0));
        let h = net.add_flow(
            FlowConfig::primary("cbr", Time::from_millis(50)),
            Box::new(PacedCbr::new(10e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        // Throughput ~10 Mbit/s after startup.
        let tput = rec.throughput_mbps[slot].mean_in_range(2.0, 10.0);
        assert!((tput - 10.0).abs() < 1.0, "throughput {tput}");
        // Mean RTT close to the propagation RTT.
        let rtt = rec.rtt_ms[slot].mean_in_range(2.0, 10.0);
        assert!((rtt - 50.0).abs() < 2.0, "rtt {rtt}");
        // Per-packet queueing delay ~0.
        let qd = rec.queue_delay_ms[slot].mean_in_range(2.0, 10.0);
        assert!(qd < 1.0, "queue delay {qd}");
    }

    #[test]
    fn paced_flow_above_capacity_is_limited_to_link_rate() {
        // Offer 20 Mbit/s on a 12 Mbit/s link: delivery is capped at link rate
        // and the (100 ms) buffer fills, so queueing delay approaches 100 ms.
        let mut net = Network::new(base_config(12e6, 20.0));
        let h = net.add_flow(
            FlowConfig::primary("cbr", Time::from_millis(20)),
            Box::new(PacedCbr::new(20e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps[slot].mean_in_range(5.0, 20.0);
        assert!((tput - 12.0).abs() < 1.0, "throughput {tput}");
        let qd = rec.queue_delay_ms[slot].mean_in_range(5.0, 20.0);
        assert!(qd > 60.0 && qd <= 105.0, "queue delay {qd}");
        // Drops must have occurred once the buffer filled.
        assert!(rec.flows[h.0].dropped_packets > 0);
    }

    #[test]
    fn ack_clocked_window_flow_matches_bandwidth_delay_product() {
        // Window = 2 * BDP on an otherwise empty link: the flow saturates the
        // link and the standing queue is about one BDP.
        let rate: f64 = 48e6;
        let rtt = Time::from_millis(50);
        let bdp_packets = (rate * 0.050 / 8.0 / 1500.0).round() as u64; // = 200
        let mut net = Network::new(base_config(rate, 30.0));
        let h = net.add_flow(
            FlowConfig::primary("window", rtt),
            Box::new(FixedWindow::new(bdp_packets * 2)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let tput = rec.throughput_mbps[slot].mean_in_range(5.0, 30.0);
        assert!((tput - 48.0).abs() < 2.0, "throughput {tput}");
        // Standing queue of ~1 BDP => queueing delay ~ RTT (50 ms).
        let qd = rec.queue_delay_ms[slot].mean_in_range(5.0, 30.0);
        assert!((qd - 50.0).abs() < 10.0, "queue delay {qd}");
        // RTT observed = propagation + queueing ≈ 100 ms.
        let rtt_obs = rec.rtt_ms[slot].mean_in_range(5.0, 30.0);
        assert!((rtt_obs - 100.0).abs() < 12.0, "rtt {rtt_obs}");
    }

    #[test]
    fn two_equal_window_flows_share_the_link() {
        let rate = 96e6;
        let mut net = Network::new(base_config(rate, 30.0));
        let h1 = net.add_flow(
            FlowConfig::primary("a", Time::from_millis(50)),
            Box::new(FixedWindow::new(400)),
        );
        let h2 = net.add_flow(
            FlowConfig::primary("b", Time::from_millis(50)),
            Box::new(FixedWindow::new(400)),
        );
        net.run();
        let (rec, _) = net.finish();
        let t1 = rec.throughput_mbps[rec.monitored_slot(h1.0).unwrap()].mean_in_range(10.0, 30.0);
        let t2 = rec.throughput_mbps[rec.monitored_slot(h2.0).unwrap()].mean_in_range(10.0, 30.0);
        assert!((t1 + t2 - 96.0).abs() < 4.0, "sum {t1}+{t2}");
        assert!((t1 - t2).abs() < 10.0, "unfair split {t1} vs {t2}");
    }

    #[test]
    fn finite_flow_records_completion_time() {
        let mut net = Network::new(base_config(96e6, 30.0));
        let h = net.add_flow(
            FlowConfig::cross("finite", Time::from_millis(20), false)
                .with_size(150_000)
                .starting_at(Time::from_secs_f64(1.0)),
            Box::new(PacedCbr::new(12e6).with_limit(100)), // 100 * 1500 B = 150 kB
        );
        net.run();
        let (rec, _) = net.finish();
        let stats = &rec.flows[h.0];
        assert!(stats.finish.is_some(), "flow should have finished");
        let fct = stats.fct().unwrap().as_secs_f64();
        // 150 kB at 12 Mbit/s is 0.1 s; allow pacing/ack slack.
        assert!(fct > 0.05 && fct < 0.5, "fct {fct}");
        assert_eq!(stats.delivered_bytes, 150_000);
    }

    #[test]
    fn byte_conservation_delivered_never_exceeds_enqueued() {
        let mut net = Network::new(base_config(24e6, 10.0));
        net.add_flow(
            FlowConfig::primary("a", Time::from_millis(30)),
            Box::new(PacedCbr::new(30e6)),
        );
        net.add_flow(
            FlowConfig::cross("b", Time::from_millis(60), false),
            Box::new(PacedCbr::new(10e6)),
        );
        net.run();
        assert!(net.total_delivered_bytes() <= net.total_enqueued_bytes());
        assert!(net.total_delivered_bytes() > 0);
        // Link can have delivered at most rate * duration.
        let cap = 24e6 * 10.0 / 8.0;
        assert!((net.total_delivered_bytes() as f64) <= cap * 1.01);
    }

    #[test]
    fn ground_truth_elastic_fraction_tracks_flow_tags() {
        let mut net = Network::new(base_config(96e6, 10.0));
        // 10 Mbit/s tagged elastic + 30 Mbit/s tagged inelastic => fraction 0.25.
        net.add_flow(
            FlowConfig::cross("elastic", Time::from_millis(50), true),
            Box::new(PacedCbr::new(10e6)),
        );
        net.add_flow(
            FlowConfig::cross("inelastic", Time::from_millis(50), false),
            Box::new(PacedCbr::new(30e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let frac: Vec<f64> = rec
            .elastic_fraction
            .t
            .iter()
            .zip(rec.elastic_fraction.v.iter())
            .filter(|(t, _)| **t > 2.0)
            .map(|(_, v)| *v)
            .collect();
        let mean = frac.iter().sum::<f64>() / frac.len() as f64;
        assert!((mean - 0.25).abs() < 0.05, "elastic fraction {mean}");
        // Cross rate ground truth ~40 Mbit/s.
        let z = rec.cross_rate_mbps.mean_in_range(2.0, 10.0);
        assert!((z - 40.0).abs() < 3.0, "cross rate {z}");
    }

    #[test]
    fn random_loss_model_drops_packets() {
        let mut cfg = base_config(96e6, 5.0);
        cfg.link_mut().loss = LossModel::Bernoulli { p: 0.05 };
        let mut net = Network::new(cfg);
        let h = net.add_flow(
            FlowConfig::primary("lossy", Time::from_millis(20)),
            Box::new(PacedCbr::new(20e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        assert!(rec.flows[h.0].dropped_packets > 50);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut cfg = base_config(48e6, 5.0);
            cfg.link_mut().loss = LossModel::Bernoulli { p: 0.01 };
            cfg.seed = 99;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("a", Time::from_millis(40)),
                Box::new(FixedWindow::new(300)),
            );
            net.add_flow(
                FlowConfig::cross("b", Time::from_millis(40), false),
                Box::new(PacedCbr::new(12e6)),
            );
            net.run();
            (
                net.total_delivered_bytes(),
                net.total_enqueued_bytes(),
                net.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A fixed-count open-loop spawner: `count` retiring 15 kB flows, one
    /// every `interval`, starting at t = 0.5 s.
    struct BurstSpawner {
        interval_s: f64,
        emitted: u64,
        count: u64,
    }

    impl FlowSpawner for BurstSpawner {
        fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
            if self.emitted >= self.count {
                return None;
            }
            let i = self.emitted;
            self.emitted += 1;
            let at = Time::from_secs_f64(0.5 + i as f64 * self.interval_s);
            let cfg = FlowConfig::cross(&format!("spawn-{i}"), Time::from_millis(20), false)
                .starting_at(at)
                .with_size(15_000)
                .retiring();
            let ep: Box<dyn FlowEndpoint> = Box::new(PacedCbr::new(6e6).with_limit(10));
            Some((at, cfg, ep))
        }
    }

    #[test]
    fn spawner_creates_finishes_and_retires_flows() {
        let mut net = Network::new(base_config(96e6, 10.0));
        net.add_spawner(Box::new(BurstSpawner {
            interval_s: 0.2,
            emitted: 0,
            count: 20,
        }));
        net.run();
        assert_eq!(net.flow_count(), 20);
        assert_eq!(net.active_flow_count(), 0, "all spawned flows complete");
        assert_eq!(net.retired_flow_count(), 20);
        let (rec, endpoints) = net.finish();
        for (i, stats) in rec.flows.iter().enumerate() {
            assert!(stats.started, "flow {i} started");
            assert!(stats.finish.is_some(), "flow {i} finished");
            assert_eq!(stats.delivered_bytes, 15_000, "flow {i} delivered");
            assert!(stats.fct().unwrap() > Time::ZERO);
        }
        // Retirement swapped every endpoint for the inert stub.
        for ep in &endpoints {
            assert_eq!(ep.label(), "retired");
        }
    }

    #[test]
    fn spawned_runs_are_deterministic() {
        let run = || {
            let mut cfg = base_config(48e6, 8.0);
            cfg.link_mut().loss = LossModel::Bernoulli { p: 0.005 };
            cfg.seed = 7;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("long", Time::from_millis(40)),
                Box::new(FixedWindow::new(200)),
            );
            net.add_spawner(Box::new(BurstSpawner {
                interval_s: 0.1,
                emitted: 0,
                count: 50,
            }));
            net.run();
            (
                net.total_delivered_bytes(),
                net.total_enqueued_bytes(),
                net.events_processed(),
                net.flow_count(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unretired_finite_flows_keep_their_endpoints() {
        let mut net = Network::new(base_config(96e6, 10.0));
        let h = net.add_flow(
            FlowConfig::cross("finite", Time::from_millis(20), false).with_size(15_000),
            Box::new(PacedCbr::new(6e6).with_limit(10)),
        );
        net.run();
        assert_eq!(net.retired_flow_count(), 0);
        let (_, endpoints) = net.finish();
        assert_eq!(endpoints[h.0].label(), "paced-cbr");
    }

    /// A fixed-window endpoint that counts CE echoes on its ACKs.
    struct CeCountingWindow {
        inner: FixedWindow,
        ce_acks: u64,
    }

    impl FlowEndpoint for CeCountingWindow {
        fn on_ack(&mut self, ack: &AckInfo) {
            if ack.ce {
                self.ce_acks += 1;
            }
            self.inner.on_ack(ack);
        }
        fn poll_send(&mut self, now: Time) -> SendAction {
            self.inner.poll_send(now)
        }
        fn label(&self) -> &str {
            "ce-counting"
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn step_marking_hop_echoes_ce_back_to_an_ecn_flow() {
        // An over-buffered window on a 12 Mbit/s link with a 1 ms L4S step
        // threshold: the standing queue far exceeds the threshold, so ECT
        // packets are marked, the receiver echoes CE, and no packets drop
        // (the 100 ms physical buffer is never reached by a 100-packet window).
        let mut cfg = base_config(12e6, 10.0);
        cfg.link_mut().ecn = EcnMarking::Step { threshold_s: 0.001 };
        let mut net = Network::new(cfg);
        let h = net.add_flow(
            FlowConfig::primary("ecn-window", Time::from_millis(20)).with_ecn(true),
            Box::new(CeCountingWindow {
                inner: FixedWindow::new(100),
                ce_acks: 0,
            }),
        );
        net.run();
        assert!(net.recorder().hop_marked_packets[0] > 100, "queue marked");
        assert_eq!(net.recorder().flows[h.0].dropped_packets, 0, "no drops");
        let marks = net.recorder().hop_marked_packets[0];
        let mark_series_total: f64 = net.recorder().hop_mark_series[0].v.iter().sum();
        assert_eq!(mark_series_total as u64, marks, "series sums to counter");
        let (_, endpoints) = net.finish();
        let ep = endpoints[h.0]
            .as_any()
            .and_then(|a| a.downcast_ref::<CeCountingWindow>())
            .expect("endpoint downcasts");
        assert!(
            ep.ce_acks as f64 >= marks as f64 * 0.9,
            "CE echoes ({}) should track queue marks ({marks})",
            ep.ce_acks
        );
    }

    #[test]
    fn non_ecn_flows_see_identical_runs_when_marking_is_enabled() {
        // ECN enabled on the hop but the flow never negotiates it: every
        // observable outcome must match the marking-off run bit for bit.
        let run = |ecn: EcnMarking| {
            let mut cfg = base_config(12e6, 8.0);
            cfg.link_mut().ecn = ecn;
            cfg.seed = 17;
            let mut net = Network::new(cfg);
            net.add_flow(
                FlowConfig::primary("plain", Time::from_millis(30)),
                Box::new(FixedWindow::new(150)),
            );
            net.run();
            let marks = net.recorder().hop_marked_packets[0];
            (
                net.total_delivered_bytes(),
                net.total_enqueued_bytes(),
                net.events_processed(),
                marks,
            )
        };
        let off = run(EcnMarking::None);
        let on = run(EcnMarking::Step { threshold_s: 0.001 });
        assert_eq!(off.3, 0);
        assert_eq!(on.3, 0, "NotEct packets must never be marked");
        assert_eq!(off, on);
    }

    #[test]
    fn flows_start_at_their_configured_times() {
        let mut net = Network::new(base_config(96e6, 10.0));
        let h = net.add_flow(
            FlowConfig::primary("late", Time::from_millis(20))
                .starting_at(Time::from_secs_f64(5.0)),
            Box::new(PacedCbr::new(10e6)),
        );
        net.run();
        let (rec, _) = net.finish();
        let slot = rec.monitored_slot(h.0).unwrap();
        let before = rec.throughput_mbps[slot].mean_in_range(0.0, 4.5);
        let after = rec.throughput_mbps[slot].mean_in_range(6.0, 10.0);
        assert!(before < 0.5, "no traffic before start, got {before}");
        assert!(
            (after - 10.0).abs() < 1.0,
            "traffic after start, got {after}"
        );
    }
}
