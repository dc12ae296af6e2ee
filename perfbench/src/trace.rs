//! Forwarding timers for the layer boundaries the benchmark traces.
//!
//! [`TimedEndpoint`], [`TimedCc`] and [`TimedSpawner`] wrap a
//! `FlowEndpoint`, a `CongestionControl` and a `FlowSpawner`.  Each forwards
//! every trait method — the defaulted ones too, so the wrapped program makes
//! exactly the calls it makes unwrapped — and counts and times the calls
//! that do work.  Timings go to a thread-local tally per [`Boundary`]: call
//! count, inclusive and self nanoseconds, and a log2 duration histogram.  A
//! call's self time is its inclusive time minus the inclusive time of the
//! timed calls it makes (an endpoint's `on_ack` minus its controller's
//! `on_packet_acked`).  The controller's two getters, `cwnd_packets` and
//! `pacing_rate_bps`, take a few nanoseconds — less than one clock read —
//! so they are counted but not timed, and their time stays in the caller's
//! self time.  Nothing is written anywhere but memory.
//!
//! The clock is the CPU's time-stamp counter where there is one (x86-64),
//! converted to nanoseconds with a rate measured once against
//! `Instant`, and `Instant` elsewhere.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use nimbus_core::cc::{AckEvent, CongestionEvent, LossEvent};
use nimbus_core::ccp::Report;
use nimbus_core::NimbusController;
use nimbus_core_types::Time;
use nimbus_netsim::{AckInfo, FlowConfig, FlowEndpoint, FlowSpawner, SendAction};
use nimbus_transport::{CongestionControl, Sender};

use crate::stats::{self_time, Log2Histogram};

/// Which controllers a [`TimedCc`] tallies under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcRole {
    /// Any Nimbus controller (monitored or cross).
    Nimbus,
    /// The monitored flow's controller when it is not Nimbus.
    Primary,
    /// A cross flow's non-Nimbus controller.
    Cross,
}

const CC_METHODS: usize = 7;

/// One traced call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `FlowEndpoint::on_start`.
    EpStart,
    /// `FlowEndpoint::on_ack`.
    EpAck,
    /// `FlowEndpoint::on_tick`.
    EpTick,
    /// `FlowEndpoint::poll_send`.
    EpPoll,
    /// `FlowEndpoint::on_packet_dropped`.
    EpDropped,
    /// `FlowSpawner::next_flow`.
    SpawnNext,
    /// A `CongestionControl` method, by role and method index (in trait
    /// order: `on_packet_acked`, `on_packets_lost`, `on_congestion_event`,
    /// `on_report`, `cwnd_packets`, `pacing_rate_bps`, `reinitialize`).
    Cc(CcRole, usize),
}

/// Number of distinct boundaries.
pub const BOUNDARIES: usize = 6 + 3 * CC_METHODS;

/// Method index of `on_packet_acked`.
pub const ACKED: usize = 0;
const LOST: usize = 1;
const CONGESTION: usize = 2;
const REPORT: usize = 3;
const CWND: usize = 4;
/// Method index of `pacing_rate_bps`.
pub const PACING: usize = 5;
const REINIT: usize = 6;

impl Boundary {
    /// The name of the boundary with tally index `index`, such as
    /// `endpoint.on_ack` or `cc.nimbus.on_report`.
    pub fn name_of(index: usize) -> String {
        const FIXED: [&str; 6] = [
            "endpoint.on_start",
            "endpoint.on_ack",
            "endpoint.on_tick",
            "endpoint.poll_send",
            "endpoint.on_packet_dropped",
            "spawner.next_flow",
        ];
        const ROLES: [&str; 3] = ["nimbus", "primary", "cross"];
        const METHODS: [&str; CC_METHODS] = [
            "on_packet_acked",
            "on_packets_lost",
            "on_congestion_event",
            "on_report",
            "cwnd_packets",
            "pacing_rate_bps",
            "reinitialize",
        ];
        match index.checked_sub(FIXED.len()) {
            None => FIXED[index].to_string(),
            Some(i) => format!("cc.{}.{}", ROLES[i / CC_METHODS], METHODS[i % CC_METHODS]),
        }
    }

    /// Dense index into the tally table.
    pub fn index(self) -> usize {
        match self {
            Boundary::EpStart => 0,
            Boundary::EpAck => 1,
            Boundary::EpTick => 2,
            Boundary::EpPoll => 3,
            Boundary::EpDropped => 4,
            Boundary::SpawnNext => 5,
            Boundary::Cc(role, m) => {
                let r = match role {
                    CcRole::Nimbus => 0,
                    CcRole::Primary => 1,
                    CcRole::Cross => 2,
                };
                6 + r * CC_METHODS + m
            }
        }
    }
}

/// Counters for one boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Inclusive nanoseconds.
    pub incl_ns: u64,
    /// Self nanoseconds (inclusive minus timed children).
    pub self_ns: u64,
    /// Inclusive duration histogram.
    pub hist: Log2Histogram,
}

impl Tally {
    const ZERO: Tally = Tally {
        calls: 0,
        incl_ns: 0,
        self_ns: 0,
        hist: Log2Histogram::new(),
    };

    fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.incl_ns += other.incl_ns;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// Everything the wrappers recorded since the last [`take`].
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Per-boundary tallies, indexed by [`Boundary::index`].
    pub tallies: [Tally; BOUNDARIES],
    /// Inclusive nanoseconds of every outermost timed call — the time the
    /// engine spent inside endpoints and spawners.
    pub top_level_ns: u64,
    /// Inclusive duration of each Nimbus `on_report` call, ns.
    pub report_ns: Vec<u64>,
    /// `poll_send` calls that returned `Transmit`.
    pub transmits: u64,
    /// Flows the wrapped spawners handed out.
    pub spawned: u64,
    /// Retransmissions, timeouts and scoreboard scan steps of every wrapped
    /// `Sender`, read when its wrapper is dropped.
    pub retransmits: u64,
    /// See `retransmits`.
    pub timeouts: u64,
    /// See `retransmits`.
    pub scan_steps: u64,
    /// When the last timed call returned, in [`now_ticks`] units (0: no
    /// call yet).
    pub last_exit: u64,
}

impl TraceData {
    const fn new() -> Self {
        TraceData {
            tallies: [Tally::ZERO; BOUNDARIES],
            top_level_ns: 0,
            report_ns: Vec::new(),
            transmits: 0,
            spawned: 0,
            retransmits: 0,
            timeouts: 0,
            scan_steps: 0,
            last_exit: 0,
        }
    }

    /// The tally of one boundary.
    pub fn tally(&self, b: Boundary) -> &Tally {
        &self.tallies[b.index()]
    }

    /// Sum of the tallies of every method of one controller role.
    pub fn cc_total(&self, role: CcRole) -> Tally {
        let mut t = Tally::default();
        for m in 0..CC_METHODS {
            t.add(self.tally(Boundary::Cc(role, m)));
        }
        t
    }

    /// Sum of the tallies of every endpoint boundary.
    pub fn endpoint_total(&self) -> Tally {
        let mut t = Tally::default();
        for b in [
            Boundary::EpStart,
            Boundary::EpAck,
            Boundary::EpTick,
            Boundary::EpPoll,
            Boundary::EpDropped,
        ] {
            t.add(self.tally(b));
        }
        t
    }

    /// Fold another recording into this one (`last_exit` keeps the later).
    pub fn merge(&mut self, other: &TraceData) {
        for (a, b) in self.tallies.iter_mut().zip(&other.tallies) {
            a.add(b);
        }
        self.top_level_ns += other.top_level_ns;
        self.report_ns.extend_from_slice(&other.report_ns);
        self.transmits += other.transmits;
        self.spawned += other.spawned;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.scan_steps += other.scan_steps;
        self.last_exit = self.last_exit.max(other.last_exit);
    }
}

impl Default for Tally {
    fn default() -> Self {
        Tally::ZERO
    }
}

impl Default for TraceData {
    fn default() -> Self {
        Self::new()
    }
}

/// Deepest nesting of timed calls (endpoint → controller is two).
const MAX_DEPTH: usize = 8;

struct Tracer {
    data: TraceData,
    /// Child-time accumulators of the open spans; `[0]` collects top-level
    /// calls.
    child_ns: [u64; MAX_DEPTH],
    depth: usize,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            data: TraceData::new(),
            child_ns: [0; MAX_DEPTH],
            depth: 0,
        })
    };
}

/// Return everything recorded on this thread so far and start afresh.
pub fn take() -> TraceData {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.child_ns = [0; MAX_DEPTH];
        t.depth = 0;
        std::mem::take(&mut t.data)
    })
}

/// The current clock reading, in ticks.
#[inline]
pub fn now_ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per clock tick, measured on first use.
pub fn ns_per_tick() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        if cfg!(not(target_arch = "x86_64")) {
            return 1.0;
        }
        let (t0, k0) = (Instant::now(), now_ticks());
        std::thread::sleep(Duration::from_millis(20));
        let (t1, k1) = (Instant::now(), now_ticks());
        t1.duration_since(t0).as_nanos() as f64 / k1.wrapping_sub(k0).max(1) as f64
    })
}

/// Count one call of boundary `b` without timing it.
#[inline]
fn counted<R>(b: Boundary, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().data.tallies[b.index()].calls += 1);
    f()
}

/// Time `f` as one call of boundary `b`.
#[inline]
fn timed<R>(b: Boundary, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.depth += 1;
        let d = t.depth.min(MAX_DEPTH - 1);
        t.child_ns[d] = 0;
    });
    let start = now_ticks();
    let r = f();
    let end = now_ticks();
    let incl = (end.wrapping_sub(start) as f64 * ns_per_tick()) as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let d = t.depth.min(MAX_DEPTH - 1);
        let child = t.child_ns[d];
        t.depth -= 1;
        let parent = t.depth.min(MAX_DEPTH - 1);
        t.child_ns[parent] += incl;
        if parent == 0 {
            t.data.top_level_ns += incl;
        }
        let tally = &mut t.data.tallies[b.index()];
        tally.calls += 1;
        tally.incl_ns += incl;
        tally.self_ns += self_time(incl, child);
        tally.hist.record(incl);
        if b == Boundary::Cc(CcRole::Nimbus, REPORT) {
            t.data.report_ns.push(incl);
        }
        t.data.last_exit = end;
    });
    r
}

/// A timed `CongestionControl`.
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
    role: CcRole,
}

impl TimedCc {
    /// Wrap `inner`; a Nimbus controller is tallied as [`CcRole::Nimbus`]
    /// whatever `role` says.
    pub fn wrap(inner: Box<dyn CongestionControl>, role: CcRole) -> Box<dyn CongestionControl> {
        let is_nimbus = inner
            .as_any()
            .is_some_and(|a| a.downcast_ref::<NimbusController>().is_some());
        let role = if is_nimbus { CcRole::Nimbus } else { role };
        Box::new(TimedCc { inner, role })
    }

    fn b(&self, method: usize) -> Boundary {
        Boundary::Cc(self.role, method)
    }
}

impl CongestionControl for TimedCc {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        timed(self.b(ACKED), || self.inner.on_packet_acked(ack))
    }

    fn on_packets_lost(&mut self, loss: &LossEvent) {
        timed(self.b(LOST), || self.inner.on_packets_lost(loss))
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        timed(self.b(CONGESTION), || self.inner.on_congestion_event(event))
    }

    fn on_report(&mut self, report: &Report) {
        timed(self.b(REPORT), || self.inner.on_report(report))
    }

    fn cwnd_packets(&self) -> f64 {
        counted(self.b(CWND), || self.inner.cwnd_packets())
    }

    fn pacing_rate_bps(&self, now: Time) -> Option<f64> {
        counted(self.b(PACING), || self.inner.pacing_rate_bps(now))
    }

    fn reinitialize(&mut self, rate_bps: f64, rtt_s: f64, mss: u32) {
        timed(self.b(REINIT), || {
            self.inner.reinitialize(rate_bps, rtt_s, mss)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// A timed `FlowEndpoint`.  When dropped it reads the wrapped `Sender`'s
/// loss-recovery counters into the trace.
pub struct TimedEndpoint {
    inner: Box<dyn FlowEndpoint>,
}

impl TimedEndpoint {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn FlowEndpoint>) -> Box<dyn FlowEndpoint> {
        Box::new(TimedEndpoint { inner })
    }
}

impl FlowEndpoint for TimedEndpoint {
    fn on_start(&mut self, now: Time) {
        timed(Boundary::EpStart, || self.inner.on_start(now))
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        timed(Boundary::EpAck, || self.inner.on_ack(ack))
    }

    fn on_tick(&mut self, now: Time) {
        timed(Boundary::EpTick, || self.inner.on_tick(now))
    }

    fn poll_send(&mut self, now: Time) -> SendAction {
        let action = timed(Boundary::EpPoll, || self.inner.poll_send(now));
        if matches!(action, SendAction::Transmit { .. }) {
            TRACER.with(|t| t.borrow_mut().data.transmits += 1);
        }
        action
    }

    fn on_packet_dropped(&mut self, seq: u64, now: Time) {
        timed(Boundary::EpDropped, || {
            self.inner.on_packet_dropped(seq, now)
        })
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

impl Drop for TimedEndpoint {
    fn drop(&mut self) {
        let Some(sender) = self.inner.as_any().and_then(|a| a.downcast_ref::<Sender>()) else {
            return;
        };
        let (rtx, rto, scan) = (
            sender.packets_retransmitted(),
            sender.timeouts(),
            sender.scoreboard_scan_steps(),
        );
        // A wrapper dropped during thread teardown has nowhere to report.
        let _ = TRACER.try_with(|t| {
            let mut t = t.borrow_mut();
            t.data.retransmits += rtx;
            t.data.timeouts += rto;
            t.data.scan_steps += scan;
        });
    }
}

/// A timed `FlowSpawner`; every endpoint it hands out is wrapped in a
/// [`TimedEndpoint`].
pub struct TimedSpawner {
    inner: Box<dyn FlowSpawner>,
}

impl TimedSpawner {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn FlowSpawner>) -> Box<dyn FlowSpawner> {
        Box::new(TimedSpawner { inner })
    }
}

impl FlowSpawner for TimedSpawner {
    fn next_flow(&mut self) -> Option<(Time, FlowConfig, Box<dyn FlowEndpoint>)> {
        let next = timed(Boundary::SpawnNext, || self.inner.next_flow());
        if next.is_some() {
            TRACER.with(|t| t.borrow_mut().data.spawned += 1);
        }
        next.map(|(at, cfg, ep)| (at, cfg, TimedEndpoint::wrap(ep)))
    }
}
