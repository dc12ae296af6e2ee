//! `core_embed`: nimbus-core alone, driven by a mock host loop the way
//! `examples/embed_core.rs` drives it — no simulator anywhere.
//!
//! One long-lived connection on a 48 Mbit/s fluid bottleneck gets a
//! 10 ms report cadence.  The cross traffic cycles between inelastic CBR
//! phases and an elastic, ACK-clocked competitor; the CBR rates come from
//! the seed, and each phase's ground truth (delay mode under CBR,
//! competitive mode against the competitor) is known.

use std::collections::VecDeque;
use std::time::Instant;

use nimbus_core::cc::{AckEvent, CongestionControl};
use nimbus_core::ccp::Report;
use nimbus_core::{Mode, NimbusConfig, NimbusController};
use nimbus_core_types::Time;

use crate::alloc::HEAP;
use crate::cells::splitmix64;
use crate::trace::{CcRole, TimedCc};

/// Bottleneck rate µ, known to the controller.
pub const MU: f64 = 48e6;
/// Report interval.
pub const TICK_S: f64 = 0.01;
/// Propagation RTT of the mock path.
const BASE_RTT_S: f64 = 0.05;
const MSS: u32 = 1500;
/// Length of each cross-traffic phase, seconds.
pub const PHASE_S: f64 = 30.0;
/// Seconds after a phase starts before its intervals count as steady state
/// (the detector's FFT window plus the switch-back hysteresis).
pub const SETTLE_S: f64 = 10.0;

/// One cross-traffic phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Phase start, seconds into the connection.
    pub start_s: f64,
    /// Phase end, seconds.
    pub end_s: f64,
    /// `Some(rate)`: inelastic CBR at `rate` bit/s; `None`: the elastic
    /// competitor.
    pub cbr_bps: Option<f64>,
}

impl Phase {
    /// The mode Nimbus should be in during this phase's steady state.
    pub fn expected_mode(&self) -> Mode {
        match self.cbr_bps {
            Some(_) => Mode::Delay,
            None => Mode::Competitive,
        }
    }
}

/// Alternating 30 s CBR and elastic phases covering `conn_s` seconds; the
/// seed draws each CBR phase's rate, 20–30% of µ.
pub fn phases(seed: u64, conn_s: f64) -> Vec<Phase> {
    let mut state = splitmix64(seed ^ 0x00C0_4E00);
    let mut uniform = move || {
        state = splitmix64(state);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut elastic = false;
    while t < conn_s {
        let end = (t + PHASE_S).min(conn_s);
        let cbr_bps = (!elastic).then(|| (0.2 + 0.1 * uniform()) * MU);
        out.push(Phase {
            start_s: t,
            end_s: end,
            cbr_bps,
        });
        t = end;
        elastic = !elastic;
    }
    out
}

/// The mock bottleneck: one fluid FIFO shared with the scripted cross
/// traffic (the same model as `examples/embed_core.rs`).
struct MockLink {
    backlog_bits: f64,
    send_history: VecDeque<f64>,
}

impl MockLink {
    fn new() -> Self {
        MockLink {
            backlog_bits: 0.0,
            send_history: VecDeque::with_capacity(1001),
        }
    }

    fn cross_rate_bps(&self, phase: &Phase) -> f64 {
        match phase.cbr_bps {
            Some(rate) => rate,
            None => {
                // An ACK-clocked competitor takes what we left unused one
                // RTT ago, so our pulses echo back in ẑ.
                let lag = (BASE_RTT_S / TICK_S) as usize;
                let n = self.send_history.len();
                let lagged = if n > lag {
                    self.send_history[n - 1 - lag]
                } else {
                    0.0
                };
                (0.95 * MU - lagged).clamp(0.0, MU)
            }
        }
    }

    /// One tick through the bottleneck: the flow's receive rate and RTT.
    fn transfer(&mut self, phase: &Phase, send_bps: f64) -> (f64, f64) {
        self.send_history.push_back(send_bps);
        if self.send_history.len() > 1000 {
            self.send_history.pop_front();
        }
        let total = send_bps + self.cross_rate_bps(phase);
        let served = if self.backlog_bits > 0.0 || total > MU {
            MU.min(total + self.backlog_bits / TICK_S)
        } else {
            total
        };
        let recv = if total > 0.0 {
            served * send_bps / total
        } else {
            0.0
        };
        self.backlog_bits = (self.backlog_bits + (total - served) * TICK_S).clamp(0.0, 0.2 * MU);
        (recv, BASE_RTT_S + self.backlog_bits / MU)
    }

    fn queue_delay_s(&self) -> f64 {
        self.backlog_bits / MU
    }
}

/// What one connection produced.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Median controller construction time, seconds.
    pub setup_s: f64,
    /// Wall time of the host loop, seconds, as the median time of its
    /// [`SEGMENT_TICKS`]-report segments times their number: a burst of
    /// contention from other programs shorter than the connection drops
    /// out.
    pub loop_s: f64,
    /// Duration of every `on_report` call, ns.
    pub report_ns: Vec<u64>,
    /// Mean receive rate over the steady-state intervals, Mbit/s.
    pub tput_mbps: f64,
    /// Median queueing delay over the steady-state intervals, ms.
    pub qdelay_ms: f64,
    /// Share of steady-state intervals whose mode matched the phase.
    pub detect_accuracy: f64,
    /// Per phase: whether most of its steady-state intervals matched.
    pub phase_ok: Vec<bool>,
    /// Heap still held by the controller when the connection ends, bytes.
    pub retained_bytes: u64,
    /// Peak live heap during the connection above the live heap before it,
    /// bytes.
    pub peak_bytes: u64,
    /// Detector verdicts the controller holds at the end.
    pub verdicts_held: usize,
    /// Mode switches over the connection.
    pub mode_switches: usize,
    /// Allocations made during the host loop.
    pub allocs: u64,
    /// Bytes allocated during the host loop.
    pub alloc_bytes: u64,
}

/// Reports per timed segment of the host loop (10 s of connection time).
pub const SEGMENT_TICKS: usize = 1000;

/// Controllers built (and timed) per connection for the setup median.
const SETUP_REPS: usize = 31;

fn build_controller() -> NimbusController {
    let mut cfg = NimbusConfig::default_for_link(MU);
    cfg.mss = MSS;
    NimbusController::new(cfg)
}

/// Run one connection of `conn_s` seconds over the seed's phases.
/// `traced` wraps the controller in the forwarding timer.
pub fn run_connection(seed: u64, conn_s: f64, traced: bool) -> Connection {
    let phases = phases(seed, conn_s);
    let ticks = (conn_s / TICK_S).round() as usize;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let ctl = build_controller();
        setup.push(t0.elapsed().as_secs_f64());
        drop(ctl);
    }
    let mut report_ns: Vec<u64> = Vec::with_capacity(ticks);
    let mut steady_qdelay_s: Vec<f64> = Vec::with_capacity(ticks);
    let mut per_phase = vec![(0u64, 0u64); phases.len()];
    let mut link = MockLink::new();
    HEAP.reset_peak();
    let before = HEAP.stats();
    let mut ctl: Box<dyn CongestionControl> = Box::new(build_controller());
    if traced {
        ctl = TimedCc::wrap(ctl, CcRole::Nimbus);
    }
    let mut tput_sum = 0.0;
    let mut min_rtt_s = BASE_RTT_S;
    let mut phase_idx = 0;
    let mut segment_s = Vec::with_capacity(ticks / SEGMENT_TICKS + 1);
    let mut segment_start = Instant::now();
    for tick in 1..=ticks {
        let t_s = tick as f64 * TICK_S;
        while phase_idx + 1 < phases.len() && t_s >= phases[phase_idx].end_s {
            phase_idx += 1;
        }
        let phase = phases[phase_idx];
        let now = Time::from_secs_f64(t_s);
        let send_bps = ctl
            .pacing_rate_bps(now)
            .expect("nimbus is rate-based and always paces");
        let (recv_bps, rtt_s) = link.transfer(&phase, send_bps);
        min_rtt_s = min_rtt_s.min(rtt_s);
        let acked_bytes = (recv_bps * TICK_S / 8.0) as u64;
        ctl.on_packet_acked(&AckEvent {
            now,
            newly_acked_packets: acked_bytes / MSS as u64,
            newly_acked_bytes: acked_bytes,
            rtt: Time::from_secs_f64(rtt_s),
            min_rtt: Time::from_secs_f64(min_rtt_s),
            in_flight_packets: ctl.cwnd_packets() as u64,
            mss: MSS,
        });
        let report = Report {
            now_s: t_s,
            send_rate_bps: send_bps,
            recv_rate_bps: recv_bps,
            acked_bytes,
            lost_packets: 0,
            rtt_s,
            min_rtt_s,
            window_acks: (acked_bytes / MSS as u64) as usize,
            marked_packets: 0,
            marked_bytes: 0,
        };
        let t0 = Instant::now();
        ctl.on_report(&report);
        report_ns.push(t0.elapsed().as_nanos() as u64);
        if t_s - phase.start_s >= SETTLE_S {
            let nimbus = nimbus(ctl.as_ref());
            let hit = nimbus.mode() == phase.expected_mode();
            per_phase[phase_idx].0 += u64::from(hit);
            per_phase[phase_idx].1 += 1;
            tput_sum += recv_bps;
            steady_qdelay_s.push(link.queue_delay_s());
        }
        if tick % SEGMENT_TICKS == 0 || tick == ticks {
            let now = Instant::now();
            segment_s.push(now.duration_since(segment_start).as_secs_f64());
            segment_start = now;
        }
    }
    let loop_s = crate::stats::median(&segment_s) * ticks as f64 / SEGMENT_TICKS as f64;
    let after = HEAP.stats();
    let nimbus = nimbus(ctl.as_ref());
    let verdicts_held = nimbus.detector().verdicts().len();
    let mode_switches = nimbus.mode_log().len();
    let (hits, n) = per_phase
        .iter()
        .fold((0, 0), |(h, n), &(ph, pn)| (h + ph, n + pn));
    Connection {
        setup_s: crate::stats::median(&setup),
        loop_s,
        report_ns,
        tput_mbps: tput_sum / steady_qdelay_s.len().max(1) as f64 / 1e6,
        qdelay_ms: crate::stats::median(&steady_qdelay_s) * 1e3,
        detect_accuracy: hits as f64 / n.max(1) as f64,
        phase_ok: per_phase
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|&(h, n)| 2 * h > n)
            .collect(),
        retained_bytes: after.live.saturating_sub(before.live),
        peak_bytes: after.peak - before.live,
        verdicts_held,
        mode_switches,
        allocs: after.count - before.count,
        alloc_bytes: after.total - before.total,
    }
}

fn nimbus(cc: &dyn CongestionControl) -> &NimbusController {
    cc.as_any()
        .and_then(|a| a.downcast_ref::<NimbusController>())
        .expect("the embedded controller is Nimbus")
}
