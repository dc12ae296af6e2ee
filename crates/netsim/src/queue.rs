//! Bottleneck queue disciplines.
//!
//! The paper's robustness evaluation (§8.2, Appendix E) covers drop-tail
//! buffers from 0.25 to 4 BDP and the PIE AQM at two target delays; RED and
//! CoDel are included as additional AQMs for the extended robustness sweeps.
//!
//! All disciplines share the [`QueueDiscipline`] trait: the engine calls
//! [`QueueDiscipline::enqueue`] when a packet arrives at the bottleneck and
//! [`QueueDiscipline::dequeue`] when the link is ready to transmit the next
//! packet.  A discipline may drop on enqueue (drop-tail, RED, PIE) or on
//! dequeue (CoDel).
//!
//! Every discipline also supports ECN marking ([`EcnMarking`]): with a
//! marking profile installed, congestion signals aimed at ECN-capable (ECT)
//! packets become CE marks instead of drops — classic RFC 3168 semantics
//! under [`EcnMarking::Classic`], shallow L4S-style step marking under
//! [`EcnMarking::Step`].  Non-ECT traffic and [`EcnMarking::None`] queues
//! behave byte-for-byte as before, including the AQMs' RNG draw sequences.

use crate::packet::{EcnCodepoint, Packet};
use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How (and whether) a queue marks ECN-capable packets instead of dropping
/// them.
///
/// Marking only ever applies to [`EcnCodepoint::Ect`] packets; non-ECT
/// traffic always takes the original drop path, and physical buffer overflow
/// always drops regardless of codepoint.  With marking enabled the AQMs
/// (PIE, RED, CoDel) reuse the *same* drop decision — including the same RNG
/// draw — and merely convert it to a mark for ECT packets, so enabling ECN
/// is a provable no-op for every non-ECT flow sharing the queue.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum EcnMarking {
    /// No marking: every congestion signal is a drop (the default).
    #[default]
    None,
    /// Classic ECN (RFC 3168): wherever the discipline would drop by AQM
    /// decision, ECT packets are CE-marked and delivered instead.  On a
    /// plain drop-tail queue — which has no AQM decision short of overflow —
    /// this marks ECT packets once the backlog exceeds half the buffer.
    Classic,
    /// L4S-style step marking (RFC 9331): ECT packets are CE-marked as soon
    /// as the queue's (projected or measured) sojourn time meets
    /// `threshold_s` — typically ~1 ms, far below any drop threshold — while
    /// the drop logic stays untouched.  AQM drop decisions on ECT packets
    /// also convert to marks, as under [`EcnMarking::Classic`].
    Step {
        /// Sojourn-time marking threshold, seconds.
        threshold_s: f64,
    },
}

impl EcnMarking {
    /// Whether any marking is enabled.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, EcnMarking::None)
    }

    /// The step-marking threshold, if this is the L4S profile.
    pub fn step_threshold_s(&self) -> Option<f64> {
        match self {
            EcnMarking::Step { threshold_s } => Some(*threshold_s),
            _ => None,
        }
    }
}

/// Byte capacity of a buffer specified as `buffer_secs` of line rate at
/// `rate_bps` ("100 ms of buffering"), floored at one MSS so a tiny rate or
/// buffer still admits a packet.  The single sizing rule shared by initial
/// queue construction and the engine's rate-transition re-sizing.
pub fn delay_capacity_bytes(rate_bps: f64, buffer_secs: f64) -> u64 {
    (rate_bps * buffer_secs / 8.0).max(1500.0) as u64
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// The packet was accepted into the queue.
    Accepted,
    /// The packet was dropped by the discipline.
    Dropped,
}

/// A bottleneck queue discipline.
pub trait QueueDiscipline: std::fmt::Debug + Send {
    /// Offer a packet to the queue at time `now`.
    fn enqueue(&mut self, pkt: Packet, now: Time) -> EnqueueResult;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, now: Time) -> Option<Packet>;

    /// Current queue occupancy in bytes.
    fn len_bytes(&self) -> u64;

    /// Current queue occupancy in packets.
    fn len_packets(&self) -> usize;

    /// Total packets dropped by the discipline so far.
    fn drops(&self) -> u64;

    /// The configured capacity in bytes (for reporting).
    fn capacity_bytes(&self) -> u64;

    /// Re-size the physical buffer (used when a delay-sized buffer follows a
    /// time-varying link rate).  Packets already queued beyond a shrunken
    /// capacity are kept; only new enqueues see the new limit.
    fn set_capacity_bytes(&mut self, bytes: u64);

    /// Inform the discipline of a new link drain rate (bits/s).  AQMs that
    /// model the departure rate (PIE) and step-marking projections use it;
    /// the default is a no-op.
    fn set_drain_rate_bps(&mut self, _rate_bps: f64) {}

    /// Install an ECN marking profile.  The default discards it (no
    /// marking); every built-in discipline stores and honours it.
    fn set_ecn_marking(&mut self, _marking: EcnMarking) {}

    /// Total ECT packets CE-marked by the discipline so far.
    fn marks(&self) -> u64 {
        0
    }

    /// Bytes currently queued belonging to the given flow (used to measure
    /// the "self-inflicted delay" of Fig. 3).
    fn bytes_for_flow(&self, flow: crate::packet::FlowId) -> u64;
}

/// Plain FIFO drop-tail queue with a byte capacity.
#[derive(Debug)]
pub struct DropTailQueue {
    queue: VecDeque<Packet>,
    capacity_bytes: u64,
    bytes: u64,
    drops: u64,
    ecn: EcnMarking,
    drain_rate_bps: f64,
    marks: u64,
}

impl DropTailQueue {
    /// Create a drop-tail queue holding at most `capacity_bytes` bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        DropTailQueue {
            queue: VecDeque::new(),
            capacity_bytes,
            bytes: 0,
            drops: 0,
            ecn: EcnMarking::None,
            drain_rate_bps: 0.0,
            marks: 0,
        }
    }

    /// Create a drop-tail queue sized to `buffer_secs` of data at `rate_bps`
    /// (the "100 ms of buffering" style of specification used in the paper).
    pub fn with_delay_capacity(rate_bps: f64, buffer_secs: f64) -> Self {
        Self::new(delay_capacity_bytes(rate_bps, buffer_secs))
    }

    /// CE-mark `pkt` if it is ECT and the backlog (including `pkt` itself)
    /// crosses the marking threshold: half the buffer under
    /// [`EcnMarking::Classic`], the projected sojourn under
    /// [`EcnMarking::Step`] (which needs a known drain rate).
    fn maybe_mark(&mut self, pkt: &mut Packet) {
        if pkt.ecn != EcnCodepoint::Ect {
            return;
        }
        let backlog = self.bytes + pkt.size_bytes as u64;
        let mark = match self.ecn {
            EcnMarking::None => false,
            EcnMarking::Classic => 2 * backlog >= self.capacity_bytes,
            EcnMarking::Step { threshold_s } => {
                self.drain_rate_bps > 0.0
                    && (backlog * 8) as f64 / self.drain_rate_bps >= threshold_s
            }
        };
        if mark {
            pkt.ecn = EcnCodepoint::Ce;
            self.marks += 1;
        }
    }
}

impl QueueDiscipline for DropTailQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueResult {
        if self.bytes + pkt.size_bytes as u64 > self.capacity_bytes {
            self.drops += 1;
            return EnqueueResult::Dropped;
        }
        self.maybe_mark(&mut pkt);
        pkt.enqueued_at = now;
        self.bytes += pkt.size_bytes as u64;
        self.queue.push_back(pkt);
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size_bytes as u64;
        Some(pkt)
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn set_capacity_bytes(&mut self, bytes: u64) {
        self.capacity_bytes = bytes.max(1500);
    }

    fn set_drain_rate_bps(&mut self, rate_bps: f64) {
        self.drain_rate_bps = rate_bps.max(0.0);
    }

    fn set_ecn_marking(&mut self, marking: EcnMarking) {
        self.ecn = marking;
    }

    fn marks(&self) -> u64 {
        self.marks
    }

    fn bytes_for_flow(&self, flow: crate::packet::FlowId) -> u64 {
        self.queue
            .iter()
            .filter(|p| p.flow == flow)
            .map(|p| p.size_bytes as u64)
            .sum()
    }
}

/// PIE (Proportional Integral controller Enhanced) AQM, RFC 8033 (simplified).
///
/// Drop probability is updated every `t_update` based on the deviation of the
/// estimated queueing delay from `target_delay` and on its trend.
#[derive(Debug)]
pub struct PieQueue {
    inner: DropTailQueue,
    /// Target queueing delay.
    target_delay: Time,
    /// Update interval for the drop probability.
    t_update: Time,
    /// Current drop probability.
    drop_prob: f64,
    /// Queue delay estimate at the last update.
    old_delay: Time,
    last_update: Time,
    /// Estimated departure rate in bytes/sec (configured; the bottleneck rate).
    depart_rate_bytes_per_sec: f64,
    rng: StdRng,
    drops: u64,
    /// α and β gains from RFC 8033 (per-second units).
    alpha: f64,
    beta: f64,
    ecn: EcnMarking,
    marks: u64,
}

impl PieQueue {
    /// Create a PIE queue in front of a link of `rate_bps`, with a physical
    /// buffer of `capacity_bytes` and the given delay target.
    pub fn new(capacity_bytes: u64, rate_bps: f64, target_delay: Time, seed: u64) -> Self {
        PieQueue {
            inner: DropTailQueue::new(capacity_bytes),
            target_delay,
            t_update: Time::from_millis(15),
            drop_prob: 0.0,
            old_delay: Time::ZERO,
            last_update: Time::ZERO,
            depart_rate_bytes_per_sec: rate_bps / 8.0,
            rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            drops: 0,
            alpha: 0.125,
            beta: 1.25,
            ecn: EcnMarking::None,
            marks: 0,
        }
    }

    /// Current estimated queueing delay (Little's law: backlog / departure rate).
    fn current_delay(&self) -> Time {
        Time::from_secs_f64(self.inner.len_bytes() as f64 / self.depart_rate_bytes_per_sec)
    }

    fn maybe_update(&mut self, now: Time) {
        while now.saturating_sub(self.last_update) >= self.t_update {
            self.last_update += self.t_update;
            let cur = self.current_delay();
            let p_delta = self.alpha * (cur.as_secs_f64() - self.target_delay.as_secs_f64())
                + self.beta * (cur.as_secs_f64() - self.old_delay.as_secs_f64());
            // RFC 8033 scales the adjustment when drop_prob is small to avoid
            // oscillation around zero.
            let scale = if self.drop_prob < 0.000001 {
                0.0009765625 // 1/2048
            } else if self.drop_prob < 0.00001 {
                0.001953125
            } else if self.drop_prob < 0.0001 {
                0.00390625
            } else if self.drop_prob < 0.001 {
                0.0078125
            } else if self.drop_prob < 0.01 {
                0.03125
            } else if self.drop_prob < 0.1 {
                0.125
            } else {
                1.0
            };
            self.drop_prob = (self.drop_prob + p_delta * scale).clamp(0.0, 1.0);
            // Decay the probability when the queue is idle.
            if cur == Time::ZERO && self.old_delay == Time::ZERO {
                self.drop_prob *= 0.98;
            }
            self.old_delay = cur;
        }
    }
}

impl QueueDiscipline for PieQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueResult {
        self.maybe_update(now);
        // Don't drop when the queue is nearly empty (burst allowance).
        let delay = self.current_delay();
        let protect = delay < Time::from_millis_f64(self.target_delay.as_millis_f64() / 2.0)
            && self.inner.len_packets() < 3;
        // The probabilistic decision (and its RNG draw) is identical whether
        // or not marking is enabled; only what happens to an ECT packet that
        // loses the draw changes (CE-mark and keep vs drop).
        let mut marked = false;
        if !protect && self.drop_prob > 0.0 && self.rng.gen::<f64>() < self.drop_prob {
            if self.ecn.is_enabled() && pkt.ecn == EcnCodepoint::Ect {
                pkt.ecn = EcnCodepoint::Ce;
                marked = true;
            } else {
                self.drops += 1;
                return EnqueueResult::Dropped;
            }
        }
        // The L4S step profile additionally marks on projected sojourn time,
        // well below the drop-probability regime.
        if let Some(threshold_s) = self.ecn.step_threshold_s() {
            if pkt.ecn == EcnCodepoint::Ect
                && (self.inner.len_bytes() + pkt.size_bytes as u64) as f64
                    / self.depart_rate_bytes_per_sec
                    >= threshold_s
            {
                pkt.ecn = EcnCodepoint::Ce;
                marked = true;
            }
        }
        // The mark is only counted if the physical buffer accepts the packet:
        // a tail-dropped packet is a drop, never a mark (marked XOR dropped).
        match self.inner.enqueue(pkt, now) {
            EnqueueResult::Accepted => {
                if marked {
                    self.marks += 1;
                }
                EnqueueResult::Accepted
            }
            EnqueueResult::Dropped => {
                self.drops += 1;
                EnqueueResult::Dropped
            }
        }
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        self.maybe_update(now);
        self.inner.dequeue(now)
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn set_capacity_bytes(&mut self, bytes: u64) {
        self.inner.set_capacity_bytes(bytes);
    }

    fn set_drain_rate_bps(&mut self, rate_bps: f64) {
        self.depart_rate_bytes_per_sec = (rate_bps / 8.0).max(1.0);
    }

    fn set_ecn_marking(&mut self, marking: EcnMarking) {
        self.ecn = marking;
    }

    fn marks(&self) -> u64 {
        self.marks
    }

    fn bytes_for_flow(&self, flow: crate::packet::FlowId) -> u64 {
        self.inner.bytes_for_flow(flow)
    }
}

/// Random Early Detection with EWMA-averaged queue length.
#[derive(Debug)]
pub struct RedQueue {
    inner: DropTailQueue,
    min_thresh_bytes: f64,
    max_thresh_bytes: f64,
    max_p: f64,
    weight: f64,
    avg_bytes: f64,
    rng: StdRng,
    drops: u64,
    drain_rate_bps: f64,
    ecn: EcnMarking,
    marks: u64,
}

impl RedQueue {
    /// Create a RED queue.  Thresholds default to 25% / 75% of capacity with
    /// `max_p = 0.1` and queue-weight 0.002 (classic Floyd/Jacobson values).
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        RedQueue {
            inner: DropTailQueue::new(capacity_bytes),
            min_thresh_bytes: capacity_bytes as f64 * 0.25,
            max_thresh_bytes: capacity_bytes as f64 * 0.75,
            max_p: 0.1,
            weight: 0.002,
            avg_bytes: 0.0,
            rng: StdRng::seed_from_u64(seed ^ 0x6a09e667f3bcc908),
            drops: 0,
            drain_rate_bps: 0.0,
            ecn: EcnMarking::None,
            marks: 0,
        }
    }
}

impl QueueDiscipline for RedQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueResult {
        self.avg_bytes =
            (1.0 - self.weight) * self.avg_bytes + self.weight * self.inner.len_bytes() as f64;
        // The early-detection decision (and its RNG draw) is computed exactly
        // as without ECN; marking only changes its consequence for ECT packets.
        let drop = if self.avg_bytes >= self.max_thresh_bytes {
            true
        } else if self.avg_bytes > self.min_thresh_bytes {
            let p = self.max_p * (self.avg_bytes - self.min_thresh_bytes)
                / (self.max_thresh_bytes - self.min_thresh_bytes);
            self.rng.gen::<f64>() < p
        } else {
            false
        };
        let mut marked = false;
        if drop {
            if self.ecn.is_enabled() && pkt.ecn == EcnCodepoint::Ect {
                pkt.ecn = EcnCodepoint::Ce;
                marked = true;
            } else {
                self.drops += 1;
                return EnqueueResult::Dropped;
            }
        }
        if let Some(threshold_s) = self.ecn.step_threshold_s() {
            if pkt.ecn == EcnCodepoint::Ect
                && self.drain_rate_bps > 0.0
                && ((self.inner.len_bytes() + pkt.size_bytes as u64) * 8) as f64
                    / self.drain_rate_bps
                    >= threshold_s
            {
                pkt.ecn = EcnCodepoint::Ce;
                marked = true;
            }
        }
        // Count the mark only once the physical buffer accepts the packet: a
        // tail-dropped packet is a drop, never a mark (marked XOR dropped).
        match self.inner.enqueue(pkt, now) {
            EnqueueResult::Accepted => {
                if marked {
                    self.marks += 1;
                }
                EnqueueResult::Accepted
            }
            EnqueueResult::Dropped => {
                self.drops += 1;
                EnqueueResult::Dropped
            }
        }
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        self.inner.dequeue(now)
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn set_capacity_bytes(&mut self, bytes: u64) {
        self.inner.set_capacity_bytes(bytes);
        self.min_thresh_bytes = self.inner.capacity_bytes() as f64 * 0.25;
        self.max_thresh_bytes = self.inner.capacity_bytes() as f64 * 0.75;
    }

    fn set_drain_rate_bps(&mut self, rate_bps: f64) {
        self.drain_rate_bps = rate_bps.max(0.0);
    }

    fn set_ecn_marking(&mut self, marking: EcnMarking) {
        self.ecn = marking;
    }

    fn marks(&self) -> u64 {
        self.marks
    }

    fn bytes_for_flow(&self, flow: crate::packet::FlowId) -> u64 {
        self.inner.bytes_for_flow(flow)
    }
}

/// CoDel (Controlled Delay) AQM: drops at dequeue when the packet sojourn
/// time has stayed above `target` for at least `interval`.
#[derive(Debug)]
pub struct CoDelQueue {
    inner: DropTailQueue,
    target: Time,
    interval: Time,
    first_above_time: Option<Time>,
    dropping: bool,
    drop_next: Time,
    drop_count: u64,
    drops: u64,
    ecn: EcnMarking,
    marks: u64,
}

impl CoDelQueue {
    /// Create a CoDel queue with the standard 5 ms target / 100 ms interval.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_params(capacity_bytes, Time::from_millis(5), Time::from_millis(100))
    }

    /// Create a CoDel queue with explicit target and interval.
    pub fn with_params(capacity_bytes: u64, target: Time, interval: Time) -> Self {
        CoDelQueue {
            inner: DropTailQueue::new(capacity_bytes),
            target,
            interval,
            first_above_time: None,
            dropping: false,
            drop_next: Time::ZERO,
            drop_count: 0,
            drops: 0,
            ecn: EcnMarking::None,
            marks: 0,
        }
    }

    /// Whether the control law's next "drop" should instead CE-mark `pkt`
    /// and deliver it (RFC 8289 §3: with ECN, mark rather than drop).  An
    /// already-CE packet (step-marked moments ago) is delivered as-is — the
    /// congestion signal it carries is the whole point of marking it.
    fn mark_instead(&self, pkt: &Packet) -> bool {
        self.ecn.is_enabled() && pkt.ecn != EcnCodepoint::NotEct
    }

    fn control_law(&self, t: Time) -> Time {
        let interval_s = self.interval.as_secs_f64();
        t + Time::from_secs_f64(interval_s / ((self.drop_count.max(1)) as f64).sqrt())
    }

    /// Returns Some(pkt) if the packet should be delivered, updating the
    /// "above target" tracking state.
    fn should_drop(&mut self, pkt: &Packet, now: Time) -> bool {
        let sojourn = pkt.queueing_delay(now);
        if sojourn < self.target || self.inner.len_bytes() < 1500 * 2 {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + self.interval);
                    false
                }
                Some(fat) => now >= fat,
            }
        }
    }
}

impl QueueDiscipline for CoDelQueue {
    fn enqueue(&mut self, pkt: Packet, now: Time) -> EnqueueResult {
        match self.inner.enqueue(pkt, now) {
            EnqueueResult::Accepted => EnqueueResult::Accepted,
            EnqueueResult::Dropped => {
                self.drops += 1;
                EnqueueResult::Dropped
            }
        }
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        loop {
            let mut pkt = self.inner.dequeue(now)?;
            // The L4S step profile marks on the *measured* sojourn time,
            // independently of (and typically far below) the drop law.
            if let Some(threshold_s) = self.ecn.step_threshold_s() {
                if pkt.ecn == EcnCodepoint::Ect
                    && pkt.queueing_delay(now).as_secs_f64() >= threshold_s
                {
                    pkt.ecn = EcnCodepoint::Ce;
                    self.marks += 1;
                }
            }
            let ok_to_drop = self.should_drop(&pkt, now);
            if self.dropping {
                if !ok_to_drop {
                    self.dropping = false;
                    return Some(pkt);
                }
                if now >= self.drop_next {
                    self.drop_count += 1;
                    self.drop_next = self.control_law(self.drop_next);
                    if self.mark_instead(&pkt) {
                        // Same control-law state advance; mark and deliver.
                        if pkt.ecn == EcnCodepoint::Ect {
                            pkt.ecn = EcnCodepoint::Ce;
                            self.marks += 1;
                        }
                        return Some(pkt);
                    }
                    self.drops += 1;
                    continue; // drop this packet, try the next
                }
                return Some(pkt);
            } else if ok_to_drop {
                // Enter dropping state; drop (or, with ECN, mark) this packet.
                self.dropping = true;
                self.drop_count = if self.drop_count > 2 {
                    self.drop_count - 2
                } else {
                    1
                };
                self.drop_next = self.control_law(now);
                if self.mark_instead(&pkt) {
                    if pkt.ecn == EcnCodepoint::Ect {
                        pkt.ecn = EcnCodepoint::Ce;
                        self.marks += 1;
                    }
                    return Some(pkt);
                }
                self.drops += 1;
                continue;
            } else {
                return Some(pkt);
            }
        }
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn set_capacity_bytes(&mut self, bytes: u64) {
        self.inner.set_capacity_bytes(bytes);
    }

    fn set_ecn_marking(&mut self, marking: EcnMarking) {
        self.ecn = marking;
    }

    fn marks(&self) -> u64 {
        self.marks
    }

    fn bytes_for_flow(&self, flow: crate::packet::FlowId) -> u64 {
        self.inner.bytes_for_flow(flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pkt(flow: usize, seq: u64, size: u32, t_ms: u64) -> Packet {
        Packet::new(flow, seq, size, Time::from_millis(t_ms), false)
    }

    fn ect(flow: usize, seq: u64, size: u32, t_ms: u64) -> Packet {
        let mut p = pkt(flow, seq, size, t_ms);
        p.ecn = EcnCodepoint::Ect;
        p
    }

    #[test]
    fn droptail_respects_capacity_and_fifo_order() {
        let mut q = DropTailQueue::new(4000);
        assert_eq!(
            q.enqueue(pkt(0, 0, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(pkt(0, 1, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        // Third 1500B packet exceeds 4000B capacity.
        assert_eq!(
            q.enqueue(pkt(0, 2, 1500, 0), Time::ZERO),
            EnqueueResult::Dropped
        );
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len_packets(), 2);
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().seq, 0);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().seq, 1);
        assert!(q.dequeue(Time::ZERO).is_none());
        assert_eq!(q.len_bytes(), 0);
    }

    #[test]
    fn droptail_delay_capacity_matches_bdp_style_spec() {
        // 96 Mbit/s with 100 ms of buffering = 1.2 MB.
        let q = DropTailQueue::with_delay_capacity(96e6, 0.1);
        assert_eq!(q.capacity_bytes(), 1_200_000);
    }

    #[test]
    fn droptail_tracks_per_flow_bytes() {
        let mut q = DropTailQueue::new(100_000);
        q.enqueue(pkt(1, 0, 1500, 0), Time::ZERO);
        q.enqueue(pkt(2, 0, 1000, 0), Time::ZERO);
        q.enqueue(pkt(1, 1, 1500, 0), Time::ZERO);
        assert_eq!(q.bytes_for_flow(1), 3000);
        assert_eq!(q.bytes_for_flow(2), 1000);
        assert_eq!(q.bytes_for_flow(9), 0);
    }

    #[test]
    fn pie_drops_under_sustained_overload() {
        // Keep the queue persistently at ~10x the target delay; PIE's drop
        // probability must rise and start dropping packets.
        let rate = 12e6; // 12 Mbit/s -> 1500B packet = 1 ms
        let mut q = PieQueue::new(3_000_000, rate, Time::from_millis(15), 1);
        let mut now = Time::ZERO;
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for i in 0..20_000u64 {
            // Enqueue 2 packets per 1 ms slot but dequeue only 1 -> queue grows.
            for j in 0..2 {
                match q.enqueue(pkt(0, i * 2 + j, 1500, 0), now) {
                    EnqueueResult::Accepted => accepted += 1,
                    EnqueueResult::Dropped => dropped += 1,
                }
            }
            let _ = q.dequeue(now);
            now += Time::from_millis(1);
        }
        assert!(
            dropped > 100,
            "PIE should have dropped packets, dropped={dropped}"
        );
        assert!(accepted > 0);
    }

    #[test]
    fn pie_idle_queue_does_not_drop() {
        let mut q = PieQueue::new(1_000_000, 96e6, Time::from_millis(15), 2);
        let mut now = Time::ZERO;
        let mut drops = 0;
        for i in 0..1000 {
            if q.enqueue(pkt(0, i, 1500, 0), now) == EnqueueResult::Dropped {
                drops += 1;
            }
            // Drain immediately: queue never builds.
            let _ = q.dequeue(now);
            now += Time::from_millis(10);
        }
        assert_eq!(drops, 0);
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let mut q = RedQueue::new(150_000, 7);
        // Fill to ~50% so the average sits between min (25%) and max (75%).
        let mut drops = 0;
        let mut accepted = 0;
        for i in 0..5000u64 {
            match q.enqueue(pkt(0, i, 1500, 0), Time::ZERO) {
                EnqueueResult::Accepted => {
                    accepted += 1;
                    if q.len_bytes() > 75_000 {
                        let _ = q.dequeue(Time::ZERO);
                    }
                }
                EnqueueResult::Dropped => drops += 1,
            }
        }
        assert!(drops > 0, "RED should drop between thresholds");
        assert!(accepted > drops, "RED should not drop everything");
    }

    #[test]
    fn codel_drops_when_sojourn_stays_above_target() {
        let mut q = CoDelQueue::new(10_000_000);
        // Enqueue a burst at t=0, dequeue slowly so sojourn times are large.
        for i in 0..2000u64 {
            q.enqueue(pkt(0, i, 1500, 0), Time::ZERO);
        }
        let mut delivered = 0;
        let mut now = Time::from_millis(1);
        while let Some(_p) = q.dequeue(now) {
            delivered += 1;
            now += Time::from_millis(1);
            if delivered > 5000 {
                break;
            }
        }
        assert!(q.drops() > 0, "CoDel should drop under persistent delay");
        assert!(delivered > 0);
    }

    #[test]
    fn codel_does_not_drop_short_lived_queues() {
        let mut q = CoDelQueue::new(1_000_000);
        let mut now = Time::ZERO;
        for i in 0..100u64 {
            q.enqueue(pkt(0, i, 1500, now.as_nanos() / 1_000_000), now);
            // Dequeue within the target delay.
            let _ = q.dequeue(now + Time::from_millis(1));
            now += Time::from_millis(10);
        }
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn droptail_step_marking_flips_only_ect_packets() {
        // 12 Mbit/s drain: a 1500 B packet takes 1 ms to serialize, so with a
        // 1 ms step threshold the second queued packet projects over it.
        let mut q = DropTailQueue::new(1_000_000);
        q.set_drain_rate_bps(12e6);
        q.set_ecn_marking(EcnMarking::Step { threshold_s: 0.001 });
        assert_eq!(
            q.enqueue(ect(0, 0, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(ect(0, 1, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(pkt(0, 2, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        // First packet projected exactly at 1 ms sojourn → marked; the
        // non-ECT packet behind it stays untouched however deep the queue is.
        assert_eq!(q.marks(), 2);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().ecn, EcnCodepoint::Ce);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().ecn, EcnCodepoint::Ce);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().ecn, EcnCodepoint::NotEct);
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn droptail_classic_marking_kicks_in_at_half_capacity() {
        let mut q = DropTailQueue::new(6000);
        q.set_ecn_marking(EcnMarking::Classic);
        assert_eq!(
            q.enqueue(ect(0, 0, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(q.marks(), 0, "below half capacity: no mark");
        assert_eq!(
            q.enqueue(ect(0, 1, 1500, 0), Time::ZERO),
            EnqueueResult::Accepted
        );
        assert_eq!(q.marks(), 1, "at half capacity: marked");
    }

    #[test]
    fn pie_marks_instead_of_dropping_ect() {
        // The same sustained overload (2 in, 1 out per millisecond), run
        // plain and with classic ECN + all-ECT traffic.  Plain PIE sheds the
        // excess by dropping; with marking and a buffer big enough to hold
        // the run, the *same* probabilistic decisions become CE marks and no
        // packet is lost.  (The two runs are not packet-for-packet identical
        // — keeping marked packets changes the queue PIE measures — so the
        // invariant is drop-freedom, not a drop↔mark bijection.)
        let rate = 12e6;
        let run = |ecn: bool| {
            let mut q = PieQueue::new(100_000_000, rate, Time::from_millis(15), 1);
            if ecn {
                q.set_ecn_marking(EcnMarking::Classic);
            }
            let mut now = Time::ZERO;
            for i in 0..20_000u64 {
                for j in 0..2 {
                    let p = if ecn {
                        ect(0, i * 2 + j, 1500, 0)
                    } else {
                        pkt(0, i * 2 + j, 1500, 0)
                    };
                    let _ = q.enqueue(p, now);
                }
                let _ = q.dequeue(now);
                now += Time::from_millis(1);
            }
            (q.drops(), q.marks())
        };
        let (plain_drops, plain_marks) = run(false);
        let (ecn_drops, ecn_marks) = run(true);
        assert_eq!(plain_marks, 0);
        assert!(plain_drops > 100, "plain PIE drops under overload");
        assert_eq!(ecn_drops, 0, "classic ECN never drops ECT traffic");
        assert!(ecn_marks > 100, "the shed load reappears as marks");
    }

    #[test]
    fn codel_marks_and_delivers_under_persistent_delay() {
        let mut q = CoDelQueue::new(10_000_000);
        q.set_ecn_marking(EcnMarking::Classic);
        for i in 0..2000u64 {
            q.enqueue(ect(0, i, 1500, 0), Time::ZERO);
        }
        let mut delivered = 0u64;
        let mut marked = 0u64;
        let mut now = Time::from_millis(1);
        while let Some(p) = q.dequeue(now) {
            delivered += 1;
            if p.ecn == EcnCodepoint::Ce {
                marked += 1;
            }
            now += Time::from_millis(1);
        }
        assert_eq!(q.drops(), 0, "with ECN the control law marks, not drops");
        assert!(marked > 0, "persistent sojourn must mark");
        assert_eq!(q.marks(), marked);
        assert_eq!(delivered, 2000, "every packet was delivered");
    }

    #[test]
    fn codel_step_profile_marks_on_measured_sojourn() {
        let mut q = CoDelQueue::new(10_000_000);
        q.set_ecn_marking(EcnMarking::Step { threshold_s: 0.001 });
        q.enqueue(ect(0, 0, 1500, 0), Time::ZERO);
        q.enqueue(ect(0, 1, 1500, 0), Time::ZERO);
        // Dequeued within the threshold: unmarked.
        assert_eq!(
            q.dequeue(Time::from_micros(500)).unwrap().ecn,
            EcnCodepoint::Ect
        );
        // Dequeued past 1 ms of sojourn: step-marked.
        assert_eq!(
            q.dequeue(Time::from_millis(2)).unwrap().ecn,
            EcnCodepoint::Ce
        );
        assert_eq!(q.marks(), 1);
    }

    proptest! {
        #[test]
        fn prop_marked_xor_dropped(sizes in proptest::collection::vec(500u32..1500, 1..200),
                                   kind in 0u8..4) {
            // Every offered packet meets exactly one fate: dropped, delivered
            // marked, or delivered unmarked — never more than one, across all
            // four disciplines with marking enabled.
            let mut q: Box<dyn QueueDiscipline> = match kind {
                0 => Box::new(DropTailQueue::new(20_000)),
                1 => Box::new(PieQueue::new(20_000, 12e6, Time::from_millis(5), 11)),
                2 => Box::new(RedQueue::new(20_000, 13)),
                _ => Box::new(CoDelQueue::new(20_000)),
            };
            q.set_drain_rate_bps(12e6);
            q.set_ecn_marking(EcnMarking::Step { threshold_s: 0.002 });
            let mut offered = 0u64;
            let mut accepted_bytes = 0u64;
            let mut dropped_at_enqueue = 0u64;
            for (i, &s) in sizes.iter().enumerate() {
                offered += 1;
                match q.enqueue(ect(0, i as u64, s, (i / 4) as u64), Time::from_millis((i / 4) as u64)) {
                    EnqueueResult::Accepted => accepted_bytes += s as u64,
                    EnqueueResult::Dropped => dropped_at_enqueue += 1,
                }
            }
            let mut delivered = 0u64;
            let mut delivered_bytes = 0u64;
            let mut delivered_marked = 0u64;
            let now = Time::from_millis(400);
            while let Some(p) = q.dequeue(now) {
                delivered += 1;
                delivered_bytes += p.size_bytes as u64;
                prop_assert_ne!(p.ecn, EcnCodepoint::NotEct, "codepoint must survive the queue");
                if p.ecn == EcnCodepoint::Ce {
                    delivered_marked += 1;
                }
            }
            // Marked XOR dropped: the fates partition the offered packets —
            // every packet is either delivered (possibly CE-marked) or
            // dropped, never both, and marks only ever land on delivered
            // packets.
            prop_assert_eq!(delivered + q.drops(), offered, "delivered + dropped == offered");
            prop_assert_eq!(delivered_marked, q.marks(),
                            "every mark the discipline counted was delivered exactly once");
            let dropped_at_dequeue = q.drops() - dropped_at_enqueue;
            // Byte conservation with marking enabled: accepted bytes either
            // came out or were dropped at dequeue (CoDel's control law), and
            // the residue is bounded by those packets' size range.
            prop_assert_eq!(q.len_bytes(), 0, "queue fully drained");
            prop_assert!(delivered_bytes <= accepted_bytes);
            prop_assert!(accepted_bytes - delivered_bytes >= dropped_at_dequeue * 500);
            prop_assert!(accepted_bytes - delivered_bytes <= dropped_at_dequeue * 1500);
        }

        #[test]
        fn prop_marking_is_deterministic_across_threads(sizes in proptest::collection::vec(500u32..1500, 1..150),
                                                        seed in 0u64..1000) {
            // The same marking workload must produce identical (drops, marks,
            // delivered-CE sequence) whether run serially or on worker
            // threads: all randomness is owned by the seeded queue RNG.
            let run = {
                let sizes = sizes.clone();
                move || {
                    let mut q = RedQueue::new(30_000, seed);
                    q.set_drain_rate_bps(12e6);
                    q.set_ecn_marking(EcnMarking::Classic);
                    let mut fates = Vec::new();
                    for (i, &s) in sizes.iter().enumerate() {
                        let r = q.enqueue(ect(0, i as u64, s, 0), Time::ZERO);
                        if r == EnqueueResult::Accepted && q.len_bytes() > 20_000 {
                            let _ = q.dequeue(Time::ZERO);
                        }
                        fates.push(r == EnqueueResult::Accepted);
                    }
                    let mut ce = Vec::new();
                    while let Some(p) = q.dequeue(Time::ZERO) {
                        ce.push(p.ecn == EcnCodepoint::Ce);
                    }
                    (q.drops(), q.marks(), fates, ce)
                }
            };
            let serial = run();
            let handles: Vec<_> = (0..2).map(|_| {
                let r = run.clone();
                std::thread::spawn(r)
            }).collect();
            for h in handles {
                let threaded = h.join().unwrap();
                prop_assert_eq!(&threaded, &serial, "thread run diverged from serial run");
            }
        }

        #[test]
        fn prop_droptail_byte_count_consistent(ops in proptest::collection::vec((0u8..2, 100u32..2000), 1..300)) {
            let mut q = DropTailQueue::new(20_000);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut seq = 0u64;
            for (op, size) in ops {
                if op == 0 {
                    let accepted = q.enqueue(pkt(0, seq, size, 0), Time::ZERO) == EnqueueResult::Accepted;
                    let model_accepts = model.iter().map(|&s| s as u64).sum::<u64>() + size as u64 <= 20_000;
                    prop_assert_eq!(accepted, model_accepts);
                    if accepted { model.push_back(size); }
                    seq += 1;
                } else {
                    let got = q.dequeue(Time::ZERO).map(|p| p.size_bytes);
                    let want = model.pop_front();
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(q.len_bytes(), model.iter().map(|&s| s as u64).sum::<u64>());
                prop_assert_eq!(q.len_packets(), model.len());
            }
        }

        #[test]
        fn prop_fifo_order_preserved(sizes in proptest::collection::vec(500u32..1500, 1..50)) {
            let mut q = DropTailQueue::new(10_000_000);
            for (i, &s) in sizes.iter().enumerate() {
                q.enqueue(pkt(0, i as u64, s, 0), Time::ZERO);
            }
            let mut last = None;
            while let Some(p) = q.dequeue(Time::ZERO) {
                if let Some(prev) = last {
                    prop_assert!(p.seq > prev);
                }
                last = Some(p.seq);
            }
        }
    }
}
