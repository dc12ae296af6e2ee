//! The bottleneck queue.
//!
//! The paper's robustness evaluation (§8.2, Appendix E) covers drop-tail
//! buffers from 0.25 to 4 BDP and the PIE AQM at two target delays; those are
//! the two disciplines a hop's [`QueueKind`] can name.
//!
//! One crate-private concrete `Queue` serves both: a byte-capacity FIFO whose
//! buffer is sized in seconds of line rate, plus an AQM state that is either
//! plain drop-tail or PIE.  The engine owns one per hop, calls
//! `Queue::enqueue` when a packet arrives at the hop and `Queue::dequeue`
//! when the link is ready to transmit the next packet; drops happen only on
//! enqueue.
//!
//! Both disciplines support ECN marking ([`EcnMarking`]): with a marking
//! profile installed, congestion signals aimed at ECN-capable (ECT) packets
//! become CE marks instead of drops — classic RFC 3168 semantics under
//! [`EcnMarking::Classic`], shallow L4S-style step marking under
//! [`EcnMarking::Step`].  Non-ECT traffic and [`EcnMarking::None`] queues
//! behave byte-for-byte as without ECN, including PIE's RNG draw sequence.

use crate::engine::QueueKind;
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
/// always drops regardless of codepoint.  With marking enabled PIE reuses the
/// *same* drop decision — including the same RNG draw — and merely converts
/// it to a mark for ECT packets, so enabling ECN is a provable no-op for
/// every non-ECT flow sharing the queue.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum EcnMarking {
    /// No marking: every congestion signal is a drop (the default).
    #[default]
    None,
    /// Classic ECN (RFC 3168): wherever the discipline would drop by AQM
    /// decision, ECT packets are CE-marked and delivered instead.  On a
    /// plain drop-tail queue — which has no AQM decision short of overflow —
    /// this marks ECT packets once the backlog reaches half the buffer.
    Classic,
    /// L4S-style step marking (RFC 9331): ECT packets are CE-marked as soon
    /// as the queue's projected sojourn time (backlog over drain rate) meets
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
/// buffer still admits a packet.  The single sizing rule shared by queue
/// construction and rate-transition re-sizing.
fn delay_capacity_bytes(rate_bps: f64, buffer_secs: f64) -> u64 {
    (rate_bps * buffer_secs / 8.0).max(1500.0) as u64
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueResult {
    /// The packet was accepted into the queue.
    Accepted,
    /// The packet was dropped.
    Dropped,
}

/// The queue in front of one hop's link.
#[derive(Debug)]
pub(crate) struct Queue {
    fifo: VecDeque<Packet>,
    /// Bytes currently queued.
    bytes: u64,
    capacity_bytes: u64,
    /// Buffer size in seconds of line rate; the capacity follows the rate.
    buffer_s: f64,
    /// Current link drain rate, bits/s.
    drain_rate_bps: f64,
    ecn: EcnMarking,
    /// ECT packets CE-marked and accepted so far.
    marks: u64,
    aqm: Aqm,
}

/// The active queue management in front of the FIFO.
#[derive(Debug)]
enum Aqm {
    /// No early signal: drop on overflow only.  Classic ECN marks ECT
    /// packets once the backlog reaches half the buffer.
    DropTail,
    /// PIE, RFC 8033 (simplified).
    Pie(Pie),
}

/// PIE (Proportional Integral controller Enhanced) state.
///
/// Drop probability is updated every [`PIE_T_UPDATE`] from the deviation of
/// the estimated queueing delay from the target and from its trend.
#[derive(Debug)]
struct Pie {
    target_delay: Time,
    /// Current drop probability.
    drop_prob: f64,
    /// Queue delay estimate at the last update.
    old_delay: Time,
    last_update: Time,
    rng: StdRng,
}

/// Update interval of PIE's drop probability.
const PIE_T_UPDATE: Time = Time::from_millis(15);
/// PIE's α and β gains from RFC 8033 (per-second units).
const PIE_ALPHA: f64 = 0.125;
const PIE_BETA: f64 = 1.25;

impl Queue {
    /// Build a hop's queue for a link starting at `rate_bps`, with marking
    /// profile `ecn`; `seed` feeds PIE's drop draws.
    pub(crate) fn new(kind: &QueueKind, rate_bps: f64, ecn: EcnMarking, seed: u64) -> Self {
        let (buffer_s, aqm) = match *kind {
            QueueKind::DropTailDelay(buffer_s) => (buffer_s, Aqm::DropTail),
            QueueKind::Pie {
                target_delay_s,
                buffer_s,
            } => (
                buffer_s,
                Aqm::Pie(Pie {
                    target_delay: Time::from_secs_f64(target_delay_s),
                    drop_prob: 0.0,
                    old_delay: Time::ZERO,
                    last_update: Time::ZERO,
                    rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
                }),
            ),
        };
        Queue {
            fifo: VecDeque::new(),
            bytes: 0,
            capacity_bytes: delay_capacity_bytes(rate_bps, buffer_s),
            buffer_s,
            drain_rate_bps: rate_bps.max(0.0),
            ecn,
            marks: 0,
            aqm,
        }
    }

    /// Follow a link rate change: the buffer keeps meaning `buffer_s`
    /// seconds of line rate and the drain rate is updated.  Packets already
    /// queued beyond a shrunken capacity are kept; only new enqueues see the
    /// new limit.
    pub(crate) fn set_rate(&mut self, rate_bps: f64) {
        self.capacity_bytes = delay_capacity_bytes(rate_bps, self.buffer_s);
        self.drain_rate_bps = rate_bps.max(0.0);
    }

    /// Offer a packet to the queue at time `now`.
    ///
    /// A packet is either dropped or accepted, and only an accepted packet
    /// counts as a mark: the AQM decision (and PIE's RNG draw) comes first,
    /// the step profile's sojourn check second, the buffer limit last.
    pub(crate) fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueResult {
        let ect = pkt.ecn == EcnCodepoint::Ect;
        // Backlog including `pkt` itself.
        let backlog = self.bytes + pkt.size_bytes as u64;
        let mut mark = match &mut self.aqm {
            Aqm::DropTail => {
                ect && self.ecn == EcnMarking::Classic && 2 * backlog >= self.capacity_bytes
            }
            Aqm::Pie(pie) => {
                let depart = pie_depart_bytes_per_sec(self.drain_rate_bps);
                let signal = pie.drop_early(now, self.bytes, self.fifo.len(), depart);
                // With marking, an ECT packet that loses the draw is
                // CE-marked and kept instead of dropped.
                if signal && !(self.ecn.is_enabled() && ect) {
                    return EnqueueResult::Dropped;
                }
                signal
            }
        };
        if let Some(threshold_s) = self.ecn.step_threshold_s() {
            mark |= ect
                && self
                    .projected_sojourn_s(backlog)
                    .is_some_and(|s| s >= threshold_s);
        }
        if backlog > self.capacity_bytes {
            return EnqueueResult::Dropped;
        }
        if mark {
            pkt.ecn = EcnCodepoint::Ce;
            self.marks += 1;
        }
        pkt.enqueued_at = now;
        self.bytes += pkt.size_bytes as u64;
        self.fifo.push_back(pkt);
        EnqueueResult::Accepted
    }

    /// Drain time of `backlog` bytes: at the link rate for drop-tail (unknown
    /// without one), under PIE's own departure-rate model for PIE.
    fn projected_sojourn_s(&self, backlog: u64) -> Option<f64> {
        match self.aqm {
            Aqm::DropTail => {
                (self.drain_rate_bps > 0.0).then(|| (backlog * 8) as f64 / self.drain_rate_bps)
            }
            Aqm::Pie(_) => Some(backlog as f64 / pie_depart_bytes_per_sec(self.drain_rate_bps)),
        }
    }

    /// Remove the next packet to transmit, if any.
    pub(crate) fn dequeue(&mut self, now: Time) -> Option<Packet> {
        if let Aqm::Pie(pie) = &mut self.aqm {
            pie.update(
                now,
                self.bytes,
                pie_depart_bytes_per_sec(self.drain_rate_bps),
            );
        }
        let pkt = self.fifo.pop_front()?;
        self.bytes -= pkt.size_bytes as u64;
        Some(pkt)
    }

    /// Current queue occupancy in bytes.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total ECT packets CE-marked (and accepted) so far.
    pub(crate) fn marks(&self) -> u64 {
        self.marks
    }
}

/// PIE's departure-rate estimate in bytes/s: the link drain rate, floored at
/// one byte per second.
fn pie_depart_bytes_per_sec(drain_rate_bps: f64) -> f64 {
    (drain_rate_bps / 8.0).max(1.0)
}

impl Pie {
    /// Estimated queueing delay by Little's law: backlog / departure rate.
    fn delay(backlog_bytes: u64, depart: f64) -> Time {
        Time::from_secs_f64(backlog_bytes as f64 / depart)
    }

    /// Run every drop-probability update due by `now`.
    fn update(&mut self, now: Time, backlog_bytes: u64, depart: f64) {
        while now.saturating_sub(self.last_update) >= PIE_T_UPDATE {
            self.last_update += PIE_T_UPDATE;
            let cur = Self::delay(backlog_bytes, depart);
            let p_delta = PIE_ALPHA * (cur.as_secs_f64() - self.target_delay.as_secs_f64())
                + PIE_BETA * (cur.as_secs_f64() - self.old_delay.as_secs_f64());
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

    /// Update, then draw whether an arriving packet gets the early
    /// congestion signal.  A nearly empty queue is protected (burst
    /// allowance) and costs no draw.
    fn drop_early(&mut self, now: Time, backlog_bytes: u64, packets: usize, depart: f64) -> bool {
        self.update(now, backlog_bytes, depart);
        let protect = Self::delay(backlog_bytes, depart)
            < Time::from_millis_f64(self.target_delay.as_millis_f64() / 2.0)
            && packets < 3;
        !protect && self.drop_prob > 0.0 && self.rng.gen::<f64>() < self.drop_prob
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

    /// A drop-tail queue holding exactly `capacity_bytes`: one second of
    /// buffering at `8 · capacity_bytes` bit/s.
    fn droptail(capacity_bytes: u64, ecn: EcnMarking) -> Queue {
        let q = Queue::new(
            &QueueKind::DropTailDelay(1.0),
            capacity_bytes as f64 * 8.0,
            ecn,
            0,
        );
        assert_eq!(q.capacity_bytes, capacity_bytes);
        q
    }

    /// A PIE queue with a `buffer_s`-second buffer at `rate_bps`.
    fn pie(rate_bps: f64, buffer_s: f64, target_ms: f64, ecn: EcnMarking, seed: u64) -> Queue {
        let kind = QueueKind::Pie {
            target_delay_s: target_ms / 1000.0,
            buffer_s,
        };
        Queue::new(&kind, rate_bps, ecn, seed)
    }

    #[test]
    fn droptail_respects_capacity_and_fifo_order() {
        let mut q = droptail(4000, EcnMarking::None);
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
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().seq, 0);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().seq, 1);
        assert!(q.dequeue(Time::ZERO).is_none());
        assert_eq!(q.len_bytes(), 0);
    }

    #[test]
    fn droptail_delay_capacity_matches_bdp_style_spec() {
        // 96 Mbit/s with 100 ms of buffering = 1.2 MB.
        assert_eq!(delay_capacity_bytes(96e6, 0.1), 1_200_000);
        // Floored at one MSS.
        assert_eq!(delay_capacity_bytes(1e3, 0.1), 1500);
    }

    #[test]
    fn pie_drops_under_sustained_overload() {
        // Keep the queue persistently at ~10x the target delay; PIE's drop
        // probability must rise and start dropping packets.
        let rate = 12e6; // 12 Mbit/s -> 1500B packet = 1 ms
        let mut q = pie(rate, 2.0, 15.0, EcnMarking::None, 1);
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
        let mut q = pie(96e6, 0.1, 15.0, EcnMarking::None, 2);
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
    fn droptail_step_marking_flips_only_ect_packets() {
        // 12 Mbit/s drain: a 1500 B packet takes 1 ms to serialize, so with a
        // 1 ms step threshold the second queued packet projects over it.
        let mut q = Queue::new(
            &QueueKind::DropTailDelay(1.0),
            12e6,
            EcnMarking::Step { threshold_s: 0.001 },
            0,
        );
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
    }

    #[test]
    fn droptail_classic_marking_kicks_in_at_half_capacity() {
        let mut q = droptail(6000, EcnMarking::Classic);
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
            let profile = if ecn {
                EcnMarking::Classic
            } else {
                EcnMarking::None
            };
            let mut q = pie(rate, 100.0, 15.0, profile, 1);
            let mut now = Time::ZERO;
            let mut drops = 0u64;
            for i in 0..20_000u64 {
                for j in 0..2 {
                    let p = if ecn {
                        ect(0, i * 2 + j, 1500, 0)
                    } else {
                        pkt(0, i * 2 + j, 1500, 0)
                    };
                    if q.enqueue(p, now) == EnqueueResult::Dropped {
                        drops += 1;
                    }
                }
                let _ = q.dequeue(now);
                now += Time::from_millis(1);
            }
            (drops, q.marks())
        };
        let (plain_drops, plain_marks) = run(false);
        let (ecn_drops, ecn_marks) = run(true);
        assert_eq!(plain_marks, 0);
        assert!(plain_drops > 100, "plain PIE drops under overload");
        assert_eq!(ecn_drops, 0, "classic ECN never drops ECT traffic");
        assert!(ecn_marks > 100, "the shed load reappears as marks");
    }

    proptest! {
        #[test]
        fn prop_marked_xor_dropped(sizes in proptest::collection::vec(500u32..1500, 1..200),
                                   kind in 0u8..2) {
            // Every offered packet meets exactly one fate: dropped, delivered
            // marked, or delivered unmarked — never more than one, for both
            // disciplines with marking enabled.
            let ecn = EcnMarking::Step { threshold_s: 0.002 };
            let mut q = if kind == 1 {
                pie(12e6, 20_000.0 * 8.0 / 12e6, 5.0, ecn, 11)
            } else {
                droptail(20_000, ecn)
            };
            let mut offered = 0u64;
            let mut accepted_bytes = 0u64;
            let mut dropped = 0u64;
            for (i, &s) in sizes.iter().enumerate() {
                offered += 1;
                match q.enqueue(ect(0, i as u64, s, (i / 4) as u64), Time::from_millis((i / 4) as u64)) {
                    EnqueueResult::Accepted => accepted_bytes += s as u64,
                    EnqueueResult::Dropped => dropped += 1,
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
            prop_assert_eq!(delivered + dropped, offered, "delivered + dropped == offered");
            prop_assert_eq!(delivered_marked, q.marks(),
                            "every mark the queue counted was delivered exactly once");
            // Byte conservation: drops happen only on enqueue, so every
            // accepted byte comes back out.
            prop_assert_eq!(q.len_bytes(), 0, "queue fully drained");
            prop_assert_eq!(delivered_bytes, accepted_bytes);
        }

        #[test]
        fn prop_marking_is_deterministic_across_threads(sizes in proptest::collection::vec(500u32..1500, 1..150),
                                                        seed in 0u64..1000) {
            // The same marking workload must produce identical (marks,
            // per-packet fates, delivered-CE sequence) whether run serially
            // or on worker threads: all randomness is owned by the seeded
            // PIE RNG.  A 1.2 Mbit/s drain against one arrival every 4 ms
            // builds a standing queue, so the drop probability rises within
            // the run; half the packets are ECT, so PIE's draws both drop
            // (non-ECT) and mark (ECT).
            let run = {
                let sizes = sizes.clone();
                move || {
                    let mut q = pie(1.2e6, 2.0, 5.0, EcnMarking::Classic, seed);
                    let mut fates = Vec::new();
                    for (i, &s) in sizes.iter().enumerate() {
                        let now = Time::from_millis(4 * i as u64);
                        let p = if i % 2 == 0 { ect(0, i as u64, s, 0) } else { pkt(0, i as u64, s, 0) };
                        fates.push(q.enqueue(p, now) == EnqueueResult::Accepted);
                        if i % 5 == 0 {
                            let _ = q.dequeue(now);
                        }
                    }
                    let mut ce = Vec::new();
                    while let Some(p) = q.dequeue(Time::from_millis(800)) {
                        ce.push(p.ecn == EcnCodepoint::Ce);
                    }
                    (q.marks(), fates, ce)
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
            let mut q = droptail(20_000, EcnMarking::None);
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
            }
        }

        #[test]
        fn prop_fifo_order_preserved(sizes in proptest::collection::vec(500u32..1500, 1..50)) {
            let mut q = droptail(10_000_000, EcnMarking::None);
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
