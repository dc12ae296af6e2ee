//! The interface between the simulator and a flow's sending logic.
//!
//! The engine owns packet delivery, the bottleneck queue and the ACK path;
//! everything above that — windows, pacing, loss recovery, congestion control
//! — lives behind [`FlowEndpoint`], which `nimbus-transport` implements once
//! (as [`Sender`](../../nimbus_transport) machinery) for every congestion
//! control algorithm, and `nimbus-core` implements for Nimbus.
//!
//! The engine *polls* an endpoint for its next action whenever something that
//! could unblock it happens (an ACK arrives, a timer it asked for fires, the
//! periodic measurement tick runs).  The endpoint answers with a
//! [`SendAction`].

use nimbus_core_types::Time;

/// Everything a sender learns when an acknowledgement arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Time the ACK reached the sender.
    pub now: Time,
    /// Cumulative ACK: all segments with `seq < cum_ack` have been received.
    pub cum_ack: u64,
    /// Sequence number of the data segment that triggered this ACK.
    pub triggering_seq: u64,
    /// Size in bytes of the triggering data segment (the bytes that
    /// physically arrived at the receiver now — use this for rate
    /// measurement, not `newly_delivered_bytes`).
    pub triggering_bytes: u32,
    /// When the triggering data segment was originally sent.
    pub data_sent_at: Time,
    /// Round-trip time sample for the triggering segment.
    pub rtt_sample: Time,
    /// True when the cumulative ACK did not advance (a duplicate ACK).
    pub is_duplicate: bool,
    /// Bytes newly delivered in order at the receiver because of the
    /// triggering segment (0 for out-of-order arrivals).
    pub newly_delivered_bytes: u64,
    /// Total bytes delivered in order at the receiver so far.
    pub total_delivered_bytes: u64,
    /// True when the triggering data segment arrived at the receiver
    /// carrying a CE mark (the receiver's ECN echo; always false for flows
    /// that did not negotiate ECN).
    pub ce: bool,
}

/// What a flow wants to do next, in answer to a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit a data segment now.
    Transmit {
        /// Segment sequence number.
        seq: u64,
        /// Segment size in bytes.
        bytes: u32,
        /// Whether this is a retransmission.
        retransmit: bool,
    },
    /// Nothing to send right now; poll me again no later than this time
    /// (pacing release or retransmission timeout).
    WaitUntil(Time),
    /// Nothing to send and no timer outstanding; poll me again when an ACK
    /// arrives (pure ACK clocking, window-limited).
    Idle,
    /// The flow has delivered everything it ever will; tear it down.
    Finished,
}

/// A flow's sending logic, as seen by the simulator.
pub trait FlowEndpoint: Send {
    /// Called once, when the flow becomes active at its configured start time.
    fn on_start(&mut self, _now: Time) {}

    /// An acknowledgement arrived back at the sender.
    fn on_ack(&mut self, ack: &AckInfo);

    /// Periodic measurement tick (every `SimConfig::tick_interval`, default
    /// 10 ms — the CCP reporting cadence used by the paper's implementation).
    fn on_tick(&mut self, _now: Time) {}

    /// Ask the flow what to do next.
    fn poll_send(&mut self, now: Time) -> SendAction;

    /// Informational callback: the packet with `seq` was dropped before
    /// reaching the bottleneck queue or by the queue itself.  Real congestion
    /// controllers must NOT use this (they learn about losses from duplicate
    /// ACKs and timeouts); it exists for oracle endpoints in tests and for
    /// debugging.  Default: ignored.
    fn on_packet_dropped(&mut self, _seq: u64, _now: Time) {}

    /// A short human-readable label for logs and result tables.
    fn label(&self) -> &str {
        "flow"
    }

    /// Downcast support for post-run inspection (the transport `Sender`
    /// returns `Some(self)` so experiments can read controller internals).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial endpoint used to check default trait methods compile and
    /// behave as documented.
    struct Nop;
    impl FlowEndpoint for Nop {
        fn on_ack(&mut self, _ack: &AckInfo) {}
        fn poll_send(&mut self, _now: Time) -> SendAction {
            SendAction::Idle
        }
    }

    #[test]
    fn default_methods_are_noops() {
        let mut n = Nop;
        n.on_start(Time::ZERO);
        n.on_tick(Time::from_millis(10));
        n.on_packet_dropped(3, Time::ZERO);
        assert_eq!(n.label(), "flow");
        assert_eq!(n.poll_send(Time::ZERO), SendAction::Idle);
    }

    #[test]
    fn ack_info_is_plain_data() {
        let a = AckInfo {
            now: Time::from_millis(100),
            cum_ack: 10,
            triggering_seq: 9,
            triggering_bytes: 1500,
            data_sent_at: Time::from_millis(50),
            rtt_sample: Time::from_millis(50),
            is_duplicate: false,
            newly_delivered_bytes: 1500,
            total_delivered_bytes: 15_000,
            ce: false,
        };
        let b = a;
        assert_eq!(a, b);
    }
}
