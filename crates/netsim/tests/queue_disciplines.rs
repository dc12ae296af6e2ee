//! Engine-level queue-discipline behaviour: a paced flow offering 2× the
//! bottleneck rate exercises both disciplines end to end.  Drop-tail must cap
//! the queueing delay at the buffer size, and PIE must hold it *well below*
//! the physical buffer while still shipping (roughly) line rate.

use nimbus_netsim::{
    AckInfo, EcnMarking, FlowConfig, FlowEndpoint, Network, QueueKind, RateSchedule, SendAction,
    SimConfig, Time,
};

/// Minimal paced constant-bit-rate endpoint (netsim cannot depend on
/// nimbus-transport, so the overload source lives here).
struct PacedCbr {
    rate_bps: f64,
    next_seq: u64,
    next_send: Time,
}

impl PacedCbr {
    fn new(rate_bps: f64) -> Self {
        PacedCbr {
            rate_bps,
            next_seq: 0,
            next_send: Time::ZERO,
        }
    }
}

impl FlowEndpoint for PacedCbr {
    fn on_ack(&mut self, _ack: &AckInfo) {}
    fn poll_send(&mut self, now: Time) -> SendAction {
        if now >= self.next_send {
            let seq = self.next_seq;
            self.next_seq += 1;
            let gap = Time::from_secs_f64(1500.0 * 8.0 / self.rate_bps);
            self.next_send = if self.next_send == Time::ZERO {
                now + gap
            } else {
                self.next_send + gap
            };
            SendAction::Transmit {
                seq,
                bytes: 1500,
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

/// Run 2× overload through the given queue kind; returns
/// (mean queueing delay ms, drops, throughput Mbit/s).
fn overload_through(queue: QueueKind) -> (f64, u64, f64) {
    let rate = 24e6;
    let mut cfg = SimConfig::new(rate, 0.1, 20.0);
    cfg.link_mut().queue = queue;
    let mut net = Network::new(cfg);
    let h = net.add_flow(
        FlowConfig::primary("overload", Time::from_millis(20)),
        Box::new(PacedCbr::new(2.0 * rate)),
    );
    net.run();
    let (rec, _) = net.finish();
    let slot = rec.monitored_slot(h.0).unwrap();
    let qd = rec.queue_delay_ms[slot].mean_in_range(5.0, 20.0);
    let tput = rec.throughput_mbps[slot].mean_in_range(5.0, 20.0);
    (qd, rec.flows[h.0].dropped_packets, tput)
}

#[test]
fn droptail_fills_to_the_buffer_cap() {
    let (qd, drops, tput) = overload_through(QueueKind::DropTailDelay(0.1));
    assert!(qd > 60.0 && qd <= 105.0, "drop-tail queueing delay {qd} ms");
    assert!(
        drops > 100,
        "drop-tail must shed the overload, drops={drops}"
    );
    assert!((tput - 24.0).abs() < 1.5, "line rate expected, got {tput}");
}

#[test]
fn pie_holds_the_queue_near_its_target_under_overload() {
    let (qd, drops, tput) = overload_through(QueueKind::Pie {
        target_delay_s: 0.02,
        buffer_s: 0.1,
    });
    assert!(
        qd < 60.0,
        "PIE queueing delay {qd} ms should sit near 20 ms"
    );
    assert!(drops > 100, "PIE must drop under sustained overload");
    assert!(tput > 20.0, "PIE throughput {tput}");
}

#[test]
fn aqms_and_droptail_rank_as_expected() {
    let (dt, _, _) = overload_through(QueueKind::DropTailDelay(0.1));
    let (pie, _, _) = overload_through(QueueKind::Pie {
        target_delay_s: 0.02,
        buffer_s: 0.1,
    });
    assert!(
        pie < dt,
        "PIE must beat drop-tail on delay: pie={pie} droptail={dt}"
    );
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a of the recorder snapshot after one ECT and one non-ECT paced flow,
/// each at the initial line rate (2x overload in total), cross `queue` with
/// marking profile `ecn`; the link rate halves at t = 4 s, so the run also
/// covers the rate-change path (buffer re-sizing, new drain rate).
fn queue_fingerprint(queue: QueueKind, ecn: EcnMarking) -> u64 {
    let rate = 24e6;
    let mut cfg = SimConfig::new(rate, 0.1, 8.0);
    cfg.seed = 5;
    let link = cfg.link_mut();
    link.queue = queue;
    link.ecn = ecn;
    link.schedule = RateSchedule::step(rate, Time::from_millis(4000), rate / 2.0);
    let mut net = Network::new(cfg);
    net.add_flow(
        FlowConfig::primary("ect", Time::from_millis(20)).with_ecn(true),
        Box::new(PacedCbr::new(rate)),
    );
    net.add_flow(
        FlowConfig::primary("not-ect", Time::from_millis(30)),
        Box::new(PacedCbr::new(rate)),
    );
    net.run();
    let (rec, _) = net.finish();
    fnv1a(
        serde_json::to_string(&rec.snapshot())
            .expect("snapshot serializes")
            .as_bytes(),
    )
}

#[test]
fn droptail_and_pie_reproduce_their_pinned_fingerprints() {
    let queues = [
        ("droptail", QueueKind::DropTailDelay(0.1)),
        (
            "pie",
            QueueKind::Pie {
                target_delay_s: 0.015,
                buffer_s: 0.1,
            },
        ),
    ];
    let profiles = [
        ("none", EcnMarking::None),
        ("classic", EcnMarking::Classic),
        ("step", EcnMarking::Step { threshold_s: 0.001 }),
    ];
    // A mismatch means the queue's behaviour changed.
    let pinned: [(&str, u64); 6] = [
        ("droptail/none", 0x1156a39ea2567451),
        ("droptail/classic", 0x196ff8b455bce3d6),
        ("droptail/step", 0x9d5812d38a8b9a52),
        ("pie/none", 0x8df5a46daf9843ee),
        ("pie/classic", 0xa56946438e337b59),
        ("pie/step", 0xe913cadb4f0250fc),
    ];
    let mut actual = Vec::new();
    for (qname, queue) in &queues {
        for (ename, ecn) in profiles {
            actual.push((
                format!("{qname}/{ename}"),
                queue_fingerprint(queue.clone(), ecn),
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, fp)| format!("        (\"{name}\", {fp:#018x}),\n"))
        .collect();
    for ((want_name, want), (name, got)) in pinned.iter().zip(&actual) {
        assert_eq!(*want_name, name, "pin table order");
        assert_eq!(*want, *got, "{name} moved; actual table:\n{table}");
    }
}
