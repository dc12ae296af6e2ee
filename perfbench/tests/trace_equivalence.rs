//! The traced run measures the same program as the untraced run, and the
//! benchmark's cells are the cells the experiment runner builds.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nimbus_core::cc::{AckEvent, CongestionEvent, LossEvent};
use nimbus_core::ccp::Report;
use nimbus_core_types::Time;
use nimbus_experiments::runner::nimbus_of;
use nimbus_experiments::testkit::paper_invariant_matrix;
use nimbus_netsim::{AckInfo, FlowEndpoint, SendAction};
use nimbus_transport::CongestionControl;
use perfbench::cells::{workload_cells, BenchCell};
use perfbench::embed::run_connection;
use perfbench::trace::{self, CcRole, TimedCc, TimedEndpoint};

/// A run's event count, metrics JSON and mode log.
type RunSummary = (u64, String, Vec<(f64, String)>);

/// Runs a cell untraced and traced.
fn both_ways(cell: &BenchCell) -> [RunSummary; 2] {
    [false, true].map(|traced| {
        let (net, handle) = cell.build(traced);
        let out = cell.collect(net, handle);
        let m = &out.flows[0];
        (
            out.events_processed,
            serde_json::to_string(m).expect("metrics serialize"),
            m.mode_log.clone(),
        )
    })
}

fn cell_named(workload: &str, name: &str) -> BenchCell {
    workload_cells(workload, 1)
        .expect("known workload")
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("{workload} has no cell {name}"))
}

#[test]
fn traced_runs_reproduce_untraced_runs_exactly() {
    for (workload, name) in [
        ("nimbus_mix", "nimbus@48M-vs-cubic"),
        ("tcp_mix", "cubic@48M-pie15-ecn-vs-alone"),
        ("fleet_churn", "nimbus@48M-vs-fleet-poisson-l40-m20k#1"),
    ] {
        let cell = cell_named(workload, name);
        let [plain, traced] = both_ways(&cell);
        trace::take();
        assert_eq!(plain.0, traced.0, "{name}: event counts differ");
        assert_eq!(plain.1, traced.1, "{name}: SingleFlowMetrics differ");
        assert_eq!(plain.2, traced.2, "{name}: mode logs differ");
    }
    let plain = run_connection(5, 60.0, false);
    let traced = run_connection(5, 60.0, true);
    trace::take();
    assert_eq!(plain.tput_mbps.to_bits(), traced.tput_mbps.to_bits());
    assert_eq!(plain.qdelay_ms.to_bits(), traced.qdelay_ms.to_bits());
    assert_eq!(plain.detect_accuracy, traced.detect_accuracy);
    assert_eq!(plain.verdicts_held, traced.verdicts_held);
    assert_eq!(plain.mode_switches, traced.mode_switches);
}

#[test]
fn traced_nimbus_cells_still_expose_the_controller() {
    let cell = cell_named("nimbus_mix", "nimbus@48M-vs-alone");
    let (mut net, handle) = cell.build(true);
    let endpoint = net.endpoint(handle);
    assert!(
        nimbus_of(endpoint).is_some(),
        "the nimbus_of downcast must see through both wrappers"
    );
    net.run();
    trace::take();
}

#[test]
fn benchmark_cells_match_the_testkit_cells_they_come_from() {
    let matrix = paper_invariant_matrix();
    for name in ["nimbus@48M-vs-poisson50", "dctcp@48M-l4s-vs-alone"] {
        let cell = matrix
            .iter()
            .find(|c| BenchCell::from_testkit(c).name == name)
            .expect("testkit cell");
        let expected = cell.run();
        let bench = BenchCell::from_testkit(cell);
        let (net, handle) = bench.build(false);
        let out = bench.collect(net, handle);
        let outcome = bench.outcome(&out);
        assert_eq!(outcome.events, expected.events, "{name}");
        assert_eq!(
            serde_json::to_string(&outcome.metrics).unwrap(),
            serde_json::to_string(&expected.metrics).unwrap(),
            "{name}"
        );
        assert_eq!(outcome.violations, expected.violations, "{name}");
    }
}

#[test]
fn a_shifted_seed_changes_the_stochastic_cells() {
    for (workload, name) in [
        ("nimbus_mix", "nimbus@48M-vs-poisson50"),
        ("tcp_mix", "newreno@48M-vs-poisson50"),
        ("fleet_churn", "nimbus@48M-vs-fleet-poisson-l40-m20k#1"),
    ] {
        let fingerprint = |seed: u64| {
            let cell = workload_cells(workload, seed)
                .unwrap()
                .into_iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{workload} has no cell {name}"));
            let (net, handle) = cell.build(false);
            cell.outcome(&cell.collect(net, handle)).fingerprint
        };
        assert_eq!(fingerprint(1), fingerprint(1), "{name}: same seed");
        assert_ne!(fingerprint(1), fingerprint(2), "{name}: shifted seed");
    }
    assert_ne!(
        run_connection(1, 60.0, false).tput_mbps,
        run_connection(2, 60.0, false).tput_mbps,
        "core_embed: shifted seed"
    );
}

#[test]
fn verdicts_held_grow_with_connection_length() {
    // Retained heap grows with them, but the process-wide allocator counts
    // the other test threads too, so only the benchmark binary (one
    // thread) measures it.
    let held = |conn_s: f64| run_connection(3, conn_s, false).verdicts_held;
    let (short, long) = (held(60.0), held(120.0));
    assert!(
        long > short,
        "{long} verdicts after 120 s, {short} after 60 s"
    );
}

/// Counts every call the wrappers forward, defaulted methods included.
#[derive(Default)]
struct Calls(AtomicU32);

impl Calls {
    fn hit(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

struct Probe(Arc<Calls>);

impl CongestionControl for Probe {
    fn on_packet_acked(&mut self, _: &AckEvent) {
        self.0.hit();
    }
    fn on_packets_lost(&mut self, _: &LossEvent) {
        self.0.hit();
    }
    fn on_congestion_event(&mut self, _: &CongestionEvent) {
        self.0.hit();
    }
    fn on_report(&mut self, _: &Report) {
        self.0.hit();
    }
    fn cwnd_packets(&self) -> f64 {
        self.0.hit();
        7.0
    }
    fn pacing_rate_bps(&self, _: Time) -> Option<f64> {
        self.0.hit();
        Some(5e6)
    }
    fn reinitialize(&mut self, _: f64, _: f64, _: u32) {
        self.0.hit();
    }
    fn name(&self) -> &'static str {
        "probe"
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl FlowEndpoint for Probe {
    fn on_start(&mut self, _: Time) {
        self.0.hit();
    }
    fn on_ack(&mut self, _: &AckInfo) {
        self.0.hit();
    }
    fn on_tick(&mut self, _: Time) {
        self.0.hit();
    }
    fn poll_send(&mut self, _: Time) -> SendAction {
        self.0.hit();
        SendAction::Idle
    }
    fn on_packet_dropped(&mut self, _: u64, _: Time) {
        self.0.hit();
    }
    fn label(&self) -> &str {
        "probe-flow"
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[test]
fn wrappers_forward_every_method_including_the_defaulted_ones() {
    let calls = Arc::new(Calls::default());
    let mut cc = TimedCc::wrap(Box::new(Probe(calls.clone())), CcRole::Primary);
    cc.on_report(&Report {
        now_s: 0.0,
        send_rate_bps: 0.0,
        recv_rate_bps: 0.0,
        acked_bytes: 0,
        lost_packets: 0,
        rtt_s: 0.05,
        min_rtt_s: 0.05,
        window_acks: 0,
        marked_packets: 0,
        marked_bytes: 0,
    });
    assert_eq!(cc.pacing_rate_bps(Time::ZERO), Some(5e6));
    cc.reinitialize(1e6, 0.05, 1500);
    assert_eq!(cc.cwnd_packets(), 7.0);
    assert_eq!(cc.name(), "probe");
    assert!(cc
        .as_any()
        .and_then(|a| a.downcast_ref::<Probe>())
        .is_some());
    assert_eq!(calls.0.load(Ordering::Relaxed), 4);

    let mut ep = TimedEndpoint::wrap(Box::new(Probe(calls.clone())));
    ep.on_start(Time::ZERO);
    ep.on_tick(Time::ZERO);
    ep.on_packet_dropped(3, Time::ZERO);
    assert_eq!(ep.poll_send(Time::ZERO), SendAction::Idle);
    assert_eq!(ep.label(), "probe-flow");
    assert!(ep
        .as_any()
        .and_then(|a| a.downcast_ref::<Probe>())
        .is_some());
    assert_eq!(calls.0.load(Ordering::Relaxed), 8);

    let data = trace::take();
    let counted: u64 = data.tallies.iter().map(|t| t.calls).sum();
    assert_eq!(counted, 8, "every forwarded call that does work is counted");
    let timed = data.tallies.iter().filter(|t| t.hist.count() > 0).count();
    assert_eq!(timed, 6, "all but the two controller getters are timed");
}
