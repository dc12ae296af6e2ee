//! The simulator workloads: which cells each one runs, and how one cell is
//! built from the experiment runner's public pieces, run, and checked.
//!
//! A cell is assembled exactly as `run_scheme_vs_cross` assembles it —
//! `ScenarioSpec::build_network`, `SchemeSpec::build_cc` inside a
//! `Sender`, the testkit's cross-traffic families, `FleetSpec::build_spawner`
//! — and finished with `run_and_collect`.  Building it here rather than
//! calling the runner lets the traced variant wrap every endpoint, every
//! controller and the spawner in the forwarding timers of [`crate::trace`].

use nimbus_core::Mode;
use nimbus_core_types::Time;
use nimbus_experiments::runner::{
    run_and_collect, EcnSpec, FleetSpec, LinkScheduleSpec, RunOutput, ScenarioSpec,
    SingleFlowMetrics,
};
use nimbus_experiments::testkit::{paper_invariant_matrix, Cell, CrossTraffic, Invariants};
use nimbus_experiments::SchemeSpec;
use nimbus_netsim::{FlowConfig, FlowEndpoint, FlowHandle, FlowSpawner, Network};
use nimbus_transport::{
    BackloggedSource, CcKind, CongestionControl, PathInfo, PoissonSource, ScriptedSource, Sender,
    SenderConfig, Source,
};

use crate::trace::{CcRole, TimedCc, TimedEndpoint, TimedSpawner};

/// One simulator cell of a workload.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Cell name without its seed (the testkit name for gated cells).
    pub name: String,
    /// The monitored flow's scheme.
    pub scheme: SchemeSpec,
    /// Cross traffic on the path.
    pub cross: CrossTraffic,
    /// Link, path, duration, seed, fleet and ECN settings.
    pub spec: ScenarioSpec,
    /// Nominal µ handed to spec-built competitors.
    pub scheme_mu_bps: f64,
    /// Start of the steady-state window.
    pub steady_start_s: f64,
    /// The testkit invariants this cell is gated on (`None`: not gated).
    pub invariants: Option<Invariants>,
}

impl BenchCell {
    /// The cell `Cell::run` would simulate, carrying the cell's invariants.
    pub fn from_testkit(cell: &Cell) -> Self {
        let mut c = Self::ungated(
            cell.scheme,
            cell.cross.clone(),
            cell.link_rate_bps,
            cell.schedule.clone(),
            cell.duration_s,
        );
        c.spec.path = cell.path.clone();
        c.spec.ecn = cell.ecn;
        c.spec.seed = cell.seed;
        c.steady_start_s = cell.steady_start_s;
        c.scheme_mu_bps = match &cell.cross {
            CrossTraffic::ElasticAtHops {
                enter_hop,
                exit_hop,
                ..
            } => cell
                .path
                .nominal_mu_over_hops(cell.link_rate_bps, *enter_hop, Some(*exit_hop)),
            _ => c.spec.nominal_mu_bps(),
        };
        c.invariants = Some(cell.invariants);
        let name = cell.name();
        c.name = name
            .rsplit_once("-seed")
            .map_or(name.clone(), |(base, _)| base.to_string());
        c
    }

    /// A single-hop cell with no invariants, on the testkit's default link
    /// (100 ms buffer, 50 ms RTT), steady state from a quarter of the run.
    pub fn ungated(
        scheme: SchemeSpec,
        cross: CrossTraffic,
        link_rate_bps: f64,
        schedule: LinkScheduleSpec,
        duration_s: f64,
    ) -> Self {
        let fleet = match &cross {
            CrossTraffic::Fleet { spec } => Some(spec.clone()),
            _ => None,
        };
        let spec = ScenarioSpec {
            link_rate_bps,
            schedule,
            fleet,
            ..ScenarioSpec::default_96mbps(duration_s)
        };
        let mut name = format!("{}@{:.0}M", scheme.label(), link_rate_bps / 1e6);
        if spec.schedule != LinkScheduleSpec::Constant {
            name.push_str(&format!("-{}", spec.schedule.label()));
        }
        name.push_str(&format!("-vs-{}", cross.label()));
        BenchCell {
            name,
            scheme,
            cross,
            scheme_mu_bps: spec.nominal_mu_bps(),
            spec,
            steady_start_s: duration_s * 0.25,
            invariants: None,
        }
    }

    /// The same cell on another simulation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Build the network with every flow and the fleet spawner installed.
    /// `traced` wraps each endpoint, controller and spawner in a timer.
    pub fn build(&self, traced: bool) -> (Network, FlowHandle) {
        let wrap_cc = |cc: Box<dyn CongestionControl>, role| {
            if traced {
                TimedCc::wrap(cc, role)
            } else {
                cc
            }
        };
        let wrap_ep = |ep: Box<dyn FlowEndpoint>| {
            if traced {
                TimedEndpoint::wrap(ep)
            } else {
                ep
            }
        };
        let spec = &self.spec;
        assert!(
            spec.cross_flows.is_empty(),
            "benchmark cells describe cross traffic through `cross`"
        );
        let mut net = spec.build_network();
        let label = self.scheme.label();
        let primary: Box<dyn FlowEndpoint> = Box::new(Sender::new(
            SenderConfig::labelled(&label),
            wrap_cc(
                self.scheme.build_cc(spec.nominal_mu_bps(), spec.seed, None),
                CcRole::Primary,
            ),
            Box::new(BackloggedSource),
        ));
        let primary_ecn = self.scheme.uses_ecn() || spec.ecn.is_enabled();
        let handle = net.add_flow(
            FlowConfig::primary(&label, Time::from_secs_f64(spec.prop_rtt_s)).with_ecn(primary_ecn),
            wrap_ep(primary),
        );
        for (mut cfg, ep) in self.cross_flows(&wrap_cc) {
            if spec.ecn.is_enabled() {
                cfg = cfg.with_ecn(true);
            }
            net.add_flow(cfg, wrap_ep(ep));
        }
        if let Some(fleet) = &spec.fleet {
            let spawner: Box<dyn FlowSpawner> =
                Box::new(fleet.build_spawner(spec.link_rate_bps, spec.duration_s, spec.seed));
            net.add_spawner(if traced {
                TimedSpawner::wrap(spawner)
            } else {
                spawner
            });
        }
        (net, handle)
    }

    /// The testkit's cross-traffic families, built flow for flow as its
    /// (private) `CrossTraffic::build` builds them, with each controller
    /// passed through `wrap_cc`.
    fn cross_flows(
        &self,
        wrap_cc: &dyn Fn(Box<dyn CongestionControl>, CcRole) -> Box<dyn CongestionControl>,
    ) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
        let rate = self.spec.link_rate_bps;
        let seed = self.spec.seed;
        let cross_seed = seed.wrapping_mul(67).wrapping_add(11);
        let rtt = Time::from_secs_f64(0.05);
        let inelastic = |label: &str, source: Box<dyn Source>| {
            let cfg = FlowConfig::cross(label, rtt, false).starting_at(Time::ZERO);
            let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
                SenderConfig::labelled(label),
                wrap_cc(CcKind::Unlimited.build(&PathInfo::new(1500)), CcRole::Cross),
                source,
            ));
            (cfg, ep)
        };
        let backlogged = |label: String, spec: &SchemeSpec, cc_seed: u64| {
            let cfg = FlowConfig::cross(&label, rtt, spec.is_elastic())
                .with_ecn(spec.uses_ecn())
                .starting_at(Time::ZERO)
                .entering_at(0);
            let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
                SenderConfig::labelled(&label),
                wrap_cc(
                    spec.build_cc(self.scheme_mu_bps, cc_seed, None),
                    CcRole::Cross,
                ),
                Box::new(BackloggedSource),
            ));
            (cfg, ep)
        };
        match &self.cross {
            CrossTraffic::None | CrossTraffic::Fleet { .. } => Vec::new(),
            CrossTraffic::Cbr { fraction_of_mu } => vec![inelastic(
                "cbr-cross",
                Box::new(ScriptedSource::constant(fraction_of_mu * rate)),
            )],
            CrossTraffic::Poisson { fraction_of_mu } => vec![inelastic(
                "poisson-cross",
                Box::new(PoissonSource::new(
                    fraction_of_mu * rate,
                    1500,
                    seed.wrapping_mul(31).wrapping_add(7),
                )),
            )],
            CrossTraffic::Elastic { spec } => {
                vec![backlogged(
                    format!("{}-cross", spec.label()),
                    spec,
                    cross_seed,
                )]
            }
            CrossTraffic::Mix { specs } => specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    backlogged(
                        format!("{}-cross{i}", spec.label()),
                        spec,
                        cross_seed.wrapping_add(i as u64),
                    )
                })
                .collect(),
            CrossTraffic::ElasticAtHops {
                spec,
                enter_hop,
                exit_hop,
            } => {
                let (cfg, ep) = backlogged(
                    format!("{}-hop{enter_hop}-cross", spec.label()),
                    spec,
                    cross_seed,
                );
                vec![(cfg.entering_at(*enter_hop).exiting_at(*exit_hop), ep)]
            }
        }
    }

    /// Run a built network to completion and collect the monitored flow.
    pub fn collect(&self, net: Network, handle: FlowHandle) -> RunOutput {
        run_and_collect(net, &[(handle, self.scheme)], self.steady_start_s)
    }

    /// Everything the benchmark reads from one finished run.
    pub fn outcome(&self, out: &RunOutput) -> CellOutcome {
        let metrics = out.flows.first().expect("one monitored flow").clone();
        let violations = self
            .invariants
            .map(|inv| inv.check(self.scheme, &metrics))
            .unwrap_or_default();
        let detect_accuracy = self
            .scheme
            .is_nimbus()
            .then(|| detect_accuracy(out, &metrics, self.steady_start_s));
        let mut text = serde_json::to_string(&metrics).expect("metrics serialize");
        text.push_str(&format!("{:?}", out.recorder.fct_stream()));
        text.push_str(&format!("events={}", out.events_processed));
        CellOutcome {
            events: out.events_processed,
            sim_s: out.duration_s,
            drops: out.recorder.hop_dropped_packets.iter().sum(),
            marks: out.recorder.hop_marked_packets.iter().sum(),
            fcts: out.recorder.fct_stream().to_vec(),
            detect_accuracy,
            violations,
            fingerprint: fnv1a(text.as_bytes()),
            metrics,
        }
    }
}

/// What one run of a cell produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Engine events processed.
    pub events: u64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Packets dropped over every hop.
    pub drops: u64,
    /// CE marks over every hop.
    pub marks: u64,
    /// `(size_bytes, fct_s)` of every finite flow that completed (and, in
    /// a fleet, retired).
    pub fcts: Vec<(u64, f64)>,
    /// Share of steady-state intervals in which Nimbus's mode matched the
    /// ground truth (`None` for non-Nimbus schemes).
    pub detect_accuracy: Option<f64>,
    /// Invariant violations (empty when the cell passes or is not gated).
    pub violations: Vec<String>,
    /// Hash of the monitored flow's metrics, the FCT stream and the event
    /// count: two runs of one seed must agree on it.
    pub fingerprint: u64,
    /// The monitored flow's metrics.
    pub metrics: SingleFlowMetrics,
}

/// The share of the recorder's steady-state sampling intervals in which the
/// monitored Nimbus flow's mode matched the ground truth: competitive while
/// most cross-traffic bytes were elastic (`Recorder::elastic_fraction` above
/// one half), delay mode otherwise.
pub fn detect_accuracy(out: &RunOutput, metrics: &SingleFlowMetrics, steady_start_s: f64) -> f64 {
    let truth = &out.recorder.elastic_fraction;
    let mut log = metrics.mode_log.iter().peekable();
    let mut mode = Mode::Delay;
    let (mut hits, mut n) = (0u64, 0u64);
    for (&t, &frac) in truth.t.iter().zip(truth.v.iter()) {
        while let Some((_, m)) = log.next_if(|(at, _)| *at <= t) {
            mode = if m == "competitive" {
                Mode::Competitive
            } else {
                Mode::Delay
            };
        }
        if t < steady_start_s {
            continue;
        }
        let expected = if frac > 0.5 {
            Mode::Competitive
        } else {
            Mode::Delay
        };
        n += 1;
        hits += u64::from(mode == expected);
    }
    if n == 0 {
        f64::NAN
    } else {
        hits as f64 / n as f64
    }
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64: the benchmark's seed mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation seed of cell `index` under benchmark seed `seed`.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ splitmix64(index as u64 + 1)) % 1_000_000 + 1
}

fn testkit_cells(names: &[&str]) -> Vec<BenchCell> {
    let all: Vec<BenchCell> = paper_invariant_matrix()
        .iter()
        .map(BenchCell::from_testkit)
        .collect();
    names
        .iter()
        .map(|name| {
            all.iter()
                .find(|c| c.name == *name)
                .unwrap_or_else(|| panic!("testkit has no cell named {name}"))
                .clone()
        })
        .collect()
}

/// `nimbus_mix`: Nimbus against every cross-traffic class of the paper
/// (none, CBR, Poisson; Cubic, and Reno as Nimbus's competitive mode), on
/// constant, sinusoid and step links, one two-hop path, a learned-µ variant
/// and a `delay=copa` variant — all gated testkit cells.
pub fn nimbus_mix() -> Vec<BenchCell> {
    testkit_cells(&[
        "nimbus@48M-vs-alone",
        "nimbus@96M-vs-cbr83",
        "nimbus@48M-vs-poisson50",
        "nimbus@48M-vs-cubic",
        "nimbus-reno@48M-vs-cubic",
        "nimbus@48M-sin10p10-vs-alone",
        "nimbus@96M-step50@15-vs-alone",
        "nimbus@48M-2hop60-vs-alone",
        "nimbus-estmu@48M-sin25p20-vs-alone",
        "nimbus-copa-estmu@48M-vs-alone",
    ])
}

/// `tcp_mix`: the same scenario shapes with a non-Nimbus monitored flow —
/// the gated Cubic, Vegas and DCTCP cells plus ungated Reno, BBR and Copa
/// cells and Cubic on a classic-ECN PIE queue.
pub fn tcp_mix() -> Vec<BenchCell> {
    let mut cells = testkit_cells(&[
        "cubic@48M-vs-alone",
        "vegas@96M-vs-cubic",
        "cubic@96M-step50@15-vs-alone",
        "cubic@48M-2hop60-vs-alone",
        "dctcp@48M-l4s-vs-alone",
        "cubic@48M-ecn-vs-alone",
    ]);
    cells.push(BenchCell::ungated(
        SchemeSpec::newreno(),
        CrossTraffic::Poisson {
            fraction_of_mu: 0.5,
        },
        48e6,
        LinkScheduleSpec::Constant,
        30.0,
    ));
    cells.push(BenchCell::ungated(
        SchemeSpec::bbr(),
        CrossTraffic::Cbr {
            fraction_of_mu: 0.5,
        },
        48e6,
        LinkScheduleSpec::Constant,
        30.0,
    ));
    cells.push(BenchCell::ungated(
        SchemeSpec::copa(),
        CrossTraffic::None,
        48e6,
        LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.1,
            period_s: 10.0,
        },
        30.0,
    ));
    let mut pie = BenchCell::ungated(
        SchemeSpec::cubic(),
        CrossTraffic::None,
        48e6,
        LinkScheduleSpec::Constant,
        30.0,
    );
    pie.spec.pie_target_s = Some(0.015);
    pie.spec.ecn = EcnSpec::Classic;
    pie.name = "cubic@48M-pie15-ecn-vs-alone".to_string();
    cells.push(pie);
    cells
}

/// `fleet_churn`: the sweep's fleet cell (Nimbus beside an open-loop
/// Poisson fleet at 50% load on 1 Gbit/s, 15 s) and the 48 Mbit/s
/// mice-only churn cell, each in several instances on their own seeds:
/// heavy-tailed arrivals make one realization's throughput swing by ±15%,
/// so a run averages over several.
pub fn fleet_churn() -> Vec<BenchCell> {
    let big = BenchCell::ungated(
        SchemeSpec::nimbus(),
        CrossTraffic::Fleet {
            spec: FleetSpec::poisson(0.5),
        },
        1e9,
        LinkScheduleSpec::Constant,
        15.0,
    );
    let mice = testkit_cells(&["nimbus@48M-vs-fleet-poisson-l40-m20k"]).remove(0);
    let instances = |cell: &BenchCell, n: usize| -> Vec<BenchCell> {
        (1..=n)
            .map(|i| {
                let mut c = cell.clone();
                c.name = format!("{}#{i}", cell.name);
                c
            })
            .collect()
    };
    let mut cells = instances(&big, 3);
    cells.extend(instances(&mice, 16));
    cells
}

/// The cells of a simulator workload, seeded from the benchmark seed.
pub fn workload_cells(workload: &str, seed: u64) -> Option<Vec<BenchCell>> {
    let cells = match workload {
        "nimbus_mix" => nimbus_mix(),
        "tcp_mix" => tcp_mix(),
        "fleet_churn" => fleet_churn(),
        _ => return None,
    };
    Some(
        cells
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.with_seed(cell_seed(seed, i)))
            .collect(),
    )
}

/// Cells whose outputs depend on the simulation seed: Poisson cross
/// traffic, a fleet, or a randomized queue or loss model.  Every other cell
/// simulates the same run on every seed.
pub fn is_stochastic(cell: &BenchCell) -> bool {
    matches!(
        cell.cross,
        CrossTraffic::Poisson { .. } | CrossTraffic::Fleet { .. }
    ) || cell.spec.pie_target_s.is_some()
        || cell.spec.loss_probability > 0.0
}
