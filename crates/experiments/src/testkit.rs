//! Scenario-matrix test harness: declarative (scheme × cross-traffic ×
//! bottleneck × seed) cells with per-cell paper invariants.
//!
//! The paper's core claims are *qualitative behavioural invariants* — Cubic
//! bufferbloats while Vegas does not, Nimbus stays in delay mode under heavy
//! CBR cross traffic, Vegas is starved by an elastic competitor.  This module
//! pins those claims down the way TCP Prague's fall-back validation does:
//! enumerate a matrix of scenarios, run every cell (in parallel across
//! threads — each cell is an independent deterministic simulation), and
//! assert the invariants cell by cell.
//!
//! ```no_run
//! use nimbus_experiments::testkit::{paper_invariant_matrix, run_matrix};
//!
//! let outcomes = run_matrix(&paper_invariant_matrix());
//! for o in &outcomes {
//!     assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
//! }
//! ```
//!
//! Every [`CellOutcome`] also carries a fingerprint of the cell's full
//! [`Recorder`](nimbus_netsim::Recorder) snapshot, so the same matrix doubles
//! as a whole-system behaviour and determinism regression: every run must
//! reproduce the golden fingerprint table in `tests/golden/mod.rs`.

use crate::figures::{cbr_cross_flow, poisson_cross_flow, scheme_cross_flow};
use crate::runner::{
    run_scheme_vs_cross, EcnSpec, FleetSpec, LinkScheduleSpec, PathSpec, ScenarioSpec,
    SingleFlowMetrics,
};
use crate::scheme::SchemeSpec;
use nimbus_core::TcpScheme;
use nimbus_netsim::{FlowConfig, FlowEndpoint};
use serde::{Deserialize, Serialize};

/// The cross-traffic families a matrix cell can put on the bottleneck.
/// Elastic competitors carry a full [`SchemeSpec`], so any scheme the
/// algebra can express — including other Nimbus wrappers — can compete with
/// the monitored flow, alone ([`CrossTraffic::Elastic`]), in heterogeneous
/// groups ([`CrossTraffic::Mix`]), or confined to a segment of a multi-hop
/// path ([`CrossTraffic::ElasticAtHops`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CrossTraffic {
    /// No cross traffic: the monitored flow is alone on the link.
    None,
    /// Constant-bit-rate (inelastic) cross traffic at this fraction of µ.
    Cbr {
        /// Offered CBR rate as a fraction of the bottleneck rate.
        fraction_of_mu: f64,
    },
    /// Poisson (inelastic) cross traffic at this fraction of µ.
    Poisson {
        /// Mean offered rate as a fraction of the bottleneck rate.
        fraction_of_mu: f64,
    },
    /// One backlogged competitor running any scheme spec.
    Elastic {
        /// The competitor's scheme.
        spec: SchemeSpec,
    },
    /// Several backlogged competitors, one per spec (heterogeneous
    /// competition on a single bottleneck).
    Mix {
        /// The competitors' schemes, in flow order.
        specs: Vec<SchemeSpec>,
    },
    /// One backlogged competitor confined to hops `[enter_hop, exit_hop]`
    /// of a multi-hop path (e.g. elastic traffic on the non-bottleneck hop).
    ElasticAtHops {
        /// The competitor's scheme.
        spec: SchemeSpec,
        /// First hop the competitor traverses.
        enter_hop: usize,
        /// Last hop the competitor traverses (inclusive).
        exit_hop: usize,
    },
    /// An open-loop churning fleet of finite flows ([`FleetSpec`]): flows
    /// arrive Poisson/bursty, run to completion and retire.  Installed as a
    /// spawner on the scenario rather than as static flows, so it
    /// contributes no static cross-flow entries.
    Fleet {
        /// The fleet workload riding on the cell's scenario.
        spec: FleetSpec,
    },
}

impl CrossTraffic {
    /// The classic single backlogged Cubic competitor.
    pub fn elastic_cubic() -> Self {
        CrossTraffic::Elastic {
            spec: SchemeSpec::cubic(),
        }
    }

    /// Materialize the cross flows.  `link_rate_bps` is the cell's hop-0
    /// base rate (the base the `fraction_of_mu` families are quoted
    /// against, unchanged from the pre-path testkit); `scheme_mu_bps` is
    /// the nominal bottleneck rate over the hops the spec-built competitor
    /// traverses, handed to configured-µ wrappers.
    fn build(
        &self,
        link_rate_bps: f64,
        scheme_mu_bps: f64,
        seed: u64,
    ) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
        let cross_seed = seed.wrapping_mul(67).wrapping_add(11);
        match self {
            CrossTraffic::None => Vec::new(),
            // The fleet is installed as a spawner on the scenario spec
            // (see `Cell::run`), not as a static flow list.
            CrossTraffic::Fleet { .. } => Vec::new(),
            CrossTraffic::Cbr { fraction_of_mu } => vec![cbr_cross_flow(
                "cbr-cross",
                fraction_of_mu * link_rate_bps,
                0.05,
                0.0,
                None,
            )],
            CrossTraffic::Poisson { fraction_of_mu } => vec![poisson_cross_flow(
                "poisson-cross",
                fraction_of_mu * link_rate_bps,
                0.05,
                seed.wrapping_mul(31).wrapping_add(7),
                0.0,
                None,
            )],
            CrossTraffic::Elastic { spec } => vec![scheme_cross_flow(
                &format!("{}-cross", spec.label()),
                spec,
                scheme_mu_bps,
                cross_seed,
                0.05,
                0.0,
                None,
            )],
            CrossTraffic::Mix { specs } => specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    scheme_cross_flow(
                        &format!("{}-cross{i}", spec.label()),
                        spec,
                        scheme_mu_bps,
                        cross_seed.wrapping_add(i as u64),
                        0.05,
                        0.0,
                        None,
                    )
                })
                .collect(),
            CrossTraffic::ElasticAtHops {
                spec,
                enter_hop,
                exit_hop,
            } => {
                let (cfg, ep) = scheme_cross_flow(
                    &format!("{}-hop{enter_hop}-cross", spec.label()),
                    spec,
                    scheme_mu_bps,
                    cross_seed,
                    0.05,
                    0.0,
                    None,
                );
                vec![(cfg.entering_at(*enter_hop).exiting_at(*exit_hop), ep)]
            }
        }
    }

    /// A short slug for cell names.
    pub fn label(&self) -> String {
        match self {
            CrossTraffic::None => "alone".to_string(),
            CrossTraffic::Cbr { fraction_of_mu } => {
                format!("cbr{:.0}", fraction_of_mu * 100.0)
            }
            CrossTraffic::Poisson { fraction_of_mu } => {
                format!("poisson{:.0}", fraction_of_mu * 100.0)
            }
            CrossTraffic::Elastic { spec } => spec.label(),
            CrossTraffic::Mix { specs } => specs
                .iter()
                .map(SchemeSpec::label)
                .collect::<Vec<_>>()
                .join("+"),
            CrossTraffic::ElasticAtHops {
                spec, enter_hop, ..
            } => format!("{}-hop{enter_hop}", spec.label()),
            CrossTraffic::Fleet { spec } => spec.label(),
        }
    }
}

/// Bounds asserted against a cell's [`SingleFlowMetrics`].  `None` bounds are
/// not checked; every cell in a matrix should set at least one.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Invariants {
    /// Steady-state mean throughput must be at least this (Mbit/s).
    pub min_throughput_mbps: Option<f64>,
    /// Steady-state mean throughput must stay below this (Mbit/s) — for
    /// starvation claims.
    pub max_throughput_mbps: Option<f64>,
    /// Steady-state mean queueing delay must stay below this (ms).
    pub max_queue_delay_ms: Option<f64>,
    /// Steady-state mean queueing delay must be at least this (ms) — for
    /// bufferbloat claims.
    pub min_queue_delay_ms: Option<f64>,
    /// Nimbus: fraction of time in delay mode must be at least this.
    pub min_delay_mode_fraction: Option<f64>,
    /// Nimbus: fraction of time in delay mode must stay below this.
    pub max_delay_mode_fraction: Option<f64>,
    /// Nimbus with learned µ: mean relative µ-tracking error against the true
    /// schedule must stay below this.
    pub max_mu_error: Option<f64>,
    /// Nimbus: the mode log must contain at least one switch to competitive.
    pub must_enter_competitive: bool,
}

/// One (scheme × cross-traffic × bottleneck × schedule × path × seed) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scheme on the monitored flow.
    pub scheme: SchemeSpec,
    /// Cross traffic sharing the bottleneck.
    pub cross: CrossTraffic,
    /// Base bottleneck rate µ in bits/s.
    pub link_rate_bps: f64,
    /// How the bottleneck rate moves over the run.
    pub schedule: LinkScheduleSpec,
    /// Extra hops after the primary bottleneck (single-link when empty).
    pub path: PathSpec,
    /// Simulation seed.
    pub seed: u64,
    /// Run length in seconds.
    pub duration_s: f64,
    /// Start of the steady-state window used for the scalar metrics.
    pub steady_start_s: f64,
    /// ECN marking on the primary bottleneck (`ecn=` axis;
    /// [`EcnSpec::Off`] everywhere marking is not under test).
    pub ecn: EcnSpec,
    /// The invariants this cell asserts.
    pub invariants: Invariants,
}

impl Cell {
    /// `scheme@mu[-schedule][-path] vs cross (seed n)` — unique within a
    /// well-formed matrix.
    pub fn name(&self) -> String {
        let schedule = if self.schedule == LinkScheduleSpec::Constant {
            String::new()
        } else {
            format!("-{}", self.schedule.label())
        };
        format!(
            "{}@{:.0}M{}{}{}-vs-{}-seed{}",
            self.scheme.label(),
            self.link_rate_bps / 1e6,
            schedule,
            self.path.label(),
            self.ecn.label(),
            self.cross.label(),
            self.seed
        )
    }

    /// Run this cell to completion and evaluate its invariants.
    pub fn run(&self) -> CellOutcome {
        let fleet = match &self.cross {
            CrossTraffic::Fleet { spec } => Some(spec.clone()),
            _ => None,
        };
        let spec = ScenarioSpec {
            link_rate_bps: self.link_rate_bps,
            schedule: self.schedule.clone(),
            duration_s: self.duration_s,
            seed: self.seed,
            path: self.path.clone(),
            fleet,
            ecn: self.ecn,
            ..ScenarioSpec::default_96mbps(self.duration_s)
        };
        let scheme_mu = match &self.cross {
            CrossTraffic::ElasticAtHops {
                enter_hop,
                exit_hop,
                ..
            } => self
                .path
                .nominal_mu_over_hops(self.link_rate_bps, *enter_hop, Some(*exit_hop)),
            _ => spec.nominal_mu_bps(),
        };
        let cross = self.cross.build(self.link_rate_bps, scheme_mu, self.seed);
        let out = run_scheme_vs_cross(&spec, self.scheme, None, cross, self.steady_start_s);
        let events = out.events_processed;
        let sim_s = out.duration_s;
        let metrics = out.flows.into_iter().next().expect("one monitored flow");
        let violations = self.invariants.check(self.scheme, &metrics);
        let fingerprint = fingerprint_of(&out.recorder.snapshot(), &metrics);
        CellOutcome {
            name: self.name(),
            metrics,
            violations,
            fingerprint,
            events,
            sim_s,
        }
    }
}

impl Invariants {
    /// Evaluate the bounds against a cell's metrics; returns one message per
    /// violated bound (empty = cell passes).
    /// Every comparison is written so that a NaN metric (an empty measurement
    /// window — see `TimeSeries::mean_in_range`) counts as a violation rather
    /// than silently passing; the negated comparisons are exactly that intent.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn check(&self, scheme: SchemeSpec, m: &SingleFlowMetrics) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(min) = self.min_throughput_mbps {
            if !(m.mean_throughput_mbps >= min) {
                violations.push(format!(
                    "throughput {:.2} Mbit/s below floor {min}",
                    m.mean_throughput_mbps
                ));
            }
        }
        if let Some(max) = self.max_throughput_mbps {
            if !(m.mean_throughput_mbps <= max) {
                violations.push(format!(
                    "throughput {:.2} Mbit/s above ceiling {max} (starvation expected)",
                    m.mean_throughput_mbps
                ));
            }
        }
        if let Some(max) = self.max_queue_delay_ms {
            if !(m.mean_queue_delay_ms <= max) {
                violations.push(format!(
                    "queue delay {:.2} ms above ceiling {max}",
                    m.mean_queue_delay_ms
                ));
            }
        }
        if let Some(min) = self.min_queue_delay_ms {
            if !(m.mean_queue_delay_ms >= min) {
                violations.push(format!(
                    "queue delay {:.2} ms below floor {min} (bufferbloat expected)",
                    m.mean_queue_delay_ms
                ));
            }
        }
        if let Some(min) = self.min_delay_mode_fraction {
            if !(m.delay_mode_fraction >= min) {
                violations.push(format!(
                    "delay-mode fraction {:.2} below floor {min}",
                    m.delay_mode_fraction
                ));
            }
        }
        if let Some(max) = self.max_delay_mode_fraction {
            if !(m.delay_mode_fraction <= max) {
                violations.push(format!(
                    "delay-mode fraction {:.2} above ceiling {max}",
                    m.delay_mode_fraction
                ));
            }
        }
        if let Some(max) = self.max_mu_error {
            if !(m.mu_tracking_error <= max) {
                violations.push(format!(
                    "µ-tracking error {:.3} above ceiling {max}",
                    m.mu_tracking_error
                ));
            }
        }
        if self.must_enter_competitive {
            assert!(
                scheme.is_nimbus(),
                "must_enter_competitive only makes sense for Nimbus schemes"
            );
            if !m.mode_log.iter().any(|(_, mode)| mode == "competitive") {
                violations.push("never entered competitive mode".to_string());
            }
        }
        violations
    }
}

/// The result of one cell run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// `Cell::name()` of the cell that produced this outcome.
    pub name: String,
    /// The monitored flow's metrics.
    pub metrics: SingleFlowMetrics,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
    /// FNV-1a hash over the serialized recorder snapshot and metrics; two
    /// runs of the same cell must agree byte for byte.
    pub fingerprint: u64,
    /// Engine events processed by this cell's simulation.
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
}

fn fingerprint_of(recorder_snapshot: &serde::Value, metrics: &SingleFlowMetrics) -> u64 {
    let mut text = serde_json::to_string(recorder_snapshot).expect("snapshot serializes");
    text.push_str(&serde_json::to_string(metrics).expect("metrics serialize"));
    fnv1a(text.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Map `f` over `items` in parallel across up to `max_threads` worker
/// threads (each item is expected to be an independent deterministic
/// computation).  Items are handed to workers through a shared index, so a
/// slow item never idles the other workers; results come back in input order
/// regardless of completion order.
///
/// This is the work queue behind both [`run_matrix`] and the experiments
/// binary's `sweep` subcommand.
pub fn parallel_map<T, R, F>(items: &[T], max_threads: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let parallelism = max_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1)
        .min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..parallelism {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("all items ran")
        })
        .collect()
}

/// Run every cell of a matrix, in parallel across threads (each cell is an
/// independent deterministic simulation).
pub fn run_matrix(cells: &[Cell]) -> Vec<CellOutcome> {
    parallel_map(cells, None, Cell::run)
}

/// Render a one-line-per-cell report (for `--nocapture` debugging).
pub fn matrix_report(outcomes: &[CellOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&format!(
            "{:46} tput {:7.2} Mbit/s  qd {:7.2} ms  delay-frac {:.2}  {}\n",
            o.name,
            o.metrics.mean_throughput_mbps,
            o.metrics.mean_queue_delay_ms,
            o.metrics.delay_mode_fraction,
            if o.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("VIOLATIONS: {:?}", o.violations)
            }
        ));
    }
    out
}

/// The default paper-invariant matrix: the 18 legacy single-bottleneck
/// cells ([`legacy_single_bottleneck_cells`]) covering the headline claims
/// of Figs. 1/8 and Appendix D, seven multi-hop path cells
/// ([`multihop_cells`]: fixed and *moving* secondary bottlenecks, learned-µ
/// tracking the path minimum, doubly-saturated hops, elastic traffic on the
/// non-bottleneck hop), five spec-combination cells
/// ([`spec_combination_cells`]) exercising wrapper compositions the closed
/// enum could not express, the estimator-strategy cells
/// ([`estimator_cells`]) gating the regimes the pluggable µ-estimation API
/// recovers, the fleet-churn cells ([`fleet_cells`]) gating detector
/// stability and fairness under open-loop flow churn, and the ECN cells
/// ([`ecn_cells`]) gating marking queues, DCTCP and mark-driven detection.  Kept short enough
/// (~30 simulated seconds per cell) that the whole matrix runs in well
/// under two minutes of wall clock under `cargo test`.
pub fn paper_invariant_matrix() -> Vec<Cell> {
    let mut cells = legacy_single_bottleneck_cells();
    cells.extend(multihop_cells());
    cells.extend(spec_combination_cells());
    cells.extend(estimator_cells());
    cells.extend(fleet_cells());
    cells.extend(ecn_cells());
    cells
}

/// Matrix cells gating the ECN subsystem end to end: marking queues
/// (`ecn=classic` and the shallow `ecn=l4s` step profile), the DCTCP
/// scalable reaction, and the Nimbus detector's behaviour when congestion
/// is signalled by marks instead of drops or delay.
///
/// The three ROADMAP questions these answer:
///
/// 1. **Does the pulse survive a shallow-marking queue?**  Yes — under the
///    1 ms L4S step marker the standing queue Nimbus's pulses ride on is
///    tiny, but the pulses themselves live in the *rate* signal, so alone
///    on an L4S hop the flow holds delay mode at full throughput.
/// 2. **Can mark-rate cross-validate ẑ?**  Yes — against an elastic
///    competitor on a classic-ECN queue, the persistent CE fraction agrees
///    with ẑ and the controller flips to competitive well inside one FFT
///    window (the `marks` cell asserts the switch; the timing assertion
///    lives in `nimbus-core`'s controller tests).
/// 3. **Does `nimbus(competitive=dctcp)` coexist on a classic-ECN queue?**
///    Yes — against a DCTCP competitor it detects elasticity and takes a
///    fair share using the same proportional law, instead of Cubic-style
///    sawteeth against a mark-reactive peer.
pub fn ecn_cells() -> Vec<Cell> {
    vec![
        // DCTCP alone on an L4S step-marking hop: the scalable reaction
        // holds the queue near the 1 ms marking threshold — full link,
        // milliseconds of delay, zero drops (the l4s runner test pins the
        // zero-drop half).
        Cell {
            scheme: SchemeSpec::dctcp(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 61,
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::l4s(),
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(8.0),
                ..Invariants::default()
            },
        },
        // The Prague-style fall-back: the same DCTCP flow on a plain drop
        // queue (no marking anywhere) must still work — marks never arrive,
        // so the Reno-like loss reaction governs and the flow fills the
        // link behind a droptail standing queue.
        Cell {
            scheme: SchemeSpec::dctcp(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 61,
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(20.0),
                ..Invariants::default()
            },
        },
        // Classic ECN (RFC 3168 semantics, marks at the AQM's drop point):
        // Cubic keeps the link full but the once-per-window β cut now fires
        // at half buffer instead of overflow, so the bloat sits at roughly
        // half its droptail level.
        Cell {
            scheme: SchemeSpec::cubic(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 61,
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Classic,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(20.0),
                max_queue_delay_ms: Some(70.0),
                ..Invariants::default()
            },
        },
        // ROADMAP question 1 — pulse survival: Nimbus alone on the shallow
        // L4S marker.  The 1 ms step cuts the queueing-delay headroom the
        // pulses used to ride on by an order of magnitude; the detector
        // must still read its own reflection as inelastic (hold delay
        // mode) at full utilization.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 62,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::l4s(),
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(20.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        },
        // Documented finding — delay-mode Nimbus is not scalable-marking
        // compliant.  Its delay target (~12 ms of queue) sits an order of
        // magnitude above the L4S step threshold, so a DCTCP competitor
        // sees CE on every packet, cuts to its floor, and Nimbus takes the
        // link.  With the competitor crushed there is nothing elastic left
        // to detect (ẑ ≈ 0), so staying in delay mode is the *correct*
        // verdict — the unfairness is a compliance gap, not a detection
        // bug.  Pinned so a future Prague-style sub-threshold delay target
        // shows up as a deliberate threshold change.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Elastic {
                spec: SchemeSpec::dctcp(),
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 2,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::l4s(),
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                min_delay_mode_fraction: Some(0.95),
                ..Invariants::default()
            },
        },
        // ROADMAP questions 2 and 3 together — nimbus(competitive=dctcp)
        // vs DCTCP on a classic-ECN queue.  DCTCP parks the queue at the
        // marking threshold (~50 ms), far above Nimbus's delay target, so
        // the rate law yields and the FFT goes sample-starved — but unlike
        // the Cubic residual below, the marks here are *persistent*, and
        // the windowed mark fraction (counted over ACKed packets, so ACK
        // sparsity cannot masquerade as mark absence) cross-validates the
        // starved flow's own ẑ ≈ µ reading to flip the controller
        // competitive without a full FFT window.  Competitive
        // mode then speaks DCTCP's own proportional mark language and the
        // flows coexist.
        Cell {
            scheme: SchemeSpec::nimbus().with_competitive(TcpScheme::Dctcp),
            cross: CrossTraffic::Elastic {
                spec: SchemeSpec::dctcp(),
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 2,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Classic,
            invariants: Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        },
        // Documented residual: delay-mode Nimbus vs an ECT Cubic on a
        // *classic* marking queue starves and never detects.  The marking
        // point (half buffer) tames Cubic into a 35–50 ms sawtooth: deep
        // enough to sit above delay mode's operating point (so the rate law
        // yields), never deep enough for a sustained mark fraction, and the
        // starved flow's ACK stream is too sparse to fill the detector's
        // FFT window — the droptail escape hatch (the competitor's slow-
        // start overflow losses) never happens, because marks absorb them.
        // Pinned so the failure mode stays visible until detection under
        // sample starvation is addressed.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 2,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Classic,
            invariants: Invariants {
                max_throughput_mbps: Some(5.0),
                min_delay_mode_fraction: Some(0.95),
                ..Invariants::default()
            },
        },
        // DCTCP coexisting with Cubic on one classic-ECN queue: both see
        // the same marks, Cubic cuts by β while DCTCP cuts by α/2, and
        // neither starves.
        Cell {
            scheme: SchemeSpec::dctcp(),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 65,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Classic,
            invariants: Invariants {
                min_throughput_mbps: Some(15.0),
                ..Invariants::default()
            },
        },
    ]
}

/// Matrix cells gating behaviour under open-loop fleet churn (§8.1 at
/// population scale): a long-lived monitored flow shares the bottleneck
/// with a [`FleetSpec`] population that arrives, transfers and retires
/// continuously.
///
/// The headline question — does constant arrival/departure churn *read as
/// elastic* to a long-lived Nimbus flow?  Measured answer: **no**, across
/// every mixture tried (loads 0.4–0.7, mean sizes 20 kB–2 MB, Poisson and
/// bursty arrivals, several seeds the delay-mode fraction stays 1.00).
/// Individual elephants are elastic while they last, but arrivals and
/// departures reshuffle the aggregate's share faster than the detector's
/// decision window, so the cross-correlation signature of a backlogged
/// competitor never accumulates — exactly the paper's premise that typical
/// WAN cross traffic should be treated as inelastic (§2).  These cells pin
/// that stability as an invariant.
pub fn fleet_cells() -> Vec<Cell> {
    vec![
        // Detector stability: pure-mice churn (mean 20 kB — flows last a few
        // RTTs each) at 40% offered load.  Nothing in the population is
        // durably ACK-clocked, so Nimbus must hold delay mode and keep the
        // queue short while taking roughly the residual capacity.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Fleet {
                spec: FleetSpec::poisson(0.4).with_mean_flow_bytes(20_000.0),
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 51,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.8),
                ..Invariants::default()
            },
        },
        // The same churn through bursty (Pareto) arrivals: batches of
        // simultaneous mice still must not read as a backlogged competitor.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Fleet {
                spec: FleetSpec::bursty(0.4).with_mean_flow_bytes(20_000.0),
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 51,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.8),
                ..Invariants::default()
            },
        },
        // Heavy-tailed churn (default CAIDA-like mixture, 50% load): even
        // with elephants regularly in flight the detector must NOT latch
        // onto any single one — the population churns underneath it, so the
        // long-lived flow holds delay mode (measured 1.00) and keeps its
        // residual share at low delay.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Fleet {
                spec: FleetSpec::poisson(0.5),
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 52,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        },
        // The FCT-comparison partner cell: the same heavy-tailed churn
        // against a long-lived Cubic.  Churn loss keeps Cubic's window —
        // and the standing queue — far below its solo bufferbloat (measured
        // ~16 ms vs ~50+ alone), and its loss-based probing takes *less*
        // of the link than Nimbus's delay mode does under identical churn
        // (12.7 vs 23.5 Mbit/s).  `fleet_fct` quantifies the same pairing
        // from the fleet's side as FCT distributions.
        Cell {
            scheme: SchemeSpec::cubic(),
            cross: CrossTraffic::Fleet {
                spec: FleetSpec::poisson(0.5),
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 52,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(8.0),
                max_queue_delay_ms: Some(40.0),
                ..Invariants::default()
            },
        },
    ]
}

/// Matrix cells gating the µ-estimation strategy API: the two ROADMAP
/// regimes where the hardwired max-filter learned µ degrades, recovered
/// under a non-default estimator/ẑ-filter, plus a guard that the adaptive
/// thresholds do not suppress *genuine* elasticity.
pub fn estimator_cells() -> Vec<Cell> {
    vec![
        // ROADMAP regime (b): on the cellular deep-fade trace the max-filter
        // learned µ collapses to the pacing floor and deadlocks (µ̂ ≈ recv
        // rate ≈ pace ≈ 120 kbit/s, 0.12 Mbit/s throughput while BBR gets
        // ~38).  Probe-up epochs plus the delivery-informed pace/window cap
        // break the fixed point: ≥ 10 Mbit/s required (measured 14.7).
        Cell {
            scheme: SchemeSpec::nimbus().with_probing_mu(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::NamedTrace {
                name: "cellular".to_string(),
            },
            path: PathSpec::single(),
            seed: 44,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(10.0),
                ..Invariants::default()
            },
        },
        // ROADMAP regime (a): learned-µ wrappers lose delay mode on a ±10%
        // sinusoid where configured µ is stable (delay-fraction 0.07–0.25 —
        // the µ̂ error leaks the flow's own pulse into ẑ well below the
        // configured-µ cliff).  The µ-error-aware adaptive thresholds hold
        // delay mode ≥ 0.9 (measured 1.00, queueing delay 3.5 ms vs 39).
        Cell {
            scheme: SchemeSpec::nimbus()
                .with_learned_mu()
                .with_z_filter(nimbus_core::ZFilterConfig::adaptive()),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Sinusoid {
                amplitude_frac: 0.1,
                period_s: 10.0,
            },
            path: PathSpec::single(),
            seed: 43,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(35.0),
                min_delay_mode_fraction: Some(0.9),
                max_queue_delay_ms: Some(20.0),
                ..Invariants::default()
            },
        },
        // Guard: the adaptive bars must rise only for the µ̂-error *leak* —
        // against a genuine elastic Cubic competitor (which fills ẑ itself,
        // damping the scaling) the wrapper must still detect and switch.
        Cell {
            scheme: SchemeSpec::nimbus()
                .with_learned_mu()
                .with_z_filter(nimbus_core::ZFilterConfig::adaptive()),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 42,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        },
        // The probing-estimator residual, quantified: on a *stable* link the
        // 2× probe epochs repeatedly refill the bottleneck queue, so the
        // always-probing estimator pays ~73 ms of steady queueing delay
        // where plain `mu=learned` pays ~13 — delay mode's low-delay
        // objective is the price of a probe schedule the converged filter no
        // longer needs.  This cell pins that cost so the residual stays
        // visible.
        Cell {
            scheme: SchemeSpec::nimbus().with_probing_mu(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 45,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        },
        // …and recovered: with the auto-quiesce floor the probes stop once
        // the max filter converges (µ̂ uncertainty under 0.4), so on the same
        // stable link the delay cost collapses back to ~15 ms, while against
        // a genuinely elastic Cubic competitor the uncertainty stays high
        // enough that detection still works — the flow must switch to
        // competitive mode and hold a fair share (un-quiesced probe=1 never
        // switches at all: the held ẑ blanks the detector's input).
        Cell {
            scheme: SchemeSpec::nimbus().with_quiesced_probing_mu(1.0, 0.4),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 45,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(20.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        },
        Cell {
            scheme: SchemeSpec::nimbus().with_quiesced_probing_mu(1.0, 0.4),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 45,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        },
        // The flip side of that recovery, pinned as an invariant (ROADMAP
        // residual 3): what does *un*-quiesced `mu=learned(probe=1)` give
        // up against the same elastic Cubic competitor?  Detection itself.
        // The probe epochs hold ẑ at its pre-probe value, blanking the
        // detector's input, so the wrapper never classifies the competitor
        // as elastic — it reports delay mode the whole run (fraction 1.00,
        // never a switch).  It doesn't starve: the endless 2× probe epochs
        // overdrive µ̂ and the pace until the flow bulldozes Cubic off the
        // link (measured 47.7 of 48 Mbit/s) behind a ~73 ms standing queue
        // — "delay mode" in name only, with neither the low-delay objective
        // nor honest competition.  Same seed/link as the quiesce pair above,
        // so the cells differ only in the quiesce floor.
        Cell {
            scheme: SchemeSpec::nimbus().with_probing_mu(),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 45,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.95),
                ..Invariants::default()
            },
        },
        // Documented residual: the adaptive ẑ-filter rescue of learned µ on
        // the ±10% sinusoid (the second cell above) is *partial* when the
        // delay half is Copa instead of basic-delay — Copa's own rate
        // oscillation beats against the sinusoid and leaks through the
        // µ̂-error-scaled bars, so `nimbus(delay=copa, mu=learned,
        // zfilter=adaptive)` holds delay mode only ~0.74 of the run where
        // the basic-delay wrapper holds ≥ 0.9.  Pinned as a band (not a
        // floor) so the residual stays visible: an accidental fix would
        // trip the ceiling and upgrade the threshold deliberately.
        Cell {
            scheme: SchemeSpec::nimbus_copa()
                .with_learned_mu()
                .with_z_filter(nimbus_core::ZFilterConfig::adaptive()),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Sinusoid {
                amplitude_frac: 0.1,
                period_s: 10.0,
            },
            path: PathSpec::single(),
            seed: 43,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(35.0),
                min_delay_mode_fraction: Some(0.55),
                max_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        },
    ]
}

/// The 18 single-bottleneck cells that predate both the path engine and the
/// `SchemeSpec` redesign.  Their recorder fingerprints have been pinned
/// since before either refactor; with every other cell's, they are rows of
/// the golden table in `tests/golden/mod.rs`.
pub fn legacy_single_bottleneck_cells() -> Vec<Cell> {
    let mut cells = Vec::new();

    // Fig. 1a: Cubic fills the 100 ms buffer (bufferbloat) but also the link.
    for seed in [3, 11] {
        cells.push(Cell {
            scheme: SchemeSpec::cubic(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(40.0),
                ..Invariants::default()
            },
        });
    }

    // Fig. 1b: Vegas keeps the queue nearly empty at full throughput.
    for seed in [3, 11] {
        cells.push(Cell {
            scheme: SchemeSpec::vegas(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(15.0),
                ..Invariants::default()
            },
        });
    }

    // The motivating failure: Vegas starved by an elastic Cubic competitor.
    for seed in [5, 13] {
        cells.push(Cell {
            scheme: SchemeSpec::vegas(),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 40.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                max_throughput_mbps: Some(30.0),
                ..Invariants::default()
            },
        });
    }

    // Appendix D.1: Nimbus holds delay mode under 83% CBR cross traffic.
    for seed in [4, 12] {
        cells.push(Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Cbr {
                fraction_of_mu: 5.0 / 6.0,
            },
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(8.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.5),
                ..Invariants::default()
            },
        });
    }

    // Fig. 1c right half: Nimbus vs inelastic Poisson cross traffic — low
    // delay, near fair-share throughput, delay mode.
    for seed in [1, 9] {
        cells.push(Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Poisson {
                fraction_of_mu: 0.5,
            },
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.6),
                ..Invariants::default()
            },
        });
    }

    // Fig. 1c left half: Nimbus vs an elastic Cubic competitor — must detect
    // elasticity, switch to competitive mode and hold a useful share.
    for seed in [2, 10] {
        cells.push(Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        });
    }

    // Nimbus alone: nothing elastic to compete with, so it must stay in
    // delay mode and keep the queue near its small target.
    for seed in [6, 14] {
        cells.push(Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            seed,
            path: PathSpec::single(),
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(30.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        });
    }

    // Varying link, µ estimation (§4.2): a lone Nimbus flow learning µ from
    // its max receive rate must track a ±25% sinusoid within tolerance (the
    // 10-second max filter rides the upper envelope, so the mean relative
    // error against the instantaneous µ(t) stays bounded, not tiny).
    cells.push(Cell {
        scheme: SchemeSpec::nimbus_estmu(),
        cross: CrossTraffic::None,
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.25,
            period_s: 20.0,
        },
        seed: 7,
        path: PathSpec::single(),
        duration_s: 40.0,
        steady_start_s: 15.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(20.0),
            max_mu_error: Some(0.35),
            ..Invariants::default()
        },
    });

    // Varying link, detector stability: alone on a ±10% oscillating link
    // there is nothing elastic, and the oscillation (0.1 Hz) is far from the
    // pulse frequency (5 Hz) — Nimbus must hold delay mode.  (At ±25% the
    // µ-error leaks the flow's own pulse into ẑ and the detector degrades;
    // the `varying_detector` experiment quantifies that cliff.)
    cells.push(Cell {
        scheme: SchemeSpec::nimbus(),
        cross: CrossTraffic::None,
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.1,
            period_s: 10.0,
        },
        seed: 8,
        path: PathSpec::single(),
        duration_s: 40.0,
        steady_start_s: 10.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(35.0),
            max_queue_delay_ms: Some(40.0),
            min_delay_mode_fraction: Some(0.8),
            ..Invariants::default()
        },
    });

    // Varying link, rate step: Cubic and Nimbus must both follow a 96→48
    // Mbit/s step — post-step throughput near the new µ, not the old one.
    for scheme in [SchemeSpec::cubic(), SchemeSpec::nimbus()] {
        cells.push(Cell {
            scheme,
            cross: CrossTraffic::None,
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Step {
                at_s: 15.0,
                factor: 0.5,
            },
            seed: 9,
            path: PathSpec::single(),
            duration_s: 40.0,
            steady_start_s: 22.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(35.0),
                max_throughput_mbps: Some(50.0),
                ..Invariants::default()
            },
        });
    }

    cells
}

/// The cells that pin behaviour without asserting an invariant: 12 schemes
/// alone, five Nimbus flavours against Cubic, five learned-µ flavours alone,
/// learned µ against Cubic, and learned µ on a ±10% sinusoid and on the
/// cellular trace (the two regimes the non-default estimators of
/// [`estimator_cells`] recover; pinned here in their degraded state).  Their
/// fingerprints are rows of the golden table in `tests/golden/mod.rs`.
pub fn pinned_only_cells() -> Vec<Cell> {
    let nimbus = [
        "nimbus",
        "nimbus(delay=copa)",
        "nimbus(delay=vegas)",
        "nimbus(switch=never)",
        "nimbus(mu=learned)",
    ];
    let bare = [
        "cubic", "newreno", "vegas", "copa", "bbr", "vivace", "compound",
    ];
    let learned = [
        "nimbus(mu=learned)",
        "nimbus(delay=copa,mu=learned)",
        "nimbus(delay=vegas,mu=learned)",
        "nimbus(competitive=reno,mu=learned)",
        "nimbus(mu=learned,switch=never)",
    ];
    let constant = LinkScheduleSpec::Constant;
    let sinusoid = LinkScheduleSpec::Sinusoid {
        amplitude_frac: 0.1,
        period_s: 10.0,
    };
    let cellular = LinkScheduleSpec::NamedTrace {
        name: "cellular".to_string(),
    };
    // (specs, vs elastic Cubic?, µ in bit/s, schedule, seed, run s, steady from s)
    let groups = [
        (&nimbus[..], false, 48e6, &constant, 17, 20.0, 6.0),
        (&bare[..], false, 48e6, &constant, 17, 20.0, 6.0),
        (&nimbus[..], true, 96e6, &constant, 18, 25.0, 8.0),
        (&learned[..], false, 48e6, &constant, 41, 20.0, 6.0),
        (&learned[..1], true, 96e6, &constant, 42, 25.0, 8.0),
        (&learned[..1], false, 48e6, &sinusoid, 43, 30.0, 10.0),
        (&learned[..1], false, 48e6, &cellular, 44, 30.0, 10.0),
    ];
    let mut cells = Vec::new();
    for (specs, vs_cubic, link_rate_bps, schedule, seed, duration_s, steady_start_s) in groups {
        for spec in specs {
            cells.push(Cell {
                scheme: spec.parse().expect("canonical spec parses"),
                cross: if vs_cubic {
                    CrossTraffic::elastic_cubic()
                } else {
                    CrossTraffic::None
                },
                link_rate_bps,
                schedule: schedule.clone(),
                path: PathSpec::single(),
                seed,
                duration_s,
                steady_start_s,
                ecn: EcnSpec::Off,
                invariants: Invariants::default(),
            });
        }
    }
    cells
}

/// The multi-hop path cells appended to the paper-invariant matrix: a fixed
/// secondary bottleneck, a *moving* bottleneck (anti-phase steps on hops 0
/// and 1) and learned-µ tracking of the path minimum.  Split out so
/// path-focused tests can run exactly this slice of the matrix.
pub fn multihop_cells() -> Vec<Cell> {
    let mut cells = Vec::new();

    // Fixed secondary bottleneck at 60% of the base rate: the path minimum
    // (28.8 Mbit/s) caps throughput for both schemes; Cubic bufferbloats the
    // tight hop's 100 ms buffer while Nimbus (alone, nothing elastic) must
    // keep the path queues low and hold delay mode.
    cells.push(Cell {
        scheme: SchemeSpec::nimbus(),
        cross: CrossTraffic::None,
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Constant,
        path: PathSpec::with_secondary(0.6),
        seed: 21,
        duration_s: 40.0,
        steady_start_s: 10.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(20.0),
            max_throughput_mbps: Some(30.0),
            max_queue_delay_ms: Some(40.0),
            min_delay_mode_fraction: Some(0.8),
            ..Invariants::default()
        },
    });
    cells.push(Cell {
        scheme: SchemeSpec::cubic(),
        cross: CrossTraffic::None,
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Constant,
        path: PathSpec::with_secondary(0.6),
        seed: 21,
        duration_s: 40.0,
        steady_start_s: 10.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(24.0),
            max_throughput_mbps: Some(30.0),
            min_queue_delay_ms: Some(40.0),
            ..Invariants::default()
        },
    });

    // Moving bottleneck: hop 0 steps 48 → 24 Mbit/s at t = 15 s while hop 1
    // steps 24 → 48 Mbit/s — the path minimum is 24 Mbit/s throughout but the
    // hop imposing it swaps sides.  Throughput must track the (unchanged)
    // minimum across the swap, and Nimbus — alone, nothing elastic — must not
    // mistake the migrating queue for elastic cross traffic (measured stable:
    // delay-mode fraction 1.00, path queueing delay ~13 ms).
    for scheme in [SchemeSpec::cubic(), SchemeSpec::nimbus()] {
        let nimbus = scheme.is_nimbus();
        cells.push(Cell {
            scheme,
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Step {
                at_s: 15.0,
                factor: 0.5,
            },
            path: PathSpec::moving_bottleneck(0.5, 15.0),
            seed: 25,
            duration_s: 40.0,
            steady_start_s: 10.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(18.0),
                max_throughput_mbps: Some(26.0),
                min_delay_mode_fraction: if nimbus { Some(0.85) } else { None },
                max_queue_delay_ms: if nimbus { Some(40.0) } else { None },
                ..Invariants::default()
            },
        });
    }

    // Learned µ on a two-hop path whose *non*-bottleneck first hop oscillates
    // ±10%: the estimate must track the constant 28.8 Mbit/s path minimum,
    // not the noisy 48 Mbit/s first hop (which would be a ~67% error).
    // Measured tracking error is ~0; the 0.15 ceiling leaves slack while
    // still ruling out any first-hop capture.
    cells.push(Cell {
        scheme: SchemeSpec::nimbus_estmu(),
        cross: CrossTraffic::None,
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.1,
            period_s: 10.0,
        },
        path: PathSpec::with_secondary(0.6),
        seed: 27,
        duration_s: 40.0,
        steady_start_s: 15.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(18.0),
            max_mu_error: Some(0.15),
            ..Invariants::default()
        },
    });

    // Two simultaneously near-saturated hops (ROADMAP PR 3 follow-on): an
    // elastic Cubic competitor confined to hop 0 contends with Nimbus for
    // the 48 Mbit/s first hop, while hop 1 at 50% (24 Mbit/s) caps whatever
    // Nimbus wins there — at the fair hop-0 split both hops carry a standing
    // queue at once.  Nimbus must still recognize the hop-0 competition as
    // elastic and fight for (and hold) roughly the hop-1 cap.
    cells.push(Cell {
        scheme: SchemeSpec::nimbus(),
        cross: CrossTraffic::ElasticAtHops {
            spec: SchemeSpec::cubic(),
            enter_hop: 0,
            exit_hop: 0,
        },
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Constant,
        path: PathSpec::with_secondary(0.5),
        seed: 29,
        duration_s: 45.0,
        steady_start_s: 15.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(10.0),
            max_throughput_mbps: Some(26.0),
            must_enter_competitive: true,
            ..Invariants::default()
        },
    });

    // Elastic cross traffic confined to the *non*-bottleneck hop (ROADMAP
    // PR 3 follow-on): the path's nominal bottleneck is hop 1 at 60%
    // (28.8 Mbit/s), but a backlogged Cubic on hop 0 pushes Nimbus's hop-0
    // share below that — elasticity must be detected even though it never
    // touches the nominal bottleneck queue.
    cells.push(Cell {
        scheme: SchemeSpec::nimbus(),
        cross: CrossTraffic::ElasticAtHops {
            spec: SchemeSpec::cubic(),
            enter_hop: 0,
            exit_hop: 0,
        },
        link_rate_bps: 48e6,
        schedule: LinkScheduleSpec::Constant,
        path: PathSpec::with_secondary(0.6),
        seed: 31,
        duration_s: 45.0,
        steady_start_s: 15.0,
        ecn: EcnSpec::Off,
        invariants: Invariants {
            min_throughput_mbps: Some(10.0),
            max_throughput_mbps: Some(30.0),
            must_enter_competitive: true,
            ..Invariants::default()
        },
    });

    cells
}

/// Matrix cells exercising wrapper compositions the closed `Scheme` enum
/// could not express: a NewReno-competitive Nimbus, a Copa-delay wrapper
/// with runtime-learned µ, heterogeneous three-way competition, and a
/// curated built-in rate trace.  Each cell asserts paper invariants, so the
/// compositional builder path is gated on *behaviour*, not just on
/// construction succeeding.
pub fn spec_combination_cells() -> Vec<Cell> {
    vec![
        // nimbus(competitive=reno) vs an elastic Cubic competitor: the
        // wrapper must detect elasticity and the NewReno inner scheme must
        // hold a useful share of the 48 Mbit/s link.
        Cell {
            scheme: SchemeSpec::nimbus().with_competitive(TcpScheme::NewReno),
            cross: CrossTraffic::elastic_cubic(),
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 35,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(10.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        },
        // nimbus(delay=copa,mu=learned) alone: the learned µ must settle on
        // the true rate and the Copa delay mode must keep the queue near
        // empty at full throughput with nothing elastic around.  (On an
        // oscillating link every learned-µ wrapper currently loses delay
        // mode — the µ error leaks the pulse into ẑ; see ROADMAP.)
        Cell {
            scheme: SchemeSpec::nimbus_copa().with_learned_mu(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 36,
            duration_s: 40.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(20.0),
                max_mu_error: Some(0.1),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        },
        // Heterogeneous competition on one bottleneck: Nimbus vs standalone
        // Copa vs Cubic.  The Cubic competitor makes the mix elastic, so
        // Nimbus must switch and keep a useful share of the three-way split.
        Cell {
            scheme: SchemeSpec::nimbus(),
            cross: CrossTraffic::Mix {
                specs: vec![SchemeSpec::copa(), SchemeSpec::cubic()],
            },
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Constant,
            path: PathSpec::single(),
            seed: 37,
            duration_s: 45.0,
            steady_start_s: 15.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(12.0),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        },
        // A curated built-in trace (Wi-Fi-like variation): Cubic must keep
        // filling the moving pipe.
        Cell {
            scheme: SchemeSpec::cubic(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::NamedTrace {
                name: "wifi".to_string(),
            },
            path: PathSpec::single(),
            seed: 38,
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(25.0),
                ..Invariants::default()
            },
        },
        // The cellular-like trace with its deep fade: guards the
        // double-timeout go-back-N recovery (a wedged flow reads ~0 here;
        // see `tests/trace_links.rs` for the minimized repro).
        Cell {
            scheme: SchemeSpec::cubic(),
            cross: CrossTraffic::None,
            link_rate_bps: 48e6,
            schedule: LinkScheduleSpec::NamedTrace {
                name: "cellular".to_string(),
            },
            path: PathSpec::single(),
            seed: 39,
            duration_s: 30.0,
            steady_start_s: 8.0,
            ecn: EcnSpec::Off,
            invariants: Invariants {
                min_throughput_mbps: Some(15.0),
                ..Invariants::default()
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_well_formed() {
        let cells = paper_invariant_matrix();
        assert!(cells.len() >= 12, "matrix must cover at least 12 cells");
        let mut names: Vec<String> = cells.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cells.len(), "cell names must be unique");
        // Every cell asserts at least one invariant.
        for c in &cells {
            let inv = &c.invariants;
            let any = inv.min_throughput_mbps.is_some()
                || inv.max_throughput_mbps.is_some()
                || inv.max_queue_delay_ms.is_some()
                || inv.min_queue_delay_ms.is_some()
                || inv.min_delay_mode_fraction.is_some()
                || inv.max_delay_mode_fraction.is_some()
                || inv.max_mu_error.is_some()
                || inv.must_enter_competitive;
            assert!(any, "cell {} asserts nothing", c.name());
        }
    }

    #[test]
    fn invariant_checks_fire() {
        let m = SingleFlowMetrics {
            label: "x".to_string(),
            mean_throughput_mbps: 10.0,
            mean_rtt_ms: 60.0,
            median_rtt_ms: 55.0,
            mean_queue_delay_ms: 50.0,
            median_queue_delay_ms: 45.0,
            throughput_series: Vec::new(),
            queue_delay_series: Vec::new(),
            rtt_series: Vec::new(),
            rtt_samples_ms: Vec::new(),
            throughput_samples_mbps: Vec::new(),
            delay_mode_fraction: 0.4,
            mode_log: Vec::new(),
            eta_series: Vec::new(),
            mu_series: Vec::new(),
            mu_tracking_error: f64::NAN,
        };
        let inv = Invariants {
            min_throughput_mbps: Some(20.0),
            max_queue_delay_ms: Some(40.0),
            min_delay_mode_fraction: Some(0.5),
            must_enter_competitive: true,
            ..Invariants::default()
        };
        let violations = inv.check(SchemeSpec::nimbus(), &m);
        assert_eq!(violations.len(), 4, "{violations:?}");
        let ok = Invariants {
            max_throughput_mbps: Some(20.0),
            min_queue_delay_ms: Some(40.0),
            ..Invariants::default()
        };
        assert!(ok.check(SchemeSpec::cubic(), &m).is_empty());
    }

    #[test]
    #[ignore = "calibration helper, not a regression test"]
    fn calibrate_new_cells() {
        let mut cells = fleet_cells();
        cells.push(estimator_cells().pop().unwrap());
        let outcomes = run_matrix(&cells);
        println!("{}", matrix_report(&outcomes));
        for o in &outcomes {
            println!(
                "{}: competitive={} events={}",
                o.name,
                o.metrics.mode_log.iter().any(|(_, m)| m == "competitive"),
                o.events
            );
        }
    }

    #[test]
    fn fingerprints_are_order_sensitive() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
