//! Scenario construction and post-run metric extraction shared by every figure.

use crate::scheme::{ParseSchemeError, SchemeSpec};
use nimbus_core::{Mode, MultiflowConfig, NimbusController};
use nimbus_netsim::{
    EcnMarking, FlowConfig, FlowEndpoint, FlowHandle, LinkConfig, LossModel, Network, QueueKind,
    RateSchedule, Recorder, SimConfig, Time,
};
use nimbus_traffic::fleet::{ArrivalProcess, FleetSpawner, FleetWorkloadConfig};
use nimbus_traffic::FlowSizeDistribution;
use nimbus_transport::{BackloggedSource, CcKind, Sender, SenderConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How the bottleneck rate moves over a scenario, expressed relative to the
/// scenario's base `link_rate_bps` so the same shape can be swept across
/// link rates.  Converted to a concrete [`RateSchedule`] at network-build
/// time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkScheduleSpec {
    /// The classic fixed-rate link.
    Constant,
    /// One step to `factor·base` at `at_s` seconds.
    Step {
        /// When the step happens, seconds.
        at_s: f64,
        /// New rate as a fraction of the base rate.
        factor: f64,
    },
    /// An arbitrary staircase: at each `(t_s, factor)` the rate becomes
    /// `factor·base`.
    Steps {
        /// Sorted `(time_s, factor_of_base)` transitions.
        steps: Vec<(f64, f64)>,
    },
    /// `µ(t) = base·(1 + amplitude_frac·sin(2π·t/period_s))`.
    Sinusoid {
        /// Peak deviation as a fraction of the base rate.
        amplitude_frac: f64,
        /// Oscillation period, seconds.
        period_s: f64,
    },
    /// A trace of rate factors applied every `interval_s`, repeating.
    Trace {
        /// Duration of each trace sample, seconds.
        interval_s: f64,
        /// Per-interval rates as fractions of the base rate.
        factors: Vec<f64>,
    },
    /// One of the curated built-in traces shipped with the simulator
    /// ([`RateSchedule::builtin_trace`]): `cellular`, `wifi`, `step-outage`.
    NamedTrace {
        /// The built-in trace's name.
        name: String,
    },
    /// An external Mahimahi-format packet-delivery trace loaded from disk
    /// ([`RateSchedule::from_mahimahi_file`]).  Unlike every other family
    /// the trace carries *absolute* rates — the scenario's base rate does
    /// not scale it (it still sizes delay-specified buffers and is handed
    /// to configured-µ schemes as the nominal rate).
    TraceFile {
        /// Path to the trace file (one millisecond timestamp per line).
        path: String,
    },
}

impl LinkScheduleSpec {
    /// Materialize the schedule against a concrete base rate.
    pub fn to_schedule(&self, base_bps: f64) -> RateSchedule {
        match self {
            LinkScheduleSpec::Constant => RateSchedule::constant(base_bps),
            LinkScheduleSpec::Step { at_s, factor } => {
                RateSchedule::step(base_bps, Time::from_secs_f64(*at_s), factor * base_bps)
            }
            LinkScheduleSpec::Steps { steps } => RateSchedule::Steps {
                initial_bps: base_bps,
                steps: steps
                    .iter()
                    .map(|&(t_s, f)| (Time::from_secs_f64(t_s), f * base_bps))
                    .collect(),
            },
            LinkScheduleSpec::Sinusoid {
                amplitude_frac,
                period_s,
            } => RateSchedule::sinusoid(base_bps, *amplitude_frac, Time::from_secs_f64(*period_s)),
            LinkScheduleSpec::Trace {
                interval_s,
                factors,
            } => RateSchedule::trace(
                Time::from_secs_f64(*interval_s),
                factors.iter().map(|f| f * base_bps).collect(),
                true,
            ),
            LinkScheduleSpec::NamedTrace { name } => RateSchedule::builtin_trace(name, base_bps)
                .unwrap_or_else(|| {
                    panic!(
                        "unknown built-in trace `{name}` (available: {})",
                        RateSchedule::builtin_trace_names().join(", ")
                    )
                }),
            LinkScheduleSpec::TraceFile { path } => RateSchedule::from_mahimahi_file(path)
                .unwrap_or_else(|e| panic!("cannot load mahimahi trace: {e}")),
        }
    }

    /// A short slug for cell/result names (`const`, `step50@15`, `sin25p10`, …).
    pub fn label(&self) -> String {
        match self {
            LinkScheduleSpec::Constant => "const".to_string(),
            LinkScheduleSpec::Step { at_s, factor } => {
                format!("step{:.0}@{at_s:.0}", factor * 100.0)
            }
            LinkScheduleSpec::Steps { steps } => format!("steps{}", steps.len()),
            LinkScheduleSpec::Sinusoid {
                amplitude_frac,
                period_s,
            } => format!("sin{:.0}p{period_s:.0}", amplitude_frac * 100.0),
            LinkScheduleSpec::Trace { factors, .. } => format!("trace{}", factors.len()),
            LinkScheduleSpec::NamedTrace { name } => format!("trace-{name}"),
            LinkScheduleSpec::TraceFile { path } => {
                let stem = std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "file".to_string());
                format!("mm-{stem}")
            }
        }
    }
}

/// The `ecn=` axis of the scenario grammar: whether — and how — a hop marks
/// ECT packets instead of dropping them.
///
/// ```text
/// ecn=off            no marking (the default; ECN-capable flows are inert)
/// ecn=classic        RFC 3168-style marking at the AQM's drop points
/// ecn=l4s            L4S step marking at a 1 ms sojourn threshold (RFC 9331)
/// ecn=step(5ms)      step marking at an explicit sojourn threshold
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EcnSpec {
    /// No marking; ECT packets are treated exactly like NotEct ones.
    #[default]
    Off,
    /// Classic ECN: mark ECT packets where the queue would have dropped.
    Classic,
    /// L4S-style step marking at a sojourn-time threshold (seconds).
    Step {
        /// Queue sojourn above which every ECT packet is marked, seconds.
        threshold_s: f64,
    },
}

impl EcnSpec {
    /// The L4S profile: step marking at the RFC 9331-recommended 1 ms.
    pub fn l4s() -> Self {
        EcnSpec::Step { threshold_s: 0.001 }
    }

    /// Whether any marking is configured.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, EcnSpec::Off)
    }

    /// The netsim queue-level marking profile this spec materializes to.
    pub fn to_marking(&self) -> EcnMarking {
        match *self {
            EcnSpec::Off => EcnMarking::None,
            EcnSpec::Classic => EcnMarking::Classic,
            EcnSpec::Step { threshold_s } => EcnMarking::Step { threshold_s },
        }
    }

    /// A short slug for cell names: empty when off, `-ecn`, `-l4s`, or
    /// `-step<ms>ms`.
    pub fn label(&self) -> String {
        match *self {
            EcnSpec::Off => String::new(),
            EcnSpec::Classic => "-ecn".to_string(),
            EcnSpec::Step { threshold_s: 0.001 } => "-l4s".to_string(),
            EcnSpec::Step { threshold_s } => format!("-step{}ms", threshold_s * 1000.0),
        }
    }
}

impl fmt::Display for EcnSpec {
    /// Canonical re-parseable form: `off`, `classic`, `l4s` (the 1 ms step),
    /// or `step(<ms>ms)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EcnSpec::Off => write!(f, "off"),
            EcnSpec::Classic => write!(f, "classic"),
            EcnSpec::Step { threshold_s: 0.001 } => write!(f, "l4s"),
            EcnSpec::Step { threshold_s } => write!(f, "step({}ms)", threshold_s * 1000.0),
        }
    }
}

impl FromStr for EcnSpec {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "off" | "none" => return Ok(EcnSpec::Off),
            "classic" | "ecn" => return Ok(EcnSpec::Classic),
            "l4s" => return Ok(EcnSpec::l4s()),
            _ => {}
        }
        if let Some(rest) = t.strip_prefix("step(") {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseSchemeError(format!("`{s}` is missing the closing `)`")))?;
            let inner = inner.trim();
            let (num, scale) = if let Some(v) = inner.strip_suffix("ms") {
                (v, 1e-3)
            } else if let Some(v) = inner.strip_suffix('s') {
                (v, 1.0)
            } else {
                (inner, 1.0)
            };
            let v: f64 = num.trim().parse().map_err(|_| {
                ParseSchemeError(format!(
                    "invalid step threshold `{inner}` (expected e.g. step(1ms) or step(0.005s))"
                ))
            })?;
            if !(v > 0.0 && v.is_finite()) {
                return Err(ParseSchemeError(format!(
                    "step threshold `{inner}` must be a positive duration"
                )));
            }
            return Ok(EcnSpec::Step {
                threshold_s: v * scale,
            });
        }
        Err(ParseSchemeError(format!(
            "unknown ecn mode `{s}` (expected off, classic, l4s, or step(<ms>ms))"
        )))
    }
}

impl Serialize for EcnSpec {
    /// Serialized as the canonical `ecn=` string.
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for EcnSpec {
    /// Deserialized from the canonical string; `null` (a field absent from
    /// pre-ECN serialized scenarios) reads as `Off`.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(EcnSpec::Off),
            serde::Value::Str(s) => s.parse().map_err(|e: ParseSchemeError| serde::Error(e.0)),
            other => Err(serde::Error(format!(
                "expected ecn spec string, got {other:?}"
            ))),
        }
    }
}

/// One additional hop appended after the scenario's primary (hop-0)
/// bottleneck, described relative to the scenario's base `link_rate_bps` so
/// the same path shape can be swept across link rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopSpec {
    /// The hop's base rate as a fraction of the scenario's `link_rate_bps`
    /// (< 1.0 makes this hop the path's bottleneck).
    pub rate_factor: f64,
    /// How the hop's rate moves over the run, materialized against
    /// `rate_factor·link_rate_bps`.
    pub schedule: LinkScheduleSpec,
    /// Buffer size in seconds of this hop's line rate (drop-tail).
    pub buffer_s: f64,
    /// Propagation delay from the previous hop's output to this hop, seconds.
    pub prop_delay_s: f64,
    /// Whether this hop marks ECT packets instead of dropping (`ecn=` axis).
    pub ecn: EcnSpec,
}

impl HopSpec {
    /// A constant-rate drop-tail hop at `rate_factor·base` with 100 ms of
    /// buffering and 10 ms of upstream propagation.
    pub fn constant(rate_factor: f64) -> Self {
        HopSpec {
            rate_factor,
            schedule: LinkScheduleSpec::Constant,
            buffer_s: 0.1,
            prop_delay_s: 0.01,
            ecn: EcnSpec::Off,
        }
    }

    /// Replace the hop's schedule (builder style).
    pub fn with_schedule(mut self, schedule: LinkScheduleSpec) -> Self {
        self.schedule = schedule;
        self
    }

    /// Mark instead of dropping on this hop (builder style).
    pub fn with_ecn(mut self, ecn: EcnSpec) -> Self {
        self.ecn = ecn;
        self
    }
}

/// The shape of the forward path beyond the primary bottleneck: a (possibly
/// empty) chain of extra hops the packets traverse after hop 0.  The default
/// — no extra hops — is the paper's single-bottleneck dumbbell, and every
/// pre-path scenario is exactly a `PathSpec::single()` path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PathSpec {
    /// Hops appended after the primary bottleneck, in path order.
    pub extra_hops: Vec<HopSpec>,
}

impl PathSpec {
    /// The classic single-bottleneck path.
    pub fn single() -> Self {
        PathSpec::default()
    }

    /// A two-hop path with a constant secondary bottleneck at
    /// `rate_factor·link_rate_bps` downstream of the primary hop.
    pub fn with_secondary(rate_factor: f64) -> Self {
        PathSpec {
            extra_hops: vec![HopSpec::constant(rate_factor)],
        }
    }

    /// A two-hop *moving-bottleneck* path: at `swap_at_s` the primary hop
    /// steps down to `low_factor·base` while the secondary hop — which
    /// started at `low_factor·base` — steps up to full rate.  The path's
    /// minimum rate is `low_factor·base` throughout, but the hop imposing it
    /// changes, which is exactly the regime a single-link simulator cannot
    /// express.
    pub fn moving_bottleneck(low_factor: f64, swap_at_s: f64) -> Self {
        PathSpec {
            extra_hops: vec![HopSpec {
                rate_factor: low_factor,
                schedule: LinkScheduleSpec::Step {
                    at_s: swap_at_s,
                    factor: 1.0 / low_factor,
                },
                buffer_s: 0.1,
                prop_delay_s: 0.01,
                ecn: EcnSpec::Off,
            }],
        }
    }

    /// Total number of hops including the primary bottleneck.
    pub fn hop_count(&self) -> usize {
        1 + self.extra_hops.len()
    }

    /// The nominal bottleneck rate seen by a flow traversing hops
    /// `[enter, exit]` of this path (inclusive; `None` = the path's tail):
    /// the minimum base rate over exactly those hops.  Hop 0 is the primary
    /// bottleneck at `link_rate_bps`.
    pub fn nominal_mu_over_hops(
        &self,
        link_rate_bps: f64,
        enter: usize,
        exit: Option<usize>,
    ) -> f64 {
        let last = exit
            .unwrap_or(self.extra_hops.len())
            .min(self.extra_hops.len());
        let mut mu = f64::INFINITY;
        for hop in enter..=last {
            let rate = if hop == 0 {
                link_rate_bps
            } else {
                self.extra_hops[hop - 1].rate_factor * link_rate_bps
            };
            mu = mu.min(rate);
        }
        if mu.is_finite() {
            mu
        } else {
            link_rate_bps
        }
    }

    /// A short slug for cell/result names: empty for a single hop, otherwise
    /// e.g. `-2hop60` (two hops, tightest extra hop at 60% of base).
    pub fn label(&self) -> String {
        if self.extra_hops.is_empty() {
            return String::new();
        }
        let tightest = self
            .extra_hops
            .iter()
            .map(|h| h.rate_factor)
            .fold(f64::INFINITY, f64::min);
        let moving = self
            .extra_hops
            .iter()
            .any(|h| h.schedule != LinkScheduleSpec::Constant);
        format!(
            "-{}hop{:.0}{}",
            self.hop_count(),
            tightest * 100.0,
            if moving { "mv" } else { "" }
        )
    }
}

/// One cross-traffic flow described entirely by a [`SchemeSpec`], so a
/// scenario can place *any* scheme — a bare CCA, a CBR aggregate, or another
/// Nimbus wrapper — in competition with the monitored flow, on any segment
/// of the path.  This is what makes heterogeneous-competition scenarios
/// (e.g. nimbus vs. standalone Copa vs. Cubic on one bottleneck)
/// declarative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossFlowSpec {
    /// The scheme this flow runs.
    pub scheme: SchemeSpec,
    /// Flow label; defaults to `<scheme-label>-cross<index>`.
    pub label: Option<String>,
    /// When the flow starts, seconds.
    pub start_s: f64,
    /// When the application goes away, seconds (`None` = whole run).
    pub stop_s: Option<f64>,
    /// Propagation RTT, seconds.
    pub rtt_s: f64,
    /// The hop this flow enters the path at.
    pub entry_hop: usize,
    /// The last hop this flow traverses (`None` = the path's tail).
    pub exit_hop: Option<usize>,
    /// Whether this flow negotiates ECN (sets ECT on its packets).  `None`
    /// means automatic: ECN-native schemes (`dctcp`,
    /// `nimbus(competitive=dctcp)`) negotiate it, everything else follows
    /// the scenario's `ecn=` axis.
    pub ecn: Option<bool>,
}

impl CrossFlowSpec {
    /// A backlogged cross flow running `scheme` for the whole run on the
    /// whole path, 50 ms RTT.
    pub fn new(scheme: SchemeSpec) -> Self {
        CrossFlowSpec {
            scheme,
            label: None,
            start_s: 0.0,
            stop_s: None,
            rtt_s: 0.05,
            entry_hop: 0,
            exit_hop: None,
            ecn: None,
        }
    }

    /// Force ECN negotiation on or off for this flow (builder style).
    pub fn with_ecn(mut self, ecn: bool) -> Self {
        self.ecn = Some(ecn);
        self
    }

    /// Set the start time (builder style).
    pub fn starting_at(mut self, start_s: f64) -> Self {
        self.start_s = start_s;
        self
    }

    /// Stop the flow at `stop_s` (builder style).
    pub fn stopping_at(mut self, stop_s: f64) -> Self {
        self.stop_s = Some(stop_s);
        self
    }

    /// Confine the flow to hops `[enter, exit]` of the path (builder style).
    pub fn on_hops(mut self, enter: usize, exit: usize) -> Self {
        self.entry_hop = enter;
        self.exit_hop = Some(exit);
        self
    }

    /// Override the flow label (builder style).
    pub fn labelled(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self
    }

    /// Materialize the flow against a scenario (`mu_bps` is the path's
    /// nominal bottleneck rate, for Nimbus wrappers with configured µ).
    pub fn build(
        &self,
        index: usize,
        mu_bps: f64,
        seed: u64,
    ) -> (FlowConfig, Box<dyn FlowEndpoint>) {
        let label = self
            .label
            .clone()
            .unwrap_or_else(|| format!("{}-cross{index}", self.scheme.label()));
        let cc_seed = seed.wrapping_mul(193).wrapping_add(index as u64);
        self.build_labelled(&label, mu_bps, cc_seed)
    }

    /// [`CrossFlowSpec::build`] with the label and controller seed fully
    /// resolved by the caller — the single engine behind every
    /// spec-described cross flow (the testkit's `CrossTraffic` families
    /// delegate here too, via `figures::scheme_cross_flow`).
    pub fn build_labelled(
        &self,
        label: &str,
        mu_bps: f64,
        cc_seed: u64,
    ) -> (FlowConfig, Box<dyn FlowEndpoint>) {
        let mut sender_cfg = SenderConfig::labelled(label);
        if let Some(stop) = self.stop_s {
            sender_cfg = sender_cfg.stopping_at(Time::from_secs_f64(stop));
        }
        let mut cfg = FlowConfig::cross(
            label,
            Time::from_secs_f64(self.rtt_s),
            self.scheme.is_elastic(),
        )
        .with_ecn(self.ecn.unwrap_or_else(|| self.scheme.uses_ecn()))
        .starting_at(Time::from_secs_f64(self.start_s))
        .entering_at(self.entry_hop);
        if let Some(exit) = self.exit_hop {
            cfg = cfg.exiting_at(exit);
        }
        let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
            sender_cfg,
            self.scheme.build_cc(mu_bps, cc_seed, None),
            Box::new(BackloggedSource),
        ));
        (cfg, ep)
    }
}

/// An open-loop fleet workload riding on a scenario: a churning population
/// of finite flows (Poisson or bursty arrivals × heavy-tailed sizes) offered
/// at a fraction of the base link rate.  This is the `arrivals=`/`load=`
/// axis of the scenario grammar:
///
/// ```text
/// fleet(arrivals=poisson,load=0.5)
/// fleet(arrivals=bursty(alpha=1.5),load=0.3,mean=50k,cc=reno)
/// ```
///
/// Materialized into a [`FleetSpawner`] at network-build time; flows spawn
/// at their arrival instants and retire on completion, so the run only pays
/// for the concurrently active population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Interarrival process (`arrivals=poisson|bursty|bursty(alpha=…)`).
    pub arrivals: ArrivalProcess,
    /// Offered load as a fraction of the scenario's base link rate (`load=`).
    pub load: f64,
    /// Override the size distribution's mean flow size in bytes (`mean=`);
    /// `None` keeps the default CAIDA-like mixture (~100 kB mean).
    pub mean_flow_bytes: Option<f64>,
    /// Congestion control run by the fleet flows (`cc=cubic|reno`).
    pub cc: CcKind,
}

impl FleetSpec {
    /// A Poisson fleet at the given offered-load fraction, default sizes,
    /// Cubic flows.
    pub fn poisson(load: f64) -> Self {
        FleetSpec {
            arrivals: ArrivalProcess::Poisson,
            load,
            mean_flow_bytes: None,
            cc: CcKind::Cubic,
        }
    }

    /// A bursty (Pareto-interarrival) fleet at the given offered-load
    /// fraction, default shape.
    pub fn bursty(load: f64) -> Self {
        FleetSpec {
            arrivals: ArrivalProcess::Bursty {
                alpha: nimbus_traffic::fleet::DEFAULT_BURSTY_ALPHA,
            },
            load,
            mean_flow_bytes: None,
            cc: CcKind::Cubic,
        }
    }

    /// Override the mean flow size (builder style).
    pub fn with_mean_flow_bytes(mut self, bytes: f64) -> Self {
        self.mean_flow_bytes = Some(bytes);
        self
    }

    /// Run the fleet over NewReno instead of Cubic (builder style).
    pub fn with_reno(mut self) -> Self {
        self.cc = CcKind::NewReno;
        self
    }

    /// The size distribution this fleet samples from: the default mixture,
    /// linearly rescaled when `mean_flow_bytes` overrides the mean.
    pub fn size_distribution(&self) -> FlowSizeDistribution {
        let mut sizes = FlowSizeDistribution::default();
        if let Some(target_mean) = self.mean_flow_bytes {
            // Scaling every byte-dimensioned parameter by the same factor
            // scales the analytic mean exactly linearly.
            let factor = target_mean / sizes.mean_bytes();
            sizes.body_median_bytes *= factor;
            sizes.tail_min_bytes *= factor;
            sizes.max_bytes *= factor;
        }
        sizes
    }

    /// A short slug for cell names: `fleet-poisson-l50`, `fleet-bursty-l30-reno`.
    pub fn label(&self) -> String {
        let arrivals = match self.arrivals {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        };
        let mut s = format!("fleet-{arrivals}-l{:.0}", self.load * 100.0);
        if let Some(mean) = self.mean_flow_bytes {
            s.push_str(&format!("-m{:.0}k", mean / 1000.0));
        }
        if self.cc == CcKind::NewReno {
            s.push_str("-reno");
        }
        s
    }

    /// Materialize the fleet against a scenario: arrivals over the whole run,
    /// offered load relative to `link_rate_bps`, workload seed derived from
    /// the scenario seed (distinct from the cross-flow controller seeds).
    pub fn build_spawner(&self, link_rate_bps: f64, duration_s: f64, seed: u64) -> FleetSpawner {
        FleetSpawner::new(FleetWorkloadConfig {
            offered_load_bps: self.load * link_rate_bps,
            arrivals: self.arrivals,
            sizes: self.size_distribution(),
            start_s: 0.0,
            stop_s: duration_s,
            base_rtt_s: 0.05,
            jitter_rtt: true,
            cc: self.cc,
            seed: seed.wrapping_mul(131).wrapping_add(29),
            elastic_threshold_bytes: 15_000,
        })
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet(arrivals=")?;
        match self.arrivals {
            ArrivalProcess::Poisson => write!(f, "poisson")?,
            ArrivalProcess::Bursty { alpha } => write!(f, "bursty(alpha={alpha})")?,
        }
        write!(f, ",load={}", self.load)?;
        if let Some(mean) = self.mean_flow_bytes {
            write!(f, ",mean={mean}")?;
        }
        if self.cc == CcKind::NewReno {
            write!(f, ",cc=reno")?;
        }
        write!(f, ")")
    }
}

/// Parse a byte count with an optional `k`/`M` suffix (`50k` = 50 000).
fn parse_size_bytes(value: &str) -> Result<f64, ParseSchemeError> {
    let v = value.trim();
    let (digits, mult) = match v.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1e3),
        None => match v.strip_suffix('M') {
            Some(d) => (d, 1e6),
            None => (v, 1.0),
        },
    };
    let n: f64 = digits
        .parse()
        .map_err(|_| ParseSchemeError(format!("invalid size `{value}`: not a number")))?;
    if !(n > 0.0 && n.is_finite()) {
        return Err(ParseSchemeError(format!(
            "invalid size `{value}`: must be positive"
        )));
    }
    Ok(n * mult)
}

impl FromStr for FleetSpec {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let inner = s
            .strip_prefix("fleet(")
            .and_then(|rest| rest.strip_suffix(')'))
            .ok_or_else(|| {
                ParseSchemeError(format!(
                    "`{s}` is not a fleet spec: expected fleet(arrivals=…,load=…)"
                ))
            })?;
        let mut spec = FleetSpec::poisson(0.5);
        // Split on commas outside parentheses so `bursty(alpha=1.5)` survives.
        let mut depth = 0usize;
        let mut start = 0usize;
        let mut parts = Vec::new();
        for (i, c) in inner.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    parts.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(&inner[start..]);
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(|| {
                ParseSchemeError(format!("fleet parameter `{part}` is not key=value"))
            })?;
            match key.trim() {
                "arrivals" => {
                    let v = value.trim();
                    spec.arrivals = if v == "poisson" {
                        ArrivalProcess::Poisson
                    } else if v == "bursty" {
                        ArrivalProcess::Bursty {
                            alpha: nimbus_traffic::fleet::DEFAULT_BURSTY_ALPHA,
                        }
                    } else if let Some(alpha) = v
                        .strip_prefix("bursty(alpha=")
                        .and_then(|r| r.strip_suffix(')'))
                    {
                        let a: f64 = alpha.trim().parse().map_err(|_| {
                            ParseSchemeError(format!("invalid bursty alpha `{alpha}`"))
                        })?;
                        if !(a > 1.0 && a.is_finite()) {
                            return Err(ParseSchemeError(format!(
                                "bursty alpha must exceed 1 (finite mean), got `{alpha}`"
                            )));
                        }
                        ArrivalProcess::Bursty { alpha: a }
                    } else {
                        return Err(ParseSchemeError(format!(
                            "unknown arrivals `{v}` (expected poisson, bursty or bursty(alpha=…))"
                        )));
                    };
                }
                "load" => {
                    let l: f64 = value.trim().parse().map_err(|_| {
                        ParseSchemeError(format!("invalid load `{value}`: not a number"))
                    })?;
                    if !(l > 0.0 && l <= 2.0) {
                        return Err(ParseSchemeError(format!(
                            "load `{value}` out of range (0, 2]: it is a fraction of link rate"
                        )));
                    }
                    spec.load = l;
                }
                "mean" => spec.mean_flow_bytes = Some(parse_size_bytes(value)?),
                "cc" => {
                    spec.cc = match value.trim() {
                        "cubic" => CcKind::Cubic,
                        "reno" | "newreno" => CcKind::NewReno,
                        other => {
                            return Err(ParseSchemeError(format!(
                                "unknown fleet cc `{other}` (expected cubic or reno)"
                            )))
                        }
                    };
                }
                other => {
                    return Err(ParseSchemeError(format!(
                        "unknown fleet parameter `{other}` (expected arrivals, load, mean, cc)"
                    )));
                }
            }
        }
        Ok(spec)
    }
}

/// A bottleneck + experiment-duration specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Base link rate µ of the primary bottleneck (hop 0), bits/s.
    pub link_rate_bps: f64,
    /// How the primary hop's rate moves over the run (constant unless overridden).
    pub schedule: LinkScheduleSpec,
    /// Buffer size in seconds of line rate (drop-tail unless `pie_target_s` set).
    pub buffer_s: f64,
    /// Propagation RTT of the monitored flow(s), seconds.
    pub prop_rtt_s: f64,
    /// Experiment duration, seconds.
    pub duration_s: f64,
    /// Random seed.
    pub seed: u64,
    /// Optional PIE AQM target delay (seconds) on the primary hop;
    /// drop-tail when `None`.
    pub pie_target_s: Option<f64>,
    /// Random loss probability on the primary hop (0 = none).
    pub loss_probability: f64,
    /// Extra hops after the primary bottleneck (empty = single-link dumbbell).
    pub path: PathSpec,
    /// Spec-described cross flows, each carrying its own [`SchemeSpec`]
    /// (added to the network after any imperatively built cross traffic).
    pub cross_flows: Vec<CrossFlowSpec>,
    /// Optional open-loop fleet workload churning alongside the monitored
    /// flow (installed as a spawner after every static flow).
    pub fleet: Option<FleetSpec>,
    /// ECN marking on the primary (hop-0) bottleneck (`ecn=` axis).  When
    /// enabled, every flow without an explicit override negotiates ECN.
    pub ecn: EcnSpec,
}

impl ScenarioSpec {
    /// The paper's default evaluation link: 96 Mbit/s, 50 ms RTT, 100 ms buffer.
    pub fn default_96mbps(duration_s: f64) -> Self {
        ScenarioSpec {
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Constant,
            buffer_s: 0.1,
            prop_rtt_s: 0.05,
            duration_s,
            seed: 1,
            pie_target_s: None,
            loss_probability: 0.0,
            path: PathSpec::single(),
            cross_flows: Vec::new(),
            fleet: None,
            ecn: EcnSpec::Off,
        }
    }

    /// Enable ECN marking on the primary bottleneck (builder style).
    pub fn with_ecn(mut self, ecn: EcnSpec) -> Self {
        self.ecn = ecn;
        self
    }

    /// The Fig. 1 link: 48 Mbit/s, 50 ms RTT, 100 ms buffer.
    pub fn fig1_48mbps(duration_s: f64) -> Self {
        ScenarioSpec {
            link_rate_bps: 48e6,
            ..Self::default_96mbps(duration_s)
        }
    }

    /// Scale the duration down for quick runs.
    pub fn quick(mut self, quick: bool, factor: f64) -> Self {
        if quick {
            self.duration_s = (self.duration_s * factor).max(12.0);
        }
        self
    }

    /// The nominal bottleneck rate a configured-µ scheme should be handed:
    /// the minimum base rate over every hop of the path.  Equal to
    /// `link_rate_bps` for single-hop scenarios.
    pub fn nominal_mu_bps(&self) -> f64 {
        self.path.nominal_mu_over_hops(self.link_rate_bps, 0, None)
    }

    /// Build the simulator network for this spec.
    pub fn build_network(&self) -> Network {
        let mut cfg = SimConfig::new(self.link_rate_bps, self.buffer_s, self.duration_s);
        cfg.seed = self.seed;
        cfg.path[0].schedule = self.schedule.to_schedule(self.link_rate_bps);
        if let Some(target) = self.pie_target_s {
            cfg.path[0].queue = QueueKind::Pie {
                target_delay_s: target,
                buffer_s: self.buffer_s,
            };
        }
        if self.loss_probability > 0.0 {
            cfg.path[0].loss = LossModel::Bernoulli {
                p: self.loss_probability,
            };
        }
        cfg.path[0].ecn = self.ecn.to_marking();
        for hop in &self.path.extra_hops {
            let base = hop.rate_factor * self.link_rate_bps;
            let link = LinkConfig::drop_tail(base, hop.buffer_s)
                .with_schedule(hop.schedule.to_schedule(base))
                .with_prop_delay(Time::from_secs_f64(hop.prop_delay_s))
                .with_ecn(hop.ecn.to_marking());
            cfg.path.push(link);
        }
        Network::new(cfg)
    }
}

/// Summary metrics for one monitored flow after a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleFlowMetrics {
    /// Scheme label.
    pub label: String,
    /// Mean throughput over the steady-state window, Mbit/s.
    pub mean_throughput_mbps: f64,
    /// Mean RTT over the steady-state window, ms.
    pub mean_rtt_ms: f64,
    /// Median RTT, ms.
    pub median_rtt_ms: f64,
    /// Mean per-packet bottleneck queueing delay, ms.
    pub mean_queue_delay_ms: f64,
    /// Median per-packet queueing delay, ms.
    pub median_queue_delay_ms: f64,
    /// Throughput time series (s, Mbit/s).
    pub throughput_series: Vec<(f64, f64)>,
    /// Queueing-delay time series (s, ms).
    pub queue_delay_series: Vec<(f64, f64)>,
    /// RTT time series (s, ms).
    pub rtt_series: Vec<(f64, f64)>,
    /// Raw per-packet RTT-like samples for CDFs (ms).
    pub rtt_samples_ms: Vec<f64>,
    /// Per-interval throughput samples for CDFs (Mbit/s).
    pub throughput_samples_mbps: Vec<f64>,
    /// Fraction of time a Nimbus flow spent in delay mode (1.0 for non-Nimbus).
    pub delay_mode_fraction: f64,
    /// Nimbus mode log (empty for non-Nimbus schemes).
    pub mode_log: Vec<(f64, String)>,
    /// Elasticity metric time series (empty for non-Nimbus schemes).
    pub eta_series: Vec<(f64, f64)>,
    /// Learned-µ series `(t_s, µ̂_bps)` for Nimbus flows estimating the link
    /// rate at runtime (empty otherwise).
    pub mu_series: Vec<(f64, f64)>,
    /// Mean relative error `|µ̂(t) − µ(t)|/µ(t)` over the steady-state window
    /// against the scenario's true rate schedule.  NaN when µ was configured
    /// (nothing learned) or no estimates fell in the window.
    pub mu_tracking_error: f64,
}

/// Everything a figure needs after a run.
pub struct RunOutput {
    /// The recorder moved out of the network.
    pub recorder: Recorder,
    /// Metrics for each monitored flow, in the order they were added.
    pub flows: Vec<SingleFlowMetrics>,
    /// Total engine events processed (for sweep benchmarking).
    pub events_processed: u64,
    /// Simulated duration actually covered, seconds.
    pub duration_s: f64,
}

/// Extract a time series as `(t, v)` pairs, skipping NaN values.
fn series_of(ts: &nimbus_netsim::TimeSeries) -> Vec<(f64, f64)> {
    ts.t.iter()
        .zip(ts.v.iter())
        .filter(|(_, v)| v.is_finite())
        .map(|(t, v)| (*t, *v))
        .collect()
}

/// Pull the Nimbus controller out of a boxed endpoint, if that is what it is.
pub fn nimbus_of(endpoint: &dyn FlowEndpoint) -> Option<&NimbusController> {
    let sender = endpoint.as_any()?.downcast_ref::<Sender>()?;
    sender
        .congestion_control()
        .as_any()?
        .downcast_ref::<NimbusController>()
}

/// Run a prepared network and extract per-monitored-flow metrics.
///
/// `steady_start_s` excludes the start-up transient from the scalar summaries
/// (series always cover the whole run).
pub fn run_and_collect(
    mut net: Network,
    handles: &[(FlowHandle, SchemeSpec)],
    steady_start_s: f64,
) -> RunOutput {
    net.run();
    let duration_s = net.now().as_secs_f64();
    let events_processed = net.events_processed();
    // The true µ(t) a flow can sustain is the minimum over every hop's
    // schedule — on a single-hop path this is just the bottleneck schedule.
    let schedules: Vec<RateSchedule> = net.hop_schedules().into_iter().cloned().collect();
    let (recorder, endpoints) = net.finish();
    let mut flows = Vec::new();
    for (handle, scheme) in handles {
        let slot = recorder
            .monitored_slot(handle.0)
            .expect("monitored flow expected");
        let tput = &recorder.throughput_mbps[slot];
        let rtt = &recorder.rtt_ms[slot];
        let qd = &recorder.queue_delay_ms[slot];
        let window = (steady_start_s, duration_s);

        let mut metrics = SingleFlowMetrics {
            label: scheme.label(),
            mean_throughput_mbps: tput.mean_in_range(window.0, window.1),
            mean_rtt_ms: rtt.mean_in_range(window.0, window.1),
            median_rtt_ms: nimbus_dsp::percentile(
                &rtt.values()
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .collect::<Vec<_>>(),
                50.0,
            ),
            mean_queue_delay_ms: qd.mean_in_range(window.0, window.1),
            median_queue_delay_ms: nimbus_dsp::percentile(
                &recorder.packet_delay_samples_ms[slot],
                50.0,
            ),
            throughput_series: series_of(tput),
            queue_delay_series: series_of(qd),
            rtt_series: series_of(rtt),
            rtt_samples_ms: rtt
                .values()
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect(),
            throughput_samples_mbps: tput.values().to_vec(),
            delay_mode_fraction: 1.0,
            mode_log: Vec::new(),
            eta_series: Vec::new(),
            mu_series: Vec::new(),
            mu_tracking_error: f64::NAN,
        };

        if let Some(nimbus) = nimbus_of(endpoints[handle.0].as_ref()) {
            metrics.delay_mode_fraction = nimbus.delay_mode_fraction(steady_start_s, duration_s);
            metrics.mode_log = nimbus
                .mode_log()
                .iter()
                .map(|(t, m)| {
                    (
                        *t,
                        match m {
                            Mode::Delay => "delay".to_string(),
                            Mode::Competitive => "competitive".to_string(),
                        },
                    )
                })
                .collect();
            metrics.eta_series = nimbus
                .detector()
                .verdicts()
                .iter()
                .map(|v| (v.t_s, v.eta.min(1e3)))
                .collect();
            metrics.mu_series = nimbus.estimator().mu_series().to_vec();
            let errors: Vec<f64> = metrics
                .mu_series
                .iter()
                .filter(|(t, _)| *t >= steady_start_s && *t <= duration_s)
                .map(|&(t, mu_hat)| {
                    let at = Time::from_secs_f64(t);
                    let mu_true = schedules
                        .iter()
                        .map(|s| s.rate_at(at))
                        .fold(f64::INFINITY, f64::min);
                    (mu_hat - mu_true).abs() / mu_true
                })
                .collect();
            if !errors.is_empty() {
                metrics.mu_tracking_error = errors.iter().sum::<f64>() / errors.len() as f64;
            }
        }
        flows.push(metrics);
    }
    RunOutput {
        recorder,
        flows,
        events_processed,
        duration_s,
    }
}

/// Convenience: run a single monitored scheme against an arbitrary set of
/// cross-traffic flows on the given scenario.  Spec-described cross flows
/// ([`ScenarioSpec::cross_flows`]) are added after the imperative `cross`
/// set.
pub fn run_scheme_vs_cross(
    spec: &ScenarioSpec,
    scheme: SchemeSpec,
    multiflow: Option<MultiflowConfig>,
    cross: Vec<(FlowConfig, Box<dyn FlowEndpoint>)>,
    steady_start_s: f64,
) -> RunOutput {
    let mut net = spec.build_network();
    let endpoint = scheme.build_endpoint(spec.nominal_mu_bps(), spec.seed, multiflow);
    // The primary flow is ECN-capable when its scheme wants marks or the
    // scenario enables marking on the path (ECT on a non-marking queue is
    // harmless: no marks ever arrive, so every reaction path stays inert).
    let primary_ecn = scheme.uses_ecn() || spec.ecn.is_enabled();
    let handle = net.add_flow(
        FlowConfig::primary(&scheme.label(), Time::from_secs_f64(spec.prop_rtt_s))
            .with_ecn(primary_ecn),
        endpoint,
    );
    for (mut cfg, ep) in cross {
        // Scenario-wide ECN makes explicitly-passed competitors ECT too:
        // a non-ECT competitor on a classic-ECN queue would fill the buffer
        // to the drop point while ECT flows back off at the (lower) marking
        // threshold, starving them — a queue-configuration artifact, not a
        // scheme property.
        if spec.ecn.is_enabled() {
            cfg = cfg.with_ecn(true);
        }
        net.add_flow(cfg, ep);
    }
    for (i, cf) in spec.cross_flows.iter().enumerate() {
        // A hop-confined flow's nominal µ is the minimum over the hops it
        // actually traverses, not the whole path's.
        let mu = spec
            .path
            .nominal_mu_over_hops(spec.link_rate_bps, cf.entry_hop, cf.exit_hop);
        let (mut cfg, ep) = cf.build(i, mu, spec.seed);
        // Scenario-wide ECN sweeps every cross flow in, unless one opted out.
        if cf.ecn.is_none() && spec.ecn.is_enabled() {
            cfg = cfg.with_ecn(true);
        }
        net.add_flow(cfg, ep);
    }
    if let Some(fleet) = &spec.fleet {
        net.add_spawner(Box::new(fleet.build_spawner(
            spec.link_rate_bps,
            spec.duration_s,
            spec.seed,
        )));
    }
    run_and_collect(net, &[(handle, scheme)], steady_start_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_transport::{CcKind, FixedSizeSource, PathInfo, SenderConfig};

    #[test]
    fn spec_builders_and_quick_scaling() {
        let spec = ScenarioSpec::default_96mbps(180.0);
        assert_eq!(spec.link_rate_bps, 96e6);
        assert_eq!(spec.schedule, LinkScheduleSpec::Constant);
        let quick = spec.clone().quick(true, 0.2);
        assert!((quick.duration_s - 36.0).abs() < 1e-9);
        let not_quick = spec.quick(false, 0.2);
        assert_eq!(not_quick.duration_s, 180.0);
    }

    #[test]
    fn schedule_specs_materialize_against_the_base_rate() {
        use nimbus_netsim::Time;
        let step = LinkScheduleSpec::Step {
            at_s: 10.0,
            factor: 0.5,
        };
        let s = step.to_schedule(96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(5.0)), 96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(15.0)), 48e6);
        assert_eq!(step.label(), "step50@10");

        let sin = LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.25,
            period_s: 8.0,
        };
        let s = sin.to_schedule(48e6);
        assert_eq!(s.max_rate_bps(), 60e6);
        assert_eq!(s.min_rate_bps(), 36e6);
        assert_eq!(sin.label(), "sin25p8");

        let trace = LinkScheduleSpec::Trace {
            interval_s: 0.5,
            factors: vec![1.0, 0.25],
        };
        let s = trace.to_schedule(40e6);
        assert_eq!(s.rate_at(Time::from_millis(250)), 40e6);
        assert_eq!(s.rate_at(Time::from_millis(750)), 10e6);
        // Repeats.
        assert_eq!(s.rate_at(Time::from_millis(1250)), 40e6);
        assert_eq!(trace.label(), "trace2");
        assert_eq!(LinkScheduleSpec::Constant.label(), "const");
    }

    #[test]
    fn run_scheme_vs_cross_produces_metrics() {
        let spec = ScenarioSpec {
            duration_s: 15.0,
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        let cross: Vec<(FlowConfig, Box<dyn FlowEndpoint>)> = vec![(
            FlowConfig::cross("short", Time::from_millis(50), true).with_size(2_000_000),
            Box::new(Sender::new(
                SenderConfig::labelled("short"),
                CcKind::Cubic.build(&PathInfo::new(1500)),
                Box::new(FixedSizeSource::new(2_000_000)),
            )),
        )];
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), None, cross, 3.0);
        assert_eq!(out.flows.len(), 1);
        let m = &out.flows[0];
        assert_eq!(m.label, "cubic");
        assert!(m.mean_throughput_mbps > 20.0, "{}", m.mean_throughput_mbps);
        assert!(!m.throughput_series.is_empty());
        assert!(m.mean_rtt_ms > 40.0);
        // Non-Nimbus flows report a full delay-mode fraction and empty logs.
        assert_eq!(m.delay_mode_fraction, 1.0);
        assert!(m.mode_log.is_empty());
    }

    #[test]
    fn trace_file_schedules_load_and_label() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../traces/sample-cellular.mahimahi"
        );
        let spec = LinkScheduleSpec::TraceFile {
            path: path.to_string(),
        };
        let s = spec.to_schedule(48e6);
        // Absolute rates from the file: the 48 Mbit/s base does not scale them.
        assert!(s.max_rate_bps() < 20e6, "max {}", s.max_rate_bps());
        assert!(!s.is_constant());
        assert_eq!(spec.label(), "mm-sample-cellular");
    }

    #[test]
    #[should_panic(expected = "cannot load mahimahi trace")]
    fn missing_trace_file_panics_with_the_path() {
        LinkScheduleSpec::TraceFile {
            path: "/nonexistent/x.trace".to_string(),
        }
        .to_schedule(48e6);
    }

    #[test]
    fn named_trace_schedules_materialize_and_label() {
        let spec = LinkScheduleSpec::NamedTrace {
            name: "cellular".to_string(),
        };
        let s = spec.to_schedule(48e6);
        assert_eq!(s.rate_at(Time::ZERO), 48e6);
        assert!(!s.is_constant());
        assert_eq!(spec.label(), "trace-cellular");
    }

    #[test]
    #[should_panic(expected = "unknown built-in trace")]
    fn unknown_named_trace_panics_with_the_catalogue() {
        LinkScheduleSpec::NamedTrace {
            name: "bogus".to_string(),
        }
        .to_schedule(48e6);
    }

    #[test]
    fn spec_described_cross_flows_compete() {
        // A declarative heterogeneous scenario: monitored Cubic vs a CBR
        // aggregate carried entirely by `ScenarioSpec::cross_flows`.
        let mut spec = ScenarioSpec {
            duration_s: 15.0,
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        spec.cross_flows = vec![CrossFlowSpec::new(crate::scheme::SchemeSpec::constant(
            24e6,
        ))];
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), None, Vec::new(), 5.0);
        let m = &out.flows[0];
        // The CBR flow holds its half, so Cubic lands near the other half.
        assert!(
            m.mean_throughput_mbps > 14.0 && m.mean_throughput_mbps < 30.0,
            "cubic got {} Mbit/s against a 24 Mbit/s CBR competitor",
            m.mean_throughput_mbps
        );
    }

    #[test]
    fn fleet_spec_grammar_round_trips() {
        let cases = [
            "fleet(arrivals=poisson,load=0.5)",
            "fleet(arrivals=bursty(alpha=1.5),load=0.3)",
            "fleet(arrivals=poisson,load=0.6,mean=50000,cc=reno)",
        ];
        for text in cases {
            let spec: FleetSpec = text.parse().unwrap();
            let display = spec.to_string();
            let again: FleetSpec = display.parse().unwrap();
            assert_eq!(spec, again, "{text} → {display}");
        }
        // Suffix sizes and bare bursty.
        let spec: FleetSpec = "fleet(arrivals=bursty,load=0.4,mean=50k)".parse().unwrap();
        assert_eq!(spec.mean_flow_bytes, Some(50_000.0));
        assert!(matches!(spec.arrivals, ArrivalProcess::Bursty { .. }));
        let spec: FleetSpec = "fleet(load=0.8,mean=2M)".parse().unwrap();
        assert_eq!(spec.arrivals, ArrivalProcess::Poisson);
        assert_eq!(spec.mean_flow_bytes, Some(2e6));
    }

    #[test]
    fn fleet_spec_grammar_rejects_nonsense() {
        for bad in [
            "fleet(load=0)",
            "fleet(load=5)",
            "fleet(arrivals=uniform,load=0.5)",
            "fleet(arrivals=bursty(alpha=0.9),load=0.5)",
            "fleet(speed=0.5)",
            "fleet(load=0.5",
            "poisson(load=0.5)",
            "fleet(mean=-3,load=0.5)",
        ] {
            assert!(
                bad.parse::<FleetSpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn fleet_spec_labels_and_scaled_sizes() {
        assert_eq!(FleetSpec::poisson(0.5).label(), "fleet-poisson-l50");
        assert_eq!(
            FleetSpec::bursty(0.3)
                .with_mean_flow_bytes(50_000.0)
                .with_reno()
                .label(),
            "fleet-bursty-l30-m50k-reno"
        );
        let sizes = FleetSpec::poisson(0.5)
            .with_mean_flow_bytes(50_000.0)
            .size_distribution();
        assert!(
            (sizes.mean_bytes() - 50_000.0).abs() < 1.0,
            "rescaled mean {}",
            sizes.mean_bytes()
        );
    }

    #[test]
    fn scenario_with_fleet_churns_and_retires() {
        let spec = ScenarioSpec {
            duration_s: 15.0,
            fleet: Some(FleetSpec::poisson(0.3)),
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), None, Vec::new(), 5.0);
        // The fleet actually ran: many finite flows completed...
        let fcts = out.recorder.fct_stream();
        assert!(fcts.len() > 30, "only {} fleet completions", fcts.len());
        // ...and the monitored flow still got a usable share.
        let m = &out.flows[0];
        assert!(
            m.mean_throughput_mbps > 10.0,
            "cubic got {} Mbit/s under 30% churn",
            m.mean_throughput_mbps
        );
        let summary = out.recorder.fct_summary();
        assert_eq!(summary.all.count as usize, fcts.len());
        assert!(summary.mice.count > 0, "churn must include mice");
        assert!(summary.all.p50_s > 0.0);
    }

    #[test]
    fn ecn_spec_round_trips_and_loads_legacy_null() {
        let cases = [
            (EcnSpec::Off, "off"),
            (EcnSpec::Classic, "classic"),
            (EcnSpec::l4s(), "l4s"),
            (EcnSpec::Step { threshold_s: 0.005 }, "step(5ms)"),
        ];
        for (spec, text) in cases {
            assert_eq!(spec.to_string(), text);
            assert_eq!(text.parse::<EcnSpec>().unwrap(), spec, "{text}");
            let v = spec.to_value();
            assert_eq!(EcnSpec::from_value(&v).unwrap(), spec);
        }
        // Aliases and unit forms.
        assert_eq!("none".parse::<EcnSpec>().unwrap(), EcnSpec::Off);
        assert_eq!("ecn".parse::<EcnSpec>().unwrap(), EcnSpec::Classic);
        assert_eq!(
            "step(0.005s)".parse::<EcnSpec>().unwrap(),
            EcnSpec::Step { threshold_s: 0.005 }
        );
        assert!("step(1ms".parse::<EcnSpec>().is_err());
        assert!("step(-1ms)".parse::<EcnSpec>().is_err());
        assert!("wide".parse::<EcnSpec>().is_err());
        // A pre-ECN serialized scenario has no `ecn` field: Null loads Off.
        assert_eq!(
            EcnSpec::from_value(&serde::Value::Null).unwrap(),
            EcnSpec::Off
        );
        // Scenario serde round-trip carries the axis.
        let spec = ScenarioSpec {
            ecn: EcnSpec::l4s(),
            ..ScenarioSpec::default_96mbps(10.0)
        };
        let back = ScenarioSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.ecn, EcnSpec::l4s());
        assert_eq!(EcnSpec::l4s().label(), "-l4s");
        assert_eq!(EcnSpec::Off.label(), "");
    }

    #[test]
    fn l4s_scenario_marks_instead_of_dropping_for_dctcp() {
        let spec = ScenarioSpec {
            duration_s: 12.0,
            ecn: EcnSpec::l4s(),
            ..ScenarioSpec::fig1_48mbps(12.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::dctcp(), None, Vec::new(), 3.0);
        let marks: u64 = out.recorder.hop_marked_packets.iter().sum();
        let drops: u64 = out.recorder.hop_dropped_packets.iter().sum();
        assert!(marks > 100, "a 1 ms step marker should mark often: {marks}");
        assert_eq!(
            drops, 0,
            "DCTCP on an L4S queue should see marks, not drops"
        );
        let m = &out.flows[0];
        assert!(
            m.mean_throughput_mbps > 35.0,
            "dctcp should fill the 48 Mbit/s link, got {}",
            m.mean_throughput_mbps
        );
    }

    #[test]
    fn ecn_off_scenario_is_mark_free_for_every_flow() {
        let spec = ScenarioSpec {
            duration_s: 10.0,
            ..ScenarioSpec::fig1_48mbps(10.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), None, Vec::new(), 3.0);
        assert!(out.recorder.hop_marked_packets.iter().all(|&m| m == 0));
    }

    #[test]
    fn nimbus_metrics_include_mode_log() {
        let spec = ScenarioSpec {
            duration_s: 12.0,
            ..ScenarioSpec::fig1_48mbps(12.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), None, Vec::new(), 3.0);
        let m = &out.flows[0];
        assert_eq!(m.label, "nimbus");
        assert!(!m.mode_log.is_empty());
        assert!(
            m.delay_mode_fraction > 0.5,
            "alone on the link Nimbus should stay in delay mode"
        );
    }
}
