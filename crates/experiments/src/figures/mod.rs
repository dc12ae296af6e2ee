//! One module per group of figures, plus shared cross-traffic builders.

pub mod eval;
pub mod fleet;
pub mod internet;
pub mod intro;
pub mod l4s;
pub mod multiflow;
pub mod multihop;
pub mod robust;
pub mod varying;

use crate::runner::CrossFlowSpec;
use crate::scheme::SchemeSpec;
use nimbus_netsim::{FlowConfig, FlowEndpoint, FlowSpawner, Time};
use nimbus_traffic::{FleetSpawner, FleetWorkloadConfig};
use nimbus_transport::{
    CcKind, PathInfo, PoissonSource, ScriptedSource, Sender, SenderConfig, Source,
};

/// A backlogged elastic cross-flow using the given loss-based scheme.
/// `stop_s` terminates the flow at that time (the application goes away).
pub fn elastic_cross_flow(
    label: &str,
    kind: CcKind,
    rtt_s: f64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    scheme_cross_flow(
        label,
        &SchemeSpec::Bare(kind),
        0.0,
        0,
        rtt_s,
        start_s,
        stop_s,
    )
}

/// A backlogged cross-flow running an arbitrary [`SchemeSpec`] — the
/// generalization of [`elastic_cross_flow`] that lets *any* scheme the
/// algebra can express (including Nimbus wrappers) act as cross traffic.
/// `mu_bps` is the nominal bottleneck rate handed to configured-µ wrappers
/// (ignored by bare CCAs) and `seed` drives any randomized behaviour.
/// Thin wrapper over [`CrossFlowSpec::build_labelled`], the single engine
/// behind every spec-described cross flow.
pub fn scheme_cross_flow(
    label: &str,
    spec: &SchemeSpec,
    mu_bps: f64,
    seed: u64,
    rtt_s: f64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let mut flow = CrossFlowSpec::new(*spec).starting_at(start_s);
    flow.rtt_s = rtt_s;
    flow.stop_s = stop_s;
    flow.build_labelled(label, mu_bps, seed)
}

/// The §8.1 WAN cross traffic: Cubic flows with CAIDA-like heavy-tailed
/// sizes and Poisson arrivals offering `load` of `link_rate_bps` over
/// `[0, duration_s)`, each RTT jittered ±50% around `base_rtt_s`.  The
/// whole list is drained from a fleet generator seeded with `seed` rather
/// than the scenario seed, so each figure pins its own arrivals.
pub fn wan_cross(
    link_rate_bps: f64,
    load: f64,
    duration_s: f64,
    base_rtt_s: f64,
    seed: u64,
) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
    let mut spawner = FleetSpawner::new(FleetWorkloadConfig {
        base_rtt_s,
        seed,
        ..FleetWorkloadConfig::default_for_link(link_rate_bps, load, duration_s)
    });
    std::iter::from_fn(|| spawner.next_flow())
        .map(|(_, cfg, endpoint)| (cfg, endpoint))
        .collect()
}

/// An inelastic Poisson cross-traffic aggregate at `rate_bps`.
pub fn poisson_cross_flow(
    label: &str,
    rate_bps: f64,
    rtt_s: f64,
    seed: u64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let mut source = PoissonSource::new(rate_bps, 1500, seed);
    let mut sender_cfg = SenderConfig::labelled(label);
    if let Some(stop) = stop_s {
        source = source.until(Time::from_secs_f64(stop));
        sender_cfg = sender_cfg.stopping_at(Time::from_secs_f64(stop));
    }
    let cfg = FlowConfig::cross(label, Time::from_secs_f64(rtt_s), false)
        .starting_at(Time::from_secs_f64(start_s));
    let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
        sender_cfg,
        CcKind::Unlimited.build(&PathInfo::new(1500)),
        Box::new(source),
    ));
    (cfg, ep)
}

/// An inelastic constant-bit-rate cross flow at `rate_bps`.
pub fn cbr_cross_flow(
    label: &str,
    rate_bps: f64,
    rtt_s: f64,
    start_s: f64,
    stop_s: Option<f64>,
) -> (FlowConfig, Box<dyn FlowEndpoint>) {
    let source: Box<dyn Source> = match stop_s {
        Some(stop) => Box::new(ScriptedSource::constant(rate_bps).until(Time::from_secs_f64(stop))),
        None => Box::new(ScriptedSource::constant(rate_bps)),
    };
    let mut sender_cfg = SenderConfig::labelled(label);
    if let Some(stop) = stop_s {
        sender_cfg = sender_cfg.stopping_at(Time::from_secs_f64(stop));
    }
    let cfg = FlowConfig::cross(label, Time::from_secs_f64(rtt_s), false)
        .starting_at(Time::from_secs_f64(start_s));
    let ep: Box<dyn FlowEndpoint> = Box::new(Sender::new(
        sender_cfg,
        CcKind::Unlimited.build(&PathInfo::new(1500)),
        source,
    ));
    (cfg, ep)
}

/// The Fig. 1 cross-traffic pattern on a scenario of the given duration:
/// one Cubic flow during `[elastic_start, elastic_end)`, a Poisson aggregate
/// at `inelastic_rate` during `[inelastic_start, inelastic_end)`.
pub fn fig1_cross_traffic(
    scale: f64,
    inelastic_rate_bps: f64,
    seed: u64,
) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
    vec![
        elastic_cross_flow(
            "cubic-cross",
            CcKind::Cubic,
            0.05,
            30.0 * scale,
            Some(90.0 * scale),
        ),
        poisson_cross_flow(
            "poisson-cross",
            inelastic_rate_bps,
            0.05,
            seed,
            90.0 * scale,
            Some(150.0 * scale),
        ),
    ]
}
