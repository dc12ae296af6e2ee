//! Figures 18–20: performance on (synthetic) Internet paths (§8.4, Appendix A).
//!
//! The paper measured 25 real paths between EC2 instances and residential
//! hosts.  We substitute a suite of 25 synthetic path profiles spanning the
//! same regimes (deep-buffered clean paths, shallow/policed paths, lossy
//! paths, varying RTTs and rates).  Cross traffic on each path is the §8.1
//! WAN mix at the path's own RTT and load.

use super::wan_cross;
use crate::output::ExperimentResult;
use crate::runner::{run_scheme_vs_cross, EcnSpec, ScenarioSpec};
use crate::scheme::SchemeSpec;
use nimbus_dsp::Cdf;

/// One synthetic Internet path profile.
#[derive(Debug, Clone, Copy)]
pub struct PathProfile {
    /// Identifier (1..=25).
    pub id: usize,
    /// Bottleneck rate, bits/s.
    pub rate_bps: f64,
    /// Propagation RTT, seconds.
    pub rtt_s: f64,
    /// Buffer, seconds of line rate.
    pub buffer_s: f64,
    /// Random loss probability.
    pub loss: f64,
    /// Cross-traffic offered load as a fraction of the link.
    pub cross_load: f64,
}

/// The 25-path suite: 5 server regions × 5 client profiles.
pub fn path_suite() -> Vec<PathProfile> {
    let mut paths = Vec::new();
    let regions = [
        ("california", 0.080),
        ("ireland", 0.100),
        ("frankfurt", 0.095),
        ("london", 0.090),
        ("paris", 0.085),
    ];
    let clients: [(f64, f64, f64, f64); 5] = [
        // (rate, buffer_s, loss, cross_load)
        (50e6, 0.20, 0.0, 0.2),   // deep-buffered cable
        (95e6, 0.10, 0.0, 0.3),   // FTTH
        (25e6, 0.15, 0.0, 0.4),   // DSL
        (30e6, 0.03, 0.005, 0.2), // shallow buffer + light loss (policed)
        (60e6, 0.05, 0.001, 0.5), // busy shared link
    ];
    let mut id = 0;
    for (_region, rtt) in regions {
        for (rate, buffer, loss, cross) in clients {
            id += 1;
            paths.push(PathProfile {
                id,
                rate_bps: rate,
                rtt_s: rtt,
                buffer_s: buffer,
                loss,
                cross_load: cross,
            });
        }
    }
    paths
}

fn run_path(
    path: &PathProfile,
    scheme: SchemeSpec,
    duration_s: f64,
) -> crate::runner::SingleFlowMetrics {
    let spec = ScenarioSpec {
        link_rate_bps: path.rate_bps,
        schedule: crate::runner::LinkScheduleSpec::Constant,
        buffer_s: path.buffer_s,
        prop_rtt_s: path.rtt_s,
        duration_s,
        seed: 1800 + path.id as u64,
        pie_target_s: None,
        loss_probability: path.loss,
        path: crate::runner::PathSpec::single(),
        cross_flows: Vec::new(),
        fleet: None,
        ecn: EcnSpec::Off,
    };
    let cross = wan_cross(
        path.rate_bps,
        path.cross_load,
        duration_s,
        path.rtt_s,
        1900 + path.id as u64,
    );
    let out = run_scheme_vs_cross(&spec, scheme, None, cross, duration_s * 0.15);
    out.flows.into_iter().next().unwrap()
}

/// Fig. 18: three example paths (deep-buffered ×2, lossy/policed ×1) —
/// throughput vs mean delay per scheme.
pub fn fig18(quick: bool) -> ExperimentResult {
    let duration = if quick { 30.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "fig18",
        "Three example Internet paths: throughput vs mean delay per scheme",
        quick,
    );
    let suite = path_suite();
    // Path A: deep-buffered; Path B: FTTH; Path C: shallow + loss.
    let examples = [("A", suite[0]), ("B", suite[1]), ("C", suite[3])];
    let schemes = if quick {
        vec![SchemeSpec::nimbus(), SchemeSpec::cubic()]
    } else {
        vec![
            SchemeSpec::nimbus(),
            SchemeSpec::cubic(),
            SchemeSpec::bbr(),
            SchemeSpec::vegas(),
        ]
    };
    for (tag, path) in examples {
        for scheme in &schemes {
            let m = run_path(&path, *scheme, duration);
            result.row(
                &format!("path{tag}_{}_throughput_mbps", m.label),
                m.mean_throughput_mbps,
            );
            result.row(&format!("path{tag}_{}_mean_rtt_ms", m.label), m.mean_rtt_ms);
        }
    }
    result
}

/// Fig. 19: CDFs of throughput and RTT across the paths with queueing.
pub fn fig19(quick: bool) -> ExperimentResult {
    let duration = if quick { 20.0 } else { 60.0 };
    let mut result = ExperimentResult::new(
        "fig19",
        "Across paths with queueing: throughput and RTT distributions per scheme",
        quick,
    );
    let suite = path_suite();
    let paths: Vec<&PathProfile> = if quick {
        suite.iter().filter(|p| p.loss == 0.0).take(4).collect()
    } else {
        suite.iter().filter(|p| p.loss == 0.0).collect()
    };
    let schemes = if quick {
        vec![SchemeSpec::nimbus(), SchemeSpec::cubic()]
    } else {
        vec![
            SchemeSpec::nimbus(),
            SchemeSpec::cubic(),
            SchemeSpec::bbr(),
            SchemeSpec::vegas(),
        ]
    };
    for scheme in &schemes {
        let mut tputs = Vec::new();
        let mut rtts = Vec::new();
        for path in &paths {
            let m = run_path(path, *scheme, duration);
            tputs.push(m.mean_throughput_mbps);
            rtts.push(m.mean_rtt_ms);
        }
        let label = scheme.label();
        result.row(
            &format!("{label}_mean_throughput_mbps"),
            nimbus_dsp::mean(&tputs),
        );
        result.row(&format!("{label}_mean_rtt_ms"), nimbus_dsp::mean(&rtts));
        result.add_series(
            &format!("{label}_throughput_cdf"),
            Cdf::from_samples(&tputs).curve(20),
        );
        result.add_series(
            &format!("{label}_rtt_cdf"),
            Cdf::from_samples(&rtts).curve(20),
        );
    }
    result
}

/// Fig. 20 (Appendix A): Cubic vs the delay-control algorithm alone over many
/// runs of one path — inelastic cross traffic is common, so a delay-based
/// scheme often matches Cubic's throughput at far lower delay.
pub fn fig20(quick: bool) -> ExperimentResult {
    let duration = if quick { 20.0 } else { 60.0 };
    let runs = if quick { 4 } else { 20 };
    let mut result = ExperimentResult::new(
        "fig20",
        "Cubic vs delay-control over repeated runs of one residential path",
        quick,
    );
    let base = path_suite()[0];
    for scheme in [SchemeSpec::cubic(), SchemeSpec::nimbus_delay_only()] {
        let mut tputs = Vec::new();
        let mut delays = Vec::new();
        for run in 0..runs {
            let mut path = base;
            path.id = 100 + run;
            // Cross load varies run to run (mostly inelastic mixes).
            path.cross_load = 0.15 + 0.05 * (run % 4) as f64;
            let m = run_path(&path, scheme, duration);
            tputs.push(m.mean_throughput_mbps);
            delays.push(m.mean_rtt_ms);
        }
        let label = scheme.label();
        result.row(
            &format!("{label}_mean_throughput_mbps"),
            nimbus_dsp::mean(&tputs),
        );
        result.row(&format!("{label}_mean_rtt_ms"), nimbus_dsp::mean(&delays));
        result.add_series(
            &format!("{label}_scatter"),
            delays
                .iter()
                .zip(tputs.iter())
                .map(|(d, t)| (*d, *t))
                .collect(),
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_suite_has_25_paths_spanning_regimes() {
        let suite = path_suite();
        assert_eq!(suite.len(), 25);
        assert!(suite.iter().any(|p| p.loss > 0.0), "need lossy paths");
        assert!(
            suite.iter().any(|p| p.buffer_s >= 0.2),
            "need deep-buffered paths"
        );
        assert!(
            suite.iter().any(|p| p.buffer_s <= 0.03),
            "need shallow paths"
        );
        let ids: std::collections::BTreeSet<usize> = suite.iter().map(|p| p.id).collect();
        assert_eq!(ids.len(), 25);
    }
}
