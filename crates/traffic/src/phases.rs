//! Scripted cross-traffic phase schedules (Figs. 1, 8, 17).
//!
//! The paper's time-varying scenarios are described as a sequence of phases,
//! each with an inelastic Poisson component ("`xM` denotes x Mbit/s of
//! inelastic Poisson cross-traffic") and a number of long-running Cubic
//! cross-flows ("`yT` denotes y long-running Cubic cross-flows").  This
//! module turns such a schedule into concrete flows for the simulator and
//! computes the fair-share reference line plotted in those figures.

use nimbus_netsim::Time;
use serde::{Deserialize, Serialize};

/// One phase of a scripted scenario.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Phase {
    /// Phase start time, seconds.
    pub start_s: f64,
    /// Inelastic Poisson cross-traffic rate during this phase, bits/s.
    pub poisson_rate_bps: f64,
    /// Number of long-running Cubic (elastic) cross-flows during this phase.
    pub cubic_flows: usize,
}

/// A full schedule: consecutive phases plus the total experiment duration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSchedule {
    /// Phases, sorted by start time; each lasts until the next one starts.
    pub phases: Vec<Phase>,
    /// End of the experiment, seconds.
    pub end_s: f64,
}

impl PhaseSchedule {
    /// Build a schedule from `(start_s, poisson_rate_bps, cubic_flows)` triples.
    pub fn new(phases: Vec<(f64, f64, usize)>, end_s: f64) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phases must be sorted by start time"
        );
        PhaseSchedule {
            phases: phases
                .into_iter()
                .map(|(start_s, poisson_rate_bps, cubic_flows)| Phase {
                    start_s,
                    poisson_rate_bps,
                    cubic_flows,
                })
                .collect(),
            end_s,
        }
    }

    /// The Fig. 1 scenario: 30 s alone, 60 s with one Cubic flow, 60 s with
    /// 24 Mbit/s of inelastic traffic, then alone again (on a 48 Mbit/s link).
    pub fn fig1() -> Self {
        PhaseSchedule::new(
            vec![
                (0.0, 0.0, 0),
                (30.0, 0.0, 1),
                (90.0, 24e6, 0),
                (150.0, 0.0, 0),
            ],
            180.0,
        )
    }

    /// The Fig. 8 scenario (96 Mbit/s link): the nine phases annotated at the
    /// top of the figure, 20 s each: `16M/1T, 32M/2T, 0M/4T, 0M/3T, 0M/1T,
    /// 16M/0T, 32M/0T, 48M/0T, 16M/0T`.
    pub fn fig8() -> Self {
        let spec: [(f64, usize); 9] = [
            (16e6, 1),
            (32e6, 2),
            (0.0, 4),
            (0.0, 3),
            (0.0, 1),
            (16e6, 0),
            (32e6, 0),
            (48e6, 0),
            (16e6, 0),
        ];
        PhaseSchedule::new(
            spec.iter()
                .enumerate()
                .map(|(i, &(m, t))| (i as f64 * 20.0, m, t))
                .collect(),
            180.0,
        )
    }

    /// The Fig. 17 scenario (192 Mbit/s link, 3 Nimbus flows): elastic cross
    /// traffic (3 Cubic flows) from 30–90 s, a 96 Mbit/s constant-bit-rate
    /// stream from 90–150 s.
    pub fn fig17() -> Self {
        PhaseSchedule::new(
            vec![
                (0.0, 0.0, 0),
                (30.0, 0.0, 3),
                (90.0, 96e6, 0),
                (150.0, 0.0, 0),
            ],
            180.0,
        )
    }

    /// The phase active at time `t_s`.
    pub fn phase_at(&self, t_s: f64) -> &Phase {
        let mut current = &self.phases[0];
        for p in &self.phases {
            if p.start_s <= t_s {
                current = p;
            } else {
                break;
            }
        }
        current
    }

    /// The scripted Poisson-rate schedule, as `(start, rate_bps)` pairs for a
    /// [`ScriptedSource`](nimbus_transport::ScriptedSource)-driven aggregate.
    pub fn poisson_schedule(&self) -> Vec<(Time, f64)> {
        self.phases
            .iter()
            .map(|p| (Time::from_secs_f64(p.start_s), p.poisson_rate_bps))
            .collect()
    }

    /// Intervals `(start_s, end_s)` during which the `k`-th concurrent Cubic
    /// cross-flow slot is occupied.  Slot `k` is active in every phase with
    /// `cubic_flows > k`; contiguous phases merge into one interval (one flow).
    pub fn cubic_flow_intervals(&self) -> Vec<(f64, f64)> {
        let max_flows = self.phases.iter().map(|p| p.cubic_flows).max().unwrap_or(0);
        let mut intervals = Vec::new();
        for slot in 0..max_flows {
            let mut active_since: Option<f64> = None;
            for (i, p) in self.phases.iter().enumerate() {
                let active = p.cubic_flows > slot;
                match (active, active_since) {
                    (true, None) => active_since = Some(p.start_s),
                    (false, Some(s)) => {
                        intervals.push((s, p.start_s));
                        active_since = None;
                    }
                    _ => {}
                }
                if i == self.phases.len() - 1 {
                    if let Some(s) = active_since.take() {
                        intervals.push((s, self.end_s));
                    }
                }
            }
        }
        intervals
    }

    /// The correct fair-share rate (Mbit/s) for the monitored flow(s) at time
    /// `t_s` — the solid black reference line of Fig. 8: the link capacity
    /// left over by the inelastic traffic, split equally among the monitored
    /// flows and the elastic cross-flows.
    pub fn fair_share_mbps(&self, t_s: f64, link_rate_bps: f64, monitored_flows: usize) -> f64 {
        let p = self.phase_at(t_s);
        fair_share_mbps(
            link_rate_bps,
            p.poisson_rate_bps,
            p.cubic_flows,
            monitored_flows,
        )
    }
}

/// Fair share (Mbit/s) of each monitored flow on a link of `link_rate_bps`
/// carrying `inelastic_rate_bps` of inelastic traffic and `elastic_flows`
/// elastic cross-flows, shared with `monitored_flows` monitored flows.
pub fn fair_share_mbps(
    link_rate_bps: f64,
    inelastic_rate_bps: f64,
    elastic_flows: usize,
    monitored_flows: usize,
) -> f64 {
    let leftover = (link_rate_bps - inelastic_rate_bps).max(0.0);
    let claimants = (elastic_flows + monitored_flows).max(1);
    leftover / claimants as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_schedule_matches_the_figure_annotations() {
        let s = PhaseSchedule::fig8();
        assert_eq!(s.phases.len(), 9);
        assert_eq!(s.end_s, 180.0);
        // Phase 3 (40–60 s): 0M / 4T.
        let p = s.phase_at(45.0);
        assert_eq!(p.poisson_rate_bps, 0.0);
        assert_eq!(p.cubic_flows, 4);
        // Phase 8 (140–160 s): 48M / 0T.
        let p = s.phase_at(150.0);
        assert_eq!(p.poisson_rate_bps, 48e6);
        assert_eq!(p.cubic_flows, 0);
    }

    #[test]
    fn fair_share_line_matches_the_paper() {
        let s = PhaseSchedule::fig8();
        // Phase 1 (16M, 1T) on a 96 Mbit/s link with one monitored flow:
        // (96-16)/2 = 40 Mbit/s.
        assert!((s.fair_share_mbps(10.0, 96e6, 1) - 40.0).abs() < 1e-9);
        // Phase 3 (0M, 4T): 96/5 = 19.2.
        assert!((s.fair_share_mbps(50.0, 96e6, 1) - 19.2).abs() < 1e-9);
        // Phase 8 (48M, 0T): 48.
        assert!((s.fair_share_mbps(150.0, 96e6, 1) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_phases() {
        let s = PhaseSchedule::fig1();
        assert_eq!(s.phase_at(45.0).cubic_flows, 1);
        assert_eq!(s.phase_at(100.0).poisson_rate_bps, 24e6);
        assert_eq!(s.phase_at(170.0).cubic_flows, 0);
        // Fair share on 48 Mbit/s: alone -> 48, vs 1 cubic -> 24, vs 24M CBR -> 24.
        assert!((s.fair_share_mbps(10.0, 48e6, 1) - 48.0).abs() < 1e-9);
        assert!((s.fair_share_mbps(60.0, 48e6, 1) - 24.0).abs() < 1e-9);
        assert!((s.fair_share_mbps(120.0, 48e6, 1) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_intervals_merge_contiguous_phases() {
        let s = PhaseSchedule::fig8();
        let intervals = s.cubic_flow_intervals();
        // Slot 0 is active in phases 0-4 (0 s to 100 s) -> one merged interval.
        assert!(intervals.contains(&(0.0, 100.0)));
        // Slot 3 is active only in phase 2 (40-60 s).
        assert!(intervals.contains(&(40.0, 60.0)));
        // Total flow count: slot0 (1) + slot1 (2 phases 1,2 merged = 20..60) +
        // slot2 (40..80) + slot3 (40..60) = 4 intervals.
        assert_eq!(intervals.len(), 4);
    }

    #[test]
    fn poisson_schedule_is_time_sorted() {
        let s = PhaseSchedule::fig8();
        let sched = s.poisson_schedule();
        assert_eq!(sched.len(), 9);
        assert!(sched.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(sched[7].1, 48e6);
    }

    #[test]
    #[should_panic]
    fn unsorted_phases_panic() {
        let _ = PhaseSchedule::new(vec![(10.0, 0.0, 0), (0.0, 0.0, 0)], 20.0);
    }

    #[test]
    fn fair_share_never_negative() {
        assert_eq!(fair_share_mbps(48e6, 96e6, 0, 1), 0.0);
        assert!(fair_share_mbps(96e6, 0.0, 0, 1) > 0.0);
    }
}
