//! The Nimbus mode-switching congestion controller (§4 of the paper).
//!
//! Nimbus layers four pieces on top of the generic sender machinery:
//!
//! * an inner **TCP-competitive** controller (Cubic or NewReno), used when
//!   elastic cross traffic is present;
//! * an inner **delay-controlling** controller ([`BasicDelay`], Vegas or the
//!   Copa default mode), used when it is not;
//! * the **cross-traffic estimator** and **elasticity detector** that decide
//!   which of the two should be driving;
//! * the **pulse modulation** applied to whatever rate the active inner
//!   controller wants, so the detector has something to measure.
//!
//! Mode switching details from §4.1 that matter for fidelity:
//!
//! * The elasticity verdict is re-evaluated continuously from the FFT over
//!   the last 5 seconds of ẑ samples, and the mode follows the verdict.
//! * When switching into TCP-competitive mode, the competitive controller is
//!   (re)initialized to the rate the flow was sending **5 seconds ago** —
//!   the elastic competitor has spent the detection delay stealing bandwidth
//!   from the delay-mode rate, so resuming from the current rate would
//!   concede it.
//! * In competitive mode the pulse frequency is `f_pc` (5 Hz); in delay mode
//!   it is `f_pd` (6 Hz), so watcher flows can follow the pulser's mode (§6).

use crate::basic_delay::{BasicDelay, BasicDelayConfig};
use crate::cc::{AckEvent, CcKind, CongestionControl, CongestionEvent, LossEvent, PathInfo};
use crate::ccp::Report;
use crate::detector::{DetectorVerdict, ElasticityConfig, ElasticityDetector};
use crate::estimator::{CrossTrafficEstimator, MuEstimatorConfig, ZFilterConfig};
use crate::multiflow::{Multiflow, MultiflowConfig, Role};
use nimbus_core_types::Time;
use nimbus_dsp::Biquad;
use nimbus_dsp::PulseGenerator;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which algorithm fills the TCP-competitive role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TcpScheme {
    /// TCP Cubic (the paper's default).
    Cubic,
    /// TCP NewReno.
    NewReno,
    /// DCTCP: scalable ECN reaction for L4S-style marking queues.
    Dctcp,
}

/// Which algorithm fills the delay-controlling role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayScheme {
    /// The paper's BasicDelay rule (Eq. 4).
    BasicDelay,
    /// TCP Vegas.
    Vegas,
    /// Copa's default mode.
    CopaDefault,
}

/// Nimbus's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Delay-controlling mode (no elastic cross traffic detected).
    Delay,
    /// TCP-competitive mode (elastic cross traffic detected).
    Competitive,
}

/// Nimbus configuration.
#[derive(Debug, Clone)]
pub struct NimbusConfig {
    /// Where the bottleneck rate µ comes from: configured up front, or one
    /// of the pluggable learned-µ strategies of §4.2 and beyond (see
    /// [`crate::estimator`] for the strategy catalogue).
    pub mu: MuEstimatorConfig,
    /// ẑ conditioning between the estimator and the detector (none, a notch
    /// at the link-variation frequency, or µ-uncertainty-scaled thresholds).
    pub z_filter: ZFilterConfig,
    /// Maximum segment size of the flow, bytes.
    pub mss: u32,
    /// Pulse amplitude as a fraction of µ (0.25 by default).
    pub pulse_amplitude_fraction: f64,
    /// Elasticity-detector settings (pulse frequency, FFT duration, threshold).
    pub elasticity: ElasticityConfig,
    /// Pulse frequency used while in delay mode, Hz (`f_pd`, 6 Hz).
    pub pulse_freq_delay_hz: f64,
    /// TCP-competitive inner scheme.
    pub tcp_scheme: TcpScheme,
    /// Delay-controlling inner scheme.
    pub delay_scheme: DelayScheme,
    /// BasicDelay parameters (used when `delay_scheme` is BasicDelay).
    pub basic_delay: BasicDelayConfig,
    /// Multi-flow (pulser/watcher) coordination.
    pub multiflow: MultiflowConfig,
    /// Seed for the controller's randomized decisions.
    pub seed: u64,
}

impl NimbusConfig {
    /// The paper's default configuration for a known link rate: Cubic +
    /// BasicDelay, 0.25·µ pulses at 5/6 Hz, 5-second FFT, η threshold 2.
    pub fn default_for_link(mu_bps: f64) -> Self {
        NimbusConfig {
            mu: MuEstimatorConfig::Configured { mu_bps },
            z_filter: ZFilterConfig::None,
            mss: 1500,
            pulse_amplitude_fraction: 0.25,
            elasticity: ElasticityConfig::default(),
            pulse_freq_delay_hz: 6.0,
            tcp_scheme: TcpScheme::Cubic,
            delay_scheme: DelayScheme::BasicDelay,
            basic_delay: BasicDelayConfig::paper_defaults(mu_bps),
            multiflow: MultiflowConfig::default(),
            seed: 1,
        }
    }

    /// Use a different TCP-competitive scheme.
    pub fn with_tcp_scheme(mut self, scheme: TcpScheme) -> Self {
        self.tcp_scheme = scheme;
        self
    }

    /// Use a different delay-controlling scheme.
    pub fn with_delay_scheme(mut self, scheme: DelayScheme) -> Self {
        self.delay_scheme = scheme;
        self
    }

    /// Enable pulser/watcher coordination (for multiple Nimbus flows).
    pub fn with_multiflow(mut self, multiflow: MultiflowConfig) -> Self {
        self.multiflow = multiflow;
        self
    }

    /// Change the pulse amplitude fraction.
    pub fn with_pulse_amplitude(mut self, fraction: f64) -> Self {
        self.pulse_amplitude_fraction = fraction;
        self
    }

    /// Change the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Learn µ at runtime from the max receive rate (§4.2) instead of
    /// trusting a configured link rate.  BasicDelay keeps the paper defaults
    /// derived from the nominal rate; the estimator and pulse amplitude
    /// follow the learned value.
    pub fn with_learned_mu(self) -> Self {
        self.with_mu_estimator(MuEstimatorConfig::learned())
    }

    /// Select an arbitrary µ-estimation strategy (see [`crate::estimator`]).
    pub fn with_mu_estimator(mut self, mu: MuEstimatorConfig) -> Self {
        self.mu = mu;
        self
    }

    /// Install a ẑ-conditioning stage between the estimator and the detector.
    pub fn with_z_filter(mut self, z_filter: ZFilterConfig) -> Self {
        self.z_filter = z_filter;
        self
    }

    /// Disable mode switching: the controller stays in delay mode forever
    /// (the paper's "Nimbus delay" baseline) by setting an unreachable
    /// elasticity threshold.
    pub fn without_switching(mut self) -> Self {
        self.elasticity.eta_threshold = f64::INFINITY;
        self
    }
}

/// A `(time, mode)` entry in the mode log.
pub type ModeLogEntry = (f64, Mode);

/// Observer hook for the controller's internal telemetry (the s2n-quic
/// "publisher" shape): a host installs one with
/// [`NimbusController::set_publisher`] to stream mode transitions, µ̂/ẑ
/// estimates and detector verdicts without polling the logs.  Every method
/// has an empty default, so implementors subscribe only to what they need;
/// with no publisher installed the controller's behaviour is bit-for-bit
/// what it was before the hook existed.
pub trait Publisher: Send {
    /// The controller switched operating mode at `now_s`.
    fn on_mode_change(&mut self, _now_s: f64, _mode: Mode) {}

    /// A new estimator sample: the current µ̂ and cross-traffic estimate ẑ
    /// (both bits/s).
    fn on_estimate(&mut self, _now_s: f64, _mu_bps: f64, _z_bps: f64) {}

    /// The elasticity detector issued a verdict.
    fn on_verdict(&mut self, _now_s: f64, _verdict: &DetectorVerdict) {}
}

/// The concrete delay-mode controller (an enum rather than a trait object so
/// Nimbus can hand the cross-traffic estimate to BasicDelay, which needs it).
enum DelayCtl {
    Basic(BasicDelay),
    Other(Box<dyn CongestionControl>),
}

impl DelayCtl {
    fn as_cc(&self) -> &dyn CongestionControl {
        match self {
            DelayCtl::Basic(b) => b,
            DelayCtl::Other(o) => o.as_ref(),
        }
    }
    fn as_cc_mut(&mut self) -> &mut dyn CongestionControl {
        match self {
            DelayCtl::Basic(b) => b,
            DelayCtl::Other(o) => o.as_mut(),
        }
    }
}

/// The Nimbus controller.  Implements [`CongestionControl`], so it plugs into
/// any host sender machinery (in the simulator: `nimbus_transport::Sender`).
pub struct NimbusController {
    cfg: NimbusConfig,
    mode: Mode,
    competitive: Box<dyn CongestionControl>,
    delay: DelayCtl,
    estimator: CrossTrafficEstimator,
    detector: ElasticityDetector,
    multiflow: Multiflow,
    pulse: PulseGenerator,
    /// Smoothed RTT from ACKs (seconds), for rate/window conversions.
    srtt_s: f64,
    /// Rate history for the 5-seconds-ago reset: `(time_s, rate_bps)`.
    rate_history: VecDeque<(f64, f64)>,
    /// Current time as of the last report (seconds).
    now_s: f64,
    /// Log of mode switches.
    mode_log: Vec<ModeLogEntry>,
    /// Time of the most recent *elastic* verdict, for the switch-back
    /// hysteresis (§4.1): competitive → delay only after the detector has
    /// seen nothing elastic for a full FFT window.
    last_elastic_s: f64,
    /// Log of detector verdicts exposed for experiments (`detector` also keeps them).
    last_verdict: Option<DetectorVerdict>,
    /// EWMA-smoothed rate used while this flow is a watcher.
    watcher_rate_bps: Option<f64>,
    /// Sliding window of `(t_s, marked, acked)` packet counts from recent
    /// measurement reports, trimmed to the FFT duration.  Stays empty until
    /// the first CE mark arrives, keeping non-ECN runs bit-identical.
    mark_window: VecDeque<(f64, u64, u64)>,
    /// Consecutive informative reports where the mark fraction and ẑ agreed.
    mark_streak: u64,
    /// Telemetry observer, if the host installed one.
    publisher: Option<Box<dyn Publisher>>,
}

impl NimbusController {
    /// Create a Nimbus controller.
    pub fn new(cfg: NimbusConfig) -> Self {
        let path = match cfg.mu.configured_mu_bps() {
            Some(mu) => PathInfo::new(cfg.mss).with_nominal_mu(mu),
            None => PathInfo::new(cfg.mss),
        };
        let competitive: Box<dyn CongestionControl> = match cfg.tcp_scheme {
            TcpScheme::Cubic => CcKind::Cubic.build(&path),
            TcpScheme::NewReno => CcKind::NewReno.build(&path),
            TcpScheme::Dctcp => CcKind::Dctcp.build(&path),
        };
        let delay: DelayCtl = match cfg.delay_scheme {
            DelayScheme::BasicDelay => DelayCtl::Basic(BasicDelay::new(cfg.basic_delay)),
            DelayScheme::Vegas => DelayCtl::Other(CcKind::Vegas.build(&path)),
            DelayScheme::CopaDefault => DelayCtl::Other(CcKind::Copa.build(&path)),
        };
        let mut estimator =
            CrossTrafficEstimator::from_config(&cfg.mu, cfg.elasticity.fft_duration_s * 2.0);
        if let ZFilterConfig::Notch { freq_hz, q } = cfg.z_filter {
            estimator.set_z_prefilter(Some(Biquad::notch(
                freq_hz,
                q,
                cfg.elasticity.sample_rate_hz(),
            )));
        }
        let detector = ElasticityDetector::new(cfg.elasticity.clone());
        let multiflow = Multiflow::new(
            cfg.multiflow.clone(),
            cfg.elasticity.fft_duration_s,
            cfg.seed,
        );
        let amplitude = cfg.pulse_amplitude_fraction * cfg.mu.configured_mu_bps().unwrap_or(0.0);
        let pulse = PulseGenerator::asymmetric(cfg.elasticity.pulse_freq_hz, amplitude);
        let mut controller = NimbusController {
            cfg,
            mode: Mode::Delay,
            competitive,
            delay,
            estimator,
            detector,
            multiflow,
            pulse,
            srtt_s: 0.0,
            rate_history: VecDeque::new(),
            now_s: 0.0,
            mode_log: Vec::new(),
            last_elastic_s: f64::NEG_INFINITY,
            last_verdict: None,
            watcher_rate_bps: None,
            mark_window: VecDeque::new(),
            mark_streak: 0,
            publisher: None,
        };
        controller.mode_log.push((0.0, Mode::Delay));
        controller
    }

    /// Install a telemetry observer (see [`Publisher`]); replaces any
    /// previous one.  The publisher only *observes* — installing one cannot
    /// change the controller's decisions.
    pub fn set_publisher(&mut self, publisher: Box<dyn Publisher>) {
        self.publisher = Some(publisher);
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The current pulser/watcher role.
    pub fn role(&self) -> Role {
        self.multiflow.role()
    }

    /// The fraction of ACKed packets that carried a CE echo over the last
    /// FFT window (exactly 0.0 on a path that has never marked).
    pub fn mark_fraction(&self) -> f64 {
        let marked: u64 = self.mark_window.iter().map(|&(_, m, _)| m).sum();
        let acked: u64 = self.mark_window.iter().map(|&(_, _, a)| a).sum();
        if acked == 0 {
            0.0
        } else {
            marked as f64 / acked.max(marked) as f64
        }
    }

    /// Every mode switch as `(time_s, new_mode)`.
    pub fn mode_log(&self) -> &[ModeLogEntry] {
        &self.mode_log
    }

    /// The elasticity detector (verdict history, η time series).
    pub fn detector(&self) -> &ElasticityDetector {
        &self.detector
    }

    /// The cross-traffic estimator (ẑ history).
    pub fn estimator(&self) -> &CrossTrafficEstimator {
        &self.estimator
    }

    /// The most recent detector verdict.
    pub fn last_verdict(&self) -> Option<DetectorVerdict> {
        self.last_verdict
    }

    /// Fraction of time spent in delay mode between `t0_s` and `t1_s`
    /// (computed from the mode log).
    pub fn delay_mode_fraction(&self, t0_s: f64, t1_s: f64) -> f64 {
        if t1_s <= t0_s {
            return 0.0;
        }
        let mut total_delay = 0.0;
        let mut current_mode = Mode::Delay;
        let mut current_start = t0_s;
        for &(t, mode) in &self.mode_log {
            if t <= t0_s {
                current_mode = mode;
                continue;
            }
            if t >= t1_s {
                break;
            }
            if current_mode == Mode::Delay {
                total_delay += t - current_start;
            }
            current_mode = mode;
            current_start = t;
        }
        if current_mode == Mode::Delay {
            total_delay += t1_s - current_start;
        }
        total_delay / (t1_s - t0_s)
    }

    /// The bottleneck-rate estimate in use.
    pub fn mu_bps(&self) -> f64 {
        self.estimator.mu_bps()
    }

    fn active(&self) -> &dyn CongestionControl {
        match self.mode {
            Mode::Delay => self.delay.as_cc(),
            Mode::Competitive => self.competitive.as_ref(),
        }
    }

    /// The unmodulated rate the active inner controller wants right now.
    fn base_rate_bps(&self, now: Time) -> f64 {
        match self.active().pacing_rate_bps(now) {
            Some(rate) => rate,
            None => {
                // Window-based inner controller (Cubic/NewReno): convert the
                // window to an equivalent rate over the smoothed RTT.
                let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.1 };
                self.active().cwnd_packets() * self.cfg.mss as f64 * 8.0 / rtt
            }
        }
    }

    /// Rate the flow was using `lookback_s` seconds ago (for the reset on
    /// switching to competitive mode).
    fn rate_at_lookback(&self, lookback_s: f64) -> Option<f64> {
        let target = self.now_s - lookback_s;
        self.rate_history
            .iter()
            .find(|(t, _)| *t >= target)
            .map(|&(_, r)| r)
    }

    /// Current pulse frequency.  A lone Nimbus flow always pulses at `f_p`;
    /// with multi-flow coordination enabled the pulser uses `f_pc` in
    /// competitive mode and `f_pd` in delay mode so watchers can read its
    /// mode out of their receive-rate spectrum (§6).
    fn current_pulse_freq(&self) -> f64 {
        if !self.cfg.multiflow.enabled {
            return self.cfg.elasticity.pulse_freq_hz;
        }
        match self.mode {
            Mode::Competitive => self.cfg.elasticity.pulse_freq_hz,
            Mode::Delay => self.cfg.pulse_freq_delay_hz,
        }
    }

    /// The pacing multiplier a probing µ estimator wants right now.  Probe
    /// epochs only run in delay mode: there the flow is self-limited and a
    /// max filter can never see past its own pace, while in competitive
    /// mode the inner TCP already probes the link by design.
    fn probe_gain(&self, now_s: f64) -> f64 {
        match self.mode {
            Mode::Delay => self.estimator.pace_gain(now_s),
            Mode::Competitive => 1.0,
        }
    }

    fn switch_mode(&mut self, new_mode: Mode) {
        if new_mode == self.mode {
            return;
        }
        if new_mode == Mode::Competitive {
            // §4.1: reset to the rate from one detection period (5 s) ago.
            let lookback = self.cfg.elasticity.fft_duration_s;
            let rate = self
                .rate_at_lookback(lookback)
                .unwrap_or_else(|| self.base_rate_bps(Time::from_secs_f64(self.now_s)));
            let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.05 };
            self.competitive.reinitialize(rate, rtt, self.cfg.mss);
        } else {
            // Entering delay mode: start the delay controller from the rate
            // the flow is currently achieving so it does not spike the queue.
            let rate = self.base_rate_bps(Time::from_secs_f64(self.now_s));
            let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.05 };
            self.delay.as_cc_mut().reinitialize(rate, rtt, self.cfg.mss);
        }
        self.mode = new_mode;
        self.mode_log.push((self.now_s, new_mode));
        if let Some(p) = &mut self.publisher {
            p.on_mode_change(self.now_s, new_mode);
        }
    }
}

impl CongestionControl for NimbusController {
    fn on_packet_acked(&mut self, ack: &AckEvent) {
        let rtt = ack.rtt.as_secs_f64();
        self.srtt_s = if self.srtt_s == 0.0 {
            rtt
        } else {
            0.875 * self.srtt_s + 0.125 * rtt
        };
        // Both inner controllers observe every ACK so that whichever is
        // activated next starts from sane state.
        self.competitive.on_packet_acked(ack);
        self.delay.as_cc_mut().on_packet_acked(ack);
    }

    fn on_packets_lost(&mut self, loss: &LossEvent) {
        self.competitive.on_packets_lost(loss);
        self.delay.as_cc_mut().on_packets_lost(loss);
    }

    fn on_congestion_event(&mut self, event: &CongestionEvent) {
        self.competitive.on_congestion_event(event);
        self.delay.as_cc_mut().on_congestion_event(event);
    }

    fn on_report(&mut self, report: &Report) {
        self.now_s = report.now_s;
        // 1. Feed the measurement pipeline.  Probe epochs only pace in delay
        // mode (`probe_gain`), so the estimator's ẑ sample-and-hold must
        // follow the same gate — in competitive mode there is no probe burst
        // to blank out, and holding anyway would starve the detector of the
        // very samples that tell it the competition went away.
        self.estimator.set_probing_paced(self.mode == Mode::Delay);
        let sample = self.estimator.on_report(report);
        if let Some(s) = sample {
            if let Some(p) = &mut self.publisher {
                p.on_estimate(report.now_s, self.estimator.mu_bps(), s.z_bps);
            }
            if let DelayCtl::Basic(bd) = &mut self.delay {
                bd.set_cross_traffic_estimate(s.z_bps);
            }
        }
        // 2. Let both inner controllers see the report.
        self.competitive.on_report(report);
        self.delay.as_cc_mut().on_report(report);

        // 2b. ECN mark-rate cross-validation.  A queue that keeps marking
        // while we sit in delay mode is a queue somebody else keeps full —
        // and the ẑ estimate says who.  When both signals agree (persistent
        // mark fraction AND ẑ a non-trivial share of µ) the controller can
        // call the cross traffic elastic in a few hundred milliseconds
        // instead of waiting out a full FFT window.  The fraction is counted
        // over a sliding window of ACKed packets (the way DCTCP computes α)
        // rather than EWMA-smoothed per report: a starved flow's reports are
        // mostly empty, and folding those in as "zero marks" would erase a
        // perfectly persistent mark signal exactly when it matters most.
        // The whole block is provably inert without ECN: `marked_packets` is
        // 0 on every report, the window stays empty, and no state changes.
        if report.marked_packets > 0 || !self.mark_window.is_empty() {
            let acked_pkts = report.acked_bytes / self.cfg.mss.max(1) as u64;
            if report.marked_packets > 0 || acked_pkts > 0 {
                self.mark_window
                    .push_back((report.now_s, report.marked_packets, acked_pkts));
            }
            let horizon = report.now_s - self.cfg.elasticity.fft_duration_s;
            while let Some(&(t, _, _)) = self.mark_window.front() {
                if t < horizon {
                    self.mark_window.pop_front();
                } else {
                    break;
                }
            }
            let marked: u64 = self.mark_window.iter().map(|&(_, m, _)| m).sum();
            let acked: u64 = self.mark_window.iter().map(|&(_, _, a)| a).sum();
            let span_s = match (self.mark_window.front(), self.mark_window.back()) {
                (Some(&(t0, _, _)), Some(&(t1, _, _))) => t1 - t0,
                _ => 0.0,
            };
            let frac = if acked == 0 {
                0.0
            } else {
                marked as f64 / acked.max(marked) as f64
            };
            let mu_now = self.estimator.mu_bps();
            let z_now = self
                .estimator
                .z_series_conditioned(self.cfg.elasticity.fft_duration_s);
            let z_mean = if z_now.is_empty() {
                0.0
            } else {
                z_now.iter().sum::<f64>() / z_now.len() as f64
            };
            let z_agrees = mu_now > 0.0 && z_mean > 0.05 * mu_now;
            // Don't trust ẑ before the first FFT window has filled: the
            // slow-start transient inflates both ẑ and the mark rate, and a
            // solo flow on a shallow marking queue would misread its own
            // startup as an elastic competitor.
            let warmed = report.now_s >= self.cfg.elasticity.fft_duration_s;
            // A couple of marked packets per window is already abnormal for
            // a delay-mode flow that targets a sub-threshold queue, so the
            // fraction bar is low (2%); the false-positive guards are the
            // ẑ agreement, the warm-up, the minimum evidence (≥ 8 ACKed
            // packets spanning ≥ 250 ms), and the persistence streak — a
            // transient ẑ crossing on a solo flow must not flip the mode,
            // so both signals have to hold across 25 informative reports
            // (~250 ms at the CCP cadence, a few seconds when starved).
            if warmed
                && self.mode == Mode::Delay
                && acked >= 8
                && span_s >= 0.25
                && frac > 0.02
                && z_agrees
            {
                self.mark_streak += 1;
                if self.mark_streak >= 25 {
                    self.last_elastic_s = report.now_s;
                    self.switch_mode(Mode::Competitive);
                }
            } else {
                self.mark_streak = 0;
            }
        }

        // 3. Record the rate history (for the 5-seconds-ago reset).
        let now_t = Time::from_secs_f64(report.now_s);
        let rate_now = self.base_rate_bps(now_t);
        self.rate_history.push_back((report.now_s, rate_now));
        let horizon = report.now_s - 2.0 * self.cfg.elasticity.fft_duration_s;
        while let Some(&(t, _)) = self.rate_history.front() {
            if t < horizon {
                self.rate_history.pop_front();
            } else {
                break;
            }
        }

        // 4. Multi-flow coordination.
        let mu = self.estimator.mu_bps();
        let sample_rate = 1.0 / self.cfg.elasticity.sample_interval_s;
        let window_s = self.cfg.elasticity.fft_duration_s;
        if self.cfg.multiflow.enabled {
            match self.multiflow.role() {
                Role::Watcher => {
                    // Smooth this flow's own rate so the pulser does not
                    // mistake it for elastic cross traffic (§6).
                    self.watcher_rate_bps = Some(self.multiflow.shape_rate(rate_now));
                    let recv = self.estimator.recv_rate_series(window_s);
                    let presence = self.multiflow.detect_pulser(&recv, sample_rate);
                    use crate::multiflow::PulserPresence;
                    match presence {
                        PulserPresence::Competitive => self.switch_mode(Mode::Competitive),
                        PulserPresence::Delay => self.switch_mode(Mode::Delay),
                        PulserPresence::None => {
                            let recv_rate = report.recv_rate_bps;
                            self.multiflow
                                .maybe_become_pulser(report.now_s, false, recv_rate, mu);
                        }
                    }
                    // Watchers never pulse.
                    self.pulse.enabled = false;
                    return;
                }
                Role::Pulser => {
                    self.watcher_rate_bps = None;
                    self.pulse.enabled = true;
                }
            }
        }

        // 5. Pulser path: evaluate elasticity and pick the mode.  The
        // minimum-peak guard tracks the current µ estimate (which may be
        // learned at runtime): a configured value of 0 means "automatic",
        // i.e. the f_p oscillation in ẑ must reach ~2% of µ peak-to-peak
        // before the cross traffic can be called elastic.
        let z_series = self.estimator.z_series_conditioned(window_s);
        // The adaptive ẑ-conditioning stage raises the detection bars (η
        // threshold and minimum peak) with the µ̂ uncertainty: when µ̂ is off
        // by a fraction u, the flow's own pulse leaks into ẑ with amplitude
        // ∝ u·0.25·µ̂ and η values in exactly the genuine-elasticity range.
        // The leak can only masquerade as cross traffic when there is not
        // much *actual* cross traffic — a real competitor fills ẑ itself —
        // so the scaling is damped to nothing as mean ẑ approaches 25% of
        // µ̂.  Without the damping a competitor that squeezes the flow also
        // widens the recv-rate spread, the raised bar suppresses the
        // genuine verdict, and the starvation becomes self-reinforcing.
        let bar_scale = match self.cfg.z_filter {
            ZFilterConfig::Adaptive { k } if mu > 0.0 && !z_series.is_empty() => {
                let mean_z = z_series.iter().sum::<f64>() / z_series.len() as f64;
                let damp = (1.0 - mean_z / (0.25 * mu)).clamp(0.0, 1.0);
                1.0 + k * self.estimator.mu_uncertainty() * damp
            }
            _ => 1.0,
        };
        if self.cfg.elasticity.min_peak_bps == 0.0 && mu > 0.0 {
            self.detector.set_min_peak_bps(0.01 * mu * bar_scale);
        }
        self.detector.set_eta_scale(bar_scale);
        if let Some(verdict) = self.detector.evaluate(report.now_s, &z_series) {
            self.last_verdict = Some(verdict);
            if let Some(p) = &mut self.publisher {
                p.on_verdict(report.now_s, &verdict);
            }
            // Multi-pulser conflict check: compare the pulse-frequency content
            // of ẑ against our own receive rate.
            if self.cfg.multiflow.enabled {
                let recv = self.estimator.recv_rate_series(window_s);
                if recv.len() >= self.cfg.elasticity.window_samples() {
                    let recv_spectrum = nimbus_dsp::Spectrum::of_signal(&recv, sample_rate, true);
                    let recv_peak = recv_spectrum.peak_near(
                        self.current_pulse_freq(),
                        self.cfg.elasticity.peak_tolerance_hz,
                    );
                    if self
                        .multiflow
                        .maybe_step_down(report.now_s, verdict.peak_at_fp, recv_peak)
                    {
                        self.pulse.enabled = false;
                        return;
                    }
                }
            }
            // Asymmetric hysteresis (§4.1): elastic cross traffic flips the
            // controller to competitive mode immediately (every tick in delay
            // mode concedes throughput), but it only returns to delay mode
            // after a full FFT window without a single elastic verdict — a
            // competitor briefly backing off (e.g. Cubic right after a loss)
            // must not bounce Nimbus back into the mode it gets starved in.
            if verdict.elastic {
                self.last_elastic_s = report.now_s;
                self.switch_mode(Mode::Competitive);
            } else if report.now_s - self.last_elastic_s >= self.cfg.elasticity.fft_duration_s {
                self.switch_mode(Mode::Delay);
            }
        }

        // 6. Keep the pulse generator aligned with the current mode and µ.
        self.pulse.freq_hz = self.current_pulse_freq();
        self.pulse.amplitude = self.cfg.pulse_amplitude_fraction * mu;
        // The detector always listens at the competitive-mode frequency?  No:
        // it listens at whatever frequency we are currently pulsing at.
        self.detector.set_pulse_freq(self.current_pulse_freq());
    }

    fn cwnd_packets(&self) -> f64 {
        // The window of the active controller, with enough head-room that the
        // window never clips the pulse's positive excursion — pacing (which
        // carries the pulse) must stay the binding constraint.  Without this
        // a starved delay-mode flow has a window of a few packets, the pulse
        // never reaches the wire, and the detector goes blind exactly when it
        // is needed most.
        let inner = match self.mode {
            Mode::Competitive => self.competitive.cwnd_packets(),
            Mode::Delay => self.delay.as_cc().cwnd_packets(),
        };
        let rtt = if self.srtt_s > 0.0 { self.srtt_s } else { 0.1 };
        // A probe-up epoch must fit through the window as well as the pulse:
        // the estimator's pace gain scales the headroom exactly as it scales
        // the paced rate (gain is 1.0 outside probing estimators).
        let gain = self.probe_gain(self.now_s);
        let peak_rate =
            (self.base_rate_bps(Time::from_secs_f64(self.now_s)) + self.pulse.amplitude) * gain;
        let pulse_headroom = 2.0 * peak_rate * rtt / (8.0 * self.cfg.mss as f64);
        let cwnd = inner.max(pulse_headroom);
        // A probing estimator's delivery cap bounds the *window* as well as
        // the pace: retransmissions are never paced (only cwnd-gated), so
        // after a timeout an inner controller whose rate has rebounded off
        // the nominal µ would flood the whole go-back-N queue into a faded
        // link and wedge it again.  Two delivery-BDPs of window keep
        // recovery ACK-clocked at the rate the link actually carries (the
        // same 2× that BBR's cwnd gain uses, covering the probe epochs too).
        match (self.mode, self.estimator.pace_cap_bps()) {
            (Mode::Delay, Some(cap_bps)) => {
                let cap_window = 2.0 * cap_bps * rtt / (8.0 * self.cfg.mss as f64);
                cwnd.min(cap_window.max(4.0))
            }
            _ => cwnd,
        }
    }

    fn pacing_rate_bps(&self, now: Time) -> Option<f64> {
        let base = self.base_rate_bps(now);
        let shaped = if self.cfg.multiflow.enabled && self.multiflow.role() == Role::Watcher {
            // Watchers smooth their rate (EWMA, updated on the report path)
            // instead of pulsing.
            self.watcher_rate_bps.unwrap_or(base)
        } else {
            self.pulse.modulate(base, now.as_secs_f64())
        };
        // A probing estimator's delivery-informed cap bounds the cruise rate
        // in delay mode: a rate-based inner controller chasing a nominal or
        // crest-riding µ paces straight into a rate fade, melts the queue
        // down and wedges the transport in RTO backoff (the ROADMAP cellular
        // deadlock's other half).  Probe epochs then multiply *after* both
        // the cap and the pacing floor, so probing remains the one way to
        // pace above recent delivery — and the floor (the exact fixed point
        // µ̂ deadlocks at) can never mask the escape mechanism.
        let shaped = match (self.mode, self.estimator.pace_cap_bps()) {
            (Mode::Delay, Some(cap)) => shaped.min(cap),
            _ => shaped,
        };
        let gain = self.probe_gain(now.as_secs_f64());
        Some(shaped.max(self.cfg.mss as f64 * 8.0 / 0.1) * gain)
    }

    fn reinitialize(&mut self, rate_bps: f64, rtt_s: f64, mss: u32) {
        self.competitive.reinitialize(rate_bps, rtt_s, mss);
        self.delay.as_cc_mut().reinitialize(rate_bps, rtt_s, mss);
    }

    fn name(&self) -> &'static str {
        "nimbus"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(now_s: f64, s_bps: f64, r_bps: f64, rtt_s: f64) -> Report {
        Report {
            now_s,
            send_rate_bps: s_bps,
            recv_rate_bps: r_bps,
            acked_bytes: 12_000,
            lost_packets: 0,
            rtt_s,
            min_rtt_s: 0.05,
            window_acks: 40,
            marked_packets: 0,
            marked_bytes: 0,
        }
    }

    fn ack(now_s: f64, rtt_ms: f64) -> AckEvent {
        AckEvent {
            now: Time::from_secs_f64(now_s),
            newly_acked_packets: 1,
            newly_acked_bytes: 1500,
            rtt: Time::from_millis_f64(rtt_ms),
            min_rtt: Time::from_millis_f64(50.0),
            in_flight_packets: 50,
            mss: 1500,
        }
    }

    #[test]
    fn mark_rate_cross_validation_flips_competitive_before_one_window() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        // S = 40, R = 60 on a 96 Mbit/s link: Eq. 1 says z = 24 Mbit/s of
        // cross traffic, well above the 5% agreement bar; every report also
        // carries CE marks on most of its ACKed packets.  The validator only
        // trusts ẑ once the first FFT window has filled (t ≥ 5 s), so start
        // the marked reports there: the flip must then come in a few hundred
        // milliseconds, not after another full window.
        let mut t = 5.0;
        while t < 6.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 50.0));
            let mut r = report(t, 40e6, 60e6, 0.05);
            r.marked_packets = 5;
            r.marked_bytes = 7_500;
            ctl.on_report(&r);
            if ctl.mode() == Mode::Competitive {
                break;
            }
        }
        assert_eq!(ctl.mode(), Mode::Competitive);
        // The FFT window is 5 s; the cross-validated flip must beat a fresh
        // window's worth of post-arrival data by a wide margin.
        assert!(t < 6.0, "flipped at {t}s, faster than the FFT window");
        assert!(ctl.mark_fraction() > 0.05);
    }

    #[test]
    fn marks_without_cross_traffic_do_not_flip_the_mode() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        // S == R == µ: no cross traffic, so ẑ stays near zero and the marks
        // (our own pulse brushing a shallow threshold) must not flip us.
        let mut t = 5.0;
        while t < 6.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 50.0));
            let mut r = report(t, 96e6, 96e6, 0.05);
            r.marked_packets = 5;
            r.marked_bytes = 7_500;
            ctl.on_report(&r);
        }
        assert_eq!(ctl.mode(), Mode::Delay);
    }

    #[test]
    fn starts_in_delay_mode_as_pulser() {
        let ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        assert_eq!(ctl.mode(), Mode::Delay);
        assert_eq!(ctl.role(), Role::Pulser);
        assert_eq!(ctl.mode_log().len(), 1);
        assert!((ctl.mu_bps() - 96e6).abs() < 1.0);
    }

    #[test]
    fn pacing_rate_is_pulsed_around_the_base_rate() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(96e6));
        ctl.on_packet_acked(&ack(0.0, 50.0));
        // Collect the pacing rate over one pulse period and check it swings.
        let mut rates = Vec::new();
        for i in 0..200 {
            let t = i as f64 * 0.001;
            rates.push(ctl.pacing_rate_bps(Time::from_secs_f64(t)).unwrap());
        }
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 5e6, "pulse swing {} too small", max - min);
        // Mean stays near the base rate (pulses cancel over a period).
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let base = rates[0];
        assert!(mean < base * 3.0 && mean > base / 3.0);
    }

    /// Drive the controller open-loop with reports synthesized from a given
    /// cross-traffic behaviour and return the final mode.
    fn drive_with_cross_traffic(elastic: bool, secs: f64) -> NimbusController {
        let mu = 96e6;
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(mu));
        ctl.on_packet_acked(&ack(0.0, 60.0));
        let pulse_probe = PulseGenerator::asymmetric(5.0, 0.25 * mu);
        let mut t = 0.0;
        while t < secs {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 60.0));
            // Our own send rate follows the pulsed pacing rate.
            let s = ctl.pacing_rate_bps(Time::from_secs_f64(t)).unwrap().min(mu);
            // Cross traffic: 48 Mbit/s that either reacts inversely to the
            // pulses one RTT later (elastic) or ignores them (inelastic).
            let z = if elastic {
                48e6 - 0.4 * pulse_probe.offset_at(t - 0.05)
            } else {
                48e6
            };
            // The receiver sees R = µ·S/(S+z) when the link is saturated.
            let r = mu * s / (s + z);
            ctl.on_report(&report(t, s, r, 0.06));
        }
        ctl
    }

    #[test]
    fn elastic_cross_traffic_switches_to_competitive_mode() {
        let ctl = drive_with_cross_traffic(true, 12.0);
        assert_eq!(ctl.mode(), Mode::Competitive);
        assert!(
            ctl.mode_log().len() >= 2,
            "should have switched at least once"
        );
        // The switch must not have happened before a full FFT window existed.
        let first_switch = ctl.mode_log()[1].0;
        assert!(first_switch >= 4.95, "switched too early at {first_switch}");
        assert!(ctl.last_verdict().unwrap().eta >= 2.0);
    }

    #[test]
    fn inelastic_cross_traffic_stays_in_delay_mode() {
        let ctl = drive_with_cross_traffic(false, 12.0);
        assert_eq!(ctl.mode(), Mode::Delay);
        assert!(ctl.delay_mode_fraction(0.0, 12.0) > 0.95);
    }

    #[test]
    fn mode_switch_resets_competitive_rate_to_five_seconds_ago() {
        // Build a controller, keep the delay-mode rate high early and low
        // late; on the switch the competitive window must reflect the early
        // (5-seconds-ago) rate rather than the depressed current one.
        let mu = 96e6;
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(mu));
        ctl.on_packet_acked(&ack(0.0, 50.0));
        let pulse_probe = PulseGenerator::asymmetric(5.0, 0.25 * mu);
        let mut t = 0.0;
        while t < 11.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 55.0));
            // Delay-mode base rate: pretend the flow sent 60 Mbit/s early,
            // 20 Mbit/s late (as if an elastic competitor was squeezing it).
            let s = if t < 6.0 { 60e6 } else { 20e6 };
            let z = 30e6 - 0.4 * pulse_probe.offset_at(t - 0.05);
            let r = mu * s / (s + z);
            ctl.on_report(&report(t, s, r, 0.06));
        }
        assert_eq!(ctl.mode(), Mode::Competitive);
        // The competitive controller was reinitialized from the rate history;
        // its window should correspond to something well above the late
        // 20 Mbit/s rate (20 Mbit/s over 55 ms RTT ≈ 92 packets).
        let cwnd = ctl.cwnd_packets();
        assert!(
            cwnd > 120.0,
            "cwnd {cwnd} suggests the reset used the depressed rate"
        );
    }

    #[test]
    fn delay_mode_fraction_accounting() {
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(48e6));
        // Fabricate a mode log: delay 0-10, competitive 10-20, delay 20-30.
        ctl.mode_log.push((10.0, Mode::Competitive));
        ctl.mode_log.push((20.0, Mode::Delay));
        assert!((ctl.delay_mode_fraction(0.0, 30.0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((ctl.delay_mode_fraction(10.0, 20.0) - 0.0).abs() < 1e-9);
        assert!((ctl.delay_mode_fraction(20.0, 30.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn publisher_sees_mode_changes_and_estimates() {
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Log {
            modes: Vec<(f64, Mode)>,
            estimates: usize,
            verdicts: usize,
        }
        struct Recorder(Arc<Mutex<Log>>);
        impl Publisher for Recorder {
            fn on_mode_change(&mut self, now_s: f64, mode: Mode) {
                self.0.lock().unwrap().modes.push((now_s, mode));
            }
            fn on_estimate(&mut self, _now_s: f64, mu_bps: f64, z_bps: f64) {
                assert!(mu_bps.is_finite() && z_bps.is_finite());
                self.0.lock().unwrap().estimates += 1;
            }
            fn on_verdict(&mut self, _now_s: f64, verdict: &DetectorVerdict) {
                assert!(
                    verdict.eta.is_finite() || verdict.eta.is_nan() || verdict.eta.is_infinite()
                );
                self.0.lock().unwrap().verdicts += 1;
            }
        }

        let log = Arc::new(Mutex::new(Log::default()));
        let mu = 96e6;
        let mut ctl = NimbusController::new(NimbusConfig::default_for_link(mu));
        ctl.set_publisher(Box::new(Recorder(Arc::clone(&log))));
        ctl.on_packet_acked(&ack(0.0, 60.0));
        let pulse_probe = PulseGenerator::asymmetric(5.0, 0.25 * mu);
        let mut t = 0.0;
        while t < 12.0 {
            t += 0.01;
            ctl.on_packet_acked(&ack(t, 60.0));
            let s = ctl.pacing_rate_bps(Time::from_secs_f64(t)).unwrap().min(mu);
            let z = 48e6 - 0.4 * pulse_probe.offset_at(t - 0.05);
            let r = mu * s / (s + z);
            ctl.on_report(&report(t, s, r, 0.06));
        }
        let log = log.lock().unwrap();
        // The publisher saw the same switches the mode log recorded (minus
        // the constructor's initial delay-mode entry).
        assert_eq!(ctl.mode_log().len(), log.modes.len() + 1);
        assert!(log.modes.iter().any(|&(_, m)| m == Mode::Competitive));
        assert!(log.estimates > 100, "estimates {}", log.estimates);
        assert!(log.verdicts > 0);
    }
}
