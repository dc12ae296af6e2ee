//! The compositional scheme algebra: what congestion control runs on a flow.
//!
//! # Architecture
//!
//! The paper's central claim is that elasticity detection is a *building
//! block*: Nimbus is not one congestion-control algorithm but a **wrapper**
//! that layers the pulser/detector machinery over two inner controllers — an
//! arbitrary TCP-competitive scheme and an arbitrary delay-mode scheme — and
//! switches between them (§4).  The public API here mirrors that directly:
//!
//! * [`SchemeSpec::Bare`] — a standalone CCA ([`CcKind`]): `cubic`, `reno`,
//!   `vegas`, `copa`, `bbr`, `vivace`, `compound`, `constant(<rate>)`, …
//! * [`SchemeSpec::Nimbus`] — the wrapper, parameterized by a
//!   [`NimbusSpec`]: which competitive scheme, which delay scheme, whether µ
//!   is configured or learned at runtime (§4.2), and whether mode switching
//!   is enabled at all (the paper's "Nimbus delay" baseline disables it).
//!
//! Every spec is **string-parseable** ([`std::str::FromStr`]) and prints
//! back to its canonical form ([`std::fmt::Display`]), so CLI flags, sweep
//! axes and per-flow scenario entries all take the same grammar:
//!
//! ```text
//! cubic                                   a bare CCA
//! constant(24M)                           CBR cross traffic at 24 Mbit/s
//! nimbus                                  the paper's default wrapper
//! nimbus(competitive=reno)                wrap NewReno instead of Cubic
//! nimbus(competitive=dctcp)               DCTCP competitive mode (L4S paths)
//! nimbus(delay=copa,mu=learned)           Copa delay mode, runtime-learned µ
//! nimbus(mu=learned(probe=3))             learned µ with probe-up epochs
//! nimbus(mu=learned(probe=3,gain=4))      ... pacing at 4x during probes
//! nimbus(mu=learned,zfilter=adaptive)     µ-error-aware detection thresholds
//! nimbus(zfilter=notch(freq=0.1))         notch ẑ at the link frequency
//! nimbus(switch=never)                    delay mode only ("Nimbus delay")
//! ```
//!
//! The `mu=`/`zfilter=` axes select a µ-estimation strategy and a
//! ẑ-conditioning stage from the pluggable estimation API
//! ([`nimbus_core::estimator`]); see that module for the strategy catalogue
//! and a worked "which estimator when" table.
//!
//! Result labels ([`SchemeSpec::label`]) are derived from the spec.  The
//! variant names of the long-gone pre-redesign `Scheme` enum survive as
//! parse-string aliases (`"NimbusCubicCopa"`, `"nimbus-copa"`, …) that map
//! onto specs producing byte-identical simulations (pinned by the golden
//! fingerprint table in `tests/golden/mod.rs`), so pre-redesign
//! serialized data still loads.

use nimbus_core::estimator::DEFAULT_MU_WINDOW_S;
use nimbus_core::{
    DelayScheme, LearnedMuConfig, MuEstimatorConfig, MultiflowConfig, NimbusConfig,
    NimbusController, ProbingConfig, TcpScheme, ZFilterConfig,
};
use nimbus_netsim::FlowEndpoint;
use nimbus_transport::{
    format_rate_bps, BackloggedSource, CcKind, CongestionControl, PathInfo, Sender, SenderConfig,
    Source,
};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// The whole scheme-spec grammar in one place: `nimbus-experiments --help`
/// prints it, and [`SchemeSpec::from_str`] quotes it for an unknown scheme.
/// Each line names a slot (`<name>`, or a `key=` Nimbus option) followed by
/// its `|`-separated alternatives.
pub const SCHEME_GRAMMAR: &str = "\
<scheme>      <cca> | nimbus | nimbus(<option>,...)
<cca>         cubic | newreno | vegas | copa | bbr | vivace | compound | dctcp | unlimited | constant(<rate>)
<option>      competitive= | delay= | mu= | zfilter= | switch=
competitive=  cubic | reno | dctcp
delay=        basic | copa | vegas
mu=           configured | learned | learned(<learned>,...)
<learned>     window=<s> | probe=<s> | gain=<x> | dur=<s> | loss=<frac> | lossint=<s> | recent=<s> | cap=<x> | quiesce=<frac>
zfilter=      none | adaptive | adaptive(k=<x>) | notch(freq=<hz>) | notch(freq=<hz>,q=<x>)
switch=       auto | never
(gain, dur, loss, lossint, recent, cap and quiesce tune probing and need probe=)";

/// Where the Nimbus wrapper gets the bottleneck rate µ from: configured up
/// front, or one of the pluggable learned-µ estimation strategies
/// ([`LearnedMuConfig`], §4.2 and beyond).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MuSpec {
    /// µ is configured up front from the scenario's nominal link rate.
    #[default]
    Configured,
    /// µ is learned at runtime (`mu=learned`, `mu=learned(probe=…)`, …).
    Learned(LearnedMuConfig),
}

impl MuSpec {
    /// The classic §4.2 max-filter learned µ (`mu=learned`).
    pub fn learned() -> Self {
        MuSpec::Learned(LearnedMuConfig::default())
    }

    /// Learned µ with probe-up epochs and the loss floor
    /// (`mu=learned(probe=…)`), at the default probing parameters.
    pub fn probing() -> Self {
        MuSpec::Learned(LearnedMuConfig::Probing(ProbingConfig::default()))
    }

    /// Whether µ is learned at runtime (any strategy).
    pub fn is_learned(&self) -> bool {
        matches!(self, MuSpec::Learned(_))
    }
}

/// Whether the Nimbus wrapper may switch into TCP-competitive mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchSpec {
    /// Follow the elasticity detector (the paper's Nimbus).
    #[default]
    Auto,
    /// Never switch: stay in delay mode forever ("Nimbus delay").
    Never,
}

/// The parameters of the Nimbus wrapper: elasticity detection layered over
/// an inner competitive scheme and an inner delay scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NimbusSpec {
    /// The inner TCP-competitive scheme (used when cross traffic is elastic).
    pub competitive: TcpScheme,
    /// The inner delay-controlling scheme (used when it is not).
    pub delay: DelayScheme,
    /// Where the bottleneck-rate estimate µ comes from.
    pub mu: MuSpec,
    /// ẑ conditioning between the estimator and the detector.
    pub zfilter: ZFilterConfig,
    /// Whether mode switching is enabled.
    pub switch: SwitchSpec,
}

impl Default for NimbusSpec {
    /// The paper's default wrapper: Cubic + BasicDelay, configured µ, raw ẑ,
    /// detector-driven switching.
    fn default() -> Self {
        NimbusSpec {
            competitive: TcpScheme::Cubic,
            delay: DelayScheme::BasicDelay,
            mu: MuSpec::Configured,
            zfilter: ZFilterConfig::None,
            switch: SwitchSpec::Auto,
        }
    }
}

/// A congestion-control scheme specification: either a bare CCA or the
/// Nimbus wrapper composed over inner CCAs.  See the [module docs](self)
/// for the grammar and the architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// The Nimbus wrapper (§4) around inner competitive/delay schemes.
    Nimbus(NimbusSpec),
    /// A standalone CCA with no elasticity detection.
    Bare(CcKind),
}

/// A scheme-spec parse failure, with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError(pub String);

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scheme spec: {}", self.0)
    }
}

impl std::error::Error for ParseSchemeError {}

impl SchemeSpec {
    // ---- constructors ---------------------------------------------------

    /// The paper's default Nimbus: Cubic-competitive + BasicDelay,
    /// configured µ, detector-driven switching.
    pub fn nimbus() -> Self {
        SchemeSpec::Nimbus(NimbusSpec::default())
    }

    /// Nimbus with Copa's default mode as the delay scheme (`nimbus-copa`).
    pub fn nimbus_copa() -> Self {
        Self::nimbus().with_delay(DelayScheme::CopaDefault)
    }

    /// Nimbus with Vegas as the delay scheme (`nimbus-vegas`).
    pub fn nimbus_vegas() -> Self {
        Self::nimbus().with_delay(DelayScheme::Vegas)
    }

    /// Nimbus's delay controller alone, mode switching disabled
    /// (`nimbus-delay`).
    pub fn nimbus_delay_only() -> Self {
        Self::nimbus().delay_only()
    }

    /// Nimbus learning µ at runtime from the max receive rate
    /// (`nimbus-estmu`, §4.2).
    pub fn nimbus_estmu() -> Self {
        Self::nimbus().with_learned_mu()
    }

    /// Bare TCP Cubic.
    pub fn cubic() -> Self {
        SchemeSpec::Bare(CcKind::Cubic)
    }

    /// Bare TCP NewReno.
    pub fn newreno() -> Self {
        SchemeSpec::Bare(CcKind::NewReno)
    }

    /// Bare TCP Vegas.
    pub fn vegas() -> Self {
        SchemeSpec::Bare(CcKind::Vegas)
    }

    /// Bare Copa (its own mode switching).
    pub fn copa() -> Self {
        SchemeSpec::Bare(CcKind::Copa)
    }

    /// Bare BBR.
    pub fn bbr() -> Self {
        SchemeSpec::Bare(CcKind::Bbr)
    }

    /// Bare PCC-Vivace.
    pub fn vivace() -> Self {
        SchemeSpec::Bare(CcKind::Vivace)
    }

    /// Bare Compound TCP.
    pub fn compound() -> Self {
        SchemeSpec::Bare(CcKind::Compound)
    }

    /// Bare DCTCP (ECN mark-fraction reaction; negotiates ECN).
    pub fn dctcp() -> Self {
        SchemeSpec::Bare(CcKind::Dctcp)
    }

    /// A constant-bit-rate (inelastic) sender at `rate_bps`.
    pub fn constant(rate_bps: f64) -> Self {
        SchemeSpec::Bare(CcKind::ConstantRate(rate_bps))
    }

    // ---- builders (Nimbus only) ----------------------------------------

    fn map_nimbus(self, f: impl FnOnce(&mut NimbusSpec)) -> Self {
        match self {
            SchemeSpec::Nimbus(mut n) => {
                f(&mut n);
                SchemeSpec::Nimbus(n)
            }
            SchemeSpec::Bare(kind) => panic!(
                "scheme `{}` is a bare CCA; Nimbus options only apply to nimbus(...) specs",
                kind
            ),
        }
    }

    /// Replace the wrapper's inner TCP-competitive scheme.
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_competitive(self, competitive: TcpScheme) -> Self {
        self.map_nimbus(|n| n.competitive = competitive)
    }

    /// Replace the wrapper's inner delay-controlling scheme.
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_delay(self, delay: DelayScheme) -> Self {
        self.map_nimbus(|n| n.delay = delay)
    }

    /// Learn µ at runtime instead of configuring it (§4.2), with the
    /// classic max-filter strategy.
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_learned_mu(self) -> Self {
        self.map_nimbus(|n| n.mu = MuSpec::learned())
    }

    /// Learn µ with an arbitrary strategy (`mu=learned(…)`).
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_mu_strategy(self, strategy: LearnedMuConfig) -> Self {
        self.map_nimbus(|n| n.mu = MuSpec::Learned(strategy))
    }

    /// Learn µ with probe-up epochs and the loss floor at default parameters
    /// (`mu=learned(probe=3)`).
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_probing_mu(self) -> Self {
        self.map_nimbus(|n| n.mu = MuSpec::probing())
    }

    /// Learn µ with probe-up epochs that auto-quiesce below the given
    /// uncertainty floor (`mu=learned(probe=<interval>,quiesce=<floor>)`).
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_quiesced_probing_mu(self, interval_s: f64, floor: f64) -> Self {
        self.with_mu_strategy(LearnedMuConfig::Probing(ProbingConfig {
            probe_interval_s: interval_s,
            quiesce_uncertainty_floor: floor,
            ..ProbingConfig::default()
        }))
    }

    /// Install a ẑ-conditioning stage (`zfilter=…`).
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn with_z_filter(self, zfilter: ZFilterConfig) -> Self {
        self.map_nimbus(|n| n.zfilter = zfilter)
    }

    /// Disable mode switching (the "Nimbus delay" baseline).
    ///
    /// # Panics
    /// Panics on a bare (non-Nimbus) spec.
    pub fn delay_only(self) -> Self {
        self.map_nimbus(|n| n.switch = SwitchSpec::Never)
    }

    // ---- inspection -----------------------------------------------------

    /// All schemes plotted in Fig. 8/9.
    pub fn headline_set() -> Vec<SchemeSpec> {
        vec![
            Self::nimbus(),
            Self::cubic(),
            Self::bbr(),
            Self::vegas(),
            Self::copa(),
            Self::vivace(),
        ]
    }

    /// Whether this spec is a Nimbus wrapper (whose controller exposes a
    /// mode log / detector).
    pub fn is_nimbus(&self) -> bool {
        matches!(self, SchemeSpec::Nimbus(_))
    }

    /// Whether flows running this spec negotiate ECN (set ECT on their data
    /// packets so marking queues mark them instead of dropping): bare DCTCP,
    /// and Nimbus wrappers whose competitive scheme is DCTCP.  Other flows
    /// can still be forced onto ECN by the scenario's `ecn=` axis.
    pub fn uses_ecn(&self) -> bool {
        match self {
            SchemeSpec::Bare(kind) => matches!(kind, CcKind::Dctcp),
            SchemeSpec::Nimbus(n) => n.competitive == TcpScheme::Dctcp,
        }
    }

    /// Whether a backlogged flow running this spec reacts to competing
    /// traffic (CBR/unlimited senders do not; everything else does).
    pub fn is_elastic(&self) -> bool {
        match self {
            SchemeSpec::Nimbus(_) => true,
            SchemeSpec::Bare(kind) => !matches!(kind, CcKind::ConstantRate(_) | CcKind::Unlimited),
        }
    }

    /// A short label for result tables and cell names, derived from the
    /// spec.  Legacy combinations keep their historical labels (`nimbus`,
    /// `nimbus-copa`, `nimbus-estmu`, `cubic`, `pcc-vivace`, …); novel
    /// combinations compose suffixes (`nimbus-reno-copa-estmu`).
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::Bare(kind) => match kind {
                // The exact rate rendering (`cbr24M`, `cbr400k`) keeps
                // distinct CBR schemes distinct in name-keyed results.
                CcKind::ConstantRate(bps) => format!("cbr{}", format_rate_bps(*bps)),
                other => other.name().to_string(),
            },
            SchemeSpec::Nimbus(n) => {
                let mut label = String::from("nimbus");
                if n.switch == SwitchSpec::Never {
                    label.push_str("-delay");
                }
                match n.competitive {
                    TcpScheme::Cubic => {}
                    TcpScheme::NewReno => label.push_str("-reno"),
                    TcpScheme::Dctcp => label.push_str("-dctcp"),
                }
                match n.delay {
                    DelayScheme::BasicDelay => {}
                    DelayScheme::CopaDefault => label.push_str("-copa"),
                    DelayScheme::Vegas => label.push_str("-vegas"),
                }
                if let MuSpec::Learned(lc) = n.mu {
                    label.push_str(&learned_mu_label(&lc));
                }
                match n.zfilter {
                    ZFilterConfig::None => {}
                    ZFilterConfig::Notch { freq_hz, .. } => {
                        label.push_str(&format!("-notch{freq_hz}"));
                    }
                    ZFilterConfig::Adaptive { k } => {
                        if k == 8.0 {
                            label.push_str("-zadapt");
                        } else {
                            label.push_str(&format!("-zadapt{k}"));
                        }
                    }
                }
                label
            }
        }
    }

    // ---- building the sender stack --------------------------------------

    /// Build a Nimbus configuration for this spec on a link of `mu_bps`
    /// (`None` for bare specs).
    pub fn nimbus_config(&self, mu_bps: f64, seed: u64) -> Option<NimbusConfig> {
        let SchemeSpec::Nimbus(n) = self else {
            return None;
        };
        let mut cfg = NimbusConfig::default_for_link(mu_bps)
            .with_seed(seed)
            .with_tcp_scheme(n.competitive)
            .with_delay_scheme(n.delay);
        if let MuSpec::Learned(lc) = n.mu {
            cfg = cfg.with_mu_estimator(MuEstimatorConfig::Learned(lc));
        }
        if n.zfilter != ZFilterConfig::None {
            cfg = cfg.with_z_filter(n.zfilter);
        }
        if n.switch == SwitchSpec::Never {
            cfg = cfg.without_switching();
        }
        Some(cfg)
    }

    /// Build just the congestion controller for this spec (the piece a
    /// [`Sender`] is generic over).
    pub fn build_cc(
        &self,
        mu_bps: f64,
        seed: u64,
        multiflow: Option<MultiflowConfig>,
    ) -> Box<dyn CongestionControl> {
        match self {
            SchemeSpec::Nimbus(_) => {
                let mut cfg = self.nimbus_config(mu_bps, seed).expect("nimbus spec");
                if let Some(mf) = multiflow {
                    cfg = cfg.with_multiflow(mf);
                }
                Box::new(NimbusController::new(cfg))
            }
            SchemeSpec::Bare(kind) => kind.build(&PathInfo::new(1500)),
        }
    }

    /// Instantiate a backlogged flow endpoint running this spec.
    ///
    /// `mu_bps` is the path's nominal bottleneck rate (needed by Nimbus
    /// wrappers with configured µ), `seed` drives any randomized behaviour,
    /// and `multiflow` enables the pulser/watcher protocol on Nimbus specs.
    pub fn build_endpoint(
        &self,
        mu_bps: f64,
        seed: u64,
        multiflow: Option<MultiflowConfig>,
    ) -> Box<dyn FlowEndpoint> {
        self.build_endpoint_with_source(mu_bps, seed, multiflow, Box::new(BackloggedSource))
    }

    /// Instantiate a flow endpoint running this spec over a custom source.
    pub fn build_endpoint_with_source(
        &self,
        mu_bps: f64,
        seed: u64,
        multiflow: Option<MultiflowConfig>,
        source: Box<dyn Source>,
    ) -> Box<dyn FlowEndpoint> {
        self.build_endpoint_labelled(&self.label(), mu_bps, seed, multiflow, source)
    }

    /// Instantiate a flow endpoint with an explicit sender label (cross
    /// flows conventionally label themselves `<scheme>-cross`).
    pub fn build_endpoint_labelled(
        &self,
        label: &str,
        mu_bps: f64,
        seed: u64,
        multiflow: Option<MultiflowConfig>,
        source: Box<dyn Source>,
    ) -> Box<dyn FlowEndpoint> {
        Box::new(Sender::new(
            SenderConfig::labelled(label),
            self.build_cc(mu_bps, seed, multiflow),
            source,
        ))
    }
}

// ---- canonical text form -------------------------------------------------

/// Label suffix for a learned-µ strategy: the legacy `-estmu` for the plain
/// default max filter, compact parameter slugs for everything else (only
/// non-default parameters are appended, so distinct strategies get distinct
/// cell names without default noise).
fn learned_mu_label(lc: &LearnedMuConfig) -> String {
    match lc {
        LearnedMuConfig::MaxFilter { window_s } if *window_s == DEFAULT_MU_WINDOW_S => {
            "-estmu".to_string()
        }
        LearnedMuConfig::MaxFilter { window_s } => format!("-estmu-w{window_s}"),
        LearnedMuConfig::Probing(p) => {
            let d = ProbingConfig::default();
            let mut s = format!("-estmu-probe{}", p.probe_interval_s);
            // Every non-default parameter gets a slug: two strategies that
            // differ in any knob must never share a cell/result name.
            if p.probe_gain != d.probe_gain {
                s.push_str(&format!("g{}", p.probe_gain));
            }
            if p.probe_duration_s != d.probe_duration_s {
                s.push_str(&format!("d{}", p.probe_duration_s));
            }
            if p.window_s != d.window_s {
                s.push_str(&format!("w{}", p.window_s));
            }
            if p.loss_backoff != d.loss_backoff {
                s.push_str(&format!("l{}", p.loss_backoff));
            }
            if p.backoff_interval_s != d.backoff_interval_s {
                s.push_str(&format!("li{}", p.backoff_interval_s));
            }
            if p.recent_window_s != d.recent_window_s {
                s.push_str(&format!("r{}", p.recent_window_s));
            }
            if p.cap_margin != d.cap_margin {
                s.push_str(&format!("c{}", p.cap_margin));
            }
            if p.quiesce_uncertainty_floor != d.quiesce_uncertainty_floor {
                s.push_str(&format!("q{}", p.quiesce_uncertainty_floor));
            }
            s
        }
    }
}

/// The canonical `mu=` option value (`learned`, `learned(probe=3)`, …).
fn mu_option(lc: &LearnedMuConfig) -> String {
    let mut args = Vec::new();
    match lc {
        LearnedMuConfig::MaxFilter { window_s } => {
            if *window_s != DEFAULT_MU_WINDOW_S {
                args.push(format!("window={window_s}"));
            }
        }
        LearnedMuConfig::Probing(p) => {
            let d = ProbingConfig::default();
            args.push(format!("probe={}", p.probe_interval_s));
            if p.probe_gain != d.probe_gain {
                args.push(format!("gain={}", p.probe_gain));
            }
            if p.probe_duration_s != d.probe_duration_s {
                args.push(format!("dur={}", p.probe_duration_s));
            }
            if p.window_s != d.window_s {
                args.push(format!("window={}", p.window_s));
            }
            if p.loss_backoff != d.loss_backoff {
                args.push(format!("loss={}", p.loss_backoff));
            }
            if p.backoff_interval_s != d.backoff_interval_s {
                args.push(format!("lossint={}", p.backoff_interval_s));
            }
            if p.recent_window_s != d.recent_window_s {
                args.push(format!("recent={}", p.recent_window_s));
            }
            if p.cap_margin != d.cap_margin {
                args.push(format!("cap={}", p.cap_margin));
            }
            if p.quiesce_uncertainty_floor != d.quiesce_uncertainty_floor {
                args.push(format!("quiesce={}", p.quiesce_uncertainty_floor));
            }
        }
    }
    if args.is_empty() {
        "mu=learned".to_string()
    } else {
        format!("mu=learned({})", args.join(","))
    }
}

/// The canonical `zfilter=` option value (`notch(freq=0.1)`, `adaptive`, …).
fn zfilter_option(zf: &ZFilterConfig) -> Option<String> {
    match zf {
        ZFilterConfig::None => None,
        ZFilterConfig::Notch { freq_hz, q } if *q == 0.7 => {
            Some(format!("zfilter=notch(freq={freq_hz})"))
        }
        ZFilterConfig::Notch { freq_hz, q } => Some(format!("zfilter=notch(freq={freq_hz},q={q})")),
        ZFilterConfig::Adaptive { k } if *k == 8.0 => Some("zfilter=adaptive".to_string()),
        ZFilterConfig::Adaptive { k } => Some(format!("zfilter=adaptive(k={k})")),
    }
}

impl fmt::Display for SchemeSpec {
    /// The canonical, re-parseable spec string: bare names for bare CCAs,
    /// `nimbus` for the default wrapper, `nimbus(key=value,...)` with only
    /// the non-default keys otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::Bare(kind) => write!(f, "{kind}"),
            SchemeSpec::Nimbus(n) => {
                let mut opts = Vec::new();
                match n.competitive {
                    TcpScheme::Cubic => {}
                    TcpScheme::NewReno => opts.push("competitive=reno".to_string()),
                    TcpScheme::Dctcp => opts.push("competitive=dctcp".to_string()),
                }
                match n.delay {
                    DelayScheme::BasicDelay => {}
                    DelayScheme::CopaDefault => opts.push("delay=copa".to_string()),
                    DelayScheme::Vegas => opts.push("delay=vegas".to_string()),
                }
                if let MuSpec::Learned(lc) = &n.mu {
                    opts.push(mu_option(lc));
                }
                if let Some(zf) = zfilter_option(&n.zfilter) {
                    opts.push(zf);
                }
                if n.switch == SwitchSpec::Never {
                    opts.push("switch=never".to_string());
                }
                if opts.is_empty() {
                    write!(f, "nimbus")
                } else {
                    write!(f, "nimbus({})", opts.join(","))
                }
            }
        }
    }
}

/// Split on `sep` at parenthesis depth zero only, so values like
/// `learned(probe=3,gain=2)` survive the option split intact.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Split a `head(inner)` call form; a bare `head` has no inner args.
/// Errors if the parentheses are unbalanced.
fn split_call(value: &str) -> Result<(&str, Option<&str>), ParseSchemeError> {
    match value.split_once('(') {
        None => Ok((value, None)),
        Some((head, rest)) => {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseSchemeError(format!("`{value}` is missing the closing `)`")))?;
            Ok((head, Some(inner)))
        }
    }
}

/// Parse one positive-number parameter of a `mu=learned(...)` or
/// `zfilter=...(...)` call.
fn parse_positive(key: &str, value: &str, what: &str) -> Result<f64, ParseSchemeError> {
    let v: f64 = value
        .trim()
        .parse()
        .map_err(|_| ParseSchemeError(format!("invalid {what} `{key}={value}`: not a number")))?;
    if !(v > 0.0 && v.is_finite()) {
        return Err(ParseSchemeError(format!(
            "invalid {what} `{key}={value}`: must be a positive number"
        )));
    }
    Ok(v)
}

/// Parse the value of `mu=`: `configured`, `learned`, or a parameterised
/// `learned(probe=…, gain=…, dur=…, window=…, loss=…, lossint=…, recent=…,
/// cap=…, quiesce=…)` strategy.
fn parse_mu_value(value: &str) -> Result<MuSpec, ParseSchemeError> {
    let (head, inner) = split_call(value)?;
    match (head.trim(), inner) {
        ("configured", None) => Ok(MuSpec::Configured),
        ("learned", None) | ("estimated", None) => Ok(MuSpec::learned()),
        ("learned", Some(args)) | ("estimated", Some(args)) => {
            let mut window_s: Option<f64> = None;
            let mut probe: Option<f64> = None;
            let mut gain: Option<f64> = None;
            let mut dur: Option<f64> = None;
            let mut loss: Option<f64> = None;
            let mut lossint: Option<f64> = None;
            let mut recent: Option<f64> = None;
            let mut cap: Option<f64> = None;
            let mut quiesce: Option<f64> = None;
            for pair in args.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let Some((key, v)) = pair.split_once('=') else {
                    return Err(ParseSchemeError(format!(
                        "mu=learned option `{pair}` is not of the form key=value \
                         (expected probe=, gain=, dur=, window=, loss=, lossint=, \
                         recent=, cap=, or quiesce=)"
                    )));
                };
                let slot = match key.trim() {
                    "probe" => &mut probe,
                    "gain" => &mut gain,
                    "dur" => &mut dur,
                    "window" => &mut window_s,
                    "loss" => &mut loss,
                    "lossint" => &mut lossint,
                    "recent" => &mut recent,
                    "cap" => &mut cap,
                    "quiesce" => &mut quiesce,
                    k => {
                        return Err(ParseSchemeError(format!(
                            "unknown mu=learned option `{k}` (expected probe=<s>, gain=<x>, \
                             dur=<s>, window=<s>, loss=<frac>, lossint=<s>, recent=<s>, \
                             cap=<x>, quiesce=<frac>)"
                        )))
                    }
                };
                *slot = Some(parse_positive(key.trim(), v, "mu=learned parameter")?);
            }
            if probe.is_none()
                && (gain.is_some()
                    || dur.is_some()
                    || loss.is_some()
                    || lossint.is_some()
                    || recent.is_some()
                    || cap.is_some()
                    || quiesce.is_some())
            {
                return Err(ParseSchemeError(
                    "mu=learned probing parameters (gain/dur/loss/lossint) require probe=<interval>"
                        .to_string(),
                ));
            }
            match probe {
                None => Ok(MuSpec::Learned(LearnedMuConfig::MaxFilter {
                    window_s: window_s.unwrap_or(DEFAULT_MU_WINDOW_S),
                })),
                Some(interval) => {
                    let d = ProbingConfig::default();
                    let cfg = ProbingConfig {
                        window_s: window_s.unwrap_or(d.window_s),
                        probe_interval_s: interval,
                        probe_duration_s: dur.unwrap_or(d.probe_duration_s),
                        probe_gain: gain.unwrap_or(d.probe_gain),
                        loss_backoff: loss.unwrap_or(d.loss_backoff),
                        backoff_interval_s: lossint.unwrap_or(d.backoff_interval_s),
                        recent_window_s: recent.unwrap_or(d.recent_window_s),
                        cap_margin: cap.unwrap_or(d.cap_margin),
                        quiesce_uncertainty_floor: quiesce.unwrap_or(d.quiesce_uncertainty_floor),
                    };
                    if 2.0 * cfg.probe_duration_s >= cfg.probe_interval_s {
                        return Err(ParseSchemeError(format!(
                            "probe duration {} s plus its equal-length drain (during which \
                             ẑ is held) must be shorter than the probe interval {} s — \
                             use dur < probe/2",
                            cfg.probe_duration_s, cfg.probe_interval_s
                        )));
                    }
                    if cfg.probe_gain <= 1.0 {
                        return Err(ParseSchemeError(format!(
                            "probe gain {} must exceed 1 (a probe paces *above* the base rate)",
                            cfg.probe_gain
                        )));
                    }
                    if cfg.loss_backoff >= 1.0 {
                        return Err(ParseSchemeError(format!(
                            "loss backoff {} must be a decay factor below 1",
                            cfg.loss_backoff
                        )));
                    }
                    if cfg.quiesce_uncertainty_floor >= 1.0 {
                        return Err(ParseSchemeError(format!(
                            "quiesce floor {} is compared against the µ̂ uncertainty in \
                             [0, 1) — 1 or above would quiesce probing unconditionally",
                            cfg.quiesce_uncertainty_floor
                        )));
                    }
                    Ok(MuSpec::Learned(LearnedMuConfig::Probing(cfg)))
                }
            }
        }
        (v, _) => Err(ParseSchemeError(format!(
            "unknown mu mode `{v}` (expected configured, learned, or learned(probe=...))"
        ))),
    }
}

/// Parse the value of `zfilter=`: `none`, `notch(freq=…[,q=…])`, or
/// `adaptive[(k=…)]`.
fn parse_zfilter_value(value: &str) -> Result<ZFilterConfig, ParseSchemeError> {
    let (head, inner) = split_call(value)?;
    match (head.trim(), inner) {
        ("none", None) => Ok(ZFilterConfig::None),
        ("adaptive", None) => Ok(ZFilterConfig::adaptive()),
        ("adaptive", Some(args)) => {
            let mut k = match ZFilterConfig::adaptive() {
                ZFilterConfig::Adaptive { k } => k,
                _ => unreachable!(),
            };
            for pair in args.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                match pair.split_once('=') {
                    Some(("k", v)) => k = parse_positive("k", v, "zfilter parameter")?,
                    _ => {
                        return Err(ParseSchemeError(format!(
                            "unknown zfilter=adaptive option `{pair}` (expected k=<gain>)"
                        )))
                    }
                }
            }
            Ok(ZFilterConfig::Adaptive { k })
        }
        ("notch", Some(args)) => {
            let mut freq: Option<f64> = None;
            let mut q = 0.7;
            for pair in args.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                match pair.split_once('=') {
                    Some(("freq", v)) => {
                        freq = Some(parse_positive("freq", v, "zfilter parameter")?)
                    }
                    Some(("q", v)) => q = parse_positive("q", v, "zfilter parameter")?,
                    _ => {
                        return Err(ParseSchemeError(format!(
                            "unknown zfilter=notch option `{pair}` (expected freq=<hz>, q=<q>)"
                        )))
                    }
                }
            }
            let freq_hz = freq.ok_or_else(|| {
                ParseSchemeError(
                    "zfilter=notch requires the link-variation frequency: notch(freq=<hz>)"
                        .to_string(),
                )
            })?;
            Ok(ZFilterConfig::Notch { freq_hz, q })
        }
        ("notch", None) => Err(ParseSchemeError(
            "zfilter=notch requires the link-variation frequency: notch(freq=<hz>)".to_string(),
        )),
        (v, _) => Err(ParseSchemeError(format!(
            "unknown zfilter `{v}` (expected none, notch(freq=...), or adaptive)"
        ))),
    }
}

fn parse_nimbus_options(args: &str) -> Result<NimbusSpec, ParseSchemeError> {
    let mut spec = NimbusSpec::default();
    for pair in split_top_level(args, ',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let Some((key, value)) = pair.split_once('=') else {
            return Err(ParseSchemeError(format!(
                "nimbus option `{pair}` is not of the form key=value \
                 (expected competitive=, delay=, mu=, zfilter=, or switch=)"
            )));
        };
        match (key.trim(), value.trim()) {
            ("competitive", "cubic") => spec.competitive = TcpScheme::Cubic,
            ("competitive", "reno") | ("competitive", "newreno") => {
                spec.competitive = TcpScheme::NewReno
            }
            ("competitive", "dctcp") => spec.competitive = TcpScheme::Dctcp,
            ("competitive", v) => {
                return Err(ParseSchemeError(format!(
                    "unknown competitive scheme `{v}` (expected cubic, reno, or dctcp)"
                )))
            }
            ("delay", "basic") | ("delay", "basicdelay") => spec.delay = DelayScheme::BasicDelay,
            ("delay", "copa") => spec.delay = DelayScheme::CopaDefault,
            ("delay", "vegas") => spec.delay = DelayScheme::Vegas,
            ("delay", v) => {
                return Err(ParseSchemeError(format!(
                    "unknown delay scheme `{v}` (expected basic, copa, or vegas)"
                )))
            }
            ("mu", v) => spec.mu = parse_mu_value(v)?,
            ("zfilter", v) => spec.zfilter = parse_zfilter_value(v)?,
            ("switch", "auto") => spec.switch = SwitchSpec::Auto,
            ("switch", "never") | ("switch", "off") => spec.switch = SwitchSpec::Never,
            ("switch", v) => {
                return Err(ParseSchemeError(format!(
                    "unknown switch mode `{v}` (expected auto or never)"
                )))
            }
            (k, _) => {
                return Err(ParseSchemeError(format!(
                    "unknown nimbus option `{k}` \
                     (expected competitive=cubic|reno|dctcp, delay=basic|copa|vegas, \
                     mu=configured|learned|learned(probe=...), \
                     zfilter=none|notch(freq=...)|adaptive, switch=auto|never)"
                )))
            }
        }
    }
    Ok(spec)
}

impl FromStr for SchemeSpec {
    type Err = ParseSchemeError;

    /// Parse a spec string.  Accepts the canonical grammar (see the
    /// [module docs](self)), the legacy `Scheme` enum variant names
    /// (`NimbusCubicCopa`, `Vivace`, …) and the legacy labels
    /// (`nimbus-copa`, `nimbus-estmu`, `pcc-vivace`, …) as aliases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        // Legacy enum variant names (the old serde encoding of `Scheme`).
        match trimmed {
            "NimbusCubicBasicDelay" => return Ok(Self::nimbus()),
            "NimbusCubicCopa" => return Ok(Self::nimbus_copa()),
            "NimbusCubicVegas" => return Ok(Self::nimbus_vegas()),
            "NimbusDelayOnly" => return Ok(Self::nimbus_delay_only()),
            "NimbusEstimatedMu" => return Ok(Self::nimbus_estmu()),
            "Cubic" => return Ok(Self::cubic()),
            "NewReno" => return Ok(Self::newreno()),
            "Vegas" => return Ok(Self::vegas()),
            "Copa" => return Ok(Self::copa()),
            "Bbr" => return Ok(Self::bbr()),
            "Vivace" => return Ok(Self::vivace()),
            "Compound" => return Ok(Self::compound()),
            _ => {}
        }
        let lower = trimmed.to_ascii_lowercase();
        // Legacy labels for the Nimbus flavours.
        match lower.as_str() {
            "nimbus" => return Ok(Self::nimbus()),
            "nimbus-copa" => return Ok(Self::nimbus_copa()),
            "nimbus-vegas" => return Ok(Self::nimbus_vegas()),
            "nimbus-delay" => return Ok(Self::nimbus_delay_only()),
            "nimbus-estmu" => return Ok(Self::nimbus_estmu()),
            _ => {}
        }
        if let Some(rest) = lower.strip_prefix("nimbus(") {
            let args = rest.strip_suffix(')').ok_or_else(|| {
                ParseSchemeError(format!("`{trimmed}` is missing the closing `)`"))
            })?;
            return Ok(SchemeSpec::Nimbus(parse_nimbus_options(args)?));
        }
        // The constant(<rate>)/cbr(<rate>) grammar lives in `CcKind`'s own
        // `FromStr`; for those heads its diagnostics (bad rate, missing
        // paren) are the actionable message, while anything else gets the
        // spec-level overview of the whole grammar.
        match lower.parse::<CcKind>() {
            Ok(kind) => Ok(SchemeSpec::Bare(kind)),
            Err(e) if lower.starts_with("constant(") || lower.starts_with("cbr(") => {
                Err(ParseSchemeError(e))
            }
            Err(_) => Err(ParseSchemeError(format!(
                "unknown scheme `{trimmed}`; the grammar is\n{SCHEME_GRAMMAR}"
            ))),
        }
    }
}

impl Serialize for SchemeSpec {
    /// Serialized as the canonical spec string.
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for SchemeSpec {
    /// Deserialized from any string [`FromStr`] accepts — including the
    /// legacy `Scheme` variant names, so pre-redesign serialized data still
    /// loads.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => s.parse().map_err(|e: ParseSchemeError| serde::Error(e.0)),
            other => Err(serde::Error(format!(
                "expected scheme spec string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_legacy() -> Vec<SchemeSpec> {
        vec![
            SchemeSpec::nimbus(),
            SchemeSpec::nimbus_copa(),
            SchemeSpec::nimbus_vegas(),
            SchemeSpec::nimbus_delay_only(),
            SchemeSpec::nimbus_estmu(),
            SchemeSpec::cubic(),
            SchemeSpec::newreno(),
            SchemeSpec::vegas(),
            SchemeSpec::copa(),
            SchemeSpec::bbr(),
            SchemeSpec::vivace(),
            SchemeSpec::compound(),
        ]
    }

    #[test]
    fn every_spec_builds_an_endpoint_with_its_label() {
        let mut specs = all_legacy();
        specs.push(SchemeSpec::nimbus().with_competitive(TcpScheme::NewReno));
        specs.push(SchemeSpec::nimbus_copa().with_learned_mu());
        specs.push(SchemeSpec::constant(12e6));
        for s in specs {
            let ep = s.build_endpoint(96e6, 1, None);
            assert_eq!(ep.label(), s.label());
        }
    }

    #[test]
    fn legacy_labels_are_preserved() {
        let expected = [
            "nimbus",
            "nimbus-copa",
            "nimbus-vegas",
            "nimbus-delay",
            "nimbus-estmu",
            "cubic",
            "newreno",
            "vegas",
            "copa",
            "bbr",
            "pcc-vivace",
            "compound",
        ];
        for (spec, want) in all_legacy().iter().zip(expected) {
            assert_eq!(spec.label(), want);
        }
    }

    #[test]
    fn novel_combinations_compose_labels() {
        assert_eq!(
            SchemeSpec::nimbus()
                .with_competitive(TcpScheme::NewReno)
                .label(),
            "nimbus-reno"
        );
        assert_eq!(
            SchemeSpec::nimbus()
                .with_competitive(TcpScheme::Dctcp)
                .label(),
            "nimbus-dctcp"
        );
        assert_eq!(SchemeSpec::dctcp().label(), "dctcp");
        assert_eq!(
            SchemeSpec::nimbus_copa().with_learned_mu().label(),
            "nimbus-copa-estmu"
        );
        assert_eq!(
            SchemeSpec::nimbus_delay_only()
                .with_delay(DelayScheme::Vegas)
                .label(),
            "nimbus-delay-vegas"
        );
        assert_eq!(SchemeSpec::constant(24e6).label(), "cbr24M");
        assert_eq!(SchemeSpec::constant(4e5).label(), "cbr400k");
    }

    #[test]
    fn display_round_trips_and_aliases_parse() {
        for spec in all_legacy() {
            let text = spec.to_string();
            let back: SchemeSpec = text.parse().unwrap();
            assert_eq!(back, spec, "`{text}` did not round-trip");
        }
        // Canonical strings for the interesting flavours.
        assert_eq!(SchemeSpec::nimbus().to_string(), "nimbus");
        assert_eq!(SchemeSpec::nimbus_copa().to_string(), "nimbus(delay=copa)");
        assert_eq!(
            SchemeSpec::nimbus_delay_only().to_string(),
            "nimbus(switch=never)"
        );
        // Legacy aliases.
        assert_eq!(
            "NimbusCubicCopa".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::nimbus_copa()
        );
        assert_eq!(
            "nimbus-estmu".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::nimbus_estmu()
        );
        assert_eq!(
            "pcc-vivace".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::vivace()
        );
        // Whitespace and case tolerance.
        assert_eq!(
            " Nimbus( Competitive = Reno , Mu = Learned ) "
                .parse::<SchemeSpec>()
                .unwrap(),
            SchemeSpec::nimbus()
                .with_competitive(TcpScheme::NewReno)
                .with_learned_mu()
        );
        assert_eq!(
            "constant(24M)".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::constant(24e6)
        );
        // The ECN family round-trips.
        let prague = SchemeSpec::nimbus().with_competitive(TcpScheme::Dctcp);
        assert_eq!(prague.to_string(), "nimbus(competitive=dctcp)");
        assert_eq!(
            "nimbus(competitive=dctcp)".parse::<SchemeSpec>().unwrap(),
            prague
        );
        assert_eq!("dctcp".parse::<SchemeSpec>().unwrap(), SchemeSpec::dctcp());
        assert!(prague.uses_ecn());
        assert!(SchemeSpec::dctcp().uses_ecn());
        assert!(!SchemeSpec::nimbus().uses_ecn());
        assert!(!SchemeSpec::cubic().uses_ecn());
    }

    #[test]
    fn malformed_specs_report_actionable_errors() {
        let err = "nimbus(delay=reno)".parse::<SchemeSpec>().unwrap_err();
        assert!(err.0.contains("unknown delay scheme"), "{err}");
        let err = "nimbus(pulse=off)".parse::<SchemeSpec>().unwrap_err();
        assert!(err.0.contains("unknown nimbus option"), "{err}");
        let err = "nimbus(delay=copa".parse::<SchemeSpec>().unwrap_err();
        assert!(err.0.contains("closing"), "{err}");
        let err = "quic".parse::<SchemeSpec>().unwrap_err();
        assert!(err.0.contains("unknown scheme"), "{err}");
        let err = "constant(fast)".parse::<SchemeSpec>().unwrap_err();
        assert!(err.0.contains("invalid rate"), "{err}");
    }

    #[test]
    fn every_alternative_in_the_grammar_summary_parses() {
        let slots: Vec<(&str, Vec<&str>)> = SCHEME_GRAMMAR
            .lines()
            .filter_map(|line| line.split_once(' '))
            .filter(|(slot, _)| slot.starts_with('<') || slot.ends_with('='))
            .map(|(slot, alts)| (slot, alts.split('|').map(str::trim).collect()))
            .collect();
        let mut parsed = 0;
        for (slot, alts) in &slots {
            for alt in alts {
                let alt = alt
                    .replace("<rate>", "24M")
                    .replace("<s>", "3")
                    .replace("<x>", "4")
                    .replace("<frac>", "0.4")
                    .replace("<hz>", "0.1");
                if let Some(start) = alt.find('<') {
                    // A reference to another slot, which has its own line.
                    let end = start + alt[start..].find('>').unwrap() + 1;
                    let target = &alt[start..end];
                    assert!(
                        slots.iter().any(|(s, _)| s == &target),
                        "`{alt}` names a slot the summary never defines"
                    );
                    continue;
                }
                let spec = match *slot {
                    "<option>" => {
                        assert!(slots.iter().any(|(s, _)| *s == alt), "no `{alt}` line");
                        continue;
                    }
                    "<scheme>" | "<cca>" => alt,
                    "<learned>" if alt.starts_with("window=") || alt.starts_with("probe=") => {
                        format!("nimbus(mu=learned({alt}))")
                    }
                    "<learned>" => format!("nimbus(mu=learned(probe=10,{alt}))"),
                    key => format!("nimbus({key}{alt})"),
                };
                spec.parse::<SchemeSpec>()
                    .unwrap_or_else(|e| panic!("`{spec}` from slot {slot}: {e}"));
                parsed += 1;
            }
        }
        assert!(parsed >= 35, "only {parsed} alternatives exercised");
        let err = "quic".parse::<SchemeSpec>().unwrap_err();
        assert!(err.0.ends_with(SCHEME_GRAMMAR), "{err}");
    }

    #[test]
    fn nimbus_configs_only_for_nimbus_specs() {
        assert!(SchemeSpec::nimbus().nimbus_config(96e6, 1).is_some());
        assert!(SchemeSpec::cubic().nimbus_config(96e6, 1).is_none());
        assert!(SchemeSpec::nimbus().is_nimbus());
        assert!(!SchemeSpec::bbr().is_nimbus());
        // The spec options actually reach the config.
        let cfg = SchemeSpec::nimbus()
            .with_competitive(TcpScheme::NewReno)
            .nimbus_config(96e6, 1)
            .unwrap();
        assert_eq!(cfg.tcp_scheme, TcpScheme::NewReno);
        let cfg = SchemeSpec::nimbus_delay_only()
            .nimbus_config(96e6, 1)
            .unwrap();
        assert!(cfg.elasticity.eta_threshold.is_infinite());
        let cfg = SchemeSpec::nimbus_estmu().nimbus_config(96e6, 1).unwrap();
        assert!(cfg.mu.is_learned());
        assert_eq!(cfg.mu, MuEstimatorConfig::learned());
    }

    #[test]
    fn headline_set_covers_the_paper_baselines() {
        let set = SchemeSpec::headline_set();
        assert!(set.contains(&SchemeSpec::cubic()));
        assert!(set.contains(&SchemeSpec::bbr()));
        assert!(set.contains(&SchemeSpec::copa()));
        assert!(set.contains(&SchemeSpec::vivace()));
    }

    #[test]
    fn legacy_enum_variant_names_still_parse() {
        // The `Scheme` enum is gone, but its serde strings must keep
        // loading: pre-redesign result files encode schemes by variant name.
        let aliases = [
            ("NimbusCubicBasicDelay", SchemeSpec::nimbus()),
            ("NimbusCubicCopa", SchemeSpec::nimbus_copa()),
            ("NimbusCubicVegas", SchemeSpec::nimbus_vegas()),
            ("NimbusDelayOnly", SchemeSpec::nimbus_delay_only()),
            ("NimbusEstimatedMu", SchemeSpec::nimbus_estmu()),
            ("Cubic", SchemeSpec::cubic()),
            ("NewReno", SchemeSpec::newreno()),
            ("Vegas", SchemeSpec::vegas()),
            ("Copa", SchemeSpec::copa()),
            ("Bbr", SchemeSpec::bbr()),
            ("Vivace", SchemeSpec::vivace()),
            ("Compound", SchemeSpec::compound()),
        ];
        for (name, want) in aliases {
            assert_eq!(name.parse::<SchemeSpec>().unwrap(), want, "{name}");
        }
    }

    #[test]
    fn serde_round_trips_including_legacy_strings() {
        let spec = SchemeSpec::nimbus_copa().with_learned_mu();
        let v = spec.to_value();
        assert_eq!(v, Value::Str("nimbus(delay=copa,mu=learned)".to_string()));
        assert_eq!(SchemeSpec::from_value(&v).unwrap(), spec);
        // The old enum's serde encoding (unit variant name) still loads.
        let legacy = Value::Str("NimbusEstimatedMu".to_string());
        assert_eq!(
            SchemeSpec::from_value(&legacy).unwrap(),
            SchemeSpec::nimbus_estmu()
        );
        assert!(SchemeSpec::from_value(&Value::Int(3)).is_err());
    }
}
