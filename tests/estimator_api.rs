//! Contract tests for the pluggable µ-estimation API.
//!
//! 1. **Behaviour preservation**: every `mu=learned` wrapper flavour,
//!    including the two degraded regimes the API exists to fix, reproduces
//!    the recorder fingerprint captured on the pre-API hardwired estimator
//!    (its row of the golden table in `golden/mod.rs`), byte for byte.  The
//!    default `maxfilt` strategy IS the old estimator.  The `estimator_cells`
//!    that recover those regimes with non-default strategies are gated in
//!    `scenario_matrix.rs`.
//! 2. **Round-trips**: `FromStr` ↔ `Display` ↔ serde over the extended
//!    `mu=learned(...)` / `zfilter=...` grammar (proptest).
//! 3. **Rejection**: malformed estimator specs fail with actionable
//!    messages.

mod golden;

use golden::golden_problems;
use nimbus_repro::experiments::testkit::{parallel_map, pinned_only_cells};
use nimbus_repro::experiments::SchemeSpec;
use nimbus_repro::nimbus::{LearnedMuConfig, ProbingConfig, ZFilterConfig};
use proptest::prelude::*;

#[test]
fn maxfilt_is_byte_identical_to_the_pre_api_estimator() {
    // The learned-µ groups of the pinned-only cells (seeds 41–44): five
    // flavours alone, one against Cubic, and the sinusoid and cellular
    // regimes in their degraded state.
    let cells: Vec<_> = pinned_only_cells()
        .into_iter()
        .filter(|c| c.seed >= 41)
        .collect();
    assert_eq!(cells.len(), 8);
    let problems = golden_problems(&parallel_map(&cells, None, |c| c.run()));
    assert!(
        problems.is_empty(),
        "diverged from the pre-API hardwired estimator:\n{}",
        problems.join("\n")
    );
}

fn mu_strategy(index: usize, a: f64, b: f64) -> Option<LearnedMuConfig> {
    // `a` in (1, 16], `b` in (0, 1): derive strictly-positive parameters so
    // every generated spec is valid by construction.
    match index {
        0 => None, // configured
        1 => Some(LearnedMuConfig::default()),
        2 => Some(LearnedMuConfig::MaxFilter { window_s: a }),
        3 => Some(LearnedMuConfig::Probing(ProbingConfig::default())),
        4 => Some(LearnedMuConfig::Probing(ProbingConfig {
            probe_interval_s: a,
            // The epoch plus its equal-length drain must fit in the interval.
            probe_duration_s: a * b.min(0.45),
            probe_gain: 1.0 + a,
            ..ProbingConfig::default()
        })),
        _ => Some(LearnedMuConfig::Probing(ProbingConfig {
            window_s: a * 2.0,
            loss_backoff: b.clamp(0.05, 0.95),
            backoff_interval_s: a,
            recent_window_s: a,
            cap_margin: 1.0 + b,
            ..ProbingConfig::default()
        })),
    }
}

fn zfilter(index: usize, a: f64) -> ZFilterConfig {
    match index {
        0 => ZFilterConfig::None,
        1 => ZFilterConfig::adaptive(),
        2 => ZFilterConfig::Adaptive { k: a },
        3 => ZFilterConfig::notch(a / 100.0),
        _ => ZFilterConfig::Notch {
            freq_hz: a / 100.0,
            q: a,
        },
    }
}

proptest! {
    #[test]
    fn extended_estimator_specs_round_trip(
        mu_index in 0usize..6,
        zf_index in 0usize..5,
        // Whole multiples of 1/64 so every parameter has an exact, shortest
        // decimal rendering (Display prints f64 shortest-round-trip anyway;
        // this just keeps the strings readable on failure).
        a_units in 65u32..1024,
        b_units in 1u32..63,
    ) {
        let a = a_units as f64 / 64.0;
        let b = b_units as f64 / 64.0;
        let mut spec = SchemeSpec::nimbus();
        if let Some(strategy) = mu_strategy(mu_index, a, b) {
            spec = spec.with_mu_strategy(strategy);
        }
        spec = spec.with_z_filter(zfilter(zf_index, a));
        let text = spec.to_string();
        let parsed: SchemeSpec = text.parse()
            .unwrap_or_else(|e| panic!("`{text}` failed to re-parse: {e}"));
        prop_assert_eq!(parsed, spec, "`{}` did not round-trip", text);
        // serde (canonical string encoding) → back.
        let json = serde_json::to_string(&spec).unwrap();
        let back: SchemeSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
        // The label is stable and still leads with the legacy stem.
        prop_assert_eq!(parsed.label(), spec.label());
        prop_assert!(spec.label().starts_with("nimbus"));
    }
}

#[test]
fn canonical_estimator_spec_strings() {
    // Defaults render compactly; non-defaults render their parameters.
    assert_eq!(
        SchemeSpec::nimbus().with_learned_mu().to_string(),
        "nimbus(mu=learned)"
    );
    assert_eq!(
        SchemeSpec::nimbus().with_probing_mu().to_string(),
        "nimbus(mu=learned(probe=1))"
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_quiesced_probing_mu(1.0, 0.4)
            .to_string(),
        "nimbus(mu=learned(probe=1,quiesce=0.4))"
    );
    assert_eq!(
        "nimbus(mu=learned(probe=1,quiesce=0.4))"
            .parse::<SchemeSpec>()
            .unwrap(),
        SchemeSpec::nimbus().with_quiesced_probing_mu(1.0, 0.4)
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_learned_mu()
            .with_z_filter(ZFilterConfig::adaptive())
            .to_string(),
        "nimbus(mu=learned,zfilter=adaptive)"
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_z_filter(ZFilterConfig::notch(0.1))
            .to_string(),
        "nimbus(zfilter=notch(freq=0.1))"
    );
    // Parameterised forms parse back to exactly the right configs.
    let spec: SchemeSpec = "nimbus(mu=learned(probe=2,gain=3,dur=0.5,window=8))"
        .parse()
        .unwrap();
    assert_eq!(
        spec,
        SchemeSpec::nimbus().with_mu_strategy(LearnedMuConfig::Probing(ProbingConfig {
            probe_interval_s: 2.0,
            probe_gain: 3.0,
            probe_duration_s: 0.5,
            window_s: 8.0,
            ..ProbingConfig::default()
        }))
    );
    let spec: SchemeSpec = "nimbus(mu=learned(window=5))".parse().unwrap();
    assert_eq!(
        spec,
        SchemeSpec::nimbus().with_mu_strategy(LearnedMuConfig::MaxFilter { window_s: 5.0 })
    );
    // Labels keep the legacy `-estmu` stem and append strategy slugs.
    assert_eq!(
        SchemeSpec::nimbus().with_probing_mu().label(),
        "nimbus-estmu-probe1"
    );
    assert_eq!(
        SchemeSpec::nimbus()
            .with_learned_mu()
            .with_z_filter(ZFilterConfig::adaptive())
            .label(),
        "nimbus-estmu-zadapt"
    );
}

#[test]
fn malformed_estimator_specs_fail_with_actionable_messages() {
    for (input, needle) in [
        ("nimbus(mu=learned(probe=fast))", "not a number"),
        ("nimbus(mu=learned(probe=-1))", "positive"),
        ("nimbus(mu=learned(probe=0))", "positive"),
        ("nimbus(mu=learned(turbo=1))", "unknown mu=learned option"),
        ("nimbus(mu=learned(gain=2))", "require probe="),
        // A probe must actually probe: gain ≤ 1 or epoch ≥ interval is a
        // configuration that silently never escapes the fixed point.
        ("nimbus(mu=learned(probe=1,gain=0.5))", "exceed 1"),
        ("nimbus(mu=learned(probe=1,dur=2))", "shorter than"),
        ("nimbus(mu=learned(probe=1,loss=1.5))", "below 1"),
        ("nimbus(mu=learned(quiesce=0.3))", "require probe="),
        (
            "nimbus(mu=learned(probe=1,quiesce=1.5))",
            "quiesce probing unconditionally",
        ),
        ("nimbus(mu=learned(probe=3)", "closing"),
        ("nimbus(mu=guessed)", "unknown mu mode"),
        ("nimbus(zfilter=fft)", "unknown zfilter"),
        ("nimbus(zfilter=notch)", "freq"),
        ("nimbus(zfilter=notch(q=2))", "freq"),
        ("nimbus(zfilter=adaptive(x=2))", "k=<gain>"),
    ] {
        let err = input
            .parse::<SchemeSpec>()
            .expect_err(&format!("`{input}` should not parse"));
        let msg = format!("{err}");
        assert!(
            msg.contains(needle),
            "error for `{input}` should mention `{needle}`, got: {msg}"
        );
    }
}
