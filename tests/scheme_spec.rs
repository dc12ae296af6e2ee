//! The `SchemeSpec` redesign's contract tests.
//!
//! 1. **Behaviour preservation**: every legacy `Scheme` enum variant,
//!    expressed as a `SchemeSpec` *parsed from its legacy alias string*,
//!    reproduces the recorder fingerprint captured on the pre-redesign enum
//!    path (its row of the golden table in `golden/mod.rs`), byte for byte:
//!    alone on the link for all 12 variants and against an elastic Cubic
//!    competitor for the five Nimbus flavours.
//! 2. **Aliases**: the legacy enum-variant alias, the canonical string and
//!    the builder name the same spec.
//! 3. **Round-trips**: `FromStr` ↔ `Display` ↔ serde over randomly composed
//!    valid specs (proptest).
//! 4. **Rejection**: malformed spec strings fail with actionable messages.

mod golden;

use golden::golden_problems;
use nimbus_repro::experiments::testkit::{parallel_map, pinned_only_cells, Cell};
use nimbus_repro::experiments::SchemeSpec;
use nimbus_repro::nimbus::{DelayScheme, TcpScheme};
use nimbus_repro::transport::CcKind;
use proptest::prelude::*;

/// The legacy alias of each of the first 17 `pinned_only_cells()`, in
/// order: the 12 enum-variant names alone on the link, then the five Nimbus
/// label aliases against Cubic, so both alias families are proven
/// equivalent to the enum path.
const LEGACY_ALIASES: &[&str] = &[
    "NimbusCubicBasicDelay",
    "NimbusCubicCopa",
    "NimbusCubicVegas",
    "NimbusDelayOnly",
    "NimbusEstimatedMu",
    "Cubic",
    "NewReno",
    "Vegas",
    "Copa",
    "Bbr",
    "Vivace",
    "Compound",
    "nimbus",
    "nimbus-copa",
    "nimbus-vegas",
    "nimbus-delay",
    "nimbus-estmu",
];

#[test]
fn every_legacy_variant_reproduces_its_pre_redesign_fingerprint() {
    let cells: Vec<Cell> = LEGACY_ALIASES
        .iter()
        .zip(pinned_only_cells())
        .map(|(alias, canonical)| {
            let cell = Cell {
                scheme: alias.parse().expect("legacy alias parses"),
                ..canonical.clone()
            };
            assert_eq!(
                cell.name(),
                canonical.name(),
                "{alias} names another scheme"
            );
            cell
        })
        .collect();
    let problems = golden_problems(&parallel_map(&cells, None, |c| c.run()));
    assert!(
        problems.is_empty(),
        "diverged from the legacy Scheme enum path:\n{}",
        problems.join("\n")
    );
}

#[test]
fn builder_alias_and_string_paths_agree() {
    // Three routes to the same spec: the legacy enum-variant alias string,
    // the canonical string, and the builder — all must be the same value.
    let from_alias: SchemeSpec = "NimbusCubicCopa".parse().unwrap();
    let from_string: SchemeSpec = "nimbus(delay=copa)".parse().unwrap();
    let from_builder = SchemeSpec::nimbus().with_delay(DelayScheme::CopaDefault);
    assert_eq!(from_alias, from_string);
    assert_eq!(from_string, from_builder);
}

fn compose_nimbus(comp: usize, delay: usize, mu: usize, sw: usize) -> SchemeSpec {
    let mut spec = SchemeSpec::nimbus();
    if comp == 1 {
        spec = spec.with_competitive(TcpScheme::NewReno);
    }
    spec = match delay {
        0 => spec,
        1 => spec.with_delay(DelayScheme::CopaDefault),
        _ => spec.with_delay(DelayScheme::Vegas),
    };
    if mu == 1 {
        spec = spec.with_learned_mu();
    }
    if sw == 1 {
        spec = spec.delay_only();
    }
    spec
}

fn bare(index: usize, rate_bps: f64) -> SchemeSpec {
    match index {
        0 => SchemeSpec::cubic(),
        1 => SchemeSpec::newreno(),
        2 => SchemeSpec::vegas(),
        3 => SchemeSpec::copa(),
        4 => SchemeSpec::bbr(),
        5 => SchemeSpec::vivace(),
        6 => SchemeSpec::compound(),
        7 => SchemeSpec::Bare(CcKind::Unlimited),
        _ => SchemeSpec::constant(rate_bps),
    }
}

proptest! {
    #[test]
    fn random_specs_round_trip_through_display_and_serde(
        pick in 0usize..2,
        comp in 0usize..2,
        delay in 0usize..3,
        mu in 0usize..2,
        sw in 0usize..2,
        bare_index in 0usize..9,
        rate_units in 1u64..4000,
    ) {
        // Rates are whole multiples of 100 kbit/s, so every generated rate
        // has an exact decimal (and often a k/M-suffixed) rendering.
        let spec = if pick == 0 {
            compose_nimbus(comp, delay, mu, sw)
        } else {
            bare(bare_index, rate_units as f64 * 1e5)
        };
        // Display → FromStr.
        let text = spec.to_string();
        let parsed: SchemeSpec = text.parse()
            .unwrap_or_else(|e| panic!("`{text}` failed to re-parse: {e}"));
        prop_assert_eq!(parsed, spec);
        // serde (JSON text) → back.
        let json = serde_json::to_string(&spec).unwrap();
        let back: SchemeSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
        // The derived label is stable and non-empty.
        prop_assert_eq!(parsed.label(), spec.label());
        prop_assert!(!spec.label().is_empty());
    }
}

#[test]
fn malformed_specs_fail_with_actionable_messages() {
    for (input, needle) in [
        ("", "unknown scheme"),
        ("quic", "unknown scheme"),
        ("nimbus(delay=bbr)", "unknown delay scheme"),
        ("nimbus(competitive=vegas)", "unknown competitive scheme"),
        ("nimbus(mu=guessed)", "unknown mu mode"),
        ("nimbus(switch=sometimes)", "unknown switch mode"),
        ("nimbus(pulse=0.5)", "unknown nimbus option"),
        ("nimbus(delay)", "key=value"),
        ("nimbus(delay=copa", "closing"),
        ("constant()", "invalid rate"),
        ("constant(-3M)", "invalid rate"),
        ("constant(12Q)", "invalid rate"),
        // The `cbr(` alias gets the same precise diagnostics.
        ("cbr(fast)", "invalid rate"),
        ("cbr(24M", "closing"),
    ] {
        let err = input
            .parse::<SchemeSpec>()
            .expect_err(&format!("`{input}` should not parse"));
        assert!(
            err.0.contains(needle),
            "error for `{input}` should mention `{needle}`, got: {err}"
        );
    }
}
