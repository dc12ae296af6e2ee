//! The behavioural harness: one run of every scenario cell, checked against
//! the paper's invariants and against one table of golden fingerprints.
//!
//! Every cell of [`paper_invariant_matrix`] asserts at least one paper
//! invariant; [`pinned_only_cells`] adds 25 cells that assert none and exist
//! only to pin behaviour (every legacy scheme alias, every learned-µ flavour,
//! and the two learned-µ regimes in their degraded state).  Each cell's
//! recorder fingerprint must equal its row in [`GOLDEN`] (`golden/mod.rs`),
//! keyed by `Cell::name()`.  A cell without a row, a row without a cell, and a
//! fingerprint that differs from its row all fail the run, which lists every
//! such problem together.  Matching a constant is also the determinism check:
//! it holds at any thread count and on every run.
//!
//! # Re-pinning
//!
//! A change that is meant to alter simulated behaviour must argue for every
//! fingerprint it moves:
//!
//! 1. Run `cargo test --test scenario_matrix` on the parent commit, before
//!    any edit, and keep the table of actual values it prints on a mismatch
//!    (add a throwaway mismatching row to force it, or start from an empty
//!    `GOLDEN`).
//! 2. Make the change, run the test again, and paste the printed
//!    `("name", 0x…),` rows over `GOLDEN` in `golden/mod.rs`.
//! 3. In CHANGES.md, name every row that moved and say why the new
//!    behaviour is right.  A row that moves without a reason is a bug.

mod golden;

use golden::{golden_problems, GOLDEN};
use nimbus_repro::experiments::testkit::{
    matrix_report, multihop_cells, paper_invariant_matrix, pinned_only_cells, run_matrix,
};
use nimbus_repro::experiments::SchemeSpec;
use std::collections::HashSet;

#[test]
fn paper_invariants_hold_across_the_matrix() {
    let mut cells = paper_invariant_matrix();
    let gated = cells.len();
    cells.extend(pinned_only_cells());
    let outcomes = run_matrix(&cells);
    println!("{}", matrix_report(&outcomes[..gated]));

    let mut failures: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.violations.is_empty())
        .map(|o| format!("{}: {:?}", o.name, o.violations))
        .collect();
    let names: HashSet<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
    let rows: HashSet<&str> = GOLDEN.iter().map(|&(name, _)| name).collect();
    assert_eq!(rows.len(), GOLDEN.len(), "GOLDEN repeats a name");
    assert_eq!(names.len(), outcomes.len(), "two cells share a name");
    let mut golden_failures = golden_problems(&outcomes);
    for &(name, _) in GOLDEN.iter().filter(|(name, _)| !names.contains(name)) {
        golden_failures.push(format!("{name}: GOLDEN row with no cell"));
    }
    if !golden_failures.is_empty() {
        println!("actual values, paste-ready for GOLDEN (see the re-pinning steps above):");
        let (matrix, pinned_only) = outcomes.split_at(gated);
        for (section, slice) in [
            ("paper_invariant_matrix()", matrix),
            ("pinned_only_cells()", pinned_only),
        ] {
            println!("    // {section}");
            for o in slice {
                println!("    (\"{}\", {:#018x}),", o.name, o.fingerprint);
            }
        }
    }
    failures.extend(golden_failures);
    assert!(
        failures.is_empty(),
        "{} problems over {} cells:\n{}",
        failures.len(),
        outcomes.len(),
        failures.join("\n")
    );
}

#[test]
fn full_matrix_is_deterministic_and_seed_sensitive() {
    // Determinism is the golden comparison above: every run of a cell must
    // reproduce a constant.  Here a different seed must actually change the
    // simulation: with every seed shifted, at least the stochastic cells
    // (Poisson cross traffic) must leave the golden values.
    let mut reseeded = paper_invariant_matrix();
    for cell in &mut reseeded {
        cell.seed += 1000;
    }
    let golden: HashSet<u64> = GOLDEN.iter().map(|&(_, fingerprint)| fingerprint).collect();
    let changed = run_matrix(&reseeded)
        .iter()
        .filter(|o| !golden.contains(&o.fingerprint))
        .count();
    assert!(
        changed > 0,
        "shifting every seed changed no cell's recorder output — seeds are not wired through"
    );
}

#[test]
fn learned_mu_tracks_the_path_minimum_not_the_noisy_first_hop() {
    // The estmu multi-hop cell: hop 0 at 48 Mbit/s ± 10%, hop 1 constant at
    // 28.8 Mbit/s.  The learned µ must settle on the 28.8 Mbit/s path
    // minimum; capturing the first hop instead would read ~48 Mbit/s.
    let cell = multihop_cells()
        .into_iter()
        .find(|c| c.scheme == SchemeSpec::nimbus_estmu())
        .expect("the multi-hop slice includes an estimated-µ cell");
    let outcome = cell.run();
    assert!(
        outcome.violations.is_empty(),
        "{}: {:?}",
        outcome.name,
        outcome.violations
    );
    let steady: Vec<f64> = outcome
        .metrics
        .mu_series
        .iter()
        .filter(|(t, _)| *t >= 15.0)
        .map(|(_, mu)| *mu)
        .collect();
    assert!(!steady.is_empty(), "no steady-state µ estimates");
    let mean_mu = steady.iter().sum::<f64>() / steady.len() as f64;
    assert!(
        (mean_mu - 28.8e6).abs() / 28.8e6 < 0.1,
        "learned µ {mean_mu} should track the 28.8 Mbit/s path minimum"
    );
    let max_mu = steady.iter().copied().fold(f64::MIN, f64::max);
    assert!(
        max_mu < 40e6,
        "learned µ peaked at {max_mu}: captured the noisy 48 Mbit/s first hop"
    );
}
