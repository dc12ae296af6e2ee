//! # nimbus-experiments
//!
//! The experiment harness: one function per table/figure of the paper, each
//! building the corresponding scenario on the `nimbus-netsim` simulator,
//! running it, and returning (and printing) the same rows or series the paper
//! reports.
//!
//! Every experiment supports a `quick` flag that scales the run down (shorter
//! duration, fewer repetitions) so the whole suite — and the Criterion benches
//! wrapping it — stays tractable on a laptop; the full-size variants use the
//! paper's durations.
//!
//! Run experiments with the `nimbus-experiments` binary:
//!
//! ```text
//! cargo run -p nimbus-experiments --release -- fig01
//! cargo run -p nimbus-experiments --release -- all --quick
//! ```
//!
//! Results are printed as human-readable rows and written as JSON under
//! `target/experiments/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod output;
pub mod runner;
pub mod scheme;
pub mod sweep;
pub mod testkit;

pub use output::ExperimentResult;
pub use runner::{
    CrossFlowSpec, EcnSpec, FleetSpec, HopSpec, LinkScheduleSpec, PathSpec, ScenarioSpec,
    SingleFlowMetrics, ECN_GRAMMAR, FLEET_GRAMMAR,
};
pub use scheme::{MuSpec, NimbusSpec, ParseSchemeError, SchemeSpec, SwitchSpec, SCHEME_GRAMMAR};
pub use sweep::{run_sweep, sweep_matrix, sweep_matrix_with, SweepConfig, SweepReport};
pub use testkit::{
    ecn_cells, estimator_cells, fleet_cells, legacy_single_bottleneck_cells, multihop_cells,
    paper_invariant_matrix, parallel_map, run_matrix, spec_combination_cells, Cell, CellOutcome,
    CrossTraffic, Invariants,
};

/// Runs one experiment; `true` asks for the scaled-down quick run.
pub type ExperimentFn = fn(bool) -> ExperimentResult;

/// Every experiment the harness can regenerate, in paper order, with the
/// function that runs it.  `run_experiment`, `list`, `all` and `--help` all
/// read this one table.
pub const ALL_EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig01", figures::intro::fig01),
    ("fig03", figures::intro::fig03),
    ("fig04", figures::intro::fig04),
    ("fig05", figures::intro::fig05),
    ("fig06", figures::intro::fig06),
    ("fig07", |_| figures::intro::fig07()),
    ("fig08", figures::eval::fig08),
    ("fig09", figures::eval::fig09),
    ("fig10", figures::eval::fig10),
    ("fig11", figures::eval::fig11),
    ("fig12", figures::eval::fig12),
    ("fig13", figures::eval::fig13),
    ("fig14", figures::robust::fig14),
    ("fig15", figures::robust::fig15),
    ("fig16", figures::multiflow::fig16),
    ("fig17", figures::multiflow::fig17),
    ("fig18", figures::internet::fig18),
    ("fig19", figures::internet::fig19),
    ("fig20", figures::internet::fig20),
    ("fig21", figures::eval::fig21),
    ("fig22", figures::robust::fig22),
    ("fig23", figures::robust::fig23),
    ("fig24", figures::robust::fig24),
    ("fig25", figures::robust::fig25),
    ("fig26", figures::robust::fig26),
    ("table1", figures::robust::table1),
    ("robustness", figures::robust::robustness_sweep),
    ("cellular_estimators", figures::robust::cellular_estimators),
    ("varying_mu", figures::varying::varying_mu),
    ("varying_detector", figures::varying::varying_detector),
    ("varying_step", figures::varying::varying_step),
    ("varying_estimator", figures::varying::varying_estimator),
    ("multihop_secondary", figures::multihop::multihop_secondary),
    ("multihop_moving", figures::multihop::multihop_moving),
    ("multihop_midpath", figures::multihop::multihop_midpath),
    ("fleet_churn", figures::fleet::fleet_churn),
    ("fleet_fct", figures::fleet::fleet_fct),
    ("fleet_multiflow", figures::fleet::fleet_multiflow),
    ("l4s_pulse", figures::l4s::l4s_pulse),
    ("l4s_mark_validation", figures::l4s::l4s_mark_validation),
    ("l4s_coexistence", figures::l4s::l4s_coexistence),
];

/// Run one experiment by name.  Returns the structured result, or `None`
/// for a name not in [`ALL_EXPERIMENTS`].
pub fn run_experiment(name: &str, quick: bool) -> Option<ExperimentResult> {
    ALL_EXPERIMENTS
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, run)| run(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_dispatchable() {
        // Dispatch reads the table, so every listed name runs its own
        // function by construction; names must be unique for that to hold.
        assert!(run_experiment("nonexistent", true).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 41);
        let mut names: Vec<&str> = ALL_EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            ALL_EXPERIMENTS.len(),
            "duplicate experiment name"
        );
    }

    #[test]
    fn quick_fig07_runs() {
        // fig07 is purely analytic (the pulse waveform) and cheap.
        let r = run_experiment("fig07", true).unwrap();
        assert_eq!(r.name, "fig07");
        assert!(!r.series.is_empty());
    }
}
