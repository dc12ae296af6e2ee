//! The single-bottleneck → path refactor must be provably
//! behaviour-preserving: every pre-path matrix cell now runs as a 1-hop
//! `PathSpec` and must reproduce the old engine's recorder output byte for
//! byte.  The multi-hop cells themselves are gated in `scenario_matrix.rs`.

mod golden;

use golden::golden_problems;
use nimbus_repro::experiments::testkit::{legacy_single_bottleneck_cells, parallel_map};
use nimbus_repro::experiments::PathSpec;

#[test]
fn one_hop_paths_reproduce_pre_refactor_fingerprints() {
    let cells = legacy_single_bottleneck_cells();
    assert!(
        cells.iter().all(|c| c.path == PathSpec::single()),
        "the legacy slice is single-bottleneck by construction"
    );
    assert_eq!(
        cells.len(),
        18,
        "the legacy slice of the matrix must still be the original 18 cells"
    );
    let problems = golden_problems(&parallel_map(&cells, None, |c| c.run()));
    assert!(
        problems.is_empty(),
        "diverged from the pre-path single-bottleneck engine:\n{}",
        problems.join("\n")
    );
}
