//! The golden fingerprint table, shared by every test that pins recorder
//! output: `scenario_matrix.rs` checks all of it in one run, and the
//! preservation tests of the path engine (`multihop_scenarios.rs`), the
//! `SchemeSpec` redesign (`scheme_spec.rs`) and the µ-estimator API
//! (`estimator_api.rs`) check the rows of the cells each refactor had to
//! keep byte-identical.  The re-pinning steps are in the header of
//! `scenario_matrix.rs`.

use nimbus_repro::experiments::testkit::CellOutcome;
use std::collections::HashMap;

/// The recorder fingerprint of every cell, keyed by `Cell::name()`: the 50
/// matrix cells in `paper_invariant_matrix()` order, then the 25
/// `pinned_only_cells()`.
#[rustfmt::skip]
pub const GOLDEN: &[(&str, u64)] = &[
    // paper_invariant_matrix()
    ("cubic@48M-vs-alone-seed3", 0xc9b047b3b3ca9a57),
    ("cubic@48M-vs-alone-seed11", 0xc9b047b3b3ca9a57),
    ("vegas@48M-vs-alone-seed3", 0x83faf44e9ea9526c),
    ("vegas@48M-vs-alone-seed11", 0x83faf44e9ea9526c),
    ("vegas@96M-vs-cubic-seed5", 0xdbcef018cbc67b16),
    ("vegas@96M-vs-cubic-seed13", 0xdbcef018cbc67b16),
    ("nimbus@96M-vs-cbr83-seed4", 0xee3b54fcd837df2b),
    ("nimbus@96M-vs-cbr83-seed12", 0xee3b54fcd837df2b),
    ("nimbus@48M-vs-poisson50-seed1", 0x9ccdd8ea3e1d80bf),
    ("nimbus@48M-vs-poisson50-seed9", 0xc8f85627fb487a98),
    ("nimbus@48M-vs-cubic-seed2", 0xd65ed71b29821cd1),
    ("nimbus@48M-vs-cubic-seed10", 0xd65ed71b29821cd1),
    ("nimbus@48M-vs-alone-seed6", 0xf06482e63a11d31f),
    ("nimbus@48M-vs-alone-seed14", 0xf06482e63a11d31f),
    ("nimbus-estmu@48M-sin25p20-vs-alone-seed7", 0xe6a36efc6b15f749),
    ("nimbus@48M-sin10p10-vs-alone-seed8", 0xf20c462c4b0f7abb),
    ("cubic@96M-step50@15-vs-alone-seed9", 0xc49ea25d2c814422),
    ("nimbus@96M-step50@15-vs-alone-seed9", 0xf5ff8d4108218eb6),
    ("nimbus@48M-2hop60-vs-alone-seed21", 0x9a4113cfbbda1eb0),
    ("cubic@48M-2hop60-vs-alone-seed21", 0xcc5e55a3127ff561),
    ("cubic@48M-step50@15-2hop50mv-vs-alone-seed25", 0x87c633e62384614f),
    ("nimbus@48M-step50@15-2hop50mv-vs-alone-seed25", 0x456578efb4142196),
    ("nimbus-estmu@48M-sin10p10-2hop60-vs-alone-seed27", 0x20e797d7702e1dcd),
    ("nimbus@48M-2hop50-vs-cubic-hop0-seed29", 0x02556e129cb8fc5a),
    ("nimbus@48M-2hop60-vs-cubic-hop0-seed31", 0xf01b6e1664d261fd),
    ("nimbus-reno@48M-vs-cubic-seed35", 0x53db535a899c38de),
    ("nimbus-copa-estmu@48M-vs-alone-seed36", 0xa51b0554cef28b7a),
    ("nimbus@96M-vs-copa+cubic-seed37", 0xf53cf9051786daa0),
    ("cubic@48M-trace-wifi-vs-alone-seed38", 0x125080aaa395d13a),
    ("cubic@48M-trace-cellular-vs-alone-seed39", 0xcf0938394bcca9bf),
    ("nimbus-estmu-probe1@48M-trace-cellular-vs-alone-seed44", 0x410676ab4cadeb7b),
    ("nimbus-estmu-zadapt@48M-sin10p10-vs-alone-seed43", 0x4b1c0abadfa69362),
    ("nimbus-estmu-zadapt@96M-vs-cubic-seed42", 0xcad8e62915e83469),
    ("nimbus-estmu-probe1@48M-vs-alone-seed45", 0x7a8b0ff34beb2e62),
    ("nimbus-estmu-probe1q0.4@48M-vs-alone-seed45", 0x4a88c6a605e3620b),
    ("nimbus-estmu-probe1q0.4@48M-vs-cubic-seed45", 0x96f58554eb511f44),
    ("nimbus-estmu-probe1@48M-vs-cubic-seed45", 0x9341cdfb1b6841ab),
    ("nimbus-copa-estmu-zadapt@48M-sin10p10-vs-alone-seed43", 0xfb6051b0c4f39b64),
    ("nimbus@48M-vs-fleet-poisson-l40-m20k-seed51", 0x749384456332588f),
    ("nimbus@48M-vs-fleet-bursty-l40-m20k-seed51", 0x5cfed044991675c1),
    ("nimbus@48M-vs-fleet-poisson-l50-seed52", 0x673353d92f8c3ae2),
    ("cubic@48M-vs-fleet-poisson-l50-seed52", 0xce395328997e7ec5),
    ("dctcp@48M-l4s-vs-alone-seed61", 0x345e7bd3fe8c45ca),
    ("dctcp@48M-vs-alone-seed61", 0xb13720842d456fc3),
    ("cubic@48M-ecn-vs-alone-seed61", 0xe1407c6e5c7cf84e),
    ("nimbus@48M-l4s-vs-alone-seed62", 0x2bce3030b46ab765),
    ("nimbus@48M-l4s-vs-dctcp-seed2", 0xcfc1c9cffdb47857),
    ("nimbus-dctcp@48M-ecn-vs-dctcp-seed2", 0x39601692021c06d3),
    ("nimbus@48M-ecn-vs-cubic-seed2", 0xc57aabfc9e09fe96),
    ("dctcp@48M-ecn-vs-cubic-seed65", 0x477997875d2f6916),
    // pinned_only_cells()
    ("nimbus@48M-vs-alone-seed17", 0xce3f74cac3359920),
    ("nimbus-copa@48M-vs-alone-seed17", 0x2d6e8740ed491d80),
    ("nimbus-vegas@48M-vs-alone-seed17", 0x04572f105fb3b2aa),
    ("nimbus-delay@48M-vs-alone-seed17", 0x9079dcd6146debec),
    ("nimbus-estmu@48M-vs-alone-seed17", 0x098248daeaa57721),
    ("cubic@48M-vs-alone-seed17", 0x468305ac73be07af),
    ("newreno@48M-vs-alone-seed17", 0x7658b2ca552df73a),
    ("vegas@48M-vs-alone-seed17", 0xe403a5a46156d992),
    ("copa@48M-vs-alone-seed17", 0x8732aa98b0df0887),
    ("bbr@48M-vs-alone-seed17", 0x70282d8c84a358b9),
    ("pcc-vivace@48M-vs-alone-seed17", 0x0570645ce6cf0ee4),
    ("compound@48M-vs-alone-seed17", 0xc3624d30681e4d88),
    ("nimbus@96M-vs-cubic-seed18", 0x4fb8913e960cd2c2),
    ("nimbus-copa@96M-vs-cubic-seed18", 0xba48b59353abe99b),
    ("nimbus-vegas@96M-vs-cubic-seed18", 0xc04599233c8de4c0),
    ("nimbus-delay@96M-vs-cubic-seed18", 0xce660627c2f715ad),
    ("nimbus-estmu@96M-vs-cubic-seed18", 0xd323b5297c3678d4),
    ("nimbus-estmu@48M-vs-alone-seed41", 0x098248daeaa57721),
    ("nimbus-copa-estmu@48M-vs-alone-seed41", 0xfa5561497f2e9a4e),
    ("nimbus-vegas-estmu@48M-vs-alone-seed41", 0x7407db92d95df6b7),
    ("nimbus-reno-estmu@48M-vs-alone-seed41", 0xb7d218a503b30b1f),
    ("nimbus-delay-estmu@48M-vs-alone-seed41", 0xc2faa71581eaaec5),
    ("nimbus-estmu@96M-vs-cubic-seed42", 0xd323b5297c3678d4),
    ("nimbus-estmu@48M-sin10p10-vs-alone-seed43", 0x7ac3d6180cffcd8b),
    ("nimbus-estmu@48M-trace-cellular-vs-alone-seed44", 0x4ab456cd436dc519),
];

/// One line per outcome whose fingerprint differs from its [`GOLDEN`] row
/// or that has no row; empty when every outcome matches.
pub fn golden_problems(outcomes: &[CellOutcome]) -> Vec<String> {
    let golden: HashMap<&str, u64> = GOLDEN.iter().copied().collect();
    outcomes
        .iter()
        .filter_map(|o| match golden.get(o.name.as_str()) {
            None => Some(format!("{}: no GOLDEN row", o.name)),
            Some(&want) if want != o.fingerprint => Some(format!(
                "{}: fingerprint {:#018x}, GOLDEN {want:#018x}",
                o.name, o.fingerprint
            )),
            Some(_) => None,
        })
        .collect()
}
