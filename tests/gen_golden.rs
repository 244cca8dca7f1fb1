//! Golden tests for the `smo gen` pipelined-datapath generator.
//!
//! The generator's contract is *byte determinism*: the same
//! `(config, seed)` pair must produce the identical netlist forever —
//! checked-in benchmark curves and the scale-differential suite both key
//! off that. A checked-in golden netlist
//! (`tests/golden/`) pins the bytes; the remaining tests pin the semantic
//! contract — generated circuits lint clean and round-trip the
//! size-limited netlist parser unchanged.

use smo::analyze::lint;
use smo::circuit::netlist::{self, ParseLimits};
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};

fn golden_config() -> DatapathConfig {
    DatapathConfig {
        stages: 3,
        width: 4,
        phases: 2,
        fanin: 2,
        ..DatapathConfig::default()
    }
}

#[test]
fn golden_netlist_is_byte_identical() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/datapath_s3w4p2f2_seed9.ckt");
    let expected = std::fs::read_to_string(&golden).expect("golden netlist is checked in");
    let generated = netlist::write(&pipelined_datapath(&golden_config(), 9));
    assert_eq!(
        generated, expected,
        "generator output drifted from the checked-in golden netlist \
         (tests/golden/datapath_s3w4p2f2_seed9.ckt); byte determinism is a \
         published contract — if the change is intentional, regenerate the \
         golden with `smo gen --stages 3 --width 4 --phases 2 --fanin 2 --seed 9`"
    );
}

#[test]
fn identical_seed_and_params_are_byte_identical_and_seeds_differ() {
    let config = DatapathConfig::with_latches(500);
    let a = netlist::write(&pipelined_datapath(&config, 123));
    let b = netlist::write(&pipelined_datapath(&config, 123));
    let c = netlist::write(&pipelined_datapath(&config, 124));
    assert_eq!(a, b, "same (config, seed) must be byte-identical");
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn generated_circuits_lint_clean() {
    for (config, seed) in [
        (golden_config(), 9),
        (DatapathConfig::default(), 7),
        (
            DatapathConfig {
                stages: 8,
                width: 5,
                phases: 4,
                fanin: 3,
                ..DatapathConfig::default()
            },
            31,
        ),
        (DatapathConfig::with_latches(1_000), 7),
    ] {
        let circuit = pipelined_datapath(&config, seed);
        let report = lint(&circuit);
        assert!(
            report.is_clean(),
            "datapath {config:?} seed {seed} should lint clean:\n{}",
            report.to_json()
        );
    }
}

#[test]
fn generated_netlists_round_trip_the_limited_parser() {
    for latches in [60, 1_000] {
        let circuit = pipelined_datapath(&DatapathConfig::with_latches(latches), 7);
        let text = netlist::write(&circuit);
        let reparsed = netlist::parse_with_limits(&text, &ParseLimits::default())
            .expect("generated netlist parses under the default limits");
        assert_eq!(
            netlist::write(&reparsed),
            text,
            "round-trip must be the identity on generator output"
        );
        assert_eq!(reparsed.num_latches(), circuit.num_latches());
        assert_eq!(reparsed.num_edges(), circuit.num_edges());
    }
}
