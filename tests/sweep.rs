//! Determinism and oracle tests for the sweep engine: `smo sweep --json`
//! must produce the same bytes at any `--jobs` value, a zero-spread
//! Monte-Carlo sweep must reproduce the paper optimum, and the `--param
//! tc` breakpoints must equal the exact parametric curve.

mod common;

use smo::circuit::EdgeId;
use smo::timing::{cycle_time_curve, TimingModel};

use common::load_circuit;

/// Runs the `smo` binary from the repository root (shipped netlists are
/// addressed by relative path).
fn smo(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_smo"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("smo binary runs")
}

/// `smo sweep --json` is byte-identical at any `--jobs` value, in both
/// sweep modes — the determinism contract the JSON output promises.
#[test]
fn sweep_json_is_byte_identical_for_any_job_count() {
    let modes: [&[&str]; 2] = [
        &["--param", "delay", "--runs", "12", "--spread", "0.1"],
        &[
            "--param",
            "tc",
            "--runs",
            "12",
            "--edge",
            "3",
            "--max-delay",
            "140",
        ],
    ];
    for mode in modes {
        let mut outputs = Vec::new();
        for jobs in ["1", "2", "8"] {
            let mut args = vec!["sweep", "circuits/example1.ckt", "--json", "--jobs", jobs];
            args.extend_from_slice(mode);
            let out = smo(&args);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            outputs.push(out.stdout);
        }
        assert_eq!(outputs[0], outputs[1], "{mode:?}: --jobs 1 vs 2 differ");
        assert_eq!(outputs[0], outputs[2], "{mode:?}: --jobs 1 vs 8 differ");
    }
}

/// Zero-variance Monte-Carlo oracle: with `--spread 0` every perturbed
/// re-solve of example1 must reproduce the paper's Tc* = 110 exactly.
#[test]
fn zero_spread_sweep_reproduces_the_paper_optimum() {
    let out = smo(&[
        "sweep",
        "circuits/example1.ckt",
        "--runs",
        "8",
        "--spread",
        "0",
        "--json",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        json.matches("\"cycle_time\": 110.000000").count(),
        8,
        "not every run hit Tc* = 110: {json}"
    );
    assert!(json.contains("\"base_cycle_time\": 110.000000"));
}

/// Parametric-sweep oracle: the `--param tc` breakpoints reported by the
/// CLI equal the exact `cycle_time_curve` breakpoints (Fig. 7: the curve
/// over Δ41 breaks at 20 and 100).
#[test]
fn tc_sweep_breakpoints_match_the_parametric_curve() {
    let circuit = load_circuit("circuits/example1.ckt");
    let model = TimingModel::build(&circuit).expect("model builds");
    let curve = cycle_time_curve(&circuit, &model, EdgeId::new(3), 140.0).expect("curve solves");
    assert_eq!(curve.breakpoints(), vec![20.0, 100.0]);

    let out = smo(&[
        "sweep",
        "circuits/example1.ckt",
        "--param",
        "tc",
        "--edge",
        "3",
        "--max-delay",
        "140",
        "--runs",
        "8",
        "--json",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"breakpoints\": [20.000000, 100.000000]"),
        "CLI breakpoints disagree with the parametric curve: {json}"
    );
}
