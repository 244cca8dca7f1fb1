//! Oracle mutation cases: a cycle time off by 1e-4, a flipped lint
//! verdict and an error envelope must each count as failures, while the
//! unmutated outputs pass.

use smo_analyze::lint;
use smo_api::{solve_json, Engine, EngineConfig, Load};
use smo_core::{min_cycle_time_with, Backend, MlpOptions};
use smo_e2e::inputs::datapaths;
use smo_e2e::oracle::{self, Cmd};

fn datapath() -> (smo_circuit::Circuit, String) {
    let text = datapaths(120, 1, 7).remove(0).text;
    let circuit = smo_api::parse_netlist(&text, &smo_api::ParseLimits::default())
        .unwrap_or_else(|e| panic!("generated netlist does not parse: {e}"));
    (circuit, text)
}

fn solve_output(circuit: &smo_circuit::Circuit) -> String {
    let options = MlpOptions {
        backend: Backend::Auto,
        ..MlpOptions::default()
    };
    let sol = min_cycle_time_with(circuit, &options).unwrap_or_else(|e| panic!("solve: {e}"));
    solve_json(&sol)
}

#[test]
fn perturbed_cycle_time_fails_the_bracket() {
    let (circuit, _) = datapath();
    let out = solve_output(&circuit);
    let tc = oracle::check_cli(Cmd::Solve, "dp", Some(0), &out)
        .unwrap_or_else(|e| panic!("unmutated solve rejected: {e}"))
        .unwrap_or(f64::NAN);
    assert!(oracle::bracket(&circuit, tc).is_ok());
    for wrong in [tc * (1.0 + 1e-4), tc * (1.0 - 1e-4)] {
        assert!(
            oracle::bracket(&circuit, wrong).is_err(),
            "Tc {wrong} passed"
        );
        assert!(oracle::agree(tc, wrong).is_err());
    }
    // A wrong exit code or an uncertified answer is a failure too.
    assert!(oracle::check_cli(Cmd::Solve, "dp", Some(1), &out).is_err());
    let uncertified = out.replace("\"certified\": true", "\"certified\": false");
    assert!(oracle::check_cli(Cmd::Solve, "dp", Some(0), &uncertified).is_err());
}

#[test]
fn paper_anchor_mismatch_fails() {
    let out = solve_output(&smo_gen::paper::example1(80.0));
    assert!(oracle::check_cli(Cmd::Solve, "example1", Some(0), &out).is_ok());
    assert!(oracle::check_cli(Cmd::Solve, "example2", Some(0), &out).is_err());
}

#[test]
fn flipped_lint_verdict_fails() {
    let (circuit, _) = datapath();
    let out = lint(&circuit).to_json();
    assert!(oracle::check_cli(Cmd::Lint, "dp", Some(0), &out).is_ok());
    let flipped = out.replace("\"clean\": true", "\"clean\": false");
    assert_ne!(flipped, out);
    assert!(oracle::check_cli(Cmd::Lint, "dp", Some(0), &flipped).is_err());
}

#[test]
fn error_envelopes_and_degraded_answers_fail() {
    let (circuit, text) = datapath();
    let engine = Engine::new(EngineConfig::default());
    let line = format!(
        "{{\"id\":\"t\",\"cmd\":\"solve\",\"netlist\":{}}}",
        smo_api::json::escape(&text)
    );
    let reply = engine.handle_line(&line, Load::IDLE).line;
    let result = oracle::response_result(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    let tc = oracle::result_tc(&result).unwrap_or(f64::NAN);
    assert!(oracle::bracket(&circuit, tc).is_ok());

    let error = "{\"id\":\"t\",\"status\":\"error\",\"degradation\":\"full\",\"cached\":false,\
                 \"error\":{\"kind\":\"parse\",\"message\":\"bad netlist\",\"retryable\":false}}";
    assert!(oracle::response_result(error).is_err());
    let shed = engine.shed_reply(Some("t"));
    assert!(oracle::response_result(&shed).is_err());
    let degraded = reply.replace("\"degradation\":\"full\"", "\"degradation\":\"fast-path\"");
    assert!(oracle::response_result(&degraded).is_err());
    assert!(oracle::response_result("not json").is_err());
}

#[test]
fn race_demo_must_report_its_race() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../circuits/race_demo.ckt"),
    )
    .unwrap_or_else(|e| panic!("race_demo.ckt: {e}"));
    let circuit = smo_api::parse_netlist(&src, &smo_api::ParseLimits::default())
        .unwrap_or_else(|e| panic!("race_demo: {e}"));
    let report = smo_analyze::check(&circuit, &smo_analyze::CheckOptions::default())
        .unwrap_or_else(|e| panic!("check: {e}"));
    let out = report.to_json();
    assert!(oracle::check_cli(Cmd::Check, "race_demo", Some(2), &out).is_ok());
    // Exit code 0 would mean the race went unreported.
    assert!(oracle::check_cli(Cmd::Check, "race_demo", Some(0), &out).is_err());
}
