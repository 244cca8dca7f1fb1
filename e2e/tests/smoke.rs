//! Every workload, untraced and traced, on reduced inputs through the same
//! code as the benchmark: every metric `BENCHMARK.json` names is reported
//! with its unit, and no operation fails.

mod common;

use smo_api::Json;
use smo_e2e::{run, Env, RunConfig, Workload};
use std::path::Path;

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = common::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
    json.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn smoke(workload: Workload) {
    let smo = common::smo_binary();
    for trace in [false, true] {
        let env = Env {
            smo: smo.clone(),
            bench: env!("CARGO_BIN_EXE_smo-e2e").into(),
            root: common::repo_root(),
            work: Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("smoke-{}-{trace}", workload.name())),
        };
        let config = RunConfig {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
        };
        let what = format!("{} (trace {trace})", workload.name());
        let outcome =
            run(&env, &config, &common::reduced()).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(
            outcome.failures.is_empty(),
            "{what}: {:#?}",
            outcome.failures
        );
        assert!(outcome.attempted > 0, "{what}: nothing attempted");

        let reported: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(
            reported,
            declared(if trace { "per_layer" } else { "end_to_end" }),
            "{what}"
        );
        for m in &outcome.metrics {
            assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
            if !trace {
                assert!(
                    m.value > 0.0 && m.samples > 0,
                    "{what}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }

        let line =
            Json::parse(&outcome.json()).unwrap_or_else(|e| panic!("{what}: result line: {e}"));
        assert_eq!(
            line.get("correct").and_then(Json::as_bool),
            Some(true),
            "{what}"
        );
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0), "{what}");
    }
}

#[test]
fn datapath_large() {
    smoke(Workload::DatapathLarge);
}

#[test]
fn lp_mid() {
    smoke(Workload::LpMid);
}

#[test]
fn paper_suite() {
    smoke(Workload::PaperSuite);
}

#[test]
fn serve_mix() {
    smoke(Workload::ServeMix);
}
