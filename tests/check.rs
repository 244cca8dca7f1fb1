//! Integration tests for the `smo check` layer: backend-independence of
//! the short-path hold slacks, arithmetic soundness of every reported
//! race witness, and byte-stability of the findings JSON schema.
//!
//! These pin the three contracts `check` is built on:
//!
//! 1. hold slacks are a property of the circuit, not of the solver — the
//!    graph and LP backends agree within [`Tol::TIGHT`] on shipped *and*
//!    random circuits;
//! 2. every [`ShortPathWitness`] re-derives from the circuit and the
//!    canonical schedule by plain arithmetic — the witness is a
//!    certificate, not a diagnostic string;
//! 3. the findings JSON is byte-deterministic with a fixed key order, so
//!    machine consumers can parse `lint --json` and `check --json` with
//!    one schema.

mod common;

use common::{load_circuit, SHIPPED_NETLISTS};
use proptest::prelude::*;
use smo::analyze::{check, lint, CheckOptions};
use smo::api::Json;
use smo::circuit::{netlist, Circuit, CircuitBuilder, SyncKind};
use smo::gen::random::{random_circuit, GenConfig};
use smo::lp::Tol;
use smo::timing::{race_analysis, Backend, RaceOptions};

/// Rebuilds `c` with a measured contamination delay of `frac · Δ` on every
/// edge and a hold requirement of `hold` on every synchronizer, turning a
/// long-path-only circuit into one with a non-trivial short-path side.
/// The long-path model (and hence the solved `T_c`) is unchanged: holds
/// and min delays only participate in the race analysis.
fn with_short_paths(c: &Circuit, frac: f64, hold: f64) -> Circuit {
    let mut b = CircuitBuilder::new(c.num_phases());
    for (_, s) in c.syncs() {
        b.add_sync(s.clone().with_hold(hold));
    }
    for e in c.edges() {
        b.connect_min_max(e.from, e.to, frac * e.max_delay, e.max_delay);
    }
    b.build().expect("rebuild preserves validity")
}

fn on(backend: Backend) -> RaceOptions {
    RaceOptions {
        backend,
        ..RaceOptions::default()
    }
}

/// Slack agreement, `+∞`-aware: early non-convergence yields infinite
/// slacks and both backends must land in the same regime.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a.is_infinite() && b.is_infinite() && a == b) || (a - b).abs() <= tol
}

#[test]
fn backends_agree_on_hold_slacks_for_shipped_circuits() {
    let mut shipped: Vec<&str> = SHIPPED_NETLISTS.to_vec();
    shipped.push("circuits/race_demo.ckt");
    for f in shipped {
        let circuit = load_circuit(f);
        let lp = race_analysis(&circuit, &on(Backend::Lp))
            .unwrap_or_else(|e| panic!("{f}: LP analysis fails: {e}"));
        // The graph backend refuses mixed models; where it runs, it must
        // agree with the LP slack for slack.
        let Ok(graph) = race_analysis(&circuit, &on(Backend::Graph)) else {
            continue;
        };
        let tol = Tol::TIGHT.abs_for(lp.cycle_time());
        assert!(
            (graph.cycle_time() - lp.cycle_time()).abs() <= tol,
            "{f}: Tc {} vs {}",
            graph.cycle_time(),
            lp.cycle_time()
        );
        for (i, (g, l)) in graph.edge_slacks().iter().zip(lp.edge_slacks()).enumerate() {
            assert!(close(*g, *l, tol), "{f} edge {i}: {g} vs {l}");
        }
        assert_eq!(graph.races().len(), lp.races().len(), "{f}");
    }
}

#[test]
fn race_demo_witness_numbers_are_exact_and_cycle_independent() {
    // The shipped racy demo: `result → status` is a same-phase FF pair
    // whose measured contamination delay (0.2) plus the source clock-to-Q
    // (0.25) lands 0.15 before status's hold window (0.6) closes. Both
    // ends of a same-phase separation move with T_c, so the slack is
    // −0.15 at ANY cycle time.
    let circuit = load_circuit("circuits/race_demo.ckt");
    for cycle_time in [None, Some(10.0), Some(1000.0)] {
        let report = race_analysis(
            &circuit,
            &RaceOptions {
                cycle_time,
                ..RaceOptions::default()
            },
        )
        .expect("race_demo analyses");
        assert_eq!(report.races().len(), 1, "at {cycle_time:?}");
        let w = &report.races()[0];
        assert_eq!((w.from.as_str(), w.to.as_str()), ("result", "status"));
        assert!(w.min_specified, "the demo race must be measured");
        assert!(w.dst_is_ff);
        assert!((w.slack + 0.15).abs() < 1e-9, "slack {}", w.slack);
        assert!((w.separation_fix - 0.15).abs() < 1e-9);
    }
}

#[test]
fn check_gates_race_demo_but_passes_every_other_shipped_netlist() {
    for f in SHIPPED_NETLISTS {
        let report = check(&load_circuit(f), &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{f}: {e}"));
        assert!(!report.has_errors(), "{f} must pass the gate:\n{report}");
    }
    let racy = check(
        &load_circuit("circuits/race_demo.ckt"),
        &CheckOptions::default(),
    )
    .expect("race_demo checks");
    assert!(racy.has_errors(), "race_demo must fail the gate");
}

// ---------------------------------------------------------------------
// JSON schema stability: exact bytes, fixed key order.
// ---------------------------------------------------------------------

/// `lint --json` golden bytes on a fixed fixture. Any change to the key
/// set, key order, number spelling, or sort order of the findings array
/// is a breaking change for machine consumers and must show up here.
#[test]
fn lint_json_schema_is_byte_stable() {
    let src = "\
clock 3
latch L1 phase=1 setup=1 dq=2
latch L2 phase=2 setup=1 dq=2
latch orphan phase=1 setup=1 dq=2
path L1 L2 delay=5
path L2 L1 delay=5
";
    let report = lint(&netlist::parse(src).expect("fixture parses"));
    let expected = concat!(
        r#"{"clean":false,"errors":0,"warnings":2,"infos":0,"findings":["#,
        r#"{"rule":"dead-phase","severity":"warn","location":"φ3","message":"phase φ3 controls no synchronizer"},"#,
        r#"{"rule":"unconstrained-sync","severity":"warn","location":"orphan","message":"latch `orphan` has no fan-in and no fan-out; it constrains nothing"}"#,
        "]}"
    );
    assert_eq!(report.json().render_compact(), expected);
    assert_eq!(Json::parse(&report.to_json()), Ok(report.json()));
}

/// `check --json` golden bytes on the shipped racy demo at a pinned cycle
/// time: the wrapper keys (`clean`, `cycle_time`, `worst_hold_slack`,
/// `races`, counts) and the embedded findings array — which must use the
/// *same* per-finding schema as `lint --json` — are all pinned.
#[test]
fn check_json_schema_is_byte_stable() {
    let circuit = load_circuit("circuits/race_demo.ckt");
    let options = CheckOptions {
        cycle_time: Some(10.0),
        ..CheckOptions::default()
    };
    let report = check(&circuit, &options).expect("race_demo checks");
    let expected = concat!(
        r#"{"clean":false,"cycle_time":10,"worst_hold_slack":-0.15000000000000036,"races":1,"#,
        r#""errors":1,"warnings":1,"infos":0,"findings":["#,
        r#"{"rule":"double-clocking-race","severity":"error","location":"result→status#3","message":"double-clocking race result → status (edge #3): new data departs result at E + Δ_DQ = 0.0000 + 0.2500 after the φ1 rise, crosses the short path δ = 0.2000 with phase shift S_{1,1} = -10.0000, and reaches status at -9.5500 — 0.1500 before its hold deadline -9.4000 (previous active edge + hold); increasing the φ1→φ1 clock separation by 0.1500 retires the race"},"#,
        r#"{"rule":"hold-margin","severity":"warn","location":"result→status#3","message":"flip-flop `status` requires hold 0.6 but the same-phase path from `result` can arrive after only 0.2"}"#,
        "]}"
    );
    assert_eq!(report.json().render_compact(), expected);
    assert_eq!(Json::parse(&report.to_json()), Ok(report.json()));
    // And the run is deterministic end to end.
    assert_eq!(
        check(&circuit, &options)
            .expect("re-check runs")
            .json()
            .render_compact(),
        expected
    );
}

/// Every findings entry, on every shipped circuit, matches the four-key
/// object shape in the pinned key order — the schema holds beyond the
/// golden fixtures.
#[test]
fn every_findings_entry_matches_the_schema_shape() {
    let mut shipped: Vec<&str> = SHIPPED_NETLISTS.to_vec();
    shipped.push("circuits/race_demo.ckt");
    for f in shipped {
        let report = check(&load_circuit(f), &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{f}: {e}"));
        let json = report.json();
        let keys = |v: &Json| match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(
            keys(&json),
            [
                "clean",
                "cycle_time",
                "worst_hold_slack",
                "races",
                "errors",
                "warnings",
                "infos",
                "findings",
            ],
            "{f}"
        );
        let findings = json.get("findings").and_then(Json::as_arr);
        for entry in findings.expect("a findings array") {
            assert_eq!(
                keys(entry),
                ["rule", "severity", "location", "message"],
                "{f}: bad entry {entry:?}"
            );
            assert!(
                ["rule", "severity", "location", "message"]
                    .iter()
                    .all(|k| entry.get(k).and_then(Json::as_str).is_some()),
                "{f}: bad entry {entry:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Hold slacks are backend-independent: on random latch-only circuits
    /// (the graph backend's native domain) dressed with measured short
    /// paths, the graph and LP backends agree on the cycle time, on every
    /// edge hold slack, and on every per-synchronizer fan-in minimum,
    /// all within `Tol::TIGHT` at the solved `T_c`.
    #[test]
    fn prop_hold_slacks_are_backend_independent(
        phases in 1usize..=3,
        latches in 2usize..=8,
        edges in 2usize..=14,
        seed in 0u64..10_000,
        frac in 0.2f64..0.9,
        hold in 0.0f64..1.5,
    ) {
        let cfg = GenConfig { phases, latches, edges, ..Default::default() };
        let circuit = with_short_paths(&random_circuit(&cfg, seed), frac, hold);
        let lp = race_analysis(&circuit, &on(Backend::Lp))
            .expect("LP analyses generated circuits");
        let graph = match race_analysis(&circuit, &on(Backend::Graph)) {
            Ok(r) => r,
            // The graph backend refuses models outside the difference
            // fragment; backend-independence is vacuous there.
            Err(_) => return Ok(()),
        };
        let tol = Tol::TIGHT.abs_for(lp.cycle_time());
        prop_assert!(
            (graph.cycle_time() - lp.cycle_time()).abs() <= tol,
            "Tc {} vs {}", graph.cycle_time(), lp.cycle_time()
        );
        for (i, (g, l)) in graph.edge_slacks().iter().zip(lp.edge_slacks()).enumerate() {
            prop_assert!(close(*g, *l, tol), "edge {}: {} vs {}", i, g, l);
        }
        for (i, (g, l)) in graph.latch_slacks().iter().zip(lp.latch_slacks()).enumerate() {
            match (g, l) {
                (Some(g), Some(l)) => prop_assert!(close(*g, *l, tol), "sync {}: {} vs {}", i, g, l),
                (None, None) => {}
                _ => prop_assert!(false, "sync {}: fan-in disagreement", i),
            }
        }
    }

    /// Every reported race is a certificate: the witness re-derives by
    /// plain arithmetic from the circuit and the canonical schedule — the
    /// named edge exists with exactly the witness's delays, the phase
    /// shift and hold deadline recompute from the schedule, the arrival
    /// is the stated sum, and the violated bound reproduces. Conversely,
    /// every edge slack below the feasibility threshold has a witness.
    #[test]
    fn prop_every_race_has_a_reproducing_short_path(
        phases in 1usize..=3,
        latches in 2usize..=8,
        edges in 2usize..=14,
        seed in 0u64..10_000,
        frac in 0.05f64..0.6,
        hold in 0.0f64..3.0,
    ) {
        // Mix flip-flops in deterministically from the seed (the vendored
        // proptest tops out at 6-tuple strategies).
        let ff = (seed % 8) as f64 / 10.0;
        let cfg = GenConfig {
            phases, latches, edges, flip_flop_prob: ff, ..Default::default()
        };
        let circuit = with_short_paths(&random_circuit(&cfg, seed), frac, hold);
        let report = race_analysis(&circuit, &on(Backend::Lp))
            .expect("LP analyses generated circuits");
        let schedule = report.schedule();
        let tc = report.cycle_time();
        let threshold = Tol::FEAS.abs_for(tc);
        let eps = 1e-9 * (1.0 + tc.abs());

        for w in report.races() {
            let e = &circuit.edges()[w.edge.index()];
            let src = circuit.sync(e.from);
            let dst = circuit.sync(e.to);
            // The witness names a real edge with the witness's delays.
            prop_assert_eq!(&w.from, &src.name);
            prop_assert_eq!(&w.to, &dst.name);
            prop_assert_eq!(w.short_delay, e.short_delay());
            prop_assert_eq!(w.min_specified, e.min_specified);
            prop_assert_eq!(w.dq, src.dq);
            prop_assert_eq!(w.hold, dst.hold);
            prop_assert_eq!(w.dst_is_ff, dst.kind == SyncKind::FlipFlop);
            // Shift and deadline recompute from the schedule.
            prop_assert!((w.shift - schedule.shift(src.phase, dst.phase)).abs() <= eps);
            let deadline = match dst.kind {
                SyncKind::Latch => schedule.width(dst.phase) - tc + dst.hold,
                SyncKind::FlipFlop => dst.hold - tc,
            };
            prop_assert!((w.deadline - deadline).abs() <= eps);
            // The early change is the fixpoint value for the source.
            prop_assert_eq!(w.early_change, report.early_changes()[e.from.index()]);
            // The arithmetic identities of the violated inequality.
            let arrival = w.early_change + w.dq + w.short_delay + w.shift;
            prop_assert!((arrival - w.early_arrival).abs() <= eps);
            prop_assert!((w.slack - (w.early_arrival - w.deadline)).abs() <= eps);
            prop_assert!((w.separation_fix + w.slack).abs() <= eps);
            // The bound is genuinely violated, beyond the tolerance.
            prop_assert!(w.slack < -threshold, "slack {} vs threshold {}", w.slack, threshold);
            prop_assert_eq!(w.slack, report.edge_slacks()[w.edge.index()]);
        }

        // Completeness: a witness for every sub-threshold edge slack.
        let negative = report
            .edge_slacks()
            .iter()
            .filter(|s| **s < -threshold)
            .count();
        prop_assert_eq!(negative, report.races().len());
    }
}
