//! Dense-oracle tests for the delay-sensitivity layer: the exact
//! `T_c*(Δ)` curve must equal the paper's §V dense-tableau simplex
//! ([`Problem::solve_reference`](smo::lp::Problem::solve_reference)) at
//! every breakpoint, every segment midpoint and both ends, on pure
//! difference models (critical-cycle lines) and on mixed ones (simplex
//! duals); and the per-edge sensitivities must equal the LP-dual sums
//! wherever `T_c*` is differentiable in the delays.

use proptest::prelude::*;
use smo::circuit::{Circuit, EdgeId, PhaseId};
use smo::gen::paper::{example1, example2, gaas_mips, EXAMPLE1_DELTA41_EDGE};
use smo::gen::random::{random_circuit, GenConfig};
use smo::lp::{LinExpr, Sense, SolveBudget};
use smo::timing::{
    critical_report, cycle_time_curve, delay_sensitivities, ConstraintKind, CycleTimeCurve,
    TimingModel,
};

/// `T_c*` of `model` by the dense-tableau reference simplex.
fn reference_tc(model: &TimingModel) -> f64 {
    model
        .problem()
        .solve_reference(SolveBudget::UNLIMITED)
        .expect("reference solve runs")
        .into_optimal()
        .expect("reference solve is optimal")
        .objective()
}

/// Adds the redundant non-difference row `w₁ + w₂ ≤ 2·T_c`: the model
/// becomes mixed, so `auto` solves it on the simplex.
fn make_mixed(model: &mut TimingModel) {
    let vars = model.vars();
    let (w1, w2, tc) = (
        vars.width(PhaseId::new(0)),
        vars.width(PhaseId::new(1)),
        vars.tc(),
    );
    let expr = LinExpr::from(w1) + w2 - tc - tc;
    model.problem_mut().constrain(expr, Sense::Le, 0.0);
}

/// Compares `curve` with the reference simplex at both ends, every
/// breakpoint and every segment midpoint, to 1e-6 relative.
fn check_against_reference(
    circuit: &Circuit,
    model: &TimingModel,
    edge: EdgeId,
    max_delay: f64,
    curve: &CycleTimeCurve,
) -> Result<(), TestCaseError> {
    let mut probes = vec![0.0, max_delay];
    probes.extend(curve.breakpoints());
    probes.extend(curve.segments.iter().map(|s| 0.5 * (s.lo + s.hi)));
    for delta in probes {
        let mut m = model.clone();
        m.set_edge_delay(edge, circuit.edge(edge).max_delay, delta);
        let want = reference_tc(&m);
        let got = curve.objective_at(delta).expect("probe lies in range");
        prop_assert!(
            (got - want).abs() <= 1e-6 * want.abs().max(1.0),
            "Δ = {delta}: curve {got} vs reference {want} ({curve:?})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On small random circuits, pure and mixed, the curve of a random
    /// edge equals the dense reference at every probe.
    #[test]
    fn curve_matches_the_dense_reference(
        seed in 0u64..10_000,
        latches in 3usize..9,
        extra_edges in 0usize..8,
        edge_pick in 0usize..1000,
        max_delay in 0.0f64..120.0,
        mixed in proptest::bool::ANY,
    ) {
        let config = GenConfig {
            latches,
            edges: latches + extra_edges,
            ..Default::default()
        };
        let circuit = random_circuit(&config, seed);
        let mut model = TimingModel::build(&circuit).unwrap();
        if mixed {
            make_mixed(&mut model);
        }
        let edge = EdgeId::new(edge_pick % circuit.num_edges());
        let curve = cycle_time_curve(&circuit, &model, edge, max_delay).unwrap();
        prop_assert!(!curve.segments.is_empty());
        check_against_reference(&circuit, &model, edge, max_delay, &curve)?;
    }
}

/// The Fig. 7 curve through the simplex-dual oracle: the mixed Example 1
/// model breaks at the paper's 20 and 100, and agrees with the reference.
#[test]
fn mixed_model_curve_recovers_figure7() {
    let circuit = example1(50.0);
    let mut model = TimingModel::build(&circuit).unwrap();
    make_mixed(&mut model);
    let edge = EdgeId::new(EXAMPLE1_DELTA41_EDGE);
    let curve = cycle_time_curve(&circuit, &model, edge, 140.0).unwrap();
    let bps = curve.breakpoints();
    assert_eq!(bps.len(), 2, "{curve:?}");
    assert!((bps[0] - 20.0).abs() < 1e-6 && (bps[1] - 100.0).abs() < 1e-6);
    let slopes: Vec<f64> = curve.segments.iter().map(|s| s.slope).collect();
    for (got, want) in slopes.iter().zip([0.0, 0.5, 1.0]) {
        assert!((got - want).abs() < 1e-9, "slopes {slopes:?}");
    }
    check_against_reference(&circuit, &model, edge, 140.0, &curve).unwrap();
}

/// `Σ |dual|` over each edge's delay rows of one LP solve: the
/// sensitivities as the simplex reports them.
fn lp_dual_sums(circuit: &Circuit, model: &TimingModel) -> Vec<f64> {
    let sol = model.solve_lp().unwrap();
    let mut out = vec![0.0; circuit.num_edges()];
    for info in model.constraints() {
        if let (Some(edge), ConstraintKind::Propagation | ConstraintKind::FlipFlopSetup) =
            (info.edge(), info.kind())
        {
            out[edge.index()] += sol.dual(info.row()).abs();
        }
    }
    out
}

/// Where `T_c*` is differentiable in the delays (one critical loop, no
/// breakpoint at the present delays), every optimal dual gives the same
/// edge slopes, so the critical-cycle sensitivities must equal the LP's.
#[test]
fn sensitivities_equal_lp_dual_sums_away_from_breakpoints() {
    let circuits = [
        ("example1(10)", example1(10.0)),
        ("example1(60)", example1(60.0)),
        ("example1(120)", example1(120.0)),
        ("example2", example2()),
        ("gaas_mips", gaas_mips()),
    ];
    for (name, circuit) in circuits {
        let model = TimingModel::build(&circuit).unwrap();
        let graph = delay_sensitivities(&circuit, &model).unwrap();
        let lp = lp_dual_sums(&circuit, &model);
        for (e, (g, l)) in graph.iter().zip(&lp).enumerate() {
            assert!(
                (g - l).abs() < 1e-9,
                "{name}, edge {e}: critical cycle {g} vs LP duals {l}"
            );
        }
    }
}

/// §V: critical segments are binding constraints. Every edge that
/// `critical_report` names lies on the critical cycle, whose rows sum to
/// `T_c*` (on the mixed model: carries a non-zero dual), so its delay row
/// has zero slack at every LP optimum.
#[test]
fn critical_edges_are_binding_rows_of_the_lp_optimum() {
    for (name, circuit, mixed) in [
        ("example1 Δ41 = 60", example1(60.0), false),
        ("example1 Δ41 = 80", example1(80.0), false),
        ("mixed example1 Δ41 = 80", example1(80.0), true),
        ("example2", example2(), false),
        ("gaas_mips", gaas_mips(), false),
    ] {
        let mut model = TimingModel::build(&circuit).expect("model builds");
        if mixed {
            make_mixed(&mut model);
        }
        let lp = model
            .problem()
            .solve_reference(SolveBudget::UNLIMITED)
            .expect("reference solve runs")
            .into_optimal()
            .expect("reference solve is optimal");
        let report = critical_report(&circuit, &model).expect("critical analysis runs");
        assert!(!report.edges.is_empty(), "{name}: no critical edge");
        for ce in &report.edges {
            let row = model.edge_constraint(ce.edge).expect("edge rows exist");
            assert!(
                lp.slack(row).abs() < 1e-7,
                "{name}: critical edge {:?} has slack {}",
                ce.edge,
                lp.slack(row)
            );
        }
    }
}
