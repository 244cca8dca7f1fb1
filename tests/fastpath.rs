//! Property-based and differential tests for the difference-constraint
//! fast path: the graph backend must agree with the certified simplex on
//! every circuit it accepts, its negative-cycle certificates must be
//! infeasible *in isolation* (not merely as part of the full model), and
//! the exact min-cycle-ratio optimum must land inside the combinatorial
//! `cycle_time_bounds` bracket.

mod common;

use proptest::prelude::*;
use smo::circuit::Circuit;
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use smo::gen::paper::{appendix_fig1, example1, example2, gaas_mips};
use smo::gen::random::{random_circuit, GenConfig};
use smo::lp::{
    certifies_infeasibility, classify, BudgetUnit, DifferenceSystem, FixedParamOutcome, LinExpr,
    MinParamOutcome, Problem, SolveBudget, Status, Tol,
};
use smo::timing::{
    classify_model, cycle_time_bounds, min_cycle_time_with, variable_images, verify, Backend,
    ConstraintOptions, MlpOptions, PropagationSystem, TimingModel,
};

/// Solves `circuit` on the requested backend, returning `None` when the
/// backend refuses the model (graph mode on a mixed model).
fn solve_on(circuit: &Circuit, backend: Backend) -> Option<f64> {
    min_cycle_time_with(
        circuit,
        &MlpOptions {
            backend,
            ..Default::default()
        },
    )
    .ok()
    .map(|s| s.cycle_time())
}

/// Rebuilds a standalone LP containing *only* the certificate's rows
/// (same variables, same bounds, same senses) and returns it together
/// with the certificate's multipliers re-indexed to the new row order.
fn isolate_rows(p: &Problem, rows: &[(smo::lp::ConstraintId, f64)]) -> (Problem, Vec<f64>) {
    // Recreate every variable in index order so `VarId`s carry over.
    let mut names: Vec<(String, f64, f64)> = Vec::new();
    for i in 0..p.num_vars() {
        // Find the VarId with this index by scanning the certificate rows'
        // expressions plus the objective; any var not mentioned anywhere
        // still needs a slot, so fall back to a fresh bounded var.
        names.push((format!("x{i}"), f64::NEG_INFINITY, f64::INFINITY));
    }
    for &(row, _) in rows {
        let (terms, _, _) = p.constraint(row);
        for &(v, _) in terms {
            let (lo, up) = p.var_bounds(v);
            names[v.index()] = (p.var_name(v).to_string(), lo, up);
        }
    }
    let mut q = Problem::new();
    let mut obj = LinExpr::new();
    // Adding in index order means `ids[i]` is the rebuilt problem's
    // variable with index `i`, letting old expressions be re-targeted.
    let ids: Vec<smo::lp::VarId> = names
        .iter()
        .map(|(name, lo, up)| {
            if lo.is_finite() || up.is_finite() {
                q.add_var_bounded(name.clone(), *lo, *up)
            } else {
                q.add_free_var(name.clone())
            }
        })
        .collect();
    obj.add_term(ids[0], 0.0);
    let mut farkas = Vec::with_capacity(rows.len());
    for &(row, m) in rows {
        let (terms, sense, rhs) = p.constraint(row);
        let mut e = LinExpr::new();
        for &(v, c) in terms {
            e.add_term(ids[v.index()], c);
        }
        q.constrain(e, sense, rhs);
        farkas.push(m);
    }
    q.minimize(obj);
    (q, farkas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graph backend vs the certified simplex: identical verdicts and
    /// objectives (within `Tol::TIGHT`) on random latch-only circuits.
    #[test]
    fn prop_graph_agrees_with_certified_lp(seed in 0u64..10_000, latches in 3usize..12) {
        let cfg = GenConfig {
            latches,
            edges: 2 * latches,
            flip_flop_prob: 0.0,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let lp = solve_on(&circuit, Backend::Lp).expect("LP solves generated circuits");
        let graph = solve_on(&circuit, Backend::Graph)
            .expect("default latch models are pure difference systems");
        prop_assert!(
            (graph - lp).abs() <= Tol::TIGHT.abs_for(lp),
            "graph Tc* = {graph} but certified LP found {lp}"
        );
    }

    /// Same agreement with flip-flops mixed in (FF rows are differences
    /// too, so the model stays pure and the graph backend still applies).
    #[test]
    fn prop_graph_agrees_with_ff_circuits(seed in 0u64..10_000) {
        let cfg = GenConfig {
            latches: 8,
            edges: 16,
            flip_flop_prob: 0.4,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let lp = solve_on(&circuit, Backend::Lp).expect("LP solves generated circuits");
        if let Some(graph) = solve_on(&circuit, Backend::Graph) {
            prop_assert!(
                (graph - lp).abs() <= Tol::TIGHT.abs_for(lp),
                "graph Tc* = {graph} but certified LP found {lp}"
            );
        }
    }

    /// The graph optimum always lands inside the combinatorial bracket
    /// `lower ≤ Tc* ≤ upper` certified by `cycle_time_bounds`.
    #[test]
    fn prop_graph_optimum_within_combinatorial_bracket(seed in 0u64..10_000) {
        let cfg = GenConfig {
            latches: 6,
            edges: 12,
            flip_flop_prob: 0.0,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let bounds = cycle_time_bounds(&circuit);
        let graph = solve_on(&circuit, Backend::Graph).expect("pure model");
        prop_assert!(
            bounds.lower - 1e-7 * (1.0 + graph) <= graph
                && graph <= bounds.upper + 1e-7 * (1.0 + graph),
            "Tc* = {graph} outside certified bracket [{}, {}]",
            bounds.lower,
            bounds.upper
        );
    }

    /// Every negative-cycle certificate is a genuine Farkas proof — and
    /// the flagged rows are infeasible *in isolation*: an LP containing
    /// only those rows (same variables and bounds) has no feasible point.
    #[test]
    fn prop_negative_cycle_certs_are_infeasible_in_isolation(seed in 0u64..10_000) {
        let cfg = GenConfig {
            latches: 5,
            edges: 10,
            flip_flop_prob: 0.0,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, seed);
        let bounds = cycle_time_bounds(&circuit);
        prop_assume!(bounds.lower > 1e-6);
        // Cap the cycle time strictly below the certified lower bound:
        // the difference system must now contain a negative cycle.
        let options = ConstraintOptions {
            max_cycle: Some(bounds.lower * 0.5),
            ..Default::default()
        };
        let model = TimingModel::build_with(&circuit, &options).expect("model");
        let images = variable_images(&circuit, &model);
        let cls = classify(model.problem(), &images).expect("classifies");
        prop_assume!(cls.is_pure());
        let system = DifferenceSystem::build(model.problem(), &images, &cls).expect("builds");
        let cert = match system.minimize_param(&SolveBudget::UNLIMITED).expect("search runs") {
            MinParamOutcome::Infeasible(cert) => cert,
            MinParamOutcome::Optimal { lambda, .. } =>
                return Err(TestCaseError::fail(format!(
                    "cap {} below certified lower bound {} still solved at {lambda}",
                    bounds.lower * 0.5,
                    bounds.lower
                ))),
        };
        // (a) The certificate condemns the full model.
        prop_assert!(cert.check(model.problem()), "full-model Farkas check failed");
        prop_assert!(
            certifies_infeasibility(model.problem(), cert.farkas()),
            "Farkas vector rejected by the independent checker"
        );
        // (b) The flagged rows alone are already infeasible.
        let (isolated, farkas) = isolate_rows(model.problem(), cert.rows());
        prop_assert!(
            certifies_infeasibility(&isolated, &farkas),
            "certificate rows are not infeasible in isolation"
        );
        let status = isolated.solve().expect("isolated LP solves").status();
        prop_assert_eq!(status, Status::Infeasible, "simplex disagrees on the isolated rows");
    }
}

/// Graph-vs-LP differential over the paper's shipped circuits plus a
/// deterministic batch of 120 random ones — the "100+ circuits" sweep
/// pinned down without proptest's shrinking overhead.
#[test]
fn graph_and_lp_agree_on_shipped_and_batch_circuits() {
    let mut circuits: Vec<Circuit> = vec![
        example1(80.0),
        example1(0.0),
        example2(),
        gaas_mips(),
        appendix_fig1(30.0, 2.0, 4.0),
    ];
    for seed in 0..60 {
        circuits.push(random_circuit(
            &GenConfig {
                flip_flop_prob: 0.0,
                ..Default::default()
            },
            seed,
        ));
        circuits.push(random_circuit(
            &GenConfig {
                latches: 10,
                edges: 20,
                phases: 3,
                flip_flop_prob: 0.25,
                ..Default::default()
            },
            1000 + seed,
        ));
    }
    let mut graph_solved = 0usize;
    for (i, circuit) in circuits.iter().enumerate() {
        let lp = solve_on(circuit, Backend::Lp).expect("LP solves every batch circuit");
        let auto = solve_on(circuit, Backend::Auto).expect("auto solves every batch circuit");
        assert!(
            (auto - lp).abs() <= Tol::TIGHT.abs_for(lp),
            "circuit {i}: auto Tc* = {auto} but LP found {lp}"
        );
        if let Some(graph) = solve_on(circuit, Backend::Graph) {
            graph_solved += 1;
            assert!(
                (graph - lp).abs() <= Tol::TIGHT.abs_for(lp),
                "circuit {i}: graph Tc* = {graph} but LP found {lp}"
            );
        }
    }
    // The fast path must actually cover the batch, not silently bail.
    assert!(
        graph_solved >= circuits.len() - 5,
        "graph backend only accepted {graph_solved}/{} circuits",
        circuits.len()
    );
}

/// The paper's Example 1 closed form: `Tc* = 110` at `Δ41 = 80` — the
/// graph backend reproduces it exactly (min-cycle-ratio is not iterative
/// refinement; the optimum is combinatorial).
#[test]
fn graph_backend_reproduces_example1_closed_form() {
    let circuit = example1(80.0);
    let sol = min_cycle_time_with(
        &circuit,
        &MlpOptions {
            backend: Backend::Graph,
            ..Default::default()
        },
    )
    .expect("example1 is a pure difference system");
    assert!(
        (sol.cycle_time() - 110.0).abs() < 1e-9,
        "graph Tc* = {}",
        sol.cycle_time()
    );
    assert!(
        sol.certified(),
        "graph solution must carry a valid certificate"
    );
    assert_eq!(sol.lp_iterations(), 0, "no simplex pivots on the fast path");
    let bounds = cycle_time_bounds(&circuit);
    assert!(bounds.lower <= 110.0 + 1e-9 && 110.0 <= bounds.upper + 1e-9);
}

/// Classifier coverage: the default model of every shipped circuit is a
/// pure difference system (this is what makes the fast path the common
/// case, per DESIGN.md).
#[test]
fn shipped_circuits_classify_as_pure_difference_systems() {
    for (name, circuit) in [
        ("example1", example1(80.0)),
        ("example2", example2()),
        ("gaas_mips", gaas_mips()),
        ("appendix_fig1", appendix_fig1(30.0, 2.0, 4.0)),
    ] {
        let model = TimingModel::build(&circuit).expect("model");
        let cls = classify_model(&circuit, &model).expect("classifies");
        assert!(cls.is_pure(), "{name}: {} general rows", cls.num_general());
        assert_eq!(
            cls.len(),
            model.num_constraints(),
            "{name}: classification is total"
        );
    }
}

/// Satellite of the serve PR: `SolveBudget::deadline` must be consulted by
/// the graph backend too, so `--time-limit` holds on *every* backend. An
/// already-expired deadline returns a structured `LpError::Budget` — never
/// a partial or unbudgeted result — on graph, auto and lp routes alike,
/// certified or not.
#[test]
fn expired_deadline_is_a_budget_error_on_every_backend() {
    let circuit = gaas_mips();
    for backend in [Backend::Graph, Backend::Auto, Backend::Lp] {
        for certify in [true, false] {
            let options = MlpOptions {
                backend,
                certify,
                time_limit: Some(std::time::Duration::ZERO),
                ..Default::default()
            };
            match min_cycle_time_with(&circuit, &options) {
                Err(smo::timing::TimingError::Lp(smo::lp::LpError::Budget {
                    timed_out,
                    unit,
                    ..
                })) => {
                    assert!(timed_out, "{backend}/certify={certify}: expired by time");
                    // The error names the work that ran: graph passes on
                    // the graph routes, pivots on the simplex.
                    let expected = match backend {
                        Backend::Lp => BudgetUnit::SimplexIterations,
                        Backend::Graph | Backend::Auto => BudgetUnit::BellmanFordPasses,
                    };
                    assert_eq!(unit, expected, "{backend}/certify={certify}");
                }
                other => {
                    panic!("{backend}/certify={certify}: expected LpError::Budget, got {other:?}")
                }
            }
        }
    }
}

/// The difference system of `smo gen --latches 4000 --seed 7`, the
/// `datapath-large` benchmark input (4005 graph nodes with the origin).
fn datapath_4000_system() -> (Circuit, DifferenceSystem) {
    let circuit = pipelined_datapath(&DatapathConfig::with_latches(4000), 7);
    let model = TimingModel::build(&circuit).expect("model");
    let images = variable_images(&circuit, &model);
    let cls = classify(model.problem(), &images).expect("classifies");
    assert!(cls.is_pure());
    let system = DifferenceSystem::build(model.problem(), &images, &cls).expect("builds");
    (circuit, system)
}

/// Each infeasible Lawler round ends at the first cycle of the
/// Bellman–Ford predecessor graph. A round that instead ran all V passes
/// before reporting its cycle would need 4005 passes per infeasible round
/// (8056 in total here); stopping early needs a few dozen, so a 500-pass
/// allowance pins the behavior without timing anything.
#[test]
fn min_ratio_search_on_4000_latches_fits_500_passes() {
    let (circuit, system) = datapath_4000_system();
    let (lambda, witness) = match system.minimize_param(&SolveBudget::with_max_iterations(500)) {
        Ok(MinParamOutcome::Optimal {
            lambda, witness, ..
        }) => (lambda, witness),
        other => panic!("expected an optimum within 500 passes, got {other:?}"),
    };
    let witness = witness.expect("a critical cycle binds Tc*");
    assert!(
        (witness.implied_lower() - lambda).abs() <= 1e-9 * lambda,
        "witness implies {} for Tc* = {lambda}",
        witness.implied_lower()
    );
    // The product path KKT-checks the optimum against the raw rows; it
    // must accept the same optimum.
    let sol = min_cycle_time_with(
        &circuit,
        &MlpOptions {
            backend: Backend::Graph,
            ..Default::default()
        },
    )
    .expect("solves");
    let [cert] = sol.certificates() else {
        panic!("graph solve is certified: {:?}", sol.certificates());
    };
    assert!(cert.is_valid(), "{cert}");
    assert!((sol.cycle_time() - lambda).abs() <= 1e-12 * lambda);
}

/// The default solve's optimum on generated datapaths, pinned to 1e-12
/// relative: the label-correcting search may name a different critical
/// cycle of the same ratio, but not move Tc. Each answer carries a valid
/// KKT certificate and lies in the combinatorial bracket, whose lower
/// end on the 4000-latch seed-7 input is pinned too.
#[test]
fn datapath_optima_are_pinned_and_certified() {
    for (latches, seed, expected) in [
        (4000, 7, 67.6638170311788),
        (4000, 11, 67.6950006279635),
        (216, 424_457, 67.87298536930071),
    ] {
        let circuit = pipelined_datapath(&DatapathConfig::with_latches(latches), seed);
        let sol = min_cycle_time_with(&circuit, &MlpOptions::default())
            .unwrap_or_else(|e| panic!("({latches}, {seed}): {e}"));
        let tc = sol.cycle_time();
        assert!(
            (tc - expected).abs() <= 1e-12 * expected,
            "({latches}, {seed}): Tc = {tc:.15}, expected {expected}"
        );
        assert_eq!(sol.backend(), Backend::Graph, "({latches}, {seed})");
        let [cert] = sol.certificates() else {
            panic!("({latches}, {seed}): {:?}", sol.certificates());
        };
        assert!(cert.is_valid(), "({latches}, {seed}): {cert}");
        let bounds = cycle_time_bounds(&circuit);
        assert!(bounds.brackets(tc), "({latches}, {seed}): {bounds}");
        if (latches, seed) == (4000, 7) {
            assert_eq!(bounds.lower, 64.38640693517007);
            assert_eq!(bounds.upper, 81.96925774291144);
        }
    }
}

/// Below Tc* a single Bellman–Ford round must find its negative cycle in
/// far fewer than V = 4005 passes.
#[test]
fn feasible_at_below_optimum_finds_a_cycle_within_100_passes() {
    let (_, system) = datapath_4000_system();
    let lambda = match system.minimize_param(&SolveBudget::UNLIMITED) {
        Ok(MinParamOutcome::Optimal { lambda, .. }) => lambda,
        other => panic!("expected an optimum, got {other:?}"),
    };
    let below = 0.99 * lambda;
    match system.feasible_at(below, &SolveBudget::with_max_iterations(100)) {
        Ok(FixedParamOutcome::NegativeCycle(cycle)) => {
            assert!(
                cycle.weight_at(below) < 0.0,
                "cycle weight must be negative"
            );
            assert!(!cycle.rows().is_empty());
        }
        other => panic!("expected a negative cycle within 100 passes, got {other:?}"),
    }
}

/// `smo gen --latches 216 --seed 424457`: a loop of tiny negative gain
/// slides the departures down by that gain once per sweep of the paper's
/// downward iteration — tens of thousands of sweeps — while the shipped
/// slide computes the limit directly in at most `L + 1`. Both backends
/// must return the certified optimum with the departures at a fixpoint of
/// the propagation equations, and `smo check` must pass.
#[test]
fn slow_departure_slide_converges_on_auto_and_lp() {
    let circuit = pipelined_datapath(&DatapathConfig::with_latches(216), 424_457);
    for backend in [Backend::Auto, Backend::Lp] {
        let sol = min_cycle_time_with(
            &circuit,
            &MlpOptions {
                backend,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert!(sol.certified(), "{backend}: not certified");
        assert!(
            (sol.cycle_time() - 67.872985).abs() < 1e-6,
            "{backend}: Tc = {}",
            sol.cycle_time()
        );
        assert!(verify(&circuit, sol.schedule()).is_feasible(), "{backend}");
        assert!(
            sol.update_iterations() <= circuit.num_syncs() + 1,
            "{backend}: {} sweeps",
            sol.update_iterations()
        );
        let sys = PropagationSystem::new(&circuit, sol.schedule());
        for (i, &d) in sol.departures().iter().enumerate() {
            let f = sys.update(sol.departures(), i);
            assert!(
                (d - f).abs() < 1e-7,
                "{backend}: latch {i}: D = {d}, F(D) = {f}"
            );
        }
        let options = smo::analyze::CheckOptions {
            backend,
            ..Default::default()
        };
        let report = smo::analyze::check(&circuit, &options)
            .unwrap_or_else(|e| panic!("{backend}: check: {e}"));
        assert!(!report.has_errors(), "{backend}: {}", report.findings());
    }
}

/// One default: every options struct, and a daemon request that names no
/// backend, runs `auto`.
#[test]
fn auto_is_the_default_backend_everywhere() {
    use smo::analyze::CheckOptions;
    use smo::api::{Command, Request};
    use smo::timing::RaceOptions;
    assert_eq!(Backend::default(), Backend::Auto);
    assert_eq!(MlpOptions::default().backend, Backend::default());
    assert_eq!(RaceOptions::default().backend, Backend::default());
    assert_eq!(CheckOptions::default().backend, Backend::default());
    for cmd in ["solve", "check", "verify"] {
        let line = format!(
            r#"{{"cmd":"{cmd}","netlist":"clock 2\n","cycle_time":10,"phases":[[0,5],[5,5]]}}"#
        );
        let request = Request::parse(&line).unwrap_or_else(|e| panic!("{cmd}: {}", e.message));
        let backend = match request.command {
            Command::Solve { backend, .. }
            | Command::Check { backend, .. }
            | Command::Verify { backend, .. } => backend,
            other => panic!("{cmd} parsed as {other:?}"),
        };
        assert_eq!(backend, Backend::default(), "{cmd}");
    }
}
