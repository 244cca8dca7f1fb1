//! Integration tests for the static-analysis layer: `lint` and `analyze`
//! over the shipped netlists, infeasibility diagnosis on over-constrained variants of the paper's
//! examples, and property tests of IIS minimality.

use proptest::prelude::*;
use smo::analyze::{analyze, diagnose, lint, Diagnosis, Rule, Severity};
use smo::circuit::netlist;
use smo::gen::paper;
use smo::gen::random::{random_circuit, GenConfig};
use smo::lp::{
    certifies_infeasibility, classify, extract_graph_iis, extract_iis, ConstraintId,
    DifferenceSystem, MinParamOutcome, Problem, SolveBudget, Status,
};
use smo::timing::{
    cycle_time_bounds, variable_images, ConstraintKind, ConstraintOptions, TimingModel,
};
use std::path::Path;

const SHIPPED: [&str; 5] = [
    "circuits/example1.ckt",
    "circuits/example2.ckt",
    "circuits/gaas_mips.ckt",
    "circuits/appendix_fig1.ckt",
    "circuits/alu_bypass.ckt",
];

/// Loads a shipped netlist, auto-detecting the gate-level dialect (same
/// logic as the CLI).
fn load(rel: &str) -> smo::circuit::Circuit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    let gate_level = src.lines().any(|l| {
        let t = l.split('#').next().unwrap_or("").trim_start();
        t.starts_with("gate ") || t.starts_with("wire ")
    });
    if gate_level {
        netlist::parse_gates(&src).expect("shipped gate netlist parses")
    } else {
        netlist::parse(&src).expect("shipped netlist parses")
    }
}

#[test]
fn lint_is_clean_on_all_shipped_circuits() {
    for f in SHIPPED {
        let report = lint(&load(f));
        assert!(report.is_clean(), "{f} should lint clean but:\n{report}");
    }
}

#[test]
fn analyze_brackets_every_shipped_circuit() {
    for f in SHIPPED {
        let circuit = load(f);
        let r = analyze(&circuit).unwrap_or_else(|e| panic!("{f}: {e}"));
        assert!(
            r.bounds.lower <= r.optimum + 1e-9 && r.optimum <= r.bounds.upper + 1e-9,
            "{f}: optimum {} outside [{}, {}]",
            r.optimum,
            r.bounds.lower,
            r.bounds.upper
        );
        assert!(r.bounds.brackets(r.optimum), "{f}");
    }
}

#[test]
fn analyze_lower_bound_is_exact_on_example1() {
    let r = analyze(&load("circuits/example1.ckt")).unwrap();
    assert_eq!(r.bounds.lower, r.optimum, "critical loop sets the clock");
    assert_eq!(r.optimum, 110.0);
    assert!(r.lower_is_tight);
}

#[test]
fn overconstrained_example1_iis_matches_the_diagnosis() {
    // Over-constrained Example 1 (Tc ≤ 100 < 110): the plain solve's
    // Farkas certificate verifies, and the IIS names the same rows as the
    // diagnosis.
    let circuit = paper::example1(80.0);
    let opts = ConstraintOptions {
        max_cycle: Some(100.0),
        ..Default::default()
    };
    let model = TimingModel::build_with(&circuit, &opts).unwrap();
    let p = model.problem();
    let sol = p.solve().unwrap();
    assert_eq!(sol.status(), Status::Infeasible);
    let y = sol.farkas().expect("infeasible solves carry a certificate");
    assert!(certifies_infeasibility(p, y));

    let iis = extract_iis(p).unwrap().expect("model is infeasible");
    let d = diagnose(&circuit, Some(100.0)).unwrap();
    let report = d.report().expect("infeasible");
    let mut from_iis = iis.rows().to_vec();
    let mut from_diagnose = report.rows();
    from_iis.sort_by_key(|c| c.index());
    from_diagnose.sort_by_key(|c| c.index());
    assert_eq!(from_iis, from_diagnose, "IIS must match the diagnosis");
}

/// The bracket collapses parallel arcs in a fixed order, so repeated
/// calls name the same critical cycle and agree to the last bit (the race
/// demo has two equal-ratio cycles to choose from).
#[test]
fn combinatorial_bounds_are_deterministic() {
    let circuit = load("circuits/race_demo.ckt");
    let first = cycle_time_bounds(&circuit);
    assert!(!first.critical.is_empty());
    for _ in 1..32 {
        let again = cycle_time_bounds(&circuit);
        assert_eq!(again, first);
        assert_eq!(again.lower.to_bits(), first.lower.to_bits());
    }
}

#[test]
fn combinatorial_bounds_bracket_the_shipped_optima() {
    for f in SHIPPED {
        let circuit = load(f);
        let bounds = cycle_time_bounds(&circuit);
        let tc = TimingModel::build(&circuit)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!(
            bounds.brackets(tc),
            "{f}: Tc {} outside [{}, {}]",
            tc,
            bounds.lower,
            bounds.upper
        );
    }
}

#[test]
fn lint_flags_seeded_bad_netlist() {
    // One netlist seeded with four distinct mistakes: an orphan latch, a
    // dead phase (φ3), a duplicated path line, and a zero-delay loop of
    // transparent latches.
    let src = "\
clock 3
latch L1 phase=1 setup=1 dq=2
latch L2 phase=2 setup=1 dq=2
latch orphan phase=1 setup=1 dq=2
latch X phase=1 setup=0 dq=0
latch Y phase=2 setup=0 dq=0
path L1 L2 delay=5
path L1 L2 delay=7
path L2 L1 delay=5
path X Y delay=0
path Y X delay=0
";
    let report = lint(&netlist::parse(src).unwrap());
    assert!(report.has_errors());
    assert_eq!(report.worst(), Some(Severity::Error));
    let fired: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    for rule in [
        Rule::UnconstrainedSync,
        Rule::DeadPhase,
        Rule::DuplicateEdge,
        Rule::ZeroDelayLoop,
    ] {
        assert!(fired.contains(&rule), "{rule} did not fire:\n{report}");
    }
    let text = report.to_string();
    assert!(text.contains("orphan"));
    assert!(text.contains("φ3"));
}

/// A ring of ten diamonds (`A_i → B_i, C_i → A_{i+1}`: 1024 elementary
/// cycles) with a zero-delay latch loop `Z1 ⇄ Z2` tied to it at `A5`.
/// `z_first` declares Z1 and Z2 before the ring.
fn diamond_ring_with_zero_delay_loop(z_first: bool) -> String {
    let zs = "latch Z1 phase=1 setup=0 dq=0\nlatch Z2 phase=2 setup=0 dq=0\n";
    let mut ring = String::new();
    let mut paths = String::new();
    for i in 0..10 {
        let j = (i + 1) % 10;
        ring += &format!(
            "latch A{i} phase=1 setup=1 dq=1\nlatch B{i} phase=2 setup=1 dq=1\n\
             latch C{i} phase=2 setup=1 dq=1\n"
        );
        paths += &format!(
            "path A{i} B{i} delay=2\npath A{i} C{i} delay=3\n\
             path B{i} A{j} delay=2\npath C{i} A{j} delay=1\n"
        );
    }
    paths += "path Z1 Z2 delay=0\npath Z2 Z1 delay=0\npath A5 Z1 delay=1\npath Z2 A5 delay=1\n";
    let latches = if z_first {
        zs.to_string() + &ring
    } else {
        ring + zs
    };
    format!("clock 2\n{latches}{paths}")
}

#[test]
fn zero_delay_loop_is_found_however_many_cycles_precede_it() {
    for z_first in [true, false] {
        let circuit = netlist::parse(&diamond_ring_with_zero_delay_loop(z_first)).unwrap();
        let lint_report = lint(&circuit);
        let check_report = smo::analyze::check(&circuit, &Default::default()).unwrap();
        for report in [&lint_report, check_report.findings()] {
            let zero: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.rule == Rule::ZeroDelayLoop)
                .collect();
            assert_eq!(zero.len(), 1, "z_first = {z_first}:\n{report}");
            assert_eq!(zero[0].location, "Z1→Z2→Z1");
            assert!(report.has_errors());
        }
    }
}

#[test]
fn overconstrained_example1_names_paper_constraints() {
    // Example 1 at Δ41 = 80 has optimum Tc = 110; demanding Tc ≤ 100 is
    // impossible, and the conflict is exactly the critical loop
    // L1→L2→L3→L4→L1 (four L2R rows) against the cap.
    let circuit = paper::example1(80.0);
    let d = diagnose(&circuit, Some(100.0)).unwrap();
    let report = d.report().expect("Tc ≤ 100 < 110 must be infeasible");
    assert!(report.certified, "Farkas certificate must re-verify");
    assert!(report.involves(ConstraintKind::CycleBound));
    assert!(report.involves(ConstraintKind::Propagation));

    let text = d.to_string();
    assert!(text.contains("no feasible clock schedule at cycle time 100"));
    assert!(
        text.contains("L2R (eq. 19)"),
        "missing paper label:\n{text}"
    );
    assert!(text.contains("`L4`") && text.contains("`L1`"));
    assert!(text.contains("φ1") && text.contains("φ2"));
    assert!(text.contains("cycle time capped at 100"));

    // The reported IIS is verified minimal against a fresh model: it is
    // infeasible in isolation and every single-member removal is feasible.
    let opts = ConstraintOptions {
        max_cycle: Some(100.0),
        ..Default::default()
    };
    let model = TimingModel::build_with(&circuit, &opts).unwrap();
    let rows = report.rows();
    assert_eq!(
        model.problem().restricted(&rows).solve().unwrap().status(),
        Status::Infeasible
    );
    for i in 0..rows.len() {
        let mut rest = rows.clone();
        rest.remove(i);
        assert_ne!(
            model.problem().restricted(&rest).solve().unwrap().status(),
            Status::Infeasible,
            "IIS member {i} is redundant"
        );
    }
}

#[test]
fn overconstrained_example2_reports_certified_conflict() {
    let circuit = paper::example2();
    let free = match diagnose(&circuit, None).unwrap() {
        Diagnosis::Feasible { min_cycle } => min_cycle,
        Diagnosis::Infeasible(_) => panic!("plain SMO model must be feasible"),
    };
    let cap = 0.8 * free;
    let d = diagnose(&circuit, Some(cap)).unwrap();
    let report = d.report().expect("80% of the optimum is infeasible");
    assert!(report.certified);
    assert!(report.involves(ConstraintKind::CycleBound));
    assert!(report.constraints.len() >= 2, "a cap alone is never an IIS");
    let json = d.to_json();
    assert!(json.contains("\"feasible\": false"));
    assert!(json.contains("\"certified\": true"));
    assert!(json.contains("\"iis\": ["));
}

#[test]
fn achievable_targets_stay_feasible() {
    let circuit = paper::example1(80.0);
    match diagnose(&circuit, Some(110.0)).unwrap() {
        Diagnosis::Feasible { min_cycle } => assert!((min_cycle - 110.0).abs() < 1e-6),
        Diagnosis::Infeasible(r) => panic!("Tc ≤ 110 is exactly achievable:\n{r}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For randomly generated circuits made infeasible by an impossible
    /// cycle-time cap, the extracted IIS is (a) infeasible re-solved in
    /// isolation and (b) minimal: removing any one member makes the
    /// remaining subsystem feasible. The solver's Farkas certificate also
    /// re-verifies independently.
    #[test]
    fn prop_iis_is_minimal_and_infeasible(
        phases in 1usize..=4,
        latches in 2usize..=7,
        edges in 3usize..=12,
        seed in 0u64..1000,
    ) {
        let cfg = GenConfig { phases, latches, edges, ..Default::default() };
        let circuit = random_circuit(&cfg, seed);
        let free = TimingModel::build(&circuit)
            .expect("model builds")
            .solve_lp()
            .expect("plain SMO model is feasible")
            .objective();
        prop_assume!(free > 1e-6);

        let opts = ConstraintOptions { max_cycle: Some(0.8 * free), ..Default::default() };
        let model = TimingModel::build_with(&circuit, &opts).expect("model builds");
        let p = model.problem();

        let sol = p.solve().expect("solver runs");
        prop_assert_eq!(sol.status(), Status::Infeasible);
        let y = sol.farkas().expect("infeasible solves carry a certificate");
        prop_assert!(certifies_infeasibility(p, y), "certificate fails to verify");

        let iis = extract_iis(p).expect("solver runs").expect("model is infeasible");
        let rows = iis.rows().to_vec();
        prop_assert!(!rows.is_empty());

        // (a) infeasible in isolation.
        prop_assert_eq!(
            p.restricted(&rows).solve().expect("solver runs").status(),
            Status::Infeasible
        );
        // (b) minimal: every single-member removal is feasible.
        for i in 0..rows.len() {
            let mut rest = rows.clone();
            rest.remove(i);
            prop_assert!(
                p.restricted(&rest).solve().expect("solver runs").status() != Status::Infeasible,
                "IIS member {} of {} is redundant", i, rows.len()
            );
        }
    }

    /// Capped anywhere inside the combinatorial bracket (half the cases),
    /// or below it down to half its lower end (the other half, so that
    /// the conflicts vary), a random circuit either keeps a schedule or
    /// gets an IIS seeded by the graph's
    /// negative cycle. That IIS is what `diagnose` reports; the dense
    /// reference simplex finds it infeasible and every one-row deletion
    /// feasible; and whenever the IIS is unique, the simplex's deletion
    /// filter over the full model finds one of the same size.
    #[test]
    fn prop_graph_seeded_iis_is_irreducible(
        phases in 1usize..=4,
        latches in 2usize..=7,
        edges in 3usize..=12,
        seed in 0u64..1000,
        at in -1.0f64..1.0,
    ) {
        let cfg = GenConfig { phases, latches, edges, ..Default::default() };
        let circuit = random_circuit(&cfg, seed);
        let bounds = cycle_time_bounds(&circuit);
        let cap = if at < 0.0 {
            bounds.lower * (1.0 + 0.5 * at)
        } else {
            bounds.lower + at * (bounds.upper - bounds.lower)
        };
        let opts = ConstraintOptions { max_cycle: Some(cap), ..Default::default() };
        let model = TimingModel::build_with(&circuit, &opts).expect("model builds");
        let p = model.problem();
        let images = variable_images(&circuit, &model);
        let cls = classify(p, &images).expect("images match the model");
        prop_assert!(cls.is_pure());
        let sys = DifferenceSystem::build(p, &images, &cls).expect("graph builds");
        let diagnosis = diagnose(&circuit, Some(cap)).expect("diagnosis runs");
        match sys.minimize_param(&SolveBudget::UNLIMITED).expect("graph solve runs") {
            MinParamOutcome::Optimal { lambda, .. } => {
                prop_assert_eq!(diagnosis, Diagnosis::Feasible { min_cycle: lambda });
                prop_assert!(lambda <= cap * (1.0 + 1e-9));
            }
            MinParamOutcome::Infeasible(cert) => {
                prop_assert!(cert.check(p));
                let iis = extract_graph_iis(p, &images, &cert)
                    .expect("graph searches run")
                    .expect("the certificate's rows conflict");
                let rows = iis.rows().to_vec();
                let report = diagnosis.report().expect("capped model is infeasible");
                prop_assert_eq!(report.rows(), rows.clone());
                prop_assert!(report.certified);
                prop_assert!(reference_infeasible(p, &rows));
                for i in 0..rows.len() {
                    let mut rest = rows.clone();
                    rest.remove(i);
                    prop_assert!(
                        !reference_infeasible(p, &rest),
                        "IIS member {} of {} is redundant", i, rows.len()
                    );
                }
                // Rows whose removal alone restores a schedule lie in
                // every IIS; when they conflict by themselves, they are
                // the only one.
                let all: Vec<ConstraintId> = model.constraints().iter().map(|c| c.row).collect();
                let necessary: Vec<ConstraintId> = all
                    .iter()
                    .copied()
                    .filter(|&r| {
                        let rest: Vec<ConstraintId> =
                            all.iter().copied().filter(|&c| c != r).collect();
                        !reference_infeasible(p, &rest)
                    })
                    .collect();
                if reference_infeasible(p, &necessary) {
                    let lp = extract_iis(p).expect("solver runs").expect("model is infeasible");
                    prop_assert_eq!(rows.len(), lp.len());
                    prop_assert_eq!(rows, necessary);
                }
            }
        }
    }
}

/// Whether the rows `rows` of `p` admit no solution, by the dense
/// reference simplex.
fn reference_infeasible(p: &Problem, rows: &[ConstraintId]) -> bool {
    p.restricted(rows)
        .solve_reference(SolveBudget::UNLIMITED)
        .expect("reference solve runs")
        .status()
        == Status::Infeasible
}
