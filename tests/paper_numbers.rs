//! The paper's headline numbers, asserted end-to-end through the public
//! facade (`smo::…`). This file is the machine-checked half of
//! EXPERIMENTS.md.

use smo::gen::paper;
use smo::prelude::*;
use smo::timing::baseline;

fn tc(circuit: &smo::circuit::Circuit) -> f64 {
    min_cycle_time(circuit).expect("solves").cycle_time()
}

#[test]
fn example1_cycle_times_match_figure6() {
    // Fig. 6: Tc = 110 / 120 / 140 ns at Δ41 = 80 / 100 / 120 ns.
    assert!((tc(&paper::example1(80.0)) - 110.0).abs() < 1e-6);
    assert!((tc(&paper::example1(100.0)) - 120.0).abs() < 1e-6);
    assert!((tc(&paper::example1(120.0)) - 140.0).abs() < 1e-6);
}

#[test]
fn example1_figure6c_departure_times() {
    // "a cycle time of 140 ns with signals departing from latches 1
    // through 4, respectively, at 60 ns, 90 ns, 140 ns, and 210 ns" and
    // the L3 input valid 20 ns before φ1 rises.
    let circuit = paper::example1(120.0);
    let sol = min_cycle_time(&circuit).expect("solves");
    let s = sol.schedule();
    let p1 = PhaseId::from_number(1);
    let p2 = PhaseId::from_number(2);
    let abs = [
        s.start(p1) + sol.departure(LatchId::new(0)),
        s.start(p2) + sol.departure(LatchId::new(1)),
        s.start(p1) + sol.departure(LatchId::new(2)) + s.cycle(),
        s.start(p2) + sol.departure(LatchId::new(3)) + s.cycle(),
    ];
    for (got, want) in abs.iter().zip([60.0, 90.0, 140.0, 210.0]) {
        assert!((got - want).abs() < 1e-6, "absolute departures {abs:?}");
    }
    assert!((sol.arrival(LatchId::new(2)) + 20.0).abs() < 1e-6);
}

#[test]
fn example1_figure7_closed_form_and_breakpoints() {
    // Tc* = max(average loop delay, cycle-delay difference), flat below
    // Δ41 = 20, slope ½ to 100, slope 1 beyond.
    for d41 in [0.0_f64, 15.0, 20.0, 45.0, 60.0, 99.0, 100.0, 101.0, 139.0] {
        let expect = ((140.0 + d41) / 2.0).max(d41 + 20.0).max(80.0);
        assert!(
            (tc(&paper::example1(d41)) - expect).abs() < 1e-6,
            "Δ41 = {d41}"
        );
    }
}

#[test]
fn example1_nrip_like_baseline_optimal_only_at_60() {
    let opt60 = tc(&paper::example1(60.0));
    let sym60 = baseline::symmetric_clock(&paper::example1(60.0))
        .expect("runs")
        .cycle_time();
    assert!(
        (opt60 - sym60).abs() < 1e-6,
        "optimal at the balanced point"
    );
    for d41 in [80.0, 90.0, 100.0] {
        let opt = tc(&paper::example1(d41));
        let sym = baseline::symmetric_clock(&paper::example1(d41))
            .expect("runs")
            .cycle_time();
        assert!(sym > opt + 1e-6, "suboptimal away from it (Δ41 = {d41})");
    }
}

#[test]
fn example2_nrip_like_gap_is_large() {
    // The paper reports +35 % for its Example 2; our documented stand-in
    // is tuned to the same ballpark.
    let circuit = paper::example2();
    let opt = tc(&circuit);
    let sym = baseline::symmetric_clock(&circuit)
        .expect("runs")
        .cycle_time();
    let gap = (sym / opt - 1.0) * 100.0;
    assert!((30.0..45.0).contains(&gap), "gap = {gap:.1}%");
}

#[test]
fn example2_has_multiple_critical_segments() {
    let circuit = paper::example2();
    let model = smo::timing::TimingModel::build(&circuit).expect("model");
    let report = smo::timing::critical_report(&circuit, &model).expect("report");
    assert!(report.edges.len() >= 2, "critical *segments*, not one path");
}

#[test]
fn gaas_matches_example3_observations() {
    let circuit = paper::gaas_mips();
    assert_eq!(circuit.num_syncs(), 18);
    assert_eq!(circuit.num_latches(), 15);
    assert_eq!(circuit.num_flip_flops(), 3);
    let sol = min_cycle_time(&circuit).expect("solves");
    // optimal Tc ≈ 4.4 ns, ~10 % above the 4-ns target
    assert!(
        (sol.cycle_time() - 4.4).abs() < 0.05,
        "Tc = {}",
        sol.cycle_time()
    );
    let over_target = (sol.cycle_time() / 4.0 - 1.0) * 100.0;
    assert!(
        (5.0..15.0).contains(&over_target),
        "{over_target:.1}% over target"
    );
    // K13 = K31 = 0
    let k = circuit.k_matrix();
    assert!(!k.get(0, 2) && !k.get(2, 0));
}

#[test]
fn gaas_phi3_can_be_fully_overlapped_by_phi1_at_no_cost() {
    use smo::lp::{LinExpr, Sense};
    use smo::timing::{solve_model, ConstraintOptions, TimingModel};
    let circuit = paper::gaas_mips();
    let tc_opt = tc(&circuit);
    let mut model = TimingModel::build_with(
        &circuit,
        &ConstraintOptions {
            fixed_cycle: Some(tc_opt),
            ..Default::default()
        },
    )
    .expect("model");
    let vars = model.vars().clone();
    let (p1, p3) = (PhaseId::from_number(1), PhaseId::from_number(3));
    let p = model.problem_mut();
    p.constrain(
        LinExpr::from(vars.start(p3)) - vars.start(p1) - vars.tc(),
        Sense::Ge,
        0.0,
    );
    p.constrain(
        LinExpr::from(vars.start(p3)) + vars.width(p3)
            - vars.start(p1)
            - vars.width(p1)
            - vars.tc(),
        Sense::Le,
        0.0,
    );
    let sol = solve_model(&circuit, &model).expect("overlap feasible at the optimal Tc");
    assert!((sol.cycle_time() - tc_opt).abs() < 1e-6);
}

#[test]
fn appendix_circuit_constraint_counts_and_bound() {
    let circuit = paper::appendix_fig1(10.0, 1.0, 2.0);
    let model = smo::timing::TimingModel::build(&circuit).expect("model");
    // C1: 8, C2: 3, C3: 9 pairs, L1: 11, L2R: 19 edges → 50 rows
    assert_eq!(model.num_constraints(), 50);
    // The rigorous form of the paper's §IV bound: at most 3k−1+k² clock
    // rows plus (F+1)·l latch rows. (The paper's nominal "4k + (F+1)l"
    // undercounts C3 when the K matrix is dense, as it is here: 9 pairs.)
    let k = circuit.num_phases();
    let bound = (3 * k - 1 + k * k) + (circuit.max_fanin() + 1) * circuit.num_syncs();
    assert!(model.num_constraints() <= bound);
    // and it solves with a verifiable schedule
    let sol = min_cycle_time(&circuit).expect("solves");
    assert!(verify(&circuit, sol.schedule()).is_feasible());
}

#[test]
fn table1_transistor_counts() {
    let sum: u32 = paper::GAAS_BLOCKS.iter().map(|b| b.transistors).sum();
    assert_eq!(sum, paper::GAAS_TOTAL_TRANSISTORS);
    assert_eq!(paper::GAAS_TOTAL_TRANSISTORS, 30_148);
    assert_eq!(paper::GAAS_BLOCKS.len(), 5);
}

#[test]
fn mlp_update_terminates_in_a_handful_of_sweeps_on_all_examples() {
    for circuit in [
        paper::example1(80.0),
        paper::example1(120.0),
        paper::example2(),
        paper::gaas_mips(),
        paper::appendix_fig1(10.0, 1.0, 2.0),
    ] {
        let sol = min_cycle_time(&circuit).expect("solves");
        assert!(
            sol.update_iterations() <= 8,
            "{} sweeps",
            sol.update_iterations()
        );
    }
}

#[test]
fn shipped_gaas_netlist_matches_the_library_model() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("circuits/gaas_mips.ckt"),
    )
    .expect("shipped netlist exists");
    let from_file = smo::circuit::netlist::parse(&src).expect("parses");
    assert_eq!(from_file, paper::gaas_mips());
}

#[test]
fn shipped_example_netlists_solve_to_paper_numbers() {
    let base = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, expect) in [
        ("circuits/example1.ckt", 110.0),
        ("circuits/example2.ckt", 31.0),
        ("circuits/gaas_mips.ckt", 4.4),
    ] {
        let src = std::fs::read_to_string(base.join(file)).expect("exists");
        let circuit = smo::circuit::netlist::parse(&src).expect("parses");
        let got = tc(&circuit);
        assert!((got - expect).abs() < 1e-6, "{file}: {got} vs {expect}");
    }
}

#[test]
fn prelude_exposes_the_core_workflow() {
    // compile-time check that the documented prelude surface is complete
    use smo::prelude::*;
    let mut b = CircuitBuilder::new(1);
    b.add_latch("a", PhaseId::from_number(1), 1.0, 1.0);
    let c: smo::circuit::Circuit = b.build().expect("builds");
    let sol: TimingSolution = min_cycle_time(&c).expect("solves");
    let sched: &ClockSchedule = sol.schedule();
    assert!(verify(&c, sched).is_feasible());
    let _unused: LatchId = LatchId::new(0);
    let _unused2: SyncKind = SyncKind::Latch;
    let _unused3: ClockSpec = ClockSpec::new(1);
}

#[test]
fn wrapped_phase_schedules_render_and_verify() {
    // φ2 wraps past the cycle end; rendering and analysis must both cope.
    let circuit = paper::example1(80.0);
    let sched = ClockSchedule::new(110.0, vec![0.0, 80.0], vec![60.0, 40.0]).expect("valid");
    let report = verify(&circuit, &sched);
    // wrapping makes φ2 overlap the next φ1 → the K21 nonoverlap row fails
    assert!(!report.is_feasible());
    let art = smo::timing::render_schedule(&sched);
    assert!(art.contains('█'));
}
