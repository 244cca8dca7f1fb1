//! The behavioural simulator and the analytical verifier must agree — on
//! steady-state timing, on feasibility, and on *why* a schedule fails.

use smo::gen::paper;
use smo::gen::random::{random_circuit, GenConfig};
use smo::prelude::*;
use smo::sim::{simulate, SimOptions, SimViolation};
use smo::timing::{race_analysis_at, Violation};

fn schedules_for(circuit: &smo::circuit::Circuit) -> Vec<ClockSchedule> {
    let opt = min_cycle_time(circuit).expect("solves");
    let mut out = vec![opt.schedule().clone()];
    // a relaxed schedule, a shrunk one, and symmetric shapes
    out.push(opt.schedule().scaled(1.25));
    out.push(opt.schedule().scaled(0.9));
    let k = circuit.num_phases();
    for f in [0.8, 1.0, 1.3] {
        if let Ok(s) = ClockSchedule::symmetric(k, opt.cycle_time() * f, 0.0) {
            out.push(s);
        }
    }
    out
}

#[test]
fn simulator_and_verifier_agree_on_paper_circuits() {
    for circuit in [
        paper::example1(80.0),
        paper::example1(120.0),
        paper::example2(),
        paper::gaas_mips(),
        paper::appendix_fig1(10.0, 1.0, 2.0),
    ] {
        for sched in schedules_for(&circuit) {
            compare(&circuit, &sched);
        }
    }
}

#[test]
fn simulator_and_verifier_agree_on_random_circuits() {
    for seed in 0..10u64 {
        let circuit = random_circuit(
            &GenConfig {
                phases: 2 + (seed as usize % 3),
                latches: 8 + seed as usize,
                edges: 14 + 2 * seed as usize,
                flip_flop_prob: if seed % 2 == 0 { 0.0 } else { 0.25 },
                ..Default::default()
            },
            seed,
        );
        for sched in schedules_for(&circuit) {
            compare(&circuit, &sched);
        }
    }
}

/// Core comparison: run both tools on the same (circuit, schedule).
fn compare(circuit: &smo::circuit::Circuit, sched: &ClockSchedule) {
    let report = verify(circuit, sched);
    // Skip clock-constraint failures: the simulator assumes a plausible
    // schedule and checks data timing only.
    if report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::Clock { .. }))
    {
        return;
    }
    let trace = simulate(
        circuit,
        sched,
        &SimOptions {
            max_waves: 4 * circuit.num_syncs() + 16,
            ..Default::default()
        },
    );
    let analysis_loop = report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::PositiveLoop { .. }));
    if analysis_loop {
        // divergence: the simulator must fail to converge
        assert!(
            !trace.converged(),
            "analysis diagnosed a positive loop but the simulation settled"
        );
        return;
    }
    assert!(
        trace.converged(),
        "analysis converged but simulation did not"
    );
    // identical steady-state departures
    for (i, (s, a)) in trace
        .steady_departures()
        .iter()
        .zip(report.departures())
        .enumerate()
    {
        assert!((s - a).abs() < 1e-6, "latch {i}: sim {s} vs analysis {a}");
    }
    // identical feasibility verdicts
    let sim_ok = trace.setup_violations().is_empty();
    assert_eq!(
        report.is_feasible(),
        sim_ok,
        "feasibility mismatch: analysis {:?} vs sim {:?}",
        report.violations(),
        trace.violations()
    );
    // and identical culprits: every statically-violating latch also misses
    // setup dynamically in the final wave
    for v in report.violations() {
        if let Violation::Setup { latch, .. } = v {
            assert!(
                trace
                    .violations()
                    .iter()
                    .any(|sv| matches!(sv, SimViolation::Setup { latch: l, .. } if l == latch)),
                "latch {latch} flagged statically but not dynamically"
            );
        }
    }
}

#[test]
fn hold_checks_agree_between_static_and_dynamic() {
    use smo::circuit::{CircuitBuilder, Synchronizer};
    let p1 = PhaseId::from_number(1);
    for min_delay in [0.2, 0.5, 0.9, 1.5, 3.0] {
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("src", p1, 0.3, 0.4);
        let f2 = b.add_sync(Synchronizer::flip_flop("dst", p1, 0.3, 0.4).with_hold(1.2));
        b.connect_min_max(f1, f2, min_delay, 6.0);
        let circuit = b.build().expect("builds");
        let sched = ClockSchedule::new(10.0, vec![0.0], vec![4.0]).expect("valid");
        let static_ok = race_analysis_at(&circuit, &sched).is_race_free();
        let trace = simulate(
            &circuit,
            &sched,
            &SimOptions {
                check_hold: true,
                ..Default::default()
            },
        );
        let dynamic_ok = trace.hold_violations().is_empty();
        assert_eq!(
            static_ok, dynamic_ok,
            "min_delay = {min_delay}: static {static_ok} vs dynamic {dynamic_ok}"
        );
        // the decision flips exactly at dq + δ = hold → δ = 0.8
        assert_eq!(static_ok, min_delay + 0.4 >= 1.2 - 1e-9);
    }
}

#[test]
fn simulation_reaches_steady_state_quickly_on_feasible_schedules() {
    for circuit in [paper::example1(80.0), paper::gaas_mips()] {
        let sol = min_cycle_time(&circuit).expect("solves");
        let trace = simulate(&circuit, sol.schedule(), &SimOptions::default());
        let at = trace.converged_at().expect("converges");
        assert!(
            at <= circuit.num_syncs() + 1,
            "convergence within l+1 waves, got {at}"
        );
    }
}

#[test]
fn unmeasured_short_path_is_raceless_in_both_checks() {
    use smo::circuit::{CircuitBuilder, Synchronizer};
    // `connect` declares no contamination delay: both checks take the max
    // delay as the short path, so the same-phase FF→FF pair cannot race.
    let p1 = PhaseId::from_number(1);
    let mut b = CircuitBuilder::new(1);
    let f1 = b.add_flip_flop("F1", p1, 1.0, 0.1);
    let f2 = b.add_sync(Synchronizer::flip_flop("F2", p1, 1.0, 0.2).with_hold(1.0));
    b.connect(f1, f2, 5.0);
    let circuit = b.build().expect("builds");
    let sched = ClockSchedule::new(10.0, vec![0.0], vec![5.0]).expect("valid");
    assert!(race_analysis_at(&circuit, &sched).is_race_free());
    let trace = simulate(
        &circuit,
        &sched,
        &SimOptions {
            check_hold: true,
            ..Default::default()
        },
    );
    assert!(
        trace.hold_violations().is_empty(),
        "{:?}",
        trace.hold_violations()
    );
}

#[test]
fn early_mode_analysis_matches_simulated_early_changes() {
    use smo::circuit::{CircuitBuilder, Synchronizer};
    // Mixed FF/latch chain with real contamination delays.
    let p1 = PhaseId::from_number(1);
    let p2 = PhaseId::from_number(2);
    let mut b = CircuitBuilder::new(2);
    let f = b.add_flip_flop("F", p1, 0.5, 0.5);
    let a = b.add_sync(Synchronizer::latch("A", p2, 0.5, 0.5));
    let d = b.add_sync(Synchronizer::latch("D", p1, 0.5, 0.5).with_hold(1.0));
    b.connect_min_max(f, a, 10.5, 11.0);
    b.connect_min_max(a, d, 0.5, 3.0);
    b.connect_min_max(d, f, 1.0, 4.0);
    let circuit = b.build().expect("builds");
    let sol = min_cycle_time(&circuit).expect("solves");
    // widen the schedule so steady state is comfortably reached
    let sched = sol.schedule().scaled(1.2);

    // analytical early changes
    let report = race_analysis_at(&circuit, &sched);
    assert!(report.early_converged());

    // simulated early changes (last wave)
    let trace = simulate(
        &circuit,
        &sched,
        &SimOptions {
            check_hold: true,
            ..Default::default()
        },
    );
    assert!(trace.converged());
    let last = trace.waves() - 1;
    for (i, &e) in report.early_changes().iter().enumerate() {
        let sim = trace.early_change(last, smo::circuit::LatchId::new(i));
        assert!(
            (sim - e).abs() < 1e-9 || (sim.is_infinite() && e.is_infinite()),
            "latch {i}: sim {sim} vs analytic {e}"
        );
    }

    // and the hold verdicts agree between the static and dynamic checks
    assert_eq!(report.is_race_free(), trace.hold_violations().is_empty());
}
