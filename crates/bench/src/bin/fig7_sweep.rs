//! Fig. 7: optimal cycle time `T_c` versus `Δ41` for Example 1 — MLP against
//! the heuristic baselines — plus the *exact* piecewise-linear curve that
//! the paper's §VI future-work direction asks parametric programming for.
//!
//! The paper's observations, all checked here:
//!
//! * three segments: `T_c` flat for `Δ41 ≤ 20`, slope ½ for
//!   `20 ≤ Δ41 ≤ 100` ("the added delay is shared between the two clock
//!   cycles"), slope 1 beyond 100;
//! * `T_c* = max(average loop delay, difference of the two cycle delays)`;
//! * the NRIP-like baseline coincides with the optimum only at the balanced
//!   point `Δ41 = 60` and is suboptimal elsewhere.

use smo_core::baseline;
use smo_core::{cycle_time_curve, min_cycle_time, solve_model, PropagationSystem, TimingModel};
use smo_gen::paper::{example1, EXAMPLE1_DELTA41_EDGE};

fn main() {
    smo_bench::header("Fig. 7 — Tc versus Δ41 for Example 1");

    println!(
        "{}",
        smo_bench::row(
            &[
                "Δ41",
                "MLP (opt)",
                "closed form",
                "edge-trig",
                "1-borrow",
                "symmetric"
            ],
            &[6, 10, 12, 10, 10, 10],
        )
    );
    let closed_form = |d41: f64| ((140.0 + d41) / 2.0).max(d41 + 20.0).max(80.0);
    let mut d41 = 0.0;
    while d41 <= 140.0 {
        let circuit = example1(d41);
        let opt = min_cycle_time(&circuit).expect("solves").cycle_time();
        let cf = closed_form(d41);
        assert!((opt - cf).abs() < 1e-6, "closed form mismatch at {d41}");
        let et = baseline::edge_triggered(&circuit).expect("et").cycle_time();
        let sb = baseline::single_borrow(&circuit).expect("sb").cycle_time();
        let sym = baseline::symmetric_clock(&circuit)
            .expect("sym")
            .cycle_time();
        println!(
            "{}",
            smo_bench::row(
                &[
                    &format!("{d41:.0}"),
                    &format!("{opt:.2}"),
                    &format!("{cf:.2}"),
                    &format!("{et:.2}"),
                    &format!("{sb:.2}"),
                    &format!("{sym:.2}"),
                ],
                &[6, 10, 12, 10, 10, 10],
            )
        );
        d41 += 10.0;
    }

    // NRIP-like optimal only at the balanced point:
    let bal = example1(60.0);
    let sym60 = baseline::symmetric_clock(&bal).expect("sym").cycle_time();
    let opt60 = min_cycle_time(&bal).expect("opt").cycle_time();
    assert!((sym60 - opt60).abs() < 1e-6);
    println!("\nNRIP-like = optimal at Δ41 = 60 (both {opt60:.1} ns) ✓");

    // Exact breakpoints: Tc*(Δ41) is the maximum of the critical-cycle
    // lines in Δ41, so a few min-ratio solves, each giving the critical
    // cycle's line, pin it down (Eisner–Severance: 2k + 1 solves for k
    // breakpoints).
    smo_bench::header("Fig. 7 (exact) — critical-cycle curve of Δ41");
    let circuit = example1(0.0);
    let model = TimingModel::build(&circuit).expect("model");
    let curve = smo_bench::timed("critical-cycle curve", || {
        cycle_time_curve(
            &circuit,
            &model,
            smo_circuit::EdgeId::new(EXAMPLE1_DELTA41_EDGE),
            140.0,
        )
        .expect("curve solves")
    });
    for seg in &curve.segments {
        println!(
            "  Δ41 ∈ [{:6.2}, {:6.2}]: Tc = {:.2} + {:.2}·(Δ41 − {:.2})",
            seg.lo, seg.hi, seg.tc_lo, seg.slope, seg.lo
        );
    }
    let bps = curve.breakpoints();
    println!("  breakpoints: {bps:?} (paper: 20 and 100)");
    assert_eq!(bps.len(), 2, "expected exactly two breakpoints");
    assert!((bps[0] - 20.0).abs() < 1e-6);
    assert!((bps[1] - 100.0).abs() < 1e-6);
    let slopes: Vec<f64> = curve.segments.iter().map(|s| s.slope).collect();
    println!("  slopes: {slopes:?} (paper: 0, ½, 1)");
    for (got, want) in slopes.iter().zip([0.0, 0.5, 1.0]) {
        assert!((got - want).abs() < 1e-6);
    }

    // Cross-check the curve against fresh solves.
    for d41 in [5.0, 20.0, 33.0, 60.0, 100.0, 137.0] {
        let direct = min_cycle_time(&example1(d41)).expect("solves").cycle_time();
        let exact = curve.objective_at(d41).expect("in range");
        assert!(
            (direct - exact).abs() < 1e-6,
            "Δ41 = {d41}: curve {exact} vs direct {direct}"
        );
    }
    println!("  exact curve matches direct solves at 6 probe points ✓");

    // The paper's Jacobi update against the shipped slide from the same
    // LP point D⁰ (the §IV ablation): both must land on the same fixpoint.
    let circuit = example1(90.0);
    let model = TimingModel::build(&circuit).expect("model");
    let sol = solve_model(&circuit, &model).expect("solves");
    let d0 = model.extract_departures(&model.solve_lp().expect("optimal"));
    let jacobi = PropagationSystem::new(&circuit, sol.schedule()).jacobi(&d0, usize::MAX);
    println!(
        "  Tc = {:.2}: Jacobi {} sweeps, shipped slide {} sweeps",
        sol.cycle_time(),
        jacobi.iterations,
        sol.update_iterations()
    );
    for (a, b) in jacobi.departures.iter().zip(sol.departures()) {
        assert!((a - b).abs() < 1e-9, "Jacobi {a} vs slide {b}");
    }
}
