//! The paper's flagship application (Example 3): optimal clocking of the
//! 250-MHz GaAs MIPS datapath model, cross-validated with the behavioural
//! simulator.
//!
//! Run with `cargo run --example gaas_datapath`.

use smo::gen::paper::{gaas_mips, GAAS_TARGET_CYCLE_NS};
use smo::sim::{simulate, SimOptions};
use smo::timing::{min_cycle_time, render_schedule, verify};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = gaas_mips();
    println!(
        "GaAs MIPS timing model: {} synchronizers, {} combinational paths",
        circuit.num_syncs(),
        circuit.num_edges()
    );

    let solution = min_cycle_time(&circuit)?;
    println!(
        "optimal Tc = {:.2} ns → {:.0} MHz (target {:.0} MHz)",
        solution.cycle_time(),
        1000.0 / solution.cycle_time(),
        1000.0 / GAAS_TARGET_CYCLE_NS
    );
    print!("{}", render_schedule(solution.schedule()));

    // Static verification…
    let report = verify(&circuit, solution.schedule());
    println!("static analysis feasible: {}", report.is_feasible());

    // …and dynamic confirmation: simulate 32 clock cycles and compare the
    // simulated steady-state departures against the analytical ones.
    let trace = simulate(&circuit, solution.schedule(), &SimOptions::default());
    println!(
        "simulation: {} waves, converged at wave {:?}, {} violations",
        trace.waves(),
        trace.converged_at(),
        trace.violations().len()
    );
    let sim = trace.steady_departures();
    let max_diff = sim
        .iter()
        .zip(solution.departures())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max)
        .max(0.0);
    println!("max |simulated − analytical| departure: {max_diff:.2e} ns");
    assert!(max_diff < 1e-9, "simulator must agree with the analysis");

    // What would the target 4 ns need? Ask the analysis which constraints
    // break.
    let squeezed = solution
        .schedule()
        .scaled(GAAS_TARGET_CYCLE_NS / solution.cycle_time());
    let report = verify(&circuit, &squeezed);
    println!("\nat the 4-ns target (same schedule shape):");
    for v in report.violations().iter().take(5) {
        println!("  {}", v.describe(&circuit));
    }
    Ok(())
}
