//! Quickstart: find the optimal cycle time of a small latch-controlled
//! circuit, inspect the schedule, and verify it.
//!
//! Run with `cargo run --example quickstart`.

use smo::prelude::*;
use smo::timing::render_solution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Example 1 (Fig. 5): four level-sensitive latches in a
    // loop under a two-phase clock. Setup and latch delays are 10 ns; the
    // combinational blocks are 20/20/60/80 ns.
    let p1 = PhaseId::from_number(1);
    let p2 = PhaseId::from_number(2);
    let mut builder = CircuitBuilder::new(2);
    let l1 = builder.add_latch("L1", p1, 10.0, 10.0);
    let l2 = builder.add_latch("L2", p2, 10.0, 10.0);
    let l3 = builder.add_latch("L3", p1, 10.0, 10.0);
    let l4 = builder.add_latch("L4", p2, 10.0, 10.0);
    builder.connect(l1, l2, 20.0);
    builder.connect(l2, l3, 20.0);
    builder.connect(l3, l4, 60.0);
    builder.connect(l4, l1, 80.0);
    let circuit = builder.build()?;

    // The design problem: minimum cycle time over all clock schedules
    // (Algorithm MLP — exact, not a heuristic).
    let solution = min_cycle_time(&circuit)?;
    println!("optimal cycle time: {:.1} ns", solution.cycle_time());
    println!("{}", render_solution(&circuit, &solution));

    // The analysis problem: check an arbitrary schedule.
    let report = verify(&circuit, solution.schedule());
    println!("optimal schedule feasible: {}", report.is_feasible());
    println!("worst setup slack: {:.3} ns", report.worst_slack());

    // A 5 % faster clock cannot work — and the report says why.
    let too_fast = solution.schedule().scaled(0.95);
    let report = verify(&circuit, &too_fast);
    println!("\nat 95% of the optimum:");
    for v in report.violations() {
        println!("  {}", v.describe(&circuit));
    }
    Ok(())
}
