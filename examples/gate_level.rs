//! Gate-level entry: describe a design as gates and wires, let the front
//! end compute the latch-to-latch delays (the decomposition the paper
//! assumes has already happened), then optimize the clock.
//!
//! Run with `cargo run --example gate_level`.

use smo::circuit::netlist;
use smo::timing::{min_cycle_time, race_analysis_at, render_solution, verify};

const GATE_NETLIST: &str = "\
# A tiny two-phase ALU bypass loop, gate by gate.
clock 2
latch opnd   phase=1 setup=0.4 dq=0.6
latch result phase=2 setup=0.4 dq=0.6 hold=0.8
gate  dec    min=0.5 max=1.1
gate  add    min=1.8 max=4.2
gate  mux    min=0.3 max=0.9
gate  fwd    min=0.6 max=1.4
wire  opnd dec
wire  dec add
wire  add mux
wire  opnd mux      # bypass: a fast path into the same mux
wire  mux result
wire  result fwd
wire  fwd opnd
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = netlist::parse_gates(GATE_NETLIST)?;
    println!("extracted latch graph:\n{circuit}");
    for e in circuit.edges() {
        println!(
            "  {} → {}: Δ = {} (longest gate path), δ = {} (shortest)",
            circuit.sync(e.from).name,
            circuit.sync(e.to).name,
            e.max_delay,
            e.min_delay
        );
    }

    let solution = min_cycle_time(&circuit)?;
    println!("\noptimal Tc = {:.2}", solution.cycle_time());
    print!("{}", render_solution(&circuit, &solution));

    // The bypass wire makes opnd→result fast (δ = 0.3 + mux min): check the
    // hold requirement on `result` with the early-mode race analysis.
    let report = verify(&circuit, solution.schedule());
    println!("setup feasible: {}", report.is_feasible());
    let races = race_analysis_at(&circuit, solution.schedule());
    for (e, m) in circuit.edges().iter().zip(races.edge_slacks()) {
        println!(
            "hold slack {} → {}: {m:+.2}",
            circuit.sync(e.from).name,
            circuit.sync(e.to).name
        );
    }
    Ok(())
}
