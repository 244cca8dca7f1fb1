//! Fig. 1 + appendix: the 11-latch, four-phase circuit and its complete
//! constraint set "written down by inspection".
//!
//! Prints the `K` matrix (asserted equal to the appendix's), the nine
//! phase-shift operators, the generated constraint rows grouped by kind,
//! and the optimal cycle time for unit-style delays.

use smo_core::{min_cycle_time, ConstraintKind, TimingModel};
use smo_gen::paper::{appendix_fig1, APPENDIX_PHASE_PAIRS};

fn main() {
    smo_bench::header("Fig. 1 / appendix — 11 latches under a four-phase clock");
    let circuit = appendix_fig1(10.0, 1.0, 2.0);
    println!("{circuit}");

    println!("K matrix (compare appendix):");
    print!("{}", circuit.k_matrix());
    let expected = [[0, 0, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0]];
    let k = circuit.k_matrix();
    for (i, row) in expected.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(k.get(i, j), v == 1, "K[{}][{}]", i + 1, j + 1);
        }
    }
    println!("matches the appendix K matrix ✓");

    println!("\nphase-shift operators (S_ij = s_i − s_j − C_ij·Tc):");
    for &(i, j) in APPENDIX_PHASE_PAIRS {
        let crosses = i >= j;
        println!(
            "  S{i}{j} = s{i} − s{j}{}",
            if crosses { " − Tc" } else { "" }
        );
    }

    let model = TimingModel::build(&circuit).expect("model builds");
    println!("\ngenerated constraint rows by kind:");
    for kind in [
        ConstraintKind::PeriodicityWidth,
        ConstraintKind::PeriodicityStart,
        ConstraintKind::PhaseOrder,
        ConstraintKind::PhaseNonoverlap,
        ConstraintKind::Setup,
        ConstraintKind::Propagation,
    ] {
        let n = model
            .constraints()
            .iter()
            .filter(|c| c.kind() == kind)
            .count();
        println!("  {kind}: {n}");
    }
    println!("  total: {}", model.num_constraints());
    let k = circuit.num_phases();
    let nominal = 4 * k + (circuit.max_fanin() + 1) * circuit.num_syncs();
    let rigorous = (3 * k - 1 + k * k) + (circuit.max_fanin() + 1) * circuit.num_syncs();
    println!(
        "  paper's nominal bound 4k + (F+1)l = {nominal} (F = {}); rigorous \
         (3k−1+k²) + (F+1)l = {rigorous}",
        circuit.max_fanin()
    );

    let sol = smo_bench::timed("MLP", || min_cycle_time(&circuit).expect("solves"));
    println!(
        "\noptimal Tc = {:.3} for uniform block delay 10, setup 1, dq 2 \
         ({} update sweeps)",
        sol.cycle_time(),
        sol.update_iterations()
    );
    print!("{}", smo_core::render_schedule(sol.schedule()));
}
