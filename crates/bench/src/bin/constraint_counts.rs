//! §IV/§V scalar observations:
//!
//! * the number of constraints is bounded by `4k + (F+1)·l` and grows
//!   linearly in the number of latches `l`;
//! * the simplex "on average takes between n and 3n steps" — we report
//!   measured iteration counts against the row count `n`;
//! * the MLP update iteration "usually terminated in two to three
//!   iterations (in some cases no iterations were even necessary)".

use smo_core::{min_cycle_time_with, MlpOptions, TimingModel};
use smo_gen::random::{random_circuit, GenConfig};

fn main() {
    smo_bench::header("§IV — constraint counts, simplex steps, update sweeps");
    println!(
        "{}",
        smo_bench::row(
            &["l", "edges", "rows n", "bound", "lp iters", "iters/n", "sweeps"],
            &[6, 6, 8, 10, 9, 8, 7],
        )
    );
    let mut worst_ratio: f64 = 0.0;
    let mut worst_sweeps = 0usize;
    for (i, l) in [8usize, 16, 32, 64, 128, 256].iter().enumerate() {
        let cfg = GenConfig {
            phases: 2 + (i % 3),
            latches: *l,
            edges: l * 3 / 2,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, 1000 + i as u64);
        let model = TimingModel::build(&circuit).expect("model");
        let n = model.num_constraints();
        // rigorous form of the paper's bound: ≤ (3k−1+k²) clock rows plus
        // (F+1)·l latch rows (the nominal 4k undercounts dense K matrices)
        let k = circuit.num_phases();
        let bound = (3 * k - 1 + k * k) + (circuit.max_fanin() + 1) * circuit.num_syncs();
        assert!(n <= bound, "row count {n} exceeds the bound {bound}");
        let opts = MlpOptions {
            canonicalize: false, // count iterations of the single LP solve
            ..Default::default()
        };
        let sol = min_cycle_time_with(&circuit, &opts).expect("solves");
        let ratio = sol.lp_iterations() as f64 / n as f64;
        worst_ratio = worst_ratio.max(ratio);
        worst_sweeps = worst_sweeps.max(sol.update_iterations());
        println!(
            "{}",
            smo_bench::row(
                &[
                    &format!("{l}"),
                    &format!("{}", circuit.num_edges()),
                    &format!("{n}"),
                    &format!("{bound}"),
                    &format!("{}", sol.lp_iterations()),
                    &format!("{ratio:.2}"),
                    &format!("{}", sol.update_iterations()),
                ],
                &[6, 6, 8, 10, 9, 8, 7],
            )
        );
    }
    println!(
        "\nworst iters/n = {worst_ratio:.2} (paper: simplex averages n..3n steps)\n\
         worst update sweeps = {worst_sweeps} (paper: two to three, sometimes zero;\n\
         one sweep is always spent detecting the fixpoint)"
    );
}
