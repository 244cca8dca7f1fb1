//! Figs. 10–11 + §V Example 3: optimal clock schedule for the GaAs MIPS
//! datapath model.
//!
//! The paper's observations, checked on our reconstructed model (DESIGN.md,
//! substitution 3):
//!
//! * 18 synchronizers (15 latches + 3 flip-flops), three-phase clock;
//! * the optimal cycle time (paper: 4.4 ns) is ~10 % above the 4-ns target;
//! * solver runtime is negligible (paper: "a few seconds" on a DECStation
//!   3100 with 91 constraints; our machine solves our 60-row model in well
//!   under a millisecond);
//! * φ3 (the register-file precharge) can be *completely overlapped* by φ1
//!   at no cycle-time cost, because `K13 = K31 = 0`.

use smo_circuit::PhaseId;
use smo_core::{
    min_cycle_time, render_schedule, solve_model, verify, ConstraintOptions, TimingModel,
};
use smo_gen::paper::{gaas_mips, GAAS_PAPER_OPTIMAL_NS, GAAS_TARGET_CYCLE_NS};
use smo_lp::{LinExpr, Sense};

fn main() {
    smo_bench::header("Figs. 10–11 — GaAs MIPS datapath optimal clock schedule");
    let circuit = gaas_mips();
    println!(
        "model: {} synchronizers ({} latches, {} flip-flops), {} edges, {} phases",
        circuit.num_syncs(),
        circuit.num_latches(),
        circuit.num_flip_flops(),
        circuit.num_edges(),
        circuit.num_phases()
    );
    assert_eq!(circuit.num_syncs(), 18);
    assert_eq!(circuit.num_latches(), 15);

    let sol = smo_bench::timed("MLP (model + solve)", || {
        min_cycle_time(&circuit).expect("solves")
    });
    let tc = sol.cycle_time();
    println!(
        "\noptimal Tc = {tc:.3} ns  (target {GAAS_TARGET_CYCLE_NS} ns, paper's model: \
         {GAAS_PAPER_OPTIMAL_NS} ns)"
    );
    println!(
        "Tc is {:+.1}% versus the 4-ns target (paper: +10%)",
        (tc / GAAS_TARGET_CYCLE_NS - 1.0) * 100.0
    );
    println!(
        "constraints: {} (paper's formulation: 91)",
        sol.num_constraints()
    );
    println!(
        "lp iterations: {}, update sweeps: {}",
        sol.lp_iterations(),
        sol.update_iterations()
    );
    print!("{}", render_schedule(sol.schedule()));
    assert!(verify(&circuit, sol.schedule()).is_feasible());
    assert!(
        (tc - GAAS_PAPER_OPTIMAL_NS).abs() < 0.05,
        "reconstruction should land near 4.4 ns, got {tc}"
    );

    // K13 = K31 = 0 — no direct paths between φ1 and φ3:
    let k = circuit.k_matrix();
    assert!(!k.get(0, 2) && !k.get(2, 0));
    println!("\nK matrix (K13 = K31 = 0, so φ1/φ3 may overlap):");
    print!("{k}");

    // φ3 completely overlapped by φ1 at no cycle-time cost: re-solve with
    // Tc fixed at the optimum and rows forcing φ3 inside (the next
    // occurrence of) φ1.
    smo_bench::header("Fig. 11 — schedule with φ3 completely overlapped by φ1");
    let mut model = TimingModel::build_with(
        &circuit,
        &ConstraintOptions {
            fixed_cycle: Some(tc),
            ..Default::default()
        },
    )
    .expect("model");
    let vars = model.vars().clone();
    let (p1, p3) = (PhaseId::from_number(1), PhaseId::from_number(3));
    {
        let p = model.problem_mut();
        // s3 ≥ s1 + Tc  and  s3 + T3 ≤ s1 + T1 + Tc
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
    }
    let overlapped = solve_model(&circuit, &model).expect("overlap is feasible at the optimal Tc");
    println!(
        "feasible at the unchanged optimum Tc = {:.3} ns:",
        overlapped.cycle_time()
    );
    print!("{}", render_schedule(overlapped.schedule()));
    let s = overlapped.schedule();
    let inside = s.start(p3) >= s.start(p1) + tc - 1e-9
        && s.end(p3) <= s.start(p1) + s.width(p1) + tc + 1e-9;
    assert!(inside, "φ3 must sit inside φ1 (mod Tc)");
    assert!((overlapped.cycle_time() - tc).abs() < 1e-6);
    println!(
        "φ3 = [{:.3}, {:.3}] mod Tc sits inside φ1 = [{:.3}, {:.3}] — \
         \"the timing model … is able to overlap clock phases if necessary\"",
        s.start(p3) - tc,
        s.end(p3) - tc,
        s.start(p1),
        s.end(p1)
    );

    // Per-synchronizer steady-state timing (the strip data of Fig. 11).
    println!("\nper-synchronizer steady state (times relative to own phase):");
    for (id, sync) in circuit.syncs() {
        println!(
            "  {:14} {:9} on {}: D = {:6.3}, A = {:6.3}",
            sync.name,
            sync.kind.to_string(),
            sync.phase,
            sol.departure(id),
            sol.arrival(id)
        );
    }
}
