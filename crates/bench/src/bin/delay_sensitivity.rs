//! §VI, executed: "use parametric programming techniques to quantify the
//! notion of critical path segments and to study the effects on the optimal
//! cycle time of varying the circuit delays" — on the flagship GaAs MIPS
//! model.
//!
//! * `dT_c/dΔ` for every combinational path, from one solve (the
//!   sensitivity vector; zero everywhere except the critical loop);
//! * the exact piecewise-linear `T_c(Δ)` curve for the instruction-cache
//!   access time — "how fast do the SRAMs need to be?" — with breakpoints
//!   from a few critical-cycle solves, cross-checked against fresh solves.

use smo_core::{cycle_time_curve, delay_sensitivities, min_cycle_time, TimingModel};
use smo_gen::paper::gaas_mips;

fn main() {
    smo_bench::header("GaAs MIPS — delay sensitivities (dTc/dΔ per path)");
    let circuit = gaas_mips();
    let model = TimingModel::build(&circuit).expect("model");
    let sens = smo_bench::timed("sensitivity vector (one solve)", || {
        delay_sensitivities(&circuit, &model).expect("solves")
    });
    let mut nonzero = 0;
    for (i, s) in sens.iter().enumerate() {
        if *s > 1e-9 {
            let e = circuit.edge(smo_circuit::EdgeId::new(i));
            println!(
                "  {} → {} (Δ = {:.2} ns): dTc/dΔ = {:.3}",
                circuit.sync(e.from).name,
                circuit.sync(e.to).name,
                e.max_delay,
                s
            );
            nonzero += 1;
        }
    }
    println!(
        "{nonzero} of {} paths are critical; shaving anywhere else buys nothing",
        circuit.num_edges()
    );
    assert!(nonzero >= 1);

    smo_bench::header("GaAs MIPS — exact Tc(Δ_icache): how fast must the SRAMs be?");
    let icache = circuit
        .find("icache_addr")
        .and_then(|addr| {
            circuit
                .fanout(addr)
                .iter()
                .copied()
                .find(|&e| circuit.edge(e).to == circuit.find("instr").expect("instr exists"))
        })
        .expect("icache access edge exists");
    let base_tc = min_cycle_time(&circuit).expect("solves").cycle_time();
    let curve = smo_bench::timed("critical-cycle curve", || {
        cycle_time_curve(&circuit, &model, icache, 8.0).expect("curve")
    });
    for seg in &curve.segments {
        println!(
            "  Δ_icache ∈ [{:5.2}, {:5.2}] ns: Tc = {:.3} + {:.2}·(Δ − {:.2})",
            seg.lo, seg.hi, seg.tc_lo, seg.slope, seg.lo
        );
    }
    // Printed at the segments' precision: the crossing of two cycle lines
    // carries their rounding in its last bits.
    let bps: Vec<String> = curve
        .breakpoints()
        .iter()
        .map(|b| format!("{b:.2}"))
        .collect();
    println!("  breakpoints: [{}]", bps.join(", "));
    // cross-check against fresh solves at a few probes by rebuilding the
    // circuit with a modified cache delay
    for probe in [1.0, 3.15, 5.0, 7.5] {
        let mut b = smo_circuit::CircuitBuilder::new(circuit.num_phases());
        for (_, s) in circuit.syncs() {
            b.add_sync(s.clone());
        }
        for (i, e) in circuit.edges().iter().enumerate() {
            let d = if i == icache.index() {
                probe
            } else {
                e.max_delay
            };
            b.connect_min_max(e.from, e.to, e.min_delay.min(d), d);
        }
        let modified = b.build().expect("builds");
        let direct = min_cycle_time(&modified).expect("solves").cycle_time();
        let exact = curve.objective_at(probe).expect("in range");
        assert!(
            (direct - exact).abs() < 1e-6,
            "Δ = {probe}: curve {exact} vs direct {direct}"
        );
        println!("  probe Δ = {probe:.2}: Tc = {direct:.3} (exact curve agrees)");
    }
    println!(
        "\nat the shipped Δ_icache = 3.15 ns the cache is {} (base Tc = {base_tc:.2} ns)",
        if sens[icache.index()] > 1e-9 {
            "on the critical segment"
        } else {
            "NOT critical — the IMD loop sets the cycle time"
        }
    );
}
