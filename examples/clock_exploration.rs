//! Advanced clocking features: overlapped phases, the nonoverlap-scope
//! ablation for flip-flop-rich designs, and short-path (hold) analysis.
//!
//! Run with `cargo run --example clock_exploration`.

use smo::circuit::{CircuitBuilder, PhaseId, Synchronizer};
use smo::timing::{
    min_cycle_time_with, race_analysis_at, verify_with, AnalysisOptions, ConstraintOptions,
    MlpOptions, NonoverlapScope,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p1 = PhaseId::from_number(1);
    let p2 = PhaseId::from_number(2);

    // A design where a latch feeds a flip-flop: under the paper's strict
    // C3 (every I/O phase pair nonoverlapping) φ2 must close before φ1
    // opens; the LatchDestinations extension drops that requirement for
    // the FF-bound edge because the FF breaks the race itself.
    let build = || -> Result<smo::circuit::Circuit, smo::circuit::CircuitError> {
        let mut b = CircuitBuilder::new(2);
        let l = b.add_latch("stage", p1, 1.0, 2.0);
        let f = b.add_flip_flop("reg", p2, 1.0, 1.0);
        b.connect(l, f, 20.0);
        b.connect(f, l, 8.0);
        b.build()
    };

    for (label, scope) in [
        ("paper C3 (all pairs)", NonoverlapScope::AllPairs),
        (
            "extension (latch destinations)",
            NonoverlapScope::LatchDestinations,
        ),
    ] {
        let circuit = build()?;
        let opts = MlpOptions {
            constraints: ConstraintOptions {
                nonoverlap_scope: scope,
                ..Default::default()
            },
            ..Default::default()
        };
        let sol = min_cycle_time_with(&circuit, &opts)?;
        println!("{label:32}: Tc = {:.2}", sol.cycle_time());
        // the analysis must be run with the matching scope
        let report = verify_with(
            &circuit,
            sol.schedule(),
            &AnalysisOptions {
                nonoverlap_scope: scope,
                ..Default::default()
            },
        );
        assert!(report.is_feasible());
    }

    // Short-path (hold) analysis: a fast feedback path with a demanding
    // hold requirement.
    println!("\nhold analysis (extension):");
    let mut b = CircuitBuilder::new(1);
    let f1 = b.add_flip_flop("src", p1, 0.5, 0.5);
    let f2 = b.add_sync(Synchronizer::flip_flop("dst", p1, 0.5, 0.5).with_hold(2.0));
    b.connect_min_max(f1, f2, 0.8, 6.0);
    let circuit = b.build()?;
    let sol = min_cycle_time_with(&circuit, &MlpOptions::default())?;
    let report = race_analysis_at(&circuit, sol.schedule());
    println!(
        "Tc = {:.2}, race-free: {}",
        sol.cycle_time(),
        report.is_race_free()
    );
    for (i, m) in report.edge_slacks().iter().enumerate() {
        println!(
            "  edge #{i}: hold slack {m:+.2} {}",
            if *m < 0.0 {
                "← VIOLATED (add delay or reduce hold)"
            } else {
                ""
            }
        );
    }
    Ok(())
}
