//! A combined, human-readable timing report: schedule, per-latch timing,
//! slacks, critical segments and diagrams in one text block — the
//! "paper-style" printout produced by the 1990 implementation's output
//! routines.

use crate::analysis::{verify_with, AnalysisOptions};
use crate::critical::critical_report;
use crate::diagram::render_solution;
use crate::error::TimingError;
use crate::mlp::{solve_built, MlpOptions};
use crate::model::TimingModel;
use crate::solution::TimingSolution;
use smo_circuit::Circuit;
use std::fmt::Write as _;

/// Builds the full optimal-clocking report for a circuit: runs Algorithm
/// MLP, verifies the result, computes critical segments, and renders
/// everything as text.
///
/// # Errors
///
/// Propagates [`TimingError`] from the solve.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), smo_core::TimingError> {
/// # let circuit = {
/// #     let mut b = smo_circuit::CircuitBuilder::new(2);
/// #     let p = smo_circuit::PhaseId::from_number;
/// #     let a = b.add_latch("A", p(1), 1.0, 1.0);
/// #     let c = b.add_latch("B", p(2), 1.0, 1.0);
/// #     b.connect(a, c, 5.0);
/// #     b.connect(c, a, 5.0);
/// #     b.build().unwrap()
/// # };
/// let text = smo_core::timing_report(&circuit, &Default::default())?;
/// assert!(text.contains("optimal cycle time"));
/// # Ok(())
/// # }
/// ```
pub fn timing_report(circuit: &Circuit, options: &MlpOptions) -> Result<String, TimingError> {
    let model = TimingModel::build_with(circuit, &options.constraints)?;
    let solution = solve_built(circuit, &model, options)?;
    render_report(circuit, &model, options, &solution)
}

/// Renders the report for a solution of `model`, the model built from
/// `circuit` under `options`.
///
/// # Errors
///
/// Propagates solver failures from the critical-segment analysis.
pub fn render_report(
    circuit: &Circuit,
    model: &TimingModel,
    options: &MlpOptions,
    solution: &TimingSolution,
) -> Result<String, TimingError> {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "optimal cycle time: {:.4}", solution.cycle_time());
    let _ = writeln!(
        w,
        "({} constraints, {} simplex iterations, {} update sweeps)",
        solution.num_constraints(),
        solution.lp_iterations(),
        solution.update_iterations()
    );
    let _ = writeln!(w);
    let _ = write!(w, "{}", render_solution(circuit, solution));

    // per-latch slack table
    let analysis = verify_with(
        circuit,
        solution.schedule(),
        &AnalysisOptions {
            nonoverlap_scope: options.constraints.nonoverlap_scope,
            setup_margin: options.constraints.setup_margin,
            ..Default::default()
        },
    );
    let _ = writeln!(w, "\nper-synchronizer timing (relative to own phase):");
    let _ = writeln!(
        w,
        "  {:16} {:>4} {:>10} {:>10} {:>10}",
        "name", "φ", "arrival", "departure", "slack"
    );
    for (id, sync) in circuit.syncs() {
        let arr = analysis.arrivals()[id.index()];
        let _ = writeln!(
            w,
            "  {:16} {:>4} {:>10} {:>10.4} {:>10.4}{}",
            sync.name,
            sync.phase.number(),
            if arr.is_finite() {
                format!("{arr:.4}")
            } else {
                "-∞".to_string()
            },
            analysis.departures()[id.index()],
            analysis.setup_slack(id),
            if analysis.setup_slack(id).abs() < 1e-7 {
                "  ← critical"
            } else {
                ""
            }
        );
    }

    // critical segments
    let critical = critical_report(circuit, model)?;
    let _ = writeln!(w, "\ncritical combinational segments:");
    if critical.segments.is_empty() {
        let _ = writeln!(
            w,
            "  (none — the cycle time is set by setup/width/clock rows)"
        );
    }
    for (i, seg) in critical.segments.iter().enumerate() {
        let _ = write!(w, "  segment {i}: ");
        for (j, &eid) in seg.edges.iter().enumerate() {
            let e = circuit.edge(eid);
            if j == 0 {
                let _ = write!(w, "{}", circuit.sync(e.from).name);
            }
            let _ = write!(w, " →[{}] {}", e.max_delay, circuit.sync(e.to).name);
        }
        let _ = writeln!(w);
    }
    for ce in &critical.edges {
        let e = circuit.edge(ce.edge);
        let _ = writeln!(
            w,
            "    dTc/dΔ({} → {}) = {:.4}",
            circuit.sync(e.from).name,
            circuit.sync(e.to).name,
            ce.sensitivity
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    use smo_gen::paper::example1;

    #[test]
    fn report_contains_all_sections() {
        let text = timing_report(&example1(80.0), &MlpOptions::default()).unwrap();
        assert!(text.contains("optimal cycle time: 110"));
        assert!(text.contains("per-synchronizer timing"));
        assert!(text.contains("critical combinational segments"));
        assert!(text.contains("L4"));
        assert!(text.contains("dTc/dΔ"));
    }

    #[test]
    fn critical_marker_appears_for_zero_slack() {
        let text = timing_report(&example1(80.0), &MlpOptions::default()).unwrap();
        assert!(text.contains("← critical"));
    }

    #[test]
    fn report_without_critical_edges_says_so() {
        // single latch, no edges: cycle time set by setup width only
        let mut b = CircuitBuilder::new(1);
        b.add_latch("solo", PhaseId::from_number(1), 3.0, 4.0);
        let c = b.build().unwrap();
        let text = timing_report(&c, &MlpOptions::default()).unwrap();
        assert!(text.contains("(none"));
    }
}
