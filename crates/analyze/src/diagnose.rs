//! "Why is there no feasible schedule?" — the diagnosis entry point.
//!
//! Thin orchestration over [`smo_core::diagnose_model`]: build the timing
//! model (optionally with a cycle-time cap), then either report the
//! optimum or explain the conflict, from one solve.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_circuit::Circuit;
use smo_core::{diagnose_model, ConstraintOptions, Diagnosis, TimingError, TimingModel};

/// Diagnoses `circuit`, optionally capped at a target cycle time.
///
/// With `cycle_time = None` the plain SMO model is solved (always
/// feasible for a valid circuit, so this reports the optimum `T_c`).
/// With `Some(t)` an upper bound `T_c ≤ t` is added — the "can I clock
/// this at `t`?" question — and an infeasible answer comes back with the
/// full conflict report. Other [`ConstraintOptions`] go through
/// [`diagnose_model`] on a model built with them.
///
/// # Errors
///
/// Propagates model-building and solver errors; an unbounded LP maps to
/// [`TimingError::Unbounded`].
pub fn diagnose(circuit: &Circuit, cycle_time: Option<f64>) -> Result<Diagnosis, TimingError> {
    let options = ConstraintOptions {
        max_cycle: cycle_time,
        ..Default::default()
    };
    diagnose_model(circuit, &TimingModel::build_with(circuit, &options)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};
    use smo_core::ConstraintKind;

    /// The paper's Example 1 (Fig. 5) at Δ41 = 80 ns; optimum Tc = 110.
    fn example1() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let p1 = PhaseId::from_number(1);
        let p2 = PhaseId::from_number(2);
        let l1 = b.add_latch("L1", p1, 10.0, 10.0);
        let l2 = b.add_latch("L2", p2, 10.0, 10.0);
        let l3 = b.add_latch("L3", p1, 10.0, 10.0);
        let l4 = b.add_latch("L4", p2, 10.0, 10.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l3, 20.0);
        b.connect(l3, l4, 60.0);
        b.connect(l4, l1, 80.0);
        b.build().unwrap()
    }

    #[test]
    fn uncapped_example1_reports_the_paper_optimum() {
        let d = diagnose(&example1(), None).unwrap();
        match d {
            Diagnosis::Feasible { min_cycle } => assert!((min_cycle - 110.0).abs() < 1e-6),
            Diagnosis::Infeasible(_) => panic!("plain SMO model must be feasible"),
        }
        assert!(d.to_json().contains("\"feasible\": true"));
    }

    #[test]
    fn achievable_cap_stays_feasible() {
        let d = diagnose(&example1(), Some(120.0)).unwrap();
        assert!(d.is_feasible());
    }

    #[test]
    fn impossible_cap_names_the_conflict() {
        let d = diagnose(&example1(), Some(100.0)).unwrap();
        let report = d.report().expect("Tc ≤ 100 < 110 is infeasible");
        assert!(report.certified);
        assert!(report.involves(ConstraintKind::CycleBound));
        let text = d.to_string();
        assert!(text.contains("no feasible clock schedule at cycle time 100"));
        assert!(d.to_json().contains("\"feasible\": false"));
    }
}
