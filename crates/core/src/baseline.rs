//! Baseline cycle-time algorithms the paper compares against.
//!
//! The paper's evaluation pits Algorithm MLP against the NRIP heuristic of
//! Dagenais & Rumin \[3\] (Figs. 7 and 9) and motivates the whole work against
//! the classical edge-triggered approximation (§I). NRIP's internals are in
//! the cited reference, not the paper, so this module provides three
//! documented stand-ins (see DESIGN.md, substitution 1):
//!
//! * [`edge_triggered`] — every synchronizer treated as an edge-triggered
//!   flip-flop sampling at its enabling edge: no transparency, no borrowing.
//!   This is the approximation §I criticises ("they may not produce the
//!   minimum cycle time").
//! * [`symmetric_clock`] — the best *evenly spaced, equal-width* clock. It
//!   reproduces NRIP's observable behaviour in the paper: implicit minimum
//!   phase width/separation constraints, optimal exactly when the loop's
//!   cycles are balanced (Δ41 = 60 ns in Example 1), suboptimal elsewhere.
//! * [`single_borrow`] — a Jouppi-style single borrowing iteration (§II):
//!   first solve with every latch departure pinned to its enabling edge
//!   (zero borrowing), then release only the latches on binding propagation
//!   constraints and solve once more.
//!
//! All three return schedules that are *feasible for the original latch
//! circuit* (each adds constraints to P2, never removes any), so their cycle
//! times are upper bounds on the MLP optimum.

use crate::error::TimingError;
use crate::mlp::{min_cycle_time_with, MlpOptions};
use crate::model::{ConstraintKind, ConstraintOptions, DeparturePinning, TimingModel};
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, SyncKind};

/// A labelled baseline result.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Human-readable algorithm name.
    pub name: &'static str,
    /// The schedule and timing the baseline produced (feasible for the
    /// original circuit).
    pub solution: TimingSolution,
}

impl Baseline {
    /// The baseline's cycle time.
    pub fn cycle_time(&self) -> f64 {
        self.solution.cycle_time()
    }
}

/// Edge-triggered approximation: all synchronizers sample at their enabling
/// edge (`D_i = 0`), with phase widths still wide enough for latch setup.
///
/// # Errors
///
/// Propagates LP failures; infeasibility cannot arise for a valid circuit.
pub fn edge_triggered(circuit: &Circuit) -> Result<Baseline, TimingError> {
    // Pinning departures (rather than literally swapping latches for FFs)
    // keeps the latch setup rows D_i + Δ_DC ≤ T_p, so the resulting schedule
    // stays feasible for the real latch circuit.
    let options = MlpOptions {
        constraints: ConstraintOptions {
            pinning: DeparturePinning::All,
            ..Default::default()
        },
        ..Default::default()
    };
    let solution = min_cycle_time_with(circuit, &options)?;
    Ok(Baseline {
        name: "edge-triggered (no borrowing)",
        solution,
    })
}

/// Best evenly spaced, equal-width clock (NRIP-like; see module docs).
///
/// # Errors
///
/// Propagates LP failures.
pub fn symmetric_clock(circuit: &Circuit) -> Result<Baseline, TimingError> {
    let options = MlpOptions {
        constraints: ConstraintOptions {
            symmetric_clock: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let solution = min_cycle_time_with(circuit, &options)?;
    Ok(Baseline {
        name: "symmetric clock (NRIP-like)",
        solution,
    })
}

/// Jouppi-style single borrowing iteration (see module docs).
///
/// # Errors
///
/// Propagates LP failures.
pub fn single_borrow(circuit: &Circuit) -> Result<Baseline, TimingError> {
    // Pass 1: zero borrowing.
    let pinned = ConstraintOptions {
        pinning: DeparturePinning::All,
        ..Default::default()
    };
    let model = TimingModel::build_with(circuit, &pinned)?;
    let lp = model.solve_lp()?;

    // Latches on binding propagation rows get to borrow in pass 2.
    const TOL: f64 = 1e-7;
    let mut free = Vec::new();
    for info in model.constraints() {
        if info.kind() == ConstraintKind::Propagation
            && lp.slack(info.row()).abs() < TOL
            && lp.dual(info.row()).abs() > TOL
        {
            if let Some(latch) = info.latch() {
                if circuit.sync(latch).kind == SyncKind::Latch && !free.contains(&latch) {
                    free.push(latch);
                }
            }
        }
    }

    let options = MlpOptions {
        constraints: ConstraintOptions {
            pinning: DeparturePinning::AllExcept(free),
            ..Default::default()
        },
        ..Default::default()
    };
    let solution = min_cycle_time_with(circuit, &options)?;
    Ok(Baseline {
        name: "single borrowing iteration (Jouppi-style)",
        solution,
    })
}

/// Runs all three baselines.
///
/// # Errors
///
/// Propagates the first baseline failure.
pub fn all_baselines(circuit: &Circuit) -> Result<Vec<Baseline>, TimingError> {
    Ok(vec![
        edge_triggered(circuit)?,
        single_borrow(circuit)?,
        symmetric_clock(circuit)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::verify;
    use crate::min_cycle_time;
    use smo_gen::paper::example1;

    #[test]
    fn baselines_never_beat_mlp() {
        for d41 in [0.0, 40.0, 60.0, 80.0, 120.0] {
            let c = example1(d41);
            let optimal = min_cycle_time(&c).unwrap().cycle_time();
            for b in all_baselines(&c).unwrap() {
                assert!(
                    b.cycle_time() >= optimal - 1e-6,
                    "Δ41 = {d41}: {} found {} < optimal {optimal}",
                    b.name,
                    b.cycle_time()
                );
            }
        }
    }

    #[test]
    fn baseline_schedules_are_feasible_for_the_real_circuit() {
        for d41 in [40.0, 80.0, 120.0] {
            let c = example1(d41);
            for b in all_baselines(&c).unwrap() {
                let report = verify(&c, b.solution.schedule());
                assert!(
                    report.is_feasible(),
                    "Δ41 = {d41}: {} schedule infeasible: {:?}",
                    b.name,
                    report.violations()
                );
            }
        }
    }

    #[test]
    fn symmetric_matches_optimum_at_balanced_point() {
        // The §V observation about NRIP: optimal at Δ41 = 60, suboptimal
        // elsewhere.
        let c = example1(60.0);
        let sym = symmetric_clock(&c).unwrap();
        let optimal = min_cycle_time(&c).unwrap().cycle_time();
        assert!((sym.cycle_time() - optimal).abs() < 1e-6);

        let c = example1(80.0);
        let sym = symmetric_clock(&c).unwrap();
        let optimal = min_cycle_time(&c).unwrap().cycle_time();
        assert!(sym.cycle_time() > optimal + 1e-6);
    }

    #[test]
    fn single_borrow_improves_on_edge_triggered() {
        let c = example1(80.0);
        let et = edge_triggered(&c).unwrap();
        let sb = single_borrow(&c).unwrap();
        assert!(
            sb.cycle_time() <= et.cycle_time() + 1e-9,
            "single-borrow {} vs edge-triggered {}",
            sb.cycle_time(),
            et.cycle_time()
        );
    }

    #[test]
    fn edge_triggered_keeps_latch_setup_width() {
        let c = example1(80.0);
        let et = edge_triggered(&c).unwrap();
        for (_, s) in c.syncs() {
            assert!(et.solution.schedule().width(s.phase) >= s.setup - 1e-9);
        }
    }
}
