//! The result of an optimal cycle-time calculation.

use crate::fastpath::Backend;
use smo_circuit::{ClockSchedule, LatchId};
use std::fmt;

/// An optimal clock schedule plus the steady-state signal timing that
/// realizes it — the output of [`min_cycle_time`](crate::min_cycle_time).
///
/// All per-latch times follow the paper's convention: they are *relative to
/// the beginning of the latch's controlling phase* `p_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSolution {
    pub(crate) schedule: ClockSchedule,
    pub(crate) departures: Vec<f64>,
    pub(crate) arrivals: Vec<f64>,
    /// Upward sweeps taken by the MLP departure slide (step 2).
    pub(crate) update_iterations: usize,
    /// Simplex iterations taken by the LP solve (step 1).
    pub(crate) lp_iterations: usize,
    /// Number of constraint rows in the LP (the paper reports 91 for the
    /// GaAs example).
    pub(crate) num_constraints: usize,
    /// Independent KKT certificates of the optimum (empty when
    /// certification was disabled).
    pub(crate) certificates: Vec<smo_lp::Certificate>,
    /// The solver that produced this solution: [`Backend::Graph`] or
    /// [`Backend::Lp`].
    pub(crate) backend: Backend,
    /// On the graph path, the critical cycle's duals that prove `T_c*`
    /// (`dT_c*/db` per row): the report reads its critical segments off
    /// them. `None` on the LP path.
    pub(crate) critical_duals: Option<Vec<(smo_lp::ConstraintId, f64)>>,
}

impl TimingSolution {
    /// The optimal cycle time `T_c`.
    pub fn cycle_time(&self) -> f64 {
        self.schedule.cycle()
    }

    /// The optimal clock schedule.
    pub fn schedule(&self) -> &ClockSchedule {
        &self.schedule
    }

    /// Departure time `D_i` of a synchronizer, relative to the start of its
    /// phase.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn departure(&self, id: LatchId) -> f64 {
        self.departures[id.index()]
    }

    /// All departure times, indexed by synchronizer index.
    pub fn departures(&self) -> &[f64] {
        &self.departures
    }

    /// Arrival time `A_i` of the latest valid input signal, relative to the
    /// start of the synchronizer's phase (`−∞` for elements without
    /// fan-in). Can be negative: the signal arrived before the phase opened.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn arrival(&self, id: LatchId) -> f64 {
        self.arrivals[id.index()]
    }

    /// All arrival times, indexed by synchronizer index.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Upward sweeps taken by the departure slide (MLP step 2), at most
    /// `L + 1`; the last sweep only confirms the fixpoint. The linear-time
    /// peel that precedes the sweeps is not counted. (The paper's Jacobi
    /// update "usually terminated in two to three iterations".)
    pub fn update_iterations(&self) -> usize {
        self.update_iterations
    }

    /// Simplex iterations of the LP solve.
    pub fn lp_iterations(&self) -> usize {
        self.lp_iterations
    }

    /// Number of constraint rows in the generated LP.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Independent KKT certificates ([`smo_lp::certify_kkt`]) of the
    /// optimum: on the simplex path one per LP solved on the way to this
    /// solution (two with canonicalization, one without), on the graph
    /// path one for the graph's point and the duals of its critical cycle.
    /// Empty when certification was disabled via
    /// [`MlpOptions::certify`](crate::MlpOptions).
    pub fn certificates(&self) -> &[smo_lp::Certificate] {
        &self.certificates
    }

    /// The solver that produced this solution: [`Backend::Graph`] for the
    /// difference-constraint fast path, [`Backend::Lp`] for the simplex
    /// (never [`Backend::Auto`], which only routes between the two).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `true` when every solver verdict behind this solution was
    /// independently machine-checked: at least one certificate present
    /// and all of them valid.
    pub fn certified(&self) -> bool {
        !self.certificates.is_empty() && self.certificates.iter().all(|c| c.is_valid())
    }

    /// Absolute departure instant within the cycle: `s_{p_i} + D_i`, for
    /// plotting (the paper's Fig. 6 strips are in absolute time).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `phase` lookup fails.
    pub fn absolute_departure(&self, id: LatchId, phase: smo_circuit::PhaseId) -> f64 {
        self.schedule.start(phase) + self.departure(id)
    }
}

impl fmt::Display for TimingSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "optimal Tc = {:.4}", self.cycle_time())?;
        if self.certified() {
            write!(f, " [certified]")?;
        }
        writeln!(
            f,
            "  ({} constraints, {} lp iterations, {} update sweeps)",
            self.num_constraints, self.lp_iterations, self.update_iterations
        )?;
        write!(f, "{}", self.schedule)?;
        for (i, (&d, &a)) in self.departures.iter().zip(&self.arrivals).enumerate() {
            writeln!(f, "L{}: departs {:.4}, arrival {:.4}", i + 1, d, a)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> TimingSolution {
        TimingSolution {
            schedule: ClockSchedule::symmetric(2, 100.0, 0.0).unwrap(),
            departures: vec![40.0, 20.0],
            arrivals: vec![40.0, -3.0],
            update_iterations: 2,
            lp_iterations: 9,
            num_constraints: 15,
            certificates: Vec::new(),
            backend: Backend::Lp,
            critical_duals: None,
        }
    }

    #[test]
    fn accessors_index_by_latch() {
        let s = dummy();
        assert_eq!(s.cycle_time(), 100.0);
        assert_eq!(s.departure(LatchId::new(1)), 20.0);
        assert_eq!(s.arrival(LatchId::new(1)), -3.0);
        assert_eq!(
            s.absolute_departure(LatchId::new(1), smo_circuit::PhaseId::new(1)),
            70.0
        );
    }

    #[test]
    fn display_reports_counts() {
        let text = dummy().to_string();
        assert!(text.contains("Tc = 100"));
        assert!(text.contains("15 constraints"));
        assert!(text.contains("2 update sweeps"));
    }
}
