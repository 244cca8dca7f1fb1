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
    /// Sweeps taken by the MLP departure-update iteration (steps 3–5).
    pub(crate) update_iterations: usize,
    /// Simplex iterations taken by the LP solve (step 1).
    pub(crate) lp_iterations: usize,
    /// Number of constraint rows in the LP (the paper reports 91 for the
    /// GaAs example).
    pub(crate) num_constraints: usize,
    /// Independent optimality certificates for each LP solved on the way
    /// to this solution (empty when certification was disabled).
    pub(crate) certificates: Vec<smo_lp::Certificate>,
    /// Independent optimality certificate from the difference-constraint
    /// graph solver, when the fast path produced this solution (`None` on
    /// the simplex path).
    pub(crate) graph_certificate: Option<crate::fastpath::GraphCertificate>,
    /// The solver that produced this solution: [`Backend::Graph`] or
    /// [`Backend::Lp`].
    pub(crate) backend: Backend,
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

    /// Sweeps taken by the departure-update iteration (the paper reports
    /// "two to three iterations" typically; zero means the LP point already
    /// satisfied the nonlinear constraints).
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

    /// Independent optimality certificates, one per LP solved on the way
    /// to this solution (two with canonicalization, one without; empty
    /// when certification was disabled via
    /// [`MlpOptions::certify`](crate::MlpOptions)).
    pub fn certificates(&self) -> &[smo_lp::Certificate] {
        &self.certificates
    }

    /// The graph solver's optimality certificate, when the
    /// difference-constraint fast path produced this solution (`None` on
    /// the simplex path; see
    /// [`GraphCertificate`](crate::fastpath::GraphCertificate)).
    pub fn graph_certificate(&self) -> Option<&crate::fastpath::GraphCertificate> {
        self.graph_certificate.as_ref()
    }

    /// The solver that produced this solution: [`Backend::Graph`] for the
    /// difference-constraint fast path, [`Backend::Lp`] for the simplex
    /// (never [`Backend::Auto`], which only routes between the two).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `true` when every solver verdict behind this solution was
    /// independently machine-checked: at least one certificate present
    /// (KKT certificates on the simplex path, a
    /// [`GraphCertificate`](crate::fastpath::GraphCertificate) on the
    /// graph fast path) and all of them valid.
    pub fn certified(&self) -> bool {
        let any = !self.certificates.is_empty() || self.graph_certificate.is_some();
        any && self.certificates.iter().all(|c| c.is_valid())
            && self.graph_certificate.iter().all(|c| c.is_valid())
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
            graph_certificate: None,
            backend: Backend::Lp,
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
