//! k-phase clock specification, concrete schedules, and the phase-shift
//! operator.

use crate::error::CircuitError;
use crate::ids::PhaseId;
use crate::matrix::BoolMatrix;
use std::fmt;

/// Specification of an arbitrary k-phase clock (§III-A).
///
/// A clock is a collection of `k` periodic phases with a common period `T_c`.
/// The *specification* fixes only `k` (and thereby the phase-ordering matrix
/// `C`, eq. 1); the start times `s_i`, widths `T_i` and period are decision
/// variables of the design problem and live in a [`ClockSchedule`] once
/// chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockSpec {
    phases: usize,
}

impl ClockSpec {
    /// A clock with `phases ≥ 1` phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is zero.
    pub fn new(phases: usize) -> Self {
        assert!(phases >= 1, "a clock needs at least one phase");
        ClockSpec { phases }
    }

    /// Number of phases `k`.
    pub fn num_phases(&self) -> usize {
        self.phases
    }

    /// Iterates over the phase ids `φ1 … φk`.
    pub fn phases(&self) -> impl Iterator<Item = PhaseId> {
        (0..self.phases).map(PhaseId::new)
    }

    /// The phase-ordering flag `C_ij` (eq. 1): `false` for `i < j`, `true`
    /// for `i ≥ j` — i.e. whether going from `φ_i` to `φ_j` crosses a clock
    /// cycle boundary.
    pub fn c_flag(i: PhaseId, j: PhaseId) -> bool {
        i.index() >= j.index()
    }

    /// The full `C` matrix (eq. 1).
    pub fn c_matrix(&self) -> BoolMatrix {
        let mut m = BoolMatrix::new(self.phases);
        for i in 0..self.phases {
            for j in 0..self.phases {
                m.set(i, j, Self::c_flag(PhaseId::new(i), PhaseId::new(j)));
            }
        }
        m
    }
}

/// A concrete clock schedule: period `T_c`, per-phase start times `s_i` and
/// active-interval widths `T_i` (Fig. 2).
///
/// All phases are active high; phase `i` is enabled on
/// `[s_i, s_i + T_i) mod T_c`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSchedule {
    cycle: f64,
    starts: Vec<f64>,
    widths: Vec<f64>,
}

impl ClockSchedule {
    /// Creates a schedule from raw values. `starts` and `widths` must have
    /// the same length (the number of phases).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSchedule`] when the clock constraints
    /// C1/C2/C4 of the paper are violated: lengths mismatch, non-finite or
    /// negative values, `s_i > T_c` or `T_i > T_c` (periodicity, eqs. 3–4),
    /// or phases out of order (`s_i > s_{i+1}`, eq. 5). Phase *nonoverlap*
    /// (C3, eq. 6) depends on the circuit's `K` matrix and is checked by the
    /// timing engine, not here.
    pub fn new(cycle: f64, starts: Vec<f64>, widths: Vec<f64>) -> Result<Self, CircuitError> {
        let s = ClockSchedule {
            cycle,
            starts,
            widths,
        };
        s.validate()?;
        Ok(s)
    }

    /// An evenly spaced schedule: `s_i = (i−1)·T_c/k`, `T_i = T_c/k − gap`.
    ///
    /// With `gap = 0` the phases tile the cycle edge-to-edge; a positive
    /// `gap` leaves dead time between consecutive phases (classic
    /// non-overlapping two-phase clocking, Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSchedule`] if `gap` is negative, not
    /// finite, or at least `T_c/k`.
    pub fn symmetric(k: usize, cycle: f64, gap: f64) -> Result<Self, CircuitError> {
        if gap.is_nan() || gap < 0.0 || gap >= cycle / k as f64 {
            return Err(CircuitError::InvalidSchedule {
                reason: format!(
                    "symmetric gap {gap} must lie in [0, Tc/k = {})",
                    cycle / k as f64
                ),
            });
        }
        let starts = (0..k).map(|i| i as f64 * cycle / k as f64).collect();
        let widths = vec![cycle / k as f64 - gap; k];
        ClockSchedule::new(cycle, starts, widths)
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.starts.len()
    }

    /// The period `T_c`.
    pub fn cycle(&self) -> f64 {
        self.cycle
    }

    /// Start time `s_i` of a phase, relative to the beginning of the common
    /// clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn start(&self, phase: PhaseId) -> f64 {
        self.starts[phase.index()]
    }

    /// Active-interval width `T_i` of a phase.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn width(&self, phase: PhaseId) -> f64 {
        self.widths[phase.index()]
    }

    /// End of the active interval, `s_i + T_i` (may exceed `T_c`, meaning
    /// the phase wraps into the next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn end(&self, phase: PhaseId) -> f64 {
        self.start(phase) + self.width(phase)
    }

    /// The phase-shift operator `S_ij` (eq. 12):
    /// `S_ij = s_i − s_j − C_ij·T_c`.
    ///
    /// Adding `S_{p_j p_i}` to a time referenced to the start of `φ_{p_j}`
    /// re-references it to the start of `φ_{p_i}` of the *next* occurrence
    /// (crossing the cycle boundary exactly when `C` says so). `from` is the
    /// source phase (first subscript), `to` the destination.
    ///
    /// # Panics
    ///
    /// Panics if either phase is out of range.
    pub fn shift(&self, from: PhaseId, to: PhaseId) -> f64 {
        let c = if ClockSpec::c_flag(from, to) {
            self.cycle
        } else {
            0.0
        };
        self.start(from) - self.start(to) - c
    }

    /// Do the active intervals of two distinct phases overlap in time
    /// (considering periodic wrap-around)?
    ///
    /// # Panics
    ///
    /// Panics if either phase is out of range.
    pub fn overlaps(&self, a: PhaseId, b: PhaseId) -> bool {
        if a == b {
            return self.width(a) > 0.0;
        }
        // Compare the two active intervals on a double cycle to handle wrap.
        let ivs = |p: PhaseId| {
            let s = self.start(p).rem_euclid(self.cycle.max(f64::MIN_POSITIVE));
            let w = self.width(p);
            [(s, s + w), (s + self.cycle, s + w + self.cycle)]
        };
        for (s1, e1) in ivs(a) {
            for (s2, e2) in ivs(b) {
                if s1 < e2 && s2 < e1 {
                    return true;
                }
            }
        }
        false
    }

    /// Checks the schedule-only clock constraints (see [`ClockSchedule::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSchedule`] with a human-readable reason.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let bad = |reason: String| Err(CircuitError::InvalidSchedule { reason });
        if self.starts.len() != self.widths.len() {
            return bad(format!(
                "{} start times but {} widths",
                self.starts.len(),
                self.widths.len()
            ));
        }
        if self.starts.is_empty() {
            return bad("schedule has no phases".into());
        }
        if !self.cycle.is_finite() || self.cycle < 0.0 {
            return bad(format!(
                "cycle time {} is not finite and non-negative",
                self.cycle
            ));
        }
        for (i, (&s, &w)) in self.starts.iter().zip(&self.widths).enumerate() {
            let p = PhaseId::new(i);
            if !s.is_finite() || s < 0.0 {
                return bad(format!("start of {p} is {s}"));
            }
            if !w.is_finite() || w < 0.0 {
                return bad(format!("width of {p} is {w}"));
            }
            if s > self.cycle + 1e-9 {
                return bad(format!(
                    "start of {p} ({s}) exceeds the cycle time {}",
                    self.cycle
                ));
            }
            if w > self.cycle + 1e-9 {
                return bad(format!(
                    "width of {p} ({w}) exceeds the cycle time {}",
                    self.cycle
                ));
            }
        }
        for i in 1..self.starts.len() {
            if self.starts[i] + 1e-9 < self.starts[i - 1] {
                return bad(format!(
                    "phases out of order: s{} = {} < s{} = {}",
                    i + 1,
                    self.starts[i],
                    i,
                    self.starts[i - 1]
                ));
            }
        }
        Ok(())
    }

    /// Returns a copy of this schedule with every time scaled by `factor`
    /// (useful for unit conversions and property tests).
    pub fn scaled(&self, factor: f64) -> ClockSchedule {
        ClockSchedule {
            cycle: self.cycle * factor,
            starts: self.starts.iter().map(|s| s * factor).collect(),
            widths: self.widths.iter().map(|w| w * factor).collect(),
        }
    }
}

impl fmt::Display for ClockSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tc = {:.4}", self.cycle)?;
        for i in 0..self.num_phases() {
            let p = PhaseId::new(i);
            writeln!(
                f,
                "{p}: start {:.4}, width {:.4}, end {:.4}",
                self.start(p),
                self.width(p),
                self.end(p)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    #[test]
    fn c_matrix_is_lower_triangular_inclusive() {
        let spec = ClockSpec::new(3);
        let c = spec.c_matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), i >= j);
            }
        }
    }

    #[test]
    fn shift_matches_paper_appendix() {
        // Four-phase clock; check all nine operators listed in the appendix.
        let sched = ClockSchedule::new(
            100.0,
            vec![0.0, 20.0, 45.0, 70.0],
            vec![15.0, 20.0, 20.0, 25.0],
        )
        .unwrap();
        let s = |i: usize| sched.start(p(i));
        let tc = sched.cycle();
        assert_eq!(sched.shift(p(1), p(3)), s(1) - s(3)); // S13
        assert_eq!(sched.shift(p(1), p(4)), s(1) - s(4)); // S14
        assert_eq!(sched.shift(p(2), p(1)), s(2) - s(1) - tc); // S21
        assert_eq!(sched.shift(p(2), p(3)), s(2) - s(3)); // S23
        assert_eq!(sched.shift(p(2), p(4)), s(2) - s(4)); // S24
        assert_eq!(sched.shift(p(3), p(1)), s(3) - s(1) - tc); // S31
        assert_eq!(sched.shift(p(3), p(2)), s(3) - s(2) - tc); // S32
        assert_eq!(sched.shift(p(4), p(2)), s(4) - s(2) - tc); // S42
        assert_eq!(sched.shift(p(4), p(3)), s(4) - s(3) - tc); // S43
    }

    #[test]
    fn symmetric_two_phase_tiles_the_cycle() {
        let sched = ClockSchedule::symmetric(2, 100.0, 0.0).unwrap();
        assert_eq!(sched.start(p(1)), 0.0);
        assert_eq!(sched.start(p(2)), 50.0);
        assert_eq!(sched.width(p(1)), 50.0);
        assert_eq!(sched.end(p(2)), 100.0);
        assert!(!sched.overlaps(p(1), p(2)));
    }

    #[test]
    fn symmetric_rejects_bad_gap() {
        assert!(ClockSchedule::symmetric(2, 100.0, -1.0).is_err());
        assert!(ClockSchedule::symmetric(2, 100.0, 50.0).is_err());
        assert!(ClockSchedule::symmetric(2, 100.0, f64::NAN).is_err());
    }

    #[test]
    fn validate_rejects_out_of_order_phases() {
        let r = ClockSchedule::new(10.0, vec![5.0, 1.0], vec![1.0, 1.0]);
        assert!(matches!(r, Err(CircuitError::InvalidSchedule { .. })));
    }

    #[test]
    fn validate_rejects_width_exceeding_cycle() {
        let r = ClockSchedule::new(10.0, vec![0.0], vec![11.0]);
        assert!(r.is_err());
    }

    #[test]
    fn overlap_detects_containment_and_wrap() {
        // φ3 completely inside φ1 (the GaAs example's precharge overlap).
        let sched = ClockSchedule::new(10.0, vec![0.0, 3.0, 5.0], vec![9.0, 1.0, 2.0]).unwrap();
        assert!(sched.overlaps(p(1), p(3)));
        assert!(!sched.overlaps(p(2), p(3)));
        // wrap-around: a phase ending past Tc overlaps the next cycle's φ1.
        let wrap = ClockSchedule::new(10.0, vec![0.0, 8.0], vec![3.0, 4.0]).unwrap();
        assert!(wrap.overlaps(p(2), p(1)));
    }

    #[test]
    fn zero_width_phase_never_overlaps() {
        let sched = ClockSchedule::new(10.0, vec![0.0, 0.0], vec![0.0, 5.0]).unwrap();
        assert!(!sched.overlaps(p(1), p(2)));
        assert!(!sched.overlaps(p(1), p(1)));
    }

    #[test]
    fn scaled_preserves_shape() {
        let sched = ClockSchedule::symmetric(3, 30.0, 1.0).unwrap();
        let big = sched.scaled(2.0);
        assert_eq!(big.cycle(), 60.0);
        assert_eq!(big.start(p(2)), 20.0);
        assert_eq!(big.width(p(1)), 18.0);
    }

    #[test]
    fn display_lists_each_phase() {
        let sched = ClockSchedule::symmetric(2, 100.0, 10.0).unwrap();
        let s = sched.to_string();
        assert!(s.contains("Tc = 100"));
        assert!(s.contains("φ2"));
    }
}
