//! Scale-aware numerical tolerances.
//!
//! Every feasibility or agreement decision in this crate compares a
//! residual against `rel · (1 + scale)` where `scale` is the magnitude of
//! the quantities that produced the residual — never against a raw
//! absolute epsilon. A 1 ns slack on a 1 s cycle time and a 1 fs slack on
//! a 1 ps cycle time are then judged identically, which is what makes the
//! certificates of [`crate::verify`] meaningful on badly-scaled models
//! (mixed ps/ns delay units and the like).
//!
//! Two named tolerances cover the crate:
//!
//! * [`Tol::FEAS`] (`1e-7` relative) — feasibility decisions: constraint
//!   violations, bound violations, dual sign checks, Farkas certificates.
//! * [`Tol::TIGHT`] (`1e-9` relative) — agreement decisions: objective
//!   cross-checks, support detection in multiplier vectors.

/// A relative tolerance, applied as `rel · (1 + |scale|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tol {
    rel: f64,
}

impl Tol {
    /// Feasibility tolerance (`1e-7` relative): constraint and bound
    /// violations, dual sign conventions, certificate residuals.
    pub const FEAS: Tol = Tol::new(1e-7);

    /// Agreement tolerance (`1e-9` relative): equality of two computed
    /// values (objectives, slopes) and support detection.
    pub const TIGHT: Tol = Tol::new(1e-9);

    /// A custom relative tolerance.
    ///
    /// `rel` must be positive and finite (checked in debug builds).
    pub const fn new(rel: f64) -> Self {
        Tol { rel }
    }

    /// The raw relative factor.
    pub fn rel(self) -> f64 {
        self.rel
    }

    /// The absolute slack this tolerance grants at magnitude `scale`:
    /// `rel · (1 + |scale|)`.
    pub fn abs_for(self, scale: f64) -> f64 {
        self.rel * (1.0 + scale.abs())
    }

    /// Is `x` zero up to this tolerance at magnitude `scale`?
    pub fn is_zero(self, x: f64, scale: f64) -> bool {
        x.abs() <= self.abs_for(scale)
    }

    /// Is `a ≤ b` up to this tolerance, scaled by the larger magnitude?
    pub fn le(self, a: f64, b: f64) -> bool {
        self.le_scaled(a, b, a.abs().max(b.abs()))
    }

    /// Is `a ≤ b` up to this tolerance at an explicit magnitude `scale`?
    ///
    /// Use the explicit form when the comparands are small only through
    /// cancellation of large intermediates (e.g. an aggregated constraint
    /// activity): pass the cancellation scale, not the net value.
    pub fn le_scaled(self, a: f64, b: f64, scale: f64) -> bool {
        a <= b + self.abs_for(scale)
    }

    /// Is `a ≥ b` up to this tolerance, scaled by the larger magnitude?
    pub fn ge(self, a: f64, b: f64) -> bool {
        self.le(b, a)
    }

    /// Are `a` and `b` equal up to this tolerance, scaled by the larger
    /// magnitude?
    pub fn eq(self, a: f64, b: f64) -> bool {
        self.is_zero(a - b, a.abs().max(b.abs()))
    }

    /// The violation of `a ≤ b`, as a residual *relative* to `scale`:
    /// `max(0, a − b) / (1 + |scale|)`. Zero when satisfied; directly
    /// comparable against [`Tol::rel`].
    pub fn violation(self, a: f64, b: f64, scale: f64) -> f64 {
        (a - b).max(0.0) / (1.0 + scale.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_awareness() {
        // A 1e-5 residual is fatal at scale 1 but invisible at scale 1e9.
        assert!(!Tol::FEAS.is_zero(1e-5, 1.0));
        assert!(Tol::FEAS.is_zero(1e-5, 1e9));
        // Symmetric in sign.
        assert!(Tol::FEAS.is_zero(-1e-5, 1e9));
    }

    #[test]
    fn comparisons() {
        assert!(Tol::FEAS.le(1.0, 1.0));
        assert!(Tol::FEAS.le(1.0 + 1e-9, 1.0));
        assert!(!Tol::FEAS.le(1.0 + 1e-3, 1.0));
        assert!(Tol::FEAS.ge(1.0, 1.0 + 1e-9));
        assert!(Tol::TIGHT.eq(110.0, 110.0 + 1e-8));
        assert!(!Tol::TIGHT.eq(110.0, 110.0 + 1e-5));
    }

    #[test]
    fn relative_violation() {
        assert_eq!(Tol::FEAS.violation(1.0, 2.0, 1.0), 0.0);
        let v = Tol::FEAS.violation(2.0, 1.0, 0.0);
        assert!((v - 1.0).abs() < 1e-15);
        // Same absolute violation shrinks relatively at large scale.
        assert!(Tol::FEAS.violation(1e9 + 1.0, 1e9, 1e9) < 1e-8);
    }

    #[test]
    fn named_tolerances_order() {
        assert!(Tol::TIGHT.rel() < Tol::FEAS.rel());
        assert_eq!(Tol::FEAS.abs_for(0.0), Tol::FEAS.rel());
    }
}
