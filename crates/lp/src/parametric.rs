//! Parametric right-hand-side analysis (Gass–Saaty procedure).
//!
//! The SMO paper closes (§VI) by proposing "parametric programming techniques
//! to quantify the notion of critical path segments and to study the effects
//! on the optimal cycle time of varying the circuit delays". This module
//! implements exactly that for a scalar parameter `θ` perturbing constraint
//! right-hand sides:
//!
//! > given `b(θ) = b + θ·d`, compute the optimal objective `z*(θ)` as an
//! > exact piecewise-linear function of `θ ∈ [0, θ_max]`.
//!
//! Because a combinational delay `Δ_ji` enters the relaxed propagation
//! constraint (L2R, eq. 19) only through the right-hand side, this yields the
//! exact `T_c(Δ)` curve of Fig. 7 — breakpoints included — from a single
//! solve plus a handful of dual-simplex pivots, instead of a dense sweep.
//!
//! The procedure: solve at `θ = 0`; while the optimal basis stays primal
//! feasible the objective is linear in `θ` with slope `y·d` (`y` = duals);
//! when a basic variable is driven to zero, perform a dual simplex pivot and
//! continue with the next basis.

use crate::error::LpError;
use crate::expr::VarId;
use crate::problem::{ConstraintId, Problem};
use crate::simplex::{self, ColKind};
use crate::EPS;
use serde::{Deserialize, Serialize};

/// One linear piece of a [`ParametricCurve`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParametricSegment {
    /// Segment start (inclusive).
    pub theta_lo: f64,
    /// Segment end (inclusive).
    pub theta_hi: f64,
    /// Optimal objective at `theta_lo`.
    pub objective_lo: f64,
    /// `d z*(θ) / d θ` on this segment.
    pub slope: f64,
}

impl ParametricSegment {
    /// Objective value at `theta` (which should lie within the segment;
    /// extrapolates linearly otherwise).
    pub fn objective_at(&self, theta: f64) -> f64 {
        self.objective_lo + (theta - self.theta_lo) * self.slope
    }
}

/// Exact piecewise-linear optimal objective `z*(θ)` over `θ ∈ [0, θ_max]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParametricCurve {
    /// Consecutive linear pieces covering `[0, feasible end]`.
    pub segments: Vec<ParametricSegment>,
    /// If `Some(θ̄)`, the curve ends at `θ̄` because the model stops having
    /// a finite optimum beyond it: *infeasible* for RHS ranging
    /// ([`parametric_rhs`]), *unbounded below* for objective ranging
    /// ([`parametric_objective`]).
    pub infeasible_beyond: Option<f64>,
}

impl ParametricCurve {
    /// Optimal objective at `theta`, or `None` if `theta` lies outside the
    /// analysed/feasible range.
    pub fn objective_at(&self, theta: f64) -> Option<f64> {
        self.segments
            .iter()
            .find(|s| theta >= s.theta_lo - EPS && theta <= s.theta_hi + EPS)
            .map(|s| s.objective_at(theta))
    }

    /// The interior breakpoints (where the slope changes), deduplicated.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for w in self.segments.windows(2) {
            // a breakpoint is only "real" if the slope actually changes
            let scale = w[0].slope.abs().max(w[1].slope.abs());
            if (w[0].slope - w[1].slope).abs() > crate::tol::Tol::FEAS.abs_for(scale) {
                out.push(w[0].theta_hi);
            }
        }
        out
    }

    /// End of the analysed range.
    pub fn theta_end(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.theta_hi)
    }
}

/// Computes the exact optimal-objective curve of `p` as the right-hand sides
/// of `directions` are perturbed by `θ · coefficient`, for `θ ∈ [0, theta_max]`.
///
/// Coalesces repeated constraint ids by summing their coefficients.
///
/// # Errors
///
/// Returns an error if `p` is invalid, not optimal at `θ = 0`
/// ([`LpError::NotOptimal`]), or the pivot safeguard trips.
///
/// # Examples
///
/// ```
/// use smo_lp::{parametric_rhs, Problem, Sense};
/// # fn main() -> Result<(), smo_lp::LpError> {
/// // minimize x subject to x >= 1 + θ
/// let mut p = Problem::new();
/// let x = p.add_var("x");
/// let c = p.constrain(x.into(), Sense::Ge, 1.0);
/// p.minimize(x.into());
/// let curve = parametric_rhs(&p, &[(c, 1.0)], 10.0)?;
/// assert_eq!(curve.segments.len(), 1);
/// assert!((curve.objective_at(4.0).unwrap() - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn parametric_rhs(
    p: &Problem,
    directions: &[(ConstraintId, f64)],
    theta_max: f64,
) -> Result<ParametricCurve, LpError> {
    p.validate()?;
    if !theta_max.is_finite() || theta_max < 0.0 {
        return Err(LpError::NonFiniteInput {
            context: "parametric theta_max".into(),
        });
    }
    let mut d = vec![0.0; p.num_constraints()];
    for &(c, coeff) in directions {
        if !coeff.is_finite() {
            return Err(LpError::NonFiniteInput {
                context: "parametric direction coefficient".into(),
            });
        }
        d[c.index()] += coeff;
    }

    let (solution, tableau) =
        simplex::solve_with_tableau(p, Some(&d), crate::SolveBudget::UNLIMITED)?;
    let mut t = tableau.ok_or(LpError::NotOptimal {
        status: solution.status(),
    })?;
    let mut objective = solution.objective().ok_or(LpError::NotOptimal {
        status: solution.status(),
    })?;

    let mut segments = Vec::new();
    let mut infeasible_beyond = None;
    let mut theta = 0.0_f64;
    let pivot_limit = 10_000 + 100 * (t.rows() + t.ncols);
    let mut pivots = 0usize;

    loop {
        // Objective slope for the current basis (user orientation).
        let slope_min: f64 = (0..t.rows())
            .map(|r| t.costs[t.basis[r]] * t.param(r))
            .sum();
        let slope = t.sense_factor * slope_min;

        // How far can θ grow before a basic variable goes negative?
        let mut theta_hi = f64::INFINITY;
        let mut leaving: Option<usize> = None;
        for r in 0..t.rows() {
            let dp = t.param(r);
            if dp < -EPS {
                let limit = (t.rhs(r) / -dp).max(theta);
                if limit < theta_hi - EPS
                    || (limit < theta_hi + EPS && leaving.is_some_and(|l| t.basis[r] < t.basis[l]))
                {
                    theta_hi = limit;
                    leaving = Some(r);
                }
            }
        }

        if theta_hi >= theta_max - EPS {
            segments.push(ParametricSegment {
                theta_lo: theta,
                theta_hi: theta_max,
                objective_lo: objective,
                slope,
            });
            break;
        }

        let Some(r) = leaving else {
            // A finite theta_hi implies some row produced it; reaching here
            // means the ratio scan saw NaN, which only non-finite data can
            // cause.
            return Err(LpError::Numerical {
                context: "parametric rhs: no leaving row for finite theta".into(),
            });
        };
        segments.push(ParametricSegment {
            theta_lo: theta,
            theta_hi,
            objective_lo: objective,
            slope,
        });
        objective += (theta_hi - theta) * slope;
        theta = theta_hi;

        // Dual simplex pivot: entering column minimizes |z_j / a_rj| over
        // eligible columns with negative row entry.
        let mut enter: Option<usize> = None;
        let mut best = f64::INFINITY;
        for j in 0..t.ncols {
            if matches!(t.col_kinds[j], ColKind::Artificial { .. }) {
                continue;
            }
            let a = t.tab[r][j];
            if a < -EPS {
                let ratio = t.z[j] / -a;
                if ratio < best - EPS || (ratio < best + EPS && enter.is_none_or(|e| j < e)) {
                    best = ratio;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else {
            // No entering column: the model is infeasible past this θ.
            infeasible_beyond = Some(theta);
            break;
        };
        t.pivot(r, j);
        pivots += 1;
        if pivots > pivot_limit {
            return Err(LpError::IterationLimit { limit: pivot_limit });
        }
    }

    Ok(ParametricCurve {
        segments: coalesce(segments),
        infeasible_beyond,
    })
}

/// Merges consecutive segments with equal slope and drops zero-length ones
/// (degenerate basis changes produce both).
fn coalesce(segments: Vec<ParametricSegment>) -> Vec<ParametricSegment> {
    let mut out: Vec<ParametricSegment> = Vec::with_capacity(segments.len());
    for seg in segments {
        if seg.theta_hi - seg.theta_lo <= EPS && !out.is_empty() {
            continue;
        }
        match out.last_mut() {
            Some(last)
                if crate::tol::Tol::TIGHT.eq(last.slope, seg.slope)
                    || last.theta_hi - last.theta_lo <= EPS =>
            {
                if last.theta_hi - last.theta_lo <= EPS {
                    // replace the degenerate leading piece
                    *last = seg;
                } else {
                    last.theta_hi = seg.theta_hi;
                }
            }
            _ => out.push(seg),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Sense};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    /// Brute-force cross-check: re-solve the model at `theta` with perturbed
    /// right-hand sides.
    fn resolve_at(p: &Problem, dirs: &[(ConstraintId, f64)], theta: f64) -> Option<f64> {
        let mut q = p.clone();
        for &(c, coeff) in dirs {
            let (_, _, rhs) = p.constraint(c);
            q.set_rhs(c, rhs + theta * coeff);
        }
        q.solve().unwrap().objective()
    }

    #[test]
    fn single_segment_linear_growth() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(x.into());
        let curve = parametric_rhs(&p, &[(c, 2.0)], 5.0).unwrap();
        assert_eq!(curve.segments.len(), 1);
        assert!(near(curve.segments[0].slope, 2.0));
        assert!(near(curve.objective_at(3.0).unwrap(), 7.0));
        assert!(curve.infeasible_beyond.is_none());
    }

    #[test]
    fn breakpoint_where_binding_set_changes() {
        // minimize x s.t. x >= 2, x >= θ  -> z*(θ) = max(2, θ):
        // slope 0 until θ = 2, slope 1 after.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 2.0);
        let c2 = p.constrain(x.into(), Sense::Ge, 0.0);
        p.minimize(x.into());
        let curve = parametric_rhs(&p, &[(c2, 1.0)], 10.0).unwrap();
        let bps = curve.breakpoints();
        assert_eq!(bps.len(), 1, "curve: {curve:?}");
        assert!(near(bps[0], 2.0));
        assert!(near(curve.objective_at(1.0).unwrap(), 2.0));
        assert!(near(curve.objective_at(7.0).unwrap(), 7.0));
    }

    #[test]
    fn detects_infeasibility_onset() {
        // x <= 3, x >= θ: infeasible beyond θ = 3.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Le, 3.0);
        let c = p.constrain(x.into(), Sense::Ge, 0.0);
        p.minimize(x.into());
        let curve = parametric_rhs(&p, &[(c, 1.0)], 10.0).unwrap();
        assert!(near(curve.infeasible_beyond.unwrap(), 3.0));
        assert!(near(curve.theta_end(), 3.0));
    }

    #[test]
    fn matches_brute_force_on_two_var_model() {
        // minimize 2x + y s.t. x + y >= 4 + θ, x <= 3, y <= 4 + θ/2
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c1 = p.constrain(x + y, Sense::Ge, 4.0);
        p.constrain(x.into(), Sense::Le, 3.0);
        let c3 = p.constrain(y.into(), Sense::Le, 4.0);
        p.minimize(2.0 * x + y);
        let dirs = [(c1, 1.0), (c3, 0.5)];
        let curve = parametric_rhs(&p, &dirs, 8.0).unwrap();
        for theta in [0.0, 0.5, 1.0, 2.0, 3.3, 5.0, 7.9] {
            let direct = resolve_at(&p, &dirs, theta);
            let para = curve.objective_at(theta);
            match (direct, para) {
                (Some(a), Some(b)) => assert!(near(a, b), "theta={theta}: {a} vs {b}"),
                (None, None) => {}
                other => panic!("mismatch at theta={theta}: {other:?}"),
            }
        }
    }

    #[test]
    fn repeated_constraint_ids_coalesce() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(x.into());
        let curve = parametric_rhs(&p, &[(c, 1.0), (c, 1.0)], 2.0).unwrap();
        assert!(near(curve.objective_at(1.0).unwrap(), 3.0));
    }

    #[test]
    fn rejects_nonfinite_inputs() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(x.into());
        assert!(parametric_rhs(&p, &[(c, f64::NAN)], 1.0).is_err());
        assert!(parametric_rhs(&p, &[(c, 1.0)], f64::INFINITY).is_err());
        assert!(parametric_rhs(&p, &[(c, 1.0)], -1.0).is_err());
    }

    #[test]
    fn infeasible_base_model_is_reported() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Le, 1.0);
        let c = p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(x.into());
        let err = parametric_rhs(&p, &[(c, 1.0)], 1.0).unwrap_err();
        assert!(matches!(err, LpError::NotOptimal { .. }));
    }
}

/// Computes the exact optimal-objective curve of `p` as the objective
/// coefficients of `directions` are perturbed by `θ · coefficient`, for
/// `θ ∈ [0, theta_max]` (Gass–Saaty cost ranging, the dual procedure to
/// [`parametric_rhs`]).
///
/// For the SMO model this answers questions like "how does the optimum
/// move if the objective trades cycle time against phase widths" — and it
/// completes the parametric toolbox the paper's §VI sketches.
///
/// # Errors
///
/// Returns an error if `p` is invalid, not optimal at `θ = 0`
/// ([`LpError::NotOptimal`]), or the pivot safeguard trips.
///
/// # Examples
///
/// ```
/// use smo_lp::{parametric_objective, Problem, Sense};
/// # fn main() -> Result<(), smo_lp::LpError> {
/// // minimize x + θ·y subject to x + y >= 4, x <= 3:
/// // θ < 1 favours y… the optimum is piecewise linear in θ.
/// let mut p = Problem::new();
/// let x = p.add_var("x");
/// let y = p.add_var("y");
/// p.constrain(x + y, Sense::Ge, 4.0);
/// p.constrain(x.into(), Sense::Le, 3.0);
/// p.minimize(x.into());
/// let curve = parametric_objective(&p, &[(y, 1.0)], 5.0)?;
/// // at θ = 0, y is free: z* = 0 (x = 0? no: x + y >= 4 with y costless →
/// // y = 4, z = 0); at θ = 2, better to use x up to 3: z = 3 + 2·1 = 5.
/// assert!((curve.objective_at(0.0).unwrap() - 0.0).abs() < 1e-9);
/// assert!((curve.objective_at(2.0).unwrap() - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn parametric_objective(
    p: &Problem,
    directions: &[(VarId, f64)],
    theta_max: f64,
) -> Result<ParametricCurve, LpError> {
    p.validate()?;
    if !theta_max.is_finite() || theta_max < 0.0 {
        return Err(LpError::NonFiniteInput {
            context: "parametric theta_max".into(),
        });
    }
    let mut d_user = vec![0.0; p.num_vars()];
    for &(v, coeff) in directions {
        if !coeff.is_finite() {
            return Err(LpError::NonFiniteInput {
                context: "parametric direction coefficient".into(),
            });
        }
        d_user[v.index()] += coeff;
    }

    let (solution, tableau) = simplex::solve_with_tableau(p, None, crate::SolveBudget::UNLIMITED)?;
    let mut t = tableau.ok_or(LpError::NotOptimal {
        status: solution.status(),
    })?;
    // second reduced-cost row for the delta costs
    let d_cols = t.user_costs_to_columns(&d_user);
    t.z2 = Some(t.reduced_costs_for(&d_cols));

    let mut segments = Vec::new();
    let mut theta = 0.0_f64;
    let pivot_limit = 10_000 + 100 * (t.rows() + t.ncols);
    let mut pivots = 0usize;

    loop {
        // slope = d·x at the current optimal basis (user orientation:
        // objective value is evaluated on user variables directly).
        let values = t.user_values();
        let slope: f64 = d_user.iter().zip(&values).map(|(d, x)| d * x).sum();
        let Some((_, obj)) = p.objective.as_ref() else {
            return Err(LpError::MissingObjective);
        };
        let objective = obj.eval(&values);

        // optimality holds while z(θ) = z + θ·z2 ≥ 0 on eligible columns
        let Some(z2) = t.z2.as_ref() else {
            return Err(LpError::Numerical {
                context: "parametric cost: secondary cost row missing".into(),
            });
        };
        let mut theta_hi = f64::INFINITY;
        let mut entering: Option<usize> = None;
        for (j, &z2j) in z2.iter().enumerate().take(t.ncols) {
            if matches!(t.col_kinds[j], ColKind::Artificial { .. }) {
                continue;
            }
            if z2j < -EPS {
                let limit = (t.z[j] / -z2[j]).max(theta);
                if limit < theta_hi - EPS
                    || (limit < theta_hi + EPS && entering.is_none_or(|e| j < e))
                {
                    theta_hi = limit;
                    entering = Some(j);
                }
            }
        }

        if theta_hi >= theta_max - EPS {
            segments.push(ParametricSegment {
                theta_lo: theta,
                theta_hi: theta_max,
                // the parametrized objective at θ is (base objective at the
                // current optimal point) + θ·(d·x)
                objective_lo: objective + theta * slope,
                slope,
            });
            break;
        }

        let Some(j) = entering else {
            return Err(LpError::Numerical {
                context: "parametric cost: no entering column for finite theta".into(),
            });
        };
        segments.push(ParametricSegment {
            theta_lo: theta,
            theta_hi,
            objective_lo: objective + theta * slope,
            slope,
        });
        theta = theta_hi;

        // primal ratio test on the entering column
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..t.rows() {
            let a = t.tab[r][j];
            if a > EPS {
                let ratio = t.rhs(r) / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_some_and(|l| t.basis[r] < t.basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let Some(r) = leave else {
            // unbounded beyond this θ: stop the curve here
            return Ok(ParametricCurve {
                segments: coalesce(segments),
                infeasible_beyond: Some(theta),
            });
        };
        t.pivot(r, j);
        pivots += 1;
        if pivots > pivot_limit {
            return Err(LpError::IterationLimit { limit: pivot_limit });
        }
    }

    Ok(ParametricCurve {
        segments: coalesce(segments),
        infeasible_beyond: None,
    })
}

#[cfg(test)]
mod objective_tests {
    use super::*;
    use crate::{LinExpr, Problem, Sense};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    /// Re-solve with the perturbed objective for cross-checking.
    fn resolve_at(p: &Problem, dirs: &[(VarId, f64)], theta: f64) -> f64 {
        let mut q = p.clone();
        // rebuild the objective with perturbed coefficients
        let (_, base) = p.objective.as_ref().expect("set");
        let mut expr = base.clone();
        for &(v, c) in dirs {
            expr.add_term(v, theta * c);
        }
        q.minimize(expr);
        q.solve().expect("solves").objective().expect("optimal")
    }

    #[test]
    fn single_variable_cost_growth() {
        // minimize θ·x s.t. x >= 2: z(θ) = 2θ (slope 2, one segment)
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(LinExpr::constant_expr(0.0));
        let curve = parametric_objective(&p, &[(x, 1.0)], 5.0).unwrap();
        assert!(near(curve.objective_at(3.0).unwrap(), 6.0), "{curve:?}");
    }

    #[test]
    fn basis_change_creates_breakpoint() {
        // minimize x + θ·y, x + y >= 4, x <= 3: for θ < 1 use y (z = 4θ…
        // wait x is also available at cost 1): optimum mixes at vertices:
        // θ ≤ 1: all y → z = 4θ; θ ≥ 1: x = 3, y = 1 → z = 3 + θ.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Ge, 4.0);
        p.constrain(x.into(), Sense::Le, 3.0);
        p.minimize(x.into());
        let dirs = [(y, 1.0)];
        let curve = parametric_objective(&p, &dirs, 4.0).unwrap();
        let bps = curve.breakpoints();
        assert_eq!(bps.len(), 1, "{curve:?}");
        assert!(near(bps[0], 1.0));
        for theta in [0.0, 0.5, 1.0, 1.7, 3.9] {
            let direct = resolve_at(&p, &dirs, theta);
            let para = curve.objective_at(theta).unwrap();
            assert!(near(direct, para), "θ = {theta}: {para} vs {direct}");
        }
    }

    #[test]
    fn matches_brute_force_on_three_vars() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, 10.0);
        let y = p.add_var_bounded("y", 0.0, 10.0);
        let z = p.add_var_bounded("z", 0.0, 10.0);
        p.constrain(x + y + z, Sense::Ge, 6.0);
        p.constrain(LinExpr::from(x) + 2.0 * y, Sense::Le, 12.0);
        p.minimize(2.0 * x + LinExpr::from(y) + 3.0 * z);
        let dirs = [(x, -0.5), (z, 1.0)];
        let curve = parametric_objective(&p, &dirs, 3.0).unwrap();
        for theta in [0.0, 0.3, 1.1, 2.2, 2.9] {
            let direct = resolve_at(&p, &dirs, theta);
            let para = curve.objective_at(theta).unwrap();
            assert!(near(direct, para), "θ = {theta}: {para} vs {direct}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(x.into());
        assert!(parametric_objective(&p, &[(x, f64::NAN)], 1.0).is_err());
        assert!(parametric_objective(&p, &[(x, 1.0)], -2.0).is_err());
    }
}
