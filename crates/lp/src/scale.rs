//! Geometric-mean row/column equilibration.
//!
//! A rung of the recovery ladder
//! ([`Problem::solve_certified`](crate::Problem::solve_certified)): when a
//! solve of the raw model fails to certify — typically because delay data
//! mixes scales (picoseconds against seconds) and the simplex's phase-1
//! threshold misjudges residuals — the model is rescaled so every
//! coefficient magnitude is pulled toward 1, solved, and the solution
//! mapped back.
//!
//! Scaling is the classical alternating geometric-mean scheme: each row is
//! divided by `√(min·max)` of its absolute coefficients, then each column,
//! for a fixed number of passes. Every scale factor is rounded to a power
//! of two, so applying and undoing the scaling is *exact* in binary
//! floating point — the unscaled solution is bit-for-bit a rescaling of
//! the scaled one, and certificates are always evaluated on the original
//! problem in unscaled space.

use crate::expr::LinExpr;
use crate::problem::Problem;
use crate::solution::{Solution, Status};

/// Alternating row/column geometric-mean passes. Two are standard; the
/// scheme converges quickly and later passes change little.
const PASSES: usize = 2;

/// Row and column scale factors (all positive powers of two).
#[derive(Debug, Clone)]
pub(crate) struct Equilibration {
    /// Row `i` of the scaled problem is the original row times `row[i]`.
    pub row: Vec<f64>,
    /// Scaled variable `j` is the original divided by `col[j]`
    /// (`x = col[j] · x'`), i.e. column `j` is multiplied by `col[j]`.
    pub col: Vec<f64>,
}

/// Rounds a positive scale to the nearest power of two, so that applying
/// and undoing it is exact. Non-finite or degenerate inputs scale by 1.
fn pow2(s: f64) -> f64 {
    if !s.is_finite() || s <= 0.0 {
        return 1.0;
    }
    let e = s.log2().round();
    // Clamp to a safe exponent range; beyond this the model is hopeless
    // anyway and overflow would only make it worse.
    e.clamp(-512.0, 512.0).exp2()
}

/// Computes geometric-mean equilibration scales for `p` and returns the
/// scaled problem together with the factors needed to undo it.
pub(crate) fn equilibrate(p: &Problem) -> (Problem, Equilibration) {
    let m = p.num_constraints();
    let n = p.num_vars();
    let mut row = vec![1.0f64; m];
    let mut col = vec![1.0f64; n];

    for _ in 0..PASSES {
        // Row pass: geometric mean of |a_ij · col_j| per row.
        for (i, (terms, _, _)) in p.rows().enumerate() {
            let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
            for &(v, a) in terms {
                let mag = (a * row[i] * col[v.index()]).abs();
                if mag > 0.0 {
                    lo = lo.min(mag);
                    hi = hi.max(mag);
                }
            }
            if hi > 0.0 {
                row[i] *= pow2(1.0 / (lo * hi).sqrt());
            }
        }
        // Column pass: geometric mean per column of the row-scaled matrix.
        let (mut lo, mut hi) = (vec![f64::INFINITY; n], vec![0.0f64; n]);
        for (i, (terms, _, _)) in p.rows().enumerate() {
            for &(v, a) in terms {
                let j = v.index();
                let mag = (a * row[i] * col[j]).abs();
                if mag > 0.0 {
                    lo[j] = lo[j].min(mag);
                    hi[j] = hi[j].max(mag);
                }
            }
        }
        for j in 0..n {
            if hi[j] > 0.0 {
                col[j] *= pow2(1.0 / (lo[j] * hi[j]).sqrt());
            }
        }
    }

    // Build the scaled problem: row i multiplied through by row[i]
    // (coefficients and rhs), variable j substituted x = col[j]·x′ (so
    // column j is multiplied by col[j], bounds divided).
    let mut scaled = p.clone();
    scaled.map_coefficients(|i, v, a| a * row[i] * col[v.index()]);
    for (b, r) in scaled.rhs_mut().iter_mut().zip(&row) {
        *b *= r;
    }
    for (j, v) in scaled.vars.iter_mut().enumerate() {
        // ±∞ / positive finite stays ±∞, as required.
        v.lower /= col[j];
        v.upper /= col[j];
    }
    if let Some((_, obj)) = scaled.objective.as_mut() {
        let constant = obj.constant();
        let mut expr = LinExpr::constant_expr(constant);
        for (v, c) in obj.iter() {
            expr.add_term(v, c * col[v.index()]);
        }
        *obj = expr;
    }

    (scaled, Equilibration { row, col })
}

impl Equilibration {
    /// Maps a solution of the scaled problem back to the original space
    /// (`original` is the unscaled problem, used to recompute slacks and
    /// the objective exactly on original data).
    pub(crate) fn unscale(&self, original: &Problem, scaled: &Solution) -> Solution {
        let mut out = scaled.clone();
        for (x, k) in out.values.iter_mut().zip(&self.col) {
            *x *= k;
        }
        for (y, r) in out.duals.iter_mut().zip(&self.row) {
            *y *= r;
        }
        for (rc, k) in out.reduced_costs.iter_mut().zip(&self.col) {
            *rc /= k;
        }
        if let Some(y) = out.farkas.as_mut() {
            for (yi, r) in y.iter_mut().zip(&self.row) {
                *yi *= r;
            }
        }
        // Slacks and objective are recomputed on the *original* data.
        // Non-optimal verdicts (infeasible/unbounded) carry no point, so
        // there is nothing to evaluate.
        if out.values.len() == original.num_vars() {
            out.slacks = original.slacks(&out.values);
            if out.status == Status::Optimal {
                if let Some((_, obj)) = original.objective.as_ref() {
                    out.objective = Some(obj.eval(&out.values));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::Sense;

    #[test]
    fn pow2_rounds_and_guards() {
        assert_eq!(pow2(1.0), 1.0);
        assert_eq!(pow2(3.0), 4.0);
        assert_eq!(pow2(0.3), 0.25);
        assert_eq!(pow2(0.0), 1.0);
        assert_eq!(pow2(f64::NAN), 1.0);
        assert_eq!(pow2(f64::INFINITY), 1.0);
    }

    #[test]
    fn scaled_solve_unscales_to_the_original_optimum() {
        // Badly mixed magnitudes: coefficients spanning 1e-6..1e6.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(
            LinExpr::term(x, 1e6) + LinExpr::term(y, 2e-6),
            Sense::Ge,
            3e6,
        );
        p.constrain(LinExpr::term(y, 1e-6), Sense::Ge, 2e-6);
        p.minimize(LinExpr::term(x, 1e3) + LinExpr::term(y, 1e-3));

        let plain = p.solve().expect("solves");
        let (scaled, eq) = equilibrate(&p);
        let sol = eq.unscale(&p, &scaled.solve().expect("solves"));
        assert_eq!(sol.status(), Status::Optimal);
        let (a, b) = (
            plain.objective.expect("optimal"),
            sol.objective.expect("optimal"),
        );
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "objectives differ: {a} vs {b}"
        );
        // The unscaled solution certifies against the ORIGINAL problem.
        assert!(sol.certify(&p).is_valid(), "{}", sol.certify(&p));
    }

    #[test]
    fn scales_are_powers_of_two() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::term(x, 12345.0), Sense::Ge, 1.0);
        p.minimize(LinExpr::term(x, 1.0));
        let (_, eq) = equilibrate(&p);
        for s in eq.row.iter().chain(&eq.col) {
            assert_eq!(s.log2().fract(), 0.0, "{s} is not a power of two");
        }
    }
}
