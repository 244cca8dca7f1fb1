//! Export models in the CPLEX LP text format.
//!
//! Useful for debugging a timing model against an external solver, and for
//! archiving the exact LP a result came from. The dialect written here is
//! the common subset understood by CPLEX, Gurobi, GLPK and SCIP.

use crate::expr::VarId;
use crate::problem::{Objective, Problem, Sense};
use std::fmt::Write as _;

/// Renders `p` in CPLEX LP format.
///
/// Variable names are sanitized to the format's identifier rules (the
/// original names appear when they are already valid, otherwise `x<i>` is
/// used). Constraints are named `c<i>` (their row index), so solver logs
/// can be mapped back to [`ConstraintId`](crate::ConstraintId)s.
///
/// ```
/// use smo_lp::{write_lp, Problem, Sense};
/// let mut p = Problem::new();
/// let x = p.add_var("x");
/// p.constrain(x.into(), Sense::Ge, 2.0);
/// p.minimize(x.into());
/// let text = write_lp(&p);
/// assert!(text.contains("Minimize"));
/// assert!(text.contains("c0: + 1 x >= 2"));
/// ```
pub fn write_lp(p: &Problem) -> String {
    let mut out = String::new();
    let names: Vec<String> = (0..p.num_vars())
        .map(|i| sanitize(p.var_name(crate::VarId(i)), i))
        .collect();

    match &p.objective {
        Some((Objective::Minimize, e)) => {
            let _ = writeln!(out, "Minimize");
            let _ = writeln!(out, " obj: {}", expr_text(e.terms(), &names));
        }
        Some((Objective::Maximize, e)) => {
            let _ = writeln!(out, "Maximize");
            let _ = writeln!(out, " obj: {}", expr_text(e.terms(), &names));
        }
        None => {
            let _ = writeln!(out, "Minimize");
            let _ = writeln!(out, " obj: 0 {}", names.first().map_or("x0", |n| n));
        }
    }

    let _ = writeln!(out, "Subject To");
    for i in 0..p.num_constraints() {
        let (terms, sense, rhs) = p.constraint(crate::ConstraintId(i));
        let op = match sense {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        };
        let _ = writeln!(out, " c{i}: {} {op} {rhs}", expr_text(terms, &names));
    }

    let _ = writeln!(out, "Bounds");
    #[allow(clippy::needless_range_loop)]
    for i in 0..p.num_vars() {
        let (lo, hi) = p.var_bounds(crate::VarId(i));
        let n = &names[i];
        match (lo == 0.0, hi.is_infinite()) {
            (true, true) => {} // default 0 <= x < inf
            (false, true) if lo.is_infinite() => {
                let _ = writeln!(out, " {n} free");
            }
            (false, true) => {
                let _ = writeln!(out, " {n} >= {lo}");
            }
            (_, false) if lo.is_infinite() => {
                let _ = writeln!(out, " -inf <= {n} <= {hi}");
            }
            (_, false) => {
                let _ = writeln!(out, " {lo} <= {n} <= {hi}");
            }
        }
    }
    let _ = writeln!(out, "End");
    out
}

fn expr_text(terms: &[(VarId, f64)], names: &[String]) -> String {
    let mut s = String::new();
    for &(v, c) in terms {
        let sign = if c < 0.0 { '-' } else { '+' };
        let _ = write!(s, "{sign} {} {} ", c.abs(), names[v.index()]);
    }
    if terms.is_empty() {
        let _ = write!(s, "0 {} ", names.first().map_or("x0", |n| n.as_str()));
    }
    s.trim_end().to_string()
}

fn sanitize(name: &str, index: usize) -> String {
    let valid = !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_!\"#$%&()/,;?@'`{}|~".contains(c));
    if valid {
        name.to_string()
    } else {
        format!("x{index}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Problem, Sense};

    #[test]
    fn format_has_all_sections() {
        let mut p = Problem::new();
        let x = p.add_var("Tc");
        let y = p.add_var_bounded("w", 1.0, 5.0);
        let z = p.add_free_var("slack var"); // invalid name → sanitized
        p.constrain(x + y, Sense::Le, 10.0);
        p.constrain(LinExpr::from(x) - z, Sense::Eq, 0.0);
        p.minimize(x.into());
        let text = write_lp(&p);
        assert!(text.starts_with("Minimize\n obj: + 1 Tc"));
        assert!(text.contains("Subject To"));
        assert!(text.contains("c0: + 1 Tc + 1 w <= 10"));
        assert!(text.contains("c1: + 1 Tc - 1 x2 = 0"));
        assert!(text.contains("Bounds"));
        assert!(text.contains(" 1 <= w <= 5"));
        assert!(text.contains(" x2 free"));
        assert!(text.trim_end().ends_with("End"));
    }

    #[test]
    fn maximize_and_constants() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::from(x) + 3.0, Sense::Le, 5.0); // folded to x <= 2
        p.maximize(2.0 * x);
        let text = write_lp(&p);
        assert!(text.starts_with("Maximize"));
        assert!(text.contains("c0: + 1 x <= 2"));
    }

    #[test]
    fn digit_leading_names_are_sanitized() {
        let mut p = Problem::new();
        let x = p.add_var("1bad");
        p.minimize(x.into());
        let text = write_lp(&p);
        assert!(text.contains("x0"));
        assert!(!text.contains("1bad"));
    }
}
