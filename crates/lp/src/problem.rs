//! LP model builder.

use crate::error::LpError;
use crate::expr::{LinExpr, VarId};
use crate::simplex;
use crate::solution::Solution;
use std::borrow::Cow;
use std::fmt;

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// Sense (direction) of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sense::Le => write!(f, "<="),
            Sense::Ge => write!(f, ">="),
            Sense::Eq => write!(f, "=="),
        }
    }
}

/// Opaque handle to a constraint row of a [`Problem`]; indexes the dual
/// vector of a [`Solution`](crate::Solution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Zero-based row index of this constraint in its owning problem.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub lower: f64,
    pub upper: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub name: Option<Cow<'static, str>>,
    pub expr: LinExpr,
    pub sense: Sense,
    pub rhs: f64,
}

/// A linear program under construction.
///
/// Variables default to the domain `[0, +∞)` — the natural domain for the SMO
/// timing variables (`Tc`, phase widths, phase starts, departure times are all
/// non-negative, eqs. (7)–(9), (18)). Free or bounded variables are available
/// through [`Problem::add_var_bounded`] / [`Problem::add_free_var`].
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) vars: Vec<Variable>,
    pub(crate) rows: Vec<Row>,
    pub(crate) objective: Option<(Objective, LinExpr)>,
}

impl Problem {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with domain `[0, +∞)` and returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), 0.0, f64::INFINITY)
    }

    /// Adds a variable with domain `[lower, upper]` (either bound may be
    /// infinite).
    pub fn add_var_bounded(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.push_var(name.into(), lower, upper)
    }

    /// Adds a free variable with domain `(-∞, +∞)`.
    pub fn add_free_var(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), f64::NEG_INFINITY, f64::INFINITY)
    }

    fn push_var(&mut self, name: String, lower: f64, upper: f64) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable { name, lower, upper });
        id
    }

    /// Adds the constraint `expr (sense) rhs` and returns its handle.
    ///
    /// Any constant inside `expr` is folded onto the right-hand side, so
    /// `constrain(x - y + 3, Le, 5)` stores `x - y ≤ 2`.
    pub fn constrain(&mut self, expr: LinExpr, sense: Sense, rhs: f64) -> ConstraintId {
        self.constrain_named(None::<&'static str>, expr, sense, rhs)
    }

    /// Like [`Problem::constrain`] but attaches a diagnostic name reported in
    /// infeasibility analyses. A `&'static str` name is stored without
    /// copying.
    pub fn constrain_named(
        &mut self,
        name: Option<impl Into<Cow<'static, str>>>,
        mut expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) -> ConstraintId {
        let k = expr.constant();
        expr.add_constant(-k);
        let id = ConstraintId(self.rows.len());
        self.rows.push(Row {
            name: name.map(Into::into),
            expr,
            sense,
            rhs: rhs - k,
        });
        id
    }

    /// Sets the objective to minimize `expr`.
    pub fn minimize(&mut self, expr: LinExpr) {
        self.objective = Some((Objective::Minimize, expr));
    }

    /// Sets the objective to maximize `expr`.
    pub fn maximize(&mut self, expr: LinExpr) {
        self.objective = Some((Objective::Maximize, expr));
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// `(lower, upper)` bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn var_bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.0];
        (v.lower, v.upper)
    }

    /// Optional diagnostic name of a constraint.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn constraint_name(&self, c: ConstraintId) -> Option<&str> {
        self.rows[c.0].name.as_deref()
    }

    /// The `(expr, sense, rhs)` triple of a constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn constraint(&self, c: ConstraintId) -> (&LinExpr, Sense, f64) {
        let r = &self.rows[c.0];
        (&r.expr, r.sense, r.rhs)
    }

    /// Overwrites the right-hand side of an existing constraint.
    ///
    /// This is the entry point used by sweep-style experiments that re-solve
    /// the same model with a perturbed delay.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn set_rhs(&mut self, c: ConstraintId, rhs: f64) {
        self.rows[c.0].rhs = rhs;
    }

    /// Validates the model without solving it.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: missing objective, empty model,
    /// inverted bounds, or non-finite input data.
    pub fn validate(&self) -> Result<(), LpError> {
        if self.vars.is_empty() {
            return Err(LpError::EmptyModel);
        }
        let (_, obj) = self.objective.as_ref().ok_or(LpError::MissingObjective)?;
        if !obj.is_finite() {
            return Err(LpError::NonFiniteInput {
                context: "objective".into(),
            });
        }
        for v in &self.vars {
            if v.lower > v.upper {
                return Err(LpError::InvalidBounds {
                    var: v.name.clone(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(LpError::NonFiniteInput {
                    context: format!("bounds of variable `{}`", v.name),
                });
            }
        }
        for (i, r) in self.rows.iter().enumerate() {
            if !r.expr.is_finite() || !r.rhs.is_finite() {
                return Err(LpError::NonFiniteInput {
                    context: match &r.name {
                        Some(n) => format!("constraint `{n}`"),
                        None => format!("constraint #{i}"),
                    },
                });
            }
        }
        Ok(())
    }

    /// Solves the model with the sparse-LU two-phase primal simplex (see
    /// the [`sparse`-module docs](crate)).
    ///
    /// Infeasible and unbounded models are reported through
    /// [`Status`](crate::Status) on the returned [`Solution`], not as errors.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid models (see [`Problem::validate`]) or if
    /// the internal iteration safeguard trips.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with_budget(crate::recover::SolveBudget::UNLIMITED)
    }

    /// [`Problem::solve`] under a wall-clock / iteration budget, checked
    /// inside the pivot loop.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`], plus [`LpError::Budget`] when the
    /// budget is exhausted before the solve terminates.
    pub fn solve_with_budget(
        &self,
        budget: crate::recover::SolveBudget,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        crate::sparse::solve_budgeted(self, budget, false)
    }

    /// Solves the model with the dense-tableau simplex — the paper's §V
    /// solver, kept as the **reference oracle** of the differential test
    /// suites.
    ///
    /// It shares the standard form of [`Problem::solve`] but nothing of
    /// its factorization or pricing, so agreement between the two is an
    /// independent check. Its tableau needs `O(rows × columns)` memory:
    /// production paths never call it. The `budget` bounds the reference
    /// solve on the large models the differential suites feed it.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve_with_budget`].
    pub fn solve_reference(
        &self,
        budget: crate::recover::SolveBudget,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        simplex::solve_dense(self, budget)
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.objective {
            Some((Objective::Minimize, e)) => writeln!(f, "minimize {e}")?,
            Some((Objective::Maximize, e)) => writeln!(f, "maximize {e}")?,
            None => writeln!(f, "(no objective)")?,
        }
        writeln!(f, "subject to")?;
        for r in &self.rows {
            write!(f, "  ")?;
            if let Some(n) = &r.name {
                write!(f, "[{n}] ")?;
            }
            writeln!(f, "{} {} {}", r.expr, r.sense, r.rhs)?;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower != 0.0 || v.upper != f64::INFINITY {
                writeln!(
                    f,
                    "  {} in [{}, {}]  ({})",
                    VarId(i),
                    v.lower,
                    v.upper,
                    v.name
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_into_rhs() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c = p.constrain(x - y + 3.0, Sense::Le, 5.0);
        let (expr, sense, rhs) = p.constraint(c);
        assert_eq!(expr.constant(), 0.0);
        assert_eq!(sense, Sense::Le);
        assert_eq!(rhs, 2.0);
    }

    #[test]
    fn validate_rejects_empty_and_objectiveless() {
        let p = Problem::new();
        assert_eq!(p.validate(), Err(LpError::EmptyModel));
        let mut p = Problem::new();
        p.add_var("x");
        assert_eq!(p.validate(), Err(LpError::MissingObjective));
    }

    #[test]
    fn validate_rejects_bad_bounds_and_nan() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 2.0, 1.0);
        p.minimize(x.into());
        assert!(matches!(p.validate(), Err(LpError::InvalidBounds { .. })));

        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::term(x, f64::NAN), Sense::Le, 1.0);
        p.minimize(x.into());
        assert!(matches!(p.validate(), Err(LpError::NonFiniteInput { .. })));
    }

    #[test]
    fn display_round_trips_senses() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain_named(Some("cap"), x.into(), Sense::Le, 4.0);
        p.minimize(x.into());
        let s = format!("{p}");
        assert!(s.contains("minimize x0"));
        assert!(s.contains("[cap] x0 <= 4"));
    }

    #[test]
    fn set_rhs_updates_row() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let c = p.constrain(x.into(), Sense::Ge, 1.0);
        p.set_rhs(c, 7.0);
        assert_eq!(p.constraint(c).2, 7.0);
    }
}
