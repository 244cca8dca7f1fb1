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

    /// The handle of row `index`, meaningful for a problem with more than
    /// `index` rows (records that store row indices compactly turn them
    /// back into handles with it).
    pub fn new(index: usize) -> Self {
        ConstraintId(index)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Variable {
    /// End of the name in [`Problem::var_names`]; it starts where the
    /// previous variable's name ends.
    name_end: usize,
    pub lower: f64,
    pub upper: f64,
}

/// Marks a row without a name in [`Problem::row_names`].
const NO_NAME: u32 = u32::MAX;

/// How many of the most recent distinct row names a new name is matched
/// against before it gets a slot of its own.
const NAME_WINDOW: usize = 16;

/// A linear program under construction.
///
/// Variables default to the domain `[0, +∞)` — the natural domain for the SMO
/// timing variables (`Tc`, phase widths, phase starts, departure times are all
/// non-negative, eqs. (7)–(9), (18)). Free or bounded variables are available
/// through [`Problem::add_var_bounded`] / [`Problem::add_free_var`].
///
/// The rows are stored flat, in compressed sparse rows: every row's terms
/// sit back to back in one array, with one end offset, sense and
/// right-hand side per row, and the variable names share one string. A
/// model of known size, built after [`Problem::reserve`], makes no
/// allocation per row or per variable.
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) vars: Vec<Variable>,
    /// Every variable's name, back to back.
    var_names: String,
    /// The terms of every row, row after row; each row's are sorted by
    /// variable, each variable at most once, no zero coefficient.
    terms: Vec<(VarId, f64)>,
    /// Row `i`'s terms are `terms[row_ends[i - 1]..row_ends[i]]` (from 0
    /// for the first row).
    row_ends: Vec<usize>,
    senses: Vec<Sense>,
    rhs: Vec<f64>,
    /// Each row's index into `names`, or [`NO_NAME`].
    row_names: Vec<u32>,
    /// The distinct row names.
    names: Vec<Cow<'static, str>>,
    pub(crate) objective: Option<(Objective, LinExpr)>,
}

impl Problem {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for `vars` more variables whose names total
    /// `name_bytes` bytes, and for `rows` more rows holding `terms` terms
    /// in all, so that building a model of known size regrows nothing.
    pub fn reserve(&mut self, vars: usize, name_bytes: usize, rows: usize, terms: usize) {
        self.vars.reserve_exact(vars);
        self.var_names.reserve_exact(name_bytes);
        self.terms.reserve_exact(terms);
        self.row_ends.reserve_exact(rows);
        self.senses.reserve_exact(rows);
        self.rhs.reserve_exact(rows);
        self.row_names.reserve_exact(rows);
    }

    /// Adds a variable with domain `[0, +∞)` and returns its handle.
    ///
    /// The name is written straight into the problem's name store, so a
    /// `format_args!` name costs no allocation of its own.
    pub fn add_var(&mut self, name: impl fmt::Display) -> VarId {
        self.push_var(name, 0.0, f64::INFINITY)
    }

    /// Adds a variable with domain `[lower, upper]` (either bound may be
    /// infinite).
    pub fn add_var_bounded(&mut self, name: impl fmt::Display, lower: f64, upper: f64) -> VarId {
        self.push_var(name, lower, upper)
    }

    /// Adds a free variable with domain `(-∞, +∞)`.
    pub fn add_free_var(&mut self, name: impl fmt::Display) -> VarId {
        self.push_var(name, f64::NEG_INFINITY, f64::INFINITY)
    }

    fn push_var(&mut self, name: impl fmt::Display, lower: f64, upper: f64) -> VarId {
        use fmt::Write as _;
        let id = VarId(self.vars.len());
        // Writing into a `String` cannot fail.
        let _ = write!(self.var_names, "{name}");
        self.vars.push(Variable {
            name_end: self.var_names.len(),
            lower,
            upper,
        });
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
    /// copying, and a name equal to a recent one shares its slot.
    pub fn constrain_named(
        &mut self,
        name: Option<impl Into<Cow<'static, str>>>,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) -> ConstraintId {
        self.constrain_terms(name, expr.terms(), sense, rhs - expr.constant())
    }

    /// Adds the row `Σ c·x (sense) rhs` over the `(x, c)` of `terms`
    /// without building a [`LinExpr`]. The terms are appended as they
    /// are, so they must already be normalized: sorted by variable, each
    /// variable at most once, no zero coefficient, as
    /// [`LinExpr::terms`] and [`merge_terms`](crate::merge_terms) return
    /// them (checked in debug builds).
    pub fn constrain_terms(
        &mut self,
        name: Option<impl Into<Cow<'static, str>>>,
        terms: &[(VarId, f64)],
        sense: Sense,
        rhs: f64,
    ) -> ConstraintId {
        debug_assert!(
            crate::expr::is_normalized(terms),
            "unnormalized row {terms:?}"
        );
        self.terms.extend_from_slice(terms);
        let name = match name {
            Some(name) => self.intern(name.into()),
            None => NO_NAME,
        };
        let id = ConstraintId(self.row_ends.len());
        self.row_ends.push(self.terms.len());
        self.senses.push(sense);
        self.rhs.push(rhs);
        self.row_names.push(name);
        id
    }

    /// The slot of a row name: a recent equal name's, or a new one. Past
    /// `u32::MAX − 1` distinct names, further new names are dropped (they
    /// are diagnostic only).
    fn intern(&mut self, name: Cow<'static, str>) -> u32 {
        let recent = self.names.len().saturating_sub(NAME_WINDOW);
        if let Some(k) = self.names[recent..].iter().position(|n| *n == name) {
            return (recent + k) as u32;
        }
        match u32::try_from(self.names.len()) {
            Ok(slot) if slot != NO_NAME => {
                self.names.push(name);
                slot
            }
            _ => NO_NAME,
        }
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
        self.row_ends.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn var_name(&self, var: VarId) -> &str {
        let start = match var.0 {
            0 => 0,
            i => self.vars[i - 1].name_end,
        };
        &self.var_names[start..self.vars[var.0].name_end]
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
        let slot = self.row_names[c.0];
        (slot != NO_NAME).then(|| &*self.names[slot as usize])
    }

    /// The `(terms, sense, rhs)` triple of a constraint row; the terms are
    /// sorted by variable, each variable at most once, no zero
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this problem.
    pub fn constraint(&self, c: ConstraintId) -> (&[(VarId, f64)], Sense, f64) {
        (self.row_terms(c.0), self.senses[c.0], self.rhs[c.0])
    }

    /// The name of row `c` as stored: a `&'static str` stays borrowed.
    pub(crate) fn row_name(&self, c: ConstraintId) -> Option<Cow<'static, str>> {
        let slot = self.row_names[c.0];
        (slot != NO_NAME).then(|| self.names[slot as usize].clone())
    }

    /// The terms of row `i`.
    pub(crate) fn row_terms(&self, i: usize) -> &[(VarId, f64)] {
        let start = match i {
            0 => 0,
            i => self.row_ends[i - 1],
        };
        &self.terms[start..self.row_ends[i]]
    }

    /// Every row's `(terms, sense, rhs)`, in row order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = (&[(VarId, f64)], Sense, f64)> + '_ {
        (0..self.num_constraints()).map(|i| self.constraint(ConstraintId(i)))
    }

    /// The left-hand side of row `i` at the point `x`.
    pub(crate) fn activity(&self, i: usize, x: &[f64]) -> f64 {
        // The `0.0 +` is the folded-away constant of the row's expression:
        // it keeps every activity bit-identical to `LinExpr::eval`.
        0.0 + crate::expr::terms_value(self.row_terms(i), x)
    }

    /// Every row's slack at the point `x`: `rhs − activity` for `≤` and
    /// `=` rows, `activity − rhs` for `≥` rows.
    pub(crate) fn slacks(&self, x: &[f64]) -> Vec<f64> {
        (0..self.num_constraints())
            .map(|i| {
                let lhs = self.activity(i, x);
                match self.senses[i] {
                    Sense::Le | Sense::Eq => self.rhs[i] - lhs,
                    Sense::Ge => lhs - self.rhs[i],
                }
            })
            .collect()
    }

    /// The right-hand sides, by row.
    pub(crate) fn rhs_mut(&mut self) -> &mut [f64] {
        &mut self.rhs
    }

    /// Rewrites every row coefficient `a` of variable `v` in row `i` to
    /// `f(i, v, a)`, dropping the coefficients that become zero.
    pub(crate) fn map_coefficients(&mut self, mut f: impl FnMut(usize, VarId, f64) -> f64) {
        let mut write = 0;
        let mut start = 0;
        for (i, end) in self.row_ends.iter_mut().enumerate() {
            for read in start..*end {
                let (v, a) = self.terms[read];
                let a = f(i, v, a);
                if a.abs() != 0.0 {
                    self.terms[write] = (v, a);
                    write += 1;
                }
            }
            start = *end;
            *end = write;
        }
        self.terms.truncate(write);
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
        self.rhs[c.0] = rhs;
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
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower > v.upper {
                return Err(LpError::InvalidBounds {
                    var: self.var_name(VarId(i)).to_string(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(LpError::NonFiniteInput {
                    context: format!("bounds of variable `{}`", self.var_name(VarId(i))),
                });
            }
        }
        for (i, (terms, _, rhs)) in self.rows().enumerate() {
            if !terms.iter().all(|(_, c)| c.is_finite()) || !rhs.is_finite() {
                return Err(LpError::NonFiniteInput {
                    context: match self.constraint_name(ConstraintId(i)) {
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
        for (i, (terms, sense, rhs)) in self.rows().enumerate() {
            write!(f, "  ")?;
            if let Some(n) = self.constraint_name(ConstraintId(i)) {
                write!(f, "[{n}] ")?;
            }
            crate::expr::fmt_terms(f, terms, 0.0)?;
            writeln!(f, " {sense} {rhs}")?;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower != 0.0 || v.upper != f64::INFINITY {
                writeln!(
                    f,
                    "  {} in [{}, {}]  ({})",
                    VarId(i),
                    v.lower,
                    v.upper,
                    self.var_name(VarId(i))
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_terms;
    use proptest::prelude::*;

    #[test]
    fn constants_fold_into_rhs() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c = p.constrain(x - y + 3.0, Sense::Le, 5.0);
        let (terms, sense, rhs) = p.constraint(c);
        assert_eq!(terms, &[(x, 1.0), (y, -1.0)]);
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

    const COEFFS: [f64; 8] = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 3.0];

    /// One random row: `(variable, coefficient index)` terms in listing
    /// order (repeats, cancellations and zeros included), a constant
    /// index, a sense and a right-hand side.
    type RowSpec = (Vec<(usize, usize)>, usize, usize, i32);

    fn rows() -> impl Strategy<Value = Vec<RowSpec>> {
        proptest::collection::vec(
            (
                proptest::collection::vec((0usize..6, 0usize..COEFFS.len()), 0..=8),
                0usize..COEFFS.len(),
                0usize..3,
                -8i32..8,
            ),
            1..=6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merge rule sums each variable's coefficients and drops
        /// zero sums, and every stored row reads back as exactly its
        /// expression's terms and `rhs − constant`, whichever way it was
        /// added, and however many rows share the arena.
        #[test]
        fn prop_rows_read_back_exactly(specs in rows()) {
            let mut p = Problem::new();
            let vars: Vec<VarId> = (0..6).map(|i| p.add_var(format_args!("v{i}"))).collect();
            let mut expected = Vec::new();
            for (listed, k, sense, rhs) in &specs {
                let terms: Vec<(VarId, f64)> =
                    listed.iter().map(|&(v, c)| (vars[v], COEFFS[c])).collect();
                let mut expr = LinExpr::constant_expr(COEFFS[*k]);
                for &(v, c) in &terms {
                    expr.add_term(v, c);
                }
                // The merge rule, stated plainly: each variable's
                // coefficients summed in listing order, zero sums dropped.
                let mut sums = std::collections::BTreeMap::new();
                for &(v, c) in &terms {
                    *sums.entry(v.index()).or_insert(0.0) += c;
                }
                let plain: Vec<(u64, u64)> = sums
                    .into_iter()
                    .filter(|&(_, c)| c != 0.0)
                    .map(|(v, c)| (v as u64, c.to_bits()))
                    .collect();
                let rule: Vec<(u64, u64)> =
                    expr.iter().map(|(v, a)| (v.index() as u64, a.to_bits())).collect();
                prop_assert_eq!(rule, plain);
                let sense = [Sense::Le, Sense::Ge, Sense::Eq][*sense];
                let rhs = f64::from(*rhs) * 0.75;
                let by_expr = p.constrain_named(Some("expr"), expr.clone(), sense, rhs);
                let mut buf = terms.clone();
                let n = merge_terms(&mut buf);
                let merged = p.constrain_terms(None::<&'static str>, &buf[..n], sense, rhs);
                expected.push((by_expr, expr.clone(), sense, (rhs - expr.constant()).to_bits()));
                expected.push((merged, expr, sense, rhs.to_bits()));
            }
            prop_assert_eq!(p.num_constraints(), expected.len());
            for (c, expr, sense, rhs_bits) in expected {
                let (terms, s, b) = p.constraint(c);
                let want: Vec<(u64, u64)> =
                    expr.iter().map(|(v, a)| (v.index() as u64, a.to_bits())).collect();
                let got: Vec<(u64, u64)> =
                    terms.iter().map(|&(v, a)| (v.index() as u64, a.to_bits())).collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(s, sense);
                prop_assert_eq!(b.to_bits(), rhs_bits);
            }
        }
    }

    #[test]
    fn names_are_shared_and_read_back() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var(format_args!("y{}", 7));
        assert_eq!((p.var_name(x), p.var_name(y)), ("x", "y7"));
        let a = p.constrain_named(Some("cap"), x.into(), Sense::Le, 1.0);
        let b = p.constrain(y.into(), Sense::Le, 1.0);
        let c = p.constrain_named(Some(String::from("cap")), y.into(), Sense::Ge, 0.0);
        assert_eq!(p.constraint_name(a), Some("cap"));
        assert_eq!(p.constraint_name(b), None);
        assert_eq!(p.constraint_name(c), Some("cap"));
        assert_eq!(p.names.len(), 1, "an equal name shares its slot");
    }
}
