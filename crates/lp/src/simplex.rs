//! Dense two-phase primal simplex with Bland anti-cycling fallback.
//!
//! This is the paper's §V solver. It no longer serves production solves
//! (those run the sparse-LU simplex of [`crate::sparse`]); it remains the
//! differential-test oracle behind
//! [`Problem::solve_reference`](crate::Problem::solve_reference).
//!
//! The implementation works on a classical dense tableau. Models are brought
//! to standard form as follows:
//!
//! * a variable with a finite lower bound `lo` is shifted, `x = lo + x'`,
//!   `x' ≥ 0`;
//! * a free variable is split, `x = x⁺ − x⁻`;
//! * a finite upper bound becomes an extra `≤` row (in the shifted variable);
//! * every row is normalized to a non-negative right-hand side (recording the
//!   sign flip so dual values can be mapped back);
//! * `≤` rows get a slack column (initially basic), `≥` rows a surplus and an
//!   artificial column, `=` rows an artificial column.
//!
//! Phase 1 minimizes the sum of artificials; phase 2 the real objective.
//! Pricing is Dantzig (most negative reduced cost) switching to Bland's rule
//! after a fixed number of iterations, which guarantees termination.

use crate::error::LpError;
use crate::problem::Problem;
use crate::solution::{Solution, Status};
use crate::EPS;

/// What a standard-form column represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ColKind {
    /// Part of user variable `var`: contributes `sign · col_value`.
    Structural { var: usize, sign: f64 },
    /// Slack of standard-form row `row` (`+1` coefficient).
    Slack { row: usize },
    /// Surplus of standard-form row `row` (`−1` coefficient).
    Surplus { row: usize },
    /// Artificial of standard-form row `row` (`+1` coefficient).
    Artificial { row: usize },
}

use crate::sparse::VarCols;

/// The dense standard-form tableau.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// `m` rows of width `ncols + 1`: columns, then RHS.
    pub(crate) tab: Vec<Vec<f64>>,
    /// Basic column index per row.
    pub(crate) basis: Vec<usize>,
    pub(crate) ncols: usize,
    pub(crate) col_kinds: Vec<ColKind>,
    /// Phase-2 cost per column, already in *minimize* orientation.
    pub(crate) costs: Vec<f64>,
    /// Current reduced-cost row for the phase-2 costs (valid after solve).
    pub(crate) z: Vec<f64>,
    /// `+1.0` for minimize, `−1.0` for maximize.
    pub(crate) sense_factor: f64,
    /// Per standard-form row: was the row negated during normalization?
    row_flip: Vec<bool>,
    /// For standard row `r`, the column whose reduced cost yields the dual:
    /// prefer the artificial, else the slack.
    dual_col: Vec<usize>,
    /// Number of leading standard rows that correspond 1:1 to user rows.
    pub(crate) user_rows: usize,
    var_cols: Vec<VarCols>,
    pub(crate) iterations: usize,
    /// Caller-supplied wall-clock / iteration budget, consulted inside
    /// the pivot loop every [`crate::recover::BUDGET_CHECK_EVERY`] pivots.
    pub(crate) budget: crate::recover::SolveBudget,
}

impl Tableau {
    /// The RHS column sits right after the `ncols` columns.
    #[inline]
    pub(crate) fn rhs(&self, r: usize) -> f64 {
        self.tab[r][self.ncols]
    }

    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.tab.len()
    }

    /// Builds the standard-form tableau for `p`.
    pub(crate) fn build(p: &Problem) -> Result<Tableau, LpError> {
        Ok(Tableau::from_std_form(crate::sparse::StdForm::build(p)?))
    }

    /// Densifies the shared CSC standard form into the classic tableau
    /// layout: one row of width `ncols + 1` per constraint (columns, then
    /// RHS). Every standard-form convention —
    /// column order, RHS normalization — is inherited
    /// from [`StdForm`](crate::sparse::StdForm), so the dense and
    /// sparse-LU engines agree on them by construction.
    pub(crate) fn from_std_form(sf: crate::sparse::StdForm) -> Tableau {
        let m = sf.m;
        let ncols = sf.ncols;
        let mut tab = vec![vec![0.0; ncols + 1]; m];
        for (j, col) in sf.cols.iter().enumerate() {
            for &(r, v) in col {
                tab[r][j] = v;
            }
        }
        for (r, row) in tab.iter_mut().enumerate() {
            row[ncols] = sf.rhs[r];
        }
        Tableau {
            tab,
            basis: sf.initial_basis,
            ncols,
            col_kinds: sf.col_kinds,
            costs: sf.costs,
            z: vec![0.0; ncols],
            sense_factor: sf.sense_factor,
            row_flip: sf.row_flip,
            dual_col: sf.dual_col,
            user_rows: sf.user_rows,
            var_cols: sf.var_cols,
            iterations: 0,
            budget: crate::recover::SolveBudget::UNLIMITED,
        }
    }

    /// Recomputes the reduced-cost row `z = c − c_B·B⁻¹A` for cost vector `c`.
    pub(crate) fn reduced_costs_for(&self, costs: &[f64]) -> Vec<f64> {
        let mut z = costs.to_vec();
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = costs[b];
            if cb != 0.0 {
                let row = &self.tab[r];
                for (j, zj) in z.iter_mut().enumerate() {
                    *zj -= cb * row[j];
                }
            }
        }
        z
    }

    /// Performs one pivot on `(row, col)`, updating the tableau, the basis
    /// and the reduced-cost row.
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let width = self.ncols + 1;
        let piv = self.tab[row][col];
        debug_assert!(piv.abs() > EPS, "pivot on near-zero element");
        let inv = 1.0 / piv;
        for j in 0..width {
            self.tab[row][j] *= inv;
        }
        // exact unit pivot column in the pivot row
        self.tab[row][col] = 1.0;
        // Split the rows around the pivot row so the elimination can stream
        // over slices instead of double-indexing every element.
        let (before, rest) = self.tab.split_at_mut(row);
        let Some((pivot_row, after)) = rest.split_first_mut() else {
            return; // row ≥ tab.len(): nothing to eliminate against
        };
        for r in before.iter_mut().chain(after.iter_mut()) {
            let factor = r[col];
            if factor != 0.0 {
                for (dst, &src) in r.iter_mut().zip(pivot_row.iter()).take(width) {
                    *dst -= factor * src;
                }
                r[col] = 0.0;
            }
        }
        let zfac = self.z[col];
        if zfac != 0.0 {
            for j in 0..self.ncols {
                self.z[j] -= zfac * self.tab[row][j];
            }
            self.z[col] = 0.0;
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Primal simplex on the current basis for cost vector `costs`
    /// (minimize). `allow_artificial_entering` is true only in phase 1.
    ///
    /// Returns `Ok(true)` on optimal, `Ok(false)` on unbounded.
    fn primal_loop(
        &mut self,
        costs: &[f64],
        allow_artificial_entering: bool,
        limit: usize,
    ) -> Result<bool, LpError> {
        self.z = self.reduced_costs_for(costs);
        let bland_after = self.iterations + 10 * (self.rows() + self.ncols);
        loop {
            if self.iterations > limit {
                return Err(LpError::IterationLimit { limit });
            }
            if self
                .iterations
                .is_multiple_of(crate::recover::BUDGET_CHECK_EVERY)
            {
                self.budget.check(self.iterations)?;
            }
            let bland = self.iterations > bland_after;
            // entering column
            let mut enter = None;
            let mut best = -EPS;
            for j in 0..self.ncols {
                if !allow_artificial_entering
                    && matches!(self.col_kinds[j], ColKind::Artificial { .. })
                {
                    continue;
                }
                if self.z[j] < -EPS {
                    if bland {
                        enter = Some(j);
                        break;
                    }
                    if self.z[j] < best {
                        best = self.z[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(jc) = enter else {
                return Ok(true); // optimal
            };
            // ratio test
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows() {
                let a = self.tab[r][jc];
                if a > EPS {
                    let ratio = self.rhs(r) / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(r) = leave else {
                return Ok(false); // unbounded in this phase
            };
            self.pivot(r, jc);
        }
    }

    /// Sum of artificial basic values (the phase-1 objective).
    fn artificial_infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| matches!(self.col_kinds[b], ColKind::Artificial { .. }))
            .map(|(r, _)| self.rhs(r))
            .sum()
    }

    /// Runs phase 1 + phase 2.
    pub(crate) fn optimize(&mut self) -> Result<Status, LpError> {
        let limit = 50_000 + 200 * (self.rows() + self.ncols);

        // Phase 1 (skip when no artificials exist).
        let has_art = self
            .col_kinds
            .iter()
            .any(|k| matches!(k, ColKind::Artificial { .. }));
        if has_art {
            let phase1_costs: Vec<f64> = self
                .col_kinds
                .iter()
                .map(|k| {
                    if matches!(k, ColKind::Artificial { .. }) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let optimal = self.primal_loop(&phase1_costs, true, limit)?;
            debug_assert!(optimal, "phase-1 objective is bounded below by zero");
            // NOTE: absolute threshold — adequate for the 0/±1-coefficient
            // SMO matrices this crate serves; models with very large RHS
            // magnitudes should be scaled by the caller.
            if self.artificial_infeasibility() > 1e-7 {
                return Ok(Status::Infeasible);
            }
            // Drive remaining artificials out of the basis where possible.
            for r in 0..self.rows() {
                if matches!(self.col_kinds[self.basis[r]], ColKind::Artificial { .. }) {
                    if let Some(j) = (0..self.ncols).find(|&j| {
                        !matches!(self.col_kinds[j], ColKind::Artificial { .. })
                            && self.tab[r][j].abs() > EPS
                    }) {
                        self.pivot(r, j);
                    }
                    // else: redundant row; inert because artificials never
                    // re-enter and all its non-artificial entries are ~0.
                }
            }
        }

        // Phase 2.
        let costs = self.costs.clone();
        let optimal = self.primal_loop(&costs, false, limit)?;
        if optimal {
            Ok(Status::Optimal)
        } else {
            Ok(Status::Unbounded)
        }
    }

    /// Current value of each standard-form column at the basic solution.
    fn column_values(&self) -> Vec<f64> {
        let mut vals = vec![0.0; self.ncols];
        for (r, &b) in self.basis.iter().enumerate() {
            vals[b] = self.rhs(r);
        }
        vals
    }

    /// Maps the basic solution back to user-variable values.
    pub(crate) fn user_values(&self) -> Vec<f64> {
        let cols = self.column_values();
        self.user_values_from(&cols)
    }

    /// Maps arbitrary standard-form column values back to user variables.
    pub(crate) fn user_values_from(&self, cols: &[f64]) -> Vec<f64> {
        self.var_cols
            .iter()
            .map(|vc| match *vc {
                VarCols::Shifted { col, shift } => cols[col] + shift,
                VarCols::Split { pos, neg } => cols[pos] - cols[neg],
            })
            .collect()
    }

    /// Maps a standard-row dual vector back to user rows undoing only the
    /// normalization flips — **not** the objective orientation.
    ///
    /// Used for phase-1 (feasibility) duals, which are independent of
    /// whether the user minimizes or maximizes. Multipliers of internal
    /// upper-bound rows (standard rows past `user_rows`) are dropped; the
    /// certificate stays valid because each dropped row is `x_i ≤ u_i`
    /// with `y ≤ 0`, which the variable-box supremum check used by
    /// [`certifies_infeasibility`](crate::certifies_infeasibility) already
    /// accounts for.
    pub(crate) fn map_feasibility_duals(&self, y: &[f64]) -> Vec<f64> {
        (0..self.user_rows)
            .map(|r| if self.row_flip[r] { -y[r] } else { y[r] })
            .collect()
    }

    /// Phase-1 duals per standard row, read off the phase-1 reduced-cost
    /// row. Only meaningful right after phase 1 terminated infeasible (no
    /// phase-2 pivots may have run since).
    ///
    /// Each row's dual comes from the reduced cost of its designated
    /// logical column `j`: `z_j = c_j − y·a_j`, and `a_j` is `±e_r`, so a
    /// slack (`c = 0`, `a = +e_r`) gives `y_r = −z_j` and an artificial
    /// (`c = 1` in phase 1, `a = +e_r`) gives `y_r = 1 − z_j`.
    pub(crate) fn phase1_duals(&self) -> Vec<f64> {
        (0..self.rows())
            .map(|r| {
                let col = self.dual_col[r];
                match self.col_kinds[col] {
                    ColKind::Slack { .. } => -self.z[col],
                    ColKind::Artificial { .. } => 1.0 - self.z[col],
                    ColKind::Surplus { .. } | ColKind::Structural { .. } => {
                        unreachable!("dual col is a slack or artificial")
                    }
                }
            })
            .collect()
    }

    /// Objective value in the *user's* orientation (NaN if the problem has
    /// no objective, which `validate` rules out before any solve).
    pub(crate) fn user_objective(&self, p: &Problem) -> f64 {
        let values = self.user_values();
        p.objective
            .as_ref()
            .map_or(f64::NAN, |(_, obj)| obj.eval(&values))
    }

    /// Dual value of each user constraint, in the user's orientation and
    /// original row signs.
    pub(crate) fn user_duals(&self) -> Vec<f64> {
        (0..self.user_rows)
            .map(|r| {
                let col = self.dual_col[r];
                let y = match self.col_kinds[col] {
                    ColKind::Slack { .. } => -self.z[col],
                    ColKind::Artificial { .. } => -self.z[col],
                    ColKind::Surplus { .. } => self.z[col],
                    ColKind::Structural { .. } => unreachable!("dual col is logical"),
                };
                let y = if self.row_flip[r] { -y } else { y };
                self.sense_factor * y
            })
            .collect()
    }

    /// Reduced cost of each user variable (positive part for split vars), in
    /// the user's orientation.
    pub(crate) fn user_reduced_costs(&self) -> Vec<f64> {
        self.var_cols
            .iter()
            .map(|vc| {
                let col = match *vc {
                    VarCols::Shifted { col, .. } => col,
                    VarCols::Split { pos, .. } => pos,
                };
                self.sense_factor * self.z[col]
            })
            .collect()
    }
}

/// Solves `p` on the dense tableau under `budget`.
pub(crate) fn solve_dense(
    p: &Problem,
    budget: crate::recover::SolveBudget,
) -> Result<Solution, LpError> {
    let mut t = Tableau::build(p)?;
    t.budget = budget;
    let status = t.optimize()?;
    Ok(match status {
        Status::Optimal => package_optimal(p, &t),
        _ => Solution {
            status,
            objective: None,
            values: vec![],
            duals: vec![],
            reduced_costs: vec![],
            slacks: vec![],
            iterations: t.iterations,
            // When phase 1 ends with positive artificial mass, its duals
            // are exactly a Farkas certificate of infeasibility.
            farkas: (status == Status::Infeasible)
                .then(|| t.map_feasibility_duals(&t.phase1_duals())),
        },
    })
}

/// Packages an optimal tableau (reduced costs in `t.z`) as a [`Solution`].
fn package_optimal(p: &Problem, t: &Tableau) -> Solution {
    let values = t.user_values();
    let slacks = p.slacks(&values);
    Solution {
        status: Status::Optimal,
        objective: Some(t.user_objective(p)),
        duals: t.user_duals(),
        reduced_costs: t.user_reduced_costs(),
        values,
        slacks,
        iterations: t.iterations,
        farkas: None,
    }
}

#[cfg(test)]
mod tests {
    use crate::{LinExpr, Problem, Sense, Status, VarId};

    /// The unit tests below exercise the dense tableau itself.
    fn reference(p: &Problem) -> Result<crate::Solution, crate::LpError> {
        p.solve_reference(crate::SolveBudget::UNLIMITED)
    }

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    #[test]
    fn solves_textbook_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> z* = 36 at (2,6)
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x.into(), Sense::Le, 4.0);
        p.constrain(2.0 * y, Sense::Le, 12.0);
        p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 36.0));
        assert!(near(s.value(x), 2.0));
        assert!(near(s.value(y), 6.0));
    }

    #[test]
    fn solves_min_with_ge_rows() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> z* = 8 at (4, 0)? check:
        // candidates: (4,0) z=8; (1,3) z=11 -> optimum (4,0).
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Ge, 4.0);
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.minimize(2.0 * x + 3.0 * y);
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 8.0));
        assert!(near(s.value(x), 4.0));
        assert!(near(s.value(y), 0.0));
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Le, 1.0);
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(x.into());
        assert_eq!(reference(&p).unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 1.0);
        p.maximize(x.into());
        assert_eq!(reference(&p).unwrap().status(), Status::Unbounded);
    }

    #[test]
    fn equality_rows_via_artificials() {
        // min x + y s.t. x + 2y = 6, x - y = 0  -> x = y = 2, z = 4
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + 2.0 * y, Sense::Eq, 6.0);
        p.constrain(x - y, Sense::Eq, 0.0);
        p.minimize(x + y);
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 2.0));
        assert!(near(s.value(y), 2.0));
        assert!(near(s.objective(), 4.0));
    }

    #[test]
    fn free_variables_split() {
        // min |style|: min t s.t. t >= x - 3, t >= 3 - x with x free and
        // x = 5 forced -> t = 2.
        let mut p = Problem::new();
        let x = p.add_free_var("x");
        let t = p.add_var("t");
        p.constrain(LinExpr::from(t) - x, Sense::Ge, -3.0);
        p.constrain(LinExpr::from(t) + x, Sense::Ge, 3.0);
        p.constrain(x.into(), Sense::Eq, 5.0);
        p.minimize(t.into());
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 5.0));
        assert!(near(s.value(t), 2.0));
    }

    #[test]
    fn negative_lower_bounds_shift() {
        // min x s.t. x >= -5 with domain [-10, inf) -> x* = -5
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", -10.0, f64::INFINITY);
        p.constrain(x.into(), Sense::Ge, -5.0);
        p.minimize(x.into());
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), -5.0));
        assert!(near(s.objective(), -5.0));
    }

    #[test]
    fn upper_bounds_enforced() {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, 3.5);
        p.maximize(x.into());
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 3.5));
    }

    #[test]
    fn duals_match_shadow_prices() {
        // max 3x + 5y as in `solves_textbook_max`; known duals y* = (0, 1.5, 1)
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let c1 = p.constrain(x.into(), Sense::Le, 4.0);
        let c2 = p.constrain(2.0 * y, Sense::Le, 12.0);
        let c3 = p.constrain(3.0 * x + 2.0 * y, Sense::Le, 18.0);
        p.maximize(3.0 * x + 5.0 * y);
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.dual(c1), 0.0), "dual c1 = {}", s.dual(c1));
        assert!(near(s.dual(c2), 1.5), "dual c2 = {}", s.dual(c2));
        assert!(near(s.dual(c3), 1.0), "dual c3 = {}", s.dual(c3));
        // slack of c1 at (2,6) is 2
        assert!(near(s.slack(c1), 2.0));
        assert!(near(s.slack(c2), 0.0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple redundant constraints through a vertex.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Le, 1.0);
        p.constrain(x + y, Sense::Le, 1.0);
        p.constrain(2.0 * x + 2.0 * y, Sense::Le, 2.0);
        p.constrain(x - y, Sense::Le, 0.0);
        p.maximize(x + y);
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 1.0));
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 listed twice: phase 1 leaves a redundant artificial basic.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(x + y, Sense::Eq, 2.0);
        p.constrain(x + y, Sense::Eq, 2.0);
        p.minimize(x.into());
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.value(x), 0.0));
        assert!(near(s.value(y), 2.0));
    }

    #[test]
    fn smo_shaped_problem() {
        // A miniature of the SMO LP: min Tc with a borrowing chain.
        // Tc >= D + 5; D >= 7 - g; g <= Tc/2 encoded as 2g - Tc <= 0.
        let mut p = Problem::new();
        let tc = p.add_var("Tc");
        let d = p.add_var("D");
        let g = p.add_var("g");
        p.constrain(LinExpr::from(tc) - d, Sense::Ge, 5.0);
        p.constrain(LinExpr::from(d) + g, Sense::Ge, 7.0);
        p.constrain(2.0 * g - tc, Sense::Le, 0.0);
        p.minimize(tc.into());
        let s = reference(&p).unwrap().into_optimal().unwrap();
        // Tc = D + 5, D = 7 - g, g = Tc/2 -> Tc = 12 - Tc/2 -> Tc = 8
        assert!(near(s.objective(), 8.0), "Tc = {}", s.objective());
    }

    #[test]
    fn objective_constant_is_respected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(x.into(), Sense::Ge, 2.0);
        p.minimize(LinExpr::from(x) + 10.0);
        let s = reference(&p).unwrap().into_optimal().unwrap();
        assert!(near(s.objective(), 12.0));
    }

    #[test]
    fn var_id_index_is_stable() {
        let mut p = Problem::new();
        let a = p.add_var("a");
        let b = p.add_var("b");
        assert_eq!(a, VarId(0));
        assert_eq!(b.index(), 1);
    }
}
