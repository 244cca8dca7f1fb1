//! Certified solves: budgets, the recovery ladder, and
//! [`Problem::solve_certified`].
//!
//! A production timing engine must never return a silently-wrong cycle
//! time. [`Problem::solve_certified`] therefore treats the simplex as an
//! untrusted oracle: every verdict is machine-checked against the
//! *original* problem ([`Solution::certify`] for `Optimal`,
//! [`certifies_infeasibility`](crate::certifies_infeasibility) for
//! `Infeasible`), and when a check fails — or the solver itself errors
//! with an iteration limit or numerical breakdown — a **recovery ladder**
//! is walked, cheapest rung first:
//!
//! 1. **Initial solve**, candidate-list devex pricing.
//! 2. **Geometric-mean equilibration** ([`crate::scale`]) — re-solve the
//!    rescaled model; cures the badly-scaled instances that defeat the
//!    solver's absolute phase-1 threshold. The certificate is still
//!    checked in *unscaled* space against the original problem.
//! 3. **Alternate pricing** — the equilibrated model again, under Bland's
//!    rule: a fresh factorization along a different pivot path, which
//!    sidesteps the degenerate stalls and ill-conditioned bases one path
//!    can run into.
//! 4. **Iterative refinement** — one round: the best candidate point is
//!    shifted to the origin and the residual problem re-solved at a
//!    power-of-two zoom factor, recovering digits the first solve lost.
//!
//! Every rung runs the sparse-LU simplex: a dense engine as a fallback
//! would need `O(rows × columns)` memory, which rules it out at the
//! 50k-row sizes the sparse path exists for.
//!
//! Exhaustion never fabricates an answer: it returns
//! [`LpError::CertificationFailed`] carrying the worst residual of the
//! best attempt. All rungs honor a shared [`SolveBudget`] (wall-clock
//! deadline + iteration allowance) checked inside the pivot loop.

use crate::error::{BudgetUnit, LpError};
use crate::iis::certifies_infeasibility;
use crate::problem::Problem;
use crate::scale::equilibrate;
use crate::solution::{Solution, Status};
use crate::verify::Certificate;
use std::time::{Duration, Instant};

/// How often (in pivots) the simplex loops consult the budget. Cheap
/// enough to be invisible, frequent enough that a deadline overshoot is
/// bounded by a few dozen pivots.
pub(crate) const BUDGET_CHECK_EVERY: usize = 64;

/// A wall-clock and iteration allowance for one or more solves.
///
/// Both limits are optional; [`SolveBudget::UNLIMITED`] (the `Default`)
/// imposes neither. The simplex pivot loops check the budget every
/// `BUDGET_CHECK_EVERY` iterations and abort with [`LpError::Budget`]
/// when it is exhausted, so a pathological model degrades into a
/// structured error instead of a hung process.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveBudget {
    /// Maximum total simplex iterations across the solve, or Bellman–Ford
    /// passes on the graph path (`None` = no limit). This is *in addition
    /// to* the solver's built-in degeneracy-guard iteration limit.
    pub max_iterations: Option<usize>,
    /// Absolute wall-clock deadline (`None` = no limit).
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// No limits.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        max_iterations: None,
        deadline: None,
    };

    /// A budget expiring `limit` from now.
    pub fn with_time_limit(limit: Duration) -> Self {
        SolveBudget {
            max_iterations: None,
            deadline: Instant::now().checked_add(limit),
        }
    }

    /// A budget allowing at most `n` simplex iterations (or Bellman–Ford
    /// passes on the graph path).
    pub fn with_max_iterations(n: usize) -> Self {
        SolveBudget {
            max_iterations: Some(n),
            deadline: None,
        }
    }

    /// Checks the budget at `iterations` pivots; `Err(LpError::Budget)`
    /// when exhausted.
    pub(crate) fn check(&self, iterations: usize) -> Result<(), LpError> {
        self.check_work(iterations, BudgetUnit::SimplexIterations)
    }

    /// Checks the budget after `done` units of `unit` work; the graph
    /// solver counts Bellman–Ford passes where the simplex counts pivots.
    pub(crate) fn check_work(&self, done: usize, unit: BudgetUnit) -> Result<(), LpError> {
        let exhausted = |timed_out| LpError::Budget {
            iterations: done,
            timed_out,
            unit,
        };
        if let Some(limit) = self.max_iterations {
            if done >= limit {
                return Err(exhausted(false));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(exhausted(true));
            }
        }
        Ok(())
    }
}

/// One rung of the recovery ladder, recorded in the order attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Plain solve.
    Initial,
    /// Re-solve after geometric-mean row/column equilibration.
    Equilibrated,
    /// Re-solve of the equilibrated model under Bland pricing.
    AlternatePricing,
    /// One round of iterative refinement on the best candidate point.
    Refined,
}

impl RecoveryStep {
    /// Short human-readable name (for logs and reports).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryStep::Initial => "initial",
            RecoveryStep::Equilibrated => "equilibrated",
            RecoveryStep::AlternatePricing => "alternate-pricing",
            RecoveryStep::Refined => "refined",
        }
    }
}

/// Policy for [`Problem::solve_certified`]: the shared budget every rung
/// draws from.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPolicy {
    /// Budget shared across all rungs. A `deadline` bounds the whole
    /// ladder; `max_iterations` bounds each individual solve.
    pub budget: SolveBudget,
}

/// A solution whose verdict has been machine-checked against the original
/// problem, together with the provenance of how it was obtained.
#[derive(Debug, Clone)]
pub struct CertifiedSolution {
    solution: Solution,
    certificate: Option<Certificate>,
    steps: Vec<RecoveryStep>,
    iterations: usize,
    elapsed: Duration,
}

impl CertifiedSolution {
    /// The underlying solution (status, values, duals, …).
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Consumes the wrapper, returning the underlying solution.
    pub fn into_solution(self) -> Solution {
        self.solution
    }

    /// Termination status of the certified solve.
    pub fn status(&self) -> Status {
        self.solution.status()
    }

    /// The optimality certificate (`Some` exactly when the status is
    /// [`Status::Optimal`]; an infeasible verdict is certified through its
    /// Farkas vector instead).
    pub fn certificate(&self) -> Option<&Certificate> {
        self.certificate.as_ref()
    }

    /// The ladder rungs attempted, in order; the last one produced this
    /// solution. A clean first solve yields just `[Initial(_)]`.
    pub fn steps(&self) -> &[RecoveryStep] {
        &self.steps
    }

    /// Total simplex iterations consumed across all rungs.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Wall-clock time consumed by the whole ladder.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// One round of iterative refinement: re-solve the residual problem
/// around `candidate` at a power-of-two zoom `alpha` and combine.
///
/// The correction problem keeps `A` and `c` and shifts the data:
/// `lo' = α(lo − x̂)`, `ub' = α(ub − x̂)`, `b' = α(b − A x̂)`. Its duals
/// and reduced costs are directly valid for the original (`A`, `c`
/// unchanged; the `α` factors cancel in `∂z/∂b`), and the corrected point
/// is `x* = x̂ + δ*/α`.
fn refine(p: &Problem, candidate: &Solution, budget: SolveBudget) -> Result<Solution, LpError> {
    let xh = &candidate.values;
    if xh.len() != p.vars.len() || xh.iter().any(|v| !v.is_finite()) {
        return Err(LpError::Numerical {
            context: "iterative refinement: non-finite candidate point".into(),
        });
    }
    // Zoom factor from the candidate's worst absolute residual, rounded
    // to a power of two so the shift arithmetic is exact to apply/undo.
    let cert = candidate.certify(p);
    let res = cert.worst().max(1e-15);
    let alpha = if res.is_finite() {
        (1.0 / res).log2().floor().clamp(0.0, 40.0).exp2()
    } else {
        1.0
    };

    let mut shifted = p.clone();
    for (v, &x) in shifted.vars.iter_mut().zip(xh) {
        v.lower = if v.lower.is_finite() {
            alpha * (v.lower - x)
        } else {
            v.lower
        };
        v.upper = if v.upper.is_finite() {
            alpha * (v.upper - x)
        } else {
            v.upper
        };
    }
    for r in shifted.rows.iter_mut() {
        r.rhs = alpha * (r.rhs - r.expr.eval(xh));
    }

    let delta = shifted.solve_with_budget(budget)?;
    if delta.status() != Status::Optimal {
        // The original was (claimed) optimal; a non-optimal correction
        // means the candidate was far off. Report rather than guess.
        return Err(LpError::NotOptimal {
            status: delta.status(),
        });
    }
    let mut out = delta.clone();
    for (x, (&d, &xhj)) in out.values.iter_mut().zip(delta.values.iter().zip(xh)) {
        *x = xhj + d / alpha;
    }
    // duals and reduced costs carry over unchanged; recompute slacks and
    // the objective on original data.
    out.slacks = p
        .rows
        .iter()
        .map(|r| {
            let lhs = r.expr.eval(&out.values);
            match r.sense {
                crate::problem::Sense::Le | crate::problem::Sense::Eq => r.rhs - lhs,
                crate::problem::Sense::Ge => lhs - r.rhs,
            }
        })
        .collect();
    if let Some((_, obj)) = p.objective.as_ref() {
        out.objective = Some(obj.eval(&out.values));
    }
    Ok(out)
}

/// Outcome of one ladder rung: a solution to judge, or a solver error to
/// record and step past.
type RungResult = Result<Solution, LpError>;

impl Problem {
    /// Solves with every verdict machine-checked against this (original)
    /// problem, walking the recovery ladder on failure. The docs of the
    /// `recover` module give the rungs and their rationale.
    ///
    /// # Errors
    ///
    /// [`LpError::Budget`] when the shared budget expires;
    /// [`LpError::CertificationFailed`] when every rung was tried and no
    /// verdict certifies; any structural error ([`LpError::EmptyModel`],
    /// …) immediately, since no amount of re-solving fixes those.
    pub fn solve_certified(&self, policy: &RecoveryPolicy) -> Result<CertifiedSolution, LpError> {
        let start = Instant::now();
        let budget = policy.budget;
        let mut steps: Vec<RecoveryStep> = Vec::new();
        let mut iterations = 0usize;
        // Best failed certificate (for the final error) and best optimal
        // candidate (for the refinement rung).
        let mut best_cert: Option<Certificate> = None;
        let mut candidate: Option<Solution> = None;

        let rungs = [
            RecoveryStep::Initial,
            RecoveryStep::Equilibrated,
            RecoveryStep::AlternatePricing,
            RecoveryStep::Refined,
        ];
        for rung in rungs {
            steps.push(rung);
            let attempt: RungResult = match rung {
                RecoveryStep::Initial => self.solve_with_budget(budget),
                RecoveryStep::Equilibrated | RecoveryStep::AlternatePricing => {
                    // The alternate path prices by Bland from the start.
                    let bland = rung == RecoveryStep::AlternatePricing;
                    let (scaled, eq) = equilibrate(self);
                    scaled
                        .validate()
                        .and_then(|()| crate::sparse::solve_budgeted(&scaled, budget, bland))
                        .map(|s| eq.unscale(self, &s))
                }
                RecoveryStep::Refined => match candidate.as_ref() {
                    Some(c) => refine(self, c, budget),
                    None => Err(LpError::Numerical {
                        context: "refinement: no optimal candidate to refine".into(),
                    }),
                },
            };

            let sol = match attempt {
                Ok(sol) => sol,
                // Budget exhaustion ends the whole ladder: later rungs
                // share the same deadline and would also run out.
                Err(e @ LpError::Budget { .. }) => return Err(e),
                // Structural errors cannot be recovered by re-solving.
                Err(
                    e @ (LpError::MissingObjective
                    | LpError::EmptyModel
                    | LpError::InvalidBounds { .. }
                    | LpError::NonFiniteInput { .. }),
                ) => return Err(e),
                // Numerical trouble: record and try the next rung.
                Err(_) => continue,
            };
            iterations += sol.iterations();

            match sol.status() {
                Status::Optimal => {
                    let cert = sol.certify(self);
                    if cert.is_valid() {
                        return Ok(CertifiedSolution {
                            solution: sol,
                            certificate: Some(cert),
                            steps,
                            iterations,
                            elapsed: start.elapsed(),
                        });
                    }
                    // Keep the best-certified candidate for refinement
                    // and the final error report.
                    let better = best_cert.as_ref().is_none_or(|b| cert.worst() < b.worst());
                    if better {
                        best_cert = Some(cert);
                        candidate = Some(sol);
                    } else if candidate.is_none() {
                        candidate = Some(sol);
                    }
                }
                Status::Infeasible => {
                    // An infeasible verdict is accepted only with a
                    // checked Farkas certificate.
                    if sol
                        .farkas()
                        .is_some_and(|y| certifies_infeasibility(self, y))
                    {
                        return Ok(CertifiedSolution {
                            solution: sol,
                            certificate: None,
                            steps,
                            iterations,
                            elapsed: start.elapsed(),
                        });
                    }
                }
                Status::Unbounded => {
                    // Unboundedness has no compact certificate here; it is
                    // a structural property (a cost ray), not a numerical
                    // one, which every pricing rule agrees on in practice.
                    // Accept, recording the provenance.
                    return Ok(CertifiedSolution {
                        solution: sol,
                        certificate: None,
                        steps,
                        iterations,
                        elapsed: start.elapsed(),
                    });
                }
            }
        }

        let (condition, residual) = best_cert
            .as_ref()
            .map(Certificate::worst_named)
            .unwrap_or(("primal", f64::INFINITY));
        Err(LpError::CertificationFailed {
            steps: steps.len(),
            condition,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::Sense;

    fn sample() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            4.0,
        );
        p.constrain(LinExpr::term(x, 1.0), Sense::Le, 3.0);
        p.minimize(LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0));
        p
    }

    #[test]
    fn clean_solve_takes_one_step() {
        let cs = sample()
            .solve_certified(&RecoveryPolicy::default())
            .expect("certifies");
        assert_eq!(cs.status(), Status::Optimal);
        assert_eq!(cs.steps().len(), 1);
        assert_eq!(cs.steps(), [RecoveryStep::Initial]);
        assert!(cs
            .certificate()
            .expect("optimal has certificate")
            .is_valid());
        assert!(cs.iterations() > 0);
    }

    #[test]
    fn infeasible_verdict_is_farkas_checked() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.constrain(LinExpr::term(x, 1.0), Sense::Ge, 5.0);
        p.constrain(LinExpr::term(x, 1.0), Sense::Le, 1.0);
        p.minimize(LinExpr::term(x, 1.0));
        let cs = p
            .solve_certified(&RecoveryPolicy::default())
            .expect("verdict");
        assert_eq!(cs.status(), Status::Infeasible);
        assert!(cs.certificate().is_none());
    }

    #[test]
    fn badly_scaled_model_still_certifies() {
        // Mixed ps/s magnitudes: coefficients spanning 1e-6..1e9.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.constrain(
            LinExpr::term(x, 1e9) + LinExpr::term(y, 1e-6),
            Sense::Ge,
            2e9,
        );
        p.constrain(LinExpr::term(y, 1e-6), Sense::Ge, 3e-6);
        p.minimize(LinExpr::term(x, 1.0) + LinExpr::term(y, 1e-9));
        let cs = p
            .solve_certified(&RecoveryPolicy::default())
            .expect("certifies");
        assert_eq!(cs.status(), Status::Optimal);
        assert!(cs.certificate().expect("certificate").is_valid());
    }

    #[test]
    fn iteration_budget_surfaces_as_budget_error() {
        let p = sample();
        let policy = RecoveryPolicy {
            budget: SolveBudget::with_max_iterations(0),
        };
        match p.solve_certified(&policy) {
            Err(LpError::Budget { timed_out, .. }) => assert!(!timed_out),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_surfaces_as_timeout() {
        let p = sample();
        let policy = RecoveryPolicy {
            budget: SolveBudget {
                max_iterations: None,
                deadline: Some(Instant::now()),
            },
        };
        match p.solve_certified(&policy) {
            Err(LpError::Budget { timed_out, .. }) => assert!(timed_out),
            other => panic!("expected budget timeout, got {other:?}"),
        }
    }

    #[test]
    fn refinement_recovers_a_perturbed_candidate() {
        let p = sample();
        let mut candidate = p.solve().expect("solves");
        // Knock the point slightly off-vertex, as accumulated pivot error
        // would; refinement must land back on a certified optimum.
        candidate.values[0] += 1e-4;
        candidate.values[1] -= 1e-4;
        let refined = refine(&p, &candidate, SolveBudget::UNLIMITED).expect("refines");
        assert!(refined.certify(&p).is_valid(), "{}", refined.certify(&p));
    }
}
