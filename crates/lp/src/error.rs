//! Error type for the LP solver.

use std::error::Error;
use std::fmt;

/// Errors reported by [`Problem::solve`](crate::Problem::solve) and the
/// other solver entry points.
///
/// Note that an *infeasible* or *unbounded* model is **not** an error: those
/// are normal outcomes reported through [`Status`](crate::Status). `LpError`
/// covers misuse of the API and numerical breakdown.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The model has no objective (call `minimize`/`maximize` first).
    MissingObjective,
    /// The model has no variables.
    EmptyModel,
    /// A variable's lower bound exceeds its upper bound.
    InvalidBounds {
        /// Name of the offending variable.
        var: String,
        /// Declared lower bound.
        lower: f64,
        /// Declared upper bound.
        upper: f64,
    },
    /// A coefficient, bound or right-hand side is NaN or infinite where a
    /// finite value is required.
    NonFiniteInput {
        /// Human-readable location of the bad value.
        context: String,
    },
    /// The simplex iteration limit was exceeded (indicates severe degeneracy
    /// or a solver defect; should not occur in practice thanks to Bland's
    /// rule).
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// An optimal solution was requested from a solution that is not optimal.
    NotOptimal {
        /// The actual termination status.
        status: crate::Status,
    },
    /// Numerical breakdown inside the solver (e.g. a singular basis during
    /// refactorization). Should not occur; please report.
    Numerical {
        /// Where the breakdown happened.
        context: String,
    },
    /// The caller's [`SolveBudget`](crate::SolveBudget) was exhausted
    /// before the solve terminated.
    Budget {
        /// Units of work completed when the budget ran out, counted in
        /// `unit`.
        iterations: usize,
        /// `true` when the wall-clock deadline expired; `false` when the
        /// iteration allowance ran out.
        timed_out: bool,
        /// What `iterations` counts: simplex pivots or graph passes.
        unit: BudgetUnit,
    },
    /// Every rung of the recovery ladder was exhausted without producing
    /// a verdict that certifies against the original problem
    /// (see [`Problem::solve_certified`](crate::Problem::solve_certified)).
    CertificationFailed {
        /// Recovery-ladder rungs attempted (including the initial solve).
        steps: usize,
        /// Name of the optimality condition with the worst residual in
        /// the best attempt.
        condition: &'static str,
        /// That worst relative residual.
        residual: f64,
    },
}

/// The unit of work a [`SolveBudget`](crate::SolveBudget) allowance is
/// counted in, so a budget error names the solver that ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetUnit {
    /// Pivots of the simplex method.
    SimplexIterations,
    /// Passes of the graph solver's Bellman–Ford: FIFO generations of the
    /// nodes whose labels dropped, each at most one scan of every arc.
    BellmanFordPasses,
}

impl fmt::Display for BudgetUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetUnit::SimplexIterations => "simplex iterations",
            BudgetUnit::BellmanFordPasses => "Bellman–Ford passes",
        })
    }
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::MissingObjective => write!(f, "model has no objective"),
            LpError::EmptyModel => write!(f, "model has no variables"),
            LpError::InvalidBounds { var, lower, upper } => write!(
                f,
                "variable `{var}` has lower bound {lower} greater than upper bound {upper}"
            ),
            LpError::NonFiniteInput { context } => {
                write!(f, "non-finite value in {context}")
            }
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} exceeded")
            }
            LpError::NotOptimal { status } => {
                write!(f, "solution is not optimal (status: {status})")
            }
            LpError::Numerical { context } => {
                write!(f, "numerical breakdown in {context}")
            }
            LpError::Budget {
                iterations,
                timed_out,
                unit,
            } => {
                let what = if *timed_out {
                    "wall-clock deadline"
                } else {
                    "iteration allowance"
                };
                write!(
                    f,
                    "solve budget exhausted ({what}) after {iterations} {unit}"
                )
            }
            LpError::CertificationFailed {
                steps,
                condition,
                residual,
            } => write!(
                f,
                "no certified verdict after {steps} recovery step(s); best attempt fails the \
                 {condition} check with relative residual {residual:.3e}"
            ),
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LpError::InvalidBounds {
            var: "x".into(),
            lower: 3.0,
            upper: 1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("x"));
        assert!(msg.contains("3"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn budget_errors_name_the_work_that_ran() {
        let simplex = LpError::Budget {
            iterations: 64,
            timed_out: false,
            unit: BudgetUnit::SimplexIterations,
        };
        assert_eq!(
            simplex.to_string(),
            "solve budget exhausted (iteration allowance) after 64 simplex iterations"
        );
        let graph = LpError::Budget {
            iterations: 12,
            timed_out: true,
            unit: BudgetUnit::BellmanFordPasses,
        };
        assert_eq!(
            graph.to_string(),
            "solve budget exhausted (wall-clock deadline) after 12 Bellman–Ford passes"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
