//! # smo-lp — a sparse-LU simplex linear-programming solver
//!
//! This crate is the linear-programming substrate of the SMO latch-timing
//! reproduction. The paper's initial implementation used "a dense-matrix LP
//! solver which implements the standard simplex algorithm" (§V); this crate
//! keeps that dense tableau as its reference oracle and solves with a
//! sparse-LU revised simplex, all built from scratch:
//!
//! * a [`Problem`] builder with named variables, bounds, and linear
//!   constraints in `≤` / `≥` / `=` form ([`Sense`]),
//! * a two-phase primal simplex over a sparse LU factorization of the
//!   basis ([`LuFactors`]), whose FTRAN and BTRAN are plain loops over the
//!   sparse L, U and eta factors, with candidate-list devex pricing and a
//!   Bland anti-cycling fallback ([`Problem::solve`]),
//! * dual values, reduced costs, and slacks on the returned [`Solution`]
//!   (the timing engine's delay sensitivities on models outside the
//!   difference fragment),
//! * the dense tableau itself as a differential-test oracle
//!   ([`Problem::solve_reference`]),
//! * infeasibility diagnosis: infeasible solves carry a Farkas certificate
//!   ([`Solution::farkas`]) and [`extract_iis`] reduces the conflict to an
//!   irreducible infeasible subsystem of named rows ([`extract_graph_iis`]
//!   does the same from a graph negative cycle, without the simplex),
//! * independent optimality checking ([`certify_kkt`] returning a
//!   [`Certificate`] of KKT residuals for any primal/dual pair, the one
//!   checker behind [`Solution::certify`] and the timing engine's graph
//!   path) and certified solving with a
//!   numerical recovery ladder ([`Problem::solve_certified`]):
//!   geometric-mean equilibration, Bland pricing on a fresh factorization,
//!   and one round of iterative refinement, all verified against the
//!   *original* problem,
//! * solve budgets ([`SolveBudget`]): wall-clock deadlines and iteration
//!   allowances enforced inside the pivot loops,
//! * a difference-constraint fast path ([`classify`], [`DifferenceSystem`]):
//!   rows recognized as two-variable differences `x_i − x_j ≤ base + slope·λ`
//!   solve by Bellman–Ford feasibility and Lawler's exact min-cycle-ratio
//!   iteration instead of the simplex, with negative-cycle infeasibility
//!   certificates that [`certifies_infeasibility`] checks exactly like an LP
//!   Farkas vector.
//!
//! Every simplex solve is cold: it starts from the all-logical basis and
//! runs both phases. The paper solves P2 once per design (§V), and every
//! model the timing engine builds from a netlist is a pure difference
//! system that the graph path settles with no pivots — the optimum, its
//! critical cycle (the critical segments and delay sensitivities) and,
//! under an impossible cap, the conflict; the critical cycle's rows are
//! also the LP's optimal dual, which [`certify_kkt`] checks. The simplex
//! serves models with general rows, `--backend lp` and the test oracles
//! rather than an inner loop.
//!
//! The SMO constraint matrices contain only `0, ±1` entries (§VI), so f64
//! arithmetic with modest tolerances ([`EPS`]) is numerically comfortable.
//!
//! ## Example
//!
//! ```
//! use smo_lp::{Problem, Sense};
//!
//! # fn main() -> Result<(), smo_lp::LpError> {
//! // minimize x2 subject to x1 >= 2, x1 >= x2, x1 <= 4, x2 <= 2, x2 >= 1
//! let mut p = Problem::new();
//! let x1 = p.add_var("x1");
//! let x2 = p.add_var("x2");
//! p.constrain(x1.into(), Sense::Ge, 2.0);
//! p.constrain(x1 - x2, Sense::Ge, 0.0);
//! p.constrain(x1.into(), Sense::Le, 4.0);
//! p.constrain(x2.into(), Sense::Le, 2.0);
//! p.constrain(x2.into(), Sense::Ge, 1.0);
//! p.minimize(x2.into());
//! let sol = p.solve()?.into_optimal()?;
//! assert!((sol.objective() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod export;
mod expr;
mod graph;
mod iis;
mod pricing;
mod problem;
mod recover;
mod scale;
mod simplex;
mod solution;
mod sparse;
mod tol;
mod verify;

pub use error::{BudgetUnit, LpError};
pub use export::write_lp;
pub use expr::{merge_terms, LinExpr, VarId};
pub use graph::{
    classify, AffineBound, Classification, DifferenceSystem, FixedParamOutcome, GraphInfeasibility,
    MinParamOutcome, NegativeCycle, ParamArc, ParamGraph, ParamLowerWitness, RowClass,
    SearchOutcome, VarImage,
};
pub use iis::{certifies_infeasibility, extract_graph_iis, extract_iis, Iis};
pub use problem::{ConstraintId, Objective, Problem, Sense};
pub use recover::{CertifiedSolution, RecoveryPolicy, RecoveryStep, SolveBudget};
pub use solution::{OptimalSolution, Solution, Status};
pub use sparse::LuFactors;
pub use tol::Tol;
pub use verify::{certify_kkt, Certificate};

/// Absolute tolerance used throughout the solver for feasibility, pivot
/// eligibility and optimality tests.
///
/// The SMO constraint matrices are `0, ±1` valued, so this comfortable
/// tolerance does not mask genuine degeneracy.
pub const EPS: f64 = 1e-9;
